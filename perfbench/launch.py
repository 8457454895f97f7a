"""Run one `semistab analyze` in this process, the way `python -m semistab.cli`
would, and record time stamps for the benchmark.

    python3 perfbench/launch.py STAMPS [--setup-only] [--spans FILE] -- CLI-ARGS...

STAMPS receives a JSON object of `time.perf_counter()` readings, which on
Linux share one monotonic clock with the parent process:

* `import_start`, `import_end` around `import semistab.cli`;
* `stage_start` when the first classifier (`classify_uniform`) is called;
* `main_end` when the CLI returned, after the report was written.

`--setup-only` exits as soon as the first classifier is called, so the
process measures set-up alone. `--spans FILE` installs the outside-in tracer
and writes its spans to FILE at the end.
"""

import json
import os
import sys
import time


def main(argv):
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    stamps_path = opts[0]
    setup_only = "--setup-only" in opts
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    stamps = {"import_start": time.perf_counter()}
    from semistab import cli, stability

    stamps["import_end"] = time.perf_counter()
    stamps["semistab_file"] = cli.__file__

    def write_stamps():
        with open(stamps_path, "w") as fh:
            json.dump(stamps, fh)

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        first_stage = stability.classify_uniform

        def stamped(*args, **kwargs):
            stamps.setdefault("stage_start", time.perf_counter())
            if setup_only:
                write_stamps()
                os._exit(0)
            return first_stage(*args, **kwargs)

        stability.classify_uniform = stamped

    code = cli.main(cli_args)
    stamps["main_end"] = time.perf_counter()
    if tracer is not None:
        tracer.dump(spans_path)
    write_stamps()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
