"""Median phases of one `semistab analyze` process on a benchmark workload.

    python3 tools/process_phases.py CHECKOUT --workload rot256 --processes 15 \
        [--seed 1] [--scale full|smoke]

CHECKOUT is a checkout of this repository. The tool writes the workload's
config (`perfbench/workloads.py`, `make_config`) into a temporary directory
and runs CHECKOUT's `perfbench/launch.py` on it `--processes` times, one
process at a time, after one warm-up process that is not counted. Every
process and this tool are pinned to one CPU, BLAS runs on one thread, and
`semistab` is imported from CHECKOUT's `src/`. The stamps and reports go to
the temporary directory: CHECKOUT's files are only read (Python may add
bytecode under its `__pycache__` directories, as any run does).

From the launcher's stamps and the spawn and exit times taken here (one
monotonic clock on Linux) it prints, in milliseconds, the median and
quartiles of each phase:

* spawn→import -- interpreter start-up, up to `import semistab.cli`;
* import       -- `import semistab.cli` (numpy included);
* pre-stage    -- argument parsing, config and family, up to the first classifier;
* stages       -- the classifiers and the report, up to `cli.main` returning;
* teardown     -- interpreter exit, until the process is reaped;
* total        -- spawn to reap.

The phases of each process sum to its total. Their medians sum to the
median total exactly with two processes, and nearly with more.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: each phase as the stamps it runs between; "spawn" and "exit" are taken here
PHASES = (
    ("spawn→import", "spawn", "import_start"),
    ("import", "import_start", "import_end"),
    ("pre-stage", "import_end", "stage_start"),
    ("stages", "stage_start", "main_end"),
    ("teardown", "main_end", "exit"),
    ("total", "spawn", "exit"),
)


def _workloads(checkout):
    path = Path(checkout) / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("checkout_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_process(checkout, config, work, env):
    """One launcher process on `config`: its stamps, with "spawn" and "exit"."""
    stamps_path, report = work / "stamps.json", work / "report.json"
    argv = [sys.executable, str(Path(checkout) / "perfbench" / "launch.py"), str(stamps_path),
            "--", "analyze", str(config), "--out", str(report), "--quiet"]
    spawn = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=checkout, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, err = proc.communicate()
    end = time.perf_counter()
    if proc.returncode != 0:
        raise SystemExit(f"launcher exited with code {proc.returncode}: {err.decode()}")
    stamps = json.loads(stamps_path.read_text())
    stamps_path.unlink()
    return {**stamps, "spawn": spawn, "exit": end}


def phases(checkout, workload, processes, seed=1, scale="full"):
    """{phase: [seconds per process]} over `processes` counted processes."""
    checkout = Path(checkout).resolve()
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_THREADS})
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # the children inherit it
    try:
        with tempfile.TemporaryDirectory() as scratch:
            work = Path(scratch)
            config = work / "config.json"
            config.write_text(json.dumps(_workloads(checkout).make_config(workload, seed, scale)))
            run_process(checkout, config, work, env)  # warm-up: caches, bytecode
            runs = [run_process(checkout, config, work, env) for _ in range(processes)]
    finally:
        os.sched_setaffinity(0, cpus)
    return {name: [r[end] - r[start] for r in runs] for name, start, end in PHASES}


def medians(times):
    """{phase: (median, first quartile, third quartile)} in milliseconds."""
    out = {}
    for name, values in times.items():
        ms = [1e3 * v for v in values]
        q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
        out[name] = (statistics.median(ms), q1, q3)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="a checkout of this repository")
    parser.add_argument("--workload", required=True, choices=("zab40", "rot256", "rh64"))
    parser.add_argument("--processes", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.processes < 1:
        parser.error("--processes must be at least 1")
    table = medians(phases(args.checkout, args.workload, args.processes, args.seed, args.scale))
    print(f"{args.workload} ({args.scale}, seed {args.seed}), {args.processes} processes, ms")
    print(f"{'phase':<14} {'median':>8} {'q1':>8} {'q3':>8}")
    for name, (median, q1, q3) in table.items():
        print(f"{name:<14} {median:8.2f} {q1:8.2f} {q3:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
