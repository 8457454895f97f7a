"""Median phases of one `semistab analyze` process on a benchmark workload.

    python3 tools/process_phases.py CHECKOUT [CHANGE] --workload rot256 \
        --processes 15 [--seed 1] [--scale full|smoke]

CHECKOUT (and CHANGE) are checkouts of this repository. The tool writes the
workload's config (CHECKOUT's `perfbench/workloads.py`, `make_config`) into
a temporary directory and runs each checkout's `perfbench/launch.py` on it
`--processes` times, one process at a time, after one warm-up process per
checkout that is not counted. With CHANGE the processes run in pairs, one
per checkout, alternating which checkout starts the pair (CHECKOUT in pair
0), so that drift of the host over the run falls on both sides alike. Every
process and this tool are pinned to one CPU, BLAS runs on one thread, and
`semistab` is imported from the checkout's `src/`. The stamps and reports go
to the temporary directory: the checkouts' files are only read (Python may
add bytecode under their `__pycache__` directories, as any run does).

From the launcher's stamps and the spawn and exit times taken here (one
monotonic clock on Linux) it prints, in milliseconds, for each phase:

* spawn→import -- interpreter start-up, up to `import semistab.cli`;
* import       -- `import semistab.cli` (numpy included);
* pre-stage    -- argument parsing, config and family, up to the first classifier;
* stages       -- the classifiers and the report, up to `cli.main` returning;
* teardown     -- interpreter exit, until the process is reaped;
* total        -- spawn to reap.

With one checkout it prints the median and quartiles of each phase. The
phases of each process sum to its total; their medians sum to the median
total exactly with two processes, and nearly with more. With CHANGE it
prints each checkout's median, the median over the pairs of the difference
CHANGE − CHECKOUT, and the pairs in which CHANGE took less time.
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


def _env(checkout):
    """The environment of a process of `checkout`: BLAS on one thread and
    `semistab` imported from the checkout's `src/`."""
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_THREADS})
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def phases(checkouts, workload, processes, seed=1, scale="full"):
    """For each of `checkouts`, {phase: [seconds per process]} over
    `processes` counted processes; two checkouts run in alternating pairs."""
    checkouts = [Path(c).resolve() for c in checkouts]
    envs = [_env(c) for c in checkouts]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # the children inherit it
    try:
        with tempfile.TemporaryDirectory() as scratch:
            work = Path(scratch)
            config = work / "config.json"
            payload = _workloads(checkouts[0]).make_config(workload, seed, scale)
            config.write_text(json.dumps(payload))
            for checkout, env in zip(checkouts, envs):
                run_process(checkout, config, work, env)  # warm-up: caches, bytecode
            runs = [[] for _ in checkouts]
            sides = range(len(checkouts))
            for i in range(processes):
                for side in sides if i % 2 == 0 else reversed(sides):
                    runs[side].append(run_process(checkouts[side], config, work, envs[side]))
    finally:
        os.sched_setaffinity(0, cpus)
    return [{name: [r[end] - r[start] for r in side] for name, start, end in PHASES}
            for side in runs]


def medians(times):
    """{phase: (median, first quartile, third quartile)} in milliseconds."""
    out = {}
    for name, values in times.items():
        ms = [1e3 * v for v in values]
        q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
        out[name] = (statistics.median(ms), q1, q3)
    return out


def paired(parent, change):
    """{phase: (parent median, change median, median difference, pairs won
    by change)} in milliseconds, from the phases of alternating pairs."""
    out = {}
    for name in parent:
        diffs = [1e3 * (c - p) for p, c in zip(parent[name], change[name])]
        out[name] = (1e3 * statistics.median(parent[name]), 1e3 * statistics.median(change[name]),
                     statistics.median(diffs), sum(d < 0 for d in diffs))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="a checkout of this repository")
    parser.add_argument("change", nargs="?",
                        help="a second checkout, run in alternating pairs with the first")
    parser.add_argument("--workload", required=True, choices=("zab40", "rot256", "rh64"))
    parser.add_argument("--processes", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.processes < 1:
        parser.error("--processes must be at least 1")
    checkouts = [args.checkout] + ([args.change] if args.change else [])
    times = phases(checkouts, args.workload, args.processes, args.seed, args.scale)
    what = "pairs" if args.change else "processes"
    print(f"{args.workload} ({args.scale}, seed {args.seed}), {args.processes} {what}, ms")
    if args.change:
        print(f"{'phase':<14} {'checkout':>9} {'change':>9} {'diff':>8} {'wins':>6}")
        for name, (parent, change, diff, wins) in paired(*times).items():
            print(f"{name:<14} {parent:9.2f} {change:9.2f} {diff:+8.2f} "
                  f"{f'{wins}/{args.processes}':>6}")
        return 0
    print(f"{'phase':<14} {'median':>8} {'q1':>8} {'q3':>8}")
    for name, (median, q1, q3) in medians(times[0]).items():
        print(f"{name:<14} {median:8.2f} {q1:8.2f} {q3:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
