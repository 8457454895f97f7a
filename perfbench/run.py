"""The semistab benchmark: `semistab analyze` on three workloads.

    python3 perfbench/run.py --workload zab40|rot256|rh64 --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds nothing: the CLI runs from
`src/` through PYTHONPATH, in fresh processes, with BLAS pinned to one
thread. One CLI process runs at a time, so that no sample competes with
another for a CPU.

The CPUs of a shared host run faster or slower as other guests load them,
by up to 2x within minutes. So the harness and every CLI process are pinned
to one CPU, and between two CLI processes the harness times a fixed
reference job (`reference_s`) on it. Each process's times are multiplied by
`REFERENCE_NOMINAL_S` over the mean of the reference times just before and
just after it: the time metrics are in seconds at the host speed where the
reference takes `REFERENCE_NOMINAL_S`. The unscaled times are printed and
kept beside them.

`--trace 0` measures the end-to-end metrics: one warm-up process, then full
`analyze` runs one after another until `--seconds` is used up (at least
`MIN_RUNS`). `--trace 1` alternates one traced and one untraced process and
reports the per-layer metrics; the untraced ones give the tracing overhead.
Every report passes through the output oracle of `workloads.py`; a failing
process or report counts in `failed`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Lines before it are a readable table; the full
record (samples, report hashes, environment) is written to
`perfbench/out/results/`.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy loads, so that the reference job runs on one BLAS thread too
os.environ.update({k: "1" for k in BLAS_THREADS})

import numpy as np  # noqa: E402
from workloads import WORKLOADS, check_report, make_config  # noqa: E402

#: a CLI process that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0
MIN_RUNS = 3
#: the time metrics are scaled to the host speed at which `reference_s`
#: takes this long: a round figure within the 0.07 to 0.17 s it took on the
#: 2-vCPU Xeon guest the benchmark was written on
REFERENCE_NOMINAL_S = 0.1
_SMALL = np.cos(np.arange(36.0)).reshape(6, 6)
_DENSE = np.cos(np.arange(1600.0)).reshape(40, 40) / 40
_DENSE_SHIFT = 2 * np.eye(40)


def reference_s():
    """Wall time of a fixed job shaped like the CLI's own work: 6x6 numpy
    calls (eigenvalues, 2-norm, product) with pure-Python bookkeeping, as in
    the rotation and random-Hurwitz families, and 40x40 products and solves,
    as in the padded Zabczyk blocks. It uses numpy only, never semistab, so
    that no change to the program moves it."""
    table = {}
    t0 = time.perf_counter()
    for i in range(1000):
        m = _SMALL * (1.0 + 1e-3 * i)
        np.linalg.eigvals(m)
        np.linalg.norm(m, 2)
        m @ m
        for j in range(20):
            table[(i * 20 + j) & 1023] = (j * j) % 7
    for i in range(150):
        m = _DENSE * (1.0 + 1e-3 * i)
        np.linalg.solve(m + _DENSE_SHIFT, m @ m @ m)
        np.linalg.norm(m, 2)
    return time.perf_counter() - t0


def declared_units(section):
    """{metric: unit} of one metric list in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Child:
    """One CLI process: what it was asked to do and what it left behind."""

    def __init__(self, kind, index, work):
        self.kind = kind  # "setup", "full" or "traced"
        self.stem = work / f"{kind}-{index}"
        self.report = self.stem.with_suffix(".report.json")
        self.stamps = self.stem.with_suffix(".stamps.json")
        self.spans = self.stem.with_suffix(".spans.npz")
        self.proc = None
        self.ref_before = self.ref_after = None
        self.t_spawn = self.t_exit = None
        self.code = None
        self.rusage = None
        self.stamp = None
        self.sha256 = None
        self.problems = []

    def argv(self, config):
        opts = [str(self.stamps)]
        if self.kind == "setup":
            opts.append("--setup-only")
        if self.kind == "traced":
            opts += ["--spans", str(self.spans)]
        cli = ["analyze", str(config), "--out", str(self.report), "--quiet"]
        return [sys.executable, str(HERE / "launch.py"), *opts, "--", *cli]

    @property
    def wall_s(self):
        return self.t_exit - self.t_spawn

    @property
    def scale(self):
        """Factor from this process's times to times at the nominal speed."""
        return REFERENCE_NOMINAL_S / ((self.ref_before + self.ref_after) / 2)

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0

    @property
    def setup_s(self):
        return self.stamp["stage_start"] - self.t_spawn

    @property
    def ok(self):
        return self.code == 0 and not self.problems


class Runner:
    """Runs CLI processes one at a time and reaps each of them."""

    def __init__(self, root, work, config, env):
        self.root, self.work, self.config, self.env = root, work, config, env
        self.current = None
        self.count = 0
        self.last_ref = None

    def run(self, kind):
        """Start one `kind` process, wait for it to end and return it, with
        the reference timed just before and just after it."""
        self.count += 1
        c = Child(kind, self.count, self.work)
        if self.last_ref is None:
            self.last_ref = reference_s()
        c.ref_before = self.last_ref
        with open(c.stem.with_suffix(".stderr"), "wb") as err:
            c.t_spawn = time.perf_counter()
            c.proc = subprocess.Popen(
                c.argv(self.config), cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
        self.current = c
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        watchdog.start()
        try:
            _, status, c.rusage = os.wait4(c.proc.pid, 0)
            c.t_exit = time.perf_counter()
            c.code = c.proc.returncode = os.waitstatus_to_exitcode(status)
            self.current = None
        finally:
            watchdog.cancel()
        c.ref_after = self.last_ref = reference_s()
        return c

    def kill(self):
        c = self.current
        if c is not None:
            try:
                c.proc.send_signal(signal.SIGKILL)
            except ProcessLookupError:
                pass

    def stop(self):
        """Kill and reap the process that is still running, if any."""
        c = self.current
        if c is not None:
            self.kill()
            try:
                os.waitpid(c.proc.pid, 0)
            except ChildProcessError:
                pass
            c.proc.returncode = -signal.SIGKILL
            self.current = None


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def inspect(child, workload, config, src):
    """Fill in `child.problems` from its exit code, stamps and report."""
    if child.code != 0:
        err = child.stem.with_suffix(".stderr").read_text(errors="replace").strip()
        child.problems.append(f"exit code {child.code}: {err[-300:]}")
        return
    stamps = _read_json(child.stamps)
    if stamps is None:
        child.problems.append("no time stamps written")
        return
    child.stamp = stamps
    if not Path(stamps["semistab_file"]).resolve().is_relative_to(src):
        child.problems.append(f"semistab imported from {stamps['semistab_file']}")
    if child.kind == "setup":
        return
    try:
        data = child.report.read_bytes()
        report = json.loads(data)
    except (OSError, ValueError) as exc:
        child.problems.append(f"unreadable report: {exc}")
        return
    child.sha256 = hashlib.sha256(data).hexdigest()
    try:
        child.problems += check_report(workload, config, report)
    except (KeyError, TypeError) as exc:
        child.problems.append(f"report lacks an expected field: {exc!r}")


def summary(values):
    """Median, quartiles, sample count and the highest percentile that has at
    least ten samples beyond it (None until that percentile is the median or
    above, from twenty samples on)."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "min": values[0], "max": values[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    tail = math.floor(100 * (1 - 10 / n)) if n >= 20 else None
    out["tail_pct"] = tail
    out["tail_value"] = (
        statistics.quantiles(values, n=100, method="inclusive")[tail - 1] if tail else None
    )
    return out


def process_record(c):
    out = {"kind": c.kind, "code": c.code, "problems": c.problems}
    if c.code == 0:
        out.update(wall_s=c.wall_s, cpu_s=c.cpu_s, rss_mb=c.rss_mb,
                   ref_before_s=c.ref_before, ref_after_s=c.ref_after)
    if c.stamp and "stage_start" in c.stamp:
        out["setup_s"] = c.setup_s
    return out


def environment(root, env):
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": {k: env[k] for k in BLAS_THREADS},
    }
    for mod in ("numpy", "scipy"):
        try:
            info[mod] = __import__(mod).__version__
        except ImportError:
            info[mod] = None
    info["git_rev"] = None
    if (root / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        info["git_rev"] = rev.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((root / "src" / "semistab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = h.hexdigest()
    return info


def _until_spent(seconds, step):
    """Call `step` until `seconds` would be exceeded, at least MIN_RUNS times."""
    t0 = time.perf_counter()
    runs, longest = 0, 0.0
    while runs < MIN_RUNS or time.perf_counter() - t0 + longest <= seconds:
        r0 = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - r0)
        runs += 1


def measure_end_to_end(runner, seconds):
    warm_up = runner.run("setup")  # byte-compiles, fills file caches; not counted
    full = []
    _until_spent(seconds, lambda: full.append(runner.run("full")))
    return [warm_up], full


def measure_traced(runner, seconds):
    runner.run("setup")  # warm-up
    traced, plain = [], []

    def pair():
        traced.append(runner.run("traced"))
        plain.append(runner.run("full"))

    _until_spent(seconds, pair)
    return traced, plain


def end_to_end_metrics(setup, full):
    # a process that ran to completion is timed even when its report is wrong;
    # the oracle's verdict shows in ok_rate and `correct`
    timed = [c for c in full if c.stamp]
    stats = {
        "wall_s": summary([c.wall_s * c.scale for c in timed]) if timed else None,
        "setup_s": summary([c.setup_s * c.scale for c in timed]) if timed else None,
        "peak_rss_mb": summary([c.rss_mb for c in timed]) if timed else None,
    }
    metrics = {k: s["median"] for k, s in stats.items() if s}
    if timed:
        stats["wall_s"]["raw_median"] = statistics.median(c.wall_s for c in timed)
        stats["setup_s"]["raw_median"] = statistics.median(c.setup_s for c in timed)
        stats["reference_s"] = summary([c.ref_before for c in timed] + [timed[-1].ref_after])
    attempted = len(setup) + len(full)
    failed = sum(not c.ok for c in setup + full)
    metrics["ok_rate"] = 1.0 - failed / attempted
    stats["fail_rate"] = failed / attempted
    return metrics, stats


def per_layer_metrics(traced, plain):
    from tracer import summarize

    # as for the end-to-end metrics, every process that ran to completion counts
    traced = [c for c in traced if c.stamp]
    plain = [c for c in plain if c.stamp]
    if not traced or not plain:
        return {}, []
    rows = [
        summarize(c.spans, c.wall_s, c.stamp["import_end"] - c.stamp["import_start"],
                  c.stamp["main_end"])
        for c in traced
    ]
    problems = []
    metrics = {}
    for name in rows[0]:
        values = [r[name] for r in rows]
        if isinstance(values[0], int):
            # counts are properties of the program and the input: they repeat
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    traced_wall = statistics.median(c.wall_s * c.scale for c in traced)
    plain_wall = statistics.median(c.wall_s * c.scale for c in plain)
    metrics["proc.cpu_s"] = statistics.median(c.cpu_s for c in plain)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return metrics, problems


def print_table(args, info, units, metrics, stats, children, problems, hashes):
    failed = sum(not c.ok for c in children)
    print(f"semistab benchmark  workload={args.workload} scale={args.scale} seed={args.seed} "
          f"trace={args.trace} processes={len(children)} failed={failed} concurrent=1")
    print("env " + " ".join(f"{k}={v}" for k, v in info.items() if k != "blas_threads")
          + " blas_threads=1")
    for name, unit in units.items():
        line = f"  {name:<48} {metrics.get(name, float('nan')):>14.6g} {unit}"
        s = stats.get(name)
        if s and s["n"] >= 2:
            tail = (f"p{s['tail_pct']}={s['tail_value']:.6g}" if s["tail_pct"]
                    else "fewer than 20 samples, so no tail percentile")
            line += f"   median of {s['n']}, q1={s['q1']:.6g} q3={s['q3']:.6g}, {tail}"
            if "raw_median" in s:
                line += f", unscaled median {s['raw_median']:.6g}"
        print(line)
        if name == "ok_rate":
            print(f"  {'fail_rate':<48} {stats['fail_rate']:>14.6g} share")
    ref = stats.get("reference_s")
    if ref:
        print(f"  reference job: median {ref['median']:.6g} s of {ref['n']}, "
              f"min {ref['min']:.6g}, max {ref['max']:.6g}; times above are scaled "
              f"to {REFERENCE_NOMINAL_S} s")
    for sha in hashes:
        print(f"report sha256 {sha}")
    for c in children:
        for p in c.problems:
            print(f"FAILED {c.kind} process {c.stem.name}: {p}")
    for p in problems:
        print(f"FAILED {p}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every family, to test the harness itself")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "semistab" / "cli.py").is_file():
        print(f"error: {src}/semistab/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    tag = f"{args.workload}-{args.scale}" + ("-trace" if args.trace else "")
    work = HERE / "out" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = make_config(args.workload, args.seed, args.scale)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    info = environment(root, env)
    # the harness, its reference job and every CLI process share one CPU
    info["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {info["pinned_cpu"]})
    runner = Runner(root, work, config_path, env)
    # turn SIGTERM into SystemExit so that the `finally` below reaps every child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            traced, plain = measure_traced(runner, args.seconds)
            children = traced + plain
        else:
            setup, full = measure_end_to_end(runner, args.seconds)
            children = setup + full
    finally:
        runner.stop()
    for c in children:
        inspect(c, args.workload, config, src)

    if args.trace:
        metrics, problems = per_layer_metrics(traced, plain)
        units = declared_units("per_layer")
        stats = {}
    else:
        metrics, stats = end_to_end_metrics(setup, full)
        problems = []
        units = declared_units("end_to_end")
    missing = [name for name in units if name not in metrics]
    problems += [f"metric {name} was not measured" for name in missing]
    attempted = len(children)
    failed = sum(not c.ok for c in children)
    correct = failed == 0 and not problems
    hashes = sorted({c.sha256 for c in children if c.sha256})

    print_table(args, info, units, metrics, stats, children, problems, hashes)
    record = {
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "config": config, "env": info,
        "metrics": metrics, "stats": stats, "report_sha256": hashes,
        "processes": [process_record(c) for c in children],
    }
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-seed{args.seed}.json").write_text(json.dumps(record, indent=1) + "\n")

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
