"""Alternating parent/change benchmark pairs, summarised per workload and metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workloads zab40 rot256 rh64 \
        --seed 41 --pairs 10 --seconds 40 --record 7

PARENT and CHANGE are two checkouts of this repository. For each workload it
runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
from each checkout, `--pairs` times, alternating which side runs first
(parent first in pair 0). Neither checkout's files are edited; each run
writes only the git-ignored `perfbench/out/` of its own checkout.

For every end-to-end metric of `BENCHMARK.json` it prints each side's median
and quartiles over the run values, the change/parent ratio of the medians,
the pairs the change wins (ties count for neither side), whether a gain can
be claimed (at least nine tenths of the pairs won and the medians apart by
more than the parent's interquartile range) and whether the change's median
stays within the metric's bound. With `--record N` the runs and the summary
go to `BENCH_<N>.json` at the repository root; without it only the table is
printed, so a sizing run leaves no file in the checkout. The record and the
table header say whether the runs could write bytecode: with `PYTHONDONTWRITEBYTECODE`
set to a nonempty string no run writes `.pyc` files, so in a fresh checkout
every process compiles `src/semistab` from source, which added about 30 ms
to `setup_s` (rot256 on a 2-core Xeon host: 0.217 s against 0.184 s).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: the fields of a run record that say what was measured, and on what
IDENTITY = ("git_rev", "src_sha256", "nproc", "python", "numpy")


def run_once(checkout, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run in `checkout`: its metric values,
    process counts and the source it measured."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode} in {checkout}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (Path(checkout) / "perfbench" / "out" / "results" / f"{workload}-full-seed{seed}.json")
        .read_text()
    )
    return {
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "attempted": line["attempted"],
        "failed": line["failed"],
        "correct": line["correct"],
        **{key: record["env"][key] for key in IDENTITY},
    }


def bytecode(environ):
    """Whether Python processes started with `environ` can write bytecode,
    and the PYTHONDONTWRITEBYTECODE value that decides it (None if unset)."""
    value = environ.get("PYTHONDONTWRITEBYTECODE")
    return {"written": not value, "PYTHONDONTWRITEBYTECODE": value}


def quartiles(values):
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(pairs, metrics):
    """One row per metric of `metrics` (BENCHMARK.json end-to-end entries)
    over `pairs`, a list of {"parent": run, "change": run} with each run's
    values under "metrics"."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        wins = ties = 0
        for p, c in zip(values["parent"], values["change"]):
            ties += c == p
            wins += c < p if lower else c > p
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        gain = parent - change if lower else change - parent
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        limit = parent * (1 + metric["bound"]) if lower else parent * (1 - metric["bound"])
        rows.append({
            "metric": name,
            "pairs": len(pairs),
            **stats,
            "ratio": change / parent if parent else None,
            "wins": wins,
            "ties": ties,
            "gain": wins >= 0.9 * len(pairs) and gain > spread,
            "within_bound": change <= limit if lower else change >= limit,
        })
    return rows


def format_rows(workload, rows):
    def spread(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    lines = []
    for r in rows:
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}"
        lines.append(
            f"| {workload} | {r['metric']} | {r['pairs']} | {spread(r['parent'])} | "
            f"{spread(r['change'])} | {ratio} | {r['wins']}/{r['pairs']} ({r['ties']} ties) | "
            f"{'yes' if r['gain'] else 'no'} | {'yes' if r['within_bound'] else 'NO'} |"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--record", type=int,
                        help="write BENCH_<record>.json at the repository root "
                             "(default: print the table only)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = {"parent": args.parent, "change": args.change}
    result = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "bytecode": bytecode(os.environ),
        "workloads": {},
    }
    written = result["bytecode"]
    table = [f"bytecode written: {'yes' if written['written'] else 'no'} "
             f"(PYTHONDONTWRITEBYTECODE={written['PYTHONDONTWRITEBYTECODE'] or 'unset'})",
             "",
             "| workload | metric | pairs | parent median [q1, q3] | change median [q1, q3] | "
             "change/parent | change wins | gain | within bound |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for workload in args.workloads:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, args.seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} wall_s {pair[side]['metrics']['wall_s']:.4g}" for side in SIDES),
                file=sys.stderr)
        rows = summarize(pairs, metrics)
        result["workloads"][workload] = {"runs": pairs, "summary": rows}
        table += format_rows(workload, rows)
    for side in SIDES:
        runs = [p[side] for w in result["workloads"].values() for p in w["runs"]]
        result[side] = {key: sorted({r[key] for r in runs}, key=str) for key in IDENTITY}
    if args.record is not None:
        (ROOT / f"BENCH_{args.record}.json").write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
