"""Print the sha256 of the 22 gate outputs of this checkout.

    python3 tools/gate_digests.py [--keep DIR]

The gate outputs are `analyze` and `trajectory` on each of the seven
`configs/*.json`, `sweep` on `rotation_sweep` and `zabczyk_sweep`, and
`analyze` on the benchmark's workload configs (`perfbench/workloads.py`,
`make_config`) at benchmark seeds 1 and 2. Each runs as its own `python -m semistab.cli` process from this checkout's `src/`,
with BLAS pinned to one thread, writing into a temporary directory that is
removed afterwards, or into DIR (created if absent) with `--keep DIR`. A
change that keeps the reports byte-identical prints the same table as its
parent commit; `tools/report_diff.py` compares two kept directories.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
SWEEPS = ("rotation_sweep", "zabczyk_sweep")
WORKLOAD_SEEDS = (1, 2)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, make_config  # noqa: E402


def gate_runs(config_dir):
    """(output name, CLI arguments without the output flag, output flag),
    with the workload configs written into `config_dir`."""
    runs = []
    for cfg in CONFIGS:
        runs.append((f"analyze_{cfg.stem}.json", ["analyze", str(cfg)], "--out"))
    for cfg in CONFIGS:
        runs.append((f"trajectory_{cfg.stem}.csv", ["trajectory", str(cfg)], "--csv"))
    for stem in SWEEPS:
        cfg = ROOT / "configs" / f"{stem}.json"
        runs.append((f"sweep_{stem}.csv", ["sweep", str(cfg)], "--csv"))
    for workload in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            cfg = Path(config_dir) / f"{workload}_seed{seed}.json"
            cfg.write_text(json.dumps(make_config(workload, seed)))
            runs.append((f"analyze_{cfg.stem}.json", ["analyze", str(cfg)], "--out"))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description="sha256 of the 22 gate outputs")
    parser.add_argument("--keep", metavar="DIR", help="write the outputs into DIR")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(args.keep or scratch)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, cli_args, flag in gate_runs(scratch):
            out = out_dir / name
            cmd = [sys.executable, "-m", "semistab.cli", *cli_args, flag, str(out), "--quiet"]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{' '.join(cli_args)} exited with code {proc.returncode}", file=sys.stderr)
                return 1
            rows.append((name, hashlib.sha256(out.read_bytes()).hexdigest()))
    for name, digest in rows:
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
