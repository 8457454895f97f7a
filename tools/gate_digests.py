"""Print the sha256 of the 16 gate outputs of this checkout.

    python3 tools/gate_digests.py [--keep DIR]

The gate outputs are `analyze` and `trajectory` on each of the seven
`configs/*.json` and `sweep` on `rotation_sweep` and `zabczyk_sweep`. Each
runs as its own `python -m semistab.cli` process from this checkout's `src/`,
with BLAS pinned to one thread, writing into a temporary directory that is
removed afterwards, or into DIR (created if absent) with `--keep DIR`. A
change that keeps the reports byte-identical prints the same table as its
parent commit; `tools/report_diff.py` compares two kept directories.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
SWEEPS = ("rotation_sweep", "zabczyk_sweep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def gate_runs():
    """(output name, CLI arguments without the output flag, output flag)."""
    runs = []
    for cfg in CONFIGS:
        runs.append((f"analyze_{cfg.stem}.json", ["analyze", str(cfg)], "--out"))
    for cfg in CONFIGS:
        runs.append((f"trajectory_{cfg.stem}.csv", ["trajectory", str(cfg)], "--csv"))
    for stem in SWEEPS:
        cfg = ROOT / "configs" / f"{stem}.json"
        runs.append((f"sweep_{stem}.csv", ["sweep", str(cfg)], "--csv"))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description="sha256 of the 16 gate outputs")
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
        for name, cli_args, flag in gate_runs():
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
