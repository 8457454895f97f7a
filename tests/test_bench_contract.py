"""The benchmark's contract with the package: the tracer wraps functions by
name, so every name it lists must still exist, or a traced benchmark run
crashes; and every workload report must pass the benchmark's oracle, or its
ok_rate drops."""

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import TARGETS  # noqa: E402
from workloads import WORKLOADS, check_report, make_config  # noqa: E402

from semistab import cli  # noqa: E402


@pytest.mark.parametrize("module, name", [(t[0], t[1]) for t in TARGETS])
def test_trace_target_resolves_to_a_callable(module, name):
    mod = importlib.import_module(f"semistab.{module}")
    assert callable(getattr(mod, name, None)), f"semistab.{module}.{name}"


ORACLE_CASES = [(w, seed, "smoke") for w in WORKLOADS for seed in (1, 2)] + [
    ("rot256", 1, "full"),
    ("rh64", 1, "full"),
]


@pytest.mark.parametrize("workload, seed, scale", ORACLE_CASES)
def test_report_passes_the_benchmark_oracle(tmp_path, workload, seed, scale):
    # the verdicts the benchmark counts in ok_rate, checked in the test suite
    path = tmp_path / "config.json"
    path.write_text(json.dumps(make_config(workload, seed, scale)))
    cfg = cli.load_config(path)
    assert check_report(workload, cfg, cli.run_analysis(cfg)) == []


#: config_hash of each workload's merged config at benchmark seed 1: the
#: benchmark compares reports whose meta carries it
WORKLOAD_HASHES = {
    "zab40": "d0bbc8d6dee1867e65d4ed3f195add33c4f09ad804a950242ca81217bb4a5abc",
    "rot256": "517364c7131ffa38122c1accfea6a38fa550ce2bc32814e1a77e92a56ee9a2d6",
    "rh64": "4a1815c4c7478832888d59327e2590156a977f332f8cd65276f97bf317709b84",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_config_hash(tmp_path, workload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(make_config(workload, 1)))
    assert cli.config_hash(cli.load_config(path)) == WORKLOAD_HASHES[workload]
