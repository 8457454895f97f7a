"""Smoke test of tools/report_diff.py on two tiny output directories."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", TOOLS / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_outputs(root, verdict, bound, probe):
    root.mkdir()
    report = {
        "uniform": {"verdict": verdict, "bound_M": bound, "decay_eps": 0.1},
        "strong": {"witnesses": [{"cell": 3, "kind": "probe-did-not-decay"}]},
    }
    (root / "analyze_x.json").write_text(json.dumps(report))
    (root / "trajectory_x.csv").write_text(f"t,ess_sup_norm,probe_0\n0,1,2\n1,0.5,{probe}\n2,nan,nan\n")
    return root


def test_report_diff_counts_numbers_and_lists_changed_fields(tmp_path, capsys):
    report_diff = load_report_diff()
    a = write_outputs(tmp_path / "a", "Stable", 4.0, "0.25")
    b = write_outputs(tmp_path / "b", "Inconclusive", 5.0, "0.25000000000000006")
    assert report_diff.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "analyze_x.json: 3 numbers compared, 1 differ, max relative difference 0.2 in uniform",
        "  uniform.verdict: 'Stable' -> 'Inconclusive'",
        "trajectory_x.csv: 9 numbers compared, 1 differ, max relative difference 2.22e-16"
        " in probe_0",
    ]


def test_every_column_with_a_differing_number_is_named(tmp_path, capsys):
    report_diff = load_report_diff()
    a, b = tmp_path / "a", tmp_path / "b"
    for root, last in ((a, "4,5,6"), (b, "4.5,5,6.5")):
        root.mkdir()
        (root / "x.csv").write_text(f"t,norm,probe_0\n1,2,3\n{last}\n")
    assert report_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "x.csv: 6 numbers compared, 2 differ, max relative difference 0.111 in probe_0, t",
    ]


def test_identical_directories_exit_0(tmp_path, capsys):
    report_diff = load_report_diff()
    a = write_outputs(tmp_path / "a", "Stable", 4.0, "0.25")
    b = write_outputs(tmp_path / "b", "Stable", 4.0, "0.25")
    assert report_diff.main([str(a), str(b)]) == 0
    assert "0 differ" in capsys.readouterr().out
