"""Tests of tools/report_diff.py on two tiny output directories and on two
files, of the summary logic of tools/bench_pairs.py on synthetic run
records, and of the runs of tools/gate_digests.py."""

import importlib.util
import json
from pathlib import Path

import pytest

from semistab import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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
    report_diff = load_tool("report_diff")
    a = write_outputs(tmp_path / "a", "Stable", 4.0, "0.25")
    b = write_outputs(tmp_path / "b", "Inconclusive", 5.0, "0.25000000000000006")
    assert report_diff.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "analyze_x.json: 2 numbers compared, 1 differ, max relative difference 0.2 in uniform",
        "  uniform.verdict: 'Stable' -> 'Inconclusive'",
        "trajectory_x.csv: 9 numbers compared, 1 differ, max relative difference 2.22e-16"
        " in probe_0",
    ]


def test_every_column_with_a_differing_number_is_named(tmp_path, capsys):
    report_diff = load_tool("report_diff")
    a, b = tmp_path / "a", tmp_path / "b"
    for root, last in ((a, "4,5,6"), (b, "4.5,5,6.5")):
        root.mkdir()
        (root / "x.csv").write_text(f"t,norm,probe_0\n1,2,3\n{last}\n")
    assert report_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "x.csv: 6 numbers compared, 2 differ, max relative difference 0.111 in probe_0, t",
    ]


def test_two_report_files_are_compared_directly(tmp_path, capsys):
    report_diff = load_tool("report_diff")
    a = write_outputs(tmp_path / "a", "Stable", 4.0, "0.25")
    b = write_outputs(tmp_path / "b", "Stable", 5.0, "0.25")
    (b / "analyze_x.json").rename(b / "analyze_y.json")
    assert report_diff.main([str(a / "analyze_x.json"), str(b / "analyze_y.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "analyze_x.json vs analyze_y.json: 2 numbers compared, 1 differ, "
        "max relative difference 0.2 in uniform",
    ]
    same = str(a / "trajectory_x.csv")
    assert report_diff.main([same, same]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "trajectory_x.csv: 9 numbers compared, 0 differ, max relative difference 0",
    ]
    with pytest.raises(SystemExit):
        report_diff.main([str(a), same])


def test_a_changed_json_integer_is_listed_not_scored(tmp_path, capsys):
    # a witness cell is an id: 31 -> 0 is no relative difference of 1
    report_diff = load_tool("report_diff")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"uniform": {"rho_star": 1.0, "witnesses": [{"cell": 31}]}}))
    b.write_text(json.dumps({"uniform": {"rho_star": 1.0, "witnesses": [{"cell": 0}]}}))
    assert report_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.json vs b.json: 1 numbers compared, 0 differ, max relative difference 0",
        "  uniform.witnesses[0].cell: 31 -> 0",
    ]


def test_identical_directories_exit_0(tmp_path, capsys):
    report_diff = load_tool("report_diff")
    a = write_outputs(tmp_path / "a", "Stable", 4.0, "0.25")
    b = write_outputs(tmp_path / "b", "Stable", 4.0, "0.25")
    assert report_diff.main([str(a), str(b)]) == 0
    assert "0 differ" in capsys.readouterr().out


METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "ok_rate", "better": "higher", "bound": 0.01},
]


def synthetic_pairs(parent_wall, change_wall, parent_rss, change_rss):
    def run(wall, rss):
        return {"metrics": {"wall_s": wall, "peak_rss_mb": rss, "ok_rate": 1.0}}

    return [
        {"parent": run(pw, pr), "change": run(cw, cr)}
        for pw, cw, pr, cr in zip(parent_wall, change_wall, parent_rss, change_rss)
    ]


def test_bench_pairs_summary_counts_wins_and_checks_the_claim(monkeypatch):
    bench_pairs = load_tool("bench_pairs")

    def no_process(*args, **kwargs):
        raise AssertionError("the summary must not start a benchmark process")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_process)
    parent = [1.00, 1.02, 0.98, 1.04, 0.96, 1.01, 0.99, 1.03, 0.97, 1.00]
    change = [0.80, 0.82, 0.78, 0.84, 0.76, 0.81, 0.79, 0.83, 0.77, 1.10]
    pairs = synthetic_pairs(parent, change, [40.0] * 10, [45.0] * 9 + [40.0])
    wall, rss, ok = bench_pairs.summarize(pairs, METRICS)

    assert wall["parent"] == pytest.approx({"median": 1.0, "q1": 0.9825, "q3": 1.0175})
    assert wall["change"]["median"] == pytest.approx(0.805)
    assert (wall["wins"], wall["ties"]) == (9, 0)
    assert wall["ratio"] == pytest.approx(0.805)
    assert wall["gain"] and wall["within_bound"]

    # 45 MB is 12.5 % above the parent's 40 MB: past the 10 % bound
    assert (rss["wins"], rss["ties"]) == (0, 1)
    assert not rss["gain"] and not rss["within_bound"]

    assert (ok["wins"], ok["ties"]) == (0, 10)
    assert not ok["gain"] and ok["within_bound"]

    row = bench_pairs.format_rows("zab40", [wall])[0]
    assert row == (
        "| zab40 | wall_s | 10 | 1 [0.9825, 1.018] | 0.805 [0.7825, 0.8275] | 0.805 | "
        "9/10 (0 ties) | yes | yes |"
    )


SPREAD_PARENT = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]


@pytest.mark.parametrize(
    "change, wins",
    [
        # every pair won, but the medians sit closer than the parent's quartiles
        ([p - 0.01 for p in SPREAD_PARENT], 10),
        # a large gain on 8 pairs of 10
        ([0.5] * 8 + [1.5, 1.5], 8),
    ],
)
def test_bench_pairs_claim_needs_nine_tenths_and_more_than_the_parent_spread(change, wins):
    bench_pairs = load_tool("bench_pairs")
    pairs = synthetic_pairs(SPREAD_PARENT, change, [40.0] * 10, [40.0] * 10)
    wall, _, _ = bench_pairs.summarize(pairs, METRICS)
    assert wall["wins"] == wins
    assert not wall["gain"]


def test_expm_accuracy_rows_bin_both_routes():
    tool = load_tool("expm_accuracy")
    rng = tool.np.random.default_rng(0)
    got = list(tool.rows("random Hurwitz", tool.random_hurwitz, rng, per=1, max_draws=50))
    assert got and got[0].startswith("| random Hurwitz | (1, 10] | 1 | ")
    cells = got[0].split("|")
    eig, pade = (float(cell) for cell in cells[4:6])
    assert 0.0 <= eig <= 5e-11 and 0.0 <= pade <= 5e-11
    # the certified bound U holds every norm and is within a factor of the
    # number of eigenvalues of it
    ratio, below = float(cells[7]), int(cells[8])
    assert 1.0 <= ratio <= 5.0 and below == 0
    assert tool.eigenbasis.EIGENBASIS_COND == 1e2


@pytest.mark.parametrize("value, written, shown", [
    (None, True, "bytecode written: yes (PYTHONDONTWRITEBYTECODE=unset)"),
    ("", True, "bytecode written: yes (PYTHONDONTWRITEBYTECODE=unset)"),
    ("1", False, "bytecode written: no (PYTHONDONTWRITEBYTECODE=1)"),
])
def test_bench_pairs_records_whether_bytecode_was_written(
    tmp_path, monkeypatch, capsys, value, written, shown
):
    # setup_s differs by about 30 ms between runs with and without .pyc
    # files, so the record and the table header say which it was
    bench_pairs = load_tool("bench_pairs")
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    identity = {key: "x" for key in bench_pairs.IDENTITY}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: {
        "metrics": {"wall_s": 1.0, "peak_rss_mb": 40.0, "ok_rate": 1.0}, **identity})
    assert bench_pairs.main(["p", "c", "--workloads", "zab40", "--seed", "1",
                             "--pairs", "2", "--record", "7"]) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["bytecode"] == {"written": written, "PYTHONDONTWRITEBYTECODE": value}
    assert capsys.readouterr().out.splitlines()[0] == shown


def test_bench_pairs_without_record_prints_the_table_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    # a sizing run leaves the checkout as it found it
    bench_pairs = load_tool("bench_pairs")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    identity = {key: "x" for key in bench_pairs.IDENTITY}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: {
        "metrics": {"wall_s": 1.0, "peak_rss_mb": 40.0, "ok_rate": 1.0}, **identity})
    assert bench_pairs.main(["p", "c", "--workloads", "zab40", "--seed", "1",
                             "--pairs", "2"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCHMARK.json"]
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("| zab40 | ") for line in out) == len(METRICS)


def test_gate_digests_run_the_workload_configs(tmp_path):
    # analyze on each benchmark workload at benchmark seeds 1 and 2, from the
    # configs perfbench generates, after the 16 runs on the bundled configs
    gate_digests = load_tool("gate_digests")
    runs = gate_digests.gate_runs(tmp_path)
    names = [name for name, _, _ in runs]
    assert len(set(names)) == len(names) == 22
    expected = [(w, seed) for w in ("zab40", "rot256", "rh64") for seed in (1, 2)]
    assert names[16:] == [f"analyze_{w}_seed{seed}.json" for w, seed in expected]
    for (workload, seed), (_, args, flag) in zip(expected, runs[16:]):
        assert (args[0], flag) == ("analyze", "--out")
        config = json.loads(Path(args[1]).read_text())
        assert config == gate_digests.make_config(workload, seed)
    out = tmp_path / "report.json"
    assert cli.main([*runs[-3][1], "--out", str(out), "--quiet"]) == 0
    assert len(json.loads(out.read_text())["almost_weak"]["clusters"]) == 256


def test_process_phases_sum_to_the_total(capsys):
    # each process's phases sum to its total, and the medians of two
    # processes are their means, so the printed medians sum to the total
    process_phases = load_tool("process_phases")
    root = TOOLS.parent
    assert process_phases.main(
        [str(root), "--workload", "rot256", "--processes", "2", "--scale", "smoke"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rot256 (smoke, seed 1), 2 processes, ms"
    rows = {line.split()[0]: float(line.split()[1]) for line in lines[2:]}
    assert list(rows) == [name for name, _, _ in process_phases.PHASES]
    assert all(value > 0 for value in rows.values())
    assert abs(sum(rows.values()) - 2 * rows["total"]) < 1.0
