import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from semistab import cli, eigenbasis, linalg, pade
from semistab.cases import zabczyk_family
from semistab.errors import ConfigError, NumericalFailureError

from oracles import conditioned_pair

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import make_config  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def pairs(matrix):
    """A complex matrix as the [re, im] pairs of an inline config."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex)]


def analyze_payload(capsys, path, extra=()):
    code = cli.main(["analyze", path, *extra])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


#: verdict and witness kinds (sorted, with repeats) of each stage of
#: `analyze` on every bundled config; where the config enables the discrete
#: stages, "discrete" holds their verdicts and their shared witness kinds. Witness cells and reported numbers are not
#: pinned: the last ulps of a kernel may pick another cell among equals.
_CLUSTER = "imaginary-eigenvalue-cluster"
BUNDLED_VERDICTS = {
    "diagonal": {
        "uniform": ("Stable", []),
        "strong": ("Stable", []),
        "almost_weak": ("Stable", []),
        "discrete": ({"uniform": "Stable", "strong": "Stable", "almost_weak": "Stable"}, []),
    },
    "rotation": {
        "uniform": ("NotStable", ["pointwise-spectral-radius"]),
        "strong": ("NotStable", ["nonnegative-spectral-bound"]),
        "almost_weak": ("NotStable", [_CLUSTER] * 64),
    },
    "rotation_limit": {
        "uniform": ("NotStable", ["pointwise-spectral-radius"]),
        "strong": ("NotStable", ["nonnegative-spectral-bound"]),
        "almost_weak": ("Stable", []),
    },
    "rotation_sweep": {
        "uniform": ("NotStable", ["pointwise-spectral-radius"]),
        "strong": ("NotStable", ["nonnegative-spectral-bound"]),
        "almost_weak": ("Stable", []),
    },
    "random_hurwitz": {
        "uniform": ("Stable", []),
        "strong": ("Stable", []),
        "almost_weak": ("Stable", []),
        "discrete": ({"uniform": "Stable", "strong": "Stable", "almost_weak": "Stable"}, []),
    },
    "zabczyk": {
        "uniform": ("Stable", []),
        "strong": ("Stable", []),
        "almost_weak": ("Stable", []),
    },
    "zabczyk_sweep": {
        "uniform": ("Stable", []),
        "strong": ("Stable", []),
        "almost_weak": ("Stable", []),
    },
}


STAGES = ("uniform", "strong", "almost_weak")


def witness_kinds(part):
    return sorted(w["kind"] for w in part["witnesses"])


def test_bundled_configs_cover_the_pinned_verdicts():
    assert sorted(BUNDLED_VERDICTS) == sorted(cfg.stem for cfg in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("stem", sorted(BUNDLED_VERDICTS))
def test_bundled_config_verdicts_and_witness_kinds(capsys, stem):
    want = dict(BUNDLED_VERDICTS[stem])
    discrete = want.pop("discrete", None)
    payload = analyze_payload(capsys, str(CONFIG_DIR / f"{stem}.json"))
    assert {stage: (payload[stage]["verdict"], witness_kinds(payload[stage]))
            for stage in STAGES} == want
    if discrete is None:
        assert not payload.get("discrete")
    else:
        part = payload["discrete"]
        assert ({stage: part[stage]["verdict"] for stage in STAGES}, witness_kinds(part)) == discrete


#: config_hash of the merged config of each bundled config: a change to the
#: defaults or to the merging moves it
BUNDLED_HASHES = {
    "diagonal": "33b0d6f4af8d7b655182743c0166bef25ef43042b9a6b5793db58ceb781122c4",
    "random_hurwitz": "5b1c2ce16470b3660cbb66bb70cc686dede2e80bb686327888321542affd0602",
    "rotation": "2fec0df514a215717c1d3e50f29b826f387c503aa163d948e4f8045d9ceaa8e0",
    "rotation_limit": "0f520a924c7b8b85aeb3049ea7a9b66e560948cfa62397f186e30a3f02688bd5",
    "rotation_sweep": "747de6f618789232bf3844e98f92be0d4be460a0c3454f363705ba48ac552957",
    "zabczyk": "c6d9fb0c887f7651243c792b73d82489bb46eb6e6846aaaa938a7f04ff986310",
    "zabczyk_sweep": "d37ec6ceaf7cf3f181e03fd0e8c176045bf8cffc7d43604603ea783f94b1e936",
}


@pytest.mark.parametrize("stem", sorted(BUNDLED_VERDICTS))
def test_bundled_config_hash(stem):
    cfg = cli.load_config(CONFIG_DIR / f"{stem}.json")
    assert cli.config_hash(cfg) == BUNDLED_HASHES[stem]


class TestAnalyze:
    def test_bundled_zabczyk_config(self, capsys):
        payload = analyze_payload(capsys, str(CONFIG_DIR / "zabczyk.json"))
        assert payload["uniform"]["verdict"] == "Stable"
        assert payload["uniform"]["decay_eps"] == pytest.approx(0.1, abs=1e-6)
        assert payload["strong"]["verdict"] == "Stable"
        assert payload["strong"]["bound_M"] > 1e3
        assert payload["almost_weak"]["verdict"] == "Stable"
        assert payload["meta"]["version"]

    def test_rotation_atomic_mode(self, capsys):
        payload = analyze_payload(capsys, str(CONFIG_DIR / "rotation.json"))
        assert payload["almost_weak"]["verdict"] == "NotStable"
        assert payload["almost_weak"]["mode"] == "Atomic"
        assert len(payload["almost_weak"]["clusters"]) == 64

    def test_rotation_limit_mode(self, capsys):
        payload = analyze_payload(capsys, str(CONFIG_DIR / "rotation_limit.json"))
        aw = payload["almost_weak"]
        assert aw["verdict"] == "Stable"
        assert aw["mode"] == "NonAtomicLimit"
        assert aw["clusters"] == []

    @pytest.mark.parametrize(
        "family", [{"builtin": "zabczyk", "N": 3}, {"matrices": [[[[-1.0, 0.0]]]]}]
    )
    def test_limit_mode_without_a_rule_exits_2(self, tmp_path, capsys, family):
        cfg = {"family": family, "space": {"mode": "RefinementFamily"}}
        assert cli.main(["analyze", write_config(tmp_path, cfg)]) == 2
        assert "rule" in capsys.readouterr().err

    def test_inline_matrices_and_discrete(self, capsys, tmp_path):
        cfg = {
            "family": {"matrices": [[[[-1.0, 0.0]]], [[[-2.0, 0.0]]]]},
            "time": {"horizon": 60.0, "grid_points": 25},
            "discrete": {"enabled": True, "n_max": 256, "t": 1.0},
        }
        payload = analyze_payload(capsys, write_config(tmp_path, cfg))
        assert payload["uniform"]["verdict"] == "Stable"
        assert payload["uniform"]["decay_eps"] == pytest.approx(1.0, abs=1e-9)
        assert payload["discrete"]["uniform"]["verdict"] == "Stable"
        assert payload["discrete"]["power_certified"] is True

    def test_inline_active_dims_drop_the_padding(self, capsys, tmp_path):
        # a 2x2 Jordan block and a 1x1 cell -1 padded to 2x2: without
        # active_dims the padding's eigenvalue 0 reads NotStable everywhere
        cells = [[[[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                 [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
        stages = ("uniform", "strong", "almost_weak")
        padded = analyze_payload(capsys, write_config(tmp_path, {"family": {"matrices": cells}}))
        assert [padded[s]["verdict"] for s in stages] == ["NotStable"] * 3
        cfg = {"family": {"matrices": cells, "active_dims": [2, 1]}}
        payload = analyze_payload(capsys, write_config(tmp_path, cfg))
        assert [payload[s]["verdict"] for s in stages] == ["Stable"] * 3
        assert payload["uniform"]["decay_eps"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "active, message",
        [
            ([2], "one integer in [1, 2] per cell"),
            ([2, 0], "one integer in [1, 2] per cell"),
            ([2, 3], "one integer in [1, 2] per cell"),
            ([2, 1.0], "one integer in [1, 2] per cell"),
            ([2, True], "one integer in [1, 2] per cell"),
            ("2 1", "one integer in [1, 2] per cell"),
            ([1, 1], "zero outside each cell's active block"),
        ],
    )
    def test_bad_inline_active_dims_exit_2(self, tmp_path, capsys, active, message):
        cells = [[[[-1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                 [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
        cfg = {"family": {"matrices": cells, "active_dims": active}}
        assert cli.main(["analyze", write_config(tmp_path, cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["analyze", str(CONFIG_DIR / "diagonal.json"), "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["uniform"]["verdict"] == "Stable"

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not valid json")
        assert cli.main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # more digits than Python converts to an int
            ('{"family": {"builtin": "rotation", "cells": 1' + "0" * 5000 + "}}", "parse error"),
            (b"\xff\xfe{", "cannot read config file"),
        ],
        ids=["long-integer", "not-utf-8"],
    )
    def test_unconvertible_config_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        assert cli.main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_missing_family_exits_2(self, tmp_path):
        assert cli.main(["analyze", write_config(tmp_path, {"p": 2})]) == 2

    def test_unknown_builtin_exits_2(self, tmp_path):
        cfg = {"family": {"builtin": "mystery"}}
        assert cli.main(["analyze", write_config(tmp_path, cfg)]) == 2

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericalFailureError("did not converge", iterations=30)

        monkeypatch.setattr(cli.stability, "classify_uniform", boom)
        cfg = {"family": {"builtin": "diagonal", "rates": [[-1.0, 0.0]]}}
        assert cli.main(["analyze", write_config(tmp_path, cfg)]) == 3
        assert "stability.classify_uniform" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "trajectory"])
    def test_overflowing_exponential_exits_3(self, tmp_path, capsys, command):
        # e^{800} exceeds the double range: a numerical failure, not a config
        # problem, reported by one line and no numpy warning
        cfg = {
            "family": {"builtin": "diagonal", "rates": [[-1.0, 0.0], [1.0, 0.0]]},
            "time": {"horizon": 800},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        # analyze builds the trajectory inside the boundedness certificate
        stage = {"analyze": "stability.certify_bounded", "trajectory": "semigroup.norm_curves"}
        assert err[0].startswith(f"numerical failure in {stage[command]}")

    def test_overflow_at_reference_time_exits_3(self, tmp_path, capsys):
        # e^{800} already overflows at t0 = 1, inside the uniform classifier
        cfg = {"family": {"builtin": "diagonal", "rates": [[-1.0, 0.0], [800.0, 0.0]]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["analyze", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "numerical failure in stability.classify_uniform: e^{tA} is not finite at t = 1"
        ]

    @pytest.mark.parametrize("rate, stage", [
        (800.0, "stability.classify_uniform"), (10.0, "stability.certify_bounded"),
    ])
    def test_growing_eigenbasis_cell_exits_3(self, tmp_path, capsys, rate, stage):
        # one dense cell with eigenvalues rate +- i on an eigenvector matrix
        # of condition 3: e^{800} overflows at t0 = 1, in the uniform
        # classifier; e^{10 t} at the first grid time past 71, in the
        # boundedness certificate's eigenbasis route
        cell = conditioned_pair(3.0, (rate + 1j, rate - 1j))
        assert eigenbasis._eigenbasis(cell[None])[0][0]
        path = write_config(tmp_path, {"family": {"matrices": [pairs(cell)]}})
        times = cli._time_grid(cli.load_config(path)["time"])
        first = 1.0 if rate > 709 else float(times[rate * times > math.log(np.finfo(float).max)][0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["analyze", path]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"numerical failure in {stage}: e^{{tA}} is not finite at t = {first:g}"
        ]

    def test_unitary_radius_is_exactly_one(self, capsys):
        # every rotation cell has spectral bound 0, so rho* = e^0 exactly and
        # the lead is the first cell, not the one whose rounding lands highest
        uniform = analyze_payload(capsys, str(CONFIG_DIR / "rotation.json"))["uniform"]
        assert uniform["rho_star"] == 1.0
        assert uniform["witnesses"] == [
            {"cell": 0, "value": 1.0, "kind": "pointwise-spectral-radius"}
        ]

    def test_radius_below_the_double_range_reads_stable(self, tmp_path, capsys):
        # rho* = e^{-1000} underflows to 0; the decay rate is read from the
        # spectral bound, not from log(rho*)
        cfg = {"family": {"builtin": "diagonal", "rates": [[-1000.0, 0.0], [-2000.0, 0.0]]}}
        payload = analyze_payload(capsys, write_config(tmp_path, cfg))
        assert payload["uniform"]["verdict"] == "Stable"
        assert payload["uniform"]["rho_star"] == 0.0
        assert payload["decay_eps"] == payload["uniform"]["decay_eps"] == 1000.0
        # the merged tolerances keep both horizons: the cross-check's first
        # one, 2 ln(1e3) / eps, and the configured grid's
        tolerances = payload["tolerances"]
        assert tolerances["crosscheck_horizon"] == pytest.approx(2 * math.log(1e3) / 1000.0)
        assert tolerances["horizon"] == 200.0

    def test_out_of_memory_exits_3_naming_the_stage(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate")

        path = write_config(tmp_path, {"family": {"builtin": "diagonal", "rates": [[-1.0, 0.0]]}})
        monkeypatch.setattr(cli.stability, "classify_uniform", exhausted)
        assert cli.main(["analyze", path]) == 3
        assert capsys.readouterr().err == (
            "out of memory in stability.classify_uniform: cannot allocate\n"
        )
        # outside every stage, as in building the family
        monkeypatch.setattr(cli, "build_family", exhausted)
        assert cli.main(["analyze", path]) == 3
        assert capsys.readouterr().err == "out of memory: cannot allocate\n"

    @pytest.mark.parametrize("command", ["analyze", "trajectory"])
    def test_overflow_names_the_earliest_time_across_groups(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # cell 0 is a 1x1 block e^{t} padded to 2x2, cell 1 a 2x2 block with
        # e^{10 t}: the 2x2 group overflows at an earlier grid time than the
        # 1x1 group, which runs first
        cfg = {
            "family": {
                "matrices": [
                    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    [[[10.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                ]
            },
            "time": {"horizon": 800},
        }
        build = cli.build_family

        def padded(config):
            fam = build(config)
            return cli.semigroup.PointwiseFamily(
                space=fam.space, dim=2, matrices=fam.matrices, active_dims=np.array([1, 2])
            )

        monkeypatch.setattr(cli, "build_family", padded)
        times = cli.semigroup.time_grid(800.0, 48)
        overflow = np.log(np.finfo(float).max)
        first = times[np.argmax(10.0 * times > overflow)]
        assert first < times[np.argmax(times > overflow)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        stage = {"analyze": "stability.certify_bounded", "trajectory": "semigroup.norm_curves"}
        assert err == [
            f"numerical failure in {stage[command]}: e^{{tA}} is not finite at t = {first:g}"
        ]

    @pytest.mark.parametrize(
        "extra",
        [
            {"p": math.nan},
            {"p": "nan"},
            {"time": {"t0": math.nan}},
            {"time": {"horizon": math.nan}},
            {"discrete": {"enabled": True, "t": math.nan}},
            {"tolerances": {"margin": math.nan}},
            {"tolerances": {"match_tol": math.nan}, "discrete": {"enabled": True}},
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, extra):
        cfg = {"family": {"builtin": "diagonal", "rates": [[-1.0, 0.0]]}, **extra}
        assert cli.main(["analyze", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and ("finite" in err or "p must" in err)

    def test_nan_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"family": {"matrices": [[[[NaN, 0.0]]]]}}')
        assert cli.main(["analyze", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 5e-7])
    def test_close_imaginary_pair_is_not_stable(self, tmp_path, capsys, scale):
        # diag(i, i) and diag(i, (1 + 5e-7) i) are both bounded and carry
        # imaginary point spectrum
        cell = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, scale]]]
        cfg = {"family": {"matrices": [cell]}, "time": {"horizon": 50}}
        payload = analyze_payload(capsys, write_config(tmp_path, cfg))
        assert payload["strong"]["verdict"] == "NotStable"
        assert payload["almost_weak"]["verdict"] == "NotStable"

    @pytest.mark.parametrize(
        "match_tol, verdict", [(1e-3, "Inconclusive"), (1e-6, "NotStable")]
    )
    def test_match_tol_reaches_the_boundedness_gate(self, tmp_path, capsys, match_tol, verdict):
        # [[i(1+d), 1], [0, i(1-d)]], d = 2.5e-4: within match_tol 1e-3 the two
        # imaginary eigenvalues form one cluster that is not semisimple
        cell = [[[0.0, 1.00025], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.99975]]]
        cfg = {
            "family": {"matrices": [cell]},
            "time": {"horizon": 50},
            "tolerances": {"match_tol": match_tol},
        }
        payload = analyze_payload(capsys, write_config(tmp_path, cfg))
        for part in ("strong", "almost_weak"):
            assert payload[part]["verdict"] == verdict
            kinds = [w["kind"] for w in payload[part]["witnesses"]]
            assert ("defective-imaginary-eigenvalue" in kinds) == (verdict == "Inconclusive")

    def test_match_tol_reaches_the_discrete_stage(self, tmp_path, capsys):
        # rates i and 1.00001 i: within match_tol 1e-4 one cluster on the
        # imaginary axis, and one on the unit circle at t = 1
        cfg = {
            "family": {"builtin": "diagonal", "rates": [[0.0, 1.0], [0.0, 1.00001]]},
            "time": {"horizon": 50},
            "tolerances": {"match_tol": 1e-4},
            "discrete": {"enabled": True},
        }
        payload = analyze_payload(capsys, write_config(tmp_path, cfg))
        assert witness_kinds(payload["almost_weak"]) == ["imaginary-eigenvalue-cluster"]
        kinds = witness_kinds(payload["discrete"])
        assert kinds.count("unimodular-eigenvalue-cluster") == 1

    def test_growing_family_reads_an_infinite_power_bound(self, tmp_path, capsys):
        # e^{0.5 n} leaves the double range before n = 4096: the discrete
        # power bound and both gate witnesses read inf, with no numpy
        # warning, and the run exits 0
        cfg = {
            "family": {"builtin": "diagonal", "rates": [[0.5, 1.0], [-2.0, 0.0]]},
            "discrete": {"enabled": True, "n_max": 4096},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = analyze_payload(capsys, write_config(tmp_path, cfg))["discrete"]
        assert capsys.readouterr().err == ""
        assert payload["power_bound"] == math.inf
        gates = [w["value"] for w in payload["witnesses"]
                 if w["kind"] == "power-bound-gate-uncertified"]
        assert gates == [math.inf, math.inf]

    def test_boundedness_certificate_computed_once(self, monkeypatch, capsys):
        calls = []
        certify = cli.stability.certify_bounded

        def counted(*args, **kwargs):
            calls.append(1)
            return certify(*args, **kwargs)

        monkeypatch.setattr(cli.stability, "certify_bounded", counted)
        analyze_payload(capsys, str(CONFIG_DIR / "rotation.json"))
        assert len(calls) == 1

    def test_seed_override_changes_hash_and_probes(self, capsys):
        base = analyze_payload(capsys, str(CONFIG_DIR / "zabczyk.json"))
        seeded = analyze_payload(
            capsys, str(CONFIG_DIR / "zabczyk.json"), extra=["--seed", "99"]
        )
        assert base["meta"]["config_hash"] != seeded["meta"]["config_hash"]


class TestSweep:
    def test_sweep_over_delta_runs_family_stages_once(self, monkeypatch, capsys):
        calls = {"classify_uniform": 0, "certify_bounded": 0}
        for name in calls:
            real = getattr(cli.stability, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli.stability, name, counted)
        assert cli.main(["sweep", str(CONFIG_DIR / "rotation_sweep.json")]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3
        assert calls == {"classify_uniform": 1, "certify_bounded": 1}

    def test_truncation_decay_column(self, capsys):
        code = cli.main(["sweep", str(CONFIG_DIR / "zabczyk_sweep.json")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "parameter,decay_eps,bound_M,max_cluster_measure"
        decays = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(decays, [0.2, 0.1, 0.05], atol=1e-6)
        bounds = [float(line.split(",")[2]) for line in lines[1:]]
        assert bounds == sorted(bounds) and bounds[-1] > 1e6

    def test_delta_measure_ratio(self, capsys):
        code = cli.main(["sweep", str(CONFIG_DIR / "rotation_sweep.json")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        measures = [float(line.split(",")[3]) for line in lines[1:]]
        assert measures[0] / measures[1] == pytest.approx(2.0, rel=0.1)

    def test_empty_sweep_range_exits_2(self, tmp_path):
        cfg = {
            "family": {"builtin": "rotation", "cells": 8},
            "sweep": {"parameter": "delta", "values": []},
        }
        assert cli.main(["sweep", write_config(tmp_path, cfg)]) == 2

    def test_refinement_sweep(self, capsys, tmp_path):
        cfg = {
            "family": {"builtin": "rotation", "cells": 16},
            "time": {"horizon": 30.0, "grid_points": 17},
            "sweep": {"parameter": "refinement", "values": [0, 1]},
        }
        assert cli.main(["sweep", write_config(tmp_path, cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        # refinement halves the per-cell measure at the default radius
        measures = [float(line.split(",")[3]) for line in lines[1:]]
        assert measures[0] / measures[1] == pytest.approx(2.0)

    def test_csv_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", str(CONFIG_DIR / "rotation_sweep.json"), "--csv", str(out), "--quiet"]
        )
        assert code == 0
        assert out.read_text().startswith("parameter,")


class TestTrajectory:
    def test_scalar_norm_rows(self, capsys, tmp_path):
        cfg = {
            "family": {"builtin": "diagonal", "rates": [[-1.0, 0.0]]},
            "time": {"horizon": 2.0, "grid_points": 3, "log_spacing": False},
            "probes": {"count": 1, "seed": 5},
        }
        assert cli.main(["trajectory", write_config(tmp_path, cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("t,ess_sup_norm,probe_0")
        rows = [line.split(",") for line in lines[1:]]
        times = [float(r[0]) for r in rows]
        norms = [float(r[1]) for r in rows]
        assert times == [0.0, 1.0, 2.0]
        np.testing.assert_allclose(norms, [1.0, math.exp(-1), math.exp(-2)], atol=1e-9)
        # probe columns decay at the same scalar rate
        probe = [float(r[2]) for r in rows]
        assert probe[1] / probe[0] == pytest.approx(math.exp(-1), abs=1e-9)

    def test_zabczyk_transient_is_nonmonotone(self, capsys, tmp_path):
        cfg = {
            "family": {"builtin": "zabczyk", "N": 10},
            "time": {"horizon": 100.0, "grid_points": 26, "log_spacing": False},
            "probes": {"count": 1, "seed": 5},
        }
        assert cli.main(["trajectory", write_config(tmp_path, cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        norms = [float(line.split(",")[1]) for line in lines[1:]]
        assert norms[0] == pytest.approx(1.0)
        assert max(norms) > 10.0

    def test_inline_probe_lives_on_the_active_blocks(self, capsys, tmp_path):
        # cells 1 and 2 of zabczyk N=3 are padded to 3x3; the padding of an
        # all-ones probe must not hold its orbit norm at sqrt(3) while the
        # strong verdict (which restricts the probe) is Stable
        ones = [[[[1.0, 0.0]] * 3] * 3]
        cfg = {
            "family": {"builtin": "zabczyk", "N": 3},
            "time": {"horizon": 400.0},
            "probes": {"vectors": ones},
        }
        path = write_config(tmp_path, cfg)
        assert analyze_payload(capsys, path)["strong"]["verdict"] == "Stable"
        assert cli.main(["trajectory", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[-1].split(",")[2]) < 1e-6


class TestAnalyzeAndTrajectoryAgree:
    @pytest.mark.parametrize("log_spacing", [True, False])
    def test_strong_bound_is_the_trajectory_peak(self, capsys, tmp_path, log_spacing):
        cfg = {
            "family": {"builtin": "zabczyk", "N": 6},
            "time": {"horizon": 400, "grid_points": 16, "log_spacing": log_spacing},
        }
        path = write_config(tmp_path, cfg)
        bound = analyze_payload(capsys, path)["strong"]["bound_M"]
        assert cli.main(["trajectory", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert bound == max(float(line.split(",")[1]) for line in lines[1:])

    @pytest.mark.parametrize("command", ["analyze", "trajectory"])
    @pytest.mark.parametrize(
        "family",
        [{"builtin": "diagonal", "rates": [[-1, 0], [-2, 0]]}, {"builtin": "rotation", "cells": 3}],
    )
    def test_zero_probe_exits_2(self, capsys, tmp_path, command, family):
        cells = len(family["rates"]) if "rates" in family else family["cells"]
        cfg = {"family": family, "probes": {"vectors": [[[[0.0, 0.0]]] * cells]}}
        assert cli.main([command, write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == "error: probe 0 has zero norm on the active blocks\n"


class TestProbeDraw:
    """analyze reads no probe, so it draws none, and checks inline probes
    before any stage as trajectory does."""

    @pytest.mark.parametrize("workload, drawn", [("rot256", False), ("zab40", False)])
    def test_numpy_random_is_loaded_only_to_draw_probes(self, tmp_path, workload, drawn):
        # a strong Stable verdict (zab40) reads the spectra alone, as a
        # NotStable one (rot256) does
        path = write_config(tmp_path, make_config(workload, 1, "smoke"))
        src = str(CONFIG_DIR.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys; from semistab import cli; "
            "code = cli.main(['analyze', sys.argv[1], '--quiet']); "
            "print(code, 'numpy.random' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, path], capture_output=True, text=True, env=env
        )
        assert (proc.stdout, proc.stderr) == (f"0 {drawn}\n", "")

    @pytest.mark.parametrize("command", ["analyze", "trajectory"])
    def test_wrong_shape_inline_probe_exits_2_before_any_stage(
        self, capsys, tmp_path, monkeypatch, command
    ):
        def no_stage(name, *args, **kwargs):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(cli, "_stage", no_stage)
        cfg = {
            "family": {"builtin": "rotation", "cells": 3},
            "probes": {"vectors": [[[[1.0, 0.0]]] * 2]},
        }
        assert cli.main([command, write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: inline probes must have shape (count, cells, dim) of [re, im] pairs\n"
        )


@pytest.mark.parametrize("workload", ["zab40", "rot256", "rh64"])
def test_analyze_never_loads_numpy_ma(tmp_path, workload):
    # np.unique, np.setdiff1d and np.intersect1d import numpy.ma on first
    # use (8 to 23 ms under -X importtime with numpy 2.4), so no analyze
    # stage calls them
    path = write_config(tmp_path, make_config(workload, 1, "smoke"))
    env = {**os.environ, "PYTHONPATH": str(CONFIG_DIR.parent / "src")}
    code = (
        "import sys; from semistab import cli; "
        "code = cli.main(['analyze', sys.argv[1], '--quiet']); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, path], capture_output=True, text=True, env=env
    )
    assert (proc.stdout, proc.stderr) == ("0 False\n", "")


def test_tracer_targets_load_with_the_cli(tmp_path):
    # perfbench/tracer.py wraps each target in sys.modules right after
    # `from semistab import cli, stability`: a module loaded on first use
    # instead would run untraced
    code = (
        "import sys; from semistab import cli, stability; loaded = set(sys.modules); "
        "sys.path.insert(0, sys.argv[1]); from tracer import TARGETS; "
        "print(sorted({f'semistab.{m}' for m, *_ in TARGETS} - loaded), "
        "'semistab.discrete' in loaded)"
    )
    proc = run_python("-c", code, str(CONFIG_DIR.parent / "perfbench"))
    assert (proc.stdout, proc.stderr) == (b"[] True\n", b"")


@pytest.mark.parametrize("workload", ["zab40", "rot256", "rh64"])
def test_analyze_loads_only_the_routes_it_takes(tmp_path, workload):
    # plain classes need no dataclasses; the Pade route serves no block of
    # the three workloads, and the eigenbasis route only rh64's dense cells
    # (zab40 and rot256 take the closed form)
    path = write_config(tmp_path, make_config(workload, 1, "smoke"))
    code = (
        "import sys; from semistab import cli; "
        "code = cli.main(['analyze', sys.argv[1], '--quiet']); "
        "print(code, *(m in sys.modules for m in "
        "('dataclasses', 'semistab.pade', 'semistab.eigenbasis')))"
    )
    proc = run_python("-c", code, path)
    assert (proc.stdout, proc.stderr) == (f"0 False False {workload == 'rh64'}\n".encode(), b"")


def analyze_and_trajectory(capsys, tmp_path, cfg, name):
    path = write_config(tmp_path, cfg, name)
    report = analyze_payload(capsys, path)
    del report["meta"]["config_hash"]
    assert cli.main(["trajectory", path]) == 0
    return report, capsys.readouterr().out


class TestZeroWeightCells:
    """A zero-weight cell is a null set: appending one moves no output."""

    def test_overflowing_null_cell(self, capsys, tmp_path):
        # e^{800 t} overflows before t0 = 1 on the null cell
        probe = [[[[1.0, 0.5]]], [[[-2.0, 0.0]]]]
        base = {"family": {"builtin": "diagonal", "rates": [[-1, 0]]}, "probes": {"vectors": probe}}
        null = {
            "family": {"builtin": "diagonal", "rates": [[-1, 0], [800, 0]], "weights": [1, 0]},
            "probes": {"vectors": [v + [[[3.0, 0.0]]] for v in probe]},
        }
        assert analyze_and_trajectory(capsys, tmp_path, null, "null.json") == (
            analyze_and_trajectory(capsys, tmp_path, base, "base.json")
        )

    def test_overflowing_null_cell_in_the_discrete_stage(self, capsys, tmp_path):
        # the discrete sample at t = 1 leaves the null cell alone
        base = {"family": {"builtin": "diagonal", "rates": [[-1, 0]]}, "discrete": {"enabled": True}}
        null = {
            "family": {"builtin": "diagonal", "rates": [[-1, 0], [800, 0]], "weights": [1, 0]},
            "discrete": {"enabled": True},
        }
        reports = []
        for name, cfg in (("base.json", base), ("null.json", null)):
            report = analyze_payload(capsys, write_config(tmp_path, cfg, name))
            del report["meta"]["config_hash"]
            reports.append(report)
        assert reports[1] == reports[0]
        assert reports[0]["discrete"]["uniform"]["verdict"] == "Stable"

    def test_wide_null_cell(self, capsys, tmp_path):
        # a zero-weight -I cell of active dimension 9 next to Zabczyk N=6
        # embedded in dimension 9: the uniform horizon must not grow with it
        blocks = np.concatenate([zabczyk_family(6, embed_dim=9).matrices, -np.eye(9)[None]])
        matrices = np.stack([blocks.real, blocks.imag], axis=-1).tolist()
        rng = np.random.default_rng(7)
        vectors = rng.standard_normal((2, 7, 9, 2))
        outputs = []
        for cells in (6, 7):
            cfg = {
                "family": {"matrices": matrices[:cells],
                           "active_dims": [1, 2, 3, 4, 5, 6, 9][:cells]},
                "space": {"weights": ([1.0] * 6 + [0.0])[:cells]},
                "time": {"horizon": 400.0, "grid_points": 24},
                "probes": {"vectors": vectors[:, :cells].tolist()},
            }
            outputs.append(analyze_and_trajectory(capsys, tmp_path, cfg, f"{cells}.json"))
        assert outputs[1] == outputs[0]
        assert outputs[0][0]["uniform"]["verdict"] == "Stable"


@pytest.mark.parametrize("t", [1000.0, 2000.0])
def test_overflowing_discrete_sample_reads_the_spectra(capsys, tmp_path, t):
    # e^{0.5 t} overflows at n = 2 for t = 1000 and at n = 1 for t = 2000;
    # neither cell has an eigenvalue near the unit circle, so no rank test
    # reads a matrix of the sample and none is formed: both times read the
    # same verdicts from the spectra, without a warning (t = 2000 used to
    # exit 3 from the sample)
    cfg = {"family": {"builtin": "diagonal", "rates": [[0.5, 0.0], [-1.0, 0.0]]},
           "discrete": {"enabled": True, "t": t}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["analyze", write_config(tmp_path, cfg)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    report = json.loads(out)["discrete"]
    assert [report[stage]["verdict"] for stage in STAGES] == [
        "NotStable", "Inconclusive", "Inconclusive"]
    assert witness_kinds(report) == ["pointwise-spectral-radius"] + [
        "power-bound-gate-uncertified"] * 2
    assert report["power_bound"] == math.inf


class TestOneSamplePerTime:
    def test_only_the_discrete_stage_exponentiates_at_one_time(
        self, tmp_path, capsys, monkeypatch
    ):
        # the uniform stage reads its radii from the generator spectra: with
        # discrete off, no e^{t0 A} is formed; with discrete.t == 1, the
        # discrete stage takes its eigenvalues as e^{lambda} by spectral
        # mapping, and forms e^{A} only on the cells with an eigenvalue near
        # the unit circle, the only ones a rank test can read: none of the
        # random-Hurwitz cells, the first of the diagonal ones. Either way
        # the generator blocks are solved once and no exponential is
        hurwitz = {"builtin": "random-hurwitz", "seed": 3, "dim": 4, "cells": 8, "margin": 0.2}
        diagonal = {"builtin": "diagonal", "rates": [[0.0, 1.0], [-1.0, 0.0]]}
        real_exp = cli.semigroup.linalg.expm_stack
        real_eigs = cli.semigroup.linalg.eigenvalues
        for family, enabled, formed in ((hurwitz, False, []), (hurwitz, True, []),
                                        (diagonal, True, [([1.0], [0])])):
            path = write_config(tmp_path, {"family": family, "discrete": {"enabled": enabled}})
            expected = analyze_payload(capsys, path)
            generators = cli.build_family(cli.load_config(path)).matrices
            grids, spectra = [], []

            def exponentials(a, t, **kw):
                grids.append((list(t), a))
                return real_exp(a, t, **kw)

            def eigenvalues(a):
                spectra.append(np.asarray(a).copy())
                return real_eigs(a)

            monkeypatch.setattr(cli.semigroup.linalg, "expm_stack", exponentials)
            monkeypatch.setattr(cli.semigroup.linalg, "eigenvalues", eigenvalues)
            assert analyze_payload(capsys, path) == expected
            monkeypatch.undo()
            assert [t for t, _ in grids] == [t for t, _ in formed]
            for (_, a), (_, cells) in zip(grids, formed):
                np.testing.assert_array_equal(a, generators[cells])
            if family is hurwitz:
                # the builder first solves its random draws to shift them
                assert len(spectra) == 2
                np.testing.assert_array_equal(spectra[1], generators)
            else:
                # 1 x 1 blocks take the closed form: their table is read,
                # not solved
                assert spectra == []


class TestBoundaryCertificate:
    def test_simple_boundary_eigenvalues_take_no_svd(self, capsys, monkeypatch):
        # every rotation cell carries one simple imaginary eigenvalue
        path = str(CONFIG_DIR / "rotation.json")
        expected = analyze_payload(capsys, path)
        calls = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or real_svd(*a, **k))
        assert analyze_payload(capsys, path) == expected
        assert calls == []


class TestKernelRoutes:
    @pytest.mark.parametrize("family, route", [
        ({"builtin": "random-hurwitz", "seed": 5, "dim": 6, "cells": 64, "margin": 0.2},
         "_eigen_chunk"),
        ({"builtin": "zabczyk", "N": 8}, "_real_factor"),
        ({"builtin": "rotation", "cells": 32}, "_real_factor"),
    ])
    def test_each_family_takes_one_route(self, tmp_path, monkeypatch, family, route):
        # rh64-shaped cells are dense and well conditioned: no Pade, discrete
        # stage included; Zabczyk and rotation cells take the closed form and
        # never reach the eigensolver of the kernels. Each active-dimension
        # group a pass visits is factored once for the whole analysis: one
        # stacked eigendecomposition, or one power basis per group factored
        # (the floor passes skip the Zabczyk groups that cannot reach the
        # floor, and the discrete sample forms no exponential here)
        cfg = cli.load_config(write_config(tmp_path, {
            "family": family, "discrete": {"enabled": True},
        }))
        groups = len(cli.build_family(cfg).block_stacks())
        built, build = [], cli.build_family
        monkeypatch.setattr(cli, "build_family", lambda cfg: built.append(build(cfg)) or built[-1])
        calls = {}
        for module, name in ((linalg, "_power_basis"), (linalg, "_real_factor"),
                             (eigenbasis, "_eigenbasis"), (eigenbasis, "_eigen_chunk"),
                             (pade, "_pade_chunk")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, real=real, name=name:
                                calls.update({name: calls.get(name, 0) + 1}) or real(*args))
        cli.run_analysis(cfg)
        [family] = built
        assert 1 <= len(family.factors) <= groups
        factored = ({"_eigenbasis": 1} if route == "_eigen_chunk"
                    else {"_power_basis": len(family.factors)})
        assert set(calls) == {route, *factored}
        assert {name: calls[name] for name in factored} == factored


class TestMemory:
    def test_analysis_keeps_no_padded_trajectory(self, tmp_path, monkeypatch):
        # one padded (16, 32, 32, 32) complex trajectory is 8.4 MB
        def forbidden(*args, **kwargs):
            raise AssertionError("the continuous analysis must not build a trajectory")

        monkeypatch.setattr(cli.semigroup, "trajectory", forbidden)
        cfg = cli.load_config(write_config(tmp_path, {
            "family": {"builtin": "zabczyk", "N": 32},
            "time": {"horizon": 3000, "grid_points": 16},
        }))
        assert not cfg["discrete"]["enabled"]
        tracemalloc.start()
        try:
            cli.run_analysis(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 32**3 * 16 / 2


class TestDeterminism:
    def test_same_config_same_bytes_in_process(self, capsys):
        path = str(CONFIG_DIR / "zabczyk.json")
        assert cli.main(["analyze", path]) == 0
        first = capsys.readouterr().out
        assert cli.main(["analyze", path]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_hash_tracks_semantic_fields_only(self, tmp_path):
        base = {"family": {"builtin": "diagonal", "rates": [[-1.0, 0.0]]}}
        with_output = {**base, "output": {"json_path": "somewhere.json"}}
        changed = {**base, "p": 4}
        h = cli.config_hash(cli.load_config(write_config(tmp_path, base, "a.json")))
        h_out = cli.config_hash(
            cli.load_config(write_config(tmp_path, with_output, "b.json"))
        )
        h_changed = cli.config_hash(
            cli.load_config(write_config(tmp_path, changed, "c.json"))
        )
        assert h == h_out
        assert h != h_changed

    def test_console_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "semistab.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_cli_imports_no_scipy(self):
        # importing scipy.linalg alone takes longer than the whole CLI start-up
        src = str(CONFIG_DIR.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, semistab.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")


def run_python(*args):
    """`python ARGS` in a fresh process that imports semistab from this
    checkout's src/; stdout and stderr as bytes."""
    src = str(CONFIG_DIR.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


class TestFrozenExit:
    """`main` freezes the import graph, and the process still ends through
    the normal exit: every byte of output is flushed and every error line
    written."""

    @pytest.mark.parametrize("command, flag", [("analyze", "--out"), ("trajectory", "--csv")])
    def test_stdout_carries_the_bytes_of_the_output_file(self, tmp_path, command, flag):
        config = str(CONFIG_DIR / "rotation.json")
        out = tmp_path / "output"
        written = run_python("-m", "semistab.cli", command, config, flag, str(out))
        assert (written.returncode, written.stdout, written.stderr) == (
            0, f"wrote {out}\n".encode(), b""
        )
        printed = run_python("-m", "semistab.cli", command, config)
        assert (printed.returncode, printed.stderr) == (0, b"")
        assert printed.stdout == out.read_bytes()

    def test_malformed_config_exits_2_with_its_whole_line(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"family": {"builtin": "rotation", "cells": 4},\n  "p": }\n')
        with pytest.raises(ConfigError) as info:
            cli.load_config(path)
        proc = run_python("-m", "semistab.cli", "analyze", str(path))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == f"config error: {info.value}\n".encode()

    def test_overflowing_exponential_exits_3_with_one_line(self, tmp_path):
        cfg = {
            "family": {"builtin": "diagonal", "rates": [[-1.0, 0.0], [1.0, 0.0]]},
            "time": {"horizon": 800},
        }
        proc = run_python("-m", "semistab.cli", "analyze", write_config(tmp_path, cfg))
        assert (proc.returncode, proc.stdout) == (3, b"")
        err = proc.stderr.decode().splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure in stability.certify_bounded: ")


class TestFreeze:
    def test_main_freezes_and_leaves_the_collector_on(self, tmp_path):
        # a cycle made after main returns is still reclaimed: main freezes
        # what is alive, it does not switch the collector off
        path = write_config(tmp_path, make_config("rot256", 1, "smoke"))
        code = (
            "import gc, sys, weakref\n"
            "from semistab import cli\n"
            "code = cli.main(['analyze', sys.argv[1], '--quiet'])\n"
            "class Node: pass\n"
            "node = Node(); node.self = node; ref = weakref.ref(node); del node\n"
            "gc.collect()\n"
            "print(code, gc.get_freeze_count() > 0, gc.isenabled(), ref() is None)\n"
        )
        proc = run_python("-c", code, path)
        assert (proc.stdout, proc.stderr) == (b"0 True True True\n", b"")

    def test_run_analysis_freezes_nothing(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, make_config("rh64", 1, "smoke")))
        before = gc.get_freeze_count()
        cli.run_analysis(cfg)
        assert gc.get_freeze_count() == before


#: values of another kind for each kind of config value; a kind not listed
#: here (a section, a choice of names) gets "bogus", and a required key null
_WRONG = {
    cli._POSITIVE: ["3", 5.5, True, 0],
    cli._NONNEGATIVE: ["12", 2.5, False, -3],
    cli._NUMBER: ["0.2", True, math.nan, 10**400],
    cli._BOOLEAN: ["false", 0],
    cli._STRING: [5],
    cli._NUMBERS: ["1", ["a"], [True], [math.inf]],
    cli._PAIRS: ["abc"],
    cli._P: [True, "2", 0.5, math.nan],
    cli._ANY: ["abc"],
}

#: a valid family of each builtin
_FAMILY_BASES = {
    "zabczyk": {"builtin": "zabczyk", "N": 3},
    "rotation": {"builtin": "rotation", "cells": 4},
    "random-hurwitz": {"builtin": "random-hurwitz", "seed": 1, "dim": 2, "cells": 3,
                       "margin": 0.2},
    "diagonal": {"builtin": "diagonal", "rates": [[-1.0, 0.0]]},
    None: {"matrices": [[[[-1.0, 0.0]]]]},
}


def _wrong(kind, default):
    values = ["bogus"] if isinstance(kind, dict) else _WRONG.get(kind, ["bogus"])
    return values + [None] * (default is cli._REQUIRED)


#: keys that configs of earlier versions gave, by section, with values they
#: took: now unknown, each is rejected with any value, its old default too
_RETIRED = {"tolerances": {"eps": [1e-3, 0.5, 1, None]}}


def _schema_cases():
    """(command, config, key) for each key of cli._SCHEMA and cli._FAMILIES and
    each value of another kind, and for each retired key and value; the
    sweep keys run `sweep`, the rest `analyze`."""
    cases = []
    for name, (kind, default) in cli._SCHEMA.items():
        command = "sweep" if name == "sweep" else "analyze"
        # space weights and labels apply to inline matrices only
        base = {"family": _FAMILY_BASES[None if name == "space" else "diagonal"]}
        cases += [(command, {**base, name: value}, name) for value in _wrong(kind, default)]
        section = {"parameter": "delta", "values": [0.1]} if name == "sweep" else {}
        for key, spec in (kind.items() if isinstance(kind, dict) else ()):
            cases += [(command, {**base, name: {**section, key: value}}, key)
                      for value in _wrong(*spec)]
        cases += [(command, {**base, name: {key: value}}, key)
                  for key, values in _RETIRED.get(name, {}).items() for value in values]
    for builtin, keys in cli._FAMILIES.items():
        for key, spec in keys.items():
            cases += [("analyze", {"family": {**_FAMILY_BASES[builtin], key: value}}, key)
                      for value in _wrong(*spec)]
    return cases


class TestConfigParsing:
    def test_p_inf(self):
        assert cli._parse_p("inf") == math.inf
        with pytest.raises(ConfigError):
            cli._parse_p(0.5)
        with pytest.raises(ConfigError):
            cli._parse_p("three")
        with pytest.raises(ConfigError):
            cli._parse_p(True)

    @pytest.mark.parametrize(
        "extra, name",
        [
            # with the misspelt section the margin would stay at 1e-6, which
            # reads the rate -0.01 as uniform Stable
            ({"tolerance": {"margin": 0.5}}, "'tolerance'"),
            ({"time": {"horizonn": 5}}, "'horizonn'"),
            ({"almost_weak": {"slope_cap": 0.5}}, "'almost_weak'"),
        ],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, extra, name):
        cfg = {"family": {"builtin": "diagonal", "rates": [[-0.01, 0.0]]}, **extra}
        assert cli.main(["analyze", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown") and name in err

    @pytest.mark.parametrize(
        "family, name",
        [
            ({"builtin": "zabczyk", "N": 4, "embed": 6}, "'embed'"),
            ({"builtin": "rotation", "cells": 8, "rule": [0, 1]}, "'rule'"),
            ({"builtin": "random-hurwitz", "seed": 1, "dim": 2, "cells": 3, "margin": 0.2,
              "weights": [1, 1, 1]}, "'weights'"),
            ({"builtin": "diagonal", "rates": [[-1.0, 0.0]], "active_dims": [1]}, "'active_dims'"),
            ({"matrices": [[[[-1.0, 0.0]]]], "activedims": [1]}, "'activedims'"),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "trajectory", "sweep"])
    def test_unknown_family_key_exits_2(self, tmp_path, capsys, family, name, command):
        # a truncation sweep reads only the builtin of its zabczyk family
        cfg = {"family": family, "sweep": {"parameter": "truncation", "values": [2]}}
        assert cli.main([command, write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key(s) in family") and name in err

    _INLINE = {"matrices": [[[[-1.0, 0.0]]], [[[-2.0, 0.0]]]]}
    _TRUNCATION = {"builtin": "zabczyk", "N": 3}
    _ROTATION = {"builtin": "rotation", "cells": 8}

    @pytest.mark.parametrize(
        "command, cfg, name",
        [
            # wrong-typed values, which used to end in a Python traceback
            ("analyze", {"family": {"builtin": "zabczyk", "N": 3, "embed_dim": "abc"}},
             "'embed_dim'"),
            ("analyze", {"family": {"builtin": "diagonal", "rates": [[-1.0, 0.0], [-2.0, 0.0]],
                                    "weights": ["a", 1]}}, "'weights'"),
            ("analyze", {"family": _INLINE, "space": {"weights": ["a", 1]}}, "'weights'"),
            ("sweep", {"family": _TRUNCATION,
                       "sweep": {"parameter": "truncation", "values": ["x"]}}, "sweep values"),
            ("sweep", {"family": _ROTATION, "sweep": {"parameter": "delta", "values": [None]}},
             "sweep values"),
            # values that used to be coerced or ignored without a word
            ("sweep", {"family": _TRUNCATION,
                       "sweep": {"parameter": "truncation", "values": [5.5, True]}},
             "positive integers"),
            ("sweep", {"family": _ROTATION,
                       "sweep": {"parameter": "refinement", "values": [-2]}},
             "nonnegative integers"),
            ("analyze", {"family": _ROTATION, "space": {"weights": [1.0] * 8}}, "'weights'"),
            ("trajectory", {"family": _TRUNCATION, "space": {"labels": [0.0, 1.0, 2.0]}},
             "'labels'"),
            ("sweep", {"family": _TRUNCATION, "space": {"weights": [1.0] * 3},
                       "sweep": {"parameter": "truncation", "values": [2]}}, "'weights'"),
        ],
    )
    def test_wrong_or_coerced_value_exits_2_naming_the_key(self, tmp_path, capsys, command,
                                                            cfg, name):
        assert cli.main([command, write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err

    @pytest.mark.parametrize(
        "command, cfg, name",
        [
            # values that ended in a Python traceback (exit 1)
            ("analyze", {"time": {"horizon": None}}, "'horizon'"),
            ("analyze", {"time": {"grid_points": [48]}}, "'grid_points'"),
            ("analyze", {"discrete": {"n_max": "abc"}}, "'n_max'"),
            ("analyze", {"output": {"json_path": 5}}, "'json_path'"),
            ("analyze", {"time": {"horizon": 10**400}}, "'horizon'"),
            ("analyze", {"probes": {"seed": -3}}, "'seed'"),
            # values that were coerced and analyzed with exit 0
            ("analyze", {"discrete": {"enabled": "false"}}, "'enabled'"),
            ("analyze", {"time": {"log_spacing": "no"}}, "'log_spacing'"),
            ("analyze", {"time": {"grid_points": 5.5}}, "'grid_points'"),
            ("analyze", {"time": {"horizon": "200"}}, "'horizon'"),
            ("analyze", {"tolerances": {"margin": "0.2"}}, "'margin'"),
            ("analyze", {"discrete": {"t": "1"}}, "'t'"),
            ("analyze", {"probes": {"count": 2.7}}, "'count'"),
            ("analyze", {"probes": {"count": "3"}}, "'count'"),
            ("analyze", {"probes": {"seed": "12"}}, "'seed'"),
            ("analyze", {"discrete": {"n_max": True}}, "'n_max'"),
            ("analyze", {"p": True}, "'p'"),
            ("trajectory", {"family": {"builtin": "zabczyk", "N": 5.5, "embed_dim": 6.9}}, "'N'"),
            ("trajectory", {"family": {"builtin": "zabczyk", "N": 5, "embed_dim": 6.9}},
             "'embed_dim'"),
            ("analyze", {"family": {"builtin": "rotation", "cells": 8.9}}, "'cells'"),
            ("analyze", {"family": {"builtin": "random-hurwitz", "seed": 1, "dim": 2, "cells": 3,
                                    "margin": "0.2"}}, "'margin'"),
            ("analyze", {"sweep": {"parameter": "bogus"}}, "'parameter'"),
            ("analyze", {"family": {"builtin": "diagonal", "rates": [[True, 0.0]]}}, "'rates'"),
        ],
    )
    def test_listed_defect_exits_2_naming_the_key(self, tmp_path, capsys, command, cfg, name):
        cfg = {"family": {"builtin": "diagonal", "rates": [[-1.0, 0.0]]}, **cfg}
        assert cli.main([command, write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err

    @pytest.mark.parametrize("command, cfg, key", _schema_cases())
    def test_every_key_rejects_a_value_of_another_kind(self, tmp_path, capsys, command, cfg,
                                                       key):
        assert cli.main([command, write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and repr(key) in err

    @pytest.mark.parametrize("stem", ["diagonal", "random_hurwitz"])
    def test_seed_flag_is_checked_as_the_probe_seed(self, capsys, stem):
        # the flag used to be applied after the check: numpy rejected the
        # negative seed with a traceback
        assert cli.main(["analyze", str(CONFIG_DIR / f"{stem}.json"), "--seed", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'seed' in section 'probes'" in err

    @pytest.mark.parametrize(
        "command, cfg, name",
        [
            ("analyze", {"time": {"grid_points": 10**30}}, "'grid_points'"),
            ("analyze", {"probes": {"count": 2**63}}, "'count'"),
            ("analyze", {"discrete": {"n_max": 2**63}}, "'n_max'"),
            ("trajectory", {"family": {"builtin": "zabczyk", "N": 2**63}}, "'N'"),
            ("trajectory", {"family": {"builtin": "rotation", "cells": 2**64}}, "'cells'"),
            ("sweep", {"family": {"builtin": "zabczyk", "N": 3},
                       "sweep": {"parameter": "truncation", "values": [2, 2**63]}},
             "sweep values"),
        ],
    )
    def test_size_beyond_the_index_range_exits_2(self, tmp_path, capsys, command, cfg, name):
        # np.intp cannot index it: exit 2 before anything is allocated
        cfg.setdefault("family", {"builtin": "diagonal", "rates": [[-1.0, 0.0]]})
        assert cli.main([command, write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err
        assert str(np.iinfo(np.intp).max) in err

    def test_complex_pairs_required(self):
        with pytest.raises(ConfigError):
            cli._complex_array([1.0, 2.0, 3.0], "rates")

    def test_inline_probes_and_sup_norm(self, capsys, tmp_path):
        cfg = {
            "family": {"builtin": "diagonal", "rates": [[-1.0, 0.0], [-0.5, 0.0]]},
            "p": "inf",
            "time": {"horizon": 60.0, "grid_points": 25},
            "probes": {"vectors": [[[[1.0, 0.0]], [[0.0, 1.0]]]]},
        }
        payload = analyze_payload(capsys, write_config(tmp_path, cfg))
        assert payload["strong"]["verdict"] == "Stable"
        assert payload["meta"]["p"] == "inf"
