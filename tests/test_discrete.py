import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from semistab import cli, discrete, linalg, semigroup
from semistab.cases import random_hurwitz_family, zabczyk_family
from semistab.discrete import (
    build_discrete_report,
    classify_discrete_almost_weak,
    classify_discrete_strong,
    classify_discrete_uniform,
    power_bounded_estimate,
    power_schedule,
    unimodular_point_spectrum,
)
from semistab.linalg import expm, norm2
from semistab.measure import DiscretizedMeasureSpace
from semistab.report import INCONCLUSIVE, NOT_STABLE, STABLE
from semistab.semigroup import (
    BochnerFunction,
    PointwiseFamily,
    apply,
    lp_norm,
    orbit_norms,
    sample_at,
)
from semistab.stability import classify_uniform

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import make_config  # noqa: E402

#: the generator N of the Jordan sample e^{N} = [[1, 1], [0, 1]]
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])

#: the generator J of the rotations e^{theta J}
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


def family_from(gens, weights=None):
    gens = np.asarray(gens, dtype=complex)
    n_cells = gens.shape[0]
    weights = np.ones(n_cells) if weights is None else np.asarray(weights, float)
    space = DiscretizedMeasureSpace(
        weights=weights, labels=np.arange(n_cells, dtype=float)
    )
    return PointwiseFamily(space=space, dim=gens.shape[1], matrices=gens)


def scalar_family(rates, weights=None):
    return family_from(np.asarray(rates, dtype=complex).reshape(-1, 1, 1), weights)


def dissipative_family(rng, cells, dim, rate):
    """Generators K - P P^T - rate I, K skew-Hermitian: the Hermitian part is
    at most -rate, so ||e^{tA}|| <= e^{-rate t}."""
    g = rng.standard_normal((cells, dim, dim)) + 1j * rng.standard_normal((cells, dim, dim))
    p = rng.standard_normal((cells, dim, dim))
    skew = (g - g.conj().swapaxes(1, 2)) / 2
    return family_from(skew - p @ p.swapaxes(1, 2) - rate * np.eye(dim))


def gate_of(family, n_max, t=1.0):
    return power_bounded_estimate(family, t, sample_at(family, t), n_max)


def uniform_of(family, margin, t=1.0):
    return classify_discrete_uniform(family, t, sample_at(family, t), margin)


def power_loop(family, n_max, t):
    """The reference power bound: the max over the schedule and the
    positive-weight cells of ||e^{ntA(s)}||, one exponential at a time."""
    return max(
        norm2(expm(family.block(int(c)), n * t))
        for n in power_schedule(n_max)
        for c in family.space.positive_cells()
    )


class TestPowerSchedule:
    def test_contains_endpoints_and_doubles(self):
        ns = power_schedule(64)
        assert ns[0] == 1 and ns[-1] == 64
        assert {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} <= set(ns)

    def test_small(self):
        assert power_schedule(1) == [1]

    def test_engine_matches_naive_products(self):
        # the semigroup law M^n = e^{ntA} the power norms rest on
        rng = np.random.default_rng(0)
        for dim in (2, 5, 8):
            g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / 2
            a = g - (np.linalg.eigvals(g).real.max() + 0.05) * np.eye(dim)
            m = expm(a, 0.5)
            naive = np.eye(dim, dtype=complex)
            for n in range(1, 65):
                naive = naive @ m
                fast = expm(a, 0.5 * n)
                assert norm2(fast - naive) <= 1e-9 * max(1.0, norm2(naive))


class TestPowerBoundedEstimate:
    def test_identity(self):
        est = gate_of(family_from(np.zeros((2, 3, 3))), 100)
        assert est.certified
        assert est.bound == 1.0

    def test_jordan_block_grows_linearly(self):
        jordan = family_from([NILPOTENT])
        small = gate_of(jordan, 32)
        large = gate_of(jordan, 64)
        assert not small.certified and not large.certified
        # ||e^{nN}|| ~ n: doubling the power budget roughly doubles the bound
        assert 1.5 <= large.bound / small.bound <= 2.5

    def test_contraction_sample(self):
        est = gate_of(dissipative_family(np.random.default_rng(1), 5, 3, 0.1), 64)
        assert est.certified
        assert est.bound <= 1.0

    def test_close_unimodular_pair_is_certified(self):
        pair = family_from([np.diag([1j, 1j * (1 + 5e-7)])])
        est = gate_of(pair, 64)
        assert est.certified
        strong = classify_discrete_strong(sample_at(pair, 1.0), est)
        assert strong.verdict == NOT_STABLE
        assert strong.witnesses[0].kind == "unimodular-eigenvalue"

    def test_unitary_semisimple_is_certified(self):
        est = gate_of(family_from([ROTATION]), 64)
        assert est.certified
        assert est.bound == pytest.approx(1.0, abs=1e-12)


class TestClassifyDiscreteUniform:
    def test_halving(self):
        result = uniform_of(scalar_family([math.log(0.5)] * 2), 1e-6)
        assert result.verdict == STABLE
        assert result.detail["norm_check_value"] < 1e-6

    def test_rotation_cell_is_not_stable(self):
        result = uniform_of(family_from([ROTATION]), 1e-6)
        assert result.verdict == NOT_STABLE
        assert result.detail["rho_star"] == pytest.approx(1.0, abs=1e-12)

    def test_margin_degrades_with_truncation(self):
        rates = [math.log(1.0 - 1.0 / k) for k in range(2, 11)]  # ess sup = 0.9
        stable = uniform_of(scalar_family(rates), 0.05)
        band = uniform_of(scalar_family(rates), 0.2)
        assert stable.verdict == STABLE
        assert band.verdict == INCONCLUSIVE

    def test_nilpotent_norm_check(self):
        # r(e^{-30 I + N}) = e^{-30}: the check runs at n = dim
        result = uniform_of(family_from([-30.0 * np.eye(2) + NILPOTENT]), 1e-6)
        assert result.verdict == STABLE
        assert result.detail["rho_star"] <= 1e-12
        assert result.detail["norm_check_n"] == 2

    def test_norm_check_doubles_past_a_transient(self, tmp_path, monkeypatch):
        # e^{A} of the Zabczyk 10 x 10 block still has ||M^n|| = 0.954 at the
        # first n; the check doubles n, as the continuous one doubles its
        # horizon, and reads uniform Stable like the other five verdicts
        path = tmp_path / "zabczyk10.json"
        path.write_text(json.dumps({"family": {"builtin": "zabczyk", "N": 10},
                                    "discrete": {"enabled": True}}))
        report = cli.run_analysis(cli.load_config(path))
        assert report["discrete"]["uniform"]["verdict"] == STABLE
        assert report["discrete"]["witnesses"] == []
        family = zabczyk_family(10)
        result = uniform_of(family, 1e-6)
        first = math.ceil(3.0 * math.log(1e-6) / math.log(result.detail["rho_star"]))
        assert result.verdict == STABLE
        assert result.detail["norm_check_n"] in [first * 2**i for i in range(1, 7)]
        assert result.detail["norm_check_value"] < 1e-6
        # without a doubling the transient fails the check at the first n
        monkeypatch.setattr(discrete, "MAX_EXTENSIONS", 0)
        result = uniform_of(family, 1e-6)
        assert result.verdict == INCONCLUSIVE
        assert result.detail["norm_check_n"] == first
        assert result.witnesses[0].kind == "norm-crosscheck-failed"
        assert result.witnesses[0].value == pytest.approx(0.954, abs=1e-3)


class TestClassifyDiscreteStrong:
    def test_near_unit_contraction(self):
        family = scalar_family([math.log(0.99), math.log(0.5)])
        result = classify_discrete_strong(sample_at(family, 1.0), gate_of(family, 64))
        assert result.verdict == STABLE

    def test_unimodular_cell_with_witness(self):
        family = scalar_family([math.log(0.5), 1j])
        result = classify_discrete_strong(sample_at(family, 1.0), gate_of(family, 64))
        assert result.verdict == NOT_STABLE
        assert result.witnesses[0].cell == 1
        assert result.witnesses[0].value == pytest.approx(np.exp(1j))

    def test_witness_is_the_first_positive_unimodular_cell(self):
        # the zero-weight unimodular cell 0 is a null set; of the unimodular
        # cells 2 and 3 the first is the witness, with its eigenvalue of
        # largest modulus
        gens = [np.diag([2j, math.log(0.1)]), np.diag([math.log(0.5), math.log(0.2)]),
                np.diag([math.log(0.3), 0.7j]), np.diag([1j, math.log(0.9)])]
        family = family_from(gens, [0.0, 1.0, 1.0, 1.0])
        result = classify_discrete_strong(sample_at(family, 1.0), gate_of(family, 64))
        assert result.verdict == NOT_STABLE
        [witness] = result.witnesses
        assert (witness.cell, witness.kind) == (2, "unimodular-eigenvalue")
        assert witness.value == pytest.approx(np.exp(0.7j), rel=1e-15)

    def test_defective_gate_is_inconclusive(self):
        family = family_from([NILPOTENT])
        result = classify_discrete_strong(sample_at(family, 1.0), gate_of(family, 64))
        assert result.verdict == INCONCLUSIVE

    def test_random_contraction_probes_decay(self):
        rng = np.random.default_rng(2)
        family = random_hurwitz_family(seed=2, dim=3, cells=4, margin=0.3)
        sample = sample_at(family, 1.0)
        gate = power_bounded_estimate(family, 1.0, sample, 128)
        assert classify_discrete_strong(sample, gate).verdict == STABLE
        # orbit oracle: ||M^n f||_p -> 0 for random probes, M^80 = e^{80 A}
        high_power = sample_at(family, 80.0)
        for k in range(10):
            vecs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            f = BochnerFunction(space=sample.space, dim=3, vectors=vecs)
            assert lp_norm(apply(high_power, f), 2.0) <= 1e-6 * lp_norm(f, 2.0)


class TestClassifyDiscreteAlmostWeak:
    def almost_weak(self, family):
        return classify_discrete_almost_weak(sample_at(family, 1.0), gate_of(family, 512))

    def test_contracting_rotation_is_stable(self):
        family = scalar_family([math.log(0.9) + 0.7j, math.log(0.9) - 0.3j])
        assert self.almost_weak(family).verdict == STABLE

    def test_irrational_rotation_is_not_stable(self):
        # angle 1: irrational multiple of pi
        assert self.almost_weak(scalar_family([1j])).verdict == NOT_STABLE

    def test_mixed_block_witnesses_unimodular_part(self):
        result = self.almost_weak(family_from([np.diag([math.log(0.5), 1j])]))
        assert result.verdict == NOT_STABLE
        assert result.witnesses[0].value == pytest.approx(np.exp(1j))

    def test_unimodular_spectrum_clusters(self):
        family = scalar_family([1j, 1j, math.log(0.5)], [0.25, 0.5, 1.0])
        clusters = unimodular_point_spectrum(sample_at(family, 1.0))
        assert len(clusters) == 1
        assert clusters[0].measure == pytest.approx(0.75)


class TestStackedKernels:
    def families(self):
        padded = zabczyk_family(8, embed_dim=10)
        dense = random_hurwitz_family(seed=2, dim=4, cells=9, margin=0.05)
        weighted = scalar_family(
            [math.log(0.99) + 0.3j, math.log(0.5), math.log(0.97) + 2j], [1.0, 0.0, 2.0]
        )
        return padded, dense, weighted

    def test_power_bound_matches_per_cell_loop(self):
        for family in self.families():
            got = gate_of(family, 64, t=0.5).bound
            assert got == pytest.approx(power_loop(family, 64, 0.5), rel=8 * np.finfo(float).eps)

    @pytest.mark.parametrize("n_max", [1, 5, 256, 300])
    def test_power_bound_is_one_orbit_pass(self, monkeypatch, n_max):
        # one probe-free pass over the times n t of the schedule with a (1,)
        # floor, whose bound is bit for bit the exhaustive ess-sup there
        for family in self.families():
            sample = sample_at(family, 0.5)
            calls = []
            monkeypatch.setattr(semigroup, "orbit_norms", lambda fam, times, **kw: calls.append(
                (fam, np.array(times), kw)) or orbit_norms(fam, times, **kw))
            got = power_bounded_estimate(family, 0.5, sample, n_max).bound
            monkeypatch.undo()
            [(fam, times, kw)] = calls
            assert fam is family and list(kw) == ["floor"] and kw["floor"].shape == (1,)
            np.testing.assert_array_equal(times, 0.5 * np.array(power_schedule(n_max)))
            exact = orbit_norms(family, times)[0]
            want = exact[:, family.space.positive_cells()].max()
            assert np.float64(got).view(np.int64) == want.view(np.int64)

    def test_discrete_report_forms_no_matrix_power(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the discrete stage must read e^{ntA} from the family")

        family = self.families()[1]
        want = power_loop(family, 256, 1.0)
        monkeypatch.setattr(np.linalg, "matrix_power", forbidden)
        report = build_discrete_report(family, 1.0, margin=1e-3, n_max=256)
        assert report.power_bound == pytest.approx(want, rel=8 * np.finfo(float).eps)

    def test_analysis_factors_each_group_once(self, tmp_path, monkeypatch):
        # the continuous stages and the discrete one (its sample and every
        # power) share the family's factors: one factorize per
        # active-dimension group, and no matrix power
        def forbidden(*args):
            raise AssertionError("the discrete stage must read e^{ntA} from the family")

        path = tmp_path / "rh64.json"
        path.write_text(json.dumps(make_config("rh64", 1, "smoke")))
        cfg = cli.load_config(path)
        assert cfg["discrete"]["enabled"]
        groups = len(cli.build_family(cfg).block_stacks())
        factored = []
        real = linalg.factorize
        monkeypatch.setattr(linalg, "factorize", lambda a: factored.append(len(a)) or real(a))
        monkeypatch.setattr(np.linalg, "matrix_power", forbidden)
        cli.run_analysis(cfg)
        assert len(factored) == groups


class TestChainAndBridge:
    def test_implication_chain_on_random_samples(self):
        rng = np.random.default_rng(3)
        for k in range(10):
            cells = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 5))
            gens = rng.standard_normal((cells, dim, dim)) + 1j * rng.standard_normal(
                (cells, dim, dim)
            )
            # spectral bounds from -1 to 0.3: decaying, neutral and growing cells
            top = np.linalg.eigvals(gens).real.max(axis=1)
            gens -= (top + rng.uniform(-0.3, 1.0, cells))[:, None, None] * np.eye(dim)
            family = family_from(gens)
            sample = sample_at(family, 1.0)
            uniform = classify_discrete_uniform(family, 1.0, sample, 1e-6)
            gate = power_bounded_estimate(family, 1.0, sample, 128)
            strong = classify_discrete_strong(sample, gate)
            weak = classify_discrete_almost_weak(sample, gate)
            if uniform.verdict == STABLE:
                assert strong.verdict == STABLE
            if strong.verdict == STABLE:
                assert weak.verdict == STABLE

    def test_bridge_matches_continuous_classifier(self):
        for seed in range(5):
            family = random_hurwitz_family(seed=seed, dim=3, cells=4, margin=0.3)
            continuous = classify_uniform(family, 1.0, 1e-3)
            discrete = uniform_of(family, 1e-3)
            assert discrete.verdict == continuous.verdict
            assert discrete.detail["rho_star"] == pytest.approx(
                continuous.rho_star, rel=1e-12
            )

    @pytest.mark.parametrize("name", ["diagonal", "random_hurwitz", "rh64"])
    def test_seeded_sample_reports_as_an_eigensolved_one(self, tmp_path, monkeypatch, name):
        # sample_at takes the sample's eigenvalues as e^{t lambda} by spectral
        # mapping, and the report exponentiates only the cells near the unit
        # circle; a fresh family of every cell's e^{tA} eigensolves them
        path = ROOT / "configs" / f"{name}.json"
        if name == "rh64":
            path = tmp_path / "rh64.json"
            path.write_text(json.dumps(make_config("rh64", 1, "smoke")))
        cfg = cli.load_config(path)
        family = cli.build_family(cfg)
        tol = cfg["tolerances"]
        kwargs = {"margin": tol["margin"], "n_max": cfg["discrete"]["n_max"],
                  "match_tol": tol["match_tol"]}
        seeded = build_discrete_report(family, cfg["discrete"]["t"], **kwargs)

        def fresh(family, t, cells):
            sample = sample_at(family, t)
            return PointwiseFamily(space=sample.space, dim=sample.dim, matrices=sample.matrices,
                                   active_dims=sample.active_dims)

        monkeypatch.setattr(semigroup, "sample_at", fresh)
        assert build_discrete_report(family, cfg["discrete"]["t"], **kwargs) == seeded

    def test_report_assembly(self):
        report = build_discrete_report(
            scalar_family([math.log(0.5), math.log(0.7)]), 1.0, margin=1e-6, n_max=64
        )
        assert (report.uniform, report.strong, report.almost_weak) == (
            STABLE,
            STABLE,
            STABLE,
        )
        payload = report.as_dict()
        assert payload["power_certified"] is True
        assert payload["uniform"]["verdict"] == "Stable"

