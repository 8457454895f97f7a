import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import cli, linalg
from semistab.cases import random_hurwitz_family, zabczyk_family
from semistab.discrete import (
    DENSITY_TILE,
    build_discrete_report,
    classify_discrete_almost_weak,
    classify_discrete_strong,
    classify_discrete_uniform,
    orbit_densities,
    power_bounded_estimate,
    power_schedule,
    unimodular_point_spectrum,
)
from semistab.errors import DomainError
from semistab.linalg import norm2
from semistab.measure import DiscretizedMeasureSpace, density_discrete
from semistab.report import INCONCLUSIVE, NOT_STABLE, STABLE
from semistab.semigroup import (
    BochnerFunction,
    PointwiseFamily,
    apply,
    identity_sample,
    lp_norm,
    sample_at,
    trajectory,
)
from semistab.stability import classify_uniform

from oracles import orbit_moduli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import make_config  # noqa: E402

CHECKS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def sample_from(mats, weights=None):
    mats = np.asarray(mats, dtype=complex)
    n_cells = mats.shape[0]
    weights = np.ones(n_cells) if weights is None else np.asarray(weights, float)
    space = DiscretizedMeasureSpace(
        weights=weights, labels=np.arange(n_cells, dtype=float)
    )
    return PointwiseFamily(space=space, dim=mats.shape[1], matrices=mats)


def scalar_sample(values, weights=None):
    mats = np.asarray(values, dtype=complex).reshape(-1, 1, 1)
    return sample_from(mats, weights)


def rotation_matrix(theta):
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )


class TestPowerSchedule:
    def test_contains_endpoints_and_doubles(self):
        ns = power_schedule(64)
        assert ns[0] == 1 and ns[-1] == 64
        assert {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} <= set(ns)

    def test_small(self):
        assert power_schedule(1) == [1]

    def test_engine_matches_naive_products(self):
        rng = np.random.default_rng(0)
        for dim in (2, 5, 8):
            m = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / 2
            naive = np.eye(dim, dtype=complex)
            for n in range(1, 65):
                naive = naive @ m
                fast = np.linalg.matrix_power(m, n)
                assert norm2(fast - naive) <= 1e-9 * max(1.0, norm2(naive))


class TestPowerBoundedEstimate:
    def test_identity(self):
        est = power_bounded_estimate(identity_sample(
            DiscretizedMeasureSpace(weights=np.ones(2), labels=np.arange(2.0)), 3
        ), 100)
        assert est.certified
        assert est.bound == pytest.approx(1.0)

    def test_jordan_block_grows_linearly(self):
        jordan = np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex)
        small = power_bounded_estimate(sample_from(jordan), 32)
        large = power_bounded_estimate(sample_from(jordan), 64)
        assert not small.certified and not large.certified
        # ||J^n|| ~ n: doubling the power budget roughly doubles the bound
        assert 1.5 <= large.bound / small.bound <= 2.5

    def test_contraction_sample(self):
        rng = np.random.default_rng(1)
        mats = []
        for _ in range(5):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            mats.append(0.9 * g / norm2(g))
        est = power_bounded_estimate(sample_from(np.stack(mats)), 64)
        assert est.certified
        assert est.bound <= 1.0

    def test_close_unimodular_pair_is_certified(self):
        pair = np.diag([np.exp(1j), np.exp(1j * (1 + 5e-7))])
        est = power_bounded_estimate(sample_from([pair]), 64)
        assert est.certified
        strong = classify_discrete_strong(sample_from([pair]), est)
        assert strong.verdict == NOT_STABLE
        assert strong.witnesses[0].kind == "unimodular-eigenvalue"

    def test_unitary_semisimple_is_certified(self):
        est = power_bounded_estimate(sample_from([rotation_matrix(1.0)]), 64)
        assert est.certified
        assert est.bound == pytest.approx(1.0, abs=1e-12)


class TestClassifyDiscreteUniform:
    def test_halving(self):
        result = classify_discrete_uniform(scalar_sample([0.5, 0.5]), 1e-6)
        assert result.verdict == STABLE
        assert result.detail["norm_check_value"] < 1e-6

    def test_rotation_cell_is_not_stable(self):
        result = classify_discrete_uniform(
            sample_from([rotation_matrix(1.0)]), 1e-6
        )
        assert result.verdict == NOT_STABLE
        assert result.detail["rho_star"] == pytest.approx(1.0, abs=1e-12)

    def test_margin_degrades_with_truncation(self):
        values = [1.0 - 1.0 / k for k in range(1, 11)]  # ess sup = 0.9
        stable = classify_discrete_uniform(scalar_sample(values), 0.05)
        band = classify_discrete_uniform(scalar_sample(values), 0.2)
        assert stable.verdict == STABLE
        assert band.verdict == INCONCLUSIVE

    def test_nilpotent_norm_check(self):
        mats = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        result = classify_discrete_uniform(sample_from(mats), 1e-6)
        assert result.verdict == STABLE
        assert result.detail["rho_star"] == 0.0


class TestClassifyDiscreteStrong:
    def test_near_unit_contraction(self):
        sample = scalar_sample([0.99, 0.5])
        result = classify_discrete_strong(sample, power_bounded_estimate(sample, 64))
        assert result.verdict == STABLE

    def test_unimodular_cell_with_witness(self):
        sample = scalar_sample([0.5, np.exp(1j)])
        result = classify_discrete_strong(sample, power_bounded_estimate(sample, 64))
        assert result.verdict == NOT_STABLE
        assert result.witnesses[0].cell == 1
        assert result.witnesses[0].value == pytest.approx(np.exp(1j))

    def test_witness_is_the_first_positive_unimodular_cell(self):
        # the zero-weight unimodular cell 0 is a null set; of the unimodular
        # cells 2 and 3 the first is the witness, with its eigenvalue of
        # largest modulus
        mats = [np.diag([np.exp(2j), 0.1]), np.diag([0.5, 0.2]),
                np.diag([0.3, np.exp(0.7j)]), np.diag([np.exp(1j), 0.9])]
        sample = sample_from(mats, [0.0, 1.0, 1.0, 1.0])
        result = classify_discrete_strong(sample, power_bounded_estimate(sample, 64))
        assert result.verdict == NOT_STABLE
        [witness] = result.witnesses
        assert (witness.cell, witness.kind) == (2, "unimodular-eigenvalue")
        assert witness.value == pytest.approx(np.exp(0.7j), rel=1e-15)

    def test_defective_gate_is_inconclusive(self):
        jordan = np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex)
        sample = sample_from(jordan)
        result = classify_discrete_strong(sample, power_bounded_estimate(sample, 64))
        assert result.verdict == INCONCLUSIVE

    def test_random_contraction_probes_decay(self):
        rng = np.random.default_rng(2)
        mats = []
        for _ in range(4):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            mats.append(0.8 * g / norm2(g))
        sample = sample_from(np.stack(mats))
        gate = power_bounded_estimate(sample, 128)
        assert classify_discrete_strong(sample, gate).verdict == STABLE
        # orbit oracle: ||M^n f||_p -> 0 for random probes
        high_power = sample_from(
            np.stack([np.linalg.matrix_power(m, 80) for m in mats])
        )
        for k in range(10):
            vecs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            f = BochnerFunction(space=sample.space, dim=3, vectors=vecs)
            assert lp_norm(apply(high_power, f), 2.0) <= 1e-6 * lp_norm(f, 2.0)


class TestClassifyDiscreteAlmostWeak:
    def test_contracting_rotation_is_stable(self):
        sample = scalar_sample([0.9 * np.exp(0.7j), 0.9 * np.exp(-0.3j)])
        result = classify_discrete_almost_weak(sample, power_bounded_estimate(sample, 512))
        assert result.verdict == STABLE
        assert result.detail["bad_density"] <= 0.05

    def test_irrational_rotation_is_not_stable(self):
        sample = scalar_sample([np.exp(1j)])  # angle 1: irrational multiple of pi
        result = classify_discrete_almost_weak(sample, power_bounded_estimate(sample, 512))
        assert result.verdict == NOT_STABLE

    def test_mixed_block_witnesses_unimodular_part(self):
        sample = sample_from([np.diag([0.5, np.exp(1j)])])
        result = classify_discrete_almost_weak(sample, power_bounded_estimate(sample, 512))
        assert result.verdict == NOT_STABLE
        assert result.witnesses[0].value == pytest.approx(np.exp(1j))

    def test_bad_density_shrinks_as_horizon_doubles(self):
        sample = scalar_sample([0.5])
        d1 = classify_discrete_almost_weak(
            sample, power_bounded_estimate(sample, 1024), n_max=1024
        ).detail["bad_density"]
        d2 = classify_discrete_almost_weak(
            sample, power_bounded_estimate(sample, 2048), n_max=2048
        ).detail["bad_density"]
        assert d2 <= d1 / 1.8

    def test_unimodular_spectrum_clusters(self):
        sample = scalar_sample([np.exp(1j), np.exp(1j), 0.5], [0.25, 0.5, 1.0])
        clusters = unimodular_point_spectrum(sample)
        assert len(clusters) == 1
        assert clusters[0].measure == pytest.approx(0.75)


def reference_orbit_densities(sample, n_steps, eps, seed):
    """The per-cell orbit loop the stacked one must reproduce."""
    rng = np.random.default_rng(seed)
    out = []
    for c in sample.space.positive_cells():
        block = sample.block(int(c))
        d = block.shape[0]
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        scale = eps * float(np.linalg.norm(x)) * float(np.linalg.norm(phi))
        bad = []
        v = x.copy()
        for n in range(n_steps):
            if abs(np.vdot(phi, v)) >= scale:
                bad.append(n)
            v = block @ v
        out.append(density_discrete(bad, n_steps))
    return out


class TestStackedKernels:
    def samples(self):
        padded = trajectory(zabczyk_family(8, embed_dim=10), [1.0])[0]
        dense = trajectory(random_hurwitz_family(seed=2, dim=4, cells=9, margin=0.05), [1.0])[0]
        weighted = scalar_sample([0.99 * np.exp(0.3j), 0.5, 0.97 * np.exp(2j)], [1.0, 0.0, 2.0])
        return padded, dense, weighted

    def test_orbit_densities_match_per_cell_loop(self):
        for sample in self.samples():
            got = orbit_densities(sample, 400, 1e-3, 7)
            want = reference_orbit_densities(sample, 400, 1e-3, 7)
            assert max(want) > 0.0
            assert got.tolist() == want

    def test_power_bound_matches_per_cell_loop(self):
        for sample in self.samples():
            want = max(
                norm2(np.linalg.matrix_power(sample.block(int(c)), n))
                for n in power_schedule(64)
                for c in sample.space.positive_cells()
            )
            assert power_bounded_estimate(sample, 64).bound == want


    @pytest.mark.parametrize("n_max", [1, 5, 256, 300])
    def test_power_stacks_equal_matrix_power(self, n_max):
        # every scheduled power from the shared squares is bit for bit
        # np.linalg.matrix_power, asked in schedule order and then backwards
        for sample in self.samples():
            stacks = sample.block_stacks(sample.space.positive_cells())
            schedule = power_schedule(n_max)
            for n in schedule + schedule[::-1]:
                got = sample.power_stacks(n)
                assert [ids.tolist() for ids, _ in got] == [ids.tolist() for ids, _ in stacks]
                for (_, power), (_, blocks) in zip(got, stacks):
                    want = np.linalg.matrix_power(blocks, n)
                    np.testing.assert_array_equal(power.view(np.int64), want.view(np.int64))
            with pytest.raises(DomainError):
                sample.power_stacks(0)

    def test_discrete_report_forms_no_matrix_power(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the discrete stage must form powers from its squares")

        sample = self.samples()[1]
        want = max(
            norm2(np.linalg.matrix_power(sample.block(int(c)), n))
            for n in power_schedule(256)
            for c in sample.space.positive_cells()
        )
        monkeypatch.setattr(np.linalg, "matrix_power", forbidden)
        assert build_discrete_report(sample, margin=1e-3, n_max=256).power_bound == want


class TestChainAndBridge:
    def test_implication_chain_on_random_samples(self):
        rng = np.random.default_rng(3)
        for k in range(10):
            cells = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 5))
            mats = rng.standard_normal((cells, dim, dim)) + 1j * rng.standard_normal(
                (cells, dim, dim)
            )
            mats *= rng.uniform(0.2, 1.2) / max(norm2(m) for m in mats)
            sample = sample_from(mats)
            uniform = classify_discrete_uniform(sample, 1e-6)
            gate = power_bounded_estimate(sample, 128)
            strong = classify_discrete_strong(sample, gate)
            weak = classify_discrete_almost_weak(sample, gate, n_max=128)
            if uniform.verdict == STABLE:
                assert strong.verdict == STABLE
            if strong.verdict == STABLE:
                assert weak.verdict == STABLE

    def test_bridge_matches_continuous_classifier(self):
        for seed in range(5):
            family = random_hurwitz_family(seed=seed, dim=3, cells=4, margin=0.3)
            continuous = classify_uniform(family, 1.0, 1e-3)
            sample = trajectory(family, [1.0])[0]
            discrete = classify_discrete_uniform(sample, 1e-3)
            assert discrete.verdict == continuous.verdict
            assert discrete.detail["rho_star"] == pytest.approx(
                continuous.rho_star, rel=1e-12
            )

    @pytest.mark.parametrize("name", ["diagonal", "random_hurwitz", "rh64"])
    def test_seeded_sample_reports_as_an_eigensolved_one(self, tmp_path, name):
        # sample_at takes the sample's eigenvalues as e^{t lambda} by spectral
        # mapping; a fresh family of the same matrices eigensolves them
        path = ROOT / "configs" / f"{name}.json"
        if name == "rh64":
            path = tmp_path / "rh64.json"
            path.write_text(json.dumps(make_config("rh64", 1, "smoke")))
        cfg = cli.load_config(path)
        sample = sample_at(cli.build_family(cfg), cfg["discrete"]["t"])
        fresh = PointwiseFamily(space=sample.space, dim=sample.dim, matrices=sample.matrices,
                                active_dims=sample.active_dims)
        tol = cfg["tolerances"]
        kwargs = {"margin": tol["margin"], "n_max": cfg["discrete"]["n_max"], "eps": tol["eps"],
                  "seed": cfg["probes"]["seed"], "match_tol": tol["match_tol"]}
        assert build_discrete_report(sample, **kwargs) == build_discrete_report(fresh, **kwargs)

    def test_report_assembly(self):
        report = build_discrete_report(
            scalar_sample([0.5, 0.7]), margin=1e-6, n_max=64
        )
        assert (report.uniform, report.strong, report.almost_weak) == (
            STABLE,
            STABLE,
            STABLE,
        )
        payload = report.as_dict()
        assert payload["power_certified"] is True
        assert payload["uniform"]["verdict"] == "Stable"


def padded_block(rng, kind, k):
    """One k x k block of a power-bounded sample."""
    if kind == "zero":
        return np.zeros((k, k))
    if kind == "zabczyk":
        # the Zabczyk generator of size k, exponentiated at a time in [0.5, 3]
        a = (1j * k - 1.0 / k) * np.eye(k) + np.diag(np.ones(k - 1), 1)
        return linalg.expm(a, float(rng.uniform(0.5, 3.0)))
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    if kind == "unitary":
        return np.linalg.qr(g)[0]
    return rng.uniform(0.5, 1.0) * g / norm2(g)


class TestBlockedOrbitDensities:
    """orbit_densities runs in tiles of DENSITY_TILE powers; the step loop it
    replaced is the oracle (oracles.orbit_moduli)."""

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(1, 3 * DENSITY_TILE + 7),
           cells=st.lists(st.tuples(st.integers(1, 5),
                                    st.sampled_from(["contraction", "zabczyk", "unitary",
                                                     "zero"]),
                                    st.sampled_from([0.0, 0.5, 1.0])),
                          min_size=1, max_size=7),
           eps=st.sampled_from([1e-3, 0.1, 0.5]))
    def test_counts_equal_the_step_loop(self, seed, n_steps, cells, eps):
        # mixed active dimensions in 5 x 5 storage, with unimodular, zero
        # and zero-weight cells; fewer powers than a tile and a partial last
        # tile among the horizons
        rng = np.random.default_rng(seed)
        mats = np.zeros((len(cells), 5, 5), dtype=complex)
        for c, (k, kind, _) in enumerate(cells):
            mats[c, :k, :k] = padded_block(rng, kind, k)
        weights = np.array([w for _, _, w in cells])
        weights[0] = 1.0
        space = DiscretizedMeasureSpace(weights=weights, labels=np.arange(float(len(cells))))
        sample = PointwiseFamily(space=space, dim=5, matrices=mats,
                                 active_dims=[k for k, _, _ in cells])
        got = orbit_densities(sample, n_steps, eps, seed)
        moduli, scale = orbit_moduli(sample, n_steps, eps, seed)
        want = (moduli >= scale[:, None]).sum(axis=1)
        # a count may move only by the steps whose modulus the oracle puts
        # within 1e-9 relative of the threshold
        near = (np.abs(moduli - scale[:, None]) <= 1e-9 * scale[:, None]).sum(axis=1)
        assert (np.abs(got * n_steps - want) <= near + 1e-9).all()
        exact = near == 0
        np.testing.assert_array_equal(got[exact], want[exact] / float(n_steps))

    def test_equal_to_the_step_loop_on_rh64(self):
        for seed in (1, 2, 3):
            sample = self.rh64(seed)
            got = orbit_densities(sample, 1037, 1e-3, seed)
            moduli, scale = orbit_moduli(sample, 1037, 1e-3, seed)
            assert got.tolist() == ((moduli >= scale[:, None]).sum(axis=1) / 1037.0).tolist()

    @staticmethod
    def rh64(seed):
        # the rh64 workload's discrete sample: 64 dense 6 x 6 cells
        cfg = make_config("rh64", seed)["family"]
        family = random_hurwitz_family(seed=cfg["seed"], dim=cfg["dim"], cells=cfg["cells"],
                                       margin=cfg["margin"])
        return sample_at(family, 1.0)

    def test_products_per_group_grow_with_the_tiles(self, monkeypatch):
        # per active dimension: log2(DENSITY_TILE) products for the rows and
        # two per tile, against one per power for the step loop
        calls = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    calls.append(1)
                plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
                if "out" in kwargs:
                    kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
                result = getattr(ufunc, method)(*plain, **kwargs)
                return result.view(Counted) if isinstance(result, np.ndarray) else result

        real = PointwiseFamily.power_stacks
        monkeypatch.setattr(PointwiseFamily, "power_stacks", lambda self, n: [
            (ids, power.view(Counted)) for ids, power in real(self, n)])
        padded = trajectory(zabczyk_family(6, embed_dim=8), [1.0])[0]
        for sample, groups in ((self.rh64(1), 1), (padded, 6)):
            for n_steps in (1, DENSITY_TILE, 1037):
                calls.clear()
                orbit_densities(sample, n_steps, 1e-3, 0)
                tiles = -(-n_steps // DENSITY_TILE)
                per_group = DENSITY_TILE.bit_length() - 1 + 2 * tiles
                assert len(calls) <= groups * per_group
            # at most a quarter of the step loop's products
            assert 4 * len(calls) <= groups * 1037

    def test_tile_memory_does_not_grow_with_the_horizon(self):
        # rh64: the rows take DENSITY_TILE m k complex entries (98 kB at 16
        # powers); the peak stays within twice that and does not grow with
        # n_steps
        sample = self.rh64(1)
        sample.power_stacks(DENSITY_TILE)
        tile_bytes = DENSITY_TILE * 64 * 6 * 16
        peaks = []
        for n_steps in (1037, 4 * 1037):
            tracemalloc.start()
            try:
                orbit_densities(sample, n_steps, 1e-3, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 2 * tile_bytes
        assert peaks[1] <= peaks[0] + 8192
