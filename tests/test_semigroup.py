import math
import warnings

import numpy as np
import pytest

from semistab import linalg
from semistab.cases import diagonal_family, random_hurwitz_family, zabczyk_family
from semistab.errors import DomainError, ShapeError
from semistab.linalg import norm2
from semistab.measure import DiscretizedMeasureSpace
from semistab.semigroup import (
    BochnerFunction,
    PointwiseFamily,
    apply,
    lp_norm,
    norm_curves,
    orbit_norms,
    random_probes,
    refine_family,
    rule_matrices,
    sample_at,
    time_grid,
    trajectory,
)
from semistab.stability import certify_bounded

from oracles import operator_norm, real_factor, sample_norms


def space_of(weights):
    weights = np.asarray(weights, dtype=float)
    return DiscretizedMeasureSpace(weights=weights, labels=np.arange(weights.size, dtype=float))


def identity_sample(space, dim):
    mats = np.broadcast_to(np.eye(dim, dtype=complex), (space.n_cells, dim, dim))
    return PointwiseFamily(space=space, dim=dim, matrices=mats)


def random_sample(rng, cells, dim, weights=None):
    space = space_of(np.ones(cells) if weights is None else weights)
    mats = rng.standard_normal((cells, dim, dim)) + 1j * rng.standard_normal((cells, dim, dim))
    return PointwiseFamily(space=space, dim=dim, matrices=mats)


def random_function(rng, space, dim):
    vecs = rng.standard_normal((space.n_cells, dim)) + 1j * rng.standard_normal(
        (space.n_cells, dim)
    )
    return BochnerFunction(space=space, dim=dim, vectors=vecs)


class TestApply:
    def test_identity_leaves_function_unchanged(self):
        space = space_of([1.0, 2.0, 0.5])
        f = random_function(np.random.default_rng(0), space, 3)
        out = apply(identity_sample(space, 3), f)
        np.testing.assert_array_equal(out.vectors, f.vectors)

    def test_scalar_cell(self):
        space = space_of([1.0])
        sample = PointwiseFamily(space=space, dim=1, matrices=np.array([[[2.0]]], dtype=complex))
        f = BochnerFunction(space=space, dim=1, vectors=np.array([[3.0]], dtype=complex))
        assert apply(sample, f).vectors[0, 0] == 6.0

    def test_matches_per_cell_matvec_loop(self):
        rng = np.random.default_rng(1)
        sample = random_sample(rng, 6, 4)
        f = random_function(rng, sample.space, 4)
        out = apply(sample, f)
        for c in range(6):  # brute-force oracle
            np.testing.assert_allclose(out.vectors[c], sample.matrices[c] @ f.vectors[c])

    def test_space_mismatch_raises(self):
        rng = np.random.default_rng(2)
        sample = random_sample(rng, 3, 2)
        f = random_function(rng, space_of([1.0, 1.0]), 2)
        with pytest.raises(ShapeError):
            apply(sample, f)


class TestLpNorm:
    def test_indicator_function(self):
        space = space_of([1.0, 0.25, 2.0])
        vecs = np.zeros((3, 2), dtype=complex)
        vecs[1, 0] = 1.0  # unit vector on cell 1 only
        f = BochnerFunction(space=space, dim=2, vectors=vecs)
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(0.25))

    def test_zero_function(self):
        space = space_of([1.0, 1.0])
        f = BochnerFunction(space=space, dim=2, vectors=np.zeros((2, 2)))
        assert lp_norm(f, 2.0) == 0.0

    def test_hand_computed_two_cells(self):
        space = space_of([1.0, 1.0])
        vecs = np.array([[3.0, 0.0], [0.0, 4.0]], dtype=complex)
        f = BochnerFunction(space=space, dim=2, vectors=vecs)
        assert lp_norm(f, 2.0) == pytest.approx(5.0)

    def test_infinity_norm_ignores_null_cells(self):
        space = space_of([1.0, 0.0])
        vecs = np.array([[1.0, 0.0], [9.0, 0.0]], dtype=complex)
        f = BochnerFunction(space=space, dim=2, vectors=vecs)
        assert lp_norm(f, math.inf) == 1.0

    def test_p_below_one_rejected(self):
        space = space_of([1.0])
        f = BochnerFunction(space=space, dim=1, vectors=np.ones((1, 1)))
        with pytest.raises(DomainError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_huge_entries_do_not_overflow(self, p):
        # 1e200 squared overflows unscaled
        f = BochnerFunction(space=space_of([1.0]), dim=2, vectors=[[1e200, 1e200j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp_norm(f, p) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(identity_sample(space_of([1.0, 1.0]), 3)) == pytest.approx(1.0)

    def test_null_cell_excluded(self):
        space = space_of([1.0, 1.0, 0.0])
        mats = np.stack([0.5 * np.eye(2), 2.0 * np.eye(2), 7.0 * np.eye(2)]).astype(complex)
        sample = PointwiseFamily(space=space, dim=2, matrices=mats)
        assert operator_norm(sample) == pytest.approx(2.0)

    def test_p_independence_is_exact(self):
        sample = random_sample(np.random.default_rng(3), 8, 3)
        norms = {p: operator_norm(sample, p) for p in (1.0, 2.0, 4.0, math.inf)}
        assert len(set(norms.values())) == 1

    def test_attained_by_indicator_and_never_exceeded(self):
        rng = np.random.default_rng(4)
        sample = random_sample(rng, 10, 4, weights=rng.uniform(0.1, 2.0, 10))
        target = operator_norm(sample, 2.0)
        # ratio bound over random functions
        for _ in range(200):
            f = random_function(rng, sample.space, 4)
            ratio = lp_norm(apply(sample, f), 2.0) / lp_norm(f, 2.0)
            assert ratio <= target + 1e-12
        # the indicator concentrated on the worst cell, pointing along the
        # top right singular vector, attains the norm
        cell_norms = sample_norms(sample)
        worst = int(np.argmax(np.where(sample.space.weights > 0, cell_norms, -1.0)))
        _, _, vh = np.linalg.svd(sample.matrices[worst])
        for p in (1.0, 2.0, 4.0, math.inf):
            vecs = np.zeros((10, 4), dtype=complex)
            vecs[worst] = vh[0].conj()
            f = BochnerFunction(space=sample.space, dim=4, vectors=vecs)
            ratio = lp_norm(apply(sample, f), p) / lp_norm(f, p)
            assert ratio == pytest.approx(target, abs=1e-9)


class TestTrajectory:
    def test_time_zero_is_identity_exactly(self):
        space = space_of([1.0, 1.0])
        gens = np.stack([np.diag([-1.0 + 0j]), np.diag([2j])])
        family = PointwiseFamily(space=space, dim=1, matrices=gens)
        sample = trajectory(family, [0.0])[0]
        np.testing.assert_array_equal(sample.matrices, np.ones((2, 1, 1)))

    def test_scalar_decay(self):
        family = PointwiseFamily(
            space=space_of([1.0]), dim=1, matrices=np.array([[[-1.0 + 0j]]])
        )
        sample = trajectory(family, [1.0])[0]
        assert sample.matrices[0, 0, 0] == pytest.approx(np.exp(-1.0))

    def test_semigroup_property_across_samples(self):
        rng = np.random.default_rng(5)
        gens = 0.5 * (rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
        family = PointwiseFamily(space=space_of(np.ones(3)), dim=4, matrices=gens)
        s1, s2, s12 = trajectory(family, [0.7, 1.1, 1.8])
        for c in range(3):
            err = norm2(s12.matrices[c] - s1.matrices[c] @ s2.matrices[c])
            assert err <= 1e-9

    def test_null_cells_stay_identity(self):
        # e^{800 t} overflows at t = 1 on the zero-weight cell
        family = diagonal_family([-1.0, 800.0, 2j], [1.0, 0.0, 2.0])
        sample = sample_at(family, 1.0)
        want = [linalg.expm([[-1.0]])[0, 0], 1.0, linalg.expm([[2j]])[0, 0]]
        np.testing.assert_array_equal(sample.matrices[:, 0, 0], want)
        assert [s.matrices[1, 0, 0] for s in trajectory(family, [0.5, 1.0])] == [1.0, 1.0]

    def test_empty_and_negative_times_rejected(self):
        family = PointwiseFamily(
            space=space_of([1.0]), dim=1, matrices=np.array([[[0.0 + 0j]]])
        )
        with pytest.raises(ShapeError):
            trajectory(family, [])
        with pytest.raises(DomainError):
            trajectory(family, [-1.0])
        with pytest.raises(DomainError):
            trajectory(family, [2.0, 1.0])


class TestUniformBoundEstimate:
    """The grid estimate of sup_t ||e^{tA}|| that certify_bounded reports."""

    def diag_family(self, rates, weights=None):
        rates = np.asarray(rates, dtype=complex)
        space = space_of(np.ones(rates.size) if weights is None else weights)
        return PointwiseFamily(space=space, dim=1, matrices=rates.reshape(-1, 1, 1))

    def test_normal_decaying_family(self):
        family = self.diag_family([-1.0 / k for k in range(1, 11)])
        est = certify_bounded(family, time_grid(100.0, 25))
        assert est.certified
        assert est.bound == pytest.approx(1.0)

    def test_monotone_in_horizon_on_nested_grids(self):
        rng = np.random.default_rng(6)
        gens = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        gens = np.stack([g - (np.linalg.eigvals(g).real.max() + 0.4) * np.eye(3) for g in gens])
        family = PointwiseFamily(space=space_of(np.ones(4)), dim=3, matrices=gens)
        grid1 = np.linspace(0.0, 40.0, 41)
        grid2 = np.linspace(0.0, 80.0, 81)  # contains grid1
        est1 = certify_bounded(family, grid1)
        est2 = certify_bounded(family, grid2)
        assert est1.certified and est2.certified
        assert est2.bound >= est1.bound


class TestActiveBlocks:
    def padded_family(self):
        # cell 0: active 1x1 block diag(-1); the second coordinate is padding
        space = space_of([1.0])
        gens = np.zeros((1, 2, 2), dtype=complex)
        gens[0, 0, 0] = -1.0
        return PointwiseFamily(
            space=space, dim=2, matrices=gens, active_dims=np.array([1])
        )

    def test_norms_restrict_to_active_block(self):
        family = self.padded_family()
        sample = trajectory(family, [3.0])[0]
        # the full matrix has an identity on the padding, the block does not
        assert norm2(sample.matrices[0]) == pytest.approx(1.0)
        assert sample_norms(sample)[0] == pytest.approx(np.exp(-3.0))

    def test_grouped_norms_equal_per_cell_norms(self):
        padded = trajectory(zabczyk_family(8, embed_dim=10), [2.5])[0]
        dense = trajectory(random_hurwitz_family(seed=4, dim=5, cells=12, margin=0.2), [1.5])[0]
        for sample in (padded, dense):
            want = [norm2(sample.block(c)) for c in range(sample.space.n_cells)]
            np.testing.assert_array_equal(sample_norms(sample), want)

    def test_block_stacks_on_unsorted_dims_and_a_cell_subset(self):
        rng = np.random.default_rng(2)
        active = np.array([3, 1, 4, 1, 3, 2, 4])
        mats = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        family = PointwiseFamily(
            space=space_of(np.ones(7)), dim=4, matrices=mats, active_dims=active
        )
        stacks = family.block_stacks([6, 4, 1, 0, 3])
        assert [blocks.shape for _, blocks in stacks] == [(2, 1, 1), (2, 3, 3), (1, 4, 4)]
        assert [ids.tolist() for ids, _ in stacks] == [[1, 3], [4, 0], [6]]
        for ids, blocks in stacks:
            k = blocks.shape[-1]
            np.testing.assert_array_equal(blocks, mats[ids, :k, :k])

    def test_random_probes_avoid_padding(self):
        probes = random_probes(self.padded_family(), 3, seed=0)
        for probe in probes:
            assert np.all(probe.vectors[:, 1:] == 0)


def contract_families():
    # padded Jordan blocks, dense 6x6 cells and scalar cells, with grids long
    # enough that every family runs in several time slices
    rates = 1j * np.linspace(-3.0, 3.0, 100) - np.linspace(0.01, 0.5, 100)
    return [
        zabczyk_family(12, embed_dim=40),
        random_hurwitz_family(seed=8, dim=6, cells=30, margin=0.2),
        diagonal_family(rates),
    ]


def recorded_stacks(monkeypatch):
    stacks = []
    real = linalg.expm_stack

    def record(a, t, **kw):
        # (times, blocks, k, k) of one call
        stacks.append((np.size(t),) + np.asarray(a).shape)
        return real(a, t, **kw)

    monkeypatch.setattr(linalg, "expm_stack", record)
    return stacks


class TestGroupedExponentials:
    """trajectory exponentiates each active block once per time, and
    norm_curves takes its norms, with the arithmetic of one block alone."""

    @pytest.mark.parametrize("family", contract_families())
    def test_blocks_bit_equal_one_matrix_expm_and_padding_is_identity(self, family, monkeypatch):
        times = time_grid(300.0, 48)
        stacks = recorded_stacks(monkeypatch)
        samples = trajectory(family, times)
        groups = len(family.block_stacks())
        assert len(stacks) > groups
        monkeypatch.undo()
        for t, sample in zip(times, samples):
            for c in range(family.space.n_cells):
                k = family.block(c).shape[0]
                got = sample.matrices[c]
                want = linalg.expm(family.block(c), t)
                np.testing.assert_array_equal(got[:k, :k].view(np.int64), want.view(np.int64))
                padding = got.copy()
                padding[:k, :k] = np.eye(k)
                np.testing.assert_array_equal(padding, np.eye(family.dim))

    @pytest.mark.parametrize("family", contract_families())
    def test_norms_bit_equal_one_block_norms(self, family):
        # a closed-form block's norm is norm2 of its real factor alone, within
        # 4 ulps of the norm of its complex exponential; any other block's is
        # the norm of its complex exponential
        times = time_grid(300.0, 48)
        norms = norm_curves(family, times)
        closed = [linalg._closed_form_blocks(family.block(c)[None])[0]
                  for c in range(family.space.n_cells)]
        for t, sample, row in zip(times, trajectory(family, times), norms):
            reference = sample_norms(sample)
            want = reference.copy()
            for c in np.flatnonzero(closed):
                want[c] = norm2(real_factor(family.block(c), t))
            np.testing.assert_array_equal(row.view(np.int64), want.view(np.int64))
            assert (np.abs(row - reference) <= 4 * np.spacing(reference)).all()

    @pytest.mark.parametrize(
        "family",
        contract_families() + [random_hurwitz_family(seed=9, dim=6, cells=400, margin=0.2)],
    )
    def test_stacks_stay_within_the_byte_budget(self, family, monkeypatch):
        # one time step of one group may exceed the budget; nothing else may
        # (each call passes its whole group once, untiled)
        groups = {blocks.shape[-1]: blocks for _, blocks in family.block_stacks()}
        stacks = recorded_stacks(monkeypatch)
        trajectory(family, time_grid(300.0, 48))
        for steps, count, k, _ in stacks:
            assert count == len(groups[k])
            assert steps * count * k * k * 16 <= max(linalg.STACK_BYTES, groups[k].nbytes)


def zero_weight_family():
    # dense 4x4 cells, two of them null sets
    family = random_hurwitz_family(seed=5, dim=4, cells=24, margin=0.2)
    weights = np.ones(24)
    weights[[3, 17]] = 0.0
    return PointwiseFamily(space=space_of(weights), dim=4, matrices=family.matrices)


class TestOrbitNorms:
    """Probe orbit norms taken per time slice of the grouped exponentials."""

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("family", contract_families()[:2] + [zero_weight_family()])
    def test_probe_norms_match_the_padded_reference(self, family, p, monkeypatch):
        times = time_grid(300.0, 48)
        probes = random_probes(family, 3, seed=1)
        calls = []
        real = linalg.expm_norms
        monkeypatch.setattr(linalg, "expm_norms",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        norms, probe_norms = orbit_norms(family, times, probes, p)
        # one kernel call per active-dimension group, over the whole grid
        groups = family.block_stacks(family.space.positive_cells())
        assert [blocks.shape for blocks, _, _ in calls] == [b.shape for _, b in groups]
        assert all(len(grid) == len(times) for _, grid, _ in calls)
        monkeypatch.undo()
        np.testing.assert_array_equal(norms, norm_curves(family, times))
        for k, t in enumerate(times):
            sample = trajectory(family, [t])[0]
            want = [lp_norm(apply(sample, f), p) for f in probes]
            np.testing.assert_allclose(probe_norms[k], want, rtol=1e-14, atol=0.0)

    def test_probe_norms_of_a_finite_orbit_do_not_overflow(self):
        # the closed-form block [[10, 1], [0, 10]] and the Pade block of its
        # transpose: each cell's orbit of (1, 1) has norm e^{10 t} sqrt((1 + t)^2
        # + 1), about 2.1e175 at t = 40, so the squares of the cell norms
        # overflow unscaled
        a = np.array([[10.0, 1.0], [0.0, 10.0]])
        family = PointwiseFamily(space=space_of([1.0, 1.0]), dim=2, matrices=np.stack([a, a.T]))
        probe = BochnerFunction(space=family.space, dim=2, vectors=np.ones((2, 2)))
        times = np.array([0.0, 1.0, 20.0, 40.0])
        _, probe_norms = orbit_norms(family, times, [probe])
        exact = np.sqrt(2.0) * np.exp(10 * times) * np.sqrt((1 + times) ** 2 + 1)
        np.testing.assert_allclose(probe_norms[:, 0], exact, rtol=1e-13, atol=0)

    def test_probes_are_restricted_to_the_active_blocks(self):
        family = zabczyk_family(3)
        ones = BochnerFunction(space=family.space, dim=3, vectors=np.ones((3, 3)))
        _, probe_norms = orbit_norms(family, [0.0], [ones])
        assert probe_norms[0, 0] == pytest.approx(math.sqrt(6.0), rel=1e-15)

    def test_tiny_probe_is_not_zero(self):
        # 1e-200 squared underflows to 0 unscaled
        family = diagonal_family([-1.0, -2.0])
        probe = BochnerFunction(space=family.space, dim=1, vectors=[[1e-200], [1e-200]])
        _, probe_norms = orbit_norms(family, [0.0, 1.0], [probe])
        exact = 1e-200 * np.sqrt([2.0, np.exp(-2.0) + np.exp(-4.0)])
        np.testing.assert_allclose(probe_norms[:, 0], exact, rtol=1e-14, atol=0)

    def test_zero_probe_rejected(self):
        family = zabczyk_family(3)
        # nonzero only on the padding of cell 0
        vecs = np.zeros((3, 3))
        vecs[0, 2] = 1.0
        probe = BochnerFunction(space=family.space, dim=3, vectors=vecs)
        with pytest.raises(DomainError, match="probe 1 has zero norm on the active blocks"):
            orbit_norms(family, [0.0, 1.0], random_probes(family, 1, seed=0) + [probe])


class TestSpectrum:
    def test_computed_once_on_first_use(self, monkeypatch):
        calls = []
        real = linalg.eigenvalues
        monkeypatch.setattr(linalg, "eigenvalues", lambda a: calls.append(a) or real(a))
        gens = np.zeros((2, 2, 2), dtype=complex)
        gens[:, 0, 0] = [-1.0, 2j]
        family = PointwiseFamily(
            space=space_of([1.0, 1.0]), dim=2, matrices=gens, active_dims=np.array([1, 2])
        )
        assert calls == []
        np.testing.assert_array_equal(family.spectrum(0), [-1.0])
        family.spectrum(0)
        np.testing.assert_array_equal(np.sort_complex(family.spectrum(1)), [0.0, 2j])
        assert len(calls) == 2

    def test_null_cell_has_no_spectrum(self):
        family = diagonal_family([-1.0, 2j], [1.0, 0.0])
        np.testing.assert_array_equal(family.spectrum(0), [-1.0])
        with pytest.raises(DomainError):
            family.spectrum(1)


class TestRefineFamily:
    def test_requires_rule(self):
        family = PointwiseFamily(
            space=space_of([1.0]), dim=1, matrices=np.array([[[0j]]])
        )
        with pytest.raises(DomainError):
            refine_family(family)

    def test_resamples_rule_at_new_labels(self):
        space = DiscretizedMeasureSpace.uniform_grid(2)
        rule = np.array([[[0.0]], [[1j]]])
        family = PointwiseFamily(
            space=space, dim=1, matrices=rule_matrices(rule, space.labels), rule=rule
        )
        refined = refine_family(family)
        assert refined.space.n_cells == 4
        np.testing.assert_allclose(
            refined.matrices[:, 0, 0].imag, refined.space.labels
        )


class TestRule:
    def test_horner_agrees_with_direct_evaluation(self):
        rng = np.random.default_rng(3)
        rule = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        points = np.linspace(-2.0, 3.0, 11)
        direct = np.stack([sum(c * s**k for k, c in enumerate(rule)) for s in points])
        np.testing.assert_allclose(rule_matrices(rule, points), direct, rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(rule_matrices(rule[:1], points), np.broadcast_to(rule[0], (11, 3, 3)))

    @pytest.mark.parametrize(
        "rule",
        [
            np.zeros((2, 1)),            # not a coefficient stack
            np.zeros((0, 1, 1)),         # no coefficient
            np.zeros((2, 2, 2)),         # wrong matrix size
            np.array([[[np.nan]]]),      # non-finite coefficient
        ],
    )
    def test_malformed_rule_raises(self, rule):
        space = DiscretizedMeasureSpace.uniform_grid(2)
        with pytest.raises(ShapeError):
            PointwiseFamily(space=space, dim=1, matrices=np.zeros((2, 1, 1)), rule=rule)


class TestTimeGrid:
    def test_linear_includes_endpoints(self):
        grid = time_grid(2.0, 3, log_spacing=False)
        np.testing.assert_allclose(grid, [0.0, 1.0, 2.0])

    def test_log_grid_starts_at_zero_and_ends_at_horizon(self):
        grid = time_grid(100.0, 10)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(100.0)
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("points", [2, 3, 17, 48, 129])
    def test_log_grid_ends_exactly_at_horizon(self, points):
        for horizon in (0.3, 50.0, 800.0, 4000.0):
            grid = time_grid(horizon, points)
            assert grid.size == points
            assert grid[-1] == horizon
