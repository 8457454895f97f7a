import math
from pathlib import Path

import numpy as np
import pytest

from semistab import cli, linalg, semigroup, stability
from semistab.cases import diagonal_family, random_hurwitz_family, zabczyk_family
from semistab.errors import DomainError, UnboundedSemigroupError
from semistab.measure import DiscretizedMeasureSpace, ess_sup
from semistab.report import INCONCLUSIVE, NOT_STABLE, STABLE
from semistab.semigroup import (
    PointwiseFamily,
    norm_curves,
    sample_at,
    time_grid,
)
from semistab.stability import (
    build_report,
    certify_bounded,
    cesaro_verify,
    classify_almost_weak,
    classify_strong,
    classify_uniform,
    imaginary_point_spectrum,
    spectral_bound_verdict,
)

from oracles import sample_radii

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# the gate grids these tests were written for: time_grid(horizon,
# grid_points) for strong and time_grid(50.0, 33) for almost weak


def run_strong(family, horizon, grid_points=48):
    gate = certify_bounded(family, time_grid(horizon, grid_points))
    return classify_strong(family, gate)


def run_almost_weak(family, **kwargs):
    return classify_almost_weak(family, certify_bounded(family, time_grid(50.0, 33)), **kwargs)


def rule_family(cells, coefficients, lo=0.0, hi=1.0):
    """The family of the rule A(s) = sum_k coefficients[k] s^k (scalars or
    n x n matrices) on a uniform grid of `cells` cells over [lo, hi]."""
    rule = np.asarray(coefficients, dtype=complex)
    rule = rule.reshape(rule.shape[0], 1, 1) if rule.ndim == 1 else rule
    space = DiscretizedMeasureSpace.uniform_grid(cells, lo, hi)
    return PointwiseFamily(
        space=space, dim=rule.shape[1], matrices=semigroup.rule_matrices(rule, space.labels),
        rule=rule,
    )


#: polynomial rules and the imaginary eigenvalues of their multiplication
#: generators on any interval
LIMIT_RULES = {
    "i s": ([0, 1j], []),
    "i (s - 1/2)^3": ([-1j / 8, 3j / 4, -1.5j, 1j], []),
    "i s^2": ([0, 0, 1j], []),
    "i (s - 1/2)^2": ([0.25j, -1j, 1j], []),
    "diag(i/2, -1 + i s)": ([np.diag([0.5j, -1.0]), np.diag([0.0, 1j])], [0.5j]),
    "i": ([1j], [1j]),
}


def family_from_matrices(mats, weights=None):
    mats = np.asarray(mats, dtype=complex)
    n_cells = mats.shape[0]
    weights = np.ones(n_cells) if weights is None else np.asarray(weights, float)
    space = DiscretizedMeasureSpace(
        weights=weights, labels=np.arange(n_cells, dtype=float)
    )
    return PointwiseFamily(space=space, dim=mats.shape[1], matrices=mats)


class TestClassifyUniform:
    def test_scalar_decay(self):
        result = classify_uniform(diagonal_family([-1.0, -1.0]), 1.0, 1e-6)
        assert result.verdict == STABLE
        assert result.decay_eps == pytest.approx(1.0, abs=1e-9)
        assert result.rho_star == pytest.approx(math.exp(-1.0))
        assert result.bound_M >= 1.0

    def test_unitary_is_not_stable_with_witness(self):
        result = classify_uniform(diagonal_family([1j, -1.0]), 1.0, 1e-6)
        assert result.verdict == NOT_STABLE
        assert result.decay_eps is None
        assert result.witnesses and result.witnesses[0].cell == 0

    def test_margin_band_is_inconclusive(self):
        # rho* = e^{-0.01} ~ 0.990: inside a margin band of 0.05
        result = classify_uniform(diagonal_family([-0.01]), 1.0, 0.05)
        assert result.verdict == INCONCLUSIVE

    def test_counterexample_truncation(self):
        family = zabczyk_family(10)
        result = classify_uniform(family, 0.5, 1e-6)
        assert result.verdict == STABLE
        assert result.rho_star == pytest.approx(math.exp(-0.5 / 10), rel=1e-12)
        assert result.decay_eps == pytest.approx(0.1, abs=1e-6)

    def test_envelope_beyond_the_double_range_is_inf(self):
        # at N = 110 the fit ||e^{tA}|| e^{eps t} reaches e^{845.7}: M is inf,
        # formed without a numpy overflow warning (an error under pytest)
        result = classify_uniform(zabczyk_family(110), 1.0, 1e-6)
        assert result.verdict == STABLE
        assert result.bound_M == math.inf

    def test_fitted_envelope_holds_on_grid(self):
        family = random_hurwitz_family(seed=2, dim=5, cells=4, margin=0.3)
        result = classify_uniform(family, 1.0, 1e-3)
        assert result.verdict == STABLE
        envelope = result.bound_M * np.exp(-result.decay_eps * result.times)
        assert np.all(result.ess_norms <= envelope * (1 + 1e-12))

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_radius_agrees_with_the_sampled_radii(self, config):
        # the exponential route, the eigensolved blocks of e^{t0 A(s)}, as an
        # oracle
        cfg = cli.load_config(config)
        family, t0 = cli.build_family(cfg), cfg["time"]["t0"]
        result = classify_uniform(family, t0, cfg["tolerances"]["margin"], grid_points=16)
        want = ess_sup(family.space, sample_radii(sample_at(family, t0)))
        assert result.rho_star == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "rate, verdict",
        [(-1.0, STABLE), (-1e-7, INCONCLUSIVE), (0.0, NOT_STABLE), (0.5j, NOT_STABLE),
         (1e-3, NOT_STABLE)],
    )
    def test_verdict_does_not_depend_on_t0(self, rate, verdict):
        # the margin and the roundoff floor are rates: e^{t0 s*} alone would
        # read NotStable for rate -1 at t0 = 1e-13 and Stable for -1e-7 at 100
        family = diagonal_family([rate, -2.0])
        for t0 in (1e-13, 1.0, 100.0):
            result = classify_uniform(family, t0, 1e-6, grid_points=16)
            assert result.verdict == verdict
            assert result.rho_star == math.exp(t0 * complex(rate).real)
            assert all(w.value == result.rho_star for w in result.witnesses)
            if verdict == STABLE:
                assert result.decay_eps == 1.0

    def test_invalid_parameters(self):
        family = diagonal_family([-1.0])
        with pytest.raises(DomainError):
            classify_uniform(family, 0.0, 1e-6)
        with pytest.raises(DomainError):
            classify_uniform(family, 1.0, 0.0)


def full_grid_uniform(family, t0, grid_points=48):
    """The uniform cross-check with every positive-weight cell computed on
    every trial horizon: (rho*, eps, M, last horizon examined, its grid, its
    ess-sup norms), with rho* = e^{t0 s*} for the ess-sup s* of the cells'
    spectral bounds and eps = -s*."""
    positive = family.space.positive_cells()
    s_star = max(linalg.spectral_bound(family.block(c)) for c in positive)
    rho_star, eps = math.exp(t0 * s_star), -s_star
    active = family.active_dims
    max_dim = family.dim if active is None else int(active[positive].max())
    h = max(2 * math.log(1e3) / eps, 4 * max_dim / eps)
    for attempt in range(stability.MAX_EXTENSIONS + 1):
        if attempt:
            h *= 2.0
        times = time_grid(h, grid_points)
        ess_norms = norm_curves(family, times)[:, positive].max(axis=1)
        if ess_norms[times > 0].min() < stability.DECAY_CROSSCHECK:
            break
    bound = max(1.0, float((ess_norms * np.exp(eps * times)).max()))
    return rho_star, eps, bound, h, times, ess_norms


def count_full_passes(monkeypatch):
    """Record the grid end of every full pass: the semigroup.orbit_norms calls
    that carry a floor (the lead-only pass computes every norm exactly)."""
    ends = []
    real = semigroup.orbit_norms

    def counted(family, times, *args, **kwargs):
        if kwargs.get("floor") is not None:
            ends.append(float(times[-1]))
        return real(family, times, *args, **kwargs)

    monkeypatch.setattr(semigroup, "orbit_norms", counted)
    return ends


def two_cell_family(rate):
    """The rho* lead, a normal cell decaying at rate 0.01, next to a cell
    with spectral bound `rate` <= -0.01 and a non-normal transient that
    outlasts the lead's decay."""
    return family_from_matrices([np.diag([-0.01, -0.01]), [[rate, 1e8], [0.0, rate]]])


def with_null_cells():
    """Random-Hurwitz cells with two zero-weight cells, one of them
    overflowing before t0."""
    mats = list(random_hurwitz_family(seed=4, dim=3, cells=4, margin=0.3).matrices)
    mats.insert(1, 800.0 * np.eye(3))
    mats.append(np.diag([1j, 2.0, -5.0]))
    return family_from_matrices(mats, weights=[1, 0, 1, 1, 1, 0])


class TestUniformCrossCheck:
    """classify_uniform settles a horizon from the lead cell's norms when it
    can; results must equal the full grid on every horizon, bit for bit."""

    @pytest.mark.parametrize(
        "build, full_passes",
        [
            pytest.param(lambda: zabczyk_family(6, embed_dim=8), 1, id="zabczyk-6"),
            pytest.param(lambda: zabczyk_family(10, embed_dim=13), 1, id="zabczyk-10"),
            pytest.param(lambda: zabczyk_family(16, embed_dim=20), 1, id="zabczyk-16"),
            pytest.param(
                lambda: random_hurwitz_family(seed=3, dim=6, cells=8, margin=0.2), 1,
                id="random-hurwitz",
            ),
            pytest.param(with_null_cells, 1, id="null-cells"),
            # the lead decays on the first horizon, the transient does not:
            # the full grid runs there and again on the doubled horizon
            pytest.param(lambda: two_cell_family(-0.02), 2, id="transient-outlasts-lead"),
        ],
    )
    def test_equals_the_full_grid_on_every_horizon(self, monkeypatch, build, full_passes):
        family = build()
        ends = count_full_passes(monkeypatch)
        result = classify_uniform(family, 1.0, 1e-6)
        assert len(ends) == full_passes
        rho_star, eps, bound, horizon, times, ess_norms = full_grid_uniform(family, 1.0)
        assert result.verdict == STABLE
        assert (result.rho_star, result.decay_eps, result.bound_M) == (rho_star, eps, bound)
        assert result.tolerances == {
            "t0": 1.0, "margin": 1e-6, "decay_threshold": stability.DECAY_CROSSCHECK,
            "crosscheck_horizon": horizon,
        }
        assert np.array_equal(result.times, times)
        assert np.array_equal(result.ess_norms, ess_norms)

    def test_zabczyk_40_runs_one_full_pass(self, monkeypatch):
        # the lead block (n = 40) has not decayed by the first horizon, 6400
        ends = count_full_passes(monkeypatch)
        assert classify_uniform(zabczyk_family(40), 1.0, 1e-6).verdict == STABLE
        assert ends == [pytest.approx(12800.0)]

    @pytest.mark.parametrize(
        "build, extensions, horizon, full_passes",
        [
            pytest.param(lambda: zabczyk_family(8), 0, 256.0, 1, id="no-extension"),
            # the lead (a non-normal slow cell) settles the first horizon
            pytest.param(
                lambda: family_from_matrices([[[-0.01, 1e10], [0.0, -0.01]]]), 1, 2763.1, 1,
                id="lead-settles-first",
            ),
            # the full grid fails on the first horizon and on the last
            pytest.param(lambda: two_cell_family(-0.01), 1, 2763.1, 2, id="full-grid-twice"),
        ],
    )
    def test_failed_crosscheck_reports_the_examined_horizon(
        self, monkeypatch, build, extensions, horizon, full_passes
    ):
        monkeypatch.setattr(stability, "MAX_EXTENSIONS", extensions)
        family = build()
        ends = count_full_passes(monkeypatch)
        result = classify_uniform(family, 1.0, 1e-6)
        assert len(ends) == full_passes
        _, _, _, examined, times, ess_norms = full_grid_uniform(family, 1.0)
        assert result.verdict == INCONCLUSIVE
        assert result.tolerances["crosscheck_horizon"] == examined == times[-1]
        assert examined == pytest.approx(horizon, rel=1e-4)
        (witness,) = result.witnesses
        assert witness.kind == "norm-decay-crosscheck-failed"
        assert witness.value == ess_norms[times > 0].min()


class TestCertifyBounded:
    def test_contraction_certificate(self):
        cert = certify_bounded(diagonal_family([-0.5, -1.0]), time_grid(20.0, 48))
        assert cert.certified

    def test_spectral_certificate_for_rotations(self):
        cert = certify_bounded(diagonal_family([1j, 2j]), time_grid(20.0, 48))
        assert cert.certified
        assert cert.bound == pytest.approx(1.0, abs=1e-12)

    def test_growing_cell_fails(self):
        cert = certify_bounded(diagonal_family([0.1]), time_grid(20.0, 48))
        assert not cert.certified
        assert any(w.kind == "positive-spectral-bound" for w in cert.witnesses)

    def test_defective_imaginary_eigenvalue_fails(self):
        shift = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        cert = certify_bounded(family_from_matrices(shift), time_grid(20.0, 48))
        assert not cert.certified
        assert any(w.kind == "defective-imaginary-eigenvalue" for w in cert.witnesses)

    def test_a_flagged_cell_the_floor_pass_skips_is_computed(self):
        # cell 1, a defective pair at -7e-5, is flagged with re_tol = 1e-4.
        # The floor pass keeps upper bounds of at least 1.189 there, below
        # the floor of cell 0's hump; its exact norms fall to 0.996, so the
        # follow-up pass shows the contraction that certifies it
        family = family_from_matrices([[[-1.0, 50.0], [0.0, -1.0]],
                                       [[-7e-5, 1e-4], [0.0, -7e-5]]])
        times = time_grid(200.0, 48)
        later = times > 0
        faults = semigroup.boundary_faults(family, [0, 1], np.real, 1e-4, 1e-6)
        assert [cell for cell, _, _ in faults] == [1]
        floor = np.zeros(1)
        bounds = semigroup.orbit_norms(family, times, floor=floor)[0][later, 1]
        exact = norm_curves(family, times)[later, 1]
        assert bounds.min() >= 1.189 and exact.min() < stability.CONTRACTION
        cert = certify_bounded(family, times, re_tol=1e-4)
        assert cert.certified and cert.witnesses == ()
        assert cert.bound == floor[0]

    def test_close_semisimple_pair_is_certified(self):
        # two distinct eigenvalues inside one match_tol ball are not a Jordan block
        pair = np.diag([1j, (1 + 5e-7) * 1j])[None]
        cert = certify_bounded(family_from_matrices(pair), time_grid(50.0, 48))
        assert cert.certified
        assert cert.witnesses == ()


class TestClassifyStrong:
    def test_slow_normal_family_is_stable(self):
        family = diagonal_family([-1.0 / k for k in range(1, 11)])
        result = run_strong(family, 200.0)
        assert result.verdict == STABLE
        assert result.certified
        assert result.bound_M == pytest.approx(1.0)

    def test_single_rotating_cell_flips_verdict(self):
        family = diagonal_family([-1.0, 1j, -2.0])
        result = run_strong(family, 50.0)
        assert result.verdict == NOT_STABLE
        witness = result.witnesses[0]
        assert witness.cell == 1
        assert witness.value == pytest.approx(1j)

    def test_counterexample_truncation_reports_huge_bound(self):
        family = zabczyk_family(10)
        result = run_strong(family, 800.0, grid_points=64)
        assert result.verdict == STABLE
        assert result.bound_M > 1e3

    def test_uncertified_gate_is_inconclusive(self):
        shift = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        family = family_from_matrices(shift)
        result = run_strong(family, 20.0)
        assert result.verdict == INCONCLUSIVE
        assert not result.certified

    @pytest.mark.parametrize("rates, verdict", [
        ([-1.0, 1j, -2.0], NOT_STABLE),
        ([-1.0, -1e-12], INCONCLUSIVE),
    ])
    def test_orbits_are_read_only_after_a_stable_spectral_verdict(self, rates, verdict):
        # the verdict of a certified gate is the spectral one
        family = diagonal_family(rates)
        result = run_strong(family, 10.0)
        assert result.verdict == verdict
        assert (verdict, list(result.witnesses)) == spectral_bound_verdict(family)

    def test_uncertified_gate_needs_no_orbits(self):
        shift = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        assert run_strong(family_from_matrices(shift), 20.0).verdict == INCONCLUSIVE


class TestImaginaryPointSpectrum:
    def test_hurwitz_family_has_none(self):
        assert imaginary_point_spectrum(diagonal_family([-1.0, -2.0])) == []

    def test_exact_match_merges_cells(self):
        clusters = imaginary_point_spectrum(diagonal_family([2j, 2j], [0.5, 0.25]))
        assert len(clusters) == 1
        assert clusters[0].cells == (0, 1)
        assert clusters[0].measure == pytest.approx(0.75)
        assert clusters[0].eigenvalue == pytest.approx(2j)

    def test_separate_cells_stay_separate(self):
        clusters = imaginary_point_spectrum(diagonal_family([1j, 3j]))
        assert len(clusters) == 2
        assert [c.measure for c in clusters] == [1.0, 1.0]

    def test_invariant_under_cell_permutation(self):
        a = diagonal_family([1j, 3j, 1j], [0.2, 0.3, 0.5])
        b = diagonal_family([3j, 1j, 1j], [0.3, 0.5, 0.2])
        ca = imaginary_point_spectrum(a)
        cb = imaginary_point_spectrum(b)
        assert [(c.eigenvalue, c.measure) for c in ca] == [
            (c.eigenvalue, c.measure) for c in cb
        ]

    def test_zero_weight_cells_are_invisible(self):
        with_null = diagonal_family([1j, 5j], [1.0, 0.0])
        without = diagonal_family([1j], [1.0])
        got = imaginary_point_spectrum(with_null)
        want = imaginary_point_spectrum(without)
        assert [(c.eigenvalue, c.measure) for c in got] == [
            (c.eigenvalue, c.measure) for c in want
        ]

    def test_bad_tolerances(self):
        with pytest.raises(DomainError):
            imaginary_point_spectrum(diagonal_family([1j]), re_tol=0.0)

    def test_re_tol_band_counts_as_axis(self):
        cell = np.diag([-1.0, 2j, 1e-12 + 3j])[None]
        clusters = imaginary_point_spectrum(family_from_matrices(cell), re_tol=1e-9)
        assert [c.eigenvalue for c in clusters] == [2j, 1e-12 + 3j]


class TestClassifyAlmostWeak:
    def test_shifted_spectrum_is_stable(self):
        result = run_almost_weak(diagonal_family([-1.0 + 5j, -1.0 + 5j]))
        assert result.verdict == STABLE
        assert result.mode == "Atomic"

    def test_unitary_atomic_family_fails_with_full_measure(self):
        result = run_almost_weak(diagonal_family([1j, 1j]))
        assert result.verdict == NOT_STABLE
        assert result.clusters[0].measure == pytest.approx(2.0)

    def test_rotation_interval_measure_scaling(self):
        from semistab.cases import rotation_family

        family = rotation_family(64)
        result = run_almost_weak(family)
        assert result.verdict == STABLE
        assert result.mode == "NonAtomicLimit"
        # measured support of each eigenvalue ball stays within 2*delta + width
        deltas = (0.1, 0.05, 0.025)
        widths = [1.0 / 64, 1.0 / 128, 1.0 / 256]
        refined = family
        for delta, width in zip(deltas, widths):
            measure = max(c.measure for c in imaginary_point_spectrum(refined, match_tol=delta))
            assert measure <= 2 * delta + width + 1e-12
            refined = semigroup.refine_family(refined)

    def test_fixed_atom_is_caught_in_limit_mode(self):
        # one persistent eigenvalue carried by the whole interval
        result = run_almost_weak(rule_family(16, [1j]), mode="NonAtomicLimit")
        assert result.verdict == NOT_STABLE
        assert [(c.eigenvalue, c.measure) for c in result.clusters] == [(1j, 1.0)]

    def test_limit_mode_needs_a_rule_and_cell_widths(self):
        with pytest.raises(DomainError, match="rule"):
            run_almost_weak(diagonal_family([-1.0]), mode="NonAtomicLimit")
        # one atomic cell with the rule i s has no interval to read it on
        space = DiscretizedMeasureSpace(weights=[1.0], labels=[0.5])
        rule = np.array([[[0.0]], [[1j]]])
        family = PointwiseFamily(space=space, dim=1, matrices=[[[0.5j]]], rule=rule)
        with pytest.raises(DomainError, match="widths"):
            run_almost_weak(family, mode="NonAtomicLimit")

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 2.0)])
    @pytest.mark.parametrize("name", sorted(LIMIT_RULES))
    def test_limit_verdict_does_not_depend_on_the_grid(self, name, lo, hi):
        # det(i eta - A(s)) is a polynomial in s: an imaginary eigenvalue has
        # positive measure only when it is present for every s
        coefficients, eigenvalues = LIMIT_RULES[name]
        want = [(lam, hi - lo) for lam in eigenvalues]
        base = rule_family(16, coefficients, lo, hi)
        for family in (base, rule_family(64, coefficients, lo, hi),
                       rule_family(256, coefficients, lo, hi), semigroup.refine_family(base)):
            result = run_almost_weak(family)
            assert result.mode == "NonAtomicLimit"
            assert result.verdict == (NOT_STABLE if want else STABLE)
            got = [(c.eigenvalue, pytest.approx(c.measure)) for c in result.clusters]
            assert got == want
            for c in result.clusters:
                assert c.cells == tuple(range(family.space.n_cells))

    def test_uncertified_gate_is_inconclusive(self):
        result = run_almost_weak(diagonal_family([0.1]))
        assert result.verdict == INCONCLUSIVE


class TestCesaroVerify:
    def test_planted_kernel_residual_bound(self):
        a = np.diag([0.0, -1.0])
        x = np.array([1.0, 1.0])
        for t, residual in cesaro_verify(a, x, [10.0, 100.0]):
            # exact residual is (1 - e^{-t})/t
            assert residual <= 1.0 / t + 1e-9
            assert residual == pytest.approx((1 - math.exp(-t)) / t, abs=1e-9)

    def test_pure_rotation_mean_shrinks(self):
        a = np.array([[1j]], dtype=complex)
        x = np.array([1.0])
        for t, residual in cesaro_verify(a, x, [5.0, 50.0]):
            assert residual <= 2.0 / t

    def test_fixed_vector_has_zero_residual(self):
        a = np.diag([0.0, -1.0])
        x = np.array([1.0, 0.0])  # in the kernel
        for _, residual in cesaro_verify(a, x, [3.0, 30.0]):
            assert residual <= 1e-12

    def test_defective_zero_raises(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(UnboundedSemigroupError):
            cesaro_verify(a, np.array([1.0, 0.0]), [1.0])

    def test_residuals_nonincreasing_up_to_factor_two(self):
        a = np.diag([0.0, 1j, -0.5])
        x = np.array([1.0, 1.0, 1.0])
        residuals = [r for _, r in cesaro_verify(a, x, [5.0, 10.0, 20.0, 40.0])]
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= 2.0 * earlier


class TestImplicationChain:
    def test_uniform_implies_strong_implies_almost_weak(self):
        for seed in range(5):
            family = random_hurwitz_family(seed=seed, dim=4, cells=5, margin=0.25)
            uniform = classify_uniform(family, 1.0, 1e-3)
            strong = run_strong(family, 150.0)
            weak = run_almost_weak(family, mode="Atomic")
            if uniform.verdict == STABLE:
                assert strong.verdict == STABLE
            if strong.verdict == STABLE:
                assert weak.verdict == STABLE

    def test_report_assembly(self):
        family = random_hurwitz_family(seed=3, dim=3, cells=4, margin=0.3)
        report = build_report(
            classify_uniform(family, 1.0, 1e-3),
            run_strong(family, 120.0),
            run_almost_weak(family, mode="Atomic"),
        )
        assert report.uniform.verdict == STABLE
        assert report.decay_eps == pytest.approx(0.3, abs=1e-8)
        assert report.bound_M >= 1.0
        payload = report.as_dict()
        assert payload["uniform"]["verdict"] == "Stable"
        assert payload["mode"] == "Atomic"

    def test_report_invariants_are_enforced(self):
        from semistab.report import AlmostWeakResult, StabilityReport, StrongResult, UniformResult

        ok_strong = StrongResult(STABLE)
        ok_weak = AlmostWeakResult(STABLE, "Atomic")
        with pytest.raises(ValueError):
            # a Stable uniform verdict must carry its decay rate
            StabilityReport(
                UniformResult(STABLE, 0.5), ok_strong, ok_weak, mode="Atomic"
            )
        with pytest.raises(ValueError):
            # NotStable needs at least one witness
            StabilityReport(
                UniformResult(NOT_STABLE, 1.0), ok_strong, ok_weak, mode="Atomic"
            )
