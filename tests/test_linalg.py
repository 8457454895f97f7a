import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from semistab import linalg
from semistab.cases import zabczyk_family
from semistab.errors import (
    DomainError,
    InvalidMatrixError,
    NumericalFailureError,
    UnboundedSemigroupError,
)
from semistab.linalg import (
    as_matrix,
    ball_clusters,
    cesaro_mean,
    eigenvalues,
    ergodic_projection,
    expm,
    expm_norms,
    expm_stack,
    norm2,
    semisimple_multiplicities,
    spectral_bound,
    spectral_radius,
)
from semistab.semigroup import time_grid
from semistab.stability import certify_bounded, classify_uniform

from oracles import real_factor


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def upper_block(n):
    """n x n block with (i*n - 1/n) on the diagonal and ones above it."""
    block = np.diag(np.full(n, 1j * n - 1.0 / n))
    block += np.diag(np.ones(n - 1), 1)
    return block


class TestExpm:
    def test_zero_matrix_any_time_is_identity(self):
        out = expm(np.zeros((4, 4)), 7.0)
        np.testing.assert_array_equal(out, np.eye(4))

    def test_diagonal_matches_scalar_exponentials(self):
        out = expm(np.diag([-1.0, 1j]), 1.0)
        expected = np.diag([np.exp(-1.0), np.exp(1j)])  # scalar oracle
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_nilpotent_shift_series_terminates(self):
        shift = np.array([[0, 1], [0, 0]], dtype=complex)
        out = expm(shift, 3.0)
        np.testing.assert_allclose(out, np.eye(2) + 3.0 * shift, atol=1e-14)

    def test_semigroup_law(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_complex(rng, 5)
            a *= 10.0 / (norm2(a) * 3.0)  # keep ||A||*(t+s) <= 20
            t, s = 1.2, 1.8
            whole = expm(a, t + s)
            split = expm(a, t) @ expm(a, s)
            assert norm2(whole - split) <= 1e-9 * (1.0 + norm2(whole))

    def test_against_independent_implementation(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 8):
            a = random_complex(rng, n)
            np.testing.assert_allclose(
                expm(a, 2.0), scipy.linalg.expm(2.0 * a), rtol=1e-10, atol=1e-12
            )

    def test_accuracy_at_norm_fifty(self):
        rng = np.random.default_rng(12)
        a = random_complex(rng, 6)
        a *= 10.0 / norm2(a)  # ||tA|| = 50 at t = 5
        got = expm(a, 5.0)
        want = scipy.linalg.expm(5.0 * a)
        assert norm2(got - want) <= 1e-12 * norm2(want)

    def test_large_norm_uses_squaring(self):
        a = np.diag([-50.0, -0.5])
        np.testing.assert_allclose(
            expm(a, 1.0), np.diag(np.exp([-50.0, -0.5])), rtol=1e-11
        )

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            expm(np.eye(2), -1.0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidMatrixError):
            expm(np.array([[np.nan, 0], [0, 1]]), 1.0)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidMatrixError):
            as_matrix(np.ones((2, 3)))


def mp_expm(a, t):
    """e^{tA} in 40-digit arithmetic, rounded to complex doubles."""
    with mpmath.workdps(40):
        exact = mpmath.expm(mpmath.matrix(a.tolist()) * t)
        return np.array(exact.tolist(), dtype=complex)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def reference_expm(a, t):
    """The one-matrix scaling-and-squaring loop, kept as the reference the
    stacked kernel must reproduce bit for bit: shift tA by i theta I,
    theta = Im tr(tA) / n, exponentiate, multiply by e^{i theta}. Returns
    (e^{tA}, Pade order, squaring count)."""
    n = a.shape[-1]
    m = t * a
    theta = np.trace(m).imag / n
    m[np.arange(n), np.arange(n)] -= 1j * theta
    norm1 = float(np.abs(m).sum(axis=0).max())
    phase = np.exp(1j * theta)
    for order, bound in linalg._PADE_THETA[:-1]:
        if norm1 <= bound:
            f = linalg._pade_solve(*linalg._pade_low(m, linalg._PADE_COEFFS[order]))
            return f * phase, order, 0
    squarings = max(0, int(np.ceil(np.log2(norm1 / linalg._PADE_THETA[-1][1]))))
    f = linalg._pade_solve(*linalg._pade13(m / (2.0**squarings)))
    for _ in range(squarings):
        f = f @ f
    return f * phase, 13, squarings


class TestExpmStack:
    def mixed_stack(self):
        # padded Zabczyk blocks (N=8 in 10x10: the padding breaks the constant
        # diagonal) and random 10x10 matrices scaled to unit 1-norm, so that
        # one grid from 0 up to norms that need several squarings reaches
        # every Pade order
        rng = np.random.default_rng(21)
        zab = zabczyk_family(8, embed_dim=10).matrices
        rand = [random_complex(rng, 10) for _ in range(6)]
        rand = [a / np.abs(a).sum(axis=0).max() for a in rand]
        times = np.concatenate([[0.0, 0.02, 0.5, 3.0, 40.0], np.geomspace(1e-3, 300.0, 9)])
        return np.concatenate([zab, np.stack(rand)]), times

    def test_each_matrix_bit_equal_alone_and_in_a_stack(self):
        stack, times = self.mixed_stack()
        assert len(list(linalg._runs(stack, times))) >= 3
        assert not linalg._closed_form_blocks(stack).any()
        out = expm_stack(stack, times)
        assert out.shape == (len(times), len(stack), 10, 10)
        orders, squarings = set(), set()
        for t, row in zip(times, out):
            for a, got in zip(stack, row):
                want, order, count = reference_expm(a, t)
                orders.add(order)
                squarings.add(count)
                np.testing.assert_array_equal(bits(got), bits(want))
                np.testing.assert_array_equal(bits(got), bits(expm(a, t)))
        assert orders == {3, 5, 7, 9, 13}
        assert len(squarings) >= 4

    def test_scalar_cells(self):
        # 1 x 1 cells take the closed form e^{t Re a} e^{i t Im a}; the
        # purely imaginary cells (the rotation family's) give the shifted
        # Pade result bit for bit
        rates = np.concatenate([
            1j * np.linspace(0.0, 1.0, 300) - np.linspace(0.0, 0.5, 300),
            1j * np.linspace(-3.0, 3.0, 50),
        ])
        stack = rates.reshape(-1, 1, 1)
        times = np.array([0.0, 0.01, 1.0, 50.0])
        out = expm_stack(stack, times)
        for t, row in zip(times, out):
            want = np.exp(t * rates.real) * np.exp(1j * (t * rates.imag))
            np.testing.assert_array_equal(bits(row[:, 0, 0]), bits(want))
            for a, got in zip(stack, row):
                np.testing.assert_array_equal(bits(got), bits(expm(a, t)))
                if a.real[0, 0] == 0.0:
                    np.testing.assert_array_equal(bits(got), bits(reference_expm(a, t)[0]))

    def test_mixed_closed_form_and_pade_blocks_bit_equal_alone(self):
        # closed-form blocks (Zabczyk, random nonnegative upper parts, a
        # scalar multiple of I, a nilpotent N) beside Pade blocks (dense,
        # a complex upper part, a negative upper entry, a varying diagonal)
        rng = np.random.default_rng(23)
        k = 6
        closed = [upper_block(k), np.triu(rng.random((k, k)), 1) * 50 + (-0.3 + 2j) * np.eye(k),
                  (0.5 - 1j) * np.eye(k), np.diag(np.ones(k - 1), 1) * 1e-3]
        upper = np.triu(rng.random((k, k)), 1)
        pade = [random_complex(rng, k), upper * 1j - np.eye(k), upper - 2 * np.eye(k),
                upper + np.diag(np.arange(k) * 0.1)]
        pade[2][0, 3] = -0.5
        stack = np.stack(closed + pade)
        np.testing.assert_array_equal(
            linalg._closed_form_blocks(stack), [True] * len(closed) + [False] * len(pade)
        )
        times = np.array([0.0, 1e-3, 0.7, 5.0, 30.0, 31.0])
        out = expm_stack(stack, times)
        for t, row in zip(times, out):
            for i, (a, got) in enumerate(zip(stack, row)):
                alone = expm_stack(a[None], [t])[0, 0]
                np.testing.assert_array_equal(bits(got), bits(alone))
                if i >= len(closed):
                    np.testing.assert_array_equal(bits(got), bits(reference_expm(a, t)[0]))
                else:
                    want = mp_expm(a, t)
                    nonzero = want != 0
                    assert (got[~nonzero] == 0).all()
                    rel = np.abs(got - want)[nonzero] / np.abs(want)[nonzero]
                    assert rel.max() <= 1e-12
        for steps in (slice(0, 1), slice(2, 5), slice(5, 6)):
            np.testing.assert_array_equal(bits(expm_stack(stack[::-1], times[steps])),
                                          bits(out[steps, ::-1]))

    def test_chunks_cover_the_stack_within_the_byte_budget(self):
        # Pade blocks: 100 (time, block) pairs of 10 x 10 run in chunks of at
        # most STACK_BYTES, time-major; a 200 x 200 pair alone exceeds the
        # budget and runs on its own
        rng = np.random.default_rng(25)
        stack = np.stack([random_complex(rng, 10, 0.1) for _ in range(20)])
        runs = list(linalg._runs(stack, np.linspace(0.0, 1.0, 5)))
        pairs = [(int(i), int(b)) for steps, cols, _, _ in runs for i, b in zip(steps, cols)]
        assert pairs == [(i, b) for i in range(5) for b in range(20)]
        assert all(f.nbytes <= linalg.STACK_BYTES for _, _, f, _ in runs)
        big = np.stack([random_complex(rng, 200, 1e-3) for _ in range(3)])
        runs = list(linalg._runs(big, np.ones(1)))
        assert [(list(steps), list(cols)) for steps, cols, _, _ in runs] == [
            ([0], [0]), ([0], [1]), ([0], [2])
        ]

    @pytest.mark.parametrize("k", [2, 6, 24])
    def test_runs_cover_every_pair_once_within_the_budget(self, k):
        # closed-form and Pade blocks shuffled together: every (time, block)
        # pair in exactly one run of its own path; a Pade run fits
        # STACK_BYTES (at least one pair); a closed-form chunk's complex power
        # basis fits it (at least one block) and its passes fit
        # max(STACK_BYTES, q k^3 doubles)
        rng = np.random.default_rng(26 + k)
        closed = [upper_block(k) + 0.1 * c * np.eye(k) for c in range(40)]
        pade = [random_complex(rng, k, 0.3) - np.eye(k) for _ in range(30)]
        stack = np.stack(closed + pade)[rng.permutation(70)]
        is_closed = linalg._closed_form_blocks(stack)
        assert is_closed.sum() == 40
        times = time_grid(50.0, 48)
        seen = np.zeros((len(times), len(stack)), dtype=int)
        for steps, cols, f, angle in linalg._runs(stack, times):
            if angle is None:
                assert not is_closed[cols].any()
                assert len(cols) >= 1 and f.nbytes <= max(linalg.STACK_BYTES, 16 * k * k)
                np.add.at(seen, (steps, cols), 1)
            else:
                q = len(cols)
                assert is_closed[cols].all() and angle.shape == f.shape[:2]
                assert q == 1 or 16 * q * k**3 <= linalg.STACK_BYTES
                assert f.nbytes <= max(linalg.STACK_BYTES, 8 * q * k**3)
                seen[steps, cols] += 1
        assert (seen == 1).all()

    def test_stacked_eigenvalues_bit_equal_one_matrix_call(self):
        rng = np.random.default_rng(22)
        stack = np.stack([random_complex(rng, 5) for _ in range(20)])
        got = eigenvalues(stack)
        assert got.shape == (20, 5)
        for a, row in zip(stack, got):
            np.testing.assert_array_equal(bits(row), bits(eigenvalues(a)))


class TestImaginaryShift:
    @pytest.mark.parametrize("horizon", [4000.0, 12800.0])
    def test_zabczyk_blocks_match_the_closed_form(self, horizon):
        # |e^{tA}|_{i,i+j} = e^{-t/n} t^j / j! for the block with diagonal
        # i n - 1/n and ones above it; every entry within 2e-12 of the
        # largest entry (blocks whose largest entry is subnormal skipped)
        worst = 0.0
        for n in range(1, 41):
            offset = np.subtract.outer(np.arange(n), np.arange(n)).T
            upper = offset >= 0
            for t in time_grid(horizon, 16):
                want = np.zeros((n, n))
                if t == 0.0:
                    want[offset == 0] = 1.0
                else:
                    j = offset[upper]
                    want[upper] = np.exp(
                        -t / n + j * math.log(t) - np.array([math.lgamma(k + 1) for k in j])
                    )
                if want.max() < np.finfo(float).tiny:
                    continue
                got = np.abs(expm(upper_block(n), t))
                worst = max(worst, float(np.abs(got - want).max() / want.max()))
        assert worst <= 2e-12

    def test_pure_rotation_stays_unimodular(self):
        assert abs(abs(expm(np.array([[37j]]), 50.0)[0, 0]) - 1.0) <= 1e-15

    def test_shift_leaves_the_real_part_alone(self):
        # a real shift by the mean -1000 would form e^{1000} * e^{-1000},
        # inf * 0; the imaginary shift keeps the result finite
        out = expm(np.diag([0.0, -2000.0 + 5000.0j]), 1.0)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), rtol=0, atol=1e-13)

    def test_overflowed_product_is_a_numerical_failure(self):
        for a in ([[1e300]], [[1e300j, 1e300], [0.0, -1e300j]]):
            with pytest.raises(NumericalFailureError):
                expm_stack(np.array([a], dtype=complex), 1e10)


def zabczyk_closed_form(n, t):
    """|e^{tA}| of the block with diagonal i n - 1/n and ones above it:
    e^{-t/n} t^j / j! on the j-th superdiagonal."""
    offset = np.subtract.outer(np.arange(n), np.arange(n)).T
    upper = offset >= 0
    want = np.zeros((n, n))
    if t == 0.0:
        want[offset == 0] = 1.0
    else:
        j = offset[upper]
        want[upper] = np.exp(-t / n + j * math.log(t) - np.array([math.lgamma(k + 1) for k in j]))
    return want


class TestClosedForm:
    """lambda I + N with N strictly upper triangular and nonnegative takes
    the finite sum e^{t lambda} sum_j t^j/j! N^j, entrywise accurate."""

    def test_huge_superdiagonal_is_not_lost(self):
        got = expm(np.array([[-0.02, 1e20], [0.0, -0.02]]), 1.0)
        assert got[0, 1].real == pytest.approx(math.exp(-0.02) * 1e20, rel=1e-12, abs=0)
        assert got[0, 0].real == pytest.approx(math.exp(-0.02), rel=1e-15, abs=0)

    def test_far_corner_of_the_largest_zabczyk_block(self):
        with mpmath.workdps(30):
            exact = float(mpmath.exp(-0.1) * mpmath.mpf(4) ** 39 / mpmath.factorial(39))
        assert f"{exact:.10e}" == "1.3406800187e-23"
        block = zabczyk_family(40).block(39)
        got = abs(expm(block, 4.0)[0, 39])
        assert got == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("horizon", [4000.0, 12800.0])
    def test_every_zabczyk_entry_accurate_relative_to_itself(self, horizon):
        # entries in the normal range only: a subnormal has no relative
        # accuracy to keep
        worst = 0.0
        for n in range(1, 41):
            for t in time_grid(horizon, 16):
                want = zabczyk_closed_form(n, t)
                got = np.abs(expm(upper_block(n), t))
                normal = want >= np.finfo(float).tiny
                assert (got[want == 0.0] == 0.0).all()
                if normal.any():
                    worst = max(worst, float((np.abs(got - want)[normal] / want[normal]).max()))
        assert worst <= 1e-12

    def test_nilpotent_part_stops_the_sum_before_an_overflowed_weight(self):
        # N^2 = 0, and t^2/2 alone overflows at t = 1e160: the sum stops at
        # j = 1 instead of forming inf * 0
        block = np.zeros((3, 3), dtype=complex)
        block[0, 2] = 1.0
        got = expm(block, 1e160)
        assert np.isfinite(got).all()
        want = np.eye(3)
        want[0, 2] = 1e160
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_overflowed_closed_form_names_the_earliest_bad_time(self):
        stack = np.array([[[1e300]], [[-1.0]]], dtype=complex)
        times = np.array([0.0, 1e-298, 1e-297, 1.0, 1e10])
        assert linalg._closed_form_blocks(stack).all()
        with pytest.raises(NumericalFailureError) as info:
            expm_stack(stack, times)
        assert info.value.time == 1e-297
        with pytest.raises(NumericalFailureError) as info:
            expm_stack(stack[:1], [1e10])
        assert info.value.time == 1e10

    def test_zabczyk_family_never_runs_pade(self, monkeypatch):
        def no_pade(*args):
            raise AssertionError("a Zabczyk block reached the Pade path")

        monkeypatch.setattr(linalg, "_pade13", no_pade)
        monkeypatch.setattr(linalg, "_pade_solve", no_pade)
        family = zabczyk_family(40)
        classify_uniform(family, 1.0, 1e-6, grid_points=16)
        certify_bounded(family, time_grid(4000.0, 16))


def norm_stack(rng, k):
    """Closed-form blocks (a Zabczyk block, a random nonnegative upper part
    with a complex diagonal, a multiple of I, a nilpotent N) and Pade blocks
    (dense, a varying diagonal), with a time grid from 0 past the peaks."""
    closed = [upper_block(k), np.triu(rng.random((k, k)), 1) * 5 + (-0.3 + 2j) * np.eye(k),
              (0.5 - 1j) * np.eye(k), np.diag(np.ones(k - 1), 1)]
    pade = [random_complex(rng, k, 0.3) - np.eye(k),
            np.triu(rng.random((k, k)), 1) + np.diag(-np.arange(1, k + 1) * 0.1)]
    return np.stack(closed + pade), len(closed), time_grid(300.0, 24)


def ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


class TestExpmNorms:
    """||e^{tA}|| and ||e^{tA} v|| for a stack over a grid: from the real
    factor on the closed-form path, from e^{tA} on the Pade path."""

    def test_norms_bit_equal_one_block_alone_in_any_stack_or_chunk(self, monkeypatch):
        rng = np.random.default_rng(60)
        stack, n_closed, times = norm_stack(rng, 6)
        v = rng.standard_normal((3, len(stack), 6)) + 1j * rng.standard_normal((3, len(stack), 6))
        norms, vnorms = expm_norms(stack, times, v)
        assert norms.shape == (len(times), len(stack))
        assert vnorms.shape == (len(times), 3, len(stack))
        for i, t in enumerate(times):
            for b, a in enumerate(stack):
                if b < n_closed:
                    r = real_factor(a, t)
                    want = norm2(r)
                    want_v = np.sqrt((np.abs(r @ v[:, b].T) ** 2).sum(axis=0))
                    np.testing.assert_allclose(vnorms[i, :, b], want_v, rtol=1e-15, atol=0)
                else:
                    want = norm2(expm_stack(a[None], [t])[0, 0])
                assert bits(norms[i, b]) == bits(want)
                alone = expm_norms(a[None], [t], v[:, b : b + 1])
                assert bits(alone[0][0, 0]) == bits(norms[i, b])
                np.testing.assert_array_equal(bits(alone[1][0, :, 0]), bits(vnorms[i, :, b]))
        # a reversed stack on a sub-grid, and every block and time in a
        # chunk of its own
        got = expm_norms(stack[::-1], times[3:9], v[:, ::-1])
        np.testing.assert_array_equal(bits(got[0]), bits(norms[3:9, ::-1]))
        np.testing.assert_array_equal(bits(got[1]), bits(vnorms[3:9, :, ::-1]))
        monkeypatch.setattr(linalg, "STACK_BYTES", 1)
        got = expm_norms(stack, times, v)
        np.testing.assert_array_equal(bits(got[0]), bits(norms))
        np.testing.assert_array_equal(bits(got[1]), bits(vnorms))

    @pytest.mark.parametrize("k", [1, 2, 6, 12])
    def test_within_4_ulps_of_the_complex_exponential(self, k):
        rng = np.random.default_rng(61 + k)
        stack = np.stack([upper_block(k), (0.2 - 3j) * np.eye(k) + np.triu(rng.random((k, k)), 1),
                          -np.eye(k) * 0.05 + np.diag(np.full(k - 1, 7.0), 1)])
        assert linalg._closed_form_blocks(stack).all()
        v = rng.standard_normal((2, 3, k)) + 1j * rng.standard_normal((2, 3, k))
        times = time_grid(300.0, 48)
        norms, vnorms = expm_norms(stack, times, v)
        e = expm_stack(stack, times)
        orbits = np.linalg.norm((e[:, None] @ v[None, ..., None])[..., 0], axis=-1)
        assert ulps(norms, norm2(e)).max() <= 4
        assert ulps(vnorms, orbits).max() <= 4

    def test_zabczyk_block_matches_mpmath(self):
        # the N=10 block on the bundled config's grid; the exact real factor
        # has entries e^{-t/10} t^j / j!
        n = 10
        times = time_grid(800.0, 64)
        rng = np.random.default_rng(62)
        v = rng.standard_normal((1, 1, n)) + 1j * rng.standard_normal((1, 1, n))
        norms, vnorms = expm_norms(upper_block(n)[None], times, v)
        with mpmath.workdps(40):
            vec = mpmath.matrix([mpmath.mpc(complex(x)) for x in v[0, 0]])
            for i, t in enumerate(times):
                t = mpmath.mpf(float(t))
                r = mpmath.matrix(n, n)
                for row in range(n):
                    for j in range(n - row):
                        r[row, row + j] = mpmath.exp(-t / n) * t**j / mpmath.factorial(j)
                exact = max(mpmath.svd_r(r, compute_uv=False))
                assert norms[i, 0] == pytest.approx(float(exact), rel=1e-13, abs=0)
                exact_v = mpmath.norm(r * vec)
                assert vnorms[i, 0, 0] == pytest.approx(float(exact_v), rel=1e-13, abs=0)

    @pytest.mark.parametrize("transpose, closed", [(False, True), (True, False)])
    def test_probe_norms_of_a_finite_orbit_do_not_overflow(self, transpose, closed):
        # e^{tA} v = e^{10 t} (1 + t, 1) for A = [[10, 1], [0, 10]] and v =
        # (1, 1), and the same norm for A^T: at t = 40 about 2.1e175, whose
        # unscaled squares overflow
        a = np.array([[10.0, 1.0], [0.0, 10.0]], dtype=complex)
        a = (a.T if transpose else a)[None]
        assert linalg._closed_form_blocks(a)[0] == closed
        times = np.array([0.0, 1.0, 20.0, 40.0])
        exact = np.exp(10 * times) * np.sqrt((1 + times) ** 2 + 1)
        _, vnorms = expm_norms(a, times, np.ones((1, 1, 2)))
        np.testing.assert_allclose(vnorms[:, 0, 0], exact, rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "closed_rate, pade_rate, first", [(10.0, 5.0, 80.0), (5.0, 20.0, 40.0)]
    )
    def test_failure_names_the_earliest_time_of_either_path(self, closed_rate, pade_rate, first):
        # e^{10 t} overflows past t = 71, e^{20 t} past t = 36, e^{5 t} past 142
        closed = np.array([[closed_rate, 1.0], [0.0, closed_rate]])
        pade = np.array([[pade_rate, 0.0], [1.0, pade_rate]])
        stack = np.stack([closed, pade]).astype(complex)
        np.testing.assert_array_equal(linalg._closed_form_blocks(stack), [True, False])
        times = np.array([0.0, 1.0, 40.0, 80.0, 150.0, 200.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError) as info:
                expm_norms(stack, times, np.ones((1, 2, 2)))
            assert info.value.time == first
            with pytest.raises(NumericalFailureError) as info:
                expm_stack(stack, times)
            assert info.value.time == first

    def test_a_zabczyk_group_runs_in_one_pass(self, monkeypatch):
        # one power basis and one real factor per group of zab40's grid, and
        # the 48 x 64 (time, block) pairs of a dense 6 x 6 group in Pade
        # chunks of at most 113 pairs (STACK_BYTES of 6 x 6 complex matrices)
        calls = []
        for name in ("_power_basis", "_real_factor", "_pade_chunk", "expm_stack"):
            real = getattr(linalg, name)
            monkeypatch.setattr(
                linalg, name,
                lambda *args, real=real, name=name: calls.append((name, len(args[0])))
                or real(*args),
            )
        times = time_grid(4000.0, 16)
        for _, blocks in zabczyk_family(40).block_stacks():
            expm_norms(blocks, times, np.ones((3, 1, blocks.shape[-1])))
        assert [name for name, _ in calls] == ["_power_basis", "_real_factor"] * 40
        calls.clear()
        dense = np.stack([random_complex(np.random.default_rng(c), 6, 0.3) - 2 * np.eye(6)
                          for c in range(64)])
        expm_norms(dense, time_grid(200.0, 48), np.ones((3, 64, 6)))
        assert calls == [("_pade_chunk", 113)] * 27 + [("_pade_chunk", 48 * 64 - 27 * 113)]


class TestNorm2:
    @pytest.mark.parametrize("n", [1, 2, 6, 40])
    def test_stack_matches_the_svd_norm(self, n):
        rng = np.random.default_rng(40 + n)
        mats = [random_complex(rng, n, scale) for scale in np.geomspace(1e-3, 1e3, 9)]
        mats.append(np.outer(mats[0][0], mats[1][:, 0]))  # rank one
        mats.append(expm(upper_block(n), 3.0))  # non-normal
        stack = np.stack(mats)
        got = norm2(stack)
        assert got.shape == (len(mats),)
        want = np.array([np.linalg.norm(a, 2) for a in mats])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_each_matrix_bit_equal_alone_and_in_a_stack(self):
        rng = np.random.default_rng(47)
        stack = np.stack([random_complex(rng, 6) for _ in range(20)])
        got = norm2(stack)
        for a, value in zip(stack, got):
            assert value == norm2(a)
        np.testing.assert_array_equal(norm2(stack.reshape(4, 5, 6, 6)), got.reshape(4, 5))

    def test_matrix_gives_a_float_and_zero_gives_zero(self):
        value = norm2(np.diag([3.0, -4.0j]))
        assert type(value) is float
        assert value == pytest.approx(4.0, rel=1e-15)
        assert norm2(np.zeros((3, 3))) == 0.0
        np.testing.assert_array_equal(norm2(np.zeros((2, 4, 4))), [0.0, 0.0])

    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_real_stack_stays_real_and_matches_the_svd_norm(self, n, monkeypatch):
        rng = np.random.default_rng(50 + n)
        stack = np.stack([scale * rng.standard_normal((n, n)) for scale in (1e-300, 1.0, 1e300)])
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: calls.append(g.dtype) or real(g))
        got = norm2(stack)
        assert calls == [np.dtype(float)]
        want = np.array([np.linalg.norm(a, 2) for a in stack])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        for a, value in zip(stack, got):
            assert value == norm2(a)

    @pytest.mark.parametrize("scale", [3e-321, 3e-321j, 1e300 + 1e300j])
    def test_extreme_entries_keep_a_finite_accurate_norm(self, scale):
        # |z| and a division by the largest entry would overflow here
        rng = np.random.default_rng(48)
        stack = scale * rng.integers(-3, 4, (6, 5, 5)) * (1 + (rng.random((6, 5, 5)) < 0.5) * 1j)
        stack[0] = np.eye(5)  # a normal matrix in the same stack
        got = norm2(stack)
        assert np.isfinite(got).all()
        want = np.array([np.linalg.norm(a, 2) for a in stack])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestEigenvalues:
    def test_diagonal(self):
        eigs = sorted(eigenvalues(np.diag([1.0, 2.0, 3.0])).real)
        assert eigs == [1.0, 2.0, 3.0]

    def test_block_with_repeated_eigenvalue(self):
        eigs = eigenvalues(upper_block(5))
        np.testing.assert_allclose(eigs, np.full(5, 5j - 0.2), atol=1e-12)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 6)
        s = random_complex(rng, 6) + 3 * np.eye(6)
        conj = s @ a @ np.linalg.inv(s)
        got = np.sort_complex(eigenvalues(conj))
        want = np.sort_complex(eigenvalues(a))
        np.testing.assert_allclose(got, want, atol=1e-8)


class TestSpectralFunctionals:
    def test_spectral_bound_of_counterexample_block(self):
        for n in (1, 5, 12):
            assert spectral_bound(upper_block(n)) == pytest.approx(-1.0 / n, abs=1e-12)

    def test_spectral_bound_diagonal(self):
        assert spectral_bound(np.diag([-3.0, -1.0 + 2.0j])) == pytest.approx(-1.0)

    def test_spectral_bound_shift_identity(self):
        rng = np.random.default_rng(5)
        b = random_complex(rng, 7)
        shifted = b - (spectral_bound(b) + 1.0) * np.eye(7)
        assert spectral_bound(shifted) == pytest.approx(-1.0, abs=1e-8)

    def test_spectral_radius_identity(self):
        assert spectral_radius(np.eye(3)) == 1.0

    def test_spectral_radius_of_exponential(self):
        assert spectral_radius(expm(np.diag([-1.0, 1j]), 2.0)) == pytest.approx(1.0)

    def test_spectral_radius_nilpotent(self):
        assert spectral_radius(np.array([[0, 1], [0, 0]])) == 0.0

    def test_finite_dimensional_spectral_mapping(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 13))
            a = random_complex(rng, n) / np.sqrt(n)
            for t in (0.5, 1.0, 5.0):
                reference = np.exp(t * spectral_bound(a))
                got = spectral_radius(expm(a, t))
                assert abs(got - reference) <= 1e-8 * reference


def closed_form_cesaro_mean(a, t):
    """(1/t) A^{-1} (e^{tA} - I), the Cesaro mean of a nonsingular generator."""
    return np.linalg.solve(a, expm(a, t) - np.eye(a.shape[0])) / t


class TestCesaroMean:
    def test_full_rotation_averages_to_zero(self):
        out = cesaro_mean(np.array([[1j]]), 2 * np.pi)
        assert abs(out[0, 0]) <= 1e-12

    def test_zero_generator_quadrature_is_identity(self):
        out = cesaro_mean(np.zeros((3, 3)), 4.0)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-12)

    def test_scalar_decay(self):
        out = cesaro_mean(np.array([[-1.0]]), 1.0)
        assert out[0, 0] == pytest.approx(1.0 - np.exp(-1.0))  # scalar integral

    def test_methods_agree_on_nonsingular_input(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = random_complex(rng, 4)
            a -= (spectral_bound(a) + 0.3) * np.eye(4)
            closed = closed_form_cesaro_mean(a, 2.0)
            quad = cesaro_mean(a, 2.0)
            assert norm2(closed - quad) <= 1e-8

    def test_quadrature_matches_closed_form_on_hurwitz_generators(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            a = random_complex(rng, n)
            a -= (spectral_bound(a) + rng.uniform(0.05, 1.0)) * np.eye(n)
            for t in (0.5, 5.0, 50.0, 500.0):
                closed = closed_form_cesaro_mean(a, t)
                quad = cesaro_mean(a, t)
                assert norm2(quad - closed) <= 1e-12 * norm2(closed)

    def test_quadrature_on_defective_singular_generator(self):
        # e^{sA} = [[1, s], [0, 1]] averages to [[1, t/2], [0, 1]]
        shift = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.5, 3.0, 40.0, 1000.0):
            want = np.array([[1.0, t / 2.0], [0.0, 1.0]])
            got = cesaro_mean(shift, t)
            assert norm2(got - want) <= 1e-13 * norm2(want)

    def test_bad_method_and_time(self):
        with pytest.raises(DomainError):
            cesaro_mean(np.eye(2), 0.0)


class TestErgodicProjection:
    def test_diagonal_with_kernel(self):
        p = ergodic_projection(np.diag([0.0, -1.0]))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_nonsingular_gives_zero(self):
        p = ergodic_projection(np.diag([-1.0, 2j]))
        np.testing.assert_array_equal(p, np.zeros((2, 2)))

    def test_zero_matrix_gives_identity(self):
        np.testing.assert_allclose(ergodic_projection(np.zeros((3, 3))), np.eye(3))

    def test_defective_zero_raises(self):
        with pytest.raises(UnboundedSemigroupError):
            ergodic_projection(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_planted_semisimple_kernel(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n, k = 6, 2
            basis = random_complex(rng, n) + 2 * np.eye(n)
            core = np.diag(np.concatenate([np.zeros(k), -1 - rng.uniform(0, 1, n - k)]))
            a = basis @ core @ np.linalg.inv(basis)
            p = ergodic_projection(a)
            assert norm2(p @ p - p) <= 1e-10
            assert norm2(a @ p) <= 1e-10 * (1 + norm2(a))
            assert norm2(expm(a, 1.5) @ p - p) <= 1e-9

    def test_mean_ergodic_convergence_rate(self):
        # semisimple spectrum on the imaginary axis plus decay: residual O(1/t)
        a = np.diag([0.0, 1j, -1.0])
        p = ergodic_projection(a)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
        r10 = norm2(cesaro_mean(a, 10.0) - p)
        c = r10 * 10.0
        for t in (20.0, 40.0):
            r = norm2(cesaro_mean(a, t) - p)
            assert r <= 1.5 * c / t


class TestHelpers:
    def test_cluster_representatives(self):
        vals = np.array([1j, 1j + 1e-9, 2j, -1.0])
        reps = [mean for mean, _ in ball_clusters(vals, 1e-6)]
        assert len(reps) == 3

    def test_semisimple_multiplicities_on_jordan_block(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        alg, geo = semisimple_multiplicities(jordan, 1.0)
        assert (alg, geo) == (2, 1)
        alg, geo = semisimple_multiplicities(np.eye(2, dtype=complex), 1.0)
        assert (alg, geo) == (2, 2)

    def test_simple_eigenvalue_takes_no_rank_test(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a simple eigenvalue is semisimple without an SVD")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        cell = np.array([[1j, 1.0], [0.0, 2.0]])
        assert semisimple_multiplicities(cell, 1j) == (1, 1)
        assert semisimple_multiplicities(cell, 5.0) == (0, 0)

    def test_semisimple_multiplicities_on_close_pair(self):
        # the cluster mean sits 2.5e-7 from both eigenvalues, far above the
        # RANK_RTOL cut, yet the pair is semisimple
        pair = np.diag([1j, (1 + 5e-7) * 1j])
        alg, geo = semisimple_multiplicities(pair, (1 + 2.5e-7) * 1j)
        assert (alg, geo) == (2, 2)
        # a Jordan block whose computed eigenvalues split stays defective
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(random_complex(rng, 2))
        jordan = q @ np.array([[1j, 1.0], [0.0, 1j]]) @ q.conj().T
        alg, geo = semisimple_multiplicities(jordan, complex(eigenvalues(jordan).mean()))
        assert (alg, geo) == (2, 1)
