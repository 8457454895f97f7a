import math

import numpy as np
import pytest

from semistab.cases import (
    diagonal_family,
    random_hurwitz_family,
    rotation_family,
    zabczyk_family,
)
from semistab.errors import ShapeError
from semistab.linalg import eigenvalues, ergodic_projection, expm, norm2, spectral_bound
from semistab.report import NOT_STABLE, STABLE
from semistab.semigroup import time_grid
from semistab.stability import (
    certify_bounded,
    classify_almost_weak,
    classify_uniform,
    imaginary_point_spectrum,
)


class TestZabczykFamily:
    def test_single_cell_is_scalar_block(self):
        family = zabczyk_family(1)
        assert family.dim == 1
        assert family.matrices[0, 0, 0] == 1j - 1.0

    def test_spectral_bound_per_cell(self):
        family = zabczyk_family(12)
        for c in range(12):
            assert spectral_bound(family.block(c)) == pytest.approx(
                -1.0 / (c + 1), abs=1e-10
            )

    def test_embedding_pads_with_inert_zeros(self):
        family = zabczyk_family(3, embed_dim=5)
        assert family.matrices.shape == (3, 5, 5)
        assert family.block(1).shape == (2, 2)
        # padding rows and columns are exactly zero
        assert np.all(family.matrices[1, 2:, :] == 0)
        assert np.all(family.matrices[1, :, 2:] == 0)

    def test_embed_dim_too_small(self):
        with pytest.raises(ShapeError):
            zabczyk_family(5, embed_dim=4)

    def test_transient_norm_blows_up(self):
        family = zabczyk_family(10)
        t = 50.0  # 5 * N
        assert norm2(expm(family.block(9), t)) > 1e4

    def test_largest_entry_lower_bound(self):
        # ||e^{tA_n}|| >= e^{-t/n} t^(n-1) / (n-1)!
        family = zabczyk_family(8)
        for n, t in ((3, 2.0), (5, 10.0), (8, 40.0)):
            block = family.block(n - 1)
            lower = math.exp(-t / n) * t ** (n - 1) / math.factorial(n - 1)
            assert norm2(expm(block, t)) >= lower

    def test_decay_margin_is_inverse_truncation(self):
        for n_max in (5, 10, 20):
            family = zabczyk_family(n_max)
            result = classify_uniform(family, 1.0, 1e-6)
            assert result.verdict == STABLE
            assert result.decay_eps == pytest.approx(1.0 / n_max, abs=1e-6)

    def test_bound_certified_with_generous_horizon(self):
        family = zabczyk_family(10)
        est = certify_bounded(family, time_grid(600.0, 64))
        assert est.certified
        assert est.bound > 1e3
        # every cell contracts within the horizon: certified without the spectrum
        assert (est.norms[est.times > 0] < 1.0).any(axis=0).all()


class TestRotationFamily:
    def test_pointwise_spectrum(self):
        family = rotation_family(8)
        for c in range(8):
            label = family.space.labels[c]
            assert spectral_bound(family.block(c)) == pytest.approx(0.0, abs=1e-15)
            assert family.matrices[c, 0, 0] == 1j * label

    def test_not_uniformly_stable(self):
        result = classify_uniform(rotation_family(8), 1.0, 1e-6)
        assert result.verdict == NOT_STABLE

    def test_stable_in_the_nonatomic_limit(self):
        family = rotation_family(64)
        result = classify_almost_weak(family, certify_bounded(family, time_grid(50.0, 33)))
        assert result.mode == "NonAtomicLimit"
        assert result.verdict == STABLE

    def test_refinement_halves_small_cluster_support(self):
        # for a radius far below the cell width every cluster is one cell
        family = rotation_family(16)
        delta = 1e-4
        measures = [c.measure for c in imaginary_point_spectrum(family, match_tol=delta)]
        assert measures == [pytest.approx(1.0 / 16)] * 16
        from semistab.semigroup import refine_family

        refined = refine_family(family)
        refined_measures = [
            c.measure for c in imaginary_point_spectrum(refined, match_tol=delta)
        ]
        assert refined_measures == [pytest.approx(1.0 / 32)] * 32


class TestRandomHurwitzFamily:
    def test_exact_spectral_margin(self):
        family = random_hurwitz_family(seed=42, dim=5, cells=6, margin=0.3)
        for c in range(6):
            assert spectral_bound(family.block(c)) == pytest.approx(-0.3, abs=1e-8)

    def test_same_seed_reproduces_bitwise(self):
        a = random_hurwitz_family(seed=9, dim=4, cells=3, margin=0.2)
        b = random_hurwitz_family(seed=9, dim=4, cells=3, margin=0.2)
        np.testing.assert_array_equal(a.matrices, b.matrices)

    def test_different_seed_differs(self):
        a = random_hurwitz_family(seed=9, dim=4, cells=3, margin=0.2)
        b = random_hurwitz_family(seed=10, dim=4, cells=3, margin=0.2)
        assert not np.array_equal(a.matrices, b.matrices)

    @pytest.mark.parametrize("seed", [1, 12345, 2**31 - 5])
    @pytest.mark.parametrize("cells, dim", [(64, 6), (10, 3), (5, 1)])
    def test_draws_match_the_per_cell_loop(self, seed, cells, dim):
        # one draw of every cell's real and imaginary parts takes the
        # stream in the order of one draw per part and cell
        rng = np.random.default_rng(seed)
        draws = np.empty((cells, dim, dim), dtype=complex)
        for c in range(cells):
            draws[c] = (
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            ) / np.sqrt(2.0 * dim)
        shifts = eigenvalues(draws).real.max(axis=1) + 0.2
        want = draws - shifts[:, None, None] * np.eye(dim, dtype=complex)
        got = random_hurwitz_family(seed=seed, dim=dim, cells=cells, margin=0.2).matrices
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_classified_stable_at_half_margin(self):
        family = random_hurwitz_family(seed=1, dim=4, cells=5, margin=0.2)
        result = classify_uniform(family, 1.0, 0.1)
        assert result.verdict == STABLE


class TestDiagonalFamily:
    def test_uniform_stability_rate(self):
        family = diagonal_family([-1.0, -2.0])
        result = classify_uniform(family, 1.0, 1e-6)
        assert result.verdict == STABLE
        assert result.decay_eps == pytest.approx(1.0, abs=1e-9)

    def test_imaginary_rate_fails_almost_weak(self):
        family = diagonal_family([1j])
        result = classify_almost_weak(
            family, certify_bounded(family, time_grid(50.0, 33)), mode="Atomic"
        )
        assert result.verdict == NOT_STABLE

    def test_zero_rate_cell_has_identity_projection(self):
        family = diagonal_family([0.0])
        np.testing.assert_allclose(ergodic_projection(family.block(0)), np.eye(1))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            diagonal_family([1.0, 2.0], weights=[1.0])
