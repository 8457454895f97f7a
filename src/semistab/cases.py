"""Builtin operator families: counterexample blocks, rotations, and
reproducible random test families."""

import numpy as np

from . import linalg
from .errors import DomainError, ShapeError
from .measure import ATOMIC, DiscretizedMeasureSpace
from .semigroup import PointwiseFamily, rule_matrices


def zabczyk_family(n_max, embed_dim=None):
    """Jordan-type blocks with spectral bound -1/n: cell n carries the
    n x n block with in - 1/n on the diagonal and ones on the superdiagonal.

    Each block sits in the leading corner of a fixed embed_dim x embed_dim
    matrix, padded with zero rows and columns; the padding is an embedding
    artifact, so the cell's active dimension is n and norm/spectral queries
    restrict to the block. Every finite truncation is uniformly stable, but
    the decay margin 1/n vanishes and the transient norm peak explodes as n
    grows, so no bound survives the limit.
    """
    if n_max < 1:
        raise DomainError("need at least one cell")
    embed = n_max if embed_dim is None else int(embed_dim)
    if embed < n_max:
        raise ShapeError(f"embed_dim {embed} cannot hold a block of size {n_max}")
    space = DiscretizedMeasureSpace(
        weights=np.ones(n_max),
        labels=np.arange(1, n_max + 1, dtype=float),
        mode=ATOMIC,
    )
    generators = np.zeros((n_max, embed, embed), dtype=complex)
    for idx in range(n_max):
        n = idx + 1
        diag = 1j * n - 1.0 / n
        for k in range(n):
            generators[idx, k, k] = diag
        for k in range(n - 1):
            generators[idx, k, k + 1] = 1.0
    return PointwiseFamily(
        space=space,
        dim=embed,
        matrices=generators,
        active_dims=np.arange(1, n_max + 1),
    )


def rotation_family(cells):
    """Scalar rotations A(s) = i s on a uniform grid over [0, 1], with the
    rule [0, i] kept for refinement and the non-atomic limit.

    Every cell has an eigenvalue on the imaginary axis (so no pointwise
    semigroup is almost weakly stable), yet each level set of s -> i s is a
    single point, so no imaginary eigenvalue has positive measure.
    """
    if cells < 1:
        raise DomainError("need at least one cell")
    space = DiscretizedMeasureSpace.uniform_grid(cells, 0.0, 1.0)
    rule = np.array([[[0.0]], [[1j]]], dtype=complex)
    return PointwiseFamily(
        space=space, dim=1, matrices=rule_matrices(rule, space.labels), rule=rule
    )


def random_hurwitz_family(seed, dim, cells, margin):
    """Reproducible random generators shifted so the spectral bound equals
    -margin on every cell."""
    if margin <= 0:
        raise DomainError("margin must be positive")
    if dim < 1 or cells < 1:
        raise DomainError("dim and cells must be positive")
    # per cell the real parts, then the imaginary parts, from one stream
    z = np.random.default_rng(seed).standard_normal((cells, 2, dim, dim))
    draws = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0 * dim)
    shifts = linalg.eigenvalues(draws).real.max(axis=1) + margin
    generators = draws - shifts[:, None, None] * np.eye(dim, dtype=complex)
    space = DiscretizedMeasureSpace(
        weights=np.ones(cells), labels=np.arange(cells, dtype=float), mode=ATOMIC
    )
    return PointwiseFamily(space=space, dim=dim, matrices=generators)


def diagonal_family(rates, weights=None):
    """One 1x1 cell per complex rate."""
    rates = np.asarray(rates, dtype=complex).ravel()
    if rates.size == 0:
        raise ShapeError("need at least one rate")
    if weights is None:
        weights = np.ones(rates.size)
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape != rates.shape:
        raise ShapeError("rates and weights must have equal length")
    space = DiscretizedMeasureSpace(
        weights=weights, labels=np.arange(rates.size, dtype=float), mode=ATOMIC
    )
    generators = rates.reshape(-1, 1, 1)
    return PointwiseFamily(space=space, dim=1, matrices=generators)
