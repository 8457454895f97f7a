"""Reference computations the tests check the program against. The program
never calls them: each takes the plain route (complex matrices, one
stacked linalg.norm2 per active dimension) that the stacked kernels must
agree with."""

import math

import numpy as np

from semistab import linalg
from semistab.errors import DomainError
from semistab.measure import ess_sup


def sample_norms(sample):
    """Per-cell operator 2-norms (active block) of the complex matrices of a
    sample, one stacked linalg.norm2 per active dimension."""
    norms = np.zeros(sample.space.n_cells)
    for cells, blocks in sample.block_stacks():
        norms[cells] = linalg.norm2(blocks)
    return norms


def sample_radii(sample):
    """Per-cell spectral radii (active block) of a sample, from
    linalg.eigenvalues of its matrices, one stacked call per active
    dimension, whatever eigenvalue table the sample carries."""
    radii = np.zeros(sample.space.n_cells)
    for cells, blocks in sample.block_stacks():
        radii[cells] = np.abs(linalg.eigenvalues(blocks)).max(axis=-1)
    return radii


def operator_norm(sample, p=2.0):
    """Norm of the multiplication operator: ess-sup over cells of ||M(s)||.

    Independent of p (the same essential supremum for every 1 <= p <= inf);
    p is accepted and validated for interface symmetry only.
    """
    if p != math.inf and p < 1:
        raise DomainError("p must satisfy p >= 1 or p = inf")
    return ess_sup(sample.space, sample_norms(sample))


def real_factor(block, t):
    """R(t) = e^{-i t Im lambda} e^{tA} of one closed-form block lambda I + N,
    as the closed-form path computes it alone: a real k x k matrix."""
    a = np.asarray(block, dtype=complex)[None]
    # log(0) at t = 0 only meets the zero weights of j > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return linalg._real_factor(a, np.array([float(t)]), linalg._power_basis(a))[0, 0]
