"""Reference computations the tests check the program against, and test
inputs that several test modules share. The program never calls them: each
reference takes the plain route (complex matrices, one stacked linalg.norm2
per active dimension) that the stacked kernels must agree with."""

import math

import mpmath
import numpy as np

from semistab import linalg
from semistab.errors import DomainError
from semistab.measure import ess_sup
from semistab.report import Cluster


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
        return linalg._real_factor(a, np.array([float(t)]), linalg._band(a))[0, 0]


def dense_real_factor(a, t):
    """R(t) of (q, k, k) closed-form blocks at each time of t, (T, q, k, k):
    every power of the dense basis (linalg._power_basis) times its weight,
    added over all k^2 entries in increasing j, zero terms included. The
    band sum of linalg._real_factor must equal it bit for bit wherever it
    is finite."""
    a = np.asarray(a, dtype=complex)
    t = np.asarray(t, dtype=float)
    _, powers = linalg._power_basis(a)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = linalg._weights(a, t, linalg._band(a))[..., None, None]
        acc = weights[:, :, 0] * powers[:, 0]
        for j in range(1, a.shape[-1]):
            acc += weights[:, :, j] * powers[:, j]
    return acc


def mp_expm(a, t, dps=40):
    """e^{tA} of one matrix in dps-digit arithmetic (mpmath), rounded to
    complex doubles."""
    with mpmath.workdps(dps):
        exact = mpmath.expm(mpmath.matrix(np.asarray(a, dtype=complex).tolist()) * t)
        return np.array(exact.tolist(), dtype=complex)


def mp_expm_norms(a, times, dps=40):
    """||e^{tA}||_2 of one matrix at each time, from mpmath's exponential and
    singular values in dps-digit arithmetic, rounded to doubles."""
    with mpmath.workdps(dps):
        m = mpmath.matrix(np.asarray(a, dtype=complex).tolist())
        return np.array([
            float(max(mpmath.svd_c(mpmath.expm(m * float(t)), compute_uv=False)))
            for t in times
        ])


def conditioned_pair(cond, lams, seed=0):
    """A dense 2 x 2 matrix V diag(lams) V^-1, conjugated by a random unitary
    from default_rng(seed), whose unit eigenvector matrix V has
    cond2(V) = cond: the columns e_1 and (cos phi, sin phi) with
    cot(phi / 2) = cond."""
    phi = 2.0 * math.atan(1.0 / cond)
    v = np.array([[1.0, math.cos(phi)], [0.0, math.sin(phi)]])
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q @ v @ np.diag(lams) @ np.linalg.inv(v) @ q.conj().T


def greedy_ball_clusters(values, tol, tags=None):
    """linalg.ball_clusters by the greedy walk alone, isolated values
    included: in canonical order (imag, then real, then tag), a ball of
    radius tol opens around the first unassigned value; one (member mean,
    member tags) pair per ball."""
    values = np.asarray(values, dtype=complex).ravel()
    tags = np.arange(values.size) if tags is None else np.asarray(tags)
    order = np.lexsort((tags, values.real, values.imag))
    vals = values[order]
    tags = tags[order]
    assigned = np.zeros(vals.size, dtype=bool)
    clusters = []
    for i in range(vals.size):
        if assigned[i]:
            continue
        members = (~assigned) & (np.abs(vals - vals[i]) <= tol)
        assigned |= members
        clusters.append((complex(vals[members].mean()), tags[members]))
    return clusters


def point_spectrum(family, distance, tol, match_tol):
    """semigroup.point_spectrum from greedy_ball_clusters, each cluster's
    measure the sum of its cells' weights."""
    table = family.eigenvalues
    hits = np.abs(distance(table)) <= tol
    weights = family.space.weights
    clusters = []
    for mean, members in greedy_ball_clusters(table[hits], match_tol, np.nonzero(hits)[0]):
        support = sorted(set(members.tolist()))
        clusters.append(Cluster(mean, tuple(support), float(weights[support].sum())))
    return clusters


def boundary_faults(family, cells, distance, tol, match_tol):
    """semigroup.boundary_faults without the pairing pre-test: every cell of
    `cells` with an eigenvalue within tol of the boundary, and none beyond
    it, takes the greedy clustering of those eigenvalues and the rank test
    of each ball."""
    cells = np.asarray(cells, dtype=int)
    eigs = family.eigenvalues[cells]
    dist = distance(eigs)
    worst = np.fmax.reduce(dist, axis=1, initial=-np.inf)
    faults = {i: (float(worst[i]), True) for i in np.flatnonzero(worst > tol)}
    near = np.abs(dist) <= tol
    for i in np.flatnonzero(near.any(axis=1) & (worst <= tol)):
        block = family.block(cells[i])
        for rep, _ in greedy_ball_clusters(eigs[i, near[i]], match_tol):
            alg, geo = linalg.semisimple_multiplicities(
                block, rep, match_tol, eigs=eigs[i, : block.shape[0]]
            )
            if geo < alg:
                faults[i] = (rep, False)
                break
    return [(int(cells[i]), value, crosses) for i, (value, crosses) in sorted(faults.items())]
