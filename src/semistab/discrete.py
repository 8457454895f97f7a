"""Discrete-time stability of the powers of a multiplication operator.

The same three notions as in continuous time, decided through the pointwise
spectral radii: uniform iff ess-sup r(M(s)) < 1, strong iff r(M(s)) < 1 on
every positive-weight cell of a power-bounded sample, almost weak iff no
positive-weight cell carries unit-circle point spectrum. Power boundedness
is certified spectrally (radius below one, or unimodular eigenvalues
semisimple) and observed along a doubling power schedule.
"""

import math
from typing import NamedTuple

import numpy as np

from . import linalg, semigroup
from .errors import DomainError
from .measure import ess_sup
from .report import (
    INCONCLUSIVE,
    NOT_STABLE,
    STABLE,
    DiscreteReport,
    Witness,
)

NORM_CHECK_THRESHOLD = 1e-6
NORM_CHECK_SAFETY = 3.0
DENSITY_CAP = 0.05

#: the orbit density evidence extends its horizon to DENSITY_SAFETY times the
#: predicted bad-set length (from the spectral gap), capped to keep runtime
#: bounded; beyond the cap the evidence is skipped and the spectral criterion
#: stands alone. The horizon runs in tiles of DENSITY_TILE powers
#: (orbit_densities): per active dimension, one stacked product and one
#: comparison per tile, plus log2(DENSITY_TILE) products once for the rows
#: phi^H M^j, so the cap bounds about 6 n / DENSITY_TILE numpy calls, not 7 n.
DENSITY_SAFETY = 30.0
DENSITY_MAX_STEPS = 65536

#: powers per tile of the orbit-density recurrence, a power of two: its rows
#: phi^H M^j, j < DENSITY_TILE, take DENSITY_TILE * m * k complex entries
#: for m cells of active dimension k. On rh64 (64 cells, k = 6) 16 powers
#: take 98 kB of rows and 2.2 ms per call; 32 took 1.8 ms, but their 196 kB
#: raised the process's peak RSS by 0.1 to 0.2 MB (2-core Xeon host).
DENSITY_TILE = 16


def power_schedule(n_max):
    """Powers to observe: 1, 2, 3, then 2^k and 3*2^(k-1) up to n_max,
    plus n_max itself."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    ns = {1, 2, 3}
    k = 4
    while k <= n_max:
        ns.add(k)
        if 3 * k // 2 <= n_max:
            ns.add(3 * k // 2)
        k *= 2
    ns.add(n_max)
    return sorted(n for n in ns if n <= n_max)


def _power_norms(sample, n, floor):
    # ||M(s)^n|| per positive-weight cell (zero elsewhere), one stacked
    # power (from the sample's shared squares) and linalg.floor_norms per
    # active dimension: exact where it can reach the (1,) `floor` of the
    # caller's ess-sup, an upper bound below it elsewhere
    norms = np.zeros(sample.space.n_cells)
    for cells, power in sample.power_stacks(n):
        norms[cells] = linalg.floor_norms(power, floor)
    return norms


class PowerBound(NamedTuple):
    bound: float
    certified: bool


def _modulus_gap(eigs):
    # signed distance to the unit circle
    return np.abs(eigs) - 1.0


def power_bounded_estimate(sample, n_max, *, uni_tol=1e-9, match_tol=1e-6):
    """Observed sup over scheduled n <= n_max of ||M^n||, plus a spectral
    certificate that the true supremum is finite: every positive-weight cell
    must have r(M(s)) < 1, or r(M(s)) <= 1 with every unimodular eigenvalue
    semisimple (rank test on M(s) - lambda I)."""
    # one floor for the whole schedule: only the maximum is read
    bound, floor = 0.0, np.zeros(1)
    for n in power_schedule(n_max):
        bound = max(bound, ess_sup(sample.space, _power_norms(sample, n, floor)))
    faults = semigroup.boundary_faults(
        sample, sample.space.positive_cells(), _modulus_gap, uni_tol, match_tol
    )
    return PowerBound(bound=float(bound), certified=not faults)


class DiscreteClassification(NamedTuple):
    verdict: str
    witnesses: tuple
    detail: dict


def classify_discrete_uniform(sample, margin):
    """Uniform stability of the powers: ess-sup of the pointwise spectral
    radii against 1. A Stable verdict is cross-checked on the equivalent
    norm form: ess-sup ||M(s)^n|| must drop below NORM_CHECK_THRESHOLD
    within NORM_CHECK_SAFETY * log(threshold)/log(rho*) steps."""
    positive = sample.space.positive_cells()
    worst = int(positive[np.argmax(sample.radii[positive])])
    rho_star = float(sample.radii[worst])
    verdict, witnesses = semigroup.radius_verdict(rho_star, worst, margin)
    detail = {"rho_star": rho_star}
    if verdict != STABLE:
        return DiscreteClassification(verdict, witnesses, detail)
    if rho_star <= 1e-12:
        n_check = sample.dim
    else:
        n_check = max(
            1, math.ceil(NORM_CHECK_SAFETY * math.log(NORM_CHECK_THRESHOLD) / math.log(rho_star))
        )
    observed = ess_sup(sample.space, _power_norms(sample, n_check, np.zeros(1)))
    detail["norm_check_n"] = n_check
    detail["norm_check_value"] = observed
    if observed >= NORM_CHECK_THRESHOLD:
        return DiscreteClassification(
            INCONCLUSIVE, (Witness(None, observed, "norm-crosscheck-failed"),), detail
        )
    return DiscreteClassification(STABLE, (), detail)


def classify_discrete_strong(sample, gate, *, uni_tol=1e-9):
    """Strong stability of the powers: needs a certified power bound (the
    power_bounded_estimate `gate` of the sample), then r(M(s)) < 1 on every
    positive-weight cell. A cell with a (necessarily semisimple, after
    certification) unimodular eigenvalue is a NotStable witness: its
    eigenvector is a non-decaying orbit."""
    detail = {"power_bound": gate.bound, "power_certified": gate.certified}
    if not gate.certified:
        return DiscreteClassification(
            INCONCLUSIVE, (Witness(None, gate.bound, "power-bound-gate-uncertified"),), detail
        )
    positive = sample.space.positive_cells()
    unimodular = positive[sample.radii[positive] >= 1.0 - uni_tol]
    if unimodular.size == 0:
        return DiscreteClassification(STABLE, (), detail)
    cell = int(unimodular[0])
    eigs = sample.spectrum(cell)
    lam = complex(eigs[np.argmax(np.abs(eigs))])
    return DiscreteClassification(
        NOT_STABLE, (Witness(cell, lam, "unimodular-eigenvalue"),), detail
    )


def unimodular_point_spectrum(sample, uni_tol=1e-9, match_tol=1e-6):
    """Unit-circle eigenvalues carried by positive-weight cells, clustered
    into balls of radius match_tol (discrete analogue of the imaginary-axis
    point spectrum)."""
    return semigroup.point_spectrum(sample, _modulus_gap, uni_tol, match_tol)


def orbit_densities(sample, n_steps, eps, seed):
    """Density of {n < n_steps : |<M(s)^n x, phi>| >= eps ||x|| ||phi||} on
    each positive-weight cell s, in cell order, for random x, phi drawn per
    cell (in cell order) from default_rng(seed).

    The orbits of all cells with the same active dimension advance together,
    in tiles of DENSITY_TILE = B powers: the rows phi^H M^j, j < B, are
    built once by doubling from the sample's shared squares M^(2^i)
    (power_stacks), and each tile takes <M^(tB + j) x, phi> for every j
    from one stacked product of those rows with v = M^(tB) x, counts the
    moduli at or above the threshold and advances v by the square M^B. A
    tile costs six numpy calls and its rows B m k complex entries, for m
    cells of active dimension k. Each inner product is the step-by-step
    orbit's up to rounding, so a count can differ from the step loop's only
    at a power whose modulus lies within rounding of the threshold."""
    rng = np.random.default_rng(seed)
    positive = sample.space.positive_cells()
    starts = {}
    for c in positive:
        d = sample.block(int(c)).shape[0]
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        scale = eps * float(np.linalg.norm(x)) * float(np.linalg.norm(phi))
        starts[int(c)] = (x, phi, scale)
    densities = np.zeros(sample.space.n_cells)
    doublings = DENSITY_TILE.bit_length() - 1
    squares = [sample.power_stacks(1 << i) for i in range(doublings + 1)]
    for g, (cells, _) in enumerate(squares[0]):
        v = np.stack([starts[c][0] for c in cells])[:, :, None]
        rows = np.empty((cells.size, DENSITY_TILE, v.shape[1]), dtype=complex)
        rows[:, 0] = np.stack([starts[c][1].conj() for c in cells])
        for i in range(doublings):
            h = 1 << i
            np.matmul(rows[:, :h], squares[i][g][1], out=rows[:, h : 2 * h])
        scale = np.array([starts[c][2] for c in cells])[:, None]
        bad = np.zeros(cells.size, dtype=int)
        for start in range(0, n_steps, DENSITY_TILE):
            w = (rows[:, : n_steps - start] @ v)[..., 0]
            # |<v, phi>| as the hypot of its parts, the rounding of abs()
            # on one complex scalar
            bad += (np.hypot(w.real, w.imag) >= scale).sum(axis=1)
            v = squares[doublings][g][1] @ v
        densities[cells] = bad / float(n_steps)
    return densities[positive]


def classify_discrete_almost_weak(sample, gate, *, n_max=512, eps=1e-3, seed=0,
                                  uni_tol=1e-9, match_tol=1e-6):
    """Almost weak stability of the powers: certified power bound (`gate`,
    as for classify_discrete_strong) and no unit-circle point spectrum on
    positive-weight cells (the criterion), corroborated by an orbit density
    test: for random x, phi per cell the set
    {n <= n_max : |<M^n x, phi>| >= eps ||x|| ||phi||} must have density at
    most DENSITY_CAP (evidence, not proof)."""
    detail = {"power_bound": gate.bound, "power_certified": gate.certified}
    if not gate.certified:
        return DiscreteClassification(
            INCONCLUSIVE, (Witness(None, gate.bound, "power-bound-gate-uncertified"),), detail
        )
    clusters = unimodular_point_spectrum(sample, uni_tol=uni_tol, match_tol=match_tol)
    if clusters:
        detail["clusters"] = clusters
        witnesses = tuple(
            Witness(cl.cells[0], cl.eigenvalue, "unimodular-eigenvalue-cluster")
            for cl in clusters
        )
        return DiscreteClassification(NOT_STABLE, witnesses, detail)
    # criterion holds; every pointwise radius is below one, so the bad set of
    # each orbit is finite. Give the evidence enough horizon to see that.
    r_max = float(sample.radii[sample.space.positive_cells()].max())
    if 0.0 < r_max < 1.0:
        predicted = math.ceil(DENSITY_SAFETY * math.log(1.0 / eps) / -math.log(r_max))
        n_steps = max(n_max, predicted)
    else:
        n_steps = n_max
    if n_steps > DENSITY_MAX_STEPS:
        detail["bad_density"] = None
        detail["density_skipped"] = True
        return DiscreteClassification(STABLE, (), detail)
    worst_density = float(orbit_densities(sample, n_steps, eps, seed).max())
    detail["bad_density"] = worst_density
    if worst_density > DENSITY_CAP:
        return DiscreteClassification(
            INCONCLUSIVE, (Witness(None, worst_density, "orbit-density-too-high"),), detail
        )
    return DiscreteClassification(STABLE, (), detail)


def build_discrete_report(sample, *, margin, n_max, eps=1e-3, seed=0,
                          uni_tol=1e-9, match_tol=1e-6):
    """Run all three discrete classifiers and assemble the report."""
    gate = power_bounded_estimate(sample, n_max, uni_tol=uni_tol, match_tol=match_tol)
    uniform = classify_discrete_uniform(sample, margin)
    strong = classify_discrete_strong(sample, gate, uni_tol=uni_tol)
    almost = classify_discrete_almost_weak(
        sample, gate, n_max=n_max, eps=eps, seed=seed, uni_tol=uni_tol, match_tol=match_tol
    )
    return DiscreteReport(
        uniform=uniform.verdict,
        strong=strong.verdict,
        almost_weak=almost.verdict,
        power_bound=gate.bound,
        power_certified=gate.certified,
        witnesses=uniform.witnesses + strong.witnesses + almost.witnesses,
        bad_density=almost.detail.get("bad_density"),
        tolerances={"margin": margin, "n_max": n_max, "eps": eps, "uni_tol": uni_tol},
    )
