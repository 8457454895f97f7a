"""Discrete-time stability of the powers of a multiplication operator.

The operator is the sample M = e^{tA} of a generator family at one time t
(semigroup.sample_at), which supplies the spectral table e^{t lambda} and
the matrices of the rank tests, formed only on the cells that can take one.
Its powers are M^n = e^{ntA}, so every ||M(s)^n|| is read from the family's
factors (semigroup.orbit_norms at the times n t). The same three notions as
in continuous time, decided through the pointwise spectral radii: uniform
iff ess-sup r(M(s)) < 1, strong iff r(M(s)) < 1 on every positive-weight
cell of a power-bounded sample, almost weak iff no positive-weight cell
carries unit-circle point spectrum. Power boundedness is certified
spectrally (radius below one, or unimodular eigenvalues semisimple) and
observed along a doubling power schedule.
"""

import math
from typing import NamedTuple

import numpy as np

from . import semigroup
from .errors import DomainError, NumericalFailureError
from .report import INCONCLUSIVE, NOT_STABLE, STABLE, DiscreteReport, Witness
from .stability import MAX_EXTENSIONS

NORM_CHECK_THRESHOLD = 1e-6
NORM_CHECK_SAFETY = 3.0


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


def _power_sup(family, t, ns):
    # ess-sup over the positive-weight cells and the increasing powers ns of
    # ||M(s)^n|| = ||e^{ntA(s)}||: one probe-free orbit_norms pass with a (1,)
    # floor, which after the pass is that supremum; inf when e^{ntA} leaves
    # the double range
    floor = np.zeros(1)
    try:
        semigroup.orbit_norms(family, np.multiply(ns, t), floor=floor)
    except NumericalFailureError as exc:
        if exc.time is None:
            raise
        return math.inf
    return float(floor[0])


class PowerBound(NamedTuple):
    bound: float
    certified: bool


def _modulus_gap(eigs):
    # signed distance to the unit circle
    return np.abs(eigs) - 1.0


def power_bounded_estimate(family, t, sample, n_max, *, uni_tol=1e-9, match_tol=1e-6):
    """Observed sup over scheduled n <= n_max of ||M^n|| = ||e^{ntA}|| (inf
    once it leaves the double range) for the sample M = e^{tA} of `family`,
    plus a spectral certificate that the true supremum is finite: every
    positive-weight cell must have r(M(s)) < 1, or r(M(s)) <= 1 with every
    unimodular eigenvalue semisimple (rank test on M(s) - lambda I)."""
    bound = _power_sup(family, t, power_schedule(n_max))
    faults = semigroup.boundary_faults(
        sample, sample.space.positive_cells(), _modulus_gap, uni_tol, match_tol
    )
    return PowerBound(bound=bound, certified=not faults)


class DiscreteClassification(NamedTuple):
    verdict: str
    witnesses: tuple
    detail: dict


def classify_discrete_uniform(family, t, sample, margin):
    """Uniform stability of the powers of the sample M = e^{tA} of `family`:
    ess-sup of the pointwise spectral radii against 1. A Stable verdict is
    cross-checked on the equivalent norm form: ess-sup ||M(s)^n|| must drop
    below NORM_CHECK_THRESHOLD at n = NORM_CHECK_SAFETY *
    log(threshold)/log(rho*), or at n doubled up to stability.MAX_EXTENSIONS
    times, so that the transient of a non-normal block does not cause a
    false alarm (a norm past the double range reads inf); `detail` holds the
    last n examined and its norm."""
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
    for attempt in range(MAX_EXTENSIONS + 1):
        n = n_check * 2**attempt
        observed = _power_sup(family, t, [n])
        if observed < NORM_CHECK_THRESHOLD:
            break
    detail["norm_check_n"] = n
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


def classify_discrete_almost_weak(sample, gate, *, uni_tol=1e-9, match_tol=1e-6):
    """Almost weak stability of the powers: certified power bound (`gate`,
    as for classify_discrete_strong) and no unit-circle point spectrum on
    positive-weight cells."""
    detail = {"power_bound": gate.bound, "power_certified": gate.certified}
    if not gate.certified:
        return DiscreteClassification(
            INCONCLUSIVE, (Witness(None, gate.bound, "power-bound-gate-uncertified"),), detail
        )
    clusters = unimodular_point_spectrum(sample, uni_tol=uni_tol, match_tol=match_tol)
    if not clusters:
        return DiscreteClassification(STABLE, (), detail)
    detail["clusters"] = clusters
    witnesses = tuple(
        Witness(cl.cells[0], cl.eigenvalue, "unimodular-eigenvalue-cluster") for cl in clusters
    )
    return DiscreteClassification(NOT_STABLE, witnesses, detail)


def build_discrete_report(family, t, *, margin, n_max, uni_tol=1e-9, match_tol=1e-6):
    """Run all three discrete classifiers on the powers of M = e^{tA} of
    `family`, sampled once, and assemble the report. The classifiers read
    the sample's eigenvalue table e^{t lambda}, and its matrices only for
    the rank tests of boundary_faults, which take cells with an eigenvalue
    within uni_tol of the unit circle: only those cells are exponentiated
    (semigroup.sample_at, which raises NumericalFailureError when one of
    them overflows)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _modulus_gap(np.exp(t * family.eigenvalues))
    sample = semigroup.sample_at(family, t, np.flatnonzero((np.abs(gap) <= uni_tol).any(axis=1)))
    gate = power_bounded_estimate(family, t, sample, n_max, uni_tol=uni_tol, match_tol=match_tol)
    uniform = classify_discrete_uniform(family, t, sample, margin)
    strong = classify_discrete_strong(sample, gate, uni_tol=uni_tol)
    almost = classify_discrete_almost_weak(sample, gate, uni_tol=uni_tol, match_tol=match_tol)
    return DiscreteReport(
        uniform=uniform.verdict,
        strong=strong.verdict,
        almost_weak=almost.verdict,
        power_bound=gate.bound,
        power_certified=gate.certified,
        witnesses=uniform.witnesses + strong.witnesses + almost.witnesses,
        tolerances={"margin": margin, "n_max": n_max, "uni_tol": uni_tol},
    )
