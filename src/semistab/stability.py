"""Continuous-time stability classifiers for pointwise operator families.

Three notions, in decreasing strength:

* uniform    -- ess-sup ||e^{tA(s)}|| -> 0; decided through the essential
                supremum s* of the pointwise spectral bounds (the spectral
                radius at a reference time t0 is e^{t0 s*}), with an
                exponential envelope (M, eps) fitted on a trajectory.
* strong     -- ||e^{tA}f|| -> 0 for every f; needs a certified bound on the
                semigroup, then the pointwise spectral bounds decide.
* almost weak-- weak convergence to 0 along a time set of density one;
                equivalent (for bounded semigroups on our spaces) to the
                absence of imaginary-axis point spectrum carried by a set of
                positive measure: clusters across atomic cells, or, in the
                non-atomic limit, eigenvalues of a polynomial generator rule
                present at every point of the interval.

Also finite-horizon evidence: the residuals of the Cesaro means (exact for
every generator) against the mean ergodic projection.

Every verdict that depends on a hypothesis (boundedness, margins, horizons)
degrades to Inconclusive rather than guessing when the hypothesis cannot be
certified.
"""

import math
from typing import NamedTuple

import numpy as np

from . import linalg, semigroup
from .errors import DomainError, NumericalFailureError, ShapeError
from .measure import REFINEMENT_FAMILY
from .report import (
    INCONCLUSIVE,
    MODE_ATOMIC,
    MODE_NONATOMIC_LIMIT,
    NOT_STABLE,
    STABLE,
    AlmostWeakResult,
    Cluster,
    StabilityReport,
    StrongResult,
    UniformResult,
    Witness,
)

#: ess-sup trajectory norms must drop below this before the horizon for the
#: norm-decay cross-check of a Stable uniform verdict.
DECAY_CROSSCHECK = 1e-3

#: the uniform cross-check doubles its horizon at most this many times.
MAX_EXTENSIONS = 6


def classify_uniform(family, t0, margin, *, grid_points=48):
    """Uniform stability via the pointwise spectral bounds at time t0.

    s* = ess-sup_s max Re sigma(A(s)), from the family's eigenvalue table,
    and by spectral mapping rho* = ess-sup_s r(e^{t0 A(s)}) = e^{t0 s*}; a
    rho* beyond the double range raises NumericalFailureError at t0.  The
    verdict reads the unit-time radius e^{s*}, so the margin is a decay rate
    (to first order) and no verdict depends on t0: Stable iff
    e^{s*} < 1 - margin, with decay rate eps = -s* and envelope constant M
    fitted as sup_t ||e^{tA(s)}|| e^{eps t} over a trajectory grid;
    NotStable iff e^{s*} >= 1 (up to linalg.RADIUS_ROUNDOFF); Inconclusive
    inside the margin band; both with rho* as the witness value.  A Stable
    verdict is cross-checked by requiring the ess-sup trajectory norms to
    fall below DECAY_CROSSCHECK before the horizon, which starts from the
    decay rate and the largest active dimension of a positive-weight cell
    and doubles up to MAX_EXTENSIONS times, so slow transients do not cause
    false alarms; `tolerances["crosscheck_horizon"]` is the last horizon
    examined.

    The lead cell, the first positive-weight cell whose spectral bound
    attains s*, bounds the ess-sup norm from below.  So every horizon but
    the last allowed one first reads the lead cell's norms alone against
    DECAY_CROSSCHECK, from certified brackets (an exact norm only where a
    bracket straddles it): when they stay at or above it at every t > 0,
    the ess-sup cannot have decayed either, and the horizon doubles
    without computing any other cell.  Otherwise, and always on the last
    allowed horizon, every positive-weight cell is computed on the grid;
    before the last one the lead pass (semigroup.orbit_norms with a
    threshold and no floor) has already solved the lead's norms exactly
    once one fell below, and they seed the per-time floor of
    semigroup.orbit_norms for the others, which skips a closed-form cell
    whose certified bound stays below the floor, forms an eigenbasis
    cell's e^{tA} only where its certified bound can reach the floor,
    computes a norm exactly only where it can reach the ess-sup, and
    leaves the ess-sup as the floor after the call.  Verdict and numbers
    are the same as with the full grid on every horizon; a numerical
    failure in a cell other than the lead can surface at a later horizon
    than it would there.
    """
    if t0 <= 0:
        raise DomainError("reference time t0 must be positive")
    bounds = np.fmax.reduce(family.eigenvalues.real, axis=1, initial=-np.inf)
    lead = int(np.argmax(bounds))
    s_star = float(bounds[lead])
    if t0 * s_star > math.log(np.finfo(float).max):
        raise NumericalFailureError(f"e^{{tA}} is not finite at t = {t0:g}", time=t0)
    rho_star = math.exp(t0 * s_star)
    # capped at 1 so that a large s* cannot overflow; every s* >= 0 is NotStable
    verdict, witnesses = semigroup.radius_verdict(math.exp(min(s_star, 0.0)), lead, margin)
    witnesses = tuple(Witness(w.cell, rho_star, w.kind) for w in witnesses)
    tolerances = {"t0": t0, "margin": margin, "decay_threshold": DECAY_CROSSCHECK}
    if verdict != STABLE:
        return UniformResult(verdict, rho_star, witnesses=witnesses, tolerances=tolerances)
    eps = -s_star
    positive = family.space.positive_cells()
    active = family.active_dims
    max_dim = family.dim if active is None else int(active[positive].max())
    first = max(2 * math.log(1e3) / eps, 4 * max_dim / eps)
    for attempt in range(MAX_EXTENSIONS + 1):
        h = first * 2.0**attempt
        times = semigroup.time_grid(h, grid_points)
        later = times > 0
        cells, ess_norms = positive, np.zeros(times.size)
        if attempt < MAX_EXTENSIONS:
            lead_norms = semigroup.orbit_norms(
                family, times, cells=[lead], below=DECAY_CROSSCHECK
            )[0][:, lead]
            if lead_norms[later].min() >= DECAY_CROSSCHECK:
                continue
            # the lead falls below, so its norms are exact: they seed the
            # per-time floor of the others
            cells, ess_norms = positive[positive != lead], lead_norms
        semigroup.orbit_norms(family, times, cells=cells, floor=ess_norms)
        floor = float(ess_norms[later].min())
        if floor < DECAY_CROSSCHECK:
            break
    tolerances["crosscheck_horizon"] = h
    if floor >= DECAY_CROSSCHECK:
        return UniformResult(
            INCONCLUSIVE,
            rho_star,
            witnesses=(Witness(None, floor, "norm-decay-crosscheck-failed"),),
            tolerances=tolerances,
        )
    # e^{eps t} may leave the double range: M is then inf, but a zero norm adds 0
    with np.errstate(over="ignore"):
        growth = np.exp(eps * times, out=np.zeros_like(times), where=ess_norms > 0)
        bound = max(1.0, float((ess_norms * growth).max()))
    return UniformResult(
        STABLE,
        rho_star,
        decay_eps=eps,
        bound_M=bound,
        times=times,
        ess_norms=ess_norms,
        tolerances=tolerances,
    )


class BoundednessCertificate(NamedTuple):
    """A boundedness verdict with the norms it was read from: `norms[k, c]` is
    ||e^{times[k] A(s_c)}|| where it can reach `bound` or decides whether a
    cell the spectral certificate flags contracts, and an upper bound below
    `bound` elsewhere."""

    certified: bool
    bound: float
    witnesses: tuple
    times: np.ndarray
    norms: np.ndarray


def certify_bounded(family, times, *, re_tol=1e-9, match_tol=1e-6):
    """Certify sup_t ||e^{tA}|| < inf and report the bound observed on the
    time grid `times` (from 0).

    A cell is certified either spectrally (all eigenvalues in the closed
    left half plane and every eigenvalue on the imaginary axis semisimple)
    or by eventual contraction (some grid norm < 1, which caps the tail by
    submultiplicativity).  Both certificates are sound in finite dimension;
    the spectral one also covers purely oscillatory cells that never
    contract.

    The spectral certificate runs first, on every positive-weight cell
    (semigroup.boundary_faults); only the cells it flags ask whether a grid
    norm falls below linalg.CONTRACTION, and a flagged cell that contracts
    is certified after all.  The norms are read for the bound and those
    flags alone, so semigroup.orbit_norms keeps one floor for the whole
    grid: `norms` is exact only where an entry can reach the bound or
    decides a flagged cell's contraction, and an upper bound elsewhere.
    """
    times = np.asarray(times, dtype=float)
    # Re(lambda) is the signed distance to the imaginary axis
    faults = semigroup.boundary_faults(
        family, family.space.positive_cells(), np.real, re_tol, match_tol
    )
    below = np.zeros(family.space.n_cells)
    below[[cell for cell, _, _ in faults]] = linalg.CONTRACTION
    floor = np.zeros(1)
    norms, _ = semigroup.orbit_norms(family, times, floor=floor, below=below)
    contracting = (norms[times > 0] < linalg.CONTRACTION).any(axis=0)
    kinds = {True: "positive-spectral-bound", False: "defective-imaginary-eigenvalue"}
    witnesses = tuple(
        Witness(c, value, kinds[crosses]) for c, value, crosses in faults if not contracting[c]
    )
    return BoundednessCertificate(not witnesses, float(floor[0]), witnesses, times, norms)


def spectral_bound_verdict(family, re_tol=1e-9):
    """(verdict, witnesses) of the pointwise spectral bounds, from the
    family's eigenvalue table: NotStable when a positive-weight cell has a
    nonnegative spectral bound (the first such cell is the witness),
    Inconclusive when some lie within re_tol below 0 (each is a witness),
    Stable otherwise: the strong verdict of a certified bound."""
    positive = family.space.positive_cells()
    eigs = family.eigenvalues[positive]
    tops = eigs[np.arange(positive.size), np.nanargmax(eigs.real, axis=1)]
    crossing = tops.real >= 0.0
    if crossing.any():
        verdict, kind, picked = NOT_STABLE, "nonnegative-spectral-bound", [np.argmax(crossing)]
    else:
        kind, picked = "spectral-bound-inside-tolerance-band", np.flatnonzero(tops.real >= -re_tol)
        verdict = INCONCLUSIVE if len(picked) else STABLE
    return verdict, [Witness(int(positive[i]), complex(tops[i]), kind) for i in picked]


def classify_strong(family, gate, *, re_tol=1e-9):
    """Strong stability: certified bound (the certify_bounded result `gate`),
    then pointwise spectral bounds strictly negative on every positive-weight
    cell (spectral_bound_verdict). With finitely many positive-weight cells
    and finite-dimensional blocks a bounded semigroup without imaginary
    eigenvalues decays exponentially, so the spectra decide.

    An uncertified bound yields Inconclusive; a cell with nonnegative
    spectral bound yields NotStable with that cell as the witness.
    """
    tolerances = {"horizon": float(gate.times[-1]), "re_tol": re_tol}
    if not gate.certified:
        return StrongResult(
            INCONCLUSIVE,
            bound_M=gate.bound,
            certified=False,
            witnesses=gate.witnesses + (Witness(None, gate.bound, "boundedness-gate-uncertified"),),
            tolerances=tolerances,
        )
    verdict, witnesses = spectral_bound_verdict(family, re_tol)
    return StrongResult(
        verdict,
        bound_M=gate.bound,
        certified=True,
        witnesses=tuple(witnesses),
        tolerances=tolerances,
    )


def imaginary_point_spectrum(family, re_tol=1e-9, match_tol=1e-6):
    """Eigenvalues on the imaginary axis carried by cells of positive weight,
    clustered across cells into balls of radius match_tol.

    Each cluster reports a representative value, the supporting cell ids,
    and their total measure. On an atomic space any cluster certifies the
    representative as an approximate eigenvalue of the multiplication
    operator, since its support has positive measure.
    """
    if re_tol <= 0 or match_tol <= 0:
        raise DomainError("tolerances must be positive")
    return semigroup.point_spectrum(family, np.real, re_tol, match_tol)


def _limit_point_spectrum(family, re_tol, match_tol):
    """Imaginary eigenvalues of the multiplication generator of the family's
    rule on the interval its positive-weight cells cover, clustered into
    balls of radius match_tol; each cluster carries every positive-weight
    cell and their total weight.

    det(i eta I - A(s)) is a polynomial of degree at most n d in s, so it
    vanishes on a set of positive measure only if it vanishes at n d + 1
    points. The candidates are the eigenvalues with |Re| <= re_tol at the
    first of n d + 1 Chebyshev nodes, kept when every node has an
    eigenvalue within match_tol of them.
    """
    space = family.space
    positive = space.positive_cells()
    half = space.widths[positive] / 2.0
    lo, hi = (space.labels[positive] - half).min(), (space.labels[positive] + half).max()
    count = family.dim * (family.rule.shape[0] - 1) + 1
    nodes = (lo + hi) / 2 + (hi - lo) / 2 * np.cos((np.arange(count) + 0.5) * np.pi / count)
    eigs = linalg.eigenvalues(semigroup.rule_matrices(family.rule, nodes))
    candidates = eigs[0][np.abs(eigs[0].real) <= re_tol]
    kept = [lam for lam in candidates if (np.abs(eigs - lam).min(axis=1) <= match_tol).all()]
    cells = tuple(positive.tolist())
    weight = float(space.weights[positive].sum())
    return [Cluster(mean, cells, weight) for mean, _ in linalg.ball_clusters(kept, match_tol)]


def classify_almost_weak(family, gate, *, mode=None, re_tol=1e-9, match_tol=1e-6):
    """Almost weak stability, given the certify_bounded result `gate`: NotStable
    with one witness per cluster of imaginary point spectrum of positive
    measure, Stable when there is none (i eta is an eigenvalue of the
    multiplication generator iff {s : i eta in sigma_p(A(s))} has positive
    measure).

    Atomic mode treats the cells as atoms (imaginary_point_spectrum).
    NonAtomicLimit mode reads the family's generator rule on the interval
    its cells cover, whatever the grid; a family without a rule or without
    cell widths raises DomainError.
    """
    if mode is None:
        mode = MODE_NONATOMIC_LIMIT if family.space.mode == REFINEMENT_FAMILY else MODE_ATOMIC
    if mode not in (MODE_ATOMIC, MODE_NONATOMIC_LIMIT):
        raise DomainError(f"unknown analysis mode {mode!r}")
    if mode == MODE_NONATOMIC_LIMIT and (family.rule is None or family.space.widths is None):
        raise DomainError("the non-atomic limit needs the family's generator rule and cell widths")
    tolerances = {"re_tol": re_tol, "match_tol": match_tol, "horizon": float(gate.times[-1])}
    if not gate.certified:
        return AlmostWeakResult(
            INCONCLUSIVE,
            mode,
            witnesses=gate.witnesses + (Witness(None, gate.bound, "boundedness-gate-uncertified"),),
            tolerances=tolerances,
        )
    spectrum = imaginary_point_spectrum if mode == MODE_ATOMIC else _limit_point_spectrum
    clusters = spectrum(family, re_tol, match_tol)
    if not clusters:
        return AlmostWeakResult(STABLE, mode, tolerances=tolerances)
    witnesses = tuple(
        Witness(cl.cells[0], cl.eigenvalue, "imaginary-eigenvalue-cluster") for cl in clusters
    )
    return AlmostWeakResult(NOT_STABLE, mode, tuple(clusters), witnesses, tolerances=tolerances)


def cesaro_verify(a, x, t_list, *, re_tol=1e-9):
    """Residuals ||S(t)x - Px|| of the Cesaro means S(t) (the exact
    augmented-exponential kernel of linalg.cesaro_mean, for any generator)
    against the mean ergodic projection P, at the requested times.

    Raises UnboundedSemigroupError (via the projection) when the zero
    eigenvalue is defective.
    """
    a = linalg.as_matrix(a)
    x = np.asarray(x, dtype=complex).ravel()
    if x.shape != (a.shape[0],):
        raise ShapeError("x must match the matrix dimension")
    t_arr = np.asarray(t_list, dtype=float)
    if t_arr.size == 0:
        raise ShapeError("need at least one time")
    if np.any(t_arr <= 0) or np.any(np.diff(t_arr) < 0):
        raise DomainError("times must be positive and nondecreasing")
    projection = linalg.ergodic_projection(a, re_tol)
    px = projection @ x
    out = []
    for t in t_arr:
        mean = linalg.cesaro_mean(a, float(t))
        out.append((float(t), float(np.linalg.norm(mean @ x - px))))
    return out


def build_report(uniform, strong, almost_weak):
    """Assemble the aggregate report from the three classifier fragments."""
    tolerances = {}
    for frag in (uniform, strong, almost_weak):
        tolerances.update(frag.tolerances)
    return StabilityReport(
        uniform=uniform,
        strong=strong,
        almost_weak=almost_weak,
        mode=almost_weak.mode,
        tolerances=tolerances,
    )
