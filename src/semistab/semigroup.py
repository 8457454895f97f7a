"""Multiplication operators and semigroups over a discretized measure space.

A pointwise family assigns one matrix per cell: a generator A(s), or an
operator M(s) such as e^{tA(s)} at a fixed time; vector-valued functions
carry one state vector per cell. The norm of a multiplication operator is
the essential supremum of the pointwise operator norms and is independent of
the exponent p.

Cells may carry an `active_dims` entry smaller than the storage dimension:
the cell's operator then lives on the leading block and the trailing
coordinates are inert padding introduced by embedding differently sized
blocks into one space. Norm and spectral queries restrict to the active
block.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DomainError, NumericalFailureError, ShapeError
from .measure import DiscretizedMeasureSpace
from .report import INCONCLUSIVE, NOT_STABLE, STABLE, Cluster, Witness


@dataclass(frozen=True, eq=False)
class PointwiseFamily:
    """The map s -> M(s): one matrix per cell. The matrices must not be
    modified after construction, since the cell spectra and the kernel
    factors are kept, read-only: the spectra built on first use, the factor
    of each active-dimension group when a kernel pass first visits it.
    `rule`, when given, is the (d+1, dim, dim) coefficient stack of the
    generator polynomial the matrices were sampled from (rule_matrices)."""

    space: DiscretizedMeasureSpace
    dim: int
    matrices: np.ndarray
    active_dims: np.ndarray | None = None
    rule: np.ndarray | None = None

    def __post_init__(self):
        n_cells, dim = self.space.n_cells, self.dim
        arr = np.asarray(self.matrices, dtype=complex)
        if arr.shape != (n_cells, dim, dim):
            raise ShapeError(
                f"matrices must have shape ({n_cells}, {dim}, {dim}), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ShapeError("matrices contain non-finite entries")
        object.__setattr__(self, "matrices", arr)
        if self.active_dims is not None:
            active = np.asarray(self.active_dims, dtype=int)
            if active.shape != (n_cells,):
                raise ShapeError("active_dims must have one entry per cell")
            if np.any(active < 1) or np.any(active > dim):
                raise DomainError("active dimensions must lie in [1, dim]")
            object.__setattr__(self, "active_dims", active)
        if self.rule is not None:
            rule = np.asarray(self.rule, dtype=complex)
            if rule.ndim != 3 or rule.shape[0] < 1 or rule.shape[1:] != (dim, dim):
                raise ShapeError(f"rule must have shape (d + 1, {dim}, {dim}), got {rule.shape}")
            if not np.all(np.isfinite(rule)):
                raise ShapeError("rule contains non-finite coefficients")
            object.__setattr__(self, "rule", rule)

    def block(self, cell):
        """Active block of the matrix at `cell`."""
        m = self.matrices[cell]
        if self.active_dims is None:
            return m
        k = int(self.active_dims[cell])
        return m[:k, :k]

    def block_stacks(self, cells=None):
        """(cell ids, (len(ids), k, k) stack of their active blocks) for each
        active dimension k among `cells` (default: every cell), in increasing
        k; the ids keep their order."""
        cells = np.arange(self.space.n_cells) if cells is None else np.asarray(cells)
        if self.active_dims is None:
            return [(cells, self.matrices[cells])]
        dims = self.active_dims[cells]
        out = []
        for k in sorted(set(dims.tolist())):
            ids = cells[dims == k]
            out.append((ids, self.matrices[ids, :k, :k]))
        return out

    @cached_property
    def mask(self):
        """(cells, dim) booleans, True on the coordinates of each active block."""
        active = self.active_dims
        if active is None:
            active = np.full(self.space.n_cells, self.dim)
        return np.arange(self.dim) < active[:, None]

    def restrict(self, f):
        """f with every coordinate outside the active blocks set to zero."""
        vectors = np.where(self.mask, f.vectors, 0.0)
        return BochnerFunction(space=f.space, dim=f.dim, vectors=vectors)

    @cached_property
    def eigenvalues(self):
        """Read-only (cells, dim) table of the eigenvalues of each cell's
        active block, one stacked eigensolve per active dimension on first
        use; NaN past each active block and on the zero-weight cells (null
        sets, never solved)."""
        table = np.full((self.space.n_cells, self.dim), np.nan, dtype=complex)
        for ids, blocks in self.block_stacks(self.space.positive_cells()):
            table[ids, : blocks.shape[-1]] = linalg.eigenvalues(blocks)
        table.setflags(write=False)
        return table

    @cached_property
    def radii(self):
        """Read-only spectral radius of each cell's active block, one
        reduction of the table on first use; 0 on the zero-weight cells
        (null sets, invisible to the essential supremum)."""
        radii = np.fmax.reduce(np.abs(self.eigenvalues), axis=1, initial=0.0)
        radii.setflags(write=False)
        return radii

    @cached_property
    def _stacks(self):
        # ((cell ids, stack of their active blocks), ...) per active dimension
        # of the positive-weight cells, read-only: the groups of the kernels
        stacks = tuple(self.block_stacks(self.space.positive_cells()))
        for x in (x for stack in stacks for x in stack):
            x.setflags(write=False)
        return stacks

    @cached_property
    def factors(self):
        """{group: read-only linalg.Factor} of the active-dimension groups of
        the positive-weight cells factored so far, each keyed by its place in
        increasing active dimension: a kernel pass factors a group when it
        first visits it (factor), and never again. A factorization that fails
        raises NumericalFailureError and is not kept."""
        return {}

    def factor(self, group):
        """The linalg.Factor of the active-dimension group `group`, one
        linalg.factorize on the first call, kept in `factors`."""
        if group not in self.factors:
            self.factors[group] = linalg.factorize(self._stacks[group][1])
        return self.factors[group]

    def _visits(self, cells=None):
        # (group, positions in it) of the positive-weight cells among `cells`
        # (default: all of them), per group holding one
        chosen = np.zeros(self.space.n_cells, dtype=bool)
        chosen[slice(None) if cells is None else cells] = True
        for group, (ids, _) in enumerate(self._stacks):
            sub = np.flatnonzero(chosen[ids])
            if sub.size:
                yield group, sub

    def groups(self, cells=None):
        """(cell ids, blocks, factor) per active dimension of the
        positive-weight cells among `cells` (default: all of them), sliced
        from the group's factor (linalg.Factor.take), which is built when a
        group is first yielded and never again."""
        for group, sub in self._visits(cells):
            ids, blocks = self._stacks[group]
            yield ids[sub], blocks[sub], self.factor(group).take(sub)

    @cached_property
    def _envelope(self):
        # the linalg.Envelope of every cell's active block, one pass
        return linalg.envelope(self.matrices, self.active_dims)

    def spectrum(self, cell):
        """Eigenvalues of the active block at `cell`: a view of its row of
        the table. A zero-weight cell is a null set without a spectrum:
        asking for one raises DomainError."""
        if self.space.weights[cell] == 0:
            raise DomainError(f"cell {cell} has zero weight and no spectrum")
        return self.eigenvalues[cell, : self.block(cell).shape[0]]


@dataclass(frozen=True, eq=False)
class BochnerFunction:
    """A vector-valued function: one state vector per cell."""

    space: DiscretizedMeasureSpace
    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=complex)
        if arr.shape != (self.space.n_cells, self.dim):
            raise ShapeError(
                f"vectors must have shape ({self.space.n_cells}, {self.dim}), got {arr.shape}"
            )
        object.__setattr__(self, "vectors", arr)


def apply(sample, f):
    """(M f)(s) = M(s) f(s), cell by cell."""
    if sample.dim != f.dim or not sample.space.compatible_with(f.space):
        raise ShapeError("family and function live on different spaces")
    out = np.einsum("cij,cj->ci", sample.matrices, f.vectors)
    return BochnerFunction(space=f.space, dim=f.dim, vectors=out)


def lp_norm(f, p=2.0):
    """Bochner p-norm: (sum_i ||f_i||^p mu_i)^(1/p), ess-sup norm for p=inf."""
    return float(_cell_lp(f.space, linalg.vector_norms(f.vectors), p))


def _cell_lp(space, cell, p):
    """lp_norm from the per-cell vector norms `cell` (cells on the last axis),
    each vector scaled by a power of two so that cell**p cannot overflow."""
    if p != math.inf and p < 1:
        raise DomainError("p must satisfy p >= 1 or p = inf")
    top = cell[..., space.positive_cells()].max(axis=-1)
    if p == math.inf:
        return top
    _, e = np.frexp(top)
    scaled = np.ldexp(cell, -np.expand_dims(e, -1))
    scaled[..., space.weights == 0] = 0.0
    scaled **= p
    return np.ldexp((scaled @ space.weights) ** (1.0 / p), e)


def point_spectrum(family, distance, tol, match_tol):
    """Eigenvalues with |distance(lambda)| <= tol (a signed distance to some
    boundary) on positive-weight cells, clustered across cells into balls of
    radius match_tol. Each cluster reports its mean, the supporting cell ids
    and their total measure."""
    table = family.eigenvalues
    hits = np.abs(distance(table)) <= tol
    weights = family.space.weights
    balls = linalg.ball_clusters(table[hits], match_tol, np.nonzero(hits)[0])
    if balls and len(balls) == np.count_nonzero(hits):
        # every ball is one eigenvalue of one cell: one gather of the weights
        cells = np.concatenate([members for _, members in balls])
        return [
            Cluster(eigenvalue=mean, cells=(cell,), measure=measure)
            for (mean, _), cell, measure in zip(balls, cells.tolist(), weights[cells].tolist())
        ]
    clusters = []
    for mean, members in balls:
        support = sorted(set(members.tolist()))
        clusters.append(
            Cluster(eigenvalue=mean, cells=tuple(support), measure=float(weights[support].sum()))
        )
    return clusters


def boundary_faults(family, cells, distance, tol, match_tol):
    """(cell, value, crosses) for each of `cells` whose spectrum crosses the
    boundary (signed `distance` > tol; value: the largest distance) or else
    has a defective cluster within tol of it (value: the mean of its first
    ball_clusters ball whose geometric multiplicity falls short of the
    algebraic one). The distance is negative inside the boundary.

    A ball's mean lies within match_tol of its first member, and its
    algebraic multiplicity counts the cell's eigenvalues within match_tol
    of the mean. So a ball can be defective only when another eigenvalue of
    its cell lies within 2 match_tol of a member; otherwise it is one simple
    eigenvalue, which is semisimple. One pairing test over the cells with
    an eigenvalue within tol of the boundary picks the cells that take the
    clustering and the rank test."""
    cells = np.asarray(cells, dtype=int)
    eigs = family.eigenvalues[cells]
    dist = distance(eigs)
    worst = np.fmax.reduce(dist, axis=1, initial=-np.inf)
    faults = {i: (float(worst[i]), True) for i in np.flatnonzero(worst > tol)}
    near = np.abs(dist) <= tol
    rows = np.flatnonzero(near.any(axis=1) & (worst <= tol))
    # the NaN past each active block pairs with nothing
    gaps = np.abs(eigs[rows, :, None] - eigs[rows, None, :])
    each = np.arange(eigs.shape[1])
    gaps[:, each, each] = np.inf
    paired = (near[rows, :, None] & (gaps <= 2.0 * match_tol)).any(axis=(1, 2))
    for i in rows[paired]:
        block = family.block(cells[i])
        for rep, _ in linalg.ball_clusters(eigs[i, near[i]], match_tol):
            alg, geo = linalg.semisimple_multiplicities(
                block, rep, match_tol, eigs=eigs[i, : block.shape[0]]
            )
            if geo < alg:
                faults[i] = (rep, False)
                break
    return [(int(cells[i]), value, crosses) for i, (value, crosses) in sorted(faults.items())]


def radius_verdict(rho_star, worst, margin):
    """(verdict, witnesses) for rho* = ess-sup of the pointwise spectral
    radii, attained on the cell `worst`: NotStable iff rho* >= 1 (up to
    roundoff), Inconclusive inside the band [1 - margin, 1), Stable below it.
    A witness names `worst`."""
    if margin <= linalg.RADIUS_ROUNDOFF:
        raise DomainError("margin must exceed the spectral-radius roundoff floor")
    if rho_star >= 1.0 - linalg.RADIUS_ROUNDOFF:
        return NOT_STABLE, (Witness(worst, rho_star, "pointwise-spectral-radius"),)
    if rho_star >= 1.0 - margin:
        return INCONCLUSIVE, (Witness(worst, rho_star, "spectral-radius-in-margin-band"),)
    return STABLE, ()


def _time_points(times):
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ShapeError("times must be nonempty")
    if np.any(times < 0):
        raise DomainError("times must be nonnegative")
    if np.any(np.diff(times) < 0):
        raise DomainError("times must be nondecreasing")
    return times


def sample_at(family, t):
    """The family e^{tA(s)} at one time t >= 0: one linalg.expm_stack call per
    active-dimension group of the positive-weight cells, from the family's
    factors, identity on the padding and on the zero-weight cells (null
    sets, never exponentiated).
    Each block is bit for bit linalg.expm(family.block(c), t). Its eigenvalue
    table is e^{t lambda} over the family's, by spectral mapping, so no
    exponential is eigensolved.

    Raises NumericalFailureError when an exponential overflows.
    """
    t = float(t)
    if t < 0:
        raise DomainError("times must be nonnegative")
    mats = np.tile(np.eye(family.dim, dtype=complex), (family.space.n_cells, 1, 1))
    for ids, blocks, factor in family.groups():
        k = blocks.shape[-1]
        mats[ids, :k, :k] = linalg.expm_stack(blocks, [t], factor=factor)[0]
    sample = PointwiseFamily(space=family.space, dim=family.dim, matrices=mats,
                             active_dims=family.active_dims)
    table = np.exp(t * family.eigenvalues)
    table.setflags(write=False)
    vars(sample)["eigenvalues"] = table  # seeds the cached property
    return sample


def trajectory(family, times):
    """sample_at(family, t) for each of the nondecreasing `times`; raises
    NumericalFailureError when an exponential overflows."""
    return [sample_at(family, t) for t in _time_points(times)]


def orbit_norms(family, times, probes=(), p=2.0, cells=None, floor=None, below=None):
    """(norms, probe_norms) on the grid `times`: norms[k, c] = ||e^{t_k A(s_c)}||
    on the active block and probe_norms[k, j] = ||e^{t_k A} f_j||_p for the
    probe f_j restricted to the active blocks. Each active-dimension group
    takes one linalg.expm_norms call over the whole grid, with its slice of
    the family's factors, which keeps no exponential beyond its own time
    slices and writes into the full arrays.

    Only the positive-weight cells among `cells` (default: all of them) are
    computed: a zero-weight cell is a null set, so its exponential is never
    formed and its column of norms (and its share of every probe orbit)
    reads 0. Each computed column is bit for bit the same whichever other
    cells are computed with it.

    Without `floor` every computed norm is exact. With `floor` (a float
    array of shape (len(times),) or (1,), see linalg.expm_norms), carried
    across the groups and updated in place, the caller reads only the
    maximum over the computed cells per time or over the whole grid: that
    maximum, and the floor after the call, are bit for bit those of the
    exact norms, and an entry that cannot reach it holds an upper bound
    instead. With a threshold `below` (a float, or one per cell, where 0
    asks nothing of a cell), with or without `floor`, whether a cell has a
    norm below its threshold is also read exactly from the returned norms,
    and without `floor` every norm of a cell that has one (see
    linalg.expm_norms).

    A probe-free call with `floor` computes less. Every norm at t = 0 is
    1.0, e^{0A} = I exactly on every route, and none is computed there. A
    closed-form cell with Re lambda < 0 whose certified bound
    (linalg.closed_form_bounds) stays below the floor at every time, and
    below its threshold at some t > 0 when it has one, is skipped: its
    column holds the bound, and its group is factored only when a pass
    visits it (the bound of a cell with Re lambda >= 0 is at least 1, so
    it takes the kernel). With a (1,) floor the pass visits first the group
    of the closed-form cell of largest bound, then screens the others
    against the floor it left. Within a group the kernel forms an
    eigenbasis cell's e^{tA} only at the times where its certified bound
    (linalg.eigenbasis_bounds) can reach the floor, the pairs of largest
    bound first (linalg.expm_norms); the others hold the bound.

    Raises DomainError when a probe is zero on the active blocks and
    NumericalFailureError naming the earliest time at which any cell's
    exponential is not finite, after every group has been tried up to that
    time: a cell whose bound is not finite is never skipped.
    """
    times = _time_points(times)
    space, dim = family.space, family.dim
    if any(f.dim != dim or not space.compatible_with(f.space) for f in probes):
        raise ShapeError("family and function live on different spaces")
    vectors = np.zeros((len(probes), space.n_cells, dim), dtype=complex)
    for j, f in enumerate(probes):
        vectors[j] = family.restrict(f).vectors
    for j, base in enumerate(_cell_lp(space, linalg.vector_norms(vectors), p)):
        if base == 0.0:
            raise DomainError(f"probe {j} has zero norm on the active blocks")
    norms = np.zeros((times.size, space.n_cells))
    cell_norms = np.zeros((times.size, len(probes), space.n_cells))
    if below is not None:
        below = np.broadcast_to(np.asarray(below, dtype=float), (space.n_cells,))
    visits = list(family._visits(cells))
    screen = floor is not None and not probes and bool(visits)
    start = 0
    if screen:
        start = int(np.searchsorted(times, 0.0, side="right"))
        chosen = np.concatenate([family._stacks[group][0][sub] for group, sub in visits])
        norms[:start, chosen] = 1.0
        top = floor[:start]
        np.maximum(top, 1.0, out=top)
        # every column holds its bound until the kernel overwrites it; a
        # cell off the closed form or with Re lambda >= 0 holds inf
        envelope = family._envelope.take(chosen)
        decaying = envelope.closed & (envelope.lam.real < 0)
        norms[start:, chosen] = np.inf
        norms[start:, chosen[decaying]] = linalg.closed_form_bounds(
            envelope.take(decaying), times[start:])
        if floor.size == 1 and start < times.size and len(visits) > 1 and envelope.closed.any():
            sup = np.where(envelope.closed, norms[start:, chosen].max(axis=0), -np.inf)
            # the bound of a cell with Re lambda >= 0 grows with t
            rest = envelope.closed & ~decaying
            sup[rest] = linalg.closed_form_bounds(envelope.take(rest), times[-1:])[0]
            ends = np.cumsum([sub.size for _, sub in visits])
            visits.insert(0, visits.pop(int(np.searchsorted(ends, sup.argmax(), side="right"))))
    failure = None
    for group, sub in visits:
        ids, blocks = family._stacks[group]
        ids = ids[sub]
        count = times.size if failure is None else int(np.searchsorted(times, failure.time))
        if screen:
            bound = norms[start:count, ids]
            low = (bound < (floor[0] if floor.size == 1 else floor[start:count, None])).all(axis=0)
            if below is not None:
                low &= (bound < below[ids]).any(axis=0) | (below[ids] <= 0.0)
            sub, ids = sub[~low], ids[~low]
            if start == count or not sub.size:
                continue
        try:
            linalg.expm_norms(
                blocks[sub], times[start:count], vectors[:, ids, : blocks.shape[-1]],
                floor=floor if floor is None or floor.size == 1 else floor[start:count],
                below=None if below is None else below[ids],
                out=(norms[start:count], cell_norms[start:count], ids),
                factor=family.factor(group).take(sub),
            )
        except NumericalFailureError as exc:
            if exc.time is None:
                raise
            failure = exc
    if failure is not None:
        raise failure
    return norms, _cell_lp(space, cell_norms, p)


def norm_curves(family, times):
    """norms[k, c] = ||e^{t_k A(s_c)}|| on the active block, every entry exact
    (no floor), 0 on zero-weight cells."""
    return orbit_norms(family, times)[0]


def rule_matrices(rule, points):
    """(len(points), n, n) stack of A(s) = sum_k rule[k] s^k at each of the
    real `points`, by Horner's scheme on the (d+1, n, n) coefficients."""
    s = np.asarray(points, dtype=float)[:, None, None]
    out = np.broadcast_to(rule[-1], (s.shape[0],) + rule.shape[1:])
    for coeff in rule[-2::-1]:
        out = out * s + coeff
    return np.array(out, dtype=complex)


def refine_family(family):
    """Refine the underlying space and re-sample the generator rule at the
    new labels."""
    if family.rule is None:
        raise DomainError("refining a family requires its generator rule")
    space = family.space.refine()
    return PointwiseFamily(
        space=space, dim=family.dim, matrices=rule_matrices(family.rule, space.labels),
        rule=family.rule,
    )


def random_probes(family, count, seed):
    """Reproducible random probe functions, supported on the active blocks."""
    if count < 1:
        raise DomainError("need at least one probe")
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(count):
        v = rng.standard_normal((family.space.n_cells, family.dim)) + 1j * rng.standard_normal(
            (family.space.n_cells, family.dim)
        )
        f = BochnerFunction(space=family.space, dim=family.dim, vectors=v)
        probes.append(family.restrict(f))
    return probes


def time_grid(horizon, points, log_spacing=True):
    """Default analysis grid on [0, horizon], always including both ends.

    Log spacing spreads points geometrically from horizon/1000 up to the
    horizon (with 0 prepended), which resolves both the short-time transient
    and the long-time decay.
    """
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    if points < 2:
        raise DomainError("need at least two grid points")
    if not log_spacing:
        return np.linspace(0.0, horizon, points)
    body = np.geomspace(horizon * 1e-3, horizon, points - 1)
    # a one-point geomspace holds only its start
    body[-1] = horizon
    return np.concatenate([[0.0], body])
