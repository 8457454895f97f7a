"""Dense complex matrix kernels.

Matrix exponential of a stack of blocks over a grid of times. A stack's
Factor (factorize) sorts its blocks into three routes and holds what each
reuses across times and calls; a PointwiseFamily builds one per
active-dimension group on first use and passes slices of it, and a bare
stack builds its own. One generator, _runs, chunks each route and drops the
runs that are not finite:

* closed form: a block lambda I + N with N strictly upper triangular, real
  and entrywise nonnegative takes the finite sum e^{i t Im lambda} R(t),
  with the real factor R(t) = e^{t Re lambda} sum_{j<k} t^j/j! N^j accurate
  entry by entry, formed from the nonzero entries of the powers of N only
  (_Band): work in proportion to their count, k(k+1)/2 for a shift;
* eigenbasis (module eigenbasis): every other block whose eigenvector
  matrix V has cond2(V) <= EIGENBASIS_COND takes V e^{t Lambda} V^-1 (Moler
  & Van Loan, SIAM Review 2003, method 14): one eigendecomposition and one
  inverse per block serve every time and call, and each (time, block) pair
  costs one k x k product;
* Pade (module pade): every remaining block takes scaling-and-squaring with
  diagonal Pade approximants after shifting the mean imaginary part of the
  diagonal out of tA.

The two route modules load the first time a stack holds a block for them,
so a run whose blocks all take the closed form compiles neither.

e^{0 A} is exactly I on every route. expm_stack stores e^{tA} from the runs
(a single matrix is a stack of one at one time), expm_norms ||e^{tA}|| and
||e^{tA} v|| (from R alone on the closed-form route: the phase has modulus
1). A block's result is bit for bit the same alone or in any stack and time
grid. Also spectral functionals on top of the LAPACK dense eigensolver (also
run on stacks), Cesaro time averages of a semigroup (exact for any generator
through one exponential of an augmented matrix), and the mean ergodic
projection onto the kernel of a generator.

Matrices are plain complex ndarrays; the operator norm is the 2-norm
(largest singular value) throughout. norm2 takes it as the square root of
the largest eigenvalue of the Gram matrix C^H C (symmetric or Hermitian
eigensolver, real for a real matrix) of the matrix scaled by a power of
two, C = 2^-e A, one stacked call per stack. A norm pass is either exact or
reads a floor: a caller that reads only a supremum of the norms passes one
(_Floor), each norm is bracketed from its Gram matrix, and the eigensolve
runs only where the bracket can reach the floor (expm_norms; the discrete
power norms read e^{ntA} there too).
Before any kernel runs, a closed-form block's norms are bounded from its
lambda and N alone (closed_form_bounds), so a caller can skip a block that
cannot reach the floor, and an eigenbasis block's from its factors
(eigenbasis.eigenbasis_bounds: the smaller of a log-norm and a
spectral-projector bound), so a floor pass forms only the (time, block)
products that can reach the floor, those of largest bound first.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    InvalidMatrixError,
    NumericalFailureError,
    UnboundedSemigroupError,
)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: computed spectral radii and norms of unitary orbits land at 1 +- a few
#: ulps; the classifiers treat values at least 1 - RADIUS_ROUNDOFF as >= 1.
RADIUS_ROUNDOFF = 1e-12

#: the rank test of semisimple_multiplicities counts singular values up to
#: this multiple of the eigenvalue cluster's radius as zero.
CLUSTER_RANK_FACTOR = 2.0

#: it also counts singular values up to this fraction of max(1, largest
#: singular value) as zero, whatever the cluster's radius.
RANK_RTOL = 1e-8


def as_matrix(a):
    """Validate and return a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InvalidMatrixError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidMatrixError("matrix contains NaN or Inf entries")
    return m


def norm2(a):
    """Operator 2-norm (largest singular value) of a matrix, as a float, or
    of each matrix of a stack (..., n, n), as an array; a real input stays
    real.

    Each matrix A is scaled to C = 2^-e A, with e the binary exponent of its
    largest |Re| or |Im| entry, and its norm is 2^e sqrt(lambda_max(C^H C))
    from the symmetric or Hermitian eigensolver; the power-of-two scaling is
    exact and keeps the Gram matrix clear of overflow and underflow.
    """
    m = np.asarray(a)
    real = not np.iscomplexobj(m)
    m = m.astype(float if real else complex, copy=False)
    if m.size == 0:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    c, e = _scaled(m, (-2, -1))
    norms = _top(_gram(c), e[..., 0, 0])
    return float(norms) if m.ndim == 2 else norms


def _gram(c):
    # the Gram matrices C^H C of a (..., k, k) stack, real for a real stack
    return (c.conj() if np.iscomplexobj(c) else c).swapaxes(-2, -1) @ c


def _top(gram, e):
    # norm2 of the matrices 2^e C from the Gram matrices of C: 2^e
    # sqrt(lambda_max(gram)), one LAPACK call per matrix, so a matrix's bits
    # do not depend on the stack
    return np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[..., -1]), e)


#: relative slack per unit of dimension k that widens every certified norm
#: bracket on both sides (k times this, on the norm or on its square): it
#: covers the rounding of the eigensolver behind norm2 and of the bounds
#: themselves, so that lo <= norm2(F) <= hi holds for the floats norm2
#: returns, not only for the exact norm.
BRACKET_SLACK = 16 * _EPS


def _bracket(gram, e):
    """(lo, hi) with lo <= norm2(F) <= hi for each matrix F = 2^e C of a stack,
    from the Gram matrices G of C (_scaled, _gram). lo^2 is the larger of
    the largest diagonal entry G_jj (a squared column norm of C) and the
    Rayleigh quotient of G at its column j; hi^2 is the Frobenius norm of
    G, which equals lambda_max(G) at rank one. Both are widened by
    BRACKET_SLACK k. A 1 x 1 matrix is its own bracket: lo = hi = norm2."""
    k = gram.shape[-1]
    if k == 1:
        # LAPACK returns the one (real) entry of a 1 x 1 Hermitian matrix as is
        norms = np.ldexp(np.sqrt(gram[..., 0, 0].real), e)
        return norms, norms
    g = gram.reshape(-1, k, k)
    each = np.arange(g.shape[0])
    diag = g[:, np.arange(k), np.arange(k)].real
    j = diag.argmax(axis=1)
    col = g[each, :, j]
    num = (col.conj() * (g @ col[..., None])[..., 0]).real.sum(axis=1)
    den = (col.conj() * col).real.sum(axis=1)
    # den >= G_jj^2 >= 1/16 unless C = 0, whose bracket is [0, 0]
    rayleigh = num / np.maximum(den, _TINY)
    # the squared Frobenius norm: one real dot product per matrix over the
    # real and imaginary parts of its entries
    flat = g.view(float).reshape(g.shape[0], 1, -1)
    frobenius = np.sqrt((flat @ flat.swapaxes(1, 2))[:, 0, 0])
    slack = BRACKET_SLACK * k
    lo = np.sqrt(np.maximum(diag[each, j], rayleigh) * (1.0 - slack)).reshape(e.shape)
    hi = np.sqrt(frobenius * (1.0 + slack)).reshape(e.shape)
    return np.ldexp(lo, e), np.ldexp(hi, e)


class _Floor:
    """The floor a caller reads of the 2-norms of a stack, updated in place.

    `values` is the largest exact norm or certified lower bound seen so far
    at each time (a (T,) array, for a caller that reads a per-time
    supremum) or over every time (a (1,) array, for one that reads only the
    overall maximum). A matrix whose upper bound hi falls below the floor of
    its time can change neither supremum, so it keeps hi and its exact norm
    is never computed.

    Each call takes matrices at times `steps` of blocks `cols`, broadcast to
    one shape, with every (time, block) pair at most once.
    """

    def __init__(self, values):
        self.values = values

    def _lift(self, norms, steps, cols):
        # raise the floor of each time (or the one floor) to the largest of
        # `norms` there: a (time, block) grid holds each pair once
        if not norms.size:
            return
        if self.values.size == 1:
            self.values[0] = max(self.values[0], norms.max())
            return
        first = int(steps.min())
        # norms are >= 0, so 0 is the neutral element of the maximum
        grid = np.zeros((int(steps.max()) - first + 1, int(cols.max()) + 1))
        grid[steps - first, cols] = norms
        top = self.values[first : first + grid.shape[0]]
        np.maximum(top, grid.max(axis=1), out=top)

    def order(self, steps, hi):
        """The order in which to form matrices with upper bounds hi at times
        `steps` (nondecreasing), so that the largest come first: in
        decreasing hi over every time for a (1,) floor; for a per-time floor
        the largest of each time, then the second largest of each time, and
        so on."""
        if self.values.size == 1:
            return np.argsort(-hi, kind="stable")
        by_time = np.lexsort((-hi, steps))
        rank = np.arange(hi.size) - np.searchsorted(steps, steps)
        return by_time[np.argsort(rank, kind="stable")]

    def need(self, lo, hi, steps, cols):
        """Which matrices, with certified brackets lo <= norm <= hi, need
        their exact norm; records the brackets."""
        steps, cols = (np.broadcast_to(x, lo.shape) for x in (steps, cols))
        self._lift(lo, steps, cols)
        return ~(hi < self.values[steps if self.values.size > 1 else 0])

    def norms(self, gram, e, steps, cols):
        """2-norms of the matrices 2^e C with Gram matrices `gram` (_gram):
        bit for bit norm2 where need() asks for it (one eigensolve per such
        matrix, from the Gram rows already formed), the upper bound hi
        elsewhere."""
        lo, hi = _bracket(gram, e)
        need = self.need(lo, hi, steps, cols)
        if gram.shape[-1] == 1 or not need.any():
            return hi
        # a run that needs every norm solves its Gram stack in place of a copy
        hi[need] = exact = _top(gram, e).reshape(-1) if need.all() else _top(gram[need], e[need])
        steps, cols = (np.broadcast_to(x, need.shape)[need] for x in (steps, cols))
        self._lift(exact, steps, cols)
        return hi


def _scaled(m, axis):
    """(c, e) with m = 2^e c exactly, e the binary exponent of the largest |Re|
    or |Im| entry along `axis` (kept as length-1 axes): squares of c cannot
    overflow, and those that underflow are too small to move a sum."""
    if not np.iscomplexobj(m):
        _, e = np.frexp(np.abs(m).max(axis=axis, keepdims=True))
        return np.ldexp(m, -e), e
    _, e = np.frexp(np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=axis, keepdims=True))
    c = np.empty_like(m)
    c.real = np.ldexp(m.real, -e)
    c.imag = np.ldexp(m.imag, -e)
    return c, e


def vector_norms(x):
    """Euclidean norms of the vectors along the last axis of x, each scaled by
    a power of two (_scaled) before it is squared: a norm overflows or
    underflows only when the double range cannot hold it."""
    c, e = _scaled(x, -1)
    return np.ldexp(np.linalg.norm(c, axis=-1), e[..., 0])


#: largest size in bytes of the complex matrices of one eigenbasis or Pade
#: chunk of _runs (at least one (time, block) pair), which bounds the memory
#: of their temporaries. A closed-form chunk holds at least one block's
#: (k, k, k) power basis, and its time passes may use as many bytes as its
#: real basis.
STACK_BYTES = 1 << 16


def _closed_form_blocks(a, dims=None):
    """(m,) booleans: which blocks of a (m, n, n) stack are lambda I + N with
    N strictly upper triangular, real and entrywise nonnegative, on their
    leading dims[b] x dims[b] block (default: n): lambda all along the
    diagonal, real nonnegative entries above it, zeros below."""
    n = a.shape[-1]
    inside = np.arange(n) < (n if dims is None else np.asarray(dims)[:, None])
    block = inside[..., :, None] & inside[..., None, :]
    bad = (np.tril(block, -1) & (a != 0)) | (np.triu(block, 1) & ((a.imag != 0) | (a.real < 0)))
    off = inside & (np.diagonal(a, 0, 1, 2) != a[:, :1, 0])
    return ~bad.any(axis=(1, 2)) & ~off.any(axis=-1)


class Envelope(NamedTuple):
    """What closed_form_bounds reads of m blocks, none of it time-dependent:
    `closed` (m,) marks the closed-form blocks lambda I + N
    (_closed_form_blocks), `dims` holds their sizes k and `lam` their
    lambda; `e` is the binary exponent that scales the largest entry of N
    into [1, 2), as _power_basis scales it, and `log_nu` is log nu' for
    nu' = sqrt(||N'||_1 ||N'||_inf) >= ||N'||_2, N' = 2^-e N (-inf for
    N = 0). Meaningless off the closed form."""

    closed: np.ndarray
    dims: np.ndarray
    lam: np.ndarray
    e: np.ndarray
    log_nu: np.ndarray

    def take(self, sel):
        """The envelope of blocks `sel`."""
        return Envelope(*(x[sel] for x in self))


def envelope(a, dims=None):
    """The Envelope of a (m, n, n) complex stack whose block b is its leading
    dims[b] x dims[b] block (default: n), one pass over the whole stack."""
    a = np.asarray(a, dtype=complex)
    m, n = a.shape[0], a.shape[-1]
    dims = np.full(m, n) if dims is None else np.asarray(dims)
    inside = np.arange(n) < dims[:, None]
    upper = np.triu(inside[:, :, None] & inside[:, None, :], 1)
    re = a.real
    # the largest entry, column sum and row sum of N, which 2^-e scales
    # exactly
    top = np.maximum.reduce(re, axis=(1, 2), where=upper, initial=0.0)
    e = np.where(top > 0, np.frexp(top)[1] - 1, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norm1, norm_inf = (np.ldexp(np.add.reduce(re, axis=axis, where=upper).max(axis=1), -e)
                           for axis in (1, 2))
        log_nu = 0.5 * np.log(norm1 * norm_inf)
    return Envelope(_closed_form_blocks(a, dims), dims, a[:, 0, 0], e, log_nu)


def closed_form_bounds(env, t):
    """(len(t), m) certified upper bounds U on the 2-norms of e^{tA} for m
    blocks of Envelope `env`: U(t) = e^{t Re lambda} sum_{j<k} (t nu)^j / j!
    on the closed-form blocks lambda I + N, with nu = 2^e nu' >= ||N||_2,
    and +inf on the others and where t Im lambda is not finite (where the
    kernel names a failure).

    Term j is the weight w_j of _weights times nu'^j, one exp of its
    logarithm. w_j is first raised to at least the smallest normal double,
    since a subnormal weight rounds to an absolute error, and the logarithm
    is widened by BRACKET_SLACK times 2k plus the magnitudes of its log
    terms, with j k for the rounding of nu' and of the powers of N'. So U
    bounds norm2 of the computed R(t) and of expm_stack, not only the exact
    norm. U(0) is exactly 1, the norm of e^{0 A} = I on every route.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    bounds = np.full((t.size, env.closed.size), np.inf)
    closed = np.flatnonzero(env.closed)
    if closed.size:
        env = env.take(closed)
        k, e, log_nu = env.dims[:, None], env.e[:, None], env.log_nu[:, None]
        j = np.arange(int(k.max()))
        # the terms j >= 1 live where N is not zero, and nu' >= 1 there
        nonzero = log_nu > -np.inf
        live = (j < k) & ((j == 0) | nonzero)
        j_log_nu = j * np.where(nonzero, log_nu, 0.0)
        log_t = np.log(np.where(t > 0, t, 1.0))[:, None, None]
        lgam = np.array([math.lgamma(i + 1) for i in j])
        with np.errstate(over="ignore", invalid="ignore"):
            rate = (t[:, None] * env.lam.real)[:, :, None]
            # the log weight of _weights, (T, q, n), raised to the smallest
            # normal, then times nu'^j, widened: one array, updated in place
            x = rate + j * log_t
            x += j * e * math.log(2.0) - lgam
            np.maximum(x, math.log(_TINY), out=x)
            x += j_log_nu + BRACKET_SLACK * (
                lgam + 2 * k + np.abs(j_log_nu) + j * (np.abs(e) * math.log(2.0) + k))
            x += BRACKET_SLACK * np.abs(rate)
            x += BRACKET_SLACK * j * np.abs(log_t)
            np.exp(x, out=x)
            x[:, ~live] = 0.0
            part = x.sum(axis=-1)
            part[~np.isfinite(t[:, None] * env.lam.imag)] = np.inf
        bounds[:, closed] = part
    bounds[t == 0] = 1.0
    return bounds


def _power_basis(a):
    # (offsets, powers) of (q, k, k) closed-form blocks lambda I + N. With 2^e
    # the power of two that scales the largest entry of N into [1, 2):
    # powers[:, j] = (2^-e N)^j and offsets[:, j] = j e ln 2 - ln j! is the
    # time-free part of the log weight of term j.
    q, k = a.shape[0], a.shape[-1]
    diag = np.arange(k)
    nil = a.real.copy()
    nil[:, diag, diag] = 0.0
    top = nil.max(axis=(1, 2))
    e = np.where(top > 0, np.frexp(top)[1] - 1, 0)
    powers = np.empty((q, k, k, k))
    powers[:, 0] = np.eye(k)
    powers[:, 1:2] = np.ldexp(nil, -e[:, None, None])[:, None]
    # N^{h+1}, ..., N^{2h} = N^1 N^h, ..., N^h N^h
    h = 1
    while h + 1 < k:
        top_j = min(2 * h, k - 1)
        powers[:, h + 1 : top_j + 1] = powers[:, 1 : top_j - h + 1] @ powers[:, h : h + 1]
        h = top_j
    log_factorials = np.array([math.lgamma(j + 1) for j in range(k)])
    return np.outer(e, diag) * math.log(2.0) - log_factorials, powers


class _Band(NamedTuple):
    """The power basis P_j of q closed-form k x k blocks (_power_basis), kept
    on its nonzero entries. `offsets` (q, k) are the time-free log weights,
    `peak` and `fro` (q, k) the largest entry (0 for a zero power) and the
    Frobenius norm of each power: for the weights w of R(t) =
    sum_j w_j P_j every term is nonnegative, so max_j w_j peak_j <= ||R||
    <= sum_j w_j fro_j. Each nonzero entry of a power is one term: `val`
    its value, `pos` the flat index b k^2 + r k + c of the entry of R it
    adds to, `src` the flat index b k + j of its weight. The terms run by
    rank, the place of a term among the nonzero terms of its entry in
    increasing j, and `starts` bounds each rank, in which no entry occurs
    twice."""

    offsets: np.ndarray
    peak: np.ndarray
    fro: np.ndarray
    pos: np.ndarray
    src: np.ndarray
    val: np.ndarray
    starts: np.ndarray

    def take(self, sel):
        """The band of blocks `sel` (sorted distinct positions), renumbered."""
        q, k = self.offsets.shape
        if sel.size == q:
            return self
        to = np.full(q, -1)
        to[sel] = np.arange(sel.size)
        to = to[self.pos // (k * k)]
        keep = to >= 0
        to = to[keep]
        # the ranks that keep a term; a rank past the last kept one is empty
        starts = np.concatenate(([0], np.cumsum(keep)))[self.starts]
        return _Band(
            self.offsets[sel], self.peak[sel], self.fro[sel],
            to * (k * k) + self.pos[keep] % (k * k), to * k + self.src[keep] % k,
            self.val[keep], starts[: np.count_nonzero(starts < starts[-1]) + 1],
        )


def _band(a):
    # the _Band of (q, k, k) closed-form blocks, from their dense power basis
    k = a.shape[-1]
    offsets, powers = _power_basis(a)
    # the nonzero terms by block, entry, then increasing j (nonzero on a bool
    # mask gives the same indices at half the cost of the float basis)
    b, r, c, j = np.nonzero((powers != 0).transpose(0, 2, 3, 1))
    pos = (b * k + r) * k + c
    index = np.arange(pos.size)
    new = np.concatenate(([True], pos[1:] != pos[:-1]))
    rank = index - np.maximum.accumulate(np.where(new, index, 0))
    order = np.argsort(rank, kind="stable")
    val, peak = powers[b, j, r, c][order], powers.max(axis=(2, 3))
    # the Frobenius norms from the basis squared in place, its last use
    fro = np.sqrt(np.square(powers, out=powers).sum(axis=(2, 3)))
    # 32-bit term indices: a family keeps its bands for as long as it lives
    return _Band(
        offsets, peak, fro, pos[order].astype(np.int32), (b * k + j)[order].astype(np.int32),
        val, np.concatenate(([0], np.cumsum(np.bincount(rank)))),
    )


def _weights(a, t, band):
    # (T, q, k) weights e^{t Re lambda} (2^e t)^j / j! of the terms of R(t)
    # for (q, k, k) closed-form blocks and their _Band, each one exp of its
    # logarithm; a zero power gets a zero weight
    j = np.arange(a.shape[-1])
    log_w = (
        (t[:, None] * a[:, 0, 0].real)[:, :, None]
        + np.where(j > 0, j * np.log(t)[:, None, None], 0.0)
        + band.offsets
    )
    return np.where(band.peak > 0, np.exp(log_w), 0.0)


def _real_factor(a, t, band, weights=None):
    # R(t) = sum_{j<k} e^{t Re lambda} t^j/j! N^j for (q, k, k) blocks
    # passing _closed_form_blocks, at every time of t: (T, q, k, k) reals,
    # with e^{t(lambda I + N)} = e^{i t Im lambda} R(t). N is scaled exactly
    # by a power of two 2^-e, and each weight e^{t Re lambda} (2^e t)^j / j!
    # is one exp of its logarithm (_weights, unless given), so neither a
    # weight nor a power overflows or underflows on its own account. Only
    # the nonzero terms of the _Band are formed, one rank at a time, so each
    # entry adds its terms in increasing j; the terms a dense sum would add
    # besides are exact zeros, whose +0 changes no nonnegative partial sum.
    # So every entry is accurate relative to itself, and its bits depend on
    # its block and time alone.
    if weights is None:
        weights = _weights(a, t, band)
    q, k = a.shape[0], a.shape[-1]
    w = weights.reshape(-1, q * k)
    acc = np.zeros((w.shape[0], q * k * k))
    for lo, hi in zip(band.starts[:-1].tolist(), band.starts[1:].tolist()):
        acc[:, band.pos[lo:hi]] += w[:, band.src[lo:hi]] * band.val[lo:hi]
    return acc.reshape(-1, q, k, k)


class Factor(NamedTuple):
    """What the kernels keep of a (m, k, k) stack across calls (factorize):
    `closed` (m,) marks the closed-form blocks, and `bands` holds their
    _Band per chunk of consecutive closed-form blocks whose complex power
    basis fits STACK_BYTES (at least one block); `well` (m,) marks the
    blocks on the eigenbasis route, and `eigen` holds their eigenbasis.Eigen
    (eigenbasis._eigenbasis), None when every block takes the closed form.
    The other blocks take Pade, from the matrices alone. Every array of a
    factorize result is read-only."""

    closed: np.ndarray
    bands: tuple
    well: np.ndarray
    eigen: tuple | None

    def take(self, sub):
        """The factor of the sub-stack a[sub], for sorted distinct positions
        `sub`: each block's arrays are its own, so slicing them gives the
        bits factorize(a[sub]) would."""
        if sub.size == self.closed.size:
            return self
        closed, well = self.closed[sub], self.well[sub]
        sel = (np.cumsum(self.closed) - 1)[sub[closed]]
        bands, first = [], 0
        for band in self.bands:
            q = band.offsets.shape[0]
            local = sel[(sel >= first) & (sel < first + q)] - first
            if local.size:
                bands.append(band.take(local))
            first += q
        eigen = None
        if well.any():
            at = (np.cumsum(self.well) - 1)[sub[well]]
            eigen = self.eigen._make(x[at] for x in self.eigen)
        return Factor(closed, tuple(bands), well, eigen)


def factorize(a):
    """The Factor of a (m, k, k) complex stack: the closed-form blocks'
    power basis on its band, one stacked eigendecomposition of the others.
    LAPACK factors each matrix on its own, so a block's arrays do not
    depend on the stack. Raises NumericalFailureError when the eigensolver
    does not converge."""
    a = np.asarray(a, dtype=complex)
    closed = _closed_form_blocks(a)
    part = a[closed]
    size = max(1, STACK_BYTES // (16 * a.shape[-1] ** 3))
    bands = tuple(_band(part[first : first + size]) for first in range(0, len(part), size))
    well = np.zeros(closed.shape, dtype=bool)
    eigen = None
    rest = np.flatnonzero(~closed)
    if rest.size:
        from . import eigenbasis

        ok, eigen = eigenbasis._eigenbasis(a[rest])
        well[rest[ok]] = True
    for x in (closed, well, *(x for band in bands for x in band), *(eigen or ())):
        x.setflags(write=False)
    return Factor(closed, bands, well, eigen)


def _runs(a, t, select=None, factor=None):
    """(steps, cols, f, angle) runs covering every (time, block) pair of a
    (m, k, k) stack over the grid t once, with e^{tA} = f e^{i angle}, from
    the stack's Factor (factorize(a) unless given):

    * the closed-form blocks run per band of the factor (q blocks whose
      complex power basis would fit STACK_BYTES, at least one block), in
      passes of (T, q, k, k) temporaries within max(STACK_BYTES, q k^3
      doubles) that form R(t) from the band (_real_factor): steps is a
      (T, 1) column of time indices, cols the q blocks, f = R and
      angle = t Im lambda, (T, q).
    * the blocks with cond2(V) <= EIGENBASIS_COND run through
      eigenbasis._eigen_chunk, the rest through pade._pade_chunk, each in
      time-major chunks of (time, block) pairs within STACK_BYTES (at least
      one pair): steps and cols index the pairs, f is e^{tA} (pairs, k, k),
      angle is None.

    With `select`, a closed-form pass first calls select(steps, cols, lo,
    hi) with certified bounds lo <= norm2(R) <= hi of its (T, q) pairs,
    taken from the weights before R is formed (slack as in _bracket), and
    forms R only at the times where select returns True for some block (or
    where t Im lambda is not finite); the other times are not yielded. The
    eigenbasis pairs are screened the same way with lo = 0 and hi their
    certified bound (eigenbasis.eigenbasis_bounds), pair by pair: they are visited in
    the order select.order(steps, hi) gives, and before each chunk select
    is called on every pair not yet formed, so a chunk holds only pairs it
    keeps, and a floor that the earlier chunks raised drops the rest.

    Only runs whose every e^{tA} is finite are yielded; the errstate that
    silences the overflow of the others stays in force while a consumer
    handles a run. After the last run, raises NumericalFailureError naming
    the earliest time at which a result is not finite: the true e^{tA} of a
    growing matrix can exceed the double range at long times. An
    eigensolver that does not converge raises NumericalFailureError too.
    """
    k = a.shape[-1]
    if factor is None:
        factor = factorize(a)
    slack = BRACKET_SLACK * k
    # the (time, block) pairs of one chunk of complex k x k matrices
    size = max(1, STACK_BYTES // (16 * k * k))

    def pairs(m):
        # (steps, sub): the (time, block) pairs of m blocks over t, time-major
        for start in range(0, t.size * m, size):
            yield np.divmod(np.arange(start, min(start + size, t.size * m)), m)

    def screened(ids, bounds):
        # (steps, sub): the pairs of the eigenbasis blocks `ids` that select
        # keeps, in select.order of their time-major bounds; select sees the
        # pairs left again before each chunk
        at = select.order(np.arange(bounds.size) // ids.size, bounds)
        (steps, sub), hi = np.divmod(at, ids.size), bounds[at]
        while steps.size:
            keep = select(steps, ids[sub], np.zeros(hi.size), hi)
            steps, sub, hi = steps[keep], sub[keep], hi[keep]
            if steps.size:
                yield steps[:size], sub[:size]
            steps, sub, hi = steps[size:], sub[size:], hi[size:]

    def computed():
        ids, first = np.flatnonzero(factor.closed), 0
        for band in factor.bands:
            cols = ids[first : first + band.offsets.shape[0]]
            first += cols.size
            part = a[cols]
            step = max(k, STACK_BYTES // (8 * cols.size * k * k))
            for start in range(0, t.size, step):
                steps = np.arange(start, min(start + step, t.size))
                weights = _weights(part, t[steps], band)
                angle = t[steps, None] * part[:, 0, 0].imag
                if select is not None:
                    lo = (weights * band.peak).max(axis=-1) * (1.0 - slack)
                    hi = (weights * band.fro).sum(axis=-1) * (1.0 + slack)
                    keep = select(steps[:, None], cols, lo, hi).any(axis=1)
                    keep |= ~np.isfinite(angle).all(axis=1)
                    if not keep.any():
                        continue
                    steps, weights, angle = steps[keep], weights[keep], angle[keep]
                r = _real_factor(part, t[steps], band, weights)
                # e^{tA} = R e^{i t Im lambda} is finite where R and t Im lambda are
                finite = (np.isfinite(r).all(axis=(2, 3)) & np.isfinite(angle)).all(axis=1)
                yield steps[:, None], cols, r, angle, finite
        ids = np.flatnonzero(factor.well)
        if ids.size:
            from . import eigenbasis

            chunks = pairs(ids.size) if select is None else screened(
                ids, eigenbasis.eigenbasis_bounds(factor.eigen, t).reshape(-1))
            for steps, sub in chunks:
                f = eigenbasis._eigen_chunk(*(x[sub] for x in factor.eigen[:3]), t[steps])
                yield steps, ids[sub], f, None, np.isfinite(f).all(axis=(1, 2))
        ids = np.flatnonzero(~factor.closed & ~factor.well)
        if ids.size:
            from . import pade

            for steps, sub in pairs(ids.size):
                f = pade._pade_chunk(a[ids[sub]], t[steps])
                yield steps, ids[sub], f, None, np.isfinite(f).all(axis=(1, 2))

    bad = math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for steps, cols, f, angle, finite in computed():
            if finite.all():
                yield steps, cols, f, angle
            else:
                bad = min(bad, float(t[steps][~finite].min()))
    if bad < math.inf:
        raise NumericalFailureError(f"e^{{tA}} is not finite at t = {bad:g}", time=bad)


def expm_stack(a, t, *, factor=None):
    """e^{t A_b} for every matrix A_b of a (m, k, k) stack and every time t of
    a 1-D grid of times >= 0: a (len(t), m, k, k) array stored from _runs.

    Each block takes the route of the module docstring, and its result does
    not depend on the rest of the stack or the grid. On the Pade route it
    gets exactly the arithmetic of a one-matrix scaling-and-squaring of
    tA - i theta I, theta = Im tr(tA) / k, times the unimodular
    e^{i theta}; the shift removes the squarings a large imaginary diagonal
    would cost.

    e^{0 A} is exactly I on every route. `factor` passes the stack's Factor
    when the caller keeps one (factorize). Raises NumericalFailureError
    naming the earliest time at which a result is not finite, or when the
    eigensolver does not converge.
    """
    a = np.asarray(a, dtype=complex)
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty((t.size,) + a.shape, dtype=complex)
    for steps, cols, f, angle in _runs(a, t, None, factor):
        out[steps, cols] = f if angle is None else f * np.exp(1j * angle)[..., None, None]
    return out


def expm_norms(a, t, v, floor=None, out=None, factor=None):
    """(norms, vnorms) of e^{t A_b} for every matrix A_b of a (m, k, k) stack,
    every time t of a 1-D grid of times >= 0 and vectors v, a (P, m, k)
    stack: norms[i, b] = ||e^{t_i A_b}|| (norm2) and vnorms[i, p, b] =
    ||e^{t_i A_b} v[p, b]|| (Euclidean), taken from the runs expm_stack
    stores, so a block's norms do not depend on the rest of the stack or
    the grid. A closed-form run has e^{tA} = R e^{i t Im lambda} with R real
    and the phase unimodular, so both norms are those of R: the norm2 of the
    real matrix and |R v| from two real products of R and v, each scaled by
    a power of two first. The norms of an eigenbasis or a Pade run are those
    of its complex e^{tA}, one (k x k)(k x 1) product per vector, scaled by a
    power of two per vector before it is squared.

    Without `floor` every norms entry is exact. With `floor`, a float array
    of shape (len(t),) or (1,) that the call updates in place (see _Floor),
    the caller reads only the supremum of the norms per time or over all
    times: an entry is exact where its certified bracket can reach the
    floor, and otherwise an upper bound that stays below it. After the call
    the floor is that supremum over the stack and any earlier stacks it saw,
    bit for bit the maximum of the exact norms. A probe-free call (P = 0)
    with a floor forms R(t) of the closed-form blocks only at the times
    where one of them can still reach the floor, and the product of an
    eigenbasis block only at the pairs whose certified bound
    (eigenbasis_bounds) can, in decreasing bound per time for a per-time
    floor and over the grid for a (1,) one (_runs' select, _Floor.order);
    every other pair holds its bound.

    `out` = (norms, vnorms, ids) writes block b's results into column ids[b]
    of the given (len(t), M) and (len(t), P, M) arrays, which are returned.
    `factor` passes the stack's Factor when the caller keeps one.

    Raises NumericalFailureError naming the earliest time at which e^{tA}
    is not finite for some block, or when the eigensolver does not converge,
    as expm_stack would.
    """
    a = np.asarray(a, dtype=complex)
    t = np.asarray(t, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=complex)
    if out is None:
        out = (np.zeros((t.size, a.shape[0])), np.zeros((t.size, v.shape[0], a.shape[0])),
               np.arange(a.shape[0]))
    norms, vnorms, ids = out
    sieve = None if floor is None else _Floor(floor)
    select = None
    if sieve is not None and not v.shape[0]:
        def select(steps, cols, lo, hi):
            norms[steps, ids[cols]] = hi
            return sieve.need(lo, hi, steps, cols)
        select.order = sieve.order

    for steps, cols, f, angle in _runs(a, t, select, factor):
        at = ids[cols]
        # the advanced indices go first: (T, q, P) on the closed-form route
        norms[steps, at], vnorms[steps, :, at] = _run_norms(f, angle, v[:, cols], sieve,
                                                            steps, cols)
    return norms, vnorms


def _run_norms(f, angle, v, sieve, steps, cols):
    # (norms, probe norms) of one run of _runs, exact (norm2) or through the
    # floor `sieve`, with 0.0 for the probe norms when there are no vectors;
    # the scaled copy of f lives no longer than this call
    c, e = _scaled(f, (-2, -1))
    e = e[..., 0, 0]
    norms = _top(_gram(c), e) if sieve is None else sieve.norms(_gram(c), e, steps, cols)
    if not v.shape[0]:
        return norms, 0.0
    if angle is not None:
        return norms, _real_probe_norms(c, e, v)
    del c
    return norms, vector_norms((f[:, None] @ v.swapaxes(0, 1)[..., None])[..., 0])


#: a sum of squares of scaled probe products below this may have lost
#: squares to underflow; _real_probe_norms rescales those products.
_SQUARE_SUM_MIN = 2.0**-900


def _real_probe_norms(c, f, v):
    # |R v| for (T, q, k, k) reals R = 2^f c, scaled as norm2 scales them
    # (_scaled), and (P, q, k) complex vectors v: (T, q, P). Each vector is
    # scaled by its own 2^-g before the real products, which are then
    # exactly 2^-(f+g) R v, so no array of the products' size scales them
    # and the sum of their squares cannot overflow. Where that sum falls
    # below _SQUARE_SUM_MIN (a product that cancels), squares may have
    # underflowed: those products are formed again and rescaled by their own
    # exponent (vector_norms).
    vs, g = _scaled(v, -1)
    g = g[..., 0].T
    sq = sum(np.square(y, out=y).sum(axis=2)
             for y in (c @ part.transpose(1, 2, 0) for part in (vs.real, vs.imag)))
    norms = np.ldexp(np.sqrt(sq), f[..., None] + g)
    i, b, p = np.nonzero(sq < _SQUARE_SUM_MIN)
    if i.size:
        y = (c[i, b] @ vs[p, b][..., None])[..., 0]
        norms[i, b, p] = np.ldexp(vector_norms(y), f[i, b] + g[b, p])
    return norms


def expm(a, t=1.0):
    """e^{tA} for t >= 0: the one-matrix view of expm_stack, so exactly I at
    t = 0. Entrywise accurate for lambda I + N with N strictly upper
    triangular and nonnegative. Otherwise V e^{t Lambda} V^-1 when the
    eigenvector matrix has cond2(V) <= eigenbasis.EIGENBASIS_COND, else
    scaling and squaring; both are accurate to ~1e-13 relative for inputs
    of moderate norm, and to about t ||A|| cond2(V) times the unit roundoff
    on the eigenbasis route."""
    a = as_matrix(a)
    if t < 0:
        raise DomainError("time must be nonnegative")
    return expm_stack(a[None], [t])[0, 0]


def eigenvalues(a):
    """All n eigenvalues with multiplicity (dense QR algorithm) of a square
    matrix, or of each matrix of a (B, n, n) stack; a stack gives each
    matrix bit for bit its one-matrix result."""
    m = np.asarray(a, dtype=complex)
    try:
        return np.linalg.eigvals(as_matrix(m) if m.ndim == 2 else m)
    except np.linalg.LinAlgError as exc:
        # LAPACK caps the implicit QR sweep count at 30 per eigenvalue.
        raise NumericalFailureError(
            f"dense eigensolver did not converge: {exc}", iterations=30 * m.shape[-1]
        )


def spectral_bound(a):
    """Largest real part over the spectrum."""
    return float(eigenvalues(a).real.max())


def spectral_radius(a):
    """Largest modulus over the spectrum."""
    return float(np.abs(eigenvalues(a)).max())


def ball_clusters(values, tol, tags=None):
    """Greedy ball clustering of complex values: walk the values in a
    canonical order (imag, then real, then tag) and open a ball of radius
    tol around the first unassigned value. Returns one (member mean, member
    tags) pair per ball; the tags default to the value positions. When the
    consecutive imaginary gaps of the sorted values all exceed tol, no two
    values lie within tol of each other: each is its own ball, without the
    walk."""
    values = np.asarray(values, dtype=complex).ravel()
    tags = np.arange(values.size) if tags is None else np.asarray(tags)
    order = np.lexsort((tags, values.real, values.imag))
    vals = values[order]
    tags = tags[order]
    if (np.diff(vals.imag) > tol).all():
        # the mean of a ball of one, over an axis: the bits of the walk's
        # mean, which may flip the sign of a zero part
        means = vals[:, None].mean(axis=1).tolist()
        return [(mean, tags[i : i + 1]) for i, mean in enumerate(means)]
    return _greedy_walk(vals, tags, tol)


def _greedy_walk(vals, tags, tol):
    # ball_clusters' walk over canonically sorted values and their tags
    assigned = np.zeros(vals.size, dtype=bool)
    clusters = []
    for i in range(vals.size):
        if assigned[i]:
            continue
        members = (~assigned) & (np.abs(vals - vals[i]) <= tol)
        assigned |= members
        clusters.append((complex(vals[members].mean()), tags[members]))
    return clusters


def semisimple_multiplicities(a, lam, match_tol=1e-6, eigs=None):
    """(algebraic, geometric) multiplicity of the eigenvalue cluster of `a`
    within match_tol of lam; geometric via a rank test on a - lam*I when the
    algebraic one is at least 2 (a simple eigenvalue is semisimple).

    Distinct semisimple eigenvalues inside the ball leave singular values of
    a - lam*I up to the cluster's own radius, so those count as rank
    deficient too; a Jordan block keeps one singular value near its
    superdiagonal and still reads defective. `eigs` may pass the spectrum
    of `a` when it is already known.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if eigs is None:
        eigs = eigenvalues(a)
    dist = np.abs(eigs - lam)
    near = dist <= match_tol
    alg = int(np.count_nonzero(near))
    if alg <= 1:
        return alg, alg
    radius = float(dist[near].max())
    sig = np.linalg.svd(a - lam * np.eye(n), compute_uv=False)
    cut = max(RANK_RTOL * max(1.0, float(sig[0])), CLUSTER_RANK_FACTOR * radius)
    geo = n - int(np.count_nonzero(sig > cut))
    return alg, geo


def ergodic_projection(a, re_tol=1e-9):
    """Spectral projection onto ker A along ran A (the limit of the Cesaro
    means of e^{tA} when the zero eigenvalue is semisimple).

    Returns the zero matrix when 0 is not an eigenvalue (|lambda| <= re_tol)
    and the identity for A = 0. Raises UnboundedSemigroupError when the zero
    eigenvalue is defective, i.e. ker A meets the closure of ran A: the time
    averages then diverge and no projection exists.
    """
    a = as_matrix(a)
    n = a.shape[0]
    u, sig, vh = np.linalg.svd(a)
    scale = float(sig[0])
    cut = max(re_tol, n * _EPS * scale)
    null_dim = int(np.count_nonzero(sig <= cut))
    near_zero = int(np.count_nonzero(np.abs(eigenvalues(a)) <= re_tol))
    if null_dim == 0:
        if near_zero > 0:
            raise UnboundedSemigroupError(
                "zero eigenvalue with no resolvable kernel direction (defective)"
            )
        return np.zeros((n, n), dtype=complex)
    kernel = vh[n - null_dim :].conj().T
    ran = u[:, : n - null_dim]
    basis = np.hstack([kernel, ran])
    gap = float(np.linalg.svd(basis, compute_uv=False)[-1])
    if gap <= 1e-7 or near_zero > null_dim:
        raise UnboundedSemigroupError(
            "zero eigenvalue is defective (kernel meets the range closure); "
            "time averages diverge"
        )
    inv = np.linalg.solve(basis, np.eye(n, dtype=complex))
    return kernel @ inv[:null_dim]


def cesaro_mean(a, t):
    """Time average (1/t) * integral_0^t e^{sA} ds, exact for every
    generator: the integral is the top-right block of e^{t [[A, I], [0, 0]]}
    (Van Loan, IEEE TAC 1978), one exponential of the 2n x 2n augmented
    matrix."""
    a = as_matrix(a)
    if t <= 0:
        raise DomainError("averaging window must be positive")
    n = a.shape[0]
    zero = np.zeros((n, n))
    return expm(np.block([[a, np.eye(n)], [zero, zero]]), t)[:n, n:] / t
