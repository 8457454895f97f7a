"""Dense complex matrix kernels.

Matrix exponential of a stack of blocks over a grid of times. One generator,
_runs, sends each block down one of two paths, chunks each path and drops
the runs that are not finite: a block lambda I + N with N strictly upper
triangular, real and entrywise nonnegative takes the finite sum
e^{i t Im lambda} R(t), with the real factor R(t) = e^{t Re lambda}
sum_{j<k} t^j/j! N^j accurate entry by entry; every other block takes
scaling-and-squaring with diagonal Pade approximants after shifting the
mean imaginary part of the diagonal out of tA. expm_stack stores e^{tA}
from the runs (a single matrix is a stack of one at one time), expm_norms
||e^{tA}|| and ||e^{tA} v|| (from R alone on the closed-form path: the
phase has modulus 1). A block's result is bit for bit the same alone or in
any stack and time grid. Also spectral functionals on top of the LAPACK dense
eigensolver (also run on stacks), Cesaro time averages of a semigroup
(exact for any generator through one exponential of an augmented matrix),
and the mean ergodic projection onto the kernel of a generator.

Matrices are plain complex ndarrays; the operator norm is the 2-norm
(largest singular value) throughout. norm2 takes it as the square root of
the largest eigenvalue of the Gram matrix C^H C (symmetric or Hermitian
eigensolver, real for a real matrix) of the matrix scaled by a power of
two, C = 2^-e A, one stacked call per stack.
"""

import math

import numpy as np

from .errors import (
    DomainError,
    InvalidMatrixError,
    NumericalFailureError,
    UnboundedSemigroupError,
)

_EPS = float(np.finfo(float).eps)

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
    gram = (c if real else c.conj()).swapaxes(-2, -1) @ c
    top = np.linalg.eigvalsh(gram)[..., -1]
    norms = np.ldexp(np.sqrt(top), e[..., 0, 0])
    return float(norms) if m.ndim == 2 else norms


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


# Diagonal Pade coefficients and 1-norm switchover thresholds for the
# scaling-and-squaring matrix exponential (orders 3/5/7/9/13).
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0,
        8821612800.0,
        2075673600.0,
        302702400.0,
        30270240.0,
        2162160.0,
        110880.0,
        3960.0,
        90.0,
        1.0,
    ),
    13: (
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ),
}
_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068e0),
    (13, 5.371920351148152e0),
)


def _pade_low(a, coeffs):
    # odd/even split: u = a * (c1 I + c3 a^2 + ...), v = c0 I + c2 a^2 + ...
    n = a.shape[-1]
    a2 = a @ a
    pows = [np.eye(n, dtype=complex)]
    for _ in range((len(coeffs) - 1) // 2):
        pows.append(pows[-1] @ a2)
    v = sum(coeffs[2 * j] * pows[j] for j in range((len(coeffs) + 1) // 2))
    u = a @ sum(coeffs[2 * j + 1] * pows[j] for j in range(len(coeffs) // 2))
    return u, v


def _pade13(a):
    c = _PADE_COEFFS[13]
    n = a.shape[-1]
    ident = np.eye(n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
        + c[7] * a6
        + c[5] * a4
        + c[3] * a2
        + c[1] * ident
    )
    v = (
        a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
        + c[6] * a6
        + c[4] * a4
        + c[2] * a2
        + c[0] * ident
    )
    return u, v


def _pade_solve(u, v):
    try:
        return np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise NumericalFailureError(f"Pade denominator solve failed: {exc}")


#: largest size in bytes of the complex matrices of one Pade chunk of _runs
#: (at least one (time, block) pair), which bounds the memory of the Pade
#: temporaries. A closed-form chunk holds at least one block's (k, k, k)
#: power basis, and its time passes may use as many bytes as its real basis.
STACK_BYTES = 1 << 16


def _pade_chunk(a, t):
    # Per matrix exactly the arithmetic of a one-matrix scaling-and-squaring
    # of tA - i theta I, theta = Im tr(tA) / n, times e^{i theta}: the same
    # 1-norm, Pade order, approximant, solve and squaring count. The shift
    # is imaginary, so its factor has modulus 1 and cannot overflow. One
    # Pade evaluation runs per order; the order-13 matrices run sorted by
    # squaring count, and each squaring runs on the suffix still needing it.
    n = a.shape[-1]
    m = t[:, None, None] * a
    shift = np.trace(m, axis1=1, axis2=2).imag / n
    diag = np.arange(n)
    m[:, diag, diag] -= 1j * shift[:, None]
    norm1 = np.abs(m).sum(axis=1).max(axis=1)
    # an overflowed tA gets the cheapest order; its result is not finite
    # either, and _runs reports that
    norm1[~np.isfinite(norm1)] = 0.0
    level = np.searchsorted([theta for _, theta in _PADE_THETA[:-1]], norm1)
    out = np.empty_like(m)
    for lv in sorted(set(level.tolist())):
        idx = np.flatnonzero(level == lv)
        order = _PADE_THETA[lv][0]
        if order < 13:
            out[idx] = _pade_solve(*_pade_low(m[idx], _PADE_COEFFS[order]))
            continue
        squarings = np.maximum(0, np.ceil(np.log2(norm1[idx] / _PADE_THETA[-1][1])))
        perm = np.argsort(squarings, kind="stable")
        idx, squarings = idx[perm], squarings[perm]
        f = _pade_solve(*_pade13(m[idx] / (2.0**squarings)[:, None, None]))
        for j in range(1, int(squarings[-1]) + 1):
            lo = int(np.searchsorted(squarings, j))
            f[lo:] = f[lo:] @ f[lo:]
        out[idx] = f
    out *= np.exp(1j * shift)[:, None, None]
    return out


def _closed_form_blocks(a):
    """(m,) booleans: which blocks of a (m, k, k) stack are lambda I + N with
    N strictly upper triangular, real and entrywise nonnegative."""
    k = a.shape[-1]
    nil = a - a[:, :1, :1] * np.eye(k)
    lower = np.tri(k, dtype=bool)
    bad = (nil.imag != 0) | (nil.real < 0) | (lower & (nil.real != 0))
    return ~bad.any(axis=(1, 2))


def _power_basis(a):
    # (offsets, powers, present, count) of (q, k, k) closed-form blocks
    # lambda I + N. With 2^e the power of two that scales the largest entry
    # of N into [1, 2): powers[:, j] = (2^-e N)^j, present[:, j] says whether
    # it is nonzero, offsets[:, j] = j e ln 2 - ln j! is the time-free part
    # of the log weight of term j, and terms j >= count are zero in every
    # block.
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
    offsets = np.outer(e, diag) * math.log(2.0) - log_factorials
    present = powers.any(axis=(2, 3))
    count = int(np.flatnonzero(present.any(axis=0))[-1]) + 1
    return offsets, powers, present, count


def _real_factor(a, t, basis):
    # R(t) = sum_{j<k} e^{t Re lambda} t^j/j! N^j for (q, k, k) blocks
    # passing _closed_form_blocks, at every time of t: (T, q, k, k) reals,
    # with e^{t(lambda I + N)} = e^{i t Im lambda} R(t). N is scaled exactly
    # by a power of two 2^-e, and each weight e^{t Re lambda} (2^e t)^j / j!
    # is one exp of its logarithm, so neither a weight nor a power overflows
    # or underflows on its own account. A zero power gets a zero weight, so
    # an overflowed weight never meets it as inf * 0. All terms are
    # nonnegative and are added entrywise in increasing j; the terms another
    # block of the chunk adds past this block's nilpotency index are exact
    # zeros. So every entry is accurate relative to itself, and its bits
    # depend on its block and time alone.
    offsets, powers, present, count = basis
    j = np.arange(a.shape[-1])
    log_w = (
        (t[:, None] * a[:, 0, 0].real)[:, :, None]
        + np.where(j > 0, j * np.log(t)[:, None, None], 0.0)
        + offsets
    )
    weights = np.where(present, np.exp(log_w), 0.0)[..., None, None]
    acc = weights[:, :, 0] * powers[:, 0]
    term = np.empty_like(acc)
    for i in range(1, count):
        acc += np.multiply(weights[:, :, i], powers[:, i], out=term)
    return acc


def _runs(a, t):
    """(steps, cols, f, angle) runs covering every (time, block) pair of a
    (m, k, k) stack over the grid t once, with e^{tA} = f e^{i angle}:

    * closed-form blocks (_closed_form_blocks) run in chunks whose complex
      power basis would fit STACK_BYTES (at least one block); a chunk builds
      its real basis, q k^3 doubles, once and runs its times in passes of
      (T, q, k, k) temporaries within max(STACK_BYTES, q k^3 doubles):
      steps is a slice of t, cols the q blocks, f = R and angle
      = t Im lambda, (T, q).
    * every other block runs through _pade_chunk in time-major chunks of
      (time, block) pairs within STACK_BYTES (at least one pair): steps and
      cols index the pairs, f is e^{tA} (pairs, k, k), angle is None.

    Only runs whose every e^{tA} is finite are yielded; the errstate that
    silences the overflow of the others stays in force while a consumer
    handles a run. After the last run, raises NumericalFailureError naming
    the earliest time at which a result is not finite: the true e^{tA} of a
    growing matrix can exceed the double range at long times.
    """
    k = a.shape[-1]
    closed = _closed_form_blocks(a)

    def computed():
        ids = np.flatnonzero(closed)
        size = max(1, STACK_BYTES // (16 * k**3))
        for first in range(0, ids.size, size):
            cols = ids[first : first + size]
            part = a[cols]
            basis = _power_basis(part)
            step = max(k, STACK_BYTES // (8 * cols.size * k * k))
            for start in range(0, t.size, step):
                steps = slice(start, start + step)
                r = _real_factor(part, t[steps], basis)
                # e^{tA} = R e^{i t Im lambda} is finite where R and t Im lambda are
                angle = t[steps, None] * part[:, 0, 0].imag
                finite = (np.isfinite(r).all(axis=(2, 3)) & np.isfinite(angle)).all(axis=1)
                yield steps, cols, r, angle, finite
        ids = np.flatnonzero(~closed)
        size = max(1, STACK_BYTES // (16 * k * k))
        for start in range(0, t.size * ids.size, size):
            steps, sub = np.divmod(np.arange(start, min(start + size, t.size * ids.size)), ids.size)
            f = _pade_chunk(a[ids[sub]], t[steps])
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


def expm_stack(a, t):
    """e^{t A_b} for every matrix A_b of a (m, k, k) stack and every time t of
    a 1-D grid of times >= 0: a (len(t), m, k, k) array stored from _runs.

    Each block takes one of two paths, and its result does not depend on
    the rest of the stack or the grid:

    * lambda I + N with N strictly upper triangular, real and entrywise
      nonnegative (every Zabczyk block and every 1 x 1 block) takes the
      finite sum e^{i t Im lambda} R(t), R(t) = sum_{j<k} e^{t Re lambda}
      t^j/j! N^j. The weights of R are formed in the log domain and its
      nonnegative terms added entrywise in a fixed order, so every entry is
      accurate relative to itself.
    * Every other block gets exactly the arithmetic of a one-matrix
      scaling-and-squaring of tA - i theta I, theta = Im tr(tA) / k, times
      the unimodular e^{i theta}. The shift removes the squarings a large
      imaginary diagonal would cost.

    Raises NumericalFailureError naming the earliest time at which a result
    is not finite.
    """
    a = np.asarray(a, dtype=complex)
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty((t.size,) + a.shape, dtype=complex)
    for steps, cols, f, angle in _runs(a, t):
        out[steps, cols] = f if angle is None else f * np.exp(1j * angle)[..., None, None]
    return out


def expm_norms(a, t, v):
    """(norms, vnorms) of e^{t A_b} for every matrix A_b of a (m, k, k) stack,
    every time t of a 1-D grid of times >= 0 and vectors v, a (P, m, k)
    stack: norms[i, b] = ||e^{t_i A_b}|| (norm2) and vnorms[i, p, b] =
    ||e^{t_i A_b} v[p, b]|| (Euclidean), taken from the runs expm_stack
    stores, so a block's norms do not depend on the rest of the stack or
    the grid. A closed-form run has e^{tA} = R e^{i t Im lambda} with R real
    and the phase unimodular, so both norms are those of R: the norm2 of the
    real matrix and |R v| from two real products. A Pade run's norms are
    those of its complex e^{tA}, one (k x k)(k x 1) product per vector. Each
    e^{tA} v is scaled by a power of two before it is squared, as in norm2.

    Raises NumericalFailureError naming the earliest time at which e^{tA}
    is not finite for some block, as expm_stack would.
    """
    a = np.asarray(a, dtype=complex)
    t = np.asarray(t, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=complex)
    norms = np.zeros((t.size, a.shape[0]))
    vnorms = np.zeros((t.size, v.shape[0], a.shape[0]))
    for steps, cols, f, angle in _runs(a, t):
        norms[steps, cols] = norm2(f)
        if angle is None:
            w = v[:, cols].swapaxes(0, 1)[..., None]
            vnorms[steps, :, cols] = vector_norms((f[:, None] @ w)[..., 0])
            continue
        # the real and the imaginary parts of the vectors as columns: (q, k, P)
        ys = [f @ part[:, cols].transpose(1, 2, 0) for part in (v.real, v.imag)]
        _, e = np.frexp(np.maximum(*(np.abs(y, out=y).max(axis=2, keepdims=True) for y in ys)))
        sq = sum(np.square(np.ldexp(y, -e, out=y), out=y).sum(axis=2) for y in ys)
        vnorms[steps, :, cols] = np.ldexp(np.sqrt(sq), e[:, :, 0]).swapaxes(1, 2)
    return norms, vnorms


def expm(a, t=1.0):
    """e^{tA} for t >= 0: the one-matrix view of expm_stack. Accurate to
    ~1e-13 relative for well-conditioned inputs of moderate norm, and
    entrywise for lambda I + N with N strictly upper triangular and
    nonnegative."""
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
    tags) pair per ball; the tags default to the value positions."""
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
