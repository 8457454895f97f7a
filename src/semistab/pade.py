"""The Pade route of the matrix exponential (linalg module docstring): the
blocks off the closed form whose eigenvector matrix is too ill-conditioned
for the eigenbasis route take scaling-and-squaring with diagonal Pade
approximants, after the mean imaginary part of the diagonal of tA is
shifted out. linalg._runs imports this module when a stack first holds
such a block.
"""

import numpy as np

from .errors import NumericalFailureError

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
