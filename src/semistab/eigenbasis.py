"""The eigenbasis route of the matrix exponential (linalg module docstring):
a block off the closed form whose eigenvector matrix V has cond2(V) <=
EIGENBASIS_COND takes e^{tA} = V e^{t Lambda} V^-1, from one
eigendecomposition and one inverse per block (Eigen, kept in the stack's
linalg.Factor), and its norms are bounded from them (eigenbasis_bounds).
linalg.factorize imports this module when a stack first holds a block off
the closed form.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailureError
from .linalg import _TINY, BRACKET_SLACK, STACK_BYTES, vector_norms

#: a block off the closed form whose eigenvector matrix V (LAPACK's, unit
#: columns) has a 2-norm condition number at most this takes
#: e^{tA} = V e^{t Lambda} V^-1, the others take Pade. The route errs by
#: about t ||A|| cond2(V) unit roundoffs (README, "Accuracy of the routes").
EIGENBASIS_COND = 1e2


class Eigen(NamedTuple):
    """What the eigenbasis route keeps of q k x k blocks A = V Lambda V^-1:
    the eigenvalues `w` (q, k), V `v` (LAPACK's, unit columns) and its
    computed inverse W `vinv` (q, k, k); and for eigenbasis_bounds:

    * `weights` (q, k): the projector weights p_j = ||v_j|| ||w_j|| of
      column j of V and row j of W;
    * `miss` (q,): r >= ||V W - I||_F;
    * `rate` (q,): the log-norm rate mu_2(A) + delta, with delta >= ||A - A'||_2
      for A' = V Lambda' V^-1 and every Lambda' within a unit roundoff of
      Lambda, such as the computed t Lambda over t: ||A V - V Lambda||_F
      ||W||_F / (1 - r), widened for the rounding of the eigensolvers and
      of these norms;
    * `spread` and `spread_rate` (q,): the exact e^{tA} is within
      t spread e^{t spread_rate} of V e^{t Lambda} V^-1, with spread =
      delta K^2, spread_rate = max Re lambda + K delta and K = ||V||_F
      ||W||_F / (1 - r) >= ||V||_2 ||V^-1||_2 (variation of constants and
      Gronwall's lemma).

    The last three are +inf where r >= 1."""

    w: np.ndarray
    v: np.ndarray
    vinv: np.ndarray
    weights: np.ndarray
    miss: np.ndarray
    rate: np.ndarray
    spread: np.ndarray
    spread_rate: np.ndarray


def _eigenbasis(a):
    # (well, Eigen) of a (m, k, k) stack: which blocks have an eigenvector
    # matrix V with cond2(V) <= EIGENBASIS_COND, and the Eigen of those (q
    # of them). LAPACK runs once per matrix, so a block's bits do not depend
    # on the stack.
    try:
        w, v = np.linalg.eig(a)
        sig = np.linalg.svd(v, compute_uv=False)
        well = sig[:, 0] <= EIGENBASIS_COND * sig[:, -1]
        return well, _eigen(a[well], w[well], v[well], np.linalg.inv(v[well]))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"dense eigensolver did not converge: {exc}", iterations=30 * a.shape[-1]
        )


def _eigen(a, w, v, vinv):
    # the Eigen of (q, k, k) blocks a with eigenvalues w, eigenvectors v and
    # an inverse vinv of v, whatever their errors
    q, k = w.shape
    slack = BRACKET_SLACK * k
    # mu_2(A), the largest eigenvalue of the Hermitian part
    top = np.linalg.eigvalsh(0.5 * (a + a.conj().swapaxes(1, 2)))[:, -1]
    fro = [vector_norms(x.reshape(q, k * k)) * (1.0 + slack)
           for x in (v, vinv, a, v @ vinv - np.eye(k), a @ v - v * w[:, None, :])]
    vf, wf, af = fro[:3]
    miss = fro[3] + slack * vf * wf
    with np.errstate(divide="ignore"):
        # 1 / (1 - r), widened
        lift = np.where(miss < 1.0, (1.0 + slack) / (1.0 - miss), np.inf)
    delta = (fro[4] + slack * vf * (af + np.abs(w).max(axis=1))) * wf * lift
    cond = vf * wf * lift
    weights = vector_norms(v.swapaxes(1, 2)) * vector_norms(vinv)
    return Eigen(w, v, vinv, weights, miss, top + (delta + slack * af), delta * cond**2,
                 w.real.max(axis=1) + cond * delta)


def eigenbasis_bounds(eigen, t):
    """(len(t), q) certified upper bounds U on norm2 of the computed
    V e^{t Lambda} V^-1 (_eigen_chunk) of the q blocks of Eigen `eigen`, and
    on the exact ||e^{tA}||: U(t) = min(U1, U2) (1 + g), with g =
    2 BRACKET_SLACK k and the projector sum P(t) = sum_j e^{t Re lambda_j}
    p_j.

    * U1 = e^{t rate} (1 + r) + g P(t), the log-norm bound (Soderlind, BIT
      2006), tight at short times;
    * U2 = (1 + g) P(t) / (1 - r) + t spread e^{t spread_rate}, the
      spectral-projector bound, tight at long times.

    g P covers the rounding of the product, entrywise at most about
    g |V| |e^{t Lambda}| |W|, whose 2-norm is at most g P(t). As in
    linalg.closed_form_bounds each term of P is raised to at least the
    smallest normal double, since a subnormal e^{t lambda} rounds to an
    absolute error, and each exponent is widened by BRACKET_SLACK times 2k
    plus the magnitudes of its terms. U is +inf where t lambda is not finite and
    exactly 1 at t = 0. The temporaries are (times, q, k) slices within
    STACK_BYTES."""
    t = np.asarray(t, dtype=float).reshape(-1)
    q, k = eigen.weights.shape
    slack = BRACKET_SLACK * k
    out = np.empty((t.size, q))
    log_p = np.log(eigen.weights)
    step = max(1, STACK_BYTES // (8 * max(1, q * k)))

    def grow(s, rate):
        # e^{s rate}, the exponent widened
        x = s * rate
        return np.exp(x + slack * (np.abs(x) + 2 * k))

    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, t.size, step):
            s = t[first : first + step, None]
            # the real parts of the computed t lambda, as _eigen_chunk forms them
            x = s[..., None] * eigen.w.real
            # each term raised to the smallest normal, as in closed_form_bounds
            x = np.maximum(x + log_p, math.log(_TINY)) + slack * (
                np.abs(x) + np.abs(log_p) + 2 * k)
            proj = np.exp(x, out=x).sum(axis=-1)
            out[first : first + step] = np.fmin(
                grow(s, eigen.rate) * (1.0 + eigen.miss) + 2 * slack * proj,
                (1.0 + 2 * slack) * proj / (1.0 - eigen.miss)
                + s * eigen.spread * grow(s, eigen.spread_rate)) * (1.0 + 2 * slack)
        out[~np.isfinite(t[:, None] * np.abs(eigen.w).max(axis=1))] = np.inf
    out[t == 0] = 1.0
    return out


def _eigen_chunk(w, v, vinv, t):
    # V e^{t Lambda} V^-1 for (pairs, k) eigenvalues and (pairs, k, k) V and
    # V^-1, one k x k product per (time, block) pair; exactly I at t = 0,
    # where V V^-1 misses I by a few ulps
    f = (v * np.exp(t[:, None] * w)[:, None, :]) @ vinv
    f[t == 0] = np.eye(w.shape[-1])
    return f
