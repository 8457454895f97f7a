"""Accuracy of the eigenbasis and the Pade routes of the matrix exponential,
against 40-digit mpmath, binned by the condition number of the eigenvector
matrix.

    python3 tools/expm_accuracy.py [--per 40] [--seed 1801]

Each block is drawn from one of two families, with k from 2 to 5:

* random Hurwitz: complex Gaussian / sqrt(2k), shifted to spectral bound
  -0.2, the shape of the random-Hurwitz cells;
* Q (D + c U) Q^H: a random unitary Q, a diagonal D with spectral bound
  -0.2, a strictly upper triangular complex Gaussian U and c from 0.1 to
  100 (log-uniform), so that cond2(V) spreads over several decades.

For each block and t in {1, 50, 200} the operator 2-norm ||e^{tA}|| is taken
once through each route of `linalg.expm_norms` (by moving
`eigenbasis.EIGENBASIS_COND` to inf and to 0) and compared with mpmath's. It
prints one Markdown row per family and cond2(V) bin: the blocks drawn
(`--per` per bin, fewer when a family rarely reaches the bin), the worst
relative error of each route, the number of blocks on which the
eigenbasis route errs more, the worst ratio of the certified bound U of
`eigenbasis.eigenbasis_bounds` to the eigenbasis route's norm, and the number
of (block, time) pairs where U falls below that norm or below mpmath's
(a sound bound reads 0). It takes about 20 s at the default `--per`.
"""

import argparse
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from semistab import eigenbasis, linalg  # noqa: E402

TIMES = np.array([1.0, 50.0, 200.0])
BINS = ((1.0, 10.0), (10.0, 100.0), (100.0, 1e3), (1e3, 1e4))


def mp_norms(a):
    """||e^{tA}||_2 at each of TIMES in 40-digit arithmetic."""
    with mpmath.workdps(40):
        m = mpmath.matrix(a.tolist())
        return np.array([
            float(max(mpmath.svd_c(mpmath.expm(m * float(t)), compute_uv=False)))
            for t in TIMES
        ])


def route_norms(a, cond):
    """(||e^{tA}|| at TIMES through linalg.expm_norms, the block's Factor)
    with the eigenbasis bound set to `cond`: inf sends every block off the
    closed form to the eigenbasis route, 0 to the Pade route."""
    saved = eigenbasis.EIGENBASIS_COND
    eigenbasis.EIGENBASIS_COND = cond
    try:
        factor = linalg.factorize(a[None])
        return linalg.expm_norms(a[None], TIMES, np.ones((1, 1, len(a))),
                                 factor=factor)[0][:, 0], factor
    finally:
        eigenbasis.EIGENBASIS_COND = saved


def gaussian(rng, k):
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def random_hurwitz(rng):
    k = int(rng.integers(2, 6))
    a = gaussian(rng, k) / np.sqrt(2.0 * k)
    return a - (linalg.eigenvalues(a).real.max() + 0.2) * np.eye(k)


def conjugated_triangular(rng):
    k = int(rng.integers(2, 6))
    q, _ = np.linalg.qr(gaussian(rng, k))
    d = 0.5 * rng.standard_normal(k) + 1j * rng.standard_normal(k)
    u = np.triu(gaussian(rng, k), 1)
    return q @ (np.diag(d - d.real.max() - 0.2) + 10 ** rng.uniform(-1, 2) * u) @ q.conj().T


def rows(name, draw, rng, per, max_draws=5000):
    """One table row per cond2(V) bin that `draw` reached."""
    errors = {b: [] for b in BINS}
    for _ in range(max_draws):
        if all(len(e) >= per for e in errors.values()):
            break
        a = draw(rng)
        cond = np.linalg.cond(np.linalg.eig(a)[1])
        found = [b for b in BINS if b[0] < cond <= b[1] and len(errors[b]) < per]
        if not found:
            continue
        exact = mp_norms(a)
        (eig_norms, factor), (pade_norms, _) = (route_norms(a, c) for c in (np.inf, 0.0))
        eig, pade = (np.abs(norms - exact) / exact for norms in (eig_norms, pade_norms))
        bound = eigenbasis.eigenbasis_bounds(factor.eigen, TIMES)[:, 0]
        below = int(((bound < eig_norms) | (bound < exact)).sum())
        errors[found[0]].append((eig.max(), pade.max(), (bound / eig_norms).max(), below))
    for (lo, hi), e in errors.items():
        if e:
            e = np.array(e)
            yield (f"| {name} | ({lo:g}, {hi:g}] | {len(e)} | {e[:, 0].max():.1e} "
                   f"| {e[:, 1].max():.1e} | {int((e[:, 0] > e[:, 1]).sum())} "
                   f"| {e[:, 2].max():.3g} | {int(e[:, 3].sum())} |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per", type=int, default=40, help="blocks per bin and family")
    parser.add_argument("--seed", type=int, default=1801)
    args = parser.parse_args(argv)
    print("| blocks | cond2(V) | count | eigenbasis worst | Pade worst | eigenbasis errs more "
          "| U / norm worst | U below |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    families = (("random Hurwitz", random_hurwitz), ("Q (D + c U) Q^H", conjugated_triangular))
    for i, (name, draw) in enumerate(families):
        for row in rows(name, draw, np.random.default_rng(args.seed + i), args.per):
            print(row)


if __name__ == "__main__":
    main()
