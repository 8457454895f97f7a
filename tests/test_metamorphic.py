"""Metamorphic tests of the continuous classifiers: a verdict and its numbers
are properties of the operator family, so permuting its cells, adding
zero-weight cells that carry unstable matrices, or scaling its weights by a
positive factor moves none of them. Each family is checked with explicit
probes that move with its cells."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab.cases import random_hurwitz_family, rotation_family
from semistab.measure import ATOMIC, DiscretizedMeasureSpace
from semistab.report import MODE_ATOMIC
from semistab.semigroup import BochnerFunction, PointwiseFamily, time_grid
from semistab.stability import (
    certify_bounded,
    classify_almost_weak,
    classify_strong,
    classify_uniform,
)

CHECKS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

#: rates of the diagonal families: decaying, zero and imaginary
RATES = st.sampled_from([0.0, -0.05, -1.0, -3.0, 1j, -2.5j, 0.5j - 0.05, -1.0 + 2j])


def summary(matrices, weights, vectors):
    """Everything the relations must keep: the three continuous verdicts,
    rho*, decay_eps, both bound_M, the multiset of witness kinds and the
    number of imaginary eigenvalue clusters."""
    weights = np.asarray(weights, dtype=float)
    space = DiscretizedMeasureSpace(
        weights=weights, labels=np.arange(weights.size, dtype=float), mode=ATOMIC
    )
    family = PointwiseFamily(space=space, dim=matrices.shape[-1], matrices=matrices)
    probes = [BochnerFunction(space=space, dim=family.dim, vectors=v) for v in vectors]
    uniform = classify_uniform(family, 1.0, 1e-6, grid_points=16)
    gate = certify_bounded(family, time_grid(50.0, 17), probes)
    strong = classify_strong(family, gate)
    weak = classify_almost_weak(family, gate, mode=MODE_ATOMIC)
    kinds = sorted(w.kind for r in (uniform, strong, weak) for w in r.witnesses)
    return (
        (uniform.verdict, strong.verdict, weak.verdict),
        (uniform.rho_star, uniform.decay_eps, uniform.bound_M, strong.bound_M),
        kinds,
        len(weak.clusters),
    )


def check_relations(data, matrices):
    cells, dim = matrices.shape[0], matrices.shape[-1]
    weights = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=cells, max_size=cells)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vectors = rng.standard_normal((2, cells, dim)) + 1j * rng.standard_normal((2, cells, dim))
    base = summary(matrices, weights, vectors)

    perm = np.array(data.draw(st.permutations(range(cells))))
    assert summary(matrices[perm], weights[perm], vectors[:, perm]) == base

    where = data.draw(st.lists(st.integers(0, cells), min_size=1, max_size=3))
    unstable = 2.0 * np.eye(dim) + np.eye(dim, k=1)
    padded = (
        np.insert(matrices, where, unstable, axis=0),
        np.insert(weights, where, 0.0),
        np.insert(vectors, where, 0.0, axis=1),
    )
    assert summary(*padded) == base

    scale = data.draw(st.floats(1e-3, 1e3))
    assert summary(matrices, scale * weights, vectors) == base


@CHECKS
@given(data=st.data(), seed=st.integers(0, 2**16), dim=st.integers(1, 4),
       cells=st.integers(1, 6), margin=st.sampled_from([0.05, 0.5]))
def test_random_hurwitz_families(data, seed, dim, cells, margin):
    check_relations(data, random_hurwitz_family(seed, dim, cells, margin).matrices)


@CHECKS
@given(data=st.data(), rates=st.lists(RATES, min_size=1, max_size=6))
def test_diagonal_families(data, rates):
    check_relations(data, np.array(rates, dtype=complex).reshape(-1, 1, 1))


@CHECKS
@given(data=st.data(), cells=st.integers(1, 6))
def test_rotation_families(data, cells):
    check_relations(data, rotation_family(cells).matrices)
