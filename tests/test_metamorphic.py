"""Metamorphic tests of the classifiers: a verdict and its numbers are
properties of the operator family, so permuting its cells, adding
zero-weight cells that carry unstable matrices, or scaling its weights by a
positive factor moves none of them. On finitely many cells with
finite-dimensional blocks the three notions coincide, so the verdicts obey
uniform Stable => strong Stable => almost weak Stable, and neither they nor
the `analyze` report move with the horizon, the power count or the probes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import cli
from semistab.cases import diagonal_family, random_hurwitz_family, rotation_family, zabczyk_family
from semistab.discrete import build_discrete_report
from semistab.measure import ATOMIC, DiscretizedMeasureSpace
from semistab.report import MODE_ATOMIC, STABLE
from semistab.semigroup import PointwiseFamily, time_grid
from semistab.stability import (
    certify_bounded,
    classify_almost_weak,
    classify_strong,
    classify_uniform,
)

CHECKS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

#: rates of the diagonal families: decaying, zero and imaginary
RATES = st.sampled_from([0.0, -0.05, -1.0, -3.0, 1j, -2.5j, 0.5j - 0.05, -1.0 + 2j])


def summary(matrices, weights):
    """Everything the relations must keep: the three continuous verdicts,
    rho*, decay_eps, both bound_M, the multiset of witness kinds and the
    number of imaginary eigenvalue clusters."""
    weights = np.asarray(weights, dtype=float)
    space = DiscretizedMeasureSpace(
        weights=weights, labels=np.arange(weights.size, dtype=float), mode=ATOMIC
    )
    family = PointwiseFamily(space=space, dim=matrices.shape[-1], matrices=matrices)
    uniform = classify_uniform(family, 1.0, 1e-6, grid_points=16)
    gate = certify_bounded(family, time_grid(50.0, 17))
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
    base = summary(matrices, weights)

    perm = np.array(data.draw(st.permutations(range(cells))))
    assert summary(matrices[perm], weights[perm]) == base

    where = data.draw(st.lists(st.integers(0, cells), min_size=1, max_size=3))
    unstable = 2.0 * np.eye(dim) + np.eye(dim, k=1)
    padded = np.insert(matrices, where, unstable, axis=0), np.insert(weights, where, 0.0)
    assert summary(*padded) == base

    scale = data.draw(st.floats(1e-3, 1e3))
    assert summary(matrices, scale * weights) == base


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


#: families on which a seeded test of decay could lag the spectra: random
#: Hurwitz margins down to 1e-3, slow diagonal rates, and Zabczyk blocks
#: (non-normal, spectral bound -1/n) at horizons far below their transient
SLOW_RATES = st.sampled_from([-1e-3, -0.01, -0.05 + 3j, -1.0, 1j, 0.0, -2e-3 - 1j])
FAMILIES = st.one_of(
    st.builds(random_hurwitz_family, st.integers(0, 2**16), st.integers(1, 4),
              st.integers(1, 5), st.sampled_from([1e-3, 1e-2, 0.05, 0.5])),
    st.builds(diagonal_family, st.lists(SLOW_RATES, min_size=1, max_size=5)),
    st.builds(zabczyk_family, st.integers(1, 8)),
)
HORIZONS = st.sampled_from([2.0, 10.0, 50.0, 400.0])


def verdicts(family, horizon, n_max):
    """(verdict, witness kinds) of the three continuous classifiers, with the
    boundedness gate on time_grid(horizon, 17), and of the three discrete
    ones on the sample at t = 1, with powers observed up to n_max."""
    uniform = classify_uniform(family, 1.0, 1e-6, grid_points=16)
    gate = certify_bounded(family, time_grid(horizon, 17))
    strong = classify_strong(family, gate)
    weak = classify_almost_weak(family, gate, mode=MODE_ATOMIC)
    report = build_discrete_report(family, 1.0, margin=1e-6, n_max=n_max)
    continuous = tuple(
        (r.verdict, sorted(w.kind for w in r.witnesses)) for r in (uniform, strong, weak)
    )
    discrete = (report.uniform, report.strong, report.almost_weak)
    return continuous, (discrete, sorted(w.kind for w in report.witnesses))


def assert_chain(uniform, strong, weak):
    if uniform == STABLE:
        assert strong == STABLE
    if strong == STABLE:
        assert weak == STABLE


@CHECKS
@given(family=FAMILIES, horizon=HORIZONS, n_max=st.sampled_from([4, 64, 512]))
def test_uniform_implies_strong_implies_almost_weak(family, horizon, n_max):
    continuous, (discrete, _) = verdicts(family, horizon, n_max)
    assert_chain(*(verdict for verdict, _ in continuous))
    assert_chain(*discrete)


@CHECKS
@given(family=FAMILIES, horizons=st.lists(HORIZONS, min_size=2, max_size=2, unique=True),
       powers=st.lists(st.sampled_from([4, 64, 512]), min_size=2, max_size=2, unique=True))
def test_verdicts_do_not_move_with_the_horizon(family, horizons, powers):
    assert verdicts(family, horizons[0], powers[0]) == verdicts(family, horizons[1], powers[1])


CONFIG_FAMILIES = st.one_of(
    st.builds(lambda n: {"builtin": "zabczyk", "N": n}, st.integers(1, 6)),
    st.builds(lambda rates: {"builtin": "diagonal", "rates": [[r.real, r.imag] for r in rates]},
              st.lists(SLOW_RATES, min_size=1, max_size=4)),
    st.builds(lambda seed, dim, cells, margin: {"builtin": "random-hurwitz", "seed": seed,
                                                "dim": dim, "cells": cells, "margin": margin},
              st.integers(0, 2**16), st.integers(1, 3), st.integers(1, 4),
              st.sampled_from([1e-3, 0.05, 0.5])),
)


@CHECKS
@given(family=CONFIG_FAMILIES, horizon=HORIZONS, discrete=st.booleans(),
       probes=st.lists(st.tuples(st.integers(0, 2**31), st.integers(1, 4)), min_size=2,
                       max_size=2, unique=True))
def test_analyze_report_does_not_move_with_the_probes(family, horizon, discrete, probes):
    def report(seed, count):
        cfg = cli._check_config({
            "family": family, "time": {"horizon": horizon, "grid_points": 16},
            "discrete": {"enabled": discrete}, "probes": {"seed": seed, "count": count},
        })
        payload = cli.run_analysis(cfg)
        del payload["meta"]
        return payload

    assert report(*probes[0]) == report(*probes[1])


def test_zabczyk_5_reads_discrete_almost_weak_stable():
    raw = {"family": {"builtin": "zabczyk", "N": 5}, "discrete": {"enabled": True}}
    discrete = cli.run_analysis(cli._check_config(raw))["discrete"]
    assert [discrete[k]["verdict"] for k in ("uniform", "strong", "almost_weak")] == [STABLE] * 3


def test_slow_rate_reads_strong_stable_at_a_short_horizon():
    # e^{-0.01 t} is still 0.9 at t = 10: the spectrum decides, not the orbit
    family = diagonal_family([-0.01])
    strong = classify_strong(family, certify_bounded(family, time_grid(10.0, 48)))
    assert strong.verdict == STABLE
    assert strong.witnesses == ()
