"""The spectral certificates as array passes over the eigenvalue table.
linalg.ball_clusters returns isolated values as their own balls without the
greedy walk, semigroup.point_spectrum gathers the weights of one-member
balls at once, and semigroup.boundary_faults sends only the cells where two
eigenvalues pair up to the clustering and the rank test. Each must return
exactly what the plain loops of tests/oracles.py return."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import cli, linalg, semigroup
from semistab.discrete import _modulus_gap
from semistab.measure import ATOMIC, DiscretizedMeasureSpace
from semistab.semigroup import PointwiseFamily

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import make_config  # noqa: E402

CHECKS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

#: a dyadic radius, so that a gap of exactly TOL is exact
TOL = 2.0**-10

#: the tolerances of the boundary tests (the config defaults)
NEAR, MATCH = 1e-9, 1e-6


def counted(monkeypatch, module, name):
    """The list of argument tuples of each call of module.name."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs:
                        calls.append(args) or real(*args, **kwargs))
    return calls


def bits(z):
    return np.array([z], dtype=complex).view(np.uint64).tolist()


def assert_same_balls(got, want):
    """The same balls in the same order: means bit for bit, and the same
    tags of the same dtype."""
    assert len(got) == len(want)
    for (mean, tags), (mean_want, tags_want) in zip(got, want):
        assert type(mean) is complex and bits(mean) == bits(mean_want)
        assert tags.dtype == tags_want.dtype and tags.tolist() == tags_want.tolist()


#: parts on a grid of TOL (equal imaginary parts, gaps of exactly TOL and
#: of a few TOL), signed zeros, and arbitrary values
PARTS = st.one_of(
    st.integers(-6, 6).map(lambda k: k * TOL),
    st.sampled_from([0.0, -0.0]),
    st.floats(-1.0, 1.0),
)
VALUES = st.lists(st.builds(complex, PARTS, PARTS), max_size=12)


class TestBallClusters:
    @CHECKS
    @given(values=VALUES, data=st.data())
    def test_equals_the_greedy_walk(self, values, data):
        tags = data.draw(st.none() | st.lists(st.integers(0, 3), min_size=len(values),
                                              max_size=len(values)))
        assert_same_balls(
            linalg.ball_clusters(values, TOL, tags), oracles.greedy_ball_clusters(values, TOL, tags)
        )

    @pytest.mark.parametrize("values, walks", [
        ([], 0),
        ([-0.0 + 1j], 0),
        ([1j, 0.5 - 0.0j, -0.0 - 3j], 0),
        # equal imaginary parts, however far apart
        ([1.0 + 1j, -1.0 + 1j], 1),
        # a gap of exactly TOL
        ([0.0, 1j * TOL], 1),
        ([0.0, 1j * TOL * (1 + 2**-40)], 0),
    ])
    def test_isolated_values_take_no_walk(self, monkeypatch, values, walks):
        calls = counted(monkeypatch, linalg, "_greedy_walk")
        assert_same_balls(
            linalg.ball_clusters(values, TOL), oracles.greedy_ball_clusters(values, TOL)
        )
        assert len(calls) == walks

    def test_tied_tags_keep_the_canonical_order(self):
        # equal values order by tag, then a ball of radius TOL takes both
        # and the value TOL / 2 to their right
        values = [3j, 1j, 2j, TOL / 2 + 1j, 1j]
        tags = [1, 1, 0, 0, 0]
        got = linalg.ball_clusters(values, TOL, tags)
        assert [t.tolist() for _, t in got] == [[0, 1, 0], [0], [1]]
        assert_same_balls(got, oracles.greedy_ball_clusters(values, TOL, tags))

    def test_isolated_means_keep_the_mean_bits(self):
        # the mean of a one-member ball is 0 + 1j, not the member -0 + 1j
        (mean, _), = linalg.ball_clusters([complex(-0.0, 1.0)], TOL)
        assert math.copysign(1.0, mean.real) == 1.0


def atomic_family(blocks, weights, dim=None):
    """One cell per square block, each in the leading corner of a dim x dim
    matrix (default: the largest block), with active dimensions when the
    sizes differ."""
    sizes = [len(b) for b in blocks]
    dim = dim or max(sizes)
    mats = np.zeros((len(blocks), dim, dim), dtype=complex)
    for c, b in enumerate(blocks):
        mats[c, : sizes[c], : sizes[c]] = b
    space = DiscretizedMeasureSpace(
        weights=np.asarray(weights, dtype=float),
        labels=np.arange(len(blocks), dtype=float), mode=ATOMIC,
    )
    active = None if set(sizes) == {dim} else sizes
    return PointwiseFamily(space=space, dim=dim, matrices=mats, active_dims=active)


def weights_for(data, cells):
    """Weights in {0, 0.5, 1}, at least one positive."""
    weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=cells,
                                 max_size=cells))
    if not any(weights):
        weights[-1] = 1.0
    return weights


class TestPointSpectrum:
    @CHECKS
    @given(data=st.data(), cells=st.integers(1, 6), dim=st.integers(1, 3))
    def test_equals_the_greedy_sums(self, data, cells, dim):
        # imaginary eigenvalues on a grid of half a match radius, repeats
        # across and within cells, some off the axis
        def value():
            k = data.draw(st.integers(-4, 4))
            re = data.draw(st.sampled_from([0.0, -0.0, 0.0, -0.5]))
            return complex(re, 1.0 + k * MATCH / 2)

        blocks = [np.diag([value() for _ in range(data.draw(st.integers(1, dim)))])
                  for _ in range(cells)]
        family = atomic_family(blocks, weights_for(data, cells), dim)
        got = semigroup.point_spectrum(family, np.real, NEAR, MATCH)
        want = oracles.point_spectrum(family, np.real, NEAR, MATCH)
        assert [(bits(c.eigenvalue), c.cells, c.measure) for c in got] == [
            (bits(c.eigenvalue), c.cells, c.measure) for c in want
        ]
        for c in got:
            assert type(c.eigenvalue) is complex and type(c.measure) is float

    def test_singleton_balls_gather_their_weights(self, monkeypatch):
        # isolated eigenvalues, and two with one imaginary part whose balls
        # the walk keeps apart
        calls = counted(monkeypatch, linalg, "_greedy_walk")
        blocks = [[[1j]], [[2j]], [[-1.0]], [[3j]], [[1e-12 + 3j]]]
        family = atomic_family(blocks, [0.25, 0.0, 1.0, 0.5, 2.0])
        got = semigroup.point_spectrum(family, np.real, NEAR, 1e-13)
        assert [(c.eigenvalue, c.cells, c.measure) for c in got] == [
            (1j, (0,), 0.25), (3j, (3,), 0.5), (1e-12 + 3j, (4,), 2.0)
        ]
        assert len(calls) == 1
        assert semigroup.point_spectrum(family, np.real, NEAR, MATCH) == oracles.point_spectrum(
            family, np.real, NEAR, MATCH
        )


def boundary_block(data, k, circle, seed):
    """A k x k block on the imaginary axis (or the unit circle): each
    eigenvalue a boundary point or a copy of the one before it 0, 0.5, 0.7,
    1, 2, 3 or 100 match radii along the boundary, some moved off it inside or
    outside, with strictly upper entries 0 or 1 (Jordan blocks on repeats),
    conjugated by a random unitary when `seed` is given."""
    angles = [data.draw(st.sampled_from([0.0, 0.7, -2.0]))]
    for _ in range(k - 1):
        angles.append(angles[-1] + MATCH * data.draw(st.sampled_from([0, 0.5, 0.7, 1, 2, 3, 100])))
    shifts = data.draw(st.lists(st.sampled_from([0.0, 0.0, -0.5, 0.5]), min_size=k, max_size=k))
    if circle:
        diag = [(1.0 + s) * np.exp(1j * a) for a, s in zip(angles, shifts)]
    else:
        diag = [s + 1j * a for a, s in zip(angles, shifts)]
    upper = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=k * k, max_size=k * k))
    block = np.diag(diag) + np.triu(np.reshape(upper, (k, k)), 1)
    if seed is not None:
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        block = q @ block @ q.conj().T
    return block


class TestBoundaryFaults:
    @CHECKS
    @given(data=st.data(), circle=st.booleans(), cells=st.integers(1, 5),
           dim=st.integers(1, 3), seed=st.none() | st.integers(0, 2**16))
    def test_equals_the_per_cell_loop(self, data, circle, cells, dim, seed):
        blocks = [boundary_block(data, data.draw(st.integers(1, dim)), circle, seed)
                  for _ in range(cells)]
        family = atomic_family(blocks, weights_for(data, cells), dim)
        distance = _modulus_gap if circle else np.real
        asked = data.draw(st.lists(st.integers(0, cells - 1), unique=True))
        got = semigroup.boundary_faults(family, asked, distance, NEAR, MATCH)
        want = oracles.boundary_faults(family, asked, distance, NEAR, MATCH)
        assert [(c, bits(v), crosses) for c, v, crosses in got] == [
            (c, bits(v), crosses) for c, v, crosses in want
        ]

    @pytest.mark.parametrize("circle", [False, True])
    @pytest.mark.parametrize("gap", [0.0, 0.5, 0.7, 1.0, 2.0, 3.0])
    def test_close_pairs(self, circle, gap):
        # a coupled pair at most one match radius apart is one defective
        # ball; farther apart, each eigenvalue is simple. The uncoupled
        # pair, the 1 x 1 cell in the padded group and the zero-weight
        # Jordan block are never faults.
        point = (lambda a: np.exp(1j * a)) if circle else (lambda a: 1j * a)
        a, b = point(0.0), point(gap * MATCH)
        blocks = [[[a, 1.0], [0.0, b]], [[a, 0.0], [0.0, b]], [[a]], [[a, 1.0], [0.0, a]]]
        family = atomic_family(blocks, [1.0, 1.0, 0.5, 0.0])
        distance = _modulus_gap if circle else np.real
        got = semigroup.boundary_faults(family, range(4), distance, NEAR, MATCH)
        assert [(c, crosses) for c, _, crosses in got] == ([(0, False)] if gap <= 1 else [])
        want = oracles.boundary_faults(family, range(4), distance, NEAR, MATCH)
        assert [(c, bits(v)) for c, v, _ in got] == [(c, bits(v)) for c, v, _ in want]


def test_rot256_takes_no_walk_and_no_rank_test(tmp_path, monkeypatch):
    # 256 simple imaginary eigenvalues, 256 clusters: the one ball_clusters
    # call is the almost-weak stage's, and it takes no walk; boundary_faults
    # clusters nothing and takes no rank test
    calls = {name: counted(monkeypatch, linalg, name)
             for name in ("ball_clusters", "_greedy_walk", "semisimple_multiplicities")}
    path = tmp_path / "rot256.json"
    path.write_text(json.dumps(make_config("rot256", 1)))
    report = cli.run_analysis(cli.load_config(path))
    assert {name: len(args) for name, args in calls.items()} == {
        "ball_clusters": 1, "_greedy_walk": 0, "semisimple_multiplicities": 0,
    }
    assert len(report["almost_weak"]["clusters"]) == 256
