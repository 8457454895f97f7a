"""The norm floor: every norm kernel brackets each 2-norm, lo <= ||F|| <= hi,
and computes the exact norm2 only where the bracket can reach the supremum
its caller reads (per time, or over the whole grid) or decide whether a
block contracts. The filtered results must give the exhaustive per-time
ess-sup, overall maximum and contraction flags bit for bit, and every upper
bound kept in place of a norm must be at least that norm."""

import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import cli, discrete, linalg, semigroup
from semistab.discrete import power_schedule
from semistab.linalg import CONTRACTION, expm_norms, norm2
from semistab.measure import ATOMIC, DiscretizedMeasureSpace
from semistab.cases import random_hurwitz_family, zabczyk_family
from semistab.semigroup import PointwiseFamily, orbit_norms, random_probes, time_grid

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import make_config  # noqa: E402

CHECKS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ROUTES = ("closed", "eigen", "pade")

#: special blocks mixed into a stack: ties, norms exactly 1, tiny entries,
#: and a slow contraction whose norms dip below CONTRACTION while its
#: brackets straddle it
SPECIALS = st.lists(st.sampled_from(["duplicate", "unitary", "zero", "tiny", "slow"]),
                    max_size=4)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def route_block(rng, route, k):
    """One k x k generator block on the given route of linalg._runs."""
    lam = rng.uniform(-1.0, 0.3) + 1j * rng.uniform(-3.0, 3.0)
    if route == "closed" or k == 1:
        upper = np.triu(rng.uniform(0.0, 2.0, (k, k)) * (rng.random((k, k)) < 0.7), 1)
        return lam * np.eye(k) + upper
    dense = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    if route == "eigen":
        return 0.5 * dense + lam * np.eye(k)
    # a conjugated Jordan block: defective, so far above the eigenbasis bound
    q, _ = np.linalg.qr(dense)
    return q @ (lam * np.eye(k) + np.diag(np.full(k - 1, 2.0), 1)) @ q.conj().T


def generator_stack(seed, k, route, specials):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    stack = np.stack([route_block(rng, route, k) for _ in range(m)])
    for kind in specials:
        b = int(rng.integers(m))
        if kind == "duplicate":
            stack[b] = stack[(b + 1) % m]
        elif kind == "unitary":
            # i theta I: e^{tA} = e^{i t theta} I, whose real factor is I
            stack[b] = 1j * rng.uniform(-2.0, 2.0) * np.eye(k)
        elif kind == "zero":
            stack[b] = 0.0
        elif kind == "slow":
            stack[b] = -1e-3 * np.eye(k)
        else:
            stack[b] = 2.0**-900 * route_block(rng, route, k)
    return stack


def check_filtered(exact, got, floor, times, contract):
    """The filtered norms `got` and final `floor` against the exhaustive
    norms `exact` of the same (T, m) pairs."""
    # every kept upper bound is at least the exact norm; exact ones are equal
    assert (got >= exact).all()
    if floor.size == times.size:
        np.testing.assert_array_equal(bits(floor), bits(exact.max(axis=1)))
        np.testing.assert_array_equal(bits(got.max(axis=1)), bits(exact.max(axis=1)))
    else:
        assert bits(floor[0]) == bits(exact.max())
        assert bits(got.max()) == bits(exact.max())
    if contract:
        later = times > 0
        np.testing.assert_array_equal(
            (got[later] < CONTRACTION).any(axis=0), (exact[later] < CONTRACTION).any(axis=0)
        )


class TestGramBracket:
    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7),
           kind=st.sampled_from(["dense", "real", "rank-one", "unitary", "zero"]),
           scale=st.sampled_from([1.0, 2.0**900, 2.0**-900]))
    def test_bracket_holds_the_computed_norm(self, seed, k, kind, scale):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, k, k)) + 1j * rng.standard_normal((5, k, k))
        if kind == "real":
            m = m.real.copy()
        elif kind == "rank-one":
            m = m[:, :, :1] @ m[:, :1, :].conj()
        elif kind == "unitary":
            m = np.stack([np.eye(k)[rng.permutation(k)] * rng.choice([-1, 1], k)
                          for _ in range(5)])
        elif kind == "zero":
            m[:] = 0.0
        m = m * scale
        c, e = linalg._scaled(m, (-2, -1))
        gram, e = linalg._gram(c), e[..., 0, 0]
        lo, hi = linalg._bracket(gram, e)
        exact = norm2(m)
        assert (lo <= exact).all() and (exact <= hi).all()
        if kind == "unitary":
            # norm exactly the scale, and a unit bracket does not straddle
            # CONTRACTION
            np.testing.assert_array_equal(exact, scale)
            assert (lo >= CONTRACTION * scale).all()
        if k == 1:
            np.testing.assert_array_equal(bits(lo), bits(exact))
            np.testing.assert_array_equal(bits(hi), bits(exact))


class TestExpmNormsFloor:
    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), route=st.sampled_from(ROUTES),
           specials=SPECIALS, per_time=st.booleans(), contract=st.booleans(),
           probes=st.sampled_from([0, 2]), tiny_chunks=st.booleans())
    def test_filtered_norms_give_the_exhaustive_suprema(
        self, seed, k, route, specials, per_time, contract, probes, tiny_chunks
    ):
        a = generator_stack(seed, k, route, specials)
        rng = np.random.default_rng(seed + 1)
        times = time_grid(float(rng.uniform(1.0, 40.0)), int(rng.integers(3, 12)))
        v = rng.standard_normal((probes, len(a), k)) + 1j * rng.standard_normal(
            (probes, len(a), k))
        # one (time, block) pair per run, or the default chunks
        with mock.patch.object(linalg, "STACK_BYTES", 1 if tiny_chunks else linalg.STACK_BYTES):
            exact, exact_v = expm_norms(a, times, v)
            floor = np.zeros(times.size if per_time else 1)
            got, got_v = expm_norms(a, times, v, floor=floor,
                                     below=CONTRACTION if contract else None)
        check_filtered(exact, got, floor, times, contract)
        # the probe norms never depend on the floor
        np.testing.assert_array_equal(bits(got_v), bits(exact_v))

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5),
           routes=st.lists(st.sampled_from(ROUTES), min_size=1, max_size=4),
           specials=SPECIALS, step=st.sampled_from([0.25, 1.0, 3.0]))
    def test_one_floor_keeps_the_maximum_over_calls(self, seed, k, routes, specials, step):
        # the discrete power bound: one (1,) floor carried across the calls
        # of several stacks, at the times n t of a power schedule
        times = step * np.array(power_schedule(64), dtype=float)
        floor, got, exact = np.zeros(1), [], []
        for i, route in enumerate(routes):
            a = generator_stack(seed + i, k, route, specials)
            none = np.zeros((0, len(a), k))
            exact.append(expm_norms(a, times, none)[0])
            got.append(expm_norms(a, times, none, floor=floor)[0])
        for g, x in zip(got, exact):
            assert (g >= x).all()
        top = max(float(x.max()) for x in exact)
        assert bits(max(float(g.max()) for g in got)) == bits(top)
        assert bits(floor[0]) == bits(top)

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), route=st.sampled_from(ROUTES),
           specials=SPECIALS)
    def test_a_seeded_lead_is_not_computed_again(self, seed, k, route, specials):
        # the uniform cross-check's full pass: the lead block's exact norms
        # seed the per-time floor of the other blocks
        a = generator_stack(seed, k, route, specials)
        times = time_grid(30.0, 9)
        exact = expm_norms(a, times, np.zeros((0, len(a), k)))[0]
        floor = exact[:, 0].copy()
        got = expm_norms(a[1:], times, np.zeros((0, len(a) - 1, k)), floor=floor)[0]
        assert (got >= exact[:, 1:]).all()
        np.testing.assert_array_equal(bits(floor), bits(exact.max(axis=1)))


    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), route=st.sampled_from(ROUTES),
           specials=SPECIALS, probes=st.sampled_from([0, 2]), tiny_chunks=st.booleans(),
           level=st.floats(0.05, 0.95))
    def test_a_settled_block_reads_every_norm_exactly(
        self, seed, k, route, specials, probes, tiny_chunks, level
    ):
        # the uniform lead pass: brackets until a block falls below, then
        # every norm of that block exact, in whichever run it fell below
        a = generator_stack(seed, k, route, specials)
        rng = np.random.default_rng(seed + 1)
        times = time_grid(float(rng.uniform(1.0, 40.0)), int(rng.integers(3, 12)))
        v = rng.standard_normal((probes, len(a), k)) + 1j * rng.standard_normal(
            (probes, len(a), k))
        exact, exact_v = expm_norms(a, times, v)
        below = float(np.quantile(exact[times > 0], level))
        # one (time, block) pair per run: a block can fall below after runs
        # that kept only bounds
        with mock.patch.object(linalg, "STACK_BYTES", 1 if tiny_chunks else linalg.STACK_BYTES):
            got, got_v = expm_norms(a, times, v, below=below)
        falls = (exact[times > 0] < below).any(axis=0)
        assert (got >= exact).all()
        np.testing.assert_array_equal(bits(got[:, falls]), bits(exact[:, falls]))
        np.testing.assert_array_equal((got[times > 0] < below).any(axis=0), falls)
        np.testing.assert_array_equal(bits(got_v), bits(exact_v))


def test_a_cancelling_probe_product_keeps_its_norm():
    # R(400) of [[-1, 1e200], [0, -1]] has a diagonal 2^-674 times its
    # largest entry, so the scaled product with v = (1, 0) squares to below
    # the double range and is rescaled by its own exponent
    a = np.array([[[-1.0, 1e200], [0.0, -1.0]]])
    v = np.array([[[1.0, 0.0]]], dtype=complex)
    _, vnorms = expm_norms(a, [400.0], v)
    want = linalg.vector_norms(linalg.expm_stack(a, [400.0])[0, 0] @ v[0, 0])
    assert bits(vnorms[0, 0, 0]) == bits(want)
    assert vnorms[0, 0, 0] == np.exp(-400.0)


class TestOrbitNormsFloor:
    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), route=st.sampled_from(ROUTES),
           specials=SPECIALS, per_time=st.booleans())
    def test_groups_and_null_cells_share_one_floor(self, seed, route, specials, per_time):
        # cells of three active dimensions in 4 x 4 storage, some of zero
        # weight: the floor runs across the groups, over positive cells only
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, 5, 7)
        mats = np.zeros((7, 4, 4), dtype=complex)
        for c, k in enumerate(dims):
            block = generator_stack(int(rng.integers(2**32)), int(k), route, specials)[0]
            mats[c, :k, :k] = block
        weights = rng.choice([0.0, 0.5, 1.0], 7)
        weights[int(rng.integers(7))] = 1.0
        space = DiscretizedMeasureSpace(weights=weights, labels=np.arange(7.0), mode=ATOMIC)
        family = PointwiseFamily(space=space, dim=4, matrices=mats, active_dims=dims)
        times = time_grid(20.0, 8)
        probes = random_probes(family, 2, seed=seed % 1000)
        exact, exact_probes = orbit_norms(family, times, probes)
        floor = np.zeros(times.size if per_time else 1)
        got, got_probes = orbit_norms(family, times, probes, floor=floor, below=CONTRACTION)
        positive = space.positive_cells()
        check_filtered(exact[:, positive], got[:, positive], floor, times, True)
        np.testing.assert_array_equal(got[:, weights == 0], 0.0)
        np.testing.assert_array_equal(bits(got_probes), bits(exact_probes))


def closed_form_stack(rng, kind, k, m=4):
    """m closed-form blocks lambda I + N: N a scaled shift, zero, or random
    nonnegative strictly upper triangular with entries of one scale up to
    1e6 (so ||N||_2 exceeds the largest entry); Re lambda
    from -2 to 0 (a third of them within 1e-3 of 0), Im lambda up to 50."""
    blocks = []
    for _ in range(m):
        re = -rng.uniform(0.0, 1e-3) if rng.random() < 1 / 3 else -rng.uniform(0.0, 2.0)
        lam = re + 1j * rng.uniform(-50.0, 50.0)
        if kind == "shift":
            nil = 10.0 ** rng.uniform(-3.0, 6.0) * np.diag(np.ones(k - 1), 1)
        elif kind == "random":
            nil = np.triu(10.0 ** rng.uniform(-3.0, 6.0) * rng.random((k, k))
                          * (rng.random((k, k)) < 0.6), 1)
        else:
            nil = np.zeros((k, k))
        blocks.append(lam * np.eye(k) + nil)
    return np.stack(blocks)


def mixed_family(rng, dims, routes, weights):
    """One cell per entry of `dims`, of the given kernel routes, zero-padded
    to the largest dimension."""
    n = int(max(dims))
    mats = np.zeros((len(dims), n, n), dtype=complex)
    for c, (k, route) in enumerate(zip(dims, routes)):
        mats[c, :k, :k] = route_block(rng, route, int(k))
    space = DiscretizedMeasureSpace(weights=weights, labels=np.arange(float(len(dims))),
                                    mode=ATOMIC)
    return PointwiseFamily(space=space, dim=n, matrices=mats, active_dims=dims)


class TestClosedFormScreen:
    """A floor pass settles t = 0 and skips the closed-form cells whose
    certified bound U (linalg.closed_form_bounds) stays below the floor; a
    skipped column holds U, which must be at least the norm the kernel
    computes, and the floor bits must be those of the exact pass."""

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           kind=st.sampled_from(["shift", "zero", "random"]))
    def test_bound_holds_the_computed_norm(self, seed, k, kind):
        rng = np.random.default_rng(seed)
        a = closed_form_stack(rng, kind, k)
        t = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 1e4, 6),
                                    10.0 ** rng.uniform(-4.0, 4.0, 6)]))
        bounds = linalg.closed_form_bounds(linalg.envelope(a), t)
        np.testing.assert_array_equal(bounds[t == 0], 1.0)
        # the complex e^{tA} and the real factor the norm kernel reads
        complex_norms = norm2(linalg.expm_stack(a, t))
        real_norms = expm_norms(a, t, np.zeros((0, len(a), k)))[0]
        assert (bounds >= complex_norms).all() and (bounds >= real_norms).all()
        if kind == "zero" or k == 1:
            # e^{t Re lambda} itself, up to the widening
            normal = real_norms > 1e-300
            assert (bounds[normal] <= real_norms[normal] * (1 + 1e-9)).all()

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    def test_closed_form_test_reads_the_active_blocks(self, seed, n):
        # one pass over a padded stack marks the blocks lambda I + N, N
        # strictly upper triangular, real and nonnegative, whatever the
        # padding holds: against the definition, block by block
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, n + 1, 8)
        a = rng.choice([0.0, 3.0, -1j], (8, n, n))
        for b, k in enumerate(dims):
            lam = complex(rng.choice([0.0, 1.5, -2.0]), rng.choice([0.0, 1.0]))
            block = lam * np.eye(k) + np.triu(rng.choice([0.0, 1.0, 2.0], (k, k)), 1)
            i, j = rng.integers(0, k, 2)
            block[i, j] += rng.choice([0.0, 1j, -1.0, 0.5])
            a[b, :k, :k] = block
        want = []
        for b, k in enumerate(dims):
            nil = a[b, :k, :k] - a[b, 0, 0] * np.eye(k)
            want.append(not ((nil.imag != 0) | (nil.real < 0)
                             | (np.tri(k, dtype=bool) & (nil.real != 0))).any())
        np.testing.assert_array_equal(linalg._closed_form_blocks(a, dims), want)
        np.testing.assert_array_equal(linalg.envelope(a, dims).closed, want)
        square = dims == n
        np.testing.assert_array_equal(linalg._closed_form_blocks(a[square]),
                                      np.array(want)[square])

    def test_bound_is_infinite_off_the_closed_form(self):
        rng = np.random.default_rng(3)
        a = np.stack([route_block(rng, route, 3) for route in ("closed", "eigen", "pade")])
        bounds = linalg.closed_form_bounds(linalg.envelope(a), [0.0, 1.0])
        assert np.isfinite(bounds[1, 0]) and np.isinf(bounds[1, 1:]).all()
        np.testing.assert_array_equal(bounds[0], 1.0)

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1),
           family_kind=st.sampled_from(["zabczyk", "mixed", "hurwitz"]),
           per_time=st.booleans(), below=st.sampled_from([None, "all", "some"]),
           subset=st.booleans(), seeded=st.booleans())
    def test_floor_passes_keep_the_exact_suprema(
        self, seed, family_kind, per_time, below, subset, seeded
    ):
        # Zabczyk (closed form), mixed routes, and dense random-Hurwitz
        # stacks on the eigenbasis route (eigenbasis_bounds)
        rng = np.random.default_rng(seed)
        if family_kind != "mixed":
            n = int(rng.integers(3, 13))
            family = zabczyk_family(n) if family_kind == "zabczyk" else random_hurwitz_family(
                int(rng.integers(2**31)), int(rng.integers(2, 7)), n, rng.uniform(0.02, 1.0))
            weights = family.space.weights.copy()
            weights[rng.random(n) < 0.2] = 0.0
            weights[int(rng.integers(n))] = 1.0
            space = DiscretizedMeasureSpace(weights=weights, labels=family.space.labels,
                                            mode=ATOMIC)
            family = PointwiseFamily(space=space, dim=family.dim, matrices=family.matrices,
                                     active_dims=family.active_dims)
            times = time_grid(float(rng.uniform(5.0, 400.0)), int(rng.integers(3, 17)))
        else:
            n = 9
            dims = rng.integers(1, 5, n)
            routes = rng.choice(ROUTES, n, p=[0.6, 0.2, 0.2])
            weights = rng.choice([0.0, 0.5, 1.0], n)
            weights[int(rng.integers(n))] = 1.0
            family = mixed_family(rng, dims, routes, weights)
            times = time_grid(float(rng.uniform(1.0, 30.0)), int(rng.integers(3, 12)))
        cells = np.arange(n)
        if subset:
            cells = np.flatnonzero(rng.random(n) < 0.6)
        thresholds = {None: None, "all": CONTRACTION,
                      "some": np.where(rng.random(n) < 0.5, CONTRACTION, 0.0)}[below]
        exact = orbit_norms(family, times)[0]
        chosen = np.intersect1d(cells, family.space.positive_cells())
        rest = chosen
        floor = np.zeros(times.size if per_time else 1)
        if seeded and chosen.size:
            # the uniform cross-check: the lead's exact norms seed the floor
            floor = exact[:, chosen[0]].copy() if per_time else exact[:, chosen[:1]].max(
                keepdims=True)[0]
            rest = chosen[1:]
        got = orbit_norms(family, times, cells=rest, floor=floor, below=thresholds)[0]
        assert (got[:, rest] >= exact[:, rest]).all()
        others = np.setdiff1d(np.arange(n), rest)
        np.testing.assert_array_equal(got[:, others], 0.0)
        if chosen.size:
            want = exact[:, chosen].max(axis=1) if per_time else exact[:, chosen].max()
            np.testing.assert_array_equal(bits(floor), bits(np.reshape(want, floor.shape)))
        if thresholds is not None:
            asked = rest[np.broadcast_to(thresholds, (n,))[rest] > 0]
            later = times > 0
            np.testing.assert_array_equal((got[later][:, asked] < CONTRACTION).any(axis=0),
                                          (exact[later][:, asked] < CONTRACTION).any(axis=0))

    def test_an_undecided_contraction_is_not_skipped(self):
        # cell 1, [[-a, 10], [0, -a]] at t = 1: norm 0.959 < 1 < U = 1.045,
        # both below the floor e^1 of cell 0. Skipped, it would keep U and
        # read as no contraction; asked whether it contracts, it is computed
        a = -math.log(0.095)
        mats = np.zeros((2, 2, 2), dtype=complex)
        mats[0, 0, 0] = 1.0
        mats[1] = [[-a, 10.0], [0.0, -a]]
        space = DiscretizedMeasureSpace(weights=np.ones(2), labels=np.arange(2.0), mode=ATOMIC)
        family = PointwiseFamily(space=space, dim=2, matrices=mats, active_dims=[1, 2])
        times = np.array([0.0, 1.0])
        bounds = linalg.closed_form_bounds(family._envelope, times)
        exact = orbit_norms(family, times)[0]
        assert exact[1, 1] < CONTRACTION < bounds[1, 1] < exact[1, 0]
        for below in (CONTRACTION, np.array([0.0, CONTRACTION])):
            floor = np.zeros(1)
            got = orbit_norms(family, times, floor=floor, below=below)[0]
            assert got[1, 1] < CONTRACTION
            assert bits(floor[0]) == bits(exact.max())
        # not asked, it is skipped and keeps its bound
        got = orbit_norms(family, times, floor=np.zeros(1), below=np.array([CONTRACTION, 0.0]))[0]
        assert bits(got[1, 1]) == bits(bounds[1, 1])

    def test_a_single_floor_visits_the_largest_bound_first(self):
        # Zabczyk 12 with a (1,) floor: the 12 x 12 cell, whose bound is the
        # largest, is visited first and its peak leaves every other cell's
        # bound below the floor, so only its group is factored
        family = zabczyk_family(12)
        times = time_grid(400.0, 16)
        floor = np.zeros(1)
        got = orbit_norms(family, times, floor=floor)[0]
        assert list(family.factors) == [11]
        exact = orbit_norms(family, times)[0]
        assert bits(floor[0]) == bits(exact.max())
        assert (got >= exact).all()
        np.testing.assert_array_equal(got[0], 1.0)


def complex_gaussian(rng, k):
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def eigenbasis_stack(rng, kind, k, m=4):
    """m k x k blocks on the eigenbasis route (cond2(V) <= EIGENBASIS_COND),
    with spectral bound from -1 to 0.05: random Hurwitz (complex Gaussian /
    sqrt(2k)); Q (D + c U) Q^H as in tools/expm_accuracy.py, c from 0.1 to
    100, mu_2 > 0 for most; or normal Q (i D) Q^H with ||A|| up to 1e3 and
    one real part, where ||e^{tA}|| = e^{t mu_2(A)}."""
    blocks = []
    while len(blocks) < m:
        q, _ = np.linalg.qr(complex_gaussian(rng, k))
        if kind == "hurwitz":
            a = complex_gaussian(rng, k) / np.sqrt(2.0 * k)
        elif kind == "conjugated":
            d = 0.5 * rng.standard_normal(k) + 1j * rng.standard_normal(k)
            u = 10 ** rng.uniform(-1, 2) * np.triu(complex_gaussian(rng, k), 1)
            a = q @ (np.diag(d) + u) @ q.conj().T
        else:
            a = q @ np.diag(1j * 10 ** rng.uniform(0, 3) * rng.standard_normal(k)) @ q.conj().T
        a -= (linalg.eigenvalues(a).real.max() - rng.uniform(-1.0, 0.05)) * np.eye(k)
        if linalg._eigenbasis(a[None])[0][0]:
            blocks.append(a)
    return np.stack(blocks)


def screen_times(rng, a):
    """0, times up to 1e4, and for each block with spectral bound alpha <
    -0.0725 the time 725 / |alpha|, where e^{t alpha} is subnormal."""
    alpha = linalg.eigenvalues(a).real.max(axis=1)
    return np.sort(np.concatenate([[0.0], rng.uniform(0.0, 1e4, 6),
                                   10.0 ** rng.uniform(-4.0, 4.0, 6),
                                   -725.0 / alpha[alpha < -0.0725]]))


class TestEigenbasisScreen:
    """The eigenbasis route's certified bound U (linalg.eigenbasis_bounds):
    the smaller of the log-norm and the spectral-projector bound, which
    must hold the norm2 of the product the kernel computes; a floor pass
    forms only the pairs whose U can reach the floor."""

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6),
           kind=st.sampled_from(["hurwitz", "conjugated", "normal"]))
    def test_bound_holds_the_computed_norm(self, seed, k, kind):
        rng = np.random.default_rng(seed)
        a = eigenbasis_stack(rng, kind, k)
        t = screen_times(rng, a)
        factor = linalg.factorize(a)
        assert factor.well.all()
        bounds = linalg.eigenbasis_bounds(factor.eigen, t)
        np.testing.assert_array_equal(bounds[t == 0], 1.0)
        complex_norms = norm2(linalg.expm_stack(a, t))
        kernel_norms = expm_norms(a, t, np.zeros((0, len(a), k)))[0]
        assert (bounds >= complex_norms).all() and (bounds >= kernel_norms).all()
        if kind == "normal":
            # e^{t mu_2} itself at short times, up to the widening
            short = t <= 1.0
            assert (bounds[short] <= kernel_norms[short] * (1 + 1e-9)).all()

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6),
           kind=st.sampled_from(["hurwitz", "normal"]))
    def test_bound_holds_for_inexact_factors(self, seed, k, kind):
        # factors far less accurate than LAPACK's: eigenvalues off by 1e-9
        # relative, eigenvector columns rescaled by 0.1 to 10 and an inverse
        # off by 1e-9. U reads the factors the kernel multiplies, so it
        # holds their product, through the residual, ||V W - I|| and the
        # column norms of V, and the exact norm, through the spread of the
        # product from e^{tA}: the product of LAPACK's factors stands in for
        # it, within the route's error t ||A|| cond2(V) eps, below 1e-8 here
        rng = np.random.default_rng(seed)
        a = eigenbasis_stack(rng, kind, k)
        m = len(a)
        w, v = np.linalg.eig(a)
        w = w * (1 + 1e-9 * (rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)))
        v = v * 10 ** rng.uniform(-1.0, 1.0, (m, 1, k))
        vinv = np.linalg.inv(v) @ (np.eye(k) + 1e-9 * np.stack(
            [complex_gaussian(rng, k) for _ in range(m)]))
        eigen = linalg._eigen(a, w, v, vinv)
        factor = linalg.Factor(np.zeros(m, dtype=bool), (), np.ones(m, dtype=bool), eigen)
        t = screen_times(rng, a)
        bounds = linalg.eigenbasis_bounds(eigen, t)
        assert (bounds >= norm2(linalg.expm_stack(a, t, factor=factor))).all()
        assert (bounds >= norm2(linalg.expm_stack(a, t)) * (1 - 1e-8)).all()

    def test_a_single_floor_forms_the_largest_bound_first(self, monkeypatch):
        # 64 dense 6 x 6 random-Hurwitz blocks over 48 times with a (1,)
        # floor: the pairs run in decreasing U, and the first chunk (113
        # pairs, STACK_BYTES of 6 x 6 complex matrices) lifts the floor above
        # the bound of every other pair of the 47 x 64 after t = 0
        family = random_hurwitz_family(seed=5, dim=6, cells=64, margin=0.2)
        times = time_grid(200.0, 48)
        exact = orbit_norms(family, times)[0]
        formed = []
        real = linalg._eigen_chunk
        monkeypatch.setattr(linalg, "_eigen_chunk", lambda w, v, vinv, t: formed.append(
            len(t)) or real(w, v, vinv, t))
        floor = np.zeros(1)
        got = orbit_norms(family, times, floor=floor)[0]
        assert bits(floor[0]) == bits(exact.max())
        assert (got >= exact).all()
        assert formed == [113]


def test_zab40_smoke_runs_fewer_eigensolves_than_pairs(tmp_path, monkeypatch):
    # every (time, cell) pair a kernel examines, against the matrices the
    # exact norm2 eigensolves
    pairs, solves = [], []
    real_norms, real_top = linalg.expm_norms, linalg._top
    monkeypatch.setattr(linalg, "expm_norms", lambda a, t, v, **kw: pairs.append(
        len(np.reshape(t, -1)) * len(a)) or real_norms(a, t, v, **kw))
    monkeypatch.setattr(linalg, "_top", lambda gram, e: solves.append(
        int(np.prod(gram.shape[:-2]))) or real_top(gram, e))
    path = tmp_path / "zab40.json"
    path.write_text(json.dumps(make_config("zab40", 1, "smoke")))
    cli.run_analysis(cli.load_config(path))
    assert sum(solves) < sum(pairs)
    # norm_curves keeps its exhaustive meaning: one eigensolve per pair
    family = cli.build_family(cli.load_config(path))
    pairs.clear(), solves.clear()
    semigroup.norm_curves(family, time_grid(400.0, 16))
    assert sum(solves) == sum(pairs)


def stage_log(monkeypatch):
    """{"continuous": [], "discrete": [], "stage": name}: a spy appends to
    log[log["stage"]], which reads "discrete" while the CLI's discrete stage
    runs and "continuous" otherwise."""
    log = {"continuous": [], "discrete": [], "stage": "continuous"}
    real = discrete.build_discrete_report

    def tagged(*args, **kwargs):
        log["stage"] = "discrete"
        try:
            return real(*args, **kwargs)
        finally:
            log["stage"] = "continuous"

    monkeypatch.setattr(cli.discrete, "build_discrete_report", tagged)
    return log


@pytest.mark.parametrize("workload, want", [("zab40", 152), ("rh64", 6017)])
def test_analyze_examines_the_lead_once_per_horizon(tmp_path, monkeypatch, workload, want):
    # the uniform lead pass solves the lead's norms exactly once one falls
    # below, so the full pass takes only the other cells: 16 (zab40) and 48
    # (rh64) fewer (time, cell) pairs than a second, exact lead pass. The
    # floor passes settle t = 0 without the kernel (rh64: 48 + 63 x 47 +
    # 64 x 47 pairs), and zab40's skip the cells whose certified bound stays
    # below the floor (1,296 pairs without the screen and the t = 0 rule).
    # rh64's discrete stage examines its 16 scheduled powers and one norm
    # check power on each of the 64 cells
    log = stage_log(monkeypatch)
    real_norms = linalg.expm_norms
    monkeypatch.setattr(linalg, "expm_norms", lambda a, t, v, **kw: log[log["stage"]].append(
        len(np.reshape(t, -1)) * len(a)) or real_norms(a, t, v, **kw))
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(make_config(workload, 1)))
    cli.run_analysis(cli.load_config(path))
    assert sum(log["continuous"]) == want
    assert sum(log["discrete"]) == (17 * 64 if workload == "rh64" else 0)


def test_rh64_analyze_forms_few_eigenbasis_products(tmp_path, monkeypatch):
    # every rh64 block takes the eigenbasis route; the floor passes form only
    # the (time, cell) pairs whose certified bound can reach the floor
    # (6,081 products and 1,348 solved matrices without the screen). The
    # discrete stage forms its sample (64 products) and, of its 1,088 power
    # pairs, again only those that can reach its floor
    log = stage_log(monkeypatch)
    real_chunk, real_top = linalg._eigen_chunk, linalg._top
    monkeypatch.setattr(linalg, "_eigen_chunk", lambda w, v, vinv, t: log[log["stage"]].append(
        ("products", len(t))) or real_chunk(w, v, vinv, t))
    monkeypatch.setattr(linalg, "_top", lambda gram, e: log[log["stage"]].append(
        ("solves", int(np.prod(gram.shape[:-2])))) or real_top(gram, e))
    path = tmp_path / "rh64.json"
    path.write_text(json.dumps(make_config("rh64", 1)))
    cli.run_analysis(cli.load_config(path))

    def total(stage, kind):
        return sum(n for what, n in log[stage] if what == kind)

    assert total("continuous", "products") <= 600
    assert total("continuous", "solves") <= 300
    assert 64 < total("discrete", "products") <= 300
    assert total("discrete", "solves") <= 20
