"""The norm floor: every norm kernel brackets each 2-norm, lo <= ||F|| <= hi,
and computes the exact norm2 only where the bracket can reach the supremum
its caller reads (per time, or over the whole grid) or decide whether a
block contracts. The filtered results must give the exhaustive per-time
ess-sup, overall maximum and contraction flags bit for bit, and every upper
bound kept in place of a norm must be at least that norm."""

import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import cli, linalg, semigroup
from semistab.linalg import CONTRACTION, expm_norms, floor_norms, norm2
from semistab.measure import ATOMIC, DiscretizedMeasureSpace
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

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           kinds=st.lists(st.sampled_from(["dense", "rank-one", "unitary", "zero", "huge",
                                           "tiny", "duplicate"]), min_size=1, max_size=6))
    def test_floor_norms_keep_the_maximum_over_calls(self, seed, k, kinds):
        # the discrete power bound: one (1,) floor across several stacks
        rng = np.random.default_rng(seed)
        stacks = []
        for kind in kinds:
            m = rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k))
            if kind == "rank-one":
                m = m[:, :, :1] @ m[:, :1, :].conj()
            elif kind == "unitary":
                m = np.stack([np.eye(k, dtype=complex)[rng.permutation(k)] for _ in range(3)])
            elif kind == "zero":
                m[:] = 0.0
            elif kind in ("huge", "tiny"):
                m *= 2.0**900 if kind == "huge" else 2.0**-900
            elif stacks:
                m = stacks[-1].copy()
            stacks.append(m)
        floor = np.zeros(1)
        got = [floor_norms(m, floor) for m in stacks]
        exact = [norm2(m) for m in stacks]
        for g, x in zip(got, exact):
            assert (g >= x).all()
        top = max(float(x.max()) for x in exact)
        assert bits(max(float(g.max()) for g in got)) == bits(top)
        assert bits(floor[0]) == bits(top)


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


@pytest.mark.parametrize("workload, want", [("zab40", 1296), ("rh64", 6144)])
def test_analyze_examines_the_lead_once_per_horizon(tmp_path, monkeypatch, workload, want):
    # the uniform lead pass solves the lead's norms exactly once one falls
    # below, so the full pass takes only the other cells: 16 (zab40) and 48
    # (rh64) fewer (time, cell) pairs than a second, exact lead pass
    pairs = []
    real_norms = linalg.expm_norms
    monkeypatch.setattr(linalg, "expm_norms", lambda a, t, v, **kw: pairs.append(
        len(np.reshape(t, -1)) * len(a)) or real_norms(a, t, v, **kw))
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(make_config(workload, 1)))
    cli.run_analysis(cli.load_config(path))
    assert sum(pairs) == want
