"""The per-family factor: each active-dimension group of a PointwiseFamily is
factored once, on first kernel use, and every exponential and norm curve
reads slices of it. The closed form R(t) is summed over the nonzero band
entries of the powers of N only, and must equal the dense sum over every
entry bit for bit, with the same earliest non-finite time."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import cli, eigenbasis, linalg, semigroup
from semistab.cases import random_hurwitz_family, rotation_family, zabczyk_family
from semistab.errors import NumericalFailureError
from semistab.measure import ATOMIC, DiscretizedMeasureSpace
from semistab.semigroup import PointwiseFamily
from semistab.stability import certify_bounded, classify_uniform

from oracles import band, dense_real_factor

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import make_config  # noqa: E402

CHECKS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

#: the strictly upper triangular, nonnegative parts N of a closed-form block
KINDS = ("shift", "ones", "sparse", "zero")


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def nilpotent(rng, kind, k):
    if kind == "shift":
        return np.diag(np.ones(k - 1), 1)
    if kind == "ones":
        return np.triu(np.ones((k, k)), 1)
    if kind == "sparse":
        return np.triu(rng.uniform(0.0, 3.0, (k, k)) * (rng.random((k, k)) < 0.4), 1)
    return np.zeros((k, k))


def closed_block(rng, kind, k, rate):
    """A closed-form k x k block lambda I + c N, Re lambda up to `rate` and
    the scale c spread over many binades."""
    lam = rng.uniform(-1.0, rate) + 1j * rng.uniform(-3.0, 3.0)
    return lam * np.eye(k) + 10.0 ** rng.uniform(-3.0, 6.0) * nilpotent(rng, kind, k)


def padded_family(blocks):
    """A family with one cell per block, each in the leading corner of the
    largest block's dimension."""
    dims = [len(b) for b in blocks]
    mats = np.zeros((len(blocks), max(dims), max(dims)), dtype=complex)
    for c, b in enumerate(blocks):
        mats[c, : len(b), : len(b)] = b
    space = DiscretizedMeasureSpace(weights=np.ones(len(blocks)),
                                    labels=np.arange(len(blocks), dtype=float), mode=ATOMIC)
    return PointwiseFamily(space=space, dim=max(dims), matrices=mats, active_dims=dims)


def check_band(a, t, factor):
    """R(t) of the one band of `factor` against the dense reference: the
    same finite (time, block) pairs, bit for bit there; and the kernel
    names the earliest time at which the dense sum is not finite."""
    (band,) = factor.bands
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = linalg._real_factor(a, t, band)
    want = dense_real_factor(a, t)
    finite = np.isfinite(want).all(axis=(2, 3))
    np.testing.assert_array_equal(np.isfinite(got).all(axis=(2, 3)), finite)
    np.testing.assert_array_equal(bits(got[finite]), bits(want[finite]))
    bad = t[~finite.all(axis=1)]
    if bad.size:
        with pytest.raises(NumericalFailureError) as info:
            linalg.expm_stack(a, t, factor=factor)
        assert info.value.time == bad.min()
    else:
        linalg.expm_stack(a, t, factor=factor)


class TestBandSum:
    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1),
           blocks=st.lists(st.tuples(st.integers(1, 6), st.sampled_from(KINDS)),
                           min_size=1, max_size=8),
           rate=st.sampled_from([0.0, 2.0]), horizon=st.sampled_from([5.0, 400.0, 1e4]))
    def test_band_sum_equals_the_dense_sum(self, seed, blocks, rate, horizon):
        # groups of mixed sizes; every grid starts at 0, and a positive rate
        # overflows the longer ones
        rng = np.random.default_rng(seed)
        family = padded_family([closed_block(rng, kind, k, rate) for k, kind in blocks])
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, 7))])
        # every cell, the lead alone and every cell but the lead, each group
        # through its slice of the family's factor
        for cells in (None, [0], list(range(1, len(blocks)))):
            for ids, stack, factor in family.groups(cells):
                assert factor.closed.all() and not factor.well.any()
                check_band(stack, t, factor)
                # a slice of the factor is the factor of the slice
                for x, y in zip(factor.bands[0], linalg.factorize(stack).bands[0]):
                    np.testing.assert_array_equal(bits(x), bits(y))

    @CHECKS
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
           kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    def test_band_fields_equal_those_from_the_float_basis(self, seed, k, kinds):
        # the terms come from the nonzero mask of the power basis: the same
        # indices, so the same band, as from the float basis
        rng = np.random.default_rng(seed)
        a = np.stack([closed_block(rng, kind, k, 2.0) for kind in kinds])
        got, want = linalg._band(a), band(a)
        for name, x, y in zip(linalg._Band._fields, got, want):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name

    def test_a_shift_takes_one_multiply_per_band_entry(self):
        # N^j of the shift is its j-th superdiagonal: one rank, k(k+1)/2 terms
        (band,) = linalg.factorize(zabczyk_family(40).block(39)[None]).bands
        assert band.starts.tolist() == [0, 40 * 41 // 2]
        np.testing.assert_array_equal(band.val, 1.0)

    def test_mixed_routes_slice_like_their_own_stack(self):
        # closed-form, eigenbasis and Pade blocks in one stack: any slice of
        # its factor gives the exponentials of the sliced stack bit for bit
        rng = np.random.default_rng(5)
        closed = np.stack([closed_block(rng, kind, 4, 0.0) for kind in KINDS])
        dense = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        dense -= 3 * np.eye(4)
        jordan = np.diag(np.full(3, 4.0), 1) - np.eye(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = np.concatenate([closed, dense, (q @ jordan @ q.T)[None]])[rng.permutation(8)]
        factor = linalg.factorize(a)
        assert factor.closed.sum() == 4 and factor.well.sum() == 3
        t = np.array([0.0, 0.5, 3.0, 20.0])
        for sub in ([0], [1, 2, 5], [0, 3, 4, 6, 7], list(range(8))):
            sub = np.array(sub)
            got = linalg.expm_stack(a[sub], t, factor=factor.take(sub))
            want = linalg.expm_stack(a[sub], t)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def counted(monkeypatch, module, names):
    """Count the calls of module.name for each of `names`, and record the
    first argument's length."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            calls[name].append(len(args[0])) or real(*args))
    return calls


def workload_config(tmp_path, workload):
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(make_config(workload, 1)))
    return cli.load_config(path)


class TestOneFactorPerFamily:
    def test_zab40_builds_one_factor_per_group(self, tmp_path, monkeypatch):
        # 40 groups of one Jordan block each, and a group is factored once,
        # when a pass first visits it: the floor passes skip the cells whose
        # certified bound stays below the floor, so they visit 8 groups
        # (without the screen all 40 were factored)
        cfg = workload_config(tmp_path, "zab40")
        calls = counted(monkeypatch, linalg, ("factorize", "_power_basis"))
        calls.update(counted(monkeypatch, eigenbasis, ("_eigenbasis",)))
        cli.run_analysis(cfg)
        assert calls["factorize"] == [1] * 8
        assert calls["_power_basis"] == [1] * 8
        assert calls["_eigenbasis"] == []

    def test_zab40_classifiers_visit_few_groups(self, monkeypatch):
        # the uniform cross-check and the boundedness gate on Zabczyk 40 with
        # a 16-point grid visit only the groups whose cell can reach the
        # floor (40 factorizations and 81 kernel passes without the screen);
        # rot256's gate still takes its one pass over the one group
        calls = counted(monkeypatch, linalg, ("factorize", "_runs"))
        family = zabczyk_family(40)
        classify_uniform(family, 1.0, 1e-6, grid_points=16)
        certify_bounded(family, semigroup.time_grid(4000.0, 16))
        assert len(calls["factorize"]) <= 8
        assert len(calls["_runs"]) <= 10
        calls["_runs"].clear()
        certify_bounded(rotation_family(256), semigroup.time_grid(50.0, 33))
        assert calls["_runs"] == [256]

    def test_rh64_eigendecomposes_its_blocks_once(self, tmp_path, monkeypatch):
        # the uniform cross-check, the boundedness gate and the discrete
        # powers all read one eigendecomposition of the 64 blocks (4 calls
        # before the family kept its factors)
        cfg = workload_config(tmp_path, "rh64")
        calls = counted(monkeypatch, eigenbasis, ("_eigenbasis",))
        cli.run_analysis(cfg)
        assert calls["_eigenbasis"] == [64]

    @pytest.mark.parametrize("workload", ["zab40", "rot256", "rh64"])
    def test_building_a_family_factors_nothing(self, tmp_path, monkeypatch, workload):
        # the factor is built by the first classifier, so setup is unchanged
        cfg = workload_config(tmp_path, workload)
        calls = counted(monkeypatch, linalg, ("factorize",))
        family = cli.build_family(cfg)
        cli.build_probes(cfg, family)
        assert calls["factorize"] == []
        assert family.factors == {}

    def test_cached_arrays_are_read_only(self):
        family = zabczyk_family(6, embed_dim=8)
        mixed = random_hurwitz_family(seed=3, dim=4, cells=5, margin=0.2)
        for fam in (family, mixed):
            # the exhaustive pass visits, and so factors, every group
            semigroup.norm_curves(fam, [0.0, 1.0])
            assert sorted(fam.factors) == list(range(len(fam._stacks)))
            for (ids, blocks), group in zip(fam._stacks, sorted(fam.factors)):
                factor = fam.factors[group]
                arrays = [ids, blocks, factor.closed, factor.well, *(factor.eigen or ())]
                arrays += [x for band in factor.bands for x in band]
                assert arrays and not any(x.flags.writeable for x in arrays)
            with pytest.raises(ValueError):
                fam.factors[0].closed[0] = False

    def test_rejected_horizon_computes_the_lead_alone(self, monkeypatch):
        # the 40 x 40 lead's norms stay above DECAY_CROSSCHECK on the first
        # horizon, 6400: only the lead is computed there, so no other group
        # is factored, and its 16 exact norms at 12800 seed the full pass
        family = zabczyk_family(40)
        solves, passes = [], []
        real_top, real_orbit = linalg._top, semigroup.orbit_norms
        monkeypatch.setattr(linalg, "_top", lambda gram, e: solves.append(gram.shape)
                            or real_top(gram, e))

        def spied(fam, times, *args, **kwargs):
            passes.append((float(times[-1]), kwargs.get("cells"), sorted(fam.factors)))
            return real_orbit(fam, times, *args, **kwargs)

        monkeypatch.setattr(semigroup, "orbit_norms", spied)
        result = classify_uniform(family, 1.0, 1e-6, grid_points=16)
        assert result.tolerances["crosscheck_horizon"] == pytest.approx(12800.0)
        # the lead at 6400, the lead at 12800, the other cells at 12800
        assert [h for h, _, _ in passes] == pytest.approx([6400.0, 12800.0, 12800.0])
        assert [list(cells) for _, cells, _ in passes] == [[39], [39], list(range(39))]
        # when the second horizon starts, only the lead's group is factored
        assert passes[1][2] == [39]
        assert sum(int(np.prod(s[:-2])) for s in solves if s[-1] == 40) == 16 + 16


class TestFactorFailure:
    def test_a_failed_factorization_is_not_kept(self, monkeypatch):
        family = random_hurwitz_family(seed=3, dim=4, cells=5, margin=0.2)

        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        with pytest.raises(NumericalFailureError, match="did not converge"):
            classify_uniform(family, 1.0, 1e-6)
        assert family.factors == {}
        monkeypatch.undo()
        assert classify_uniform(family, 1.0, 1e-6).verdict == "Stable"
        # the family's one group of 5 dense 4 x 4 blocks
        assert list(family.factors) == [0]

    def test_eigensolver_failure_exits_3_in_the_first_stage_that_factors(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        path = tmp_path / "rh.json"
        path.write_text(json.dumps({"family": {"builtin": "random-hurwitz", "seed": 1, "dim": 4,
                                               "cells": 6, "margin": 0.2}}))
        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        assert cli.main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure in stability.classify_uniform: dense eigensolver did not "
            "converge: Eigenvalues did not converge"
        ]
