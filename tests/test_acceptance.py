"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Total runtime is well under a minute on a laptop.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semistab import linalg
from semistab.cases import random_hurwitz_family, rotation_family, zabczyk_family
from semistab.discrete import (
    classify_discrete_almost_weak,
    classify_discrete_strong,
    classify_discrete_uniform,
    power_bounded_estimate,
    power_schedule,
)
from semistab.linalg import (
    ergodic_projection,
    expm,
    norm2,
    spectral_bound,
    spectral_radius,
)
from semistab.measure import DiscretizedMeasureSpace, ess_sup
from semistab.report import INCONCLUSIVE, NOT_STABLE, STABLE
from semistab.semigroup import (
    BochnerFunction,
    PointwiseFamily,
    apply,
    lp_norm,
    norm_curves,
    refine_family,
    sample_at,
    time_grid,
)
from semistab.stability import (
    certify_bounded,
    cesaro_verify,
    classify_almost_weak,
    classify_strong,
    classify_uniform,
    imaginary_point_spectrum,
)

from oracles import operator_norm, sample_norms

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(line):
    print(f"PASS {line}")


def atomic_space(weights):
    weights = np.asarray(weights, dtype=float)
    return DiscretizedMeasureSpace(
        weights=weights, labels=np.arange(weights.size, dtype=float)
    )


def family_from(mats, weights=None):
    mats = np.asarray(mats, dtype=complex)
    weights = np.ones(mats.shape[0]) if weights is None else weights
    return PointwiseFamily(
        space=atomic_space(weights), dim=mats.shape[1], matrices=mats
    )


def test_criterion_1_counterexample_spectra():
    family = zabczyk_family(30)
    for cell in range(30):
        n = cell + 1
        assert spectral_bound(family.block(cell)) == pytest.approx(
            -1.0 / n, abs=1e-8
        )
    report("criterion 1: spectral bound of cell n is -1/n for n <= 30 (tol 1e-8)")


def test_criterion_2_unboundedness_shadow():
    family = zabczyk_family(10)
    # direct evaluation oracle on a dense grid over [0, 100]
    norms = norm_curves(family, np.linspace(0.0, 100.0, 201))
    peak = float(norms.max())
    assert peak > 1e4
    result = classify_uniform(family, 1.0, 1e-6)
    assert result.verdict == STABLE
    assert result.decay_eps == pytest.approx(0.1, abs=1e-6)
    report(
        f"criterion 2: transient peak {peak:.3g} > 1e4 while uniform verdict is "
        "Stable with decay_eps = 1/10 (tol 1e-6)"
    )


def test_criterion_3_operator_norm_properties():
    rng = np.random.default_rng(2024)
    ps = (1.0, 2.0, 4.0, math.inf)
    for _ in range(50):
        cells = int(rng.integers(2, 21))
        dim = int(rng.integers(1, 7))
        weights = rng.uniform(0.1, 2.0, cells)
        if cells > 2:
            weights[rng.integers(0, cells)] = 0.0  # keep a null cell in play
        space = atomic_space(weights)
        mats = rng.standard_normal((cells, dim, dim)) + 1j * rng.standard_normal(
            (cells, dim, dim)
        )
        sample = PointwiseFamily(space=space, dim=dim, matrices=mats)
        norms = [operator_norm(sample, p) for p in ps]
        assert len(set(norms)) == 1  # identical, same code path
        target = norms[0]
        # indicator function on the essential-sup cell attains the norm
        cell_norms = sample_norms(sample)
        masked = np.where(space.weights > 0, cell_norms, -1.0)
        worst = int(np.argmax(masked))
        _, _, vh = np.linalg.svd(mats[worst])
        vecs = np.zeros((cells, dim), dtype=complex)
        vecs[worst] = vh[0].conj()
        indicator = BochnerFunction(space=space, dim=dim, vectors=vecs)
        for p in ps:
            ratio = lp_norm(apply(sample, indicator), p) / lp_norm(indicator, p)
            assert abs(ratio - target) <= 1e-9
        # 200 random unit functions never beat the essential supremum
        for _ in range(200):
            vecs = rng.standard_normal((cells, dim)) + 1j * rng.standard_normal(
                (cells, dim)
            )
            f = BochnerFunction(space=space, dim=dim, vectors=vecs)
            mapped = apply(sample, f)
            for p in ps:
                ratio = lp_norm(mapped, p) / lp_norm(f, p)
                assert ratio <= target + 1e-12
    report(
        "criterion 3: operator norm p-independent, attained by the indicator "
        "construction (1e-9), never exceeded by 200 random functions (1e-12)"
    )


def test_criterion_4_uniform_subcheck_consistency():
    rng = np.random.default_rng(7)
    for k in range(50):
        dim = int(rng.integers(2, 6))
        cells = int(rng.integers(2, 8))
        family = random_hurwitz_family(seed=1000 + k, dim=dim, cells=cells, margin=0.2)
        marginal = k % 2 == 1
        if marginal:
            gens = family.matrices + 0.2 * np.eye(dim)
            family = PointwiseFamily(space=family.space, dim=dim, matrices=gens)
        result = classify_uniform(family, 1.0, 1e-3)
        if marginal:
            # radius check says not stable; norms agree by never decaying
            assert result.verdict == NOT_STABLE
            norms = norm_curves(family, time_grid(50.0, 17))
            assert norms.max(axis=1).min() >= 0.9
        else:
            # radius check says stable; norm decay observed; envelope holds
            assert result.verdict == STABLE
            assert result.ess_norms[result.times > 0].min() < 1e-3
            envelope = result.bound_M * np.exp(-result.decay_eps * result.times)
            assert np.all(result.ess_norms <= envelope * (1 + 1e-12))
    report(
        "criterion 4: radius, norm-decay, and envelope sub-checks agree on 50 "
        "families and M e^{-eps t} bounds the norms at all grid times"
    )


def test_criterion_5_strong_both_directions():
    rng = np.random.default_rng(11)
    horizon = 250.0
    grid = time_grid(horizon, 33)
    for k in range(10):
        dim = int(rng.integers(2, 5))
        cells = int(rng.integers(2, 6))
        family = random_hurwitz_family(seed=2000 + k, dim=dim, cells=cells, margin=0.2)
        result = classify_strong(family, certify_bounded(family, time_grid(horizon, 48)))
        assert result.verdict == STABLE
        # forward direction at desk scale: every basis orbit decays pointwise
        for c in range(cells):
            block = family.block(c)
            col_mins = np.full(dim, np.inf)
            for t in grid[1:]:
                e_t = expm(block, float(t))
                col_mins = np.minimum(col_mins, np.linalg.norm(e_t, axis=0))
            assert np.all(col_mins <= 1e-6)
        # injecting one neutrally rotating cell flips the verdict
        spoiled = family.matrices.copy()
        spoiled[0] = np.diag([1j] + [-1.0] * (dim - 1))
        spoiled_family = PointwiseFamily(space=family.space, dim=dim, matrices=spoiled)
        flipped = classify_strong(
            spoiled_family, certify_bounded(spoiled_family, time_grid(horizon, 48))
        )
        assert flipped.verdict == NOT_STABLE
        assert flipped.witnesses[0].cell == 0
    report(
        "criterion 5: strong-stable families decay on every basis orbit; an "
        "injected neutral cell flips the verdict with that cell as witness"
    )


def test_criterion_6_rotation_reproduction():
    deltas = (0.1, 0.05, 0.025)
    family = rotation_family(64)
    stage = family
    for delta in deltas:
        atomic = classify_almost_weak(
            stage, certify_bounded(stage, time_grid(50.0, 33)), mode="Atomic"
        )
        assert atomic.verdict == NOT_STABLE
        # the support of each eigenvalue ball of radius delta stays within
        # 2 delta + one cell width
        width = float(stage.space.widths.max())
        measure = max(c.measure for c in imaginary_point_spectrum(stage, match_tol=delta))
        assert measure <= 2 * delta + width + 1e-12
        stage = refine_family(stage)
    limit = classify_almost_weak(family, certify_bounded(family, time_grid(50.0, 33)))
    assert limit.verdict == STABLE
    assert limit.mode == "NonAtomicLimit"
    assert limit.clusters == ()
    report(
        "criterion 6: rotation family NotStable atomically at every refinement, "
        "with delta-ball measures within 2 delta + width; Stable in the "
        "non-atomic limit (no imaginary eigenvalue of positive measure)"
    )


def test_criterion_7_mean_ergodic_machinery():
    a = np.diag([0.0, -1.0])
    x = np.array([1.0, 1.0])
    for t, residual in cesaro_verify(a, x, [10.0, 100.0, 1000.0]):
        assert residual <= 1.0 / t + 1e-9
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 4)))
        while True:
            basis = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(basis) < 50:
                break
        core = np.diag(
            np.concatenate([np.zeros(k), -0.5 - rng.uniform(0, 1, n - k)])
        ).astype(complex)
        a_planted = basis @ core @ np.linalg.inv(basis)
        p = ergodic_projection(a_planted)
        assert norm2(p @ p - p) <= 1e-10
        assert norm2(a_planted @ p) <= 1e-10
    report(
        "criterion 7: Cesaro residuals bounded by 1/t (tol 1e-9) at t in "
        "{10, 100, 1000}; projections satisfy P^2 = P and AP = 0 (tol 1e-10)"
    )


def test_criterion_8_spectral_mapping():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        for t in (0.5, 1.0, 5.0):
            reference = math.exp(t * spectral_bound(a))
            assert abs(spectral_radius(expm(a, t)) - reference) <= 1e-8 * reference
    report(
        "criterion 8: |r(e^{tA}) - e^{t s(A)}| <= 1e-8 e^{t s(A)} on 100 random "
        "matrices, n <= 12, t in {0.5, 1, 5}"
    )


def test_criterion_9_discrete_suite():
    rng = np.random.default_rng(41)
    # implication chain on the powers of e^{A} for 50 random generator
    # families of mixed character
    for k in range(50):
        cells = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        gens = np.empty((cells, dim, dim), dtype=complex)
        for c in range(cells):
            kind = rng.integers(0, 3)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            skew = (g - g.conj().T) / 2
            if kind == 0:  # dissipative: e^{A} a strict contraction
                p = rng.standard_normal((dim, dim)) / 2
                gens[c] = skew - p @ p.T - rng.uniform(0.1, 1.6) * np.eye(dim)
            elif kind == 1:  # skew-Hermitian: e^{A} unitary
                gens[c] = skew
            else:  # Hurwitz, possibly non-normal: r(e^{A}) in [0.3, 0.9]
                shift = np.log(rng.uniform(0.3, 0.9)) - np.linalg.eigvals(g).real.max()
                gens[c] = g + shift * np.eye(dim)
        family = PointwiseFamily(space=atomic_space(np.ones(cells)), dim=dim, matrices=gens)
        sample = sample_at(family, 1.0)
        uniform = classify_discrete_uniform(family, 1.0, sample, 1e-6)
        gate = power_bounded_estimate(family, 1.0, sample, 128)
        strong = classify_discrete_strong(sample, gate)
        weak = classify_discrete_almost_weak(sample, gate)
        if uniform.verdict == STABLE:
            assert strong.verdict == STABLE
        if strong.verdict == STABLE:
            assert weak.verdict == STABLE
    # the 0.9-radius family e^{ln 0.9 + i phi} is certified power bounded
    # and its norms cross 1e-6 within a factor 3 of step 260
    phases = rng.uniform(0, 2 * math.pi, 8)
    family = PointwiseFamily(
        space=atomic_space(np.ones(8)),
        dim=1,
        matrices=(math.log(0.9) + 1j * phases).reshape(-1, 1, 1),
    )
    estimate = power_bounded_estimate(family, 1.0, sample_at(family, 1.0), 1024)
    assert estimate.certified
    crossing = None
    for n in power_schedule(1024):
        cell_norms = np.array([norm2(expm(family.block(c), n)) for c in range(8)])
        if ess_sup(family.space, cell_norms) < 1e-6:
            crossing = n
            break
    assert crossing is not None and 260 / 3 <= crossing <= 260 * 3
    # bridge: the time-1 sample agrees with the continuous classifier
    for k in range(10):
        family = random_hurwitz_family(seed=3000 + k, dim=3, cells=4, margin=0.2)
        if k % 3 == 2:
            gens = family.matrices + 0.2 * np.eye(3)
            family = PointwiseFamily(space=family.space, dim=3, matrices=gens)
        continuous = classify_uniform(family, 1.0, 1e-3)
        discrete = classify_discrete_uniform(family, 1.0, sample_at(family, 1.0), 1e-3)
        assert discrete.verdict == continuous.verdict
    report(
        "criterion 9: discrete implication chain on 50 generator families, 0.9-family "
        f"certified with 1e-6 crossing at n = {crossing} in [87, 780], and the "
        "time-1 bridge matches the continuous classifier"
    )


def test_criterion_10_determinism(tmp_path):
    # zabczyk takes the closed form, random_hurwitz the eigenbasis route and
    # the inline cell, a unitarily conjugated Jordan block, the Pade route
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    jordan = q @ (-0.5 * np.eye(4) + np.diag(np.ones(3), 1)) @ q.conj().T
    assert not linalg._eigenbasis(jordan[None])[0][0]
    inline = tmp_path / "conjugated_jordan.json"
    inline.write_text(json.dumps({
        "family": {"matrices": [[[[z.real, z.imag] for z in row] for row in jordan]]},
        "discrete": {"enabled": True},
    }))
    for config in (CONFIG_DIR / "zabczyk.json", CONFIG_DIR / "random_hurwitz.json", inline):
        outputs = []
        for threads in ("1", "2", "1", "2"):
            env = dict(os.environ)
            env["OMP_NUM_THREADS"] = threads
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "semistab.cli", "analyze", str(config)],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert len(set(outputs)) == 1, config.name
    report(
        "criterion 10: byte-identical JSON across repeated runs and across "
        "BLAS thread counts, on zabczyk.json (closed form), random_hurwitz.json "
        "(eigenbasis) and a conjugated Jordan cell (Pade)"
    )
