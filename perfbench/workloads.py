"""Seeded workload configs and the output oracle for each workload.

Every workload is one `semistab analyze` config. The benchmark seed sets the
probe seed of every workload and the family seed of `rh64`; the CLI only
ever sees the generated file. The oracle checks each report against what
the mathematics says the verdicts must be, never against a recorded output.

A "smoke" scale shrinks every family so the harness can be exercised in a
second; the oracle reads its expectations from the config, so it holds at
both scales.
"""

import math
import random

WORKLOADS = ("zab40", "rot256", "rh64")


def _seeds(seed, workload):
    rng = random.Random(f"{seed}/{workload}")
    return rng.randrange(2**31), rng.randrange(2**31)


def make_config(workload, seed, scale="full"):
    """The analyze config of `workload` for benchmark seed `seed`."""
    probe_seed, family_seed = _seeds(seed, workload)
    small = scale == "smoke"
    if workload == "zab40":
        cfg = {
            "family": {"builtin": "zabczyk", "N": 6 if small else 40},
            "time": {"horizon": 400 if small else 4000, "grid_points": 16},
        }
    elif workload == "rot256":
        cfg = {
            "family": {"builtin": "rotation", "cells": 32 if small else 256},
            "space": {"mode": "Atomic"},
            "time": {"horizon": 50, "grid_points": 9 if small else 33},
        }
    elif workload == "rh64":
        cfg = {
            "family": {
                "builtin": "random-hurwitz",
                "seed": family_seed,
                "dim": 3 if small else 6,
                "cells": 10 if small else 64,
                "margin": 0.2,
            },
            "discrete": {"enabled": True, "n_max": 32 if small else 256},
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfg["probes"] = {"count": 3, "seed": probe_seed}
    return cfg


def _close(value, expected, rel):
    return value is not None and math.isclose(value, expected, rel_tol=rel, abs_tol=0.0)


def check_report(workload, cfg, report):
    """List of oracle violations of one report; empty when it is correct."""
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    uniform, strong, weak = report["uniform"], report["strong"], report["almost_weak"]
    if workload == "zab40":
        n = cfg["family"]["N"]
        # cell n has spectral bound -1/n, so the slowest cell decays at 1/N
        expect(uniform["verdict"] == "Stable", "uniform verdict is not Stable")
        expect(_close(uniform["decay_eps"], 1.0 / n, 1e-9), f"decay_eps != 1/{n}")
        expect(weak["verdict"] == "Stable", "almost weak verdict is not Stable")
        # the probe bound at the horizon is astronomically large (about e^117
        # for N=40, t=4000), so "did not decay yet" is also a correct answer
        undecayed = strong["verdict"] == "Inconclusive" and bool(strong["witnesses"]) and all(
            w["kind"] == "probe-did-not-decay" for w in strong["witnesses"]
        )
        expect(strong["verdict"] == "Stable" or undecayed, "strong verdict is wrong")
    elif workload == "rot256":
        cells = cfg["family"]["cells"]
        # every cell is a unitary rotation carrying its own imaginary eigenvalue
        for name, part in (("uniform", uniform), ("strong", strong), ("almost weak", weak)):
            expect(part["verdict"] == "NotStable", f"{name} verdict is not NotStable")
        expect(abs(uniform["rho_star"] - 1.0) <= 1e-12, "rho_star is not 1")
        expect(len(weak["clusters"]) == cells, f"cluster count is not {cells}")
    elif workload == "rh64":
        margin = cfg["family"]["margin"]
        # every cell has spectral bound exactly -margin
        for name, part in (("uniform", uniform), ("strong", strong), ("almost weak", weak)):
            expect(part["verdict"] == "Stable", f"{name} verdict is not Stable")
        expect(_close(uniform["decay_eps"], margin, 1e-9), f"decay_eps != {margin}")
        disc = report.get("discrete") or {}
        for name in ("uniform", "strong", "almost_weak"):
            verdict = (disc.get(name) or {}).get("verdict")
            expect(verdict == "Stable", f"discrete {name} verdict is not Stable")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems
