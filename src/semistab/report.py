"""Verdicts, witnesses, and report containers shared by the classifiers.

Verdicts are the literal strings used in the JSON report. Complex values
serialize as [re, im] pairs. The containers are named tuples, and the
aggregate report a plain class that checks its invariants, so that no
container code is generated when the module loads. A `tolerances` default
is a read-only empty mapping.
"""

from types import MappingProxyType
from typing import NamedTuple

import numpy as np

STABLE = "Stable"
NOT_STABLE = "NotStable"
INCONCLUSIVE = "Inconclusive"

MODE_ATOMIC = "Atomic"
MODE_NONATOMIC_LIMIT = "NonAtomicLimit"


def json_value(v):
    """Convert a scalar to a JSON-safe value; complex becomes [re, im]."""
    if isinstance(v, complex) or isinstance(v, np.complexfloating):
        return [float(v.real), float(v.imag)]
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


class Witness(NamedTuple):
    """One piece of evidence behind a verdict: a cell, a value (eigenvalue,
    norm, or time), and what kind of evidence it is."""

    cell: int | None
    value: object
    kind: str

    def as_dict(self):
        return {
            "cell": None if self.cell is None else int(self.cell),
            "value": json_value(self.value),
            "kind": self.kind,
        }


class Cluster(NamedTuple):
    """An approximate point-spectrum value with its supporting cells."""

    eigenvalue: complex
    cells: tuple
    measure: float

    def as_dict(self):
        return {
            "lambda": json_value(complex(self.eigenvalue)),
            "cells": [int(c) for c in self.cells],
            "measure": float(self.measure),
        }


def _witness_list(ws):
    return [w.as_dict() for w in ws]


class UniformResult(NamedTuple):
    verdict: str
    rho_star: float
    decay_eps: float | None = None
    bound_M: float | None = None
    witnesses: tuple = ()
    times: np.ndarray | None = None
    ess_norms: np.ndarray | None = None
    tolerances: dict = MappingProxyType({})

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "rho_star": float(self.rho_star),
            "decay_eps": None if self.decay_eps is None else float(self.decay_eps),
            "bound_M": None if self.bound_M is None else float(self.bound_M),
            "witnesses": _witness_list(self.witnesses),
        }


class StrongResult(NamedTuple):
    verdict: str
    bound_M: float | None = None
    certified: bool = False
    witnesses: tuple = ()
    tolerances: dict = MappingProxyType({})

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "bound_M": None if self.bound_M is None else float(self.bound_M),
            "certified": bool(self.certified),
            "witnesses": _witness_list(self.witnesses),
        }


class AlmostWeakResult(NamedTuple):
    verdict: str
    mode: str
    clusters: tuple = ()
    witnesses: tuple = ()
    tolerances: dict = MappingProxyType({})

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "clusters": [c.as_dict() for c in self.clusters],
            "witnesses": _witness_list(self.witnesses),
        }


class StabilityReport:
    """Aggregate of the three continuous-time verdicts.

    Invariants: decay_eps is present exactly when the uniform verdict is
    Stable, and every NotStable fragment carries at least one witness.
    """

    __slots__ = ("uniform", "strong", "almost_weak", "mode", "tolerances")

    def __init__(self, uniform, strong, almost_weak, mode, tolerances=MappingProxyType({})):
        if (uniform.verdict == STABLE) != (uniform.decay_eps is not None):
            raise ValueError("decay_eps must be present exactly for a Stable uniform verdict")
        for frag in (uniform, strong, almost_weak):
            if frag.verdict == NOT_STABLE and not frag.witnesses:
                raise ValueError("a NotStable verdict needs at least one witness")
        self.uniform = uniform
        self.strong = strong
        self.almost_weak = almost_weak
        self.mode = mode
        self.tolerances = tolerances

    @property
    def bound_M(self):
        if self.strong.bound_M is not None:
            return self.strong.bound_M
        return self.uniform.bound_M

    @property
    def decay_eps(self):
        return self.uniform.decay_eps

    @property
    def witnesses(self):
        return (
            tuple(self.uniform.witnesses)
            + tuple(self.strong.witnesses)
            + tuple(self.almost_weak.witnesses)
        )

    def as_dict(self):
        return {
            "uniform": self.uniform.as_dict(),
            "strong": self.strong.as_dict(),
            "almost_weak": self.almost_weak.as_dict(),
            "mode": self.mode,
            "bound_M": None if self.bound_M is None else float(self.bound_M),
            "decay_eps": None if self.decay_eps is None else float(self.decay_eps),
            "tolerances": {k: json_value(v) for k, v in self.tolerances.items()},
        }


class DiscreteReport(NamedTuple):
    """Verdicts for the powers of a multiplication operator."""

    uniform: str
    strong: str
    almost_weak: str
    power_bound: float
    power_certified: bool
    witnesses: tuple = ()
    tolerances: dict = MappingProxyType({})

    def as_dict(self):
        return {
            "uniform": {"verdict": self.uniform},
            "strong": {"verdict": self.strong},
            "almost_weak": {"verdict": self.almost_weak},
            "power_bound": float(self.power_bound),
            "power_certified": bool(self.power_certified),
            "witnesses": _witness_list(self.witnesses),
            "tolerances": {k: json_value(v) for k, v in self.tolerances.items()},
        }
