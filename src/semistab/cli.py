"""Command-line front end.

Subcommands:

* analyze     -- run the continuous classifiers (and optionally the discrete
                 ones) on a configured family; emit a JSON report.
* sweep       -- vary one parameter (truncation size, refinement level, or
                 cluster radius delta) and emit a CSV of the key quantities.
* trajectory  -- emit a CSV of ess-sup norms and probe norms over a time grid.

Configs are JSON; complex numbers are written as [re, im] pairs. The exit
code reflects tool success (0 = analysis completed regardless of verdict,
2 = config problem, 3 = numerical failure), never the stability verdict.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, cases, discrete, semigroup, stability
from .errors import (
    ConfigError,
    NumericalFailureError,
    SemistabError,
    UnboundedSemigroupError,
)
from .measure import ATOMIC, REFINEMENT_FAMILY, DiscretizedMeasureSpace
from .report import MODE_ATOMIC, MODE_NONATOMIC_LIMIT

_DEFAULTS = {
    "p": 2.0,
    "time": {"t0": 1.0, "horizon": 200.0, "grid_points": 48, "log_spacing": True},
    "tolerances": {"re_tol": 1e-9, "match_tol": 1e-6, "margin": 1e-6, "eps": 1e-3},
    "probes": {"count": 3, "seed": 12345},
    "discrete": {"enabled": False, "n_max": 256, "t": 1.0},
}

#: the keys each config section accepts; the keys of `family` depend on its
#: builtin and are read by build_family
_SECTION_KEYS = {
    **{key: set(default) for key, default in _DEFAULTS.items() if isinstance(default, dict)},
    "probes": {"count", "seed", "vectors"},
    "space": {"mode", "weights", "labels"},
    "sweep": {"parameter", "values"},
    "output": {"json_path", "csv_path"},
}

#: the keys of `family` each builtin reads besides `builtin` (None: inline
#: matrices)
_FAMILY_KEYS = {
    "zabczyk": {"N", "embed_dim"},
    "rotation": {"cells"},
    "random-hurwitz": {"seed", "dim", "cells", "margin"},
    "diagonal": {"rates", "weights"},
    None: {"matrices", "active_dims"},
}

_MATRIX_NORM_NOTE = "operator 2-norm (largest singular value)"


class _StageFailure(Exception):
    """A numerical kernel failed inside a named analysis stage."""

    def __init__(self, stage, original):
        super().__init__(f"{stage}: {original}")
        self.stage = stage
        self.original = original


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (NumericalFailureError, UnboundedSemigroupError) as exc:
        raise _StageFailure(name, exc) from exc


def load_config(path):
    """Read and validate a JSON config, merging section defaults."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        )
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    # a misspelt key would otherwise fall back to its default unnoticed
    unknown = sorted(set(raw) - {"p", "family", *_SECTION_KEYS})
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(map(repr, unknown))}")
    for key, allowed in _SECTION_KEYS.items():
        section = raw.get(key, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {key!r} must be an object")
        unknown = sorted(set(section) - allowed)
        if unknown:
            raise ConfigError(f"unknown key(s) in section {key!r}: {', '.join(map(repr, unknown))}")
    cfg = {}
    for key, default in _DEFAULTS.items():
        if isinstance(default, dict):
            cfg[key] = {**default, **raw.get(key, {})}
        else:
            cfg[key] = raw.get(key, default)
    # json.loads accepts NaN and Infinity
    for key in ("time", "tolerances", "discrete"):
        for name, value in cfg[key].items():
            try:
                finite = math.isfinite(float(value))
            except (TypeError, ValueError):
                continue
            if not finite:
                raise ConfigError(f"{key}.{name} must be finite, got {value!r}")
    for key in ("family", "space", "sweep", "output"):
        if key in raw:
            cfg[key] = raw[key]
    if "family" not in cfg or not isinstance(cfg["family"], dict):
        raise ConfigError("config needs a 'family' object")
    return cfg


def apply_seed_override(cfg, seed):
    if seed is None:
        return cfg
    cfg["probes"]["seed"] = int(seed)
    if cfg["family"].get("builtin") == "random-hurwitz":
        cfg["family"]["seed"] = int(seed)
    return cfg


def config_hash(cfg):
    """Hash of the semantic config fields (everything except output paths)."""
    semantic = {k: v for k, v in cfg.items() if k != "output"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_p(value):
    if value in ("inf", "Inf", "Infinity"):
        return math.inf
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"p must be a number >= 1 or 'inf', got {value!r}")
    if not p >= 1:
        raise ConfigError("p must be >= 1 or 'inf'")
    return p


def _complex_array(data, what):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be numeric nested arrays of [re, im] pairs")
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ConfigError(f"{what} must be nested arrays of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _require(section, key, caster, what):
    if key not in section:
        raise ConfigError(f"{what} requires {key!r}")
    try:
        return caster(section[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{what} field {key!r} has the wrong type")


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_integer(value) or isinstance(value, float)


def _numbers(section, key, what):
    """section[key] as a float array, when it is a list of numbers."""
    value = section[key]
    if not isinstance(value, list) or not all(_is_number(x) for x in value):
        raise ConfigError(f"{what} field {key!r} must be a list of numbers")
    return np.array(value, dtype=float)


def _family_builtin(cfg):
    """The family's builtin (None for inline matrices), after checking that
    it exists and that neither the family nor the space has a key it does
    not read."""
    fam = cfg["family"]
    builtin = fam.get("builtin")
    known = isinstance(builtin, str) or builtin is None
    if not known or builtin not in _FAMILY_KEYS or (builtin is None and "matrices" not in fam):
        raise ConfigError(f"unknown or missing family builtin {builtin!r}")
    unknown = sorted(set(fam) - _FAMILY_KEYS[builtin] - {"builtin"})
    if unknown:
        name = "inline matrices" if builtin is None else builtin
        raise ConfigError(f"unknown key(s) in family {name!r}: {', '.join(map(repr, unknown))}")
    # a builtin family brings its own weights and labels
    ignored = sorted({"weights", "labels"} & set(cfg.get("space") or {}))
    if builtin is not None and ignored:
        raise ConfigError(
            f"space key(s) {', '.join(map(repr, ignored))} apply only to inline matrices, "
            f"not to the {builtin!r} family"
        )
    return builtin


def _inline_active_dims(fam, mats):
    """The `active_dims` of an inline family, or None when it gives none: one
    integer in [1, n] per cell, with every entry outside the active blocks
    zero."""
    active = fam.get("active_dims")
    if active is None:
        return None
    cells, n = mats.shape[:2]
    if (
        not isinstance(active, list)
        or len(active) != cells
        or not all(_is_integer(d) and 1 <= d <= n for d in active)
    ):
        raise ConfigError(f"family 'active_dims' must list one integer in [1, {n}] per cell")
    rows = np.arange(n) < np.array(active)[:, None]
    if np.any(mats[~(rows[:, :, None] & rows[:, None, :])]):
        raise ConfigError("inline matrices must be zero outside each cell's active block")
    return np.array(active)


def build_family(cfg):
    fam = cfg["family"]
    builtin = _family_builtin(cfg)
    if builtin == "zabczyk":
        n = _require(fam, "N", int, "zabczyk family")
        embed = _require(fam, "embed_dim", int, "zabczyk family") if "embed_dim" in fam else None
        return cases.zabczyk_family(n, embed)
    if builtin == "rotation":
        return cases.rotation_family(_require(fam, "cells", int, "rotation family"))
    if builtin == "random-hurwitz":
        return cases.random_hurwitz_family(
            _require(fam, "seed", int, "random-hurwitz family"),
            _require(fam, "dim", int, "random-hurwitz family"),
            _require(fam, "cells", int, "random-hurwitz family"),
            _require(fam, "margin", float, "random-hurwitz family"),
        )
    if builtin == "diagonal":
        rates = _complex_array(fam.get("rates"), "diagonal rates")
        weights = fam.get("weights")
        if weights is not None:
            weights = _numbers(fam, "weights", "diagonal family")
        return cases.diagonal_family(rates, weights)
    mats = _complex_array(fam["matrices"], "inline matrices")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ConfigError("inline matrices must have shape (cells, n, n)")
    cells = mats.shape[0]
    space_cfg = cfg.get("space") or {}
    weights = _numbers(space_cfg, "weights", "space") if "weights" in space_cfg else np.ones(cells)
    labels = (_numbers(space_cfg, "labels", "space") if "labels" in space_cfg
              else np.arange(cells, dtype=float))
    space = DiscretizedMeasureSpace(weights=weights, labels=labels, mode=ATOMIC)
    return semigroup.PointwiseFamily(
        space=space, dim=mats.shape[1], matrices=mats,
        active_dims=_inline_active_dims(fam, mats),
    )


def build_probes(cfg, family):
    pr = cfg["probes"]
    if "vectors" in pr:
        arr = _complex_array(pr["vectors"], "inline probes")
        if arr.ndim != 3 or arr.shape[1:] != (family.space.n_cells, family.dim):
            raise ConfigError(
                "inline probes must have shape (count, cells, dim) of [re, im] pairs"
            )
        return [
            family.restrict(
                semigroup.BochnerFunction(space=family.space, dim=family.dim, vectors=v)
            )
            for v in arr
        ]
    count = _require(pr, "count", int, "probes")
    seed = _require(pr, "seed", int, "probes")
    return semigroup.random_probes(family, count, seed)


def analysis_mode(cfg):
    """The almost-weak mode named by `space.mode`, or None (the classifier's
    default for the family's space) when the config names none."""
    mode = (cfg.get("space") or {}).get("mode")
    if mode is None:
        return None
    mapping = {ATOMIC: MODE_ATOMIC, REFINEMENT_FAMILY: MODE_NONATOMIC_LIMIT}
    if mode not in mapping:
        raise ConfigError(f"space mode must be 'Atomic' or 'RefinementFamily', got {mode!r}")
    return mapping[mode]


def _time_grid(time_cfg):
    horizon, points = float(time_cfg["horizon"]), int(time_cfg["grid_points"])
    return semigroup.time_grid(horizon, points, bool(time_cfg["log_spacing"]))


def run_analysis(cfg):
    family = build_family(cfg)
    p = _parse_p(cfg["p"])
    time_cfg = cfg["time"]
    tol = cfg["tolerances"]
    probes = build_probes(cfg, family)
    mode = analysis_mode(cfg)
    t0 = float(time_cfg["t0"])
    discrete_t = float(cfg["discrete"]["t"]) if cfg["discrete"].get("enabled") else None

    # sample_at shares a sample while someone holds it. The uniform stage
    # starts from e^{t0 A} (and rejects t0 <= 0 itself); when the discrete
    # stage needs the same sample, holding it from here gives both one
    # exponential and one spectrum.
    sample = None
    if discrete_t == t0 and t0 > 0:
        sample = _stage("stability.classify_uniform", semigroup.sample_at, family, t0)
    uniform = _stage(
        "stability.classify_uniform", stability.classify_uniform, family,
        t0, float(tol["margin"]), grid_points=int(time_cfg["grid_points"]),
    )
    re_tol = float(tol["re_tol"])
    match_tol = float(tol["match_tol"])
    gate = _stage(
        "stability.certify_bounded", stability.certify_bounded, family, _time_grid(time_cfg),
        probes, p=p, re_tol=re_tol, match_tol=match_tol,
    )
    strong = _stage(
        "stability.classify_strong", stability.classify_strong, family, gate, re_tol=re_tol
    )
    almost_weak = _stage(
        "stability.classify_almost_weak", stability.classify_almost_weak, family, gate,
        mode=mode, re_tol=re_tol, match_tol=match_tol,
    )
    report = stability.build_report(uniform, strong, almost_weak)

    discrete_payload = None
    if discrete_t is not None:
        if sample is None:
            sample = _stage("semigroup.sample_at", semigroup.sample_at, family, discrete_t)
        dreport = _stage(
            "discrete.build_discrete_report",
            discrete.build_discrete_report,
            sample,
            margin=float(tol["margin"]),
            n_max=int(cfg["discrete"]["n_max"]),
            eps=float(tol["eps"]),
            seed=int(cfg["probes"]["seed"]),
            match_tol=match_tol,
        )
        discrete_payload = dreport.as_dict()

    payload = report.as_dict()
    payload["discrete"] = discrete_payload
    payload["meta"] = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "matrix_norm": _MATRIX_NORM_NOTE,
        "p": cfg["p"],
        "tolerances": tol,
        "time": time_cfg,
    }
    return payload


def _fmt(value):
    if value is None:
        return "nan"
    return format(float(value), ".17g")


def run_sweep(cfg):
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep command needs a 'sweep' section")
    parameter = sweep.get("parameter")
    values = sweep.get("values")
    if parameter not in ("truncation", "refinement", "delta"):
        raise ConfigError("sweep parameter must be 'truncation', 'refinement', or 'delta'")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep values must be a nonempty list")
    integers = all(map(_is_integer, values))
    if parameter == "truncation" and not (integers and min(values) >= 1):
        raise ConfigError("sweep values of a truncation sweep must be positive integers")
    if parameter == "refinement" and not (integers and min(values) >= 0):
        raise ConfigError("sweep values of a refinement sweep must be nonnegative integers")
    if parameter == "delta" and not all(_is_number(x) and math.isfinite(x) for x in values):
        raise ConfigError("sweep values of a delta sweep must be finite numbers")
    time_cfg = cfg["time"]
    tol = cfg["tolerances"]
    t0 = float(time_cfg["t0"])
    grid_points = int(time_cfg["grid_points"])
    margin = float(tol["margin"])
    re_tol = float(tol["re_tol"])
    match_tol = float(tol["match_tol"])

    base_family = None
    if parameter != "truncation":
        base_family = build_family(cfg)
    elif _family_builtin(cfg) != "zabczyk":
        raise ConfigError("truncation sweeps require the zabczyk builtin family")

    times = _time_grid(time_cfg)
    rows = []
    staged = None
    for value in values:
        if parameter == "truncation":
            family = cases.zabczyk_family(value)
            radius = match_tol
        elif parameter == "refinement":
            family = base_family
            for _ in range(value):
                family = semigroup.refine_family(family)
            radius = match_tol
        else:
            family = base_family
            radius = float(value)
        # the uniform and boundedness stages depend on the family alone, which
        # a delta sweep keeps
        if family is not staged:
            staged = family
            uniform = _stage(
                "stability.classify_uniform", stability.classify_uniform, family, t0, margin,
                grid_points=grid_points,
            )
            gate = _stage(
                "stability.certify_bounded", stability.certify_bounded, family, times,
                re_tol=re_tol, match_tol=match_tol,
            )
        clusters = _stage(
            "stability.imaginary_point_spectrum",
            stability.imaginary_point_spectrum,
            family,
            re_tol,
            radius,
        )
        max_measure = max((c.measure for c in clusters), default=0.0)
        rows.append((float(value), uniform.decay_eps, gate.bound, max_measure))

    lines = ["parameter,decay_eps,bound_M,max_cluster_measure"]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def run_trajectory(cfg):
    family = build_family(cfg)
    p = _parse_p(cfg["p"])
    probes = build_probes(cfg, family)
    times = _time_grid(cfg["time"])
    norms, probe_norms = _stage(
        "semigroup.norm_curves", semigroup.orbit_norms, family, times, probes, p
    )
    positive = family.space.positive_cells()
    header = ["t", "ess_sup_norm"] + [f"probe_{i}" for i in range(len(probes))]
    lines = [",".join(header)]
    for k, t in enumerate(times):
        row = [t, float(norms[k, positive].max()), *probe_norms[k]]
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text, path, quiet):
    if path:
        Path(path).write_text(text)
        if not quiet:
            print(f"wrote {path}")
    elif not quiet:
        sys.stdout.write(text)


def cmd_analyze(args):
    cfg = apply_seed_override(load_config(args.config), args.seed)
    payload = run_analysis(cfg)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = args.out or (cfg.get("output") or {}).get("json_path")
    _emit(text, out, args.quiet)
    return 0


def cmd_sweep(args):
    cfg = apply_seed_override(load_config(args.config), args.seed)
    text = run_sweep(cfg)
    out = args.csv or (cfg.get("output") or {}).get("csv_path")
    _emit(text, out, args.quiet)
    return 0


def cmd_trajectory(args):
    cfg = apply_seed_override(load_config(args.config), args.seed)
    text = run_trajectory(cfg)
    out = args.csv or (cfg.get("output") or {}).get("csv_path")
    _emit(text, out, args.quiet)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="semistab",
        description="Stability analysis of pointwise operator families",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify stability and emit a JSON report")
    analyze.add_argument("config", help="path to a JSON config")
    analyze.add_argument("--out", default=None, help="write the JSON report here")
    analyze.add_argument("--seed", type=int, default=None, help="override config seeds")
    analyze.add_argument("--quiet", action="store_true", help="suppress stdout")
    analyze.set_defaults(handler=cmd_analyze)

    sweep = sub.add_parser("sweep", help="sweep one parameter and emit CSV")
    sweep.add_argument("config")
    sweep.add_argument("--csv", default=None, help="write the CSV here")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--quiet", action="store_true")
    sweep.set_defaults(handler=cmd_sweep)

    traj = sub.add_parser("trajectory", help="emit norm curves as CSV")
    traj.add_argument("config")
    traj.add_argument("--csv", default=None)
    traj.add_argument("--seed", type=int, default=None)
    traj.add_argument("--quiet", action="store_true")
    traj.set_defaults(handler=cmd_trajectory)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _StageFailure as exc:
        print(f"numerical failure in {exc.stage}: {exc.original}", file=sys.stderr)
        return 3
    except SemistabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
