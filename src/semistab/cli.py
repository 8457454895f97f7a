"""Command-line front end.

Subcommands:

* analyze     -- run the continuous classifiers (and optionally the discrete
                 ones) on a configured family; emit a JSON report.
* sweep       -- vary one parameter (truncation size, refinement level, or
                 cluster radius delta) and emit a CSV of the key quantities.
* trajectory  -- emit a CSV of ess-sup norms and probe norms over a time grid.

Configs are JSON; complex numbers are written as [re, im] pairs. The exit
code reflects tool success (0 = analysis completed regardless of verdict,
2 = usage or config problem or an unwritable output, 3 = numerical failure
or out of memory), never the stability verdict.
"""

import gc
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, cases, discrete, semigroup, stability
from .errors import (
    ConfigError,
    DomainError,
    NumericalFailureError,
    SemistabError,
    UnboundedSemigroupError,
)
from .measure import ATOMIC, REFINEMENT_FAMILY, DiscretizedMeasureSpace
from .report import MODE_ATOMIC, MODE_NONATOMIC_LIMIT

_REQUIRED = object()  # the default of a key a config must give


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A JSON number a float can hold (NaN and the infinities included)."""
    return isinstance(value, float) or _is_integer(value) and abs(value) <= sys.float_info.max


def _is_finite(value):
    return _is_number(value) and math.isfinite(value)


def _integer(low, high=math.inf):
    return lambda value: _is_integer(value) and low <= value <= high


def _one_of(*names):
    return (lambda value: value in names), " or ".join(map(repr, names))


#: the largest size numpy can index
_SIZE_MAX = int(np.iinfo(np.intp).max)
#: the kinds of config values: (test, what a value that passes is)
_POSITIVE = _integer(1, _SIZE_MAX), f"a positive integer up to {_SIZE_MAX}"
_NONNEGATIVE = _integer(0), "a nonnegative integer"
_NUMBER = _is_finite, "a finite number"
_BOOLEAN = (lambda value: isinstance(value, bool)), "true or false"
_STRING = (lambda value: isinstance(value, str)), "a string"
_OBJECT = (lambda value: isinstance(value, dict)), "an object"
_NUMBERS = (lambda value: isinstance(value, list) and all(map(_is_finite, value)),
            "a list of finite numbers")
#: nested lists of numbers, whose shape build_family checks
_PAIRS = (lambda value: isinstance(value, list)), "a nested list of [re, im] pairs"
_ANY = (lambda value: True), "anything"
_INF = ("inf", "Inf", "Infinity")
_P = (lambda value: value in _INF or _is_number(value) and value >= 1,
      "a finite number >= 1 or 'inf'")
_SWEEP_VALUES = {
    "truncation": (_POSITIVE[0], f"positive integers up to {_SIZE_MAX}"),
    "refinement": (_integer(0), "nonnegative integers"),
    "delta": (_is_finite, "finite numbers"),
}

#: every config key as (kind, default): the kind of a section is the table
#: of its keys; the default None marks a key that may be absent (or null, if
#: it is no section) and _REQUIRED one that must be given
_SCHEMA = {
    "p": (_P, 2.0),
    "time": ({"t0": (_NUMBER, 1.0), "horizon": (_NUMBER, 200.0),
              "grid_points": (_POSITIVE, 48), "log_spacing": (_BOOLEAN, True)}, {}),
    "tolerances": ({"re_tol": (_NUMBER, 1e-9), "match_tol": (_NUMBER, 1e-6),
                    "margin": (_NUMBER, 1e-6)}, {}),
    "probes": ({"count": (_POSITIVE, 3), "seed": (_NONNEGATIVE, 12345),
                "vectors": (_PAIRS, None)}, {}),
    "discrete": ({"enabled": (_BOOLEAN, False), "n_max": (_POSITIVE, 256),
                  "t": (_NUMBER, 1.0)}, {}),
    "family": (_OBJECT, _REQUIRED),
    "space": ({"mode": (_one_of(ATOMIC, REFINEMENT_FAMILY), None),
               "weights": (_NUMBERS, None), "labels": (_NUMBERS, None)}, None),
    "sweep": ({"parameter": (_one_of(*_SWEEP_VALUES), _REQUIRED),
               "values": ((lambda value: isinstance(value, list) and value != [],
                           "a nonempty list"), _REQUIRED)}, None),
    "output": ({"json_path": (_STRING, None), "csv_path": (_STRING, None)}, None),
}

#: the keys of `family` each builtin reads besides `builtin` (None: inline
#: matrices), as in _SCHEMA
_FAMILIES = {
    "zabczyk": {"N": (_POSITIVE, _REQUIRED), "embed_dim": (_POSITIVE, None)},
    "rotation": {"cells": (_POSITIVE, _REQUIRED)},
    "random-hurwitz": {"seed": (_NONNEGATIVE, _REQUIRED), "dim": (_POSITIVE, _REQUIRED),
                       "cells": (_POSITIVE, _REQUIRED), "margin": (_NUMBER, _REQUIRED)},
    "diagonal": {"rates": (_PAIRS, _REQUIRED), "weights": (_NUMBERS, None)},
    # what active_dims may hold depends on the matrices: build_family checks it
    None: {"matrices": (_PAIRS, _REQUIRED), "active_dims": (_ANY, None)},
}

_MATRIX_NORM_NOTE = "operator 2-norm (largest singular value)"


class _StageFailure(Exception):
    """A numerical kernel failed, or memory ran out, inside a named analysis stage."""

    def __init__(self, stage, original):
        super().__init__(f"{stage}: {original}")
        self.stage = stage
        self.original = original


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (NumericalFailureError, UnboundedSemigroupError, MemoryError) as exc:
        raise _StageFailure(name, exc) from exc


def _read_config(path):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        )
    except ValueError as exc:  # an integer of more digits than Python converts
        raise ConfigError(f"parse error: {exc}")


def _checked(where, given, keys):
    """`given` over the defaults of `keys`, after checking that it is an
    object with no key outside `keys`, every required key and every value of
    its key's kind (null is left out unchecked where the default is None)."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be an object")
    # a misspelt key would otherwise fall back to its default unnoticed
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    merged = {}
    for key, (kind, default) in keys.items():
        if key not in given:
            if default is _REQUIRED:
                raise ConfigError(f"{where} requires {key!r}")
            if default is None:
                continue
        value = given.get(key, default)
        if isinstance(kind, dict):
            value = _checked(f"section {key!r}", value, kind)
        elif not (value is None and default is None or kind[0](value)):
            raise ConfigError(f"{key!r} in {where} must be {kind[1]}")
        merged[key] = value
    return merged


def _check_config(raw):
    """The config `raw` over its section defaults, after checking every key
    against _SCHEMA and the family against the keys of its builtin."""
    cfg = _checked("config", raw, _SCHEMA)
    fam = cfg["family"]
    builtin = fam.get("builtin")
    if not (builtin is None or isinstance(builtin, str)) or builtin not in _FAMILIES:
        raise ConfigError(f"unknown or missing family builtin {builtin!r}")
    name = "inline matrices" if builtin is None else builtin
    keys = {key: value for key, value in fam.items() if key != "builtin"}
    _checked(f"family {name!r}", keys, _FAMILIES[builtin])
    # a builtin family brings its own weights and labels
    ignored = sorted({"weights", "labels"} & set(cfg.get("space", {})))
    if builtin is not None and ignored:
        raise ConfigError(
            f"space key(s) {', '.join(map(repr, ignored))} apply only to inline matrices, "
            f"not to the {builtin!r} family"
        )
    if "sweep" in cfg:
        parameter = cfg["sweep"]["parameter"]
        test, what = _SWEEP_VALUES[parameter]
        if not all(map(test, cfg["sweep"]["values"])):
            raise ConfigError(f"sweep values of a {parameter} sweep must be {what}")
    return cfg


def load_config(path, seed=None):
    """Read and check a JSON config, merging section defaults. A `seed`
    replaces the probe seed, and the seed of a random-hurwitz family, before
    the check."""
    raw = _read_config(path)
    if seed is not None and isinstance(raw, dict):
        probes, fam = raw.setdefault("probes", {}), raw.get("family")
        if isinstance(probes, dict):
            probes["seed"] = seed
        if isinstance(fam, dict) and fam.get("builtin") == "random-hurwitz":
            fam["seed"] = seed
    return _check_config(raw)


def config_hash(cfg):
    """Hash of the semantic config fields (everything except output paths)."""
    semantic = {k: v for k, v in cfg.items() if k != "output"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_p(value):
    if not _P[0](value):
        raise ConfigError(f"p must be {_P[1]}, got {value!r}")
    return math.inf if value in _INF else float(value)


def _numeric(data):
    return all(map(_numeric, data)) if isinstance(data, list) else _is_number(data)


def _complex_array(data, what):
    if not _numeric(data):
        raise ConfigError(f"{what} must be numeric nested arrays of [re, im] pairs")
    try:
        arr = np.asarray(data, dtype=float)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.ndim < 1 or arr.shape[-1] != 2:
        raise ConfigError(f"{what} must be nested arrays of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


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
    builtin = fam.get("builtin")
    if builtin == "zabczyk":
        return cases.zabczyk_family(fam["N"], fam.get("embed_dim"))
    if builtin == "rotation":
        return cases.rotation_family(fam["cells"])
    if builtin == "random-hurwitz":
        return cases.random_hurwitz_family(
            fam["seed"], fam["dim"], fam["cells"], float(fam["margin"])
        )
    if builtin == "diagonal":
        weights = fam.get("weights")
        return cases.diagonal_family(
            _complex_array(fam["rates"], "family 'rates'"),
            None if weights is None else np.array(weights, dtype=float),
        )
    mats = _complex_array(fam["matrices"], "family 'matrices'")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ConfigError("inline matrices must have shape (cells, n, n)")
    weights, labels = (cfg.get("space", {}).get(key) for key in ("weights", "labels"))
    space = DiscretizedMeasureSpace(
        weights=np.ones(len(mats)) if weights is None else np.array(weights, dtype=float),
        labels=np.arange(len(mats), dtype=float) if labels is None else np.array(labels, float),
        mode=ATOMIC,
    )
    return semigroup.PointwiseFamily(
        space=space, dim=mats.shape[1], matrices=mats,
        active_dims=_inline_active_dims(fam, mats),
    )


def inline_probes(cfg, family):
    """The config's inline probe vectors, restricted to the active blocks,
    or None when it gives none. Every subcommand checks them, whether it
    reads them or not: a probe of the wrong shape raises ConfigError, and
    one that vanishes on every active block of a positive-weight cell (the
    zero function) DomainError."""
    vectors = cfg["probes"].get("vectors")
    if vectors is None:
        return None
    arr = _complex_array(vectors, "probes 'vectors'")
    if arr.ndim != 3 or arr.shape[1:] != (family.space.n_cells, family.dim):
        raise ConfigError("inline probes must have shape (count, cells, dim) of [re, im] pairs")
    probes = [
        family.restrict(semigroup.BochnerFunction(space=family.space, dim=family.dim, vectors=v))
        for v in arr
    ]
    positive = family.space.positive_cells()
    for j, f in enumerate(probes):
        if not f.vectors[positive].any():
            raise DomainError(f"probe {j} has zero norm on the active blocks")
    return probes


def build_probes(cfg, family):
    """The inline probes, or else `probes.count` random ones from `probes.seed`."""
    probes = inline_probes(cfg, family)
    if probes is None:
        pr = cfg["probes"]
        probes = semigroup.random_probes(family, pr["count"], pr["seed"])
    return probes


def analysis_mode(cfg):
    """The almost-weak mode named by `space.mode`, or None (the classifier's
    default for the family's space) when the config names none."""
    mode = cfg.get("space", {}).get("mode")
    return {None: None, ATOMIC: MODE_ATOMIC, REFINEMENT_FAMILY: MODE_NONATOMIC_LIMIT}[mode]


def _time_grid(time_cfg):
    return semigroup.time_grid(
        float(time_cfg["horizon"]), time_cfg["grid_points"], time_cfg["log_spacing"]
    )


def run_analysis(cfg):
    family = build_family(cfg)
    time_cfg = cfg["time"]
    tol = cfg["tolerances"]
    # no verdict reads a probe; a config trajectory rejects fails here too
    inline_probes(cfg, family)
    mode = analysis_mode(cfg)
    uniform = _stage(
        "stability.classify_uniform", stability.classify_uniform, family,
        float(time_cfg["t0"]), float(tol["margin"]), grid_points=time_cfg["grid_points"],
    )
    re_tol = float(tol["re_tol"])
    match_tol = float(tol["match_tol"])
    gate = _stage(
        "stability.certify_bounded", stability.certify_bounded, family, _time_grid(time_cfg),
        re_tol=re_tol, match_tol=match_tol,
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
    if cfg["discrete"]["enabled"]:
        dreport = _stage(
            "discrete.build_discrete_report",
            discrete.build_discrete_report,
            family,
            float(cfg["discrete"]["t"]),
            margin=float(tol["margin"]),
            n_max=cfg["discrete"]["n_max"],
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
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a 'sweep' section")
    parameter, values = cfg["sweep"]["parameter"], cfg["sweep"]["values"]
    time_cfg = cfg["time"]
    tol = cfg["tolerances"]
    t0 = float(time_cfg["t0"])
    grid_points = time_cfg["grid_points"]
    margin = float(tol["margin"])
    re_tol = float(tol["re_tol"])
    match_tol = float(tol["match_tol"])

    base_family = None
    if parameter != "truncation":
        base_family = build_family(cfg)
    elif cfg["family"].get("builtin") != "zabczyk":
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
            "stability.imaginary_point_spectrum", stability.imaginary_point_spectrum, family,
            re_tol, radius,
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
    # only the ess-sup per time is read: it is the floor after the call
    ess_norms = np.zeros(times.size)
    _, probe_norms = _stage(
        "semigroup.norm_curves", semigroup.orbit_norms, family, times, probes, p,
        floor=ess_norms,
    )
    header = ["t", "ess_sup_norm"] + [f"probe_{i}" for i in range(len(probes))]
    lines = [",".join(header)]
    for k, t in enumerate(times):
        row = [t, float(ess_norms[k]), *probe_norms[k]]
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _command(command, config, out=None, seed=None, quiet=False):
    cfg = load_config(config, seed)
    if command == "analyze":
        text = json.dumps(run_analysis(cfg), indent=2, sort_keys=True) + "\n"
    else:
        text = (run_sweep if command == "sweep" else run_trajectory)(cfg)
    key = "json_path" if command == "analyze" else "csv_path"
    path = out or cfg.get("output", {}).get(key)
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise SemistabError(f"cannot write {path}: {exc.strerror or exc}") from exc
        if not quiet:
            print(f"wrote {path}")
    elif not quiet:
        sys.stdout.write(text)
    return 0


#: each command and the flag that names its output file
_COMMANDS = {"analyze": "--out", "sweep": "--csv", "trajectory": "--csv"}


def _help(command=None):
    """The help of `command`, or of the CLI for None; its first line is the
    usage line."""
    if command is None:
        return (
            f"usage: semistab [-h] [--version] {{{','.join(_COMMANDS)}}} ...\n\n"
            "  analyze     classify stability and emit a JSON report\n"
            "  sweep       sweep one parameter and emit a CSV\n"
            "  trajectory  emit norm curves as a CSV\n"
            "  --version   print the version\n"
        )
    flag = _COMMANDS[command]
    return (
        f"usage: semistab {command} [-h] [{flag} PATH] [--seed SEED] [--quiet] CONFIG\n\n"
        "  CONFIG       path to a JSON config\n"
        f"  {flag} PATH   write the output to PATH, not to stdout\n"
        "  --seed SEED  override the probe seed (and a random-hurwitz family's)\n"
        "  --quiet      print nothing to stdout\n"
    )


def _usage_error(command, message):
    """Print the usage line of `command` (of the CLI for None) and `message`
    to stderr; the exit code of a usage error."""
    usage = _help(command).partition("\n")[0]
    print(f"{usage}\nsemistab: error: {message}", file=sys.stderr)
    return 2


def _parse(argv):
    """The keyword arguments of _command for a command line, or the exit
    code once the help, the version or a usage error is printed. An option
    takes the text after `=` or else the next token, whatever it is; the
    last of a repeated option wins, and `--` ends the options."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        if command in ("-h", "--help", "--version"):
            sys.stdout.write(f"{__version__}\n" if command == "--version" else _help())
            return 0
        got = "" if command is None else f", got {command!r}"
        return _usage_error(None, f"expected a command ({', '.join(_COMMANDS)}){got}")
    args, paths, tokens = {"command": command}, [], iter(argv[1:])
    for token in tokens:
        name, equals, value = token.partition("=")
        if token == "--":
            paths.extend(tokens)
        elif token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            return 0
        elif token == "--quiet":
            args["quiet"] = True
        elif name in (_COMMANDS[command], "--seed"):
            if not equals:
                value = next(tokens, None)
                if value is None:
                    return _usage_error(command, f"{name} needs a value")
            if name == "--seed":
                try:
                    args["seed"] = int(value)
                except ValueError:
                    return _usage_error(command, f"--seed needs an integer, got {value!r}")
            else:
                args["out"] = value
        elif token.startswith("-") and token != "-":
            return _usage_error(command, f"unknown option {token!r}")
        else:
            paths.append(token)
    if len(paths) != 1:
        return _usage_error(command, f"expected one CONFIG, got {' '.join(paths) or 'none'}")
    args["config"] = paths[0]
    return args


def main(argv=None):
    """Run one command line (sys.argv[1:] by default) and return its exit
    code: 0 once the command completed, whatever the verdict, 2 for a usage
    or config problem or an output that cannot be written, 3 for a
    numerical failure or exhausted memory."""
    # the objects alive now (the import graph) go to the collector's permanent
    # generation: no collection scans them again, and exit leaves them to the OS
    gc.freeze()
    args = _parse(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):
        return args
    try:
        return _command(**args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _StageFailure as exc:
        what = "out of memory" if isinstance(exc.original, MemoryError) else "numerical failure"
        print(f"{what} in {exc.stage}: {exc.original}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except SemistabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
