"""Outside-in tracer for `semistab`.

`Tracer.install()` replaces the public functions listed in `TARGETS` with
wrappers, at module attribute level, in every loaded `semistab` module that
holds them. No file of the package changes. Each call becomes one span
(name, pre, start, end, parent): `pre` is when the wrapper was entered and
`start` when the wrapped function was, so the wrapper's own bookkeeping
(input hashing included) can be kept out of every self time. Spans stay in
memory and are written once, by `dump`, when the traced process ends.

`summarize` turns a dumped span file into the benchmark's per-layer metrics.
"""

import dataclasses
import hashlib
import sys
import time
import types

import numpy as np


def _feed(h, obj):
    """Feed a canonical byte form of `obj` into the hash `h`."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(obj.tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d" % int(obj))
    elif isinstance(obj, str) or obj is None:
        h.update(repr(obj).encode())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif callable(obj):
        h.update(getattr(obj, "__qualname__", repr(obj)).encode())
    else:
        h.update(repr(obj).encode())


def digest(*parts):
    """64-bit hash of the arguments, stable across processes."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        _feed(h, part)
    return int.from_bytes(h.digest(), "little", signed=True)


def _expm_key(a, t=1.0):
    return digest(np.asarray(a), float(t))


def _matrix_key(a):
    return digest(np.asarray(a))


def _norm_curves_key(family, times):
    return digest(family, np.asarray(times, dtype=float))


def _expm_work(a, t=1.0):
    """(n^3, padding n^3) of one exponential: the padding is the part of the
    n x n work spent on trailing rows and columns that are all zero."""
    m = np.asarray(a)
    n = m.shape[-1]
    if n == 1:
        k = int(m[0, 0] != 0)
    elif m[-1].any() or m[:, -1].any():
        k = n
    else:
        nz = m != 0
        used = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
        k = int(used[-1]) + 1 if used.size else 0
    return n**3, n**3 - k**3


#: (module, function, input-hash function, work function). The key function
#: feeds `dup_frac`; the work function feeds `n3_sum` and `padding_frac`.
TARGETS = (
    ("linalg", "expm", _expm_key, _expm_work),
    ("linalg", "norm2", None, None),
    ("linalg", "eigenvalues", _matrix_key, None),
    ("linalg", "semisimple_multiplicities", None, None),
    ("semigroup", "norm_curves", _norm_curves_key, None),
    ("semigroup", "trajectory", None, None),
    ("semigroup", "apply", None, None),
    ("semigroup", "random_probes", None, None),
    ("stability", "classify_uniform", None, None),
    ("stability", "classify_strong", None, None),
    ("stability", "classify_almost_weak", None, None),
    ("stability", "certify_bounded", None, None),
    ("stability", "imaginary_point_spectrum", None, None),
    ("stability", "build_report", None, None),
    ("discrete", "build_discrete_report", None, None),
    ("discrete", "power_bounded_estimate", None, None),
    ("discrete", "classify_discrete_almost_weak", None, None),
    ("measure", "ess_sup", None, None),
    ("cases", "zabczyk_family", None, None),
    ("cases", "rotation_family", None, None),
    ("cases", "random_hurwitz_family", None, None),
    ("cli", "load_config", None, None),
)


class _ModuleView(types.ModuleType):
    """A copy of a module's namespace with some attributes overridden.

    The namespace is copied, not forwarded, so that every other attribute
    lookup costs what it costs on the module itself."""

    def __init__(self, base, **overrides):
        super().__init__(base.__name__)
        self.__dict__.update(vars(base))
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    """Span columns of one process, appended to as wrapped functions run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = []
        self.pre = []
        self.start = []
        self.end = []
        self.parent = []
        self.key = []
        self.work = {}
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, key=None, work=None):
        """`fn` wrapped so that each call records one span."""
        clock = time.perf_counter
        nid = self._name_id(name)
        names, pres, starts, ends = self.name, self.pre, self.start, self.end
        parents, keys, stack = self.parent, self.key, self._stack
        works = self.work.setdefault(name, []) if work is not None else None

        def traced(*args, **kwargs):
            pre = clock()
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            pres.append(pre)
            keys.append(0 if key is None else key(*args, **kwargs))
            if works is not None:
                works.append(work(*args, **kwargs))
            ends.append(0.0)
            starts.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every target wherever a loaded semistab module refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "semistab" or n.startswith("semistab."))]
        for mod_name, attr, key, work in TARGETS:
            original = getattr(sys.modules[f"semistab.{mod_name}"], attr)
            wrapped = self.wrap(f"{mod_name}.{attr}", original, key, work)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
        # np.linalg.matrix_power, but only as the discrete module calls it
        discrete = sys.modules["semistab.discrete"]
        power = self.wrap("discrete.matrix_power", np.linalg.matrix_power)
        discrete.np = _ModuleView(np, linalg=_ModuleView(np.linalg, matrix_power=power))

    def dump(self, path):
        arrays = {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "pre": np.array(self.pre),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "key": np.array(self.key, dtype=np.int64),
        }
        for name, rows in self.work.items():
            arrays[f"work:{name}"] = np.array(rows, dtype=np.int64).reshape(-1, 2)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


def summarize(path, wall_s, import_s, main_end):
    """Per-layer metrics of one traced process.

    `wall_s` is the process wall time from spawn to exit, `import_s` the
    time `import semistab.cli` took and `main_end` the clock reading when the
    CLI returned (the report was then written).
    """
    with np.load(path) as npz:
        data = {k: npz[k] for k in npz.files}
    names = [str(n) for n in data["names"]]
    nid = data["name"]
    parent = data["parent"]
    start, end, pre = data["start"], data["end"], data["pre"]
    dur = end - start
    child = parent >= 0
    covered = np.zeros(len(nid))
    np.add.at(covered, parent[child], (end - pre)[child])
    self_time = dur - covered

    def mask(name):
        return nid == names.index(name) if name in names else np.zeros(len(nid), bool)

    def calls(name):
        return int(mask(name).sum())

    def incl(name):
        return float(dur[mask(name)].sum())

    def self_s(name):
        return float(self_time[mask(name)].sum())

    def dup_frac(name):
        keys = data["key"][mask(name)]
        if keys.size == 0:
            return 0.0
        return 1.0 - np.unique(keys).size / keys.size

    inside_uniform = np.zeros(len(nid), bool)
    uniform = mask("stability.classify_uniform")
    for i in range(len(nid)):
        inside_uniform[i] = uniform[i] or (child[i] and inside_uniform[parent[i]])

    work = data["work:linalg.expm"] if "work:linalg.expm" in data else np.zeros((0, 2))
    n3 = int(work[:, 0].sum())
    roots = ~child
    last_stage_end = float(end[roots].max()) if roots.any() else main_end
    emit_s = max(0.0, main_end - last_stage_end)
    cases_s = sum(incl(n) for n in names if n.startswith("cases."))
    return {
        "linalg.expm.calls": calls("linalg.expm"),
        "linalg.expm.self_s": self_s("linalg.expm"),
        "linalg.expm.dup_frac": dup_frac("linalg.expm"),
        "linalg.expm.n3_sum": n3,
        "linalg.expm.padding_frac": float(work[:, 1].sum()) / n3 if n3 else 0.0,
        "linalg.norm2.calls": calls("linalg.norm2"),
        "linalg.norm2.self_s": self_s("linalg.norm2"),
        "linalg.eigenvalues.calls": calls("linalg.eigenvalues"),
        "linalg.eigenvalues.self_s": self_s("linalg.eigenvalues"),
        "linalg.eigenvalues.dup_frac": dup_frac("linalg.eigenvalues"),
        "linalg.semisimple_multiplicities.calls": calls("linalg.semisimple_multiplicities"),
        "semigroup.norm_curves.calls": calls("semigroup.norm_curves"),
        "semigroup.norm_curves.dup_frac": dup_frac("semigroup.norm_curves"),
        "semigroup.trajectory.self_s": self_s("semigroup.trajectory"),
        "semigroup.apply.calls": calls("semigroup.apply"),
        "stability.classify_uniform.s": incl("stability.classify_uniform"),
        "stability.classify_uniform.horizons": int(
            (mask("semigroup.norm_curves") & inside_uniform).sum()
        ),
        "stability.classify_strong.s": incl("stability.classify_strong"),
        "stability.classify_almost_weak.s": incl("stability.classify_almost_weak"),
        "stability.certify_bounded.s": incl("stability.certify_bounded"),
        "stability.imaginary_point_spectrum.s": incl("stability.imaginary_point_spectrum"),
        "discrete.build_discrete_report.s": incl("discrete.build_discrete_report"),
        "discrete.power_bounded_estimate.calls": calls("discrete.power_bounded_estimate"),
        "discrete.classify_discrete_almost_weak.self_s": self_s(
            "discrete.classify_discrete_almost_weak"
        ),
        "discrete.matrix_power.calls": calls("discrete.matrix_power"),
        "measure.ess_sup.calls": calls("measure.ess_sup"),
        "cases.build_s": cases_s,
        "cli.import_s": import_s,
        "cli.emit_s": emit_s,
        "trace.coverage": (import_s + float(dur[roots].sum()) + emit_s) / wall_s,
        "trace.spans": len(nid),
    }
