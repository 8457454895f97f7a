"""Size of the numeric diff between two directories of gate outputs, or
between two output files.

    python3 tools/gate_digests.py --keep A     # in the parent checkout
    python3 tools/gate_digests.py --keep B     # in the changed checkout
    python3 tools/report_diff.py A B
    python3 tools/report_diff.py old.json new.json

For every output file in either directory, or for the one pair of files,
it prints one line: the numbers compared, how many differ, the largest
relative difference |a - b| / max(|a|, |b|) and, when numbers differ, the
CSV columns (or top-level JSON keys) that hold them. Only real numbers are
compared that way: a JSON integer is a cell id or a count, not a
measurement. Below that line it lists every other changed field (a verdict,
a witness kind, a cell id, a number that became text, a field present on one
side only) as `path: A -> B`. JSON reports are compared leaf by leaf, CSV
files cell by cell under their header; any other file is compared as text,
line by line. NaN equals NaN. The exit code is 0 when no file differs and 1
otherwise.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

_MISSING = "<absent>"


def _leaves(obj, path=""):
    """(path, value) for every leaf of a parsed JSON document."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _csv_number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _fields(path):
    """{(group, field path): leaf value} of one output file; the group is
    the CSV column or the top-level JSON key of the field."""
    text = path.read_text()
    if path.suffix == ".json":
        return {
            (key.split(".")[0].split("[")[0], key): value
            for key, value in _leaves(json.loads(text))
        }
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        if not rows:
            return {}
        header, out = rows[0], {("header", "header"): ",".join(rows[0])}
        for r, row in enumerate(rows[1:], start=1):
            for c, cell in enumerate(row):
                name = header[c] if c < len(header) else str(c)
                out[(name, f"row {r} {name}")] = _csv_number(cell)
        return out
    return {(None, f"line {i}"): line for i, line in enumerate(text.splitlines(), start=1)}


def _is_number(value):
    return isinstance(value, float)


def _rel_diff(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(fields_a, fields_b):
    """(numbers compared, numbers that differ, largest relative difference,
    sorted groups holding differing numbers, [(path, a, b)]
    of the other changed fields)."""
    compared = differ = 0
    largest = 0.0
    groups = set()
    changed = []
    for key in list(fields_a) + [k for k in fields_b if k not in fields_a]:
        a = fields_a.get(key, _MISSING)
        b = fields_b.get(key, _MISSING)
        if _is_number(a) and _is_number(b):
            compared += 1
            rel = _rel_diff(a, b)
            if rel > 0.0:
                differ += 1
                largest = max(largest, rel)
                groups.add(str(key[0]))
        elif a != b:
            changed.append((key[1], a, b))
    return compared, differ, largest, sorted(groups), changed


def _pairs(a, b):
    """(name, file in a, file in b) for two files, or for every file name in
    either of two directories."""
    if a.is_file() and b.is_file():
        return [(a.name if a.name == b.name else f"{a.name} vs {b.name}", a, b)]
    if not (a.is_dir() and b.is_dir()):
        return None
    names = sorted({p.name for d in (a, b) for p in d.iterdir() if p.is_file()})
    return [(name, a / name, b / name) for name in names]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="numeric diff of two gate-output directories or two output files"
    )
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    a, b = Path(args.a), Path(args.b)
    pairs = _pairs(a, b)
    if pairs is None:
        parser.error(f"{a} and {b} must be two directories or two files")
    any_diff = False
    for name, fa, fb in pairs:
        if not (fa.is_file() and fb.is_file()):
            print(f"{name}: only in {a if fa.is_file() else b}")
            any_diff = True
            continue
        compared, differ, largest, groups, changed = compare(_fields(fa), _fields(fb))
        any_diff |= bool(differ or changed)
        where = f" in {', '.join(groups)}" if groups else ""
        print(
            f"{name}: {compared} numbers compared, {differ} differ, "
            f"max relative difference {largest:.3g}{where}"
        )
        for key, a, b in changed:
            print(f"  {key}: {a!r} -> {b!r}")
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main())
