"""Largest numeric difference of each output file that changed.

    python3 tools/output_digests.py --keep before > before.txt
    ... apply the change ...
    python3 tools/output_digests.py --keep after > after.txt
    python3 tools/output_diffs.py before after

For every file under BEFORE whose bytes differ from the file at the same
relative path under AFTER, it prints the largest absolute and the
largest relative difference over the numbers of the file: the numeric
cells of a CSV, the numbers of a JSON document (booleans are not
numbers).  The relative difference of a pair a, b is
|a - b| / max(|a|, |b|), 0 when both are 0.  It is taken only for cells
at or above a floor, ``FLOOR`` times the largest magnitude of the cell's
column (a CSV) or of the whole document (JSON), on either side: below
it a cell is rounding noise of the numbers around it, such as a sample
deviation of equal values that reads 1.1e-16 or 2.2e-16.  Cells below
the floor still count in the absolute difference, and the line says how
many differing cells it skipped.  A file whose non-numeric content or
shape also changed says so, and files present on one side only are
listed.  Identical files print nothing.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

# Relative floor, about the square root of the double epsilon: one ulp
# of the column's scale reads as at most 1.5e-8 relative above it.
FLOOR = 2.0 ** -26


def _cell(text: str):
    """A CSV cell as a float when it reads as one, else as text."""
    try:
        return float(text)
    except ValueError:
        return text


def _csv_values(path: Path) -> list:
    """(column, cell) in file order, with a row break after each row."""
    with open(path, newline="") as fh:
        return [v for row in csv.reader(fh)
                for v in list(enumerate(map(_cell, row))) + [(None, "\n")]]


def _json_values(node) -> list:
    """Leaves in document order; dict keys are kept as structure."""
    if isinstance(node, dict):
        return [v for key in sorted(node) for v in [key] + _json_values(node[key])]
    if isinstance(node, list):
        return ["["] + [v for item in node for v in _json_values(item)] + ["]"]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [float(node)]
    return [node]


def _values(path: Path) -> list | None:
    """(scale group, value) pairs: the column in a CSV, one group in JSON."""
    if path.suffix == ".csv":
        return _csv_values(path)
    if path.suffix == ".json":
        with open(path) as fh:
            return [(None, v) for v in _json_values(json.load(fh))]
    return None


def _scales(*files) -> dict:
    """Largest finite magnitude of each scale group over ``files``."""
    scale = {}
    for values in files:
        for key, v in values:
            if isinstance(v, float) and math.isfinite(v):
                scale[key] = max(scale.get(key, 0.0), abs(v))
    return scale


def compare(before: Path, after: Path) -> str:
    """One line describing how ``after`` differs from ``before``."""
    a, b = _values(before), _values(after)
    if a is None or b is None:
        return "differs (not CSV or JSON)"
    if len(a) != len(b):
        return f"differs in shape ({len(a)} against {len(b)} values)"
    scale = _scales(a, b)
    max_abs = max_rel = 0.0
    other = skipped = 0
    for (key, x), (_, y) in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            d = abs(x - y)
            max_abs = max(max_abs, d)
            if max(abs(x), abs(y)) < FLOOR * scale.get(key, 0.0):
                skipped += 1
            else:
                max_rel = max(max_rel, d / max(abs(x), abs(y)))
        elif x != y:
            other += 1
    line = f"max abs {max_abs:.3e} max rel {max_rel:.3e}"
    if skipped:
        line += f"; {skipped} cells below the floor differ"
    if other:
        line += f"; {other} non-numeric values differ"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    args = ap.parse_args(argv)
    names = sorted({p.relative_to(root).as_posix()
                    for root in (args.before, args.after)
                    for p in root.rglob("*") if p.is_file()})
    for name in names:
        pa, pb = args.before / name, args.after / name
        if not pa.is_file() or not pb.is_file():
            print(f"{name} only in {'after' if pb.is_file() else 'before'}")
        elif pa.read_bytes() != pb.read_bytes():
            print(f"{name} {compare(pa, pb)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
