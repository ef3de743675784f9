#!/usr/bin/env python3
"""Compare two output trees file by file.

Both trees must hold the same files.  A CSV must have the same header and
the same number of rows in both; a cell that reads as an integer must match
exactly, and for every other column the largest absolute difference is
printed.  A JSON file is compared value by value: the same keys, list
lengths, strings, booleans and integers, with the largest absolute
difference of its floats printed.  Beside each largest difference stand the
largest distance in units in the last place (|a - b| / math.ulp of the
larger magnitude) and how many of the values changed, so a drift of a few
rounding steps reads as such.  A CSV or JSON file whose bytes differ
also reports how many of its floats are a zero whose sign flipped (0.0
against -0.0), a change that no difference shows.  Any other file is
compared byte for byte.  A file that is byte-identical is reported as such.

Exits 1 on a missing file, a header or shape mismatch, a mismatch in an
exact value (an integer, a string, a key) or another file whose bytes
differ, and 0 otherwise, however large the float differences.

Usage: python3 scripts/compare_outputs.py A B
"""

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

INTEGER = re.compile(r"-?\d+")


def _float_diff(a: float, b: float) -> float:
    if math.isnan(a) and math.isnan(b) or a == b:
        return 0.0
    return abs(a - b) if math.isfinite(a - b) else math.inf


class Drift:
    """The float differences of one CSV column or one JSON file."""

    def __init__(self):
        self.worst = self.worst_ulps = 0.0
        self.changed = self.total = 0

    def add(self, a: float, b: float) -> None:
        d = _float_diff(a, b)
        self.total += 1
        if d:
            self.changed += 1
            self.worst = max(self.worst, d)
            ulps = d / math.ulp(max(abs(a), abs(b))) if d < math.inf else d
            self.worst_ulps = max(self.worst_ulps, ulps)

    def report(self, name: str) -> str:
        return (
            f"  {name}: max |diff| {self.worst:.3e} ({self.worst_ulps:g} ulp),"
            f" {self.changed} of {self.total} changed"
        )


def _zero_flip(a: float, b: float) -> bool:
    return a == 0 == b and math.copysign(1.0, a) != math.copysign(1.0, b)


def _flip_report(flips: int) -> list[str]:
    return [f"  zero sign flips: {flips}"] if flips else []


def compare_csv(a: Path, b: Path) -> tuple[list[str], list[str]]:
    """(errors, report lines) for two CSV files."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return [f"header mismatch: {rows_a[:1]} vs {rows_b[:1]}"], []
    if len(rows_a) != len(rows_b):
        return [f"row count {len(rows_a) - 1} vs {len(rows_b) - 1}"], []
    header = rows_a[0]
    errors = []
    flips = 0
    drifts = dict.fromkeys(header)  # column -> its Drift, None if integers only
    for line, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), 2):
        if len(ra) != len(header) or len(rb) != len(header):
            errors.append(f"line {line}: cell count differs from the header")
            continue
        for col, x, y in zip(header, ra, rb):
            if INTEGER.fullmatch(x) or INTEGER.fullmatch(y):
                if x != y:
                    errors.append(f"line {line}, column {col}: integer {x} vs {y}")
            else:
                fx, fy = float(x), float(y)
                drifts[col] = drifts[col] or Drift()
                drifts[col].add(fx, fy)
                flips += _zero_flip(fx, fy)
    report = [f"  {col}: integers equal" if d is None else d.report(col) for col, d in drifts.items()]
    return errors, report + _flip_report(flips)


def _float_pairs(x, y, where: str, errors: list[str]):
    """Yield the matching float pairs of x and y; exact mismatches go to errors."""
    if isinstance(x, dict) and isinstance(y, dict):
        if x.keys() != y.keys():
            errors.append(f"{where}: keys {sorted(x)} vs {sorted(y)}")
            return
        for k in x:
            yield from _float_pairs(x[k], y[k], f"{where}.{k}", errors)
        return
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            errors.append(f"{where}: list length {len(x)} vs {len(y)}")
            return
        for i, (u, v) in enumerate(zip(x, y)):
            yield from _float_pairs(u, v, f"{where}[{i}]", errors)
        return
    exact = (str, bool, int, type(None), dict, list)
    if isinstance(x, float) and isinstance(y, float):
        yield x, y
    elif isinstance(x, exact) or isinstance(y, exact):
        if type(x) is not type(y) or x != y:
            errors.append(f"{where}: {x!r} vs {y!r}")


def compare_json(a: Path, b: Path) -> tuple[list[str], list[str]]:
    errors: list[str] = []
    drift, flips = Drift(), 0
    for x, y in _float_pairs(json.loads(a.read_text()), json.loads(b.read_text()), "$", errors):
        drift.add(x, y)
        flips += _zero_flip(x, y)
    return errors, [drift.report("floats")] + _flip_report(flips)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="first output tree")
    parser.add_argument("b", type=Path, help="second output tree")
    args = parser.parse_args()
    files_a = {p.relative_to(args.a) for p in args.a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(args.b) for p in args.b.rglob("*") if p.is_file()}
    failed = False
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {args.a if rel in files_a else args.b}")
        failed = True
    for rel in sorted(files_a & files_b):
        a, b = args.a / rel, args.b / rel
        if a.read_bytes() == b.read_bytes():
            print(f"{rel}: byte-identical")
            continue
        if rel.suffix == ".csv":
            errors, report = compare_csv(a, b)
        elif rel.suffix == ".json":
            errors, report = compare_json(a, b)
        else:
            errors, report = ["bytes differ"], []
        print(f"{rel}:")
        print("\n".join(report + [f"  ERROR {e}" for e in errors]))
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
