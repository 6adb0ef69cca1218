#!/usr/bin/env python3
"""Compare the numbers in two ``nfscatter run`` output directories.

Usage: python scripts/trace_diff.py DIR_A DIR_B [--rtol 1e-10]

Each column of ``traces.csv`` and ``pattern.csv`` is compared relative to
that column's largest magnitude in either directory; a ``re_*``/``im_*``
pair is one complex column, scaled by its largest modulus.  The files print
9 significant digits, so a difference of up to one unit in the last printed
digit is print rounding and counts as 0.  The numeric fields of
``report.json`` are compared relative to their own size, angles (fields
ending in ``_rad``) in radians modulo 2 pi; any other field must be equal.
One line per file gives the worst difference; the exit code is 1 if one
exceeds ``--rtol`` or a file exists in one directory only, else 0.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

CSV_FILES = ("traces.csv", "pattern.csv")


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and data block of an nfscatter CSV (comment lines skipped)."""
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return rows[0].strip().split(","), np.loadtxt(rows[1:], delimiter=",", ndmin=2)


def column_scales(names: list[str], data: np.ndarray) -> np.ndarray:
    """Largest magnitude of each column; a re_*/im_* pair shares its largest modulus."""
    scale = np.abs(data).max(axis=0, initial=0.0)
    for k, name in enumerate(names):
        if name.startswith("re_") and f"im_{name[3:]}" in names:
            j = names.index(f"im_{name[3:]}")
            scale[k] = scale[j] = np.hypot(data[:, k], data[:, j]).max(initial=0.0)
    return scale


def csv_diff(a: tuple[list[str], np.ndarray], b: tuple[list[str], np.ndarray]) -> float:
    """Worst column-relative difference beyond the 9-digit print rounding."""
    (names, x), (names_b, y) = a, b
    if names != names_b or x.shape != y.shape:
        return math.inf
    big = np.maximum(np.abs(x), np.abs(y))
    digit = np.where(big > 0.0, 10.0 ** (np.floor(np.log10(np.where(big > 0.0, big, 1.0))) - 8.0), 0.0)
    excess = np.maximum(np.abs(x - y) - digit, 0.0).max(axis=0, initial=0.0)
    scale = np.maximum(column_scales(names, x), column_scales(names, y))
    return float(np.max(np.where(scale > 0.0, excess / np.where(scale > 0.0, scale, 1.0), 0.0), initial=0.0))


def report_diff(a, b, key: str = "") -> float:
    """Worst difference between two parsed report.json values."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((report_diff(a[k], b[k], k) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((report_diff(x, y, key) for x, y in zip(a, b)), default=0.0)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return 0.0 if a == b else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if key.endswith("_rad"):
        return abs(math.remainder(a - b, 2.0 * math.pi))
    return abs(a - b) / max(abs(a), abs(b))


def file_diff(name: str, path_a: Path, path_b: Path) -> float:
    if name in CSV_FILES:
        return csv_diff(read_csv(path_a), read_csv(path_b))
    return report_diff(json.loads(path_a.read_text()), json.loads(path_b.read_text()))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dir_a", type=Path)
    p.add_argument("dir_b", type=Path)
    p.add_argument("--rtol", type=float, default=1e-10, help="largest accepted difference (default 1e-10)")
    args = p.parse_args(argv)
    failed = False
    for name in (*CSV_FILES, "report.json"):
        path_a, path_b = args.dir_a / name, args.dir_b / name
        if not (path_a.exists() or path_b.exists()):
            continue
        if not (path_a.exists() and path_b.exists()):
            print(f"{name} only in {path_a.parent if path_a.exists() else path_b.parent}")
            failed = True
            continue
        worst = file_diff(name, path_a, path_b)
        print(f"{name} {worst:.3g}")
        failed = failed or not worst <= args.rtol
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
