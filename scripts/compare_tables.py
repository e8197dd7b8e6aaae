#!/usr/bin/env python3
"""Compare two directories of experiment tables cell by cell.

Usage: ``python scripts/compare_tables.py OLD_DIR NEW_DIR``, for example on
two ``scripts/reproduce_figures.py --outdir`` directories made at two commits.

For each ``.csv`` and ``.json`` table in either directory it prints
``<file>: identical`` when the two files have the same bytes, and otherwise
one line per differing cell: file, row, column, old value, new value and the
relative change, then a summary line with the number of moved cells and the
largest relative move, with its row and column.  It exits 1 when a CSV table
differs or a table is missing from one side.  JSON cells carry every digit,
so a JSON cell that moves below the CSV's 9 significant digits is listed but
does not fail the comparison.
"""

import csv
import json
import sys
from pathlib import Path


def read_cells(path: Path) -> list:
    """Rows of a table as ``{column: value}`` dicts: strings for CSV, parsed values for JSON."""
    if path.suffix == ".csv":
        with open(path, newline="") as handle:
            return list(csv.DictReader(handle))
    return json.loads(path.read_text())


def relative_change(old, new) -> float | None:
    """|new - old| / |old| (inf from 0), or None when either value is not a number."""
    try:
        old, new = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return abs(new - old) / abs(old) if old else float("inf")


def cell_moves(old_rows: list, new_rows: list):
    """``(row, column, old, new, relative change)`` of each cell that differs between paired rows of two tables,
    ``row`` counting from 1, over the union of each pair's columns; rows beyond the shorter table are not paired."""
    for row, (a, b) in enumerate(zip(old_rows, new_rows), start=1):
        for column in dict.fromkeys([*a, *b]):
            if a.get(column) != b.get(column):
                yield row, column, a.get(column), b.get(column), relative_change(a.get(column), b.get(column))


def show(change) -> str:
    return "n/a" if change is None else f"{change:.2e}"


def compare(old_dir: Path, new_dir: Path) -> int:
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.iterdir() if p.suffix in (".csv", ".json")})
    failed = False
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: missing from {new_dir if old.is_file() else old_dir}")
            failed = True
            continue
        if old.read_bytes() == new.read_bytes():
            print(f"{name}: identical")
            continue
        failed |= old.suffix == ".csv"
        old_rows, new_rows = read_cells(old), read_cells(new)
        if len(old_rows) != len(new_rows):
            print(f"{name}: {len(old_rows)} rows -> {len(new_rows)} rows")
        moved, largest = 0, None
        for row, column, a, b, change in cell_moves(old_rows, new_rows):
            moved += 1
            label = f"row {row} ({old_rows[row - 1].get('estimator')}, {old_rows[row - 1].get('sweep_value')})"
            print(f"{name}: {label} {column}: {a} -> {b} (relative {show(change)})")
            if change is not None and (largest is None or change > largest[0]):
                largest = (change, f"{label} {column}")
        if moved:
            summary = f"largest relative move {largest[0]:.2e} at {largest[1]}" if largest else "none numeric"
            print(f"{name}: {moved} cells moved, {summary}")
        elif len(old_rows) == len(new_rows):
            print(f"{name}: bytes differ, every cell equal")
    return 1 if failed else 0


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: compare_tables.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    return compare(Path(args[0]), Path(args[1]))


if __name__ == "__main__":
    sys.exit(main())
