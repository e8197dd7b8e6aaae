"""The desk-scale analytic battery against its committed tables.

``tests/golden/`` holds the 11 CSV tables that ``scripts/reproduce_figures.py
--no-montecarlo`` writes at desk scale with seed 1234.  When a change is meant
to move cells, regenerate them with

    OPENBLAS_NUM_THREADS=1 python scripts/reproduce_figures.py --no-montecarlo --outdir tests/golden

(the JSON twins it writes beside them are ignored by git) and list the moved
cells that ``scripts/compare_tables.py`` prints for the old and new tables.

Every cell must match exactly, except in rows whose estimator starts with
``wpeach``.  The W-PEACH optimum comes from a monomial least-squares fit whose
weights reach 1e11, so its analytic and floor cells move by up to about 1e-7
relative whenever the eigensolver or the summation order changes; those cells
may move by ``WPEACH_RTOL``.  The CSV tables are the same at one and two BLAS
threads, so the battery runs in-process.
"""

import importlib.util
from pathlib import Path

from peachsim.cli import ResultRow, write_rows

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
WPEACH_RTOL = 1e-6


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_tables = load_script("compare_tables")


def moved_cells(old_dir: Path, new_dir: Path) -> list:
    """``(file, row, column, old, new)`` of each CSV cell of ``old_dir`` that ``new_dir`` does not reproduce."""
    moved = []
    for name in sorted(p.name for p in old_dir.glob("*.csv")):
        old_rows, new_rows = (compare_tables.read_cells(d / name) for d in (old_dir, new_dir))
        if len(old_rows) != len(new_rows):
            moved.append((name, None, "rows", len(old_rows), len(new_rows)))
        for index, (a, b) in enumerate(zip(old_rows, new_rows), start=1):
            for column in dict.fromkeys([*a, *b]):
                if a.get(column) == b.get(column):
                    continue
                change = compare_tables.relative_change(a.get(column), b.get(column))
                if a.get("estimator", "").startswith("wpeach") and change is not None and change <= WPEACH_RTOL:
                    continue
                moved.append((name, index, column, a.get(column), b.get(column)))
    return moved


def test_desk_battery_reproduces_the_golden_tables(tmp_path, capsys):
    load_script("reproduce_figures").main(["--no-montecarlo", "--outdir", str(tmp_path)])
    names = sorted(p.name for p in GOLDEN.glob("*.csv"))
    assert len(names) == 11
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == names
    assert moved_cells(GOLDEN, tmp_path) == []


def test_only_wpeach_cells_may_move_and_only_within_the_tolerance(tmp_path):
    rows = [ResultRow("sweep-l", "peach", 0.0, nmse_analytic=0.125), ResultRow("sweep-l", "wpeach", 0.0, floor=0.25)]
    write_rows(rows, tmp_path / "old" / "t.csv")
    cases = {
        "wpeach-near": [rows[0], ResultRow("sweep-l", "wpeach", 0.0, floor=0.25 * (1 + WPEACH_RTOL / 2))],
        "wpeach-far": [rows[0], ResultRow("sweep-l", "wpeach", 0.0, floor=0.25 * (1 + 2 * WPEACH_RTOL))],
        "peach-near": [ResultRow("sweep-l", "peach", 0.0, nmse_analytic=0.125 * (1 + 1e-8)), rows[1]],
        "fewer-rows": rows[:1],
    }
    for name, new_rows in cases.items():
        write_rows(new_rows, tmp_path / name / "t.csv")
    assert moved_cells(tmp_path / "old", tmp_path / "old") == []
    assert moved_cells(tmp_path / "old", tmp_path / "wpeach-near") == []
    assert [cell[1:3] for cell in moved_cells(tmp_path / "old", tmp_path / "wpeach-far")] == [(2, "floor")]
    assert [cell[1:3] for cell in moved_cells(tmp_path / "old", tmp_path / "peach-near")] == [(1, "nmse_analytic")]
    assert [cell[1:3] for cell in moved_cells(tmp_path / "old", tmp_path / "fewer-rows")] == [(None, "rows")]
