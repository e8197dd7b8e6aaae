"""The table comparison script on tables written by the experiment runner."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from peachsim.cli import ResultRow, write_rows

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_tables.py"


def compare(old, new):
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True)


def test_identical_tables_pass_and_a_moved_cell_fails(tmp_path):
    rows = [
        ResultRow("sweep-l", "mmse", 0.0, nmse_analytic=0.125, floor=0.0),
        ResultRow("sweep-l", "wpeach", 0.0, nmse_analytic=0.25, floor=0.0),
    ]
    write_rows(rows, tmp_path / "old" / "t.csv")
    write_rows(rows, tmp_path / "same" / "t.csv")
    write_rows([rows[0], replace(rows[1], nmse_analytic=0.3)], tmp_path / "moved" / "t.csv")

    same = compare(tmp_path / "old", tmp_path / "same")
    assert same.returncode == 0
    assert same.stdout.splitlines() == ["t.csv: identical", "t.json: identical"]

    moved = compare(tmp_path / "old", tmp_path / "moved")
    assert moved.returncode == 1
    lines = moved.stdout.splitlines()
    # each differing file: its moved cells, then one summary line
    assert len(lines) == 4
    for line in lines[0::2]:
        assert "row 2 (wpeach, 0" in line and "nmse_analytic: 0.25 -> 0.3 (relative 2.00e-01)" in line
    for line in lines[1::2]:
        assert ": 1 cells moved, largest relative move 2.00e-01 at row 2 (wpeach, 0" in line
        assert line.endswith(") nmse_analytic")
    assert lines[0].startswith("t.csv:") and lines[1].startswith("t.csv:")
    assert lines[2].startswith("t.json:") and lines[3].startswith("t.json:")

    # the summary names the largest of several moves, and a text cell has none
    write_rows(
        [replace(rows[0], nmse_analytic=0.1251, estimator="MMSE"), replace(rows[1], nmse_analytic=0.3)],
        tmp_path / "several" / "t.csv",
    )
    several = compare(tmp_path / "old", tmp_path / "several").stdout.splitlines()
    assert "t.csv: 3 cells moved, largest relative move 2.00e-01 at row 2 (wpeach, 0) nmse_analytic" in several
    assert any("estimator: mmse -> MMSE (relative n/a)" in line for line in several)

    (tmp_path / "same" / "t.json").unlink()
    missing = compare(tmp_path / "old", tmp_path / "same")
    assert missing.returncode == 1
    assert "t.json: missing from" in missing.stdout
