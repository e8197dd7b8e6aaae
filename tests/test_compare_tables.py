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
    assert len(lines) == 2
    for line in lines:
        assert "row 2 (wpeach, 0" in line and "nmse_analytic: 0.25 -> 0.3 (relative 2.00e-01)" in line
    assert lines[0].startswith("t.csv:") and lines[1].startswith("t.json:")

    (tmp_path / "same" / "t.json").unlink()
    missing = compare(tmp_path / "old", tmp_path / "same")
    assert missing.returncode == 1
    assert "t.json: missing from" in missing.stdout
