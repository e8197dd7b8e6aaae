#!/usr/bin/env python3
"""Regenerate ``reference.json``: the analytic columns of every benchmark table.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

BLAS is pinned to one thread, as in the benchmark.  Analytic columns do not
depend on the seed or on Monte Carlo, so the tables run once, with Monte Carlo
off; seed-dependent rows keep their key but no values.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import peachsim  # noqa: E402
from checks import SEEDED_ROWS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    tables = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in WORKLOADS.values():
            for entry in workload.tables:
                table = entry[0]
                rows = peachsim.run_experiment(workload.config(entry, 0, Path(tmp), monte_carlo=False))
                tables[f"{workload.name}/{table}"] = [
                    [row.estimator, row.sweep_value]
                    + ([None] * 3 if row.estimator in SEEDED_ROWS else [row.nmse_analytic, row.floor, row.flops])
                    for row in rows
                ]
                print(f"{workload.name}/{table}: {len(rows)} rows", flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=HERE).stdout.strip()
    payload = {"commit": commit, "blas_threads": 1, "tables": tables}
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
