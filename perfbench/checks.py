"""Output checks; they run outside the timed section.

Table workloads compare the analytic columns (``nmse_analytic``, ``floor``,
``flops``) with ``reference.json``, which holds the tables commit 2acf7fe
produced with BLAS pinned to one thread (``make_reference.py`` rebuilds it).
Those columns do not depend on the seed.  The few analytic cells that do
(the sliding-window and shrinkage-fed estimators) are checked against the
exact-statistics optimum of their own row group instead.  Monte Carlo
columns must sit within ``MC_SIGMAS`` standard errors of the analytic
column.  The stream workload compares the first estimate of each
(estimator, epoch) with the dense filter oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance of an analytic cell against the reference table;
# ``ANALYTIC_ATOL`` covers cells whose reference value is exactly zero.
ANALYTIC_RTOL = 1e-6
ANALYTIC_ATOL = 1e-12
# A Monte Carlo cell fails beyond this many standard errors of its analytic
# cell (a false alarm at 6 sigma has probability about 2e-9 per cell).
MC_SIGMAS = 6.0
# Relative 2-norm error allowed between an estimate and its dense oracle.
ORACLE_RTOL = 1e-8
# Seed-dependent rows and the exact-statistics row that bounds each from below.
SEEDED_ROWS = {"wpeach-adaptive": "wpeach", "mmse-est": "mmse", "wpeach-est": "mmse"}
REFERENCE_COLUMNS = ("nmse_analytic", "floor", "flops")
LOWER_BOUND_SLACK = 1e-9


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isfinite(got) and abs(got - want) <= ANALYTIC_ATOL + ANALYTIC_RTOL * abs(want)


def check_table(table: str, rows, expected: list, expect_mc: bool):
    """Check one table's rows; returns (failed_rows, failure_lines, max_abs_mc_z).

    ``expected`` lists ``[estimator, sweep_value, nmse_analytic, floor, flops]``
    per row, in table order; seed-dependent rows carry ``None`` columns.
    """
    failures: list[str] = []
    failed_rows = 0
    z_max = None
    got_keys = [(row.estimator, row.sweep_value) for row in rows]
    want_keys = [(entry[0], entry[1]) for entry in expected]
    if got_keys != want_keys:
        missing = [key for key in want_keys if key not in got_keys]
        failures.append(f"{table}: row keys differ from the reference; missing {missing[:5]}")
        failed_rows += max(len(missing), 1)
    want = {(entry[0], entry[1]): entry[2:] for entry in expected}
    analytic = {(row.estimator, row.sweep_value): row.nmse_analytic for row in rows}
    for row in rows:
        key = (row.estimator, row.sweep_value)
        bad = []
        if key not in want:
            continue
        if row.estimator in SEEDED_ROWS:
            bound = analytic.get((SEEDED_ROWS[row.estimator], row.sweep_value))
            value = row.nmse_analytic
            if value is None or not math.isfinite(value) or bound is None:
                bad.append(f"nmse_analytic={value!r} is not a finite number")
            elif value < bound * (1.0 - LOWER_BOUND_SLACK):
                bad.append(f"nmse_analytic={value:.9g} is below the exact-statistics optimum {bound:.9g}")
        else:
            for column, reference in zip(REFERENCE_COLUMNS, want[key]):
                value = getattr(row, column)
                if not _close(value, reference):
                    bad.append(f"{column}={value!r}, reference {reference!r}")
        if expect_mc:
            mc, se = row.nmse_monte_carlo, row.mc_stderr
            if mc is None or se is None or not (se > 0):
                bad.append("Monte Carlo column missing")
            else:
                z = (mc - row.nmse_analytic) / se
                z_max = abs(z) if z_max is None else max(z_max, abs(z))
                if not abs(z) <= MC_SIGMAS:
                    bad.append(f"nmse_monte_carlo={mc:.9g} is {z:+.2f} standard errors from the analytic column")
        if bad:
            failed_rows += 1
            failures.append(f"{table}: {row.estimator} @ {row.sweep_value:g}: " + "; ".join(bad))
    return failed_rows, failures, z_max


def oracle_error(got, expected) -> float:
    """Relative 2-norm distance of an estimate from its dense-oracle value."""
    return float(np.linalg.norm(got - expected) / max(np.linalg.norm(expected), 1e-300))
