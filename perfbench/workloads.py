"""The four benchmark workloads, each a closed loop with one caller.

A workload has a set-up (the first model build plus a warm-up at tiny size)
and a pass, the fixed unit of work that the worker repeats until the run's
time is up.  A pass records the duration of each timed step under a key;
output checks run between timed steps.  Every call into peachsim goes
through the package namespace, so the traced run sees the same calls
through its wrappers.

A step is a whole ``run_experiment`` call (table workloads), or a model build
or a whole statistics epoch, the preparation plus all q estimates (stream), so
work done on the first call of a table or an epoch stays in its step.  Each
pass draws its own seed from the run's seed, so no two passes of a run see the
same random inputs.

Shared hosts slow down in episodes of a fraction of a second to minutes (by
up to 40 % on a 2-vCPU virtual machine) but keep returning to one baseline
speed, so ``run_s`` is one pass at that baseline: each step at its fastest
repeat in the run.  Over 13 s windows of a repeated 0.5 s table, the fastest
repeat spread 0.04 (quartiles over median) where the median repeat spread
0.12.  A pass longer than the run's time runs once, and its steps count as
measured.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import peachsim

# Scenario field whose length is the number of sweep points in a table; flops
# tables evaluate formulas only and have no sweep points.
POINT_FIELD = {
    "sweep-l": "degrees",
    "sweep-snr": "snr_db",
    "sweep-nr": "n_r_values",
    "adaptive": "snr_db",
    "shrinkage": "shrink_samples",
}
MC_SCENARIOS = ("sweep-l", "sweep-snr", "sweep-nr")

# desk-figures: every table of the scripts/reproduce_figures.py battery at
# desk scale (n_r = 20, n_t = b = 4, m = 80) with 2000 Monte Carlo trials;
# the degree, SNR and n_r sweeps keep one point each, so a pass takes about
# 4 s on one core and a 10 s run repeats it two to three times.
DESK_COMMON = dict(trials=2000, monte_carlo=True)
DESK_DEGREES = (12,)
DESK_SNR_DB = (30.0,)
DESK_TABLES = (
    ("sweep_l_noise_limited", "sweep-l", dict(betas=(), degrees=DESK_DEGREES)),
    ("sweep_l_beta01", "sweep-l", dict(betas=(0.1, 0.1), degrees=DESK_DEGREES)),
    ("sweep_l_beta1", "sweep-l", dict(betas=(1.0, 1.0), degrees=DESK_DEGREES)),
    ("sweep_snr_noise_limited", "sweep-snr", dict(betas=(), snr_db=DESK_SNR_DB)),
    ("sweep_snr_beta01", "sweep-snr", dict(betas=(0.1, 0.1), snr_db=DESK_SNR_DB)),
    ("sweep_snr_beta1", "sweep-snr", dict(betas=(1.0, 1.0), snr_db=DESK_SNR_DB)),
    ("sweep_nr", "sweep-nr", dict(n_r_values=(40,))),
    ("adaptive", "adaptive", {}),
    ("shrinkage", "shrinkage", {}),
    ("flops_q50", "flops", dict(q_ratio=50.0)),
    ("flops_q100", "flops", dict(q_ratio=100.0)),
)

# full-analytic: full scale (n_r = 100, n_t = b = 10, m = 1000), analytic
# columns only: one contaminated sweep-snr point and one noise-limited
# sweep-l point, where per-model O(m^3) work dominates.
FULL_COMMON = dict(n_r=100, n_t=10, b=10, monte_carlo=False)
FULL_TABLES = (
    ("sweep_snr_beta01", "sweep-snr", dict(betas=(0.1, 0.1), snr_db=(10.0,))),
    ("sweep_l_noise_limited", "sweep-l", dict(betas=(), degrees=(10,))),
)

# mid-adaptive: the adaptive and shrinkage scenarios at m = 400, the only
# workload where the sliding-window tracker does most of the work; one SNR
# and the two end sample counts, so a 10 s run repeats the pass four times.
MID_COMMON = dict(n_r=40, n_t=10, b=10)
MID_TABLES = (
    ("adaptive", "adaptive", dict(snr_db=(10.0,))),
    ("shrinkage", "shrinkage", dict(shrink_samples=(20, 160))),
)

# Warm-up overrides: every table of a workload once at a tiny size.
TINY = dict(n_r=2, n_t=2, b=2, trials=16, n_r_values=(2,), shrink_samples=(4,), window=16)

# stream-epoch: the paper's operating loop.  Per epoch the SNR drifts, each
# estimator is prepared once and then applied to q observations one at a time.
STREAM_NT = 10
STREAM_NR = (8, 20, 40, 100)  # m = 80, 200, 400, 1000, bracketing both crossovers
STREAM_DEGREE = 4
STREAM_Q = 50
STREAM_BETAS = (0.1, 0.1)
STREAM_SNR_DB = 5.0
STREAM_DRIFT_DB = 3.0
STREAM_ESTIMATORS = ("mmse", "peach", "wpeach")


@dataclass
class PassResult:
    steps: list = field(default_factory=list)  # (key, seconds) per timed step
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @contextlib.contextmanager
    def timed(self, key: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.steps.append((key, perf_counter() - start))


@dataclass
class Context:
    workload: str
    seed: int
    outdir: Path
    reference: dict
    tracer: object = None

    @contextlib.contextmanager
    def untraced(self):
        """Suspend span recording around input generation and output checks."""
        enabled = self.tracer is not None and self.tracer.enabled
        if enabled:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if enabled:
                self.tracer.enabled = True


def step_times(passes: list, statistic) -> tuple[dict, dict]:
    """``statistic`` of each step key's repeats over the run, and repeats per pass."""
    samples = defaultdict(list)
    for p in passes:
        for key, seconds in p.steps:
            samples[key].append(seconds)
    times = {key: statistic(values) for key, values in samples.items()}
    per_pass = {key: len(values) / len(passes) for key, values in samples.items()}
    return times, per_pass


# ---------------------------------------------------------------------------
# table workloads


def pass_seed(seed: int, pass_index: int) -> int:
    """The seed of one pass: a 64-bit value drawn from the run's seed."""
    return int(np.random.SeedSequence([seed, pass_index]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TableWorkload:
    name: str
    tables: tuple
    common: dict

    def config(self, entry: tuple, seed: int, outdir: Path, **extra):
        """One table's configuration: the workload's settings, the table's, then ``extra``."""
        table, scenario, overrides = entry
        params = {**self.common, **overrides, **extra}
        return peachsim.default_config(scenario, seed=seed, out=str(outdir / f"{table}.csv"), **params)

    def setup(self, ctx: Context):
        config = self.config(self.tables[0], ctx.seed, ctx.outdir)
        dims = peachsim.Dims(config.n_r, config.n_t, config.b)
        peachsim.correlated_model(dims, config.snr_db[0], config.betas, config.correlation, config.noise_var)
        for entry in self.tables:
            peachsim.run_experiment(self.config(entry, ctx.seed, ctx.outdir, **TINY))

    def run_pass(self, ctx: Context, pass_index: int) -> PassResult:
        result = PassResult()
        z_max = None
        seed = pass_seed(ctx.seed, pass_index)
        for entry in self.tables:
            table, scenario, _ = entry
            config = self.config(entry, seed, ctx.outdir)
            expected = ctx.reference[f"{ctx.workload}/{table}"]
            result.attempted += len(expected)
            try:
                with result.timed(table):
                    rows = peachsim.run_experiment(config)
            except Exception as exc:  # a table that raises fails all its rows; the run goes on
                result.failed += len(expected)
                result.failures.append(f"{table}: raised {exc!r}")
                continue
            with ctx.untraced():
                expect_mc = config.monte_carlo and scenario in MC_SCENARIOS
                failed, failures, table_z = checks.check_table(table, rows, expected, expect_mc)
            result.failed += failed
            result.failures.extend(failures)
            if table_z is not None:
                z_max = table_z if z_max is None else max(z_max, table_z)
        if z_max is not None:
            result.info["mc_z_max"] = z_max
        return result

    def points(self, times: dict) -> list:
        """Each sweep point's time: its table's time split evenly over its points."""
        out = []
        for entry in self.tables:
            table, scenario, _ = entry
            if scenario in POINT_FIELD and table in times:
                count = len(getattr(self.config(entry, 0, Path()), POINT_FIELD[scenario]))
                out.extend([times[table] / count] * count)
        return out


# ---------------------------------------------------------------------------
# stream-epoch


def _stream_model(n_r: int, gamma_db: float):
    return peachsim.correlated_model(peachsim.Dims(n_r, STREAM_NT, STREAM_NT), gamma_db, STREAM_BETAS)


def _observations(model, rng, count: int) -> list:
    """``count`` received pilot vectors drawn from the model's own statistics."""
    dims = model.dims

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    h = model.h_mean[:, None] + np.linalg.cholesky(model.r_cov) @ cn(dims.n, count)
    noise = model.n_mean[:, None] + np.linalg.cholesky(model.s_cov) @ cn(dims.m, count)
    y = model.pilot_ext @ h + noise
    return [np.ascontiguousarray(y[:, j]) for j in range(count)]


def _prepare(kind: str, model):
    if kind == "peach":
        return peachsim.make_peach(model, STREAM_DEGREE)
    if kind == "wpeach":
        return peachsim.make_wpeach(model, STREAM_DEGREE)
    return None  # MMSE has no per-epoch preparation: mmse_estimate solves per call


def _estimate(kind: str, model, est, y):
    if kind == "peach":
        return peachsim.peach_estimate(model, est, y)
    if kind == "wpeach":
        return peachsim.wpeach_estimate(model, est, y)
    return peachsim.mmse_estimate(model, y)


def _oracle(kind: str, model, est, y):
    g_mat = peachsim.mmse_filter_matrix(model) if kind == "mmse" else peachsim.poly_filter_matrix(model, est)
    return model.h_mean + g_mat @ (y - model.y_mean())


def epoch_key(kind: str, m: int) -> str:
    """Step key of one epoch: the preparation plus q estimates (the model build is excluded)."""
    return f"epoch:{kind}:m={m}"


class StreamWorkload:
    name = "stream-epoch"
    tables = ()

    def setup(self, ctx: Context):
        _stream_model(STREAM_NR[0], STREAM_SNR_DB)
        model = _stream_model(2, STREAM_SNR_DB)
        observations = _observations(model, np.random.default_rng(0), 4)
        for kind in STREAM_ESTIMATORS:
            est = _prepare(kind, model)
            for y in observations:
                _estimate(kind, model, est, y)
            _oracle(kind, model, est, observations[0])

    def run_pass(self, ctx: Context, pass_index: int) -> PassResult:
        result = PassResult()
        for index, n_r in enumerate(STREAM_NR):
            rng = np.random.default_rng([ctx.seed, pass_index, index])
            gamma_db = STREAM_SNR_DB + rng.uniform(-STREAM_DRIFT_DB, STREAM_DRIFT_DB)
            m = n_r * STREAM_NT
            with result.timed(f"build:m={m}"):  # in run_s, not in the epoch
                model = _stream_model(n_r, gamma_db)
            with ctx.untraced():
                observations = _observations(model, rng, STREAM_Q)
            for kind in STREAM_ESTIMATORS:
                result.attempted += STREAM_Q
                try:
                    with result.timed(epoch_key(kind, m)):
                        est = _prepare(kind, model)
                        estimates = [_estimate(kind, model, est, y) for y in observations]
                except Exception as exc:  # a raising epoch fails all its estimates; the run goes on
                    result.failed += STREAM_Q
                    result.failures.append(f"{kind} @ m={m}: raised {exc!r}")
                    continue
                with ctx.untraced():
                    error = checks.oracle_error(estimates[0], _oracle(kind, model, est, observations[0]))
                if not error <= checks.ORACLE_RTOL:
                    result.failed += 1
                    result.failures.append(f"{kind} @ m={m}: first estimate is {error:.3e} (relative) from the dense oracle")
        return result

    def points(self, times: dict) -> list:
        """Each m is a point: one epoch of every estimator at that m."""
        return [
            sum(times[epoch_key(kind, n_r * STREAM_NT)] for kind in STREAM_ESTIMATORS)
            for n_r in STREAM_NR
            if all(epoch_key(kind, n_r * STREAM_NT) in times for kind in STREAM_ESTIMATORS)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        TableWorkload("desk-figures", DESK_TABLES, DESK_COMMON),
        TableWorkload("full-analytic", FULL_TABLES, FULL_COMMON),
        StreamWorkload(),
        TableWorkload("mid-adaptive", MID_TABLES, MID_COMMON),
    )
}


def cost_model_flops(kind: str, m: int, n: int, degree, realizations: int) -> float:
    """``analysis.flops`` of one statistics epoch: one preparation and ``realizations`` estimates."""
    dims = peachsim.Dims(n_r=1, n_t=n, b=m)  # the cost model reads only m and n
    epoch = peachsim.FlopModel(dims, tau_s=float(realizations), tau_c=1.0, t_tot=float(realizations))
    return peachsim.flops(kind, epoch, None if kind == "mmse" else degree)


def crossover_table(times: dict) -> dict:
    """Measured epoch time per estimator and m next to the cost model.

    The cost-model column is ``analysis.flops`` for one statistics epoch (one
    preparation, q realizations); ``crossover_m`` is the predicted dimension
    above which each polynomial estimator beats MMSE.  The measured crossover
    interpolates log(t_poly / t_mmse) linearly in log m between the grid
    points where it changes sign; it is for information only.
    """
    rows = []
    for n_r in STREAM_NR:
        m = n = n_r * STREAM_NT
        row = {"m": m}
        for kind in STREAM_ESTIMATORS:
            row[f"epoch_s.{kind}"] = times.get(epoch_key(kind, m))
            row[f"flops.{kind}"] = cost_model_flops(kind, m, n, STREAM_DEGREE, STREAM_Q)
        rows.append(row)
    predicted, measured, notes = {}, {}, {}
    for kind in ("peach", "wpeach"):
        predicted[kind] = peachsim.crossover_m(kind, STREAM_Q, STREAM_DEGREE)
        ratios = [
            (row["m"], row[f"epoch_s.{kind}"] / row["epoch_s.mmse"])
            for row in rows
            if row[f"epoch_s.{kind}"] and row["epoch_s.mmse"]
        ]
        if not ratios:
            continue
        if ratios[0][1] < 1.0:
            measured[kind] = float(ratios[0][0])
            notes[kind] = f"below m = {ratios[0][0]}, the smallest measured dimension"
            continue
        measured[kind] = float(ratios[-1][0])
        notes[kind] = f"above m = {ratios[-1][0]}, the largest measured dimension"
        for (m0, r0), (m1, r1) in zip(ratios, ratios[1:]):
            if r0 >= 1.0 > r1:
                share = np.log(r0) / (np.log(r0) - np.log(r1))
                measured[kind] = float(np.exp(np.log(m0) + share * (np.log(m1) - np.log(m0))))
                notes[kind] = f"between m = {m0} and m = {m1}"
                break
    return {"q": STREAM_Q, "degree": STREAM_DEGREE, "rows": rows, "predicted": predicted, "measured": measured, "notes": notes}
