"""Experiment runner with CSV/JSON output.

Six scenarios: MSE versus polynomial degree (``sweep-l``), versus pilot SNR
with floor overlays (``sweep-snr``), versus receive-antenna count
(``sweep-nr``), sliding-window weight tracking (``adaptive``), shrinkage
covariance robustness (``shrinkage``), and FLOP cost curves (``flops``).
Every scenario is deterministic under a fixed seed and emits one CSV row per
(sweep value, estimator) pair plus a JSON twin of the table.

The three sweeps share one runner that walks the config field named in
``_SWEEP_AXES``; each sweep point builds one table of estimator, closed-form
MSE and Monte Carlo callable, from which every column and the row order
follow.  Config-file and flag strings are parsed by the type of the field's
``ExperimentConfig`` default.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import analysis, estimators
from .adaptive import adaptive_init, adaptive_update, shrinkage_covariance
from .errors import ConfigError, PeachSimError, ShapeError
from .model import (
    Dims,
    SpatialCorrelation,
    StatModel,
    correlated_contamination,
    correlated_model,
    standard_complex_normal,
)

SCENARIOS = ("sweep-l", "sweep-snr", "sweep-nr", "adaptive", "shrinkage", "flops")

CSV_COLUMNS = (
    "scenario",
    "estimator",
    "sweep_value",
    "nmse_analytic",
    "nmse_monte_carlo",
    "mc_stderr",
    "floor",
    "flops",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see :func:`default_config` for presets."""

    scenario: str
    n_r: int = 20
    n_t: int = 4
    b: int = 4
    snr_db: tuple = (5.0,)
    degrees: tuple = tuple(range(13))
    degree: int = 10
    betas: tuple = (1.0, 1.0)
    n_r_values: tuple = (10, 20, 40, 80)
    correlation: SpatialCorrelation = field(default_factory=SpatialCorrelation)
    noise_var: float = 1.0
    trials: int = 2000
    seed: int = 1234
    window: int = 100
    shrink_samples: tuple = (20, 40, 80, 160)
    q_ratio: float = 50.0
    tau_s: float = 5.0
    t_tot: float = 5.0
    monte_carlo: bool = True
    out: str = "results.csv"

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.n_r < 1 or self.n_t < 1 or self.b < 1:
            raise ConfigError("antenna and pilot dimensions must be positive")
        for name in ("snr_db", "degrees", "n_r_values", "shrink_samples"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} must be non-empty")
        for name in ("snr_db", "betas", "noise_var", "q_ratio", "tau_s", "t_tot"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite")
        if any(d < 0 for d in self.degrees) or self.degree < 0:
            raise ConfigError("polynomial degrees must be nonnegative")
        if any(b < 0 for b in self.betas):
            raise ConfigError("interference ratios must be nonnegative")
        if any(n < 2 for n in self.shrink_samples):
            raise ConfigError("shrinkage sample counts must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.noise_var <= 0 or self.q_ratio <= 0 or self.tau_s <= 0 or self.t_tot <= 0:
            raise ConfigError("noise_var, q_ratio, tau_s and t_tot must be positive")
        self.correlation.validate()
        return self


_SCENARIO_DEFAULTS = {
    "sweep-l": dict(snr_db=(5.0,), betas=(1.0, 1.0), degrees=tuple(range(13)), out="sweep_l.csv"),
    "sweep-snr": dict(
        snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        degree=10,
        betas=(0.1, 0.1),
        out="sweep_snr.csv",
    ),
    "sweep-nr": dict(snr_db=(5.0,), degree=4, betas=(1.0, 1.0), out="sweep_nr.csv"),
    "adaptive": dict(snr_db=(0.0, 5.0, 10.0, 15.0, 20.0), degree=4, betas=(), out="adaptive.csv"),
    "shrinkage": dict(snr_db=(5.0,), degree=8, betas=(), out="shrinkage.csv"),
    "flops": dict(
        n_t=10,
        b=10,
        degree=2,
        n_r_values=(50, 100, 150, 200, 250, 300, 350, 400, 450, 500),
        out="flops.csv",
    ),
}


def default_config(scenario: str, **overrides) -> ExperimentConfig:
    """Scenario preset with optional field overrides, validated.

    An ``n_t`` override without a ``b`` override sets ``b = n_t`` as well,
    except for ``flops``, whose cost model takes any pilot length.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    params = dict(_SCENARIO_DEFAULTS[scenario])
    params.update(overrides)
    # the identity pilot is square: an n_t set without b sets b too
    if "n_t" in overrides and "b" not in overrides and scenario != "flops":
        params["b"] = overrides["n_t"]
    config = ExperimentConfig(scenario=scenario, **params)
    config.validate()
    return config


@dataclass(frozen=True)
class ResultRow:
    """One experiment result; normalized MSE columns are relative to trace(r)."""

    scenario: str
    estimator: str
    sweep_value: float
    nmse_analytic: float | None = None
    nmse_monte_carlo: float | None = None
    mc_stderr: float | None = None
    floor: float | None = None
    flops: float | None = None


# ---------------------------------------------------------------------------
# Monte Carlo harness


def run_monte_carlo(model: StatModel, estimators: dict, trials: int, seed, chunk_size: int = 512) -> dict:
    """Empirical MSE of each ``estimator(model, y)`` over one set of seeded draws.

    Draws (h, y) pairs by :meth:`StatModel.draw` and scores every estimator of
    the mapping on the same draws.  Returns ``{name: (mse_hat,
    standard_error)}``, with a standard error of None for a single trial.
    Trials are processed in chunks with independent child streams, so results
    are reproducible, independent of chunk scheduling, and the same for an
    estimator whether it is scored alone or next to others.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_chunks = (trials + chunk_size - 1) // chunk_size
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sq_errors = {name: np.empty(trials) for name in estimators}
    pos = 0
    for child in children:
        count = min(chunk_size, trials - pos)
        h, y = model.draw(np.random.default_rng(child), count)
        for name, estimator in estimators.items():
            h_hat = estimator(model, y)
            if h_hat.shape != h.shape:
                raise ShapeError(f"estimator {name!r} returned shape {h_hat.shape}, expected {h.shape}")
            sq_errors[name][pos : pos + count] = np.sum(np.abs(h - h_hat) ** 2, axis=0)
        pos += count
    return {
        name: (
            float(np.mean(errors)),
            float(np.std(errors, ddof=1) / np.sqrt(trials)) if trials > 1 else None,
        )
        for name, errors in sq_errors.items()
    }


# ---------------------------------------------------------------------------
# scenario runners


def _floors(model: StatModel, config: ExperimentConfig, degree: int) -> dict:
    if any(beta > 0 for beta in config.betas):
        # only the sum is kept: holding the interferer covariances through the
        # floors raised the peak memory at m = 1000 by about two of them
        sum_interf = correlated_contamination(model.dims, config.betas, config.correlation).summed_covariance
        floors = analysis.floor_contaminated(model.r_cov, sum_interf, degree)
        # high-power limit of the unbiased estimator's variance for an identity pilot
        return {**floors._asdict(), "mvu": float(np.trace(sum_interf).real)}
    floors = analysis.floor_noise_limited(model.r_cov, degree)
    return {"mmse": 0.0, "mvu": 0.0, "diagonalized": 0.0, **floors._asdict()}


def _sweep_point_rows(model, config, degree, sweep_value, point_index):
    trace_r = float(np.trace(model.r_cov).real)
    peach_est = estimators.make_peach(model, degree)
    wpeach_est = estimators.make_wpeach(model, degree)
    floors = _floors(model, config, degree)
    # one MVU Gram system serves the analytic variance and the Monte Carlo
    # callable; it is not cached on the model, which would hold two more (m, n) arrays
    gram, t, mvu_eigs = estimators._mvu_gram(model)
    # estimator -> (closed-form MSE, Monte Carlo callable), in row order; the
    # polynomial rows report the MSE of the prepared estimators, so the Monte
    # Carlo confirmation measures exactly the same filters
    table = {
        "mmse": (estimators.mmse_mse(model), estimators.mmse_estimate),
        "mvu": (float(np.sum(1.0 / mvu_eigs)), lambda mdl, y: estimators._mvu_apply(mdl, gram, t, y)),
        "diagonalized": (estimators.diag_mse(model), estimators.diag_estimate),
        "peach": (
            estimators.peach_mse(model, degree, peach_est.alpha),
            lambda mdl, y: estimators.peach_estimate(mdl, peach_est, y),
        ),
        "wpeach": (
            estimators.wpeach_mse_general(model, degree, wpeach_est.alpha, wpeach_est.weights),
            lambda mdl, y: estimators.wpeach_estimate(mdl, wpeach_est, y),
        ),
    }
    monte_carlo = {}
    if config.monte_carlo:
        callables = {name: estimate for name, (_, estimate) in table.items()}
        monte_carlo = run_monte_carlo(model, callables, config.trials, (config.seed, point_index))
    rows = []
    for name, (mse, _) in table.items():
        nmse_mc = stderr = None
        if name in monte_carlo:
            mse_hat, se = monte_carlo[name]
            nmse_mc = mse_hat / trace_r
            stderr = None if se is None else se / trace_r
        floor = floors[name] / trace_r
        rows.append(ResultRow(config.scenario, name, sweep_value, mse / trace_r, nmse_mc, stderr, floor))
    return rows


# the config field each sweep scenario walks
_SWEEP_AXES = {"sweep-l": "degrees", "sweep-snr": "snr_db", "sweep-nr": "n_r_values"}


def _run_sweep(config: ExperimentConfig):
    axis = _SWEEP_AXES[config.scenario]
    model = None
    rows = []
    for index, value in enumerate(getattr(config, axis)):
        # each axis field's value at this point: the swept one from its grid, the others from the config
        point = {"degrees": config.degree, "snr_db": config.snr_db[0], "n_r_values": config.n_r, axis: value}
        # every degree of sweep-l shares one model
        if model is None or axis != "degrees":
            dims = Dims(point["n_r_values"], config.n_t, config.b)
            model = correlated_model(dims, point["snr_db"], config.betas, config.correlation, config.noise_var)
        rows.extend(_sweep_point_rows(model, config, point["degrees"], float(value), index))
    return rows


def _run_adaptive(config: ExperimentConfig):
    """Sliding-window weights versus exactly optimized weights, both evaluated exactly."""
    dims = Dims(config.n_r, config.n_t, config.b)
    rows = []
    for index, gamma_db in enumerate(config.snr_db):
        model = correlated_model(dims, gamma_db, config.betas, config.correlation, config.noise_var)
        trace_r = float(np.trace(model.r_cov).real)
        wpeach_est = estimators.make_wpeach(model, config.degree)
        alpha_w = wpeach_est.alpha
        mse_opt = estimators.wpeach_mse_general(model, config.degree, alpha_w, wpeach_est.weights)
        # one stream per SNR point: the first child of (seed, index)
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, index)).spawn(1)[0])
        warmup = list(model.draw(rng, config.window)[1].T)
        state = adaptive_init(model, config.window, config.degree, alpha_w, warmup)
        for y_new in model.draw(rng, config.window)[1].T:
            adaptive_update(state, y_new)
        mse_approx = estimators.wpeach_mse_general(model, config.degree, alpha_w, state.weights)
        rows.append(
            ResultRow(config.scenario, "wpeach", float(gamma_db), nmse_analytic=mse_opt / trace_r)
        )
        rows.append(
            ResultRow(
                config.scenario,
                "wpeach-adaptive",
                float(gamma_db),
                nmse_analytic=mse_approx / trace_r,
            )
        )
    return rows


def _run_shrinkage(config: ExperimentConfig):
    """Estimators rebuilt from a shrinkage covariance estimate, scored on the truth."""
    dims = Dims(config.n_r, config.n_t, config.b)
    model = correlated_model(dims, config.snr_db[0], config.betas, config.correlation, config.noise_var)
    trace_r = float(np.trace(model.r_cov).real)
    mse_mmse = estimators.mmse_mse(model)
    mse_wpeach = estimators.wpeach_mse_optimal(model, config.degree)
    rows = []
    for index, n_samples in enumerate(config.shrink_samples):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, index)))
        samples = (model.r_factor @ standard_complex_normal(rng, dims.n, n_samples)).T
        shrunk = shrinkage_covariance(samples, mode="plugin")
        model_est = replace(model, r_cov=shrunk.c_hat)
        wpeach_est = estimators.make_wpeach(model_est, config.degree)
        g_wpeach = estimators.poly_filter_matrix(model_est, wpeach_est)
        g_mmse = estimators.mmse_filter_matrix(model_est)
        mse_wpeach_est = estimators.linear_filter_mse(model, g_wpeach)
        mse_mmse_est = estimators.linear_filter_mse(model, g_mmse)
        sweep = float(n_samples)
        rows.append(ResultRow(config.scenario, "mmse", sweep, nmse_analytic=mse_mmse / trace_r))
        rows.append(ResultRow(config.scenario, "mmse-est", sweep, nmse_analytic=mse_mmse_est / trace_r))
        rows.append(ResultRow(config.scenario, "wpeach", sweep, nmse_analytic=mse_wpeach / trace_r))
        rows.append(ResultRow(config.scenario, "wpeach-est", sweep, nmse_analytic=mse_wpeach_est / trace_r))
    return rows


def _run_flops(config: ExperimentConfig):
    rows = []
    for n_r in config.n_r_values:
        dims = Dims(n_r, config.n_t, config.b)
        fm = analysis.FlopModel(
            dims=dims,
            tau_s=config.tau_s,
            tau_c=config.tau_s / config.q_ratio,
            t_tot=config.t_tot,
        )
        for name in ("mmse", "mvu", "peach", "wpeach"):
            degree = config.degree if name in ("peach", "wpeach") else None
            rows.append(
                ResultRow(
                    config.scenario,
                    name,
                    float(n_r),
                    flops=analysis.flops(name, fm, degree),
                )
            )
    return rows


_RUNNERS = {
    **dict.fromkeys(_SWEEP_AXES, _run_sweep),
    "adaptive": _run_adaptive,
    "shrinkage": _run_shrinkage,
    "flops": _run_flops,
}


def run_experiment(config: ExperimentConfig):
    """Run one scenario and write its CSV (plus a JSON twin); returns the rows.

    Rows are ordered by sweep value, then estimator.  Re-running with the same
    configuration and seed produces byte-identical output files at a fixed
    BLAS thread count; across thread counts the W-PEACH Monte Carlo columns
    can move in the 9th significant digit.
    """
    config.validate()
    rows = _RUNNERS[config.scenario](config)
    write_rows(rows, Path(config.out))
    return rows


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.9g}"


def write_rows(rows, path: Path):
    """Write rows as CSV with 9-significant-digit floats, plus ``<path>.json``."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_value(getattr(row, column)) for column in CSV_COLUMNS])
    payload = [{column: getattr(row, column) for column in CSV_COLUMNS} for row in rows]
    with open(path.with_suffix(".json"), "w") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")


# ---------------------------------------------------------------------------
# command-line interface


def _parse_list(text: str, kind) -> tuple:
    text = text.strip()
    if kind is int and ":" in text:
        start, stop = text.split(":", 1)
        return tuple(range(int(start), int(stop) + 1))
    return tuple(kind(part) for part in text.split(",") if part.strip())


# fields settable from a config file or a flag, with the default whose type parses them
_FIELD_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}


def _parse_field(key: str, text: str):
    default = _FIELD_DEFAULTS[key]
    if isinstance(default, bool):
        return text.strip().lower() in ("1", "true", "yes", "on")
    if isinstance(default, tuple):
        return _parse_list(text, type(default[0]))
    return type(default)(text)


def load_config_file(path: str, scenario: str) -> dict:
    """Read overrides from a flat key = value file with one section per scenario."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    overrides = {}
    for section in ("common", scenario):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            key = key.replace("-", "_")
            if key not in _FIELD_DEFAULTS:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            try:
                overrides[key] = _parse_field(key, raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in section [{section}]: {raw!r}") from exc
    return overrides


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peachsim",
        description="Channel-estimation experiments: MSE sweeps, floors, adaptive weights, "
        "shrinkage robustness and FLOP cost curves, written as CSV.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for scenario in SCENARIOS:
        p = sub.add_parser(scenario, help=f"run the {scenario} scenario")
        p.add_argument("--config", help="INI file with [common] and per-scenario sections")
        p.add_argument("--seed", type=int, help="master seed (64-bit)")
        p.add_argument("--trials", type=int, help="Monte Carlo trials per row")
        p.add_argument("--out", help="output CSV path")
        p.add_argument(
            "--no-montecarlo",
            action="store_true",
            help="skip Monte Carlo confirmation columns",
        )
        p.add_argument("--n-r", type=int, dest="n_r", help="receive antennas")
        p.add_argument("--n-t", type=int, dest="n_t", help="transmit antennas (pilot length follows)")
        p.add_argument("--snr-db", dest="snr_db", help="comma-separated pilot SNR values in dB")
        p.add_argument("--betas", help="comma-separated interference power ratios")
        p.add_argument("--degree", type=int, help="fixed polynomial degree")
        if scenario == "sweep-l":
            p.add_argument("--degrees", help="degree grid, e.g. 0:12 or 0,2,4")
        if scenario in ("sweep-nr", "flops"):
            p.add_argument("--nr-values", dest="n_r_values", help="receive-antenna grid, e.g. 10,20,40,80")
        if scenario == "adaptive":
            p.add_argument("--window", type=int, help="sliding-window length")
        if scenario == "shrinkage":
            p.add_argument("--samples", dest="shrink_samples", help="sample-count grid, e.g. 20,40,80")
        if scenario == "flops":
            p.add_argument("--q", type=float, dest="q_ratio", help="stationarity ratio tau_s / tau_c")
            p.add_argument("--tau-s", type=float, dest="tau_s", help="statistics coherence time [s]")
            p.add_argument("--t-tot", type=float, dest="t_tot", help="total operating time [s]")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {}
    if args.config:
        overrides.update(load_config_file(args.config, args.scenario))
    for key, value in vars(args).items():
        if key in _FIELD_DEFAULTS and value is not None:
            overrides[key] = _parse_field(key, value) if isinstance(value, str) else value
    if args.no_montecarlo:
        overrides["monte_carlo"] = False
    return default_config(args.scenario, **overrides)


def main(argv=None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        rows = run_experiment(config)
    except (PeachSimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{config.scenario}: wrote {len(rows)} rows to {config.out} (seed {config.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
