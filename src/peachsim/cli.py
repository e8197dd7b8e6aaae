"""Experiment runner with CSV/JSON output.

Six scenarios: MSE versus polynomial degree (``sweep-l``), versus pilot SNR
with floor overlays (``sweep-snr``), versus receive-antenna count
(``sweep-nr``), sliding-window weight tracking (``adaptive``) and shrinkage
covariance robustness (``shrinkage``), all on the square identity pilot
(``b == n_t``), and FLOPs per statistics epoch of q realizations (``flops``).
Each is deterministic under a fixed seed and emits one CSV row per (sweep
value, estimator) pair plus a JSON twin of the table.

One table, ``_SCENARIOS``, describes each scenario: its preset, the config
field it walks, the function that returns the rows of one point, and the
config fields it reads.  :func:`run_experiment` walks that field in one loop,
and each subcommand offers the flags of exactly the fields its scenario
reads.  ``--config`` reads a JSON object of ``ExperimentConfig`` fields, whose
lists become tuples; flag strings are parsed by the type of the field's default.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis, estimators
from .adaptive import adaptive_init, adaptive_update, shrinkage_covariance
from .errors import ConfigError, InvalidCorrelation, InvalidParameter, PeachSimError, ShapeError, check_integer, check_real
from .model import (
    Dims,
    SpatialCorrelation,
    StatModel,
    correlated_limit,
    correlated_model,
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
    monte_carlo: bool = True
    out: str = "results.csv"
    # the least value of each integer field or grid whose least is not 1, and of each real one that may be 0 or below
    _LEAST = {"seed": 0, "degree": 0, "degrees": 0, "shrink_samples": 2, "betas": 0.0, "snr_db": -math.inf}

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        # each number, alone or in a grid, is checked by the type of its field's default, the type that parses
        # its flag (_parse_field): an integer is at least _LEAST or 1, a real finite and at least _LEAST or above 0
        for name, default in _FIELD_DEFAULTS.items():
            value = getattr(self, name)
            if not isinstance(default, tuple):
                entries, kind = (value,), type(default)
            elif isinstance(value, str) or not isinstance(value, Sequence):
                raise ConfigError(f"{name} must be a sequence, got {value!r}")
            elif len(value) == 0 and name != "betas":
                raise ConfigError(f"{name} must be non-empty")
            else:
                entries, kind = value, type(default[0])
            for entry in entries:
                if kind is int:
                    check_integer(name, entry, self._LEAST.get(name, 1), ConfigError)
                elif kind is float:
                    check_real(name, entry, ConfigError, self._LEAST.get(name, 0.0), strict=name not in self._LEAST)
        scenario = _SCENARIOS[self.scenario]
        if scenario.builds_model and self.b != self.n_t:
            raise ConfigError(f"{self.scenario}'s identity pilot needs b == n_t, got b={self.b}, n_t={self.n_t}")
        if "snr_db" in scenario.reads and scenario.walks != "snr_db" and len(self.snr_db) > 1:
            raise ConfigError(f"{self.scenario} reads one pilot SNR, got snr_db = {self.snr_db}")
        if not isinstance(self.monte_carlo, bool) or not isinstance(self.out, str | os.PathLike):
            raise ConfigError(f"monte_carlo must be a bool and out a path, got {self.monte_carlo!r} and {self.out!r}")
        if Path(self.out).is_dir():  # "" reads as "."
            raise ConfigError(f"out must name a file, got the directory {self.out!r}")
        if not isinstance(self.correlation, SpatialCorrelation):
            raise ConfigError(f"correlation must be a SpatialCorrelation, got {self.correlation!r}")
        try:
            self.correlation.validate(len(self.betas))
        except InvalidCorrelation as exc:
            raise ConfigError(str(exc)) from None
        return self


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


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


# ---------------------------------------------------------------------------
# Monte Carlo harness


# trials drawn and scored per batch of run_monte_carlo
MONTE_CARLO_CHUNK = 512


def run_monte_carlo(model: StatModel, estimators: dict, trials: int, seed) -> dict:
    """Empirical MSE of each ``estimator(y)`` (say :meth:`estimators.Prepared.apply`) over one set of seeded draws.

    Draws (h, y) pairs from ``model`` by :meth:`StatModel.draw` and scores
    every estimator of the mapping on the same (m, k) batches of y.  Returns
    ``{name: (mse_hat, standard_error)}``, with a standard error of None for
    a single trial.  Trials are processed in chunks of ``MONTE_CARLO_CHUNK``
    with independent child streams, so results are reproducible, independent
    of chunk scheduling, and the same for an estimator whether it is scored
    alone or next to others.
    """
    trials = check_integer("trials", trials, 1, InvalidParameter)
    n_chunks = (trials + MONTE_CARLO_CHUNK - 1) // MONTE_CARLO_CHUNK
    message = f"seed must be a nonnegative integer or a sequence of them, got {seed!r}"
    if any(s is None or isinstance(s, bool) for s in (seed if np.iterable(seed) else (seed,))):
        raise InvalidParameter(message)  # numpy would draw fresh entropy for None and read a bool as 0 or 1
    try:
        children = np.random.SeedSequence(seed).spawn(n_chunks)
    except (TypeError, ValueError):  # numpy's own rule: nonnegative integers alone or in a sequence
        raise InvalidParameter(message) from None
    sq_errors = {name: np.empty(trials) for name in estimators}
    pos = 0
    for child in children:
        count = min(MONTE_CARLO_CHUNK, trials - pos)
        h, y = model.draw(np.random.default_rng(child), count)
        for name, estimator in estimators.items():
            h_hat = estimator(y)
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
    # the limit spectrum depends on neither the SNR nor the degree; it is the
    # one the model's z_spectrum maps, so a sweep decomposes it once
    limit = correlated_limit(model.dims, tuple(config.betas), config.correlation)
    if any(beta > 0 for beta in config.betas):
        r_diag, _, interference = model.diagonals()
        return analysis.floor_contaminated(limit, r_diag, interference, degree)._asdict()
    return analysis.floor_noise_limited(limit, degree)._asdict()


def _normalized_rows(config, model, sweep_value, values: dict) -> list:
    """One row per estimator of ``values``, whose MSE-valued columns are divided by trace(r) here.

    ``values`` maps an estimator to its unnormalized columns in row order from
    ``nmse_analytic`` on (analytic MSE, then optionally the Monte Carlo MSE,
    its standard error and the floor); a None stays empty.
    """
    trace_r = model.trace_r
    return [
        ResultRow(config.scenario, name, sweep_value, *(None if v is None else v / trace_r for v in columns))
        for name, columns in values.items()
    ]


def _sweep_point(config, model, point, sweep_value, index):
    """The five estimators of :data:`estimators.NAMES`, prepared once at one sweep point, at degree ``point["degrees"]``.

    The analytic and Monte Carlo columns score the same prepared filters.
    Without Monte Carlo nothing is applied, so z and MMSE's factor of it are not formed.
    """
    prepared = {name: estimators.prepare(model, name, point["degrees"]) for name in estimators.NAMES}
    floors = _floors(model, config, point["degrees"])
    monte_carlo = {}
    if config.monte_carlo:
        monte_carlo = run_monte_carlo(model, {n: p.apply for n, p in prepared.items()}, config.trials, (config.seed, index))
    values = {name: (p.mse(), *monte_carlo.get(name, (None, None)), floors[name]) for name, p in prepared.items()}
    return _normalized_rows(config, model, sweep_value, values)


def _adaptive_point(config, model, point, sweep_value, index):
    """Sliding-window weights versus exactly optimized weights, both evaluated exactly.

    The tracker is fed the two ``(m, window)`` blocks that ``model.draw``
    returns: the first fills the window, and the second replaces it in one
    step, so each block costs one weight solve.  Each block's quadratic
    forms come from one chain of ``2L`` block products with the model's
    operator for ``z``, its real form on this correlated model.
    """
    wpeach_est = estimators.make_wpeach(model, config.degree)
    alpha_w = wpeach_est.alpha
    mse_opt = estimators.wpeach_mse_general(model, config.degree, alpha_w, wpeach_est.weights)
    # one stream per SNR point: the first child of (seed, index)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, index)).spawn(1)[0])
    state = adaptive_init(model, config.degree, alpha_w, model.draw(rng, config.window)[1])
    adaptive_update(state, model.draw(rng, config.window)[1])
    mse_approx = estimators.wpeach_mse_general(model, config.degree, alpha_w, state.weights)
    return _normalized_rows(config, model, sweep_value, {"wpeach": (mse_opt,), "wpeach-adaptive": (mse_approx,)})


def _shrinkage_point(config, model, point, sweep_value, index):
    """MMSE and W-PEACH rebuilt from a shrinkage covariance estimate, scored on the truth.

    The plug-in estimate r_est from ``point["shrink_samples"]`` channel draws
    (:meth:`StatModel.draw_channel`, through the channel's Kronecker factors)
    is scored by :func:`estimators.mismatched_mse` on the one true model: one
    eigendecomposition of the estimated z, no second model, no dense filter.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, index)))
    samples = model.draw_channel(rng, point["shrink_samples"]).T
    r_est = shrinkage_covariance(samples).c_hat
    mse_mmse_est, mse_wpeach_est = estimators.mismatched_mse(model, r_est, config.degree)
    values = {
        "mmse": (estimators.mmse_mse(model),),
        "mmse-est": (mse_mmse_est,),
        "wpeach": (estimators.wpeach_mse_optimal(model, config.degree),),
        "wpeach-est": (mse_wpeach_est,),
    }
    return _normalized_rows(config, model, sweep_value, values)


def _flops_point(config, model, point, sweep_value, index):
    """FLOP counts of four estimators at ``point["n_r_values"]`` receive antennas; no model is read."""
    dims = Dims(point["n_r_values"], config.n_t, config.b)
    # one statistics epoch in coherence times: one preparation (k_s = 1) and q_ratio realizations (k_c)
    fm = analysis.FlopModel(dims, tau_s=config.q_ratio, tau_c=1.0, t_tot=config.q_ratio)
    return [
        ResultRow(config.scenario, name, sweep_value, flops=analysis.flops(name, fm, degree))
        for name, degree in (("mmse", None), ("mvu", None), ("peach", config.degree), ("wpeach", config.degree))
    ]


@dataclass(frozen=True)
class _Scenario:
    """Preset, walked field, ``point_rows(config, model, point, sweep_value, index)`` and read fields of a scenario."""

    preset: dict
    walks: str
    point_rows: Callable
    reads: tuple

    @property
    def builds_model(self) -> bool:
        # a model needs a pilot SNR; flops evaluates cost formulas only
        return "snr_db" in self.reads


# the correlated model's fields, and the Monte Carlo columns' fields
_MODEL = ("n_t", "b", "snr_db", "betas", "correlation", "noise_var")
_MONTE_CARLO = ("trials", "seed", "monte_carlo")

_SCENARIOS = {
    "sweep-l": _Scenario(
        dict(snr_db=(5.0,), betas=(1.0, 1.0), degrees=tuple(range(13)), out="sweep_l.csv"),
        "degrees", _sweep_point, ("degrees", "n_r", *_MODEL, *_MONTE_CARLO),
    ),
    "sweep-snr": _Scenario(
        dict(snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), degree=10, betas=(0.1, 0.1), out="sweep_snr.csv"),
        "snr_db", _sweep_point, ("degree", "n_r", *_MODEL, *_MONTE_CARLO),
    ),
    "sweep-nr": _Scenario(
        dict(snr_db=(5.0,), degree=4, betas=(1.0, 1.0), out="sweep_nr.csv"),
        "n_r_values", _sweep_point, ("n_r_values", "degree", *_MODEL, *_MONTE_CARLO),
    ),
    "adaptive": _Scenario(
        dict(snr_db=(0.0, 5.0, 10.0, 15.0, 20.0), degree=4, betas=(), out="adaptive.csv"),
        "snr_db", _adaptive_point, ("degree", "n_r", "seed", "window", *_MODEL),
    ),
    "shrinkage": _Scenario(
        dict(snr_db=(5.0,), degree=8, betas=(), out="shrinkage.csv"),
        "shrink_samples", _shrinkage_point, ("shrink_samples", "degree", "n_r", "seed", *_MODEL),
    ),
    "flops": _Scenario(
        dict(n_t=10, b=10, degree=2, n_r_values=tuple(range(50, 501, 50)), out="flops.csv"),
        "n_r_values", _flops_point, ("n_r_values", "n_t", "b", "degree", "q_ratio"),
    ),
}
SCENARIOS = tuple(_SCENARIOS)


def default_config(scenario: str, /, **overrides) -> ExperimentConfig:
    """Scenario preset with optional field overrides, validated.

    An ``n_t`` override without a ``b`` override sets ``b = n_t`` as well (a
    model's identity pilot is square), except for ``flops``, which takes any ``b``.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    if unknown := sorted(set(overrides) - {*_FIELD_DEFAULTS, "correlation"}):
        raise ConfigError(f"unknown config field {', '.join(unknown)}")
    params = {**_SCENARIOS[scenario].preset, **overrides}
    if "n_t" in overrides and "b" not in overrides and _SCENARIOS[scenario].builds_model:
        params["b"] = overrides["n_t"]
    return ExperimentConfig(scenario=scenario, **params).validate()


def run_experiment(config: ExperimentConfig):
    """Run one scenario and write its CSV (plus a JSON twin); returns the rows.

    Each point holds the walked field's value and the config's values of the
    other sweep fields; the model of the point's (n_r, SNR) is built only when
    that pair changes.  Rows are ordered by sweep value, then estimator.  Re-running with the same configuration and seed produces
    byte-identical output files at a fixed BLAS thread count; across thread
    counts the W-PEACH Monte Carlo columns can move in the 9th significant digit.
    """
    config.validate()
    scenario = _SCENARIOS[config.scenario]
    model = built = None
    rows = []
    for index, value in enumerate(getattr(config, scenario.walks)):
        point = {"degrees": config.degree, "snr_db": config.snr_db[0], "n_r_values": config.n_r, scenario.walks: value}
        if scenario.builds_model and built != (point["n_r_values"], point["snr_db"]):
            n_r, gamma_db = built = (point["n_r_values"], point["snr_db"])
            dims = Dims(n_r, config.n_t, config.b)
            model = correlated_model(dims, gamma_db, config.betas, config.correlation, config.noise_var)
        sweep_value = check_real(scenario.walks, value, InvalidParameter)  # an integer beyond the float range fails
        rows.extend(scenario.point_rows(config, model, point, sweep_value, index))
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


# fields settable from a config file or a flag, with the default whose type parses a flag's string
_FIELD_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}


def _parse_field(key: str, text: str):
    default = _FIELD_DEFAULTS[key]
    if isinstance(default, tuple):
        return _parse_list(text, type(default[0]))
    return type(default)(text)


def _read_config(path: str) -> dict:
    """The fields of a JSON config file's one object, each list as a tuple; validate types the values."""
    try:
        overrides = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {path!r} holds a {type(overrides).__name__}, not a JSON object of fields")
    return {key: tuple(value) if isinstance(value, list) else value for key, value in overrides.items()}


# flag and help text of each field a subcommand can offer (b and noise_var: from a --config file only)
_FLAGS = {
    "seed": ("--seed", "master seed (64-bit)"),
    "trials": ("--trials", "Monte Carlo trials per row"),
    "monte_carlo": ("--no-montecarlo", "skip Monte Carlo confirmation columns"),
    "n_r": ("--n-r", "receive antennas"),
    "n_t": ("--n-t", "transmit antennas (the pilot length follows, except for flops)"),
    "snr_db": ("--snr-db", "comma-separated pilot SNR values in dB"),
    "betas": ("--betas", "comma-separated interference power ratios"),
    "degree": ("--degree", "fixed polynomial degree"),
    "degrees": ("--degrees", "degree grid, e.g. 0:12 or 0,2,4"),
    "n_r_values": ("--nr-values", "receive-antenna grid, e.g. 10,20,40,80"),
    "window": ("--window", "sliding-window length"),
    "shrink_samples": ("--samples", "sample-count grid, e.g. 20,40,80"),
    "q_ratio": ("--q", "stationarity ratio tau_s / tau_c"),
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which reports an argument it does not take itself, with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peachsim",
        description="Channel-estimation experiments: MSE sweeps, floors, adaptive weights, "
        "shrinkage robustness and FLOP cost curves, written as CSV.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, parser_class=_SubcommandParser)
    for name, scenario in _SCENARIOS.items():
        # no abbreviations: --degree must not stand for sweep-l's --degrees
        p = sub.add_parser(name, help=f"run the {name} scenario", allow_abbrev=False)
        p.add_argument("--config", help="JSON file with one object of config fields; flags override it")
        p.add_argument("--out", help="output CSV path")
        for key, (flag, help_text) in _FLAGS.items():
            if key not in scenario.reads:
                continue
            default = _FIELD_DEFAULTS[key]
            # a switch turns its field's default off; any other flag's string is parsed by _parse_field
            if isinstance(default, bool):
                p.add_argument(flag, dest=key, action="store_const", const=not default, help=help_text)
            else:
                p.add_argument(flag, dest=key, help=help_text)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = _read_config(args.config) if args.config else {}
    for key, value in vars(args).items():
        if key in _FIELD_DEFAULTS and value is not None:
            try:
                overrides[key] = _parse_field(key, value) if isinstance(value, str) else value
            except ValueError:  # --out is a plain string, so every flag that can fail is in _FLAGS
                raise ConfigError(f"bad value for {_FLAGS[key][0]}: {value!r}") from None
    return default_config(args.scenario, **overrides)


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        rows = run_experiment(config)
    except (PeachSimError, ValueError, OSError) as exc:  # OSError: out cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{config.scenario}: wrote {len(rows)} rows to {config.out} (seed {config.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
