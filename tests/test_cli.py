import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import peachsim.cli as cli
from peachsim import analysis
from peachsim import estimators as es
from peachsim.cli import (
    CSV_COLUMNS,
    default_config,
    main,
    run_experiment,
    run_monte_carlo,
)
from peachsim.errors import ConfigError, InvalidParameter, ShapeError
from peachsim.model import (
    Dims,
    SpatialCorrelation,
    correlated_model,
    identity_pilot,
    stat_model_from_pilot,
)

from conftest import count_calls, random_model
from oracles import peach_as_wpeach_weights


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_config(tmp_path, fields):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(fields))
    return str(path)


def config_from(argv):
    return cli._config_from_args(cli._build_arg_parser().parse_args(argv))


class TestConfig:
    def test_scenario_presets(self):
        config = default_config("sweep-snr")
        assert config.degree == 10
        assert config.betas == (0.1, 0.1)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            default_config("sweep-x")

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(trials=0),
            dict(snr_db=()),
            dict(betas=(-0.1,)),
            dict(degrees=(-1, 2)),
            dict(window=0),
            dict(noise_var=0.0),
            dict(shrink_samples=(1,)),
            dict(snr_db=(float("nan"),)),
            dict(betas=(float("inf"), 1.0)),
            dict(noise_var=float("nan")),
            dict(q_ratio=float("nan")),
            dict(q_ratio=float("inf")),
            # the identity pilot of a model is square
            dict(b=5),
            dict(seed=-1),
            dict(n_r_values=(40, 0)),
            dict(n_r_values=(-5,)),
            dict(degrees=(2.5,)),
            dict(degree=2.5),
            dict(seed=1.5),
            dict(trials=2.5),
            dict(window=2.5),
            dict(shrink_samples=(4.5,)),
            dict(n_r=2.5),
            dict(n_t=2.5),
            dict(b=2.5),
            dict(n_r_values=(2.5,)),
            dict(snr_db=5.0),
            dict(degrees=3),
            dict(betas=0.1),
            dict(n_r_values=20),
            dict(snr_db="5"),
            dict(snr_db=("a",)),
            dict(noise_var="1"),
            dict(betas=(None,)),
            dict(correlation=None),
            dict(correlation=SpatialCorrelation(interferer_tx=(), interferer_rx=())),
            dict(correlation=SpatialCorrelation(desired_rx="a")),
            dict(correlation=SpatialCorrelation(interferer_tx=(0.3,), interferer_rx=(0.5, 0.6))),
            # bool is an int to Python, but never a count, a seed or a power
            dict(window=True),
            dict(n_r=True),
            dict(trials=True),
            dict(seed=False),
            dict(degree=True),
            dict(degrees=(True, 2)),
            dict(n_r_values=(True,)),
            dict(noise_var=True),
            dict(snr_db=(False,)),
            dict(betas=(True, 1.0)),
            dict(q_ratio=True),
            # "no" is truthy and ran Monte Carlo; out=5 failed in write_rows after every table
            dict(monte_carlo="no"),
            dict(monte_carlo=1),
            dict(out=5),
            dict(out=None),
            # an unknown field was a bare TypeError from the dataclass
            dict(foo=1),
            # the scenario is default_config's positional argument, not a field to override
            dict(scenario="flops"),
        ],
    )
    def test_validation_failures(self, overrides):
        with pytest.raises(ConfigError):
            default_config("sweep-l", **overrides)

    def test_pilot_length_follows_n_t_except_for_flops(self):
        assert default_config("sweep-l", n_t=3).b == 3
        assert default_config("flops", n_t=3).b == 10
        assert default_config("flops", n_t=3, b=5).b == 5

    @pytest.mark.parametrize("scenario", [s for s in cli.SCENARIOS if s != "flops"])
    def test_model_scenario_rejects_a_pilot_length_other_than_n_t(self, tmp_path, capsys, monkeypatch, scenario):
        # b = 5 validated, and the first model build raised PilotShapeMismatch
        monkeypatch.setattr(cli, "correlated_model", lambda *args: pytest.fail("model built for a bad pilot length"))
        with pytest.raises(ConfigError, match="needs b == n_t, got b=5, n_t=4"):
            default_config(scenario, b=5)
        out = tmp_path / "x.csv"
        assert main([scenario, "--config", write_config(tmp_path, dict(b=5)), "--out", str(out)]) == 2
        assert "needs b == n_t" in capsys.readouterr().err
        assert not out.exists()

    def test_correlation_magnitude_guard(self):
        bad = SpatialCorrelation(desired_rx=1.01)
        with pytest.raises(ConfigError):
            default_config("sweep-l", correlation=bad)

    def test_config_file_round_trip(self, tmp_path):
        fields = dict(seed=99, trials=50, degrees=[0, 1, 2, 3, 4], snr_db=[5], betas=[1, 1], out="here.csv")
        path = write_config(tmp_path, fields)
        config = config_from(["sweep-l", "--config", path])
        assert config.seed == 99 and config.trials == 50
        assert config.degrees == (0, 1, 2, 3, 4)
        assert config.betas == (1, 1)
        assert config.out == "here.csv"

    def test_config_file_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config field windowing"):
            config_from(["sweep-l", "--config", write_config(tmp_path, dict(windowing=3))])

    @pytest.mark.parametrize("key", ["tau_s", "t_tot"])
    def test_config_file_flops_times_are_unknown_fields(self, tmp_path, key):
        # the flops table counts one statistics epoch; these only rescaled every cell
        with pytest.raises(ConfigError, match=f"unknown config field {key}"):
            config_from(["flops", "--config", write_config(tmp_path, {key: 5.0})])

    @pytest.mark.parametrize(
        "fields, message",
        [
            # a JSON file with a scenario key crashed main with a TypeError traceback
            (dict(scenario="flops"), "unknown config field scenario"),
            (dict(correlation=0.5), "correlation must be a SpatialCorrelation"),
            (dict(correlation=dict(desired_rx=0.5)), "correlation must be a SpatialCorrelation"),
        ],
        ids=["scenario", "correlation number", "correlation object"],
    )
    def test_config_file_rejects_fields_without_plain_default(self, tmp_path, capsys, fields, message):
        out = tmp_path / "x.csv"
        assert main(["sweep-l", "--config", write_config(tmp_path, fields), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_lists_become_tuples(self, tmp_path):
        fields = dict(monte_carlo=False, shrink_samples=[4, 5, 6], noise_var=2.0, window=7, snr_db=[2.5])
        config = config_from(["shrinkage", "--config", write_config(tmp_path, fields)])
        assert config.shrink_samples == (4, 5, 6) and type(config.shrink_samples) is tuple
        assert (config.monte_carlo, config.noise_var, config.window, config.snr_db) == (False, 2.0, 7, (2.5,))

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
    def test_config_file_monte_carlo_must_be_a_json_bool(self, tmp_path, value):
        # the INI dialect read boolean words; a JSON file spells a bool true or false
        with pytest.raises(ConfigError, match="monte_carlo must be a bool"):
            config_from(["sweep-l", "--config", write_config(tmp_path, dict(monte_carlo=value))])

    @pytest.mark.parametrize("fields", [dict(seed=1e3), dict(degrees=[0, 1.0]), dict(snr_db=5), dict(betas="1, 1")])
    def test_config_file_values_typed_by_validate(self, tmp_path, fields):
        # a file's values are not parsed: a float for an integer, or a scalar or string for a grid, fails
        with pytest.raises(ConfigError):
            config_from(["sweep-l", "--config", write_config(tmp_path, fields)])

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda path: None, "cannot read config file"),
            (Path.mkdir, "cannot read config file"),
            (lambda path: path.write_text("{seed: 1}"), "cannot read config file"),
            (lambda path: path.write_text("[sweep-l]\nseed = 1\n"), "cannot read config file"),
            (lambda path: path.write_bytes(b"\xff\xfe{}"), "cannot read config file"),
            (lambda path: path.write_text("[1, 2]"), "holds a list, not a JSON object"),
            (lambda path: path.write_text("null"), "holds a NoneType, not a JSON object"),
        ],
        ids=["missing", "directory", "not JSON", "INI", "not UTF-8", "list", "null"],
    )
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, make, message):
        path = tmp_path / "run.json"
        make(path)
        assert main(["flops", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "x.csv").exists()

    def test_config_file_n_t_sets_pilot_length(self, tmp_path, capsys):
        out = tmp_path / "n_t.csv"
        path = write_config(tmp_path, dict(n_t=3, degrees=[0], out=str(out)))
        assert main(["sweep-l", "--config", path, "--no-montecarlo"]) == 0
        assert "wrote 5 rows" in capsys.readouterr().out
        assert config_from(["sweep-l", "--config", path]).b == 3


# a small desk config of each scenario, every field set; noise_var and b are settable from a file only
DESK = dict(n_r=4, n_t=2, degree=2, degrees=(0, 1), n_r_values=(2, 4), window=8, shrink_samples=(4, 8), noise_var=0.5,
            seed=7, monte_carlo=False)


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_json_config_of_every_field_rewrites_the_api_tables(tmp_path, scenario):
    snr_db = (0.0, 10.0) if cli._SCENARIOS[scenario].walks == "snr_db" else (5.0,)
    config = default_config(scenario, **DESK, snr_db=snr_db, out=str(tmp_path / "api" / "t.csv"))
    run_experiment(config)
    from_file = tmp_path / "cli" / "t.csv"
    fields = {name: getattr(config, name) for name in cli._FIELD_DEFAULTS} | {"out": str(from_file)}
    assert main([scenario, "--config", write_config(tmp_path, fields)]) == 0
    for suffix in (".csv", ".json"):
        assert from_file.with_suffix(suffix).read_bytes() == Path(config.out).with_suffix(suffix).read_bytes()


class TestCorrelatedModel:
    def test_unit_diagonal_kronecker_energy(self):
        dims = Dims(5, 3, 3)
        model = correlated_model(dims, 5.0, (1.0, 0.5))
        assert np.trace(model.r_cov).real == pytest.approx(dims.n)
        assert np.linalg.eigvalsh(model.s_cov)[0] > 0

    def test_noise_limited_when_betas_empty(self):
        model = correlated_model(Dims(3, 2, 2), 0.0, ())
        assert_allclose(model.s_cov, np.eye(model.dims.m))


class TestRunMonteCarlo:
    def test_exact_estimator_matches_closed_form(self, rng):
        model = random_model(rng, n_r=3, n_t=2)  # m = 6
        mse_hat, stderr = run_monte_carlo(model, {"mmse": es.prepare(model, "mmse").apply}, 20_000, 2024)["mmse"]
        assert abs(mse_hat - es.mmse_mse(model)) < 3 * stderr

    def test_zero_channel_covariance_gives_zero_error(self):
        dims = Dims(2, 1, 1)
        model = stat_model_from_pilot(
            dims, None, np.zeros((dims.n, dims.n)), None, identity_pilot(dims, 1.0)
        )
        mse_hat, _ = run_monte_carlo(model, {"mmse": es.prepare(model, "mmse").apply}, 500, 1)["mmse"]
        assert mse_hat == 0.0

    def test_binomial_weights_give_identical_trials(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        degree = 3
        pest = es.make_peach(model, degree)
        west = es.PolyEstimator(
            es.EstimatorKind.WPEACH, degree, pest.alpha, peach_as_wpeach_weights(degree)
        )
        mse_a, se_a = run_monte_carlo(model, {"peach": es.bind(model, pest).apply}, 2_000, 7)["peach"]
        mse_b, se_b = run_monte_carlo(model, {"wpeach": es.bind(model, west).apply}, 2_000, 7)["wpeach"]
        assert mse_a == pytest.approx(mse_b, rel=1e-12)
        assert se_a == pytest.approx(se_b, rel=1e-10)

    def test_shared_draws_match_one_entry_calls(self, rng):
        # 1100 trials: two full chunks and a partial one
        model = random_model(rng, n_r=3, n_t=2)
        scored = {name: es.prepare(model, name, 3).apply for name in ("mmse", "peach")}
        together = run_monte_carlo(model, scored, 1_100, 11)
        assert list(together) == ["mmse", "peach"]
        for name, estimator in scored.items():
            assert together[name] == run_monte_carlo(model, {name: estimator}, 1_100, 11)[name]

    def test_deterministic_under_fixed_seed(self, rng):
        model = random_model(rng)
        a = run_monte_carlo(model, {"mmse": es.prepare(model, "mmse").apply}, 300, 5)
        b = run_monte_carlo(model, {"mmse": es.prepare(model, "mmse").apply}, 300, 5)
        assert a == b

    def test_estimator_shape_checked(self, rng):
        model = random_model(rng)
        with pytest.raises(ShapeError):
            run_monte_carlo(model, {"bad": lambda y: y[:-1]}, 10, 0)

    def test_rejects_zero_trials(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError):
            run_monte_carlo(model, {"mmse": es.prepare(model, "mmse").apply}, 0, 0)

    @pytest.mark.parametrize("seed", [None, True, False, (True, 0), [0, None], (1, False)], ids=repr)
    def test_rejects_none_and_boolean_seeds(self, seed):
        # None drew fresh entropy, so two calls differed, and True drew as 1
        model = correlated_model(Dims(2, 2, 2), 5.0, ())
        with pytest.raises(InvalidParameter, match="seed must be"):
            run_monte_carlo(model, {"mmse": es.prepare(model, "mmse").apply}, 3, seed)

    @pytest.mark.parametrize("seed", [0, 7, (7, 3), [1, 2], np.uint8(3), np.array([4, 5])], ids=repr)
    def test_accepted_seeds_draw_as_numpy_seeds_them(self, seed):
        # one child stream of the seed per chunk of MONTE_CARLO_CHUNK trials, here a full chunk and 88 trials
        model = correlated_model(Dims(2, 2, 2), 5.0, ())
        zero = lambda y: np.zeros((model.dims.n, y.shape[1]), dtype=complex)
        mse_hat, _ = run_monte_carlo(model, {"zero": zero}, 600, seed)["zero"]
        children = np.random.SeedSequence(seed).spawn(2)
        h = np.hstack([model.draw(np.random.default_rng(child), count)[0] for child, count in zip(children, (512, 88))])
        assert mse_hat == float(np.mean(np.sum(np.abs(h) ** 2, axis=0)))


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweepl") / "sweep_l.csv"
    config = default_config("sweep-l", degrees=(0, 2, 4, 6), monte_carlo=False, out=str(out))
    return run_experiment(config), out


class TestSweepL:
    def test_weighted_estimator_closes_on_mmse(self, rows):
        table, _ = rows
        by = {(r.estimator, r.sweep_value): r.nmse_analytic for r in table}
        mmse = by[("mmse", 4.0)]
        assert by[("wpeach", 4.0)] / mmse - 1.0 < 0.035
        assert by[("wpeach", 6.0)] / mmse - 1.0 < 0.012
        # the unweighted expansion needs a larger degree to close the same gap
        for degree in (0.0, 2.0, 4.0, 6.0):
            assert by[("peach", degree)] > by[("wpeach", degree)]

    def test_rows_sorted_and_complete(self, rows):
        table, _ = rows
        sweeps = [r.sweep_value for r in table]
        assert sweeps == sorted(sweeps)
        assert len(table) == 4 * 5
        # contaminated scenario: every row carries a floor value
        assert all(r.floor is not None for r in table)

    def test_csv_matches_rows(self, rows):
        table, out = rows
        records = read_rows(out)
        assert list(records[0].keys()) == list(CSV_COLUMNS)
        assert len(records) == len(table)
        assert records[0]["nmse_monte_carlo"] == ""
        for record, row in zip(records, table):
            assert float(record["nmse_analytic"]) == pytest.approx(row.nmse_analytic, rel=1e-8)

    def test_json_twin_written(self, rows):
        _, out = rows
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload[0]["scenario"] == "sweep-l"
        assert payload[0]["nmse_monte_carlo"] is None


def test_sweep_l_factors_each_covariance_once_per_model(tmp_path, monkeypatch):
    # a contaminated build runs no Cholesky; the Monte Carlo points of every
    # degree then draw the channel through its Kronecker factors, with no
    # m x m Cholesky, and the disturbance through the one cached s_cov factor
    counts = {}
    config = default_config(
        "sweep-l", n_r=4, degrees=(0, 1, 2), trials=16, betas=(0.1, 0.1), out=str(tmp_path / "l.csv")
    )
    count_calls(monkeypatch, np.linalg, ("cholesky",), counts, min_dim=config.n_r * config.b)
    run_experiment(config)
    assert counts["cholesky"] == 0 + 1


class TestSweepSnr:
    def test_noise_limited_saturation(self, tmp_path):
        config = default_config(
            "sweep-snr",
            betas=(),
            snr_db=(30.0,),
            monte_carlo=False,
            out=str(tmp_path / "snr.csv"),
        )
        rows = {r.estimator: r for r in run_experiment(config)}
        assert rows["mmse"].nmse_analytic < 0.01
        assert rows["diagonalized"].nmse_analytic < 0.01
        # the fixed-degree expansion saturates at its floor instead
        assert rows["peach"].nmse_analytic == pytest.approx(rows["peach"].floor, rel=0.05)
        assert rows["peach"].nmse_analytic > 0.1

    def test_monte_carlo_columns_confirm_analytic(self, tmp_path):
        config = default_config(
            "sweep-snr",
            snr_db=(5.0,),
            trials=4000,
            n_r=6,
            n_t=2,
            b=2,
            out=str(tmp_path / "snr_mc.csv"),
        )
        for row in run_experiment(config):
            assert row.nmse_monte_carlo is not None
            # widened tolerance: 4 standard errors at reduced trial count
            assert abs(row.nmse_monte_carlo - row.nmse_analytic) < 4 * row.mc_stderr


class TestSweepNr:
    def test_dimension_insensitivity_with_mild_receive_correlation(self, tmp_path):
        base = SpatialCorrelation()
        mild = SpatialCorrelation(
            desired_rx=0.5 * np.exp(-1j * 0.9289 * np.pi),
            interferer_rx=tuple(0.5 * c / abs(c) for c in base.interferer_rx),
        )
        config = default_config(
            "sweep-nr",
            correlation=mild,
            monte_carlo=False,
            out=str(tmp_path / "nr.csv"),
        )
        rows = run_experiment(config)
        for name in ("peach", "wpeach"):
            values = [r.nmse_analytic for r in rows if r.estimator == name]
            assert len(values) == 4
            assert max(values) / min(values) - 1.0 < 0.05


class TestAdaptiveScenario:
    def test_rows_and_determinism(self, tmp_path):
        config = default_config(
            "adaptive",
            snr_db=(-5.0, 0.0),
            n_r=6,
            n_t=2,
            b=2,
            window=60,
            out=str(tmp_path / "adaptive.csv"),
        )
        rows = run_experiment(config)
        assert [r.estimator for r in rows] == ["wpeach", "wpeach-adaptive"] * 2
        opt = {r.sweep_value: r.nmse_analytic for r in rows if r.estimator == "wpeach"}
        approx = {r.sweep_value: r.nmse_analytic for r in rows if r.estimator == "wpeach-adaptive"}
        for sweep, value in approx.items():
            assert value >= opt[sweep] - 1e-12
        first = (tmp_path / "adaptive.csv").read_bytes()
        run_experiment(config)
        assert (tmp_path / "adaptive.csv").read_bytes() == first


class TestShrinkageScenario:
    def test_estimated_covariance_tracks_truth(self, tmp_path):
        config = default_config(
            "shrinkage",
            shrink_samples=(40, 160),
            n_r=6,
            n_t=2,
            b=2,
            degree=4,
            out=str(tmp_path / "shrink.csv"),
        )
        rows = run_experiment(config)
        by = {(r.estimator, r.sweep_value): r.nmse_analytic for r in rows}
        for count in (40.0, 160.0):
            assert by[("wpeach-est", count)] >= by[("wpeach", count)] - 1e-12
            assert by[("mmse-est", count)] >= by[("mmse", count)] - 1e-12
        # more samples bring the estimated-statistics filter closer to the truth
        assert by[("wpeach-est", 160.0)] < by[("wpeach-est", 40.0)]

    def test_true_statistics_wpeach_cell_scores_the_prepared_filter(self, tmp_path):
        # the wpeach row is the MSE of the filter that prepare applies, by the one scorer
        config = default_config("shrinkage", out=str(tmp_path / "shrink.csv"))
        rows = run_experiment(config)
        model = correlated_model(
            Dims(config.n_r, config.n_t, config.b), config.snr_db[0], config.betas, config.correlation, config.noise_var
        )
        want = es.prepare(model, "wpeach", config.degree).mse() / float(np.trace(model.r_cov).real)
        assert [r.nmse_analytic for r in rows if r.estimator == "wpeach"] == [want] * len(config.shrink_samples)


class TestFlopsScenario:
    @pytest.mark.parametrize("q", [50.0, 100.0])
    def test_each_row_counts_one_statistics_epoch(self, tmp_path, q):
        # one preparation and q realizations: the epoch form of perfbench's cost_model_flops
        config = default_config("flops", q_ratio=q, out=str(tmp_path / "flops.csv"))
        degrees = {"mmse": None, "mvu": None, "peach": config.degree, "wpeach": config.degree}
        for row in run_experiment(config):
            epoch = analysis.FlopModel(Dims(int(row.sweep_value), config.n_t, config.b), q, 1.0, q)
            assert row.flops == analysis.flops(row.estimator, epoch, degrees[row.estimator]), row

    def test_flop_rows(self, tmp_path):
        config = default_config("flops", n_r_values=(100, 200), out=str(tmp_path / "flops.csv"))
        rows = run_experiment(config)
        assert len(rows) == 8
        assert all(r.flops is not None and r.nmse_analytic is None for r in rows)
        by = {(r.estimator, r.sweep_value): r.flops for r in rows}
        # at n_t = b = 10 and q = 50, both dimensions are beyond the degree-2 thresholds
        assert by[("peach", 200.0)] < by[("mmse", 200.0)]
        assert by[("wpeach", 200.0)] < by[("mmse", 200.0)]


class TestMain:
    def test_cli_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(
            [
                "sweep-l",
                "--degrees",
                "0,2",
                "--no-montecarlo",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "wrote 10 rows" in capsys.readouterr().out

    def test_cli_reports_validation_error(self, tmp_path, capsys):
        code = main(["sweep-l", "--trials", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-l", "--snr-db", "nan"],
            ["sweep-l", "--betas", "inf,1"],
            ["flops", "--q", "nan"],
            ["flops", "--q", "inf"],
        ],
    )
    def test_cli_rejects_non_finite_values(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert main([*args, "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("zeros", [119, 400])
    def test_flop_count_beyond_the_float_range_exits_2(self, tmp_path, capsys, zeros):
        # 1e119 receive antennas overflowed m**3 with a bare OverflowError, 1e400 the float of the sweep value
        out = tmp_path / "x.csv"
        assert main(["flops", "--nr-values", "1" + "0" * zeros, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("out", ["", "."])
    def test_out_naming_a_directory_rejected_before_any_work(self, capsys, monkeypatch, out):
        # --out '' computed every table, then died with a bare IsADirectoryError and exit status 1
        monkeypatch.setattr(cli.analysis, "flops", lambda *args: pytest.fail("table computed for a directory out"))
        assert main(["flops", "--out", out]) == 2
        assert "out must name a file" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        parent = tmp_path / "file.txt"
        parent.write_text("a file, not a directory\n")
        assert main(["flops", "--nr-values", "50", "--out", str(parent / "flops.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_seed_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x.csv"
        monkeypatch.setattr(cli, "correlated_model", lambda *args: pytest.fail("model built for a bad seed"))
        assert main(["sweep-l", "--seed", "-1", "--n-r", "2", "--degrees", "0", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_receive_antenna_grid_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x.csv"
        monkeypatch.setattr(cli, "correlated_model", lambda *args: pytest.fail("model built for a bad grid"))
        assert main(["sweep-nr", "--nr-values", "40,0", "--no-montecarlo", "--out", str(out)]) == 2
        assert "n_r_values" in capsys.readouterr().err
        assert not out.exists()

    def test_one_trial_stderr_cells_are_empty(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["sweep-l", "--n-r", "2", "--degrees", "0,1", "--trials", "1", "--out", str(out)]) == 0
        records = read_rows(out)
        assert len(records) == 10
        assert all(r["nmse_monte_carlo"] and r["mc_stderr"] == "" for r in records)

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(out.with_suffix(".json").read_text(), parse_constant=reject)
        assert all(r["nmse_monte_carlo"] is not None and r["mc_stderr"] is None for r in payload)

    def test_cli_reads_config_file(self, tmp_path, capsys):
        out = tmp_path / "from_config.csv"
        assert main(["flops", "--config", write_config(tmp_path, dict(n_r_values=[100], out=str(out)))]) == 0
        assert "wrote 4 rows" in capsys.readouterr().out
        assert {row["sweep_value"] for row in read_rows(out)} == {"100"}

    def test_cli_flag_overrides_config(self, tmp_path):
        out_file = tmp_path / "a.csv"
        out_flag = tmp_path / "b.csv"
        path = write_config(tmp_path, dict(n_r_values=[100], degree=3, out=str(out_file)))
        assert main(["flops", "--config", path, "--out", str(out_flag), "--degree", "2"]) == 0
        assert out_flag.exists() and not out_file.exists()
        assert config_from(["flops", "--config", path, "--degree", "2"]).degree == 2

    @pytest.mark.parametrize(
        "flag, text", [("--seed", "abc"), ("--n-r", "2.5"), ("--seed", "1e3"), ("--degrees", "0:x"), ("--betas", "1,a")]
    )
    def test_unparsable_flag_is_named(self, tmp_path, capsys, flag, text):
        # the message used to be Python's own, without the flag: invalid literal for int() with base 10: 'abc'
        out = tmp_path / "x.csv"
        assert main(["sweep-l", flag, text, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad value for {flag}: {text!r}\n"
        assert not out.exists()

    def test_no_complex_values_in_csv(self, tmp_path):
        out = tmp_path / "plain.csv"
        main(["sweep-l", "--degrees", "0,4", "--no-montecarlo", "--out", str(out)])
        text = out.read_text()
        assert "j" not in text.replace("sweep-l", "")
        assert "(" not in text


# the flags each subcommand offers besides --config and --out: one per config
# field its scenario reads (b, correlation and noise_var have no flag)
SCENARIO_FLAGS = {
    "sweep-l": {"--seed", "--trials", "--no-montecarlo", "--n-r", "--n-t", "--snr-db", "--betas", "--degrees"},
    "sweep-snr": {"--seed", "--trials", "--no-montecarlo", "--n-r", "--n-t", "--snr-db", "--betas", "--degree"},
    "sweep-nr": {"--seed", "--trials", "--no-montecarlo", "--n-t", "--snr-db", "--betas", "--degree", "--nr-values"},
    "adaptive": {"--seed", "--n-r", "--n-t", "--snr-db", "--betas", "--degree", "--window"},
    "shrinkage": {"--seed", "--n-r", "--n-t", "--snr-db", "--betas", "--degree", "--samples"},
    "flops": {"--n-t", "--degree", "--nr-values", "--q"},
}
# each flag's argument (None for a switch), the field it sets and the value it sets it to
FLAG_FIELDS = {
    "--seed": ("7", "seed", 7),
    "--trials": ("3", "trials", 3),
    "--no-montecarlo": (None, "monte_carlo", False),
    "--n-r": ("3", "n_r", 3),
    "--n-t": ("3", "n_t", 3),
    "--snr-db": ("7", "snr_db", (7.0,)),
    "--betas": ("0.5", "betas", (0.5,)),
    "--degree": ("3", "degree", 3),
    "--degrees": ("1:2", "degrees", (1, 2)),
    "--nr-values": ("3,5", "n_r_values", (3, 5)),
    "--window": ("5", "window", 5),
    "--samples": ("4", "shrink_samples", (4,)),
    "--q": ("20", "q_ratio", 20.0),
}
# flag/scenario pairs that used to be accepted without changing the output
REMOVED_FLAGS = [
    ("flops", "--seed"),
    ("flops", "--trials"),
    ("flops", "--betas"),
    ("flops", "--snr-db"),
    ("flops", "--n-r"),
    ("flops", "--no-montecarlo"),
    ("flops", "--tau-s"),
    ("flops", "--t-tot"),
    ("sweep-l", "--degree"),
    ("sweep-nr", "--n-r"),
    ("adaptive", "--trials"),
    ("adaptive", "--no-montecarlo"),
    ("shrinkage", "--trials"),
    ("shrinkage", "--no-montecarlo"),
]


class TestScenarioTable:
    @pytest.mark.parametrize("scenario", SCENARIO_FLAGS)
    def test_help_lists_exactly_the_read_fields_flags(self, capsys, scenario):
        with pytest.raises(SystemExit) as exc:
            main([scenario, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert flags == SCENARIO_FLAGS[scenario] | {"--config", "--out"}

    @pytest.mark.parametrize("scenario", SCENARIO_FLAGS)
    def test_every_offered_flag_sets_its_field(self, scenario):
        args = [scenario]
        for flag in sorted(SCENARIO_FLAGS[scenario]):
            args += [flag] if FLAG_FIELDS[flag][0] is None else [flag, FLAG_FIELDS[flag][0]]
        config = config_from(args)
        for flag in SCENARIO_FLAGS[scenario]:
            _, key, value = FLAG_FIELDS[flag]
            assert getattr(config, key) == value, flag

    @pytest.mark.parametrize("scenario, flag", REMOVED_FLAGS, ids=[f"{s} {f}" for s, f in REMOVED_FLAGS])
    def test_flag_the_scenario_does_not_read_is_rejected(self, tmp_path, monkeypatch, scenario, flag):
        out = tmp_path / "x.csv"
        monkeypatch.setattr(cli, "correlated_model", lambda *args: pytest.fail("model built for a rejected flag"))
        argument = FLAG_FIELDS[flag][0] if flag in FLAG_FIELDS else "2"  # a flag that no subcommand offers
        with pytest.raises(SystemExit) as exc:
            main([scenario, flag, *([] if argument is None else [argument]), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_unoffered_flag_is_reported_by_the_subcommand(self, capsys):
        # the message names the subcommand and lists the flags it does take
        with pytest.raises(SystemExit) as exc:
            main(["flops", "--seed", "9"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: peachsim flops ")
        assert "--nr-values" in err
        assert err.rstrip().endswith("peachsim flops: error: unrecognized arguments: --seed 9")

    @pytest.mark.parametrize(
        "scenario, overrides, builds",
        [
            ("sweep-l", dict(degrees=(0, 1, 2)), 1),
            ("shrinkage", dict(shrink_samples=(4, 8)), 1),
            ("sweep-snr", dict(snr_db=(0.0, 10.0)), 2),
            ("sweep-nr", dict(n_r_values=(2, 3)), 2),
            ("adaptive", dict(snr_db=(0.0, 10.0), window=16), 2),
            ("flops", dict(n_r_values=(2, 3)), 0),
        ],
    )
    def test_one_model_per_receive_count_and_snr(self, tmp_path, monkeypatch, scenario, overrides, builds):
        calls = []
        build = cli.correlated_model
        monkeypatch.setattr(cli, "correlated_model", lambda *args: calls.append(args) or build(*args))
        out = str(tmp_path / "t.csv")
        run_experiment(default_config(scenario, n_r=2, n_t=2, degree=2, monte_carlo=False, out=out, **overrides))
        assert len(calls) == builds

    @pytest.mark.parametrize("scenario", ["sweep-l", "sweep-nr", "shrinkage"])
    def test_scenario_reading_one_snr_rejects_several(self, scenario):
        with pytest.raises(ConfigError, match="one pilot SNR"):
            default_config(scenario, snr_db=(0.0, 30.0))

    def test_cli_rejects_several_snrs_where_one_is_read(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep-l", "--snr-db", "0,30", "--out", str(out)]) == 2
        assert "one pilot SNR" in capsys.readouterr().err
        assert not out.exists()

    def test_flops_ignores_a_file_snr_list(self, tmp_path):
        # a field the scenario does not read is validated, not used: flops builds no model
        out = tmp_path / "flops.csv"
        assert main(["flops", "--config", write_config(tmp_path, dict(snr_db=[0, 30], n_r_values=[100], out=str(out)))]) == 0
        assert out.exists()


def test_cli_tables_byte_identical_in_fresh_processes(tmp_path):
    # the reproducibility contract at a fixed BLAS thread count: two fresh
    # interpreters running one contaminated Monte Carlo sweep write the same bytes
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)
    # the adaptive run checks the draws that feed the sliding-window tracker
    runs = {
        "snr": ["sweep-snr", "--snr-db", "0,20", "--betas", "0.1,0.1", "--trials", "300"],
        "adaptive": ["adaptive", "--snr-db", "0,10", "--window", "30"],
    }
    tables = []
    for run in range(2):
        tables.append({})
        for name, scenario_args in runs.items():
            out = tmp_path / f"run{run}" / f"{name}.csv"
            args = [*scenario_args, "--n-r", "4", "--n-t", "2", "--degree", "3", "--seed", "11", "--out", str(out)]
            done = subprocess.run([sys.executable, "-m", "peachsim", *args], env=env, check=True, capture_output=True)
            assert b"RuntimeWarning" not in done.stderr
            tables[run][name] = (out.read_bytes(), out.with_suffix(".json").read_bytes())
    assert tables[0] == tables[1]
    rows = [row for row in csv.DictReader(tables[0]["snr"][0].decode().splitlines()) if row["nmse_monte_carlo"]]
    assert len(rows) == 2 * 5
    rows = list(csv.DictReader(tables[0]["adaptive"][0].decode().splitlines()))
    assert [row["estimator"] for row in rows] == ["wpeach", "wpeach-adaptive"] * 2
