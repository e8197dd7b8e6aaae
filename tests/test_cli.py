import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import peachsim.cli as cli
from peachsim import estimators as es
from peachsim.cli import (
    CSV_COLUMNS,
    default_config,
    load_config_file,
    main,
    run_experiment,
    run_monte_carlo,
)
from peachsim.errors import ConfigError, ShapeError
from peachsim.model import ContaminationSpec, Dims, SpatialCorrelation, build_stat_model, correlated_model

from conftest import count_calls, random_model


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


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
            dict(tau_s=float("inf")),
            dict(t_tot=float("inf")),
            dict(seed=-1),
        ],
    )
    def test_validation_failures(self, overrides):
        with pytest.raises(ConfigError):
            default_config("sweep-l", **overrides)

    def test_pilot_length_follows_n_t_except_for_flops(self):
        assert default_config("sweep-l", n_t=3).b == 3
        assert default_config("sweep-l", n_t=3, b=5).b == 5
        assert default_config("flops", n_t=3).b == 10

    def test_correlation_magnitude_guard(self):
        bad = SpatialCorrelation(desired_rx=1.01)
        with pytest.raises(ConfigError):
            default_config("sweep-l", correlation=bad)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "experiment.ini"
        path.write_text(
            "[common]\nseed = 99\ntrials = 50\n\n"
            "[sweep-l]\ndegrees = 0:4\nsnr_db = 5\nbetas = 1, 1\nout = here.csv\n"
        )
        overrides = load_config_file(str(path), "sweep-l")
        assert overrides["seed"] == 99
        assert overrides["degrees"] == (0, 1, 2, 3, 4)
        assert overrides["betas"] == (1.0, 1.0)
        assert overrides["out"] == "here.csv"

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sweep-l]\nwindowing = 3\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path), "sweep-l")

    @pytest.mark.parametrize("line", ["correlation = 0.5", "scenario = flops"])
    def test_config_file_rejects_fields_without_plain_default(self, tmp_path, line):
        path = tmp_path / "bad.ini"
        path.write_text(f"[sweep-l]\n{line}\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(str(path), "sweep-l")

    def test_config_file_values_parsed_by_field_type(self, tmp_path):
        path = tmp_path / "types.ini"
        path.write_text(
            "[shrinkage]\nmonte_carlo = off\nshrink_samples = 4:6\nnoise_var = 2\nwindow = 7\nsnr_db = 1, 2.5\n"
        )
        overrides = load_config_file(str(path), "shrinkage")
        assert overrides == dict(
            monte_carlo=False, shrink_samples=(4, 5, 6), noise_var=2.0, window=7, snr_db=(1.0, 2.5)
        )
        assert type(overrides["noise_var"]) is float and type(overrides["window"]) is int

    def test_config_file_n_t_sets_pilot_length(self, tmp_path, capsys):
        out = tmp_path / "n_t.csv"
        ini = tmp_path / "n_t.ini"
        ini.write_text(f"[sweep-l]\nn_t = 3\ndegrees = 0\nout = {out}\n")
        assert main(["sweep-l", "--config", str(ini), "--no-montecarlo"]) == 0
        assert "wrote 5 rows" in capsys.readouterr().out


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
        mse_hat, stderr = run_monte_carlo(model, {"mmse": es.mmse_estimate}, 20_000, 2024)["mmse"]
        assert abs(mse_hat - es.mmse_mse(model)) < 3 * stderr

    def test_zero_channel_covariance_gives_zero_error(self):
        dims = Dims(2, 1, 1)
        model = build_stat_model(dims, None, np.zeros((dims.n, dims.n)), None, ContaminationSpec(), 1.0)
        mse_hat, _ = run_monte_carlo(model, {"mmse": es.mmse_estimate}, 500, 1)["mmse"]
        assert mse_hat == 0.0

    def test_binomial_weights_give_identical_trials(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        degree = 3
        pest = es.make_peach(model, degree)
        west = es.PolyEstimator(
            es.EstimatorKind.WPEACH, degree, pest.alpha, es.peach_as_wpeach_weights(degree)
        )
        mse_a, se_a = run_monte_carlo(
            model, {"peach": lambda m, y: es.peach_estimate(m, pest, y)}, 2_000, 7
        )["peach"]
        mse_b, se_b = run_monte_carlo(
            model, {"wpeach": lambda m, y: es.wpeach_estimate(m, west, y)}, 2_000, 7
        )["wpeach"]
        assert mse_a == pytest.approx(mse_b, rel=1e-12)
        assert se_a == pytest.approx(se_b, rel=1e-10)

    def test_shared_draws_match_one_entry_calls(self, rng):
        # 1100 trials: two full chunks and a partial one
        model = random_model(rng, n_r=3, n_t=2)
        pest = es.make_peach(model, 3)
        scored = {"mmse": es.mmse_estimate, "peach": lambda m, y: es.peach_estimate(m, pest, y)}
        together = run_monte_carlo(model, scored, 1_100, 11)
        assert list(together) == ["mmse", "peach"]
        for name, estimator in scored.items():
            assert together[name] == run_monte_carlo(model, {name: estimator}, 1_100, 11)[name]

    def test_deterministic_under_fixed_seed(self, rng):
        model = random_model(rng)
        a = run_monte_carlo(model, {"mmse": es.mmse_estimate}, 300, 5)
        b = run_monte_carlo(model, {"mmse": es.mmse_estimate}, 300, 5)
        assert a == b

    def test_estimator_shape_checked(self, rng):
        model = random_model(rng)
        with pytest.raises(ShapeError):
            run_monte_carlo(model, {"bad": lambda m, y: y[:-1]}, 10, 0)

    def test_rejects_zero_trials(self, rng):
        with pytest.raises(ValueError):
            run_monte_carlo(random_model(rng), {"mmse": es.mmse_estimate}, 0, 0)


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
    # a contaminated build validates r_cov, s_cov and both interferer
    # covariances by one Cholesky each; the Monte Carlo points of every degree
    # then draw from the model's two cached sampling factors
    counts = {}
    count_calls(monkeypatch, np.linalg, ("cholesky",), counts)
    config = default_config(
        "sweep-l", n_r=4, degrees=(0, 1, 2), trials=16, betas=(0.1, 0.1), out=str(tmp_path / "l.csv")
    )
    run_experiment(config)
    assert counts["cholesky"] == 4 + 2


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


class TestFlopsScenario:
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
            ["flops", "--t-tot", "inf"],
        ],
    )
    def test_cli_rejects_non_finite_values(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert main([*args, "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x.csv"
        monkeypatch.setattr(cli, "correlated_model", lambda *args: pytest.fail("model built for a bad seed"))
        assert main(["sweep-l", "--seed", "-1", "--n-r", "2", "--degrees", "0", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
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
        ini = tmp_path / "run.ini"
        ini.write_text(f"[flops]\nn_r_values = 100\nout = {out}\n")
        assert main(["flops", "--config", str(ini)]) == 0
        assert out.exists()

    def test_cli_flag_overrides_config(self, tmp_path):
        out_ini = tmp_path / "a.csv"
        out_flag = tmp_path / "b.csv"
        ini = tmp_path / "run.ini"
        ini.write_text(f"[flops]\nn_r_values = 100\nout = {out_ini}\n")
        assert main(["flops", "--config", str(ini), "--out", str(out_flag)]) == 0
        assert out_flag.exists() and not out_ini.exists()

    def test_no_complex_values_in_csv(self, tmp_path):
        out = tmp_path / "plain.csv"
        main(["sweep-l", "--degrees", "0,4", "--no-montecarlo", "--out", str(out)])
        text = out.read_text()
        assert "j" not in text.replace("sweep-l", "")
        assert "(" not in text


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
