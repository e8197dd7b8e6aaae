"""Acceptance criteria, one test per criterion with a printed pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time
from contextlib import contextmanager

import numpy as np

from peachsim import analysis
from peachsim import estimators as es
from peachsim.adaptive import adaptive_init, adaptive_update, shrinkage_covariance
from peachsim.cli import run_monte_carlo
from peachsim.model import (
    Dims,
    SpatialCorrelation,
    correlated_model,
    psd_factor,
    standard_complex_normal,
)

from conftest import complex_vector, random_hermitian_psd, random_model
from oracles import (
    contaminated_floors,
    correlated_contamination,
    noise_limited_floors,
    peach_as_wpeach_weights,
    summed_covariance,
    wpeach_weight_system,
    wpeach_weights_optimal,
)

DESK_DIMS = Dims(20, 4, 4)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {description}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {description}: PASS")


def mild_receive_correlation(magnitude=0.5):
    base = SpatialCorrelation()
    return SpatialCorrelation(
        desired_rx=magnitude * np.exp(-1j * 0.9289 * np.pi),
        interferer_rx=tuple(magnitude * c / abs(c) for c in base.interferer_rx),
    )


def test_criterion_01_polynomial_estimator_matches_mmse():
    with criterion(1, "high-degree expansion reproduces the exact estimator"):
        rng = np.random.default_rng(11)
        shapes = [(4, 2), (3, 3), (4, 3), (2, 4), (6, 2), (8, 2), (5, 3), (16, 1)]
        start = time.time()
        worst = 0.0
        for trial in range(50):
            n_r, n_t = shapes[trial % len(shapes)]
            model = random_model(rng, n_r=n_r, n_t=n_t, pt_lo=0.5, pt_hi=2.0)
            assert model.dims.m <= 16
            est = es.make_peach(model, 64)
            y = model.y_mean() + complex_vector(rng, model.dims.m)
            approx = es.peach_estimate(model, est, y)
            exact = es.mmse_estimate(model, y)
            worst = max(worst, np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        elapsed = time.time() - start
        assert worst < 1e-6, f"worst relative deviation {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_optimal_weights_dominate_and_match_closed_form():
    with criterion(2, "optimal weights beat random probes and match the closed form"):
        rng = np.random.default_rng(23)
        shapes = [(4, 2), (3, 3), (4, 3), (6, 2), (3, 4)]
        for trial in range(25):
            n_r, n_t = shapes[trial % len(shapes)]
            model = random_model(rng, n_r=n_r, n_t=n_t, pt_lo=5.0, pt_hi=20.0, eig_lo=0.1)
            assert model.dims.m <= 12
            alpha_w = es.default_alpha_w(model)
            # largest degree <= 6 whose system solves without regularization
            for degree in range(min(6, model.dims.m - 1), -1, -1):
                ws = wpeach_weight_system(model, degree, alpha_w)
                if np.linalg.cond(ws.a_mat) < 1e10:
                    break
            w_opt = wpeach_weights_optimal(ws)
            tr_r = float(np.trace(model.r_cov).real)
            best = es.wpeach_mse_general(model, degree, alpha_w, w_opt)
            closed = tr_r - float(np.real(ws.b_vec.conj() @ w_opt))
            assert abs(best - closed) < 1e-10 * max(tr_r, 1.0)
            scale = max(np.linalg.norm(w_opt), 1.0)
            for _ in range(200):
                probe = w_opt + 10.0 ** rng.uniform(-2, 1) * scale * (
                    rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
                )
                assert es.wpeach_mse_general(model, degree, alpha_w, probe) >= best


def test_criterion_03_binomial_weights_reproduce_unweighted_estimator():
    with criterion(3, "binomial weights turn the weighted estimator into the unweighted one"):
        rng = np.random.default_rng(37)
        for trial in range(10):
            model = random_model(rng, n_r=3, n_t=2)
            y = model.y_mean() + complex_vector(rng, model.dims.m)
            for degree in range(7):
                pest = es.make_peach(model, degree)
                west = es.PolyEstimator(
                    es.EstimatorKind.WPEACH, degree, pest.alpha, peach_as_wpeach_weights(degree)
                )
                a = es.peach_estimate(model, pest, y)
                b = es.wpeach_estimate(model, west, y)
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


def test_criterion_04_monte_carlo_confirms_closed_forms():
    with criterion(4, "empirical MSEs match the closed forms within three standard errors"):
        start = time.time()
        model = correlated_model(DESK_DIMS, 5.0, (1.0, 1.0))
        degree = 4
        for index, name in enumerate(es.NAMES):
            prepared = es.prepare(model, name, degree)
            closed_form = prepared.mse()
            mse_hat, stderr = run_monte_carlo(model, {name: prepared.apply}, 20_000, (1404, index))[name]
            assert abs(mse_hat - closed_form) < 3 * stderr, (
                f"{name}: {mse_hat:.6g} vs {closed_form:.6g} (se {stderr:.2g})"
            )
        elapsed = time.time() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_05_high_power_floors():
    with criterion(5, "closed-form MSEs reach the high-power floors"):
        degree = 10
        gamma_db = 60.0  # pilot power 1e6 times the unit noise variance
        noise_limited = correlated_model(DESK_DIMS, gamma_db, ())
        alpha = es.alpha_optimal(es.z_matrix(noise_limited))
        floors = noise_limited_floors(noise_limited.r_cov, degree)
        peach_now = es.peach_mse(noise_limited, degree, alpha)
        wpeach_now = es.wpeach_mse_optimal(noise_limited, degree)
        assert abs(peach_now - floors.peach) < 0.01 * floors.peach
        assert abs(wpeach_now - floors.wpeach) < 0.01 * floors.wpeach
        # the diagonalized estimator has no floor without interference
        diag_nmse = es.diag_mse(noise_limited) / float(np.trace(noise_limited.r_cov).real)
        assert diag_nmse < 1e-5

        betas = (0.1, 0.1)
        contaminated = correlated_model(DESK_DIMS, gamma_db, betas)
        alpha_c = es.alpha_optimal(es.z_matrix(contaminated))
        sum_interf = summed_covariance(correlated_contamination(contaminated.dims, betas))
        cf = contaminated_floors(contaminated.r_cov, sum_interf, degree)
        assert abs(es.mmse_mse(contaminated) - cf.mmse) < 0.01 * cf.mmse
        assert abs(es.diag_mse(contaminated) - cf.diagonalized) < 0.01 * cf.diagonalized
        assert abs(es.peach_mse(contaminated, degree, alpha_c) - cf.peach) < 0.01 * cf.peach
        assert abs(es.wpeach_mse_optimal(contaminated, degree) - cf.wpeach) < 0.01 * cf.wpeach


def test_criterion_06_flop_anchors():
    with criterion(6, "FLOP crossovers and the square-dimension table"):
        assert abs(analysis.crossover_m("peach", 50.0, 2) - 167) <= 2
        assert abs(analysis.crossover_m("wpeach", 50.0, 2) - 357) <= 2

        def table(kind, m, k_c, k_s, degree):
            if kind == "mmse":
                return k_c * (2 * m**2 - m) + k_s * (16 / 3 * m**3 + 1.5 * m**2 - 1.5 * m)
            if kind == "mvu":
                return k_c * (2 * m**2 - m) + k_s * (17 / 3 * m**3 + 0.5 * m**2 - 0.5 * m)
            if kind == "peach":
                return k_c * ((8 * degree + 4) * m**2 - (4 * degree + 2) * m) + k_s * (2 * m**2 - m)
            return k_c * (
                (16 * degree + 8) * m**2
                - (4 * degree + 2) * m
                + degree**3 / 3
                + 3 * degree**2
                + 3 * degree
                + 4 / 3
            ) + k_s * (2 * m**2 - m)

        rng = np.random.default_rng(66)
        for _ in range(20):
            m = int(rng.integers(2, 500))
            degree = int(rng.integers(0, 12))
            q = float(rng.uniform(1.0, 150.0))
            tau_s = float(rng.uniform(0.5, 10.0))
            fm = analysis.FlopModel(dims=Dims(m, 1, 1), tau_s=tau_s, tau_c=tau_s / q, t_tot=5.0)
            for kind in ("mmse", "mvu", "peach", "wpeach"):
                deg = degree if kind in ("peach", "wpeach") else None
                general = analysis.flops(kind, fm, deg)
                expected = table(kind, m, fm.k_c, fm.k_s, degree)
                assert abs(general - expected) <= 1e-9 * expected


def test_criterion_07_dimension_insensitivity():
    with criterion(7, "normalized MSE insensitive to the receive-antenna count"):
        corr = mild_receive_correlation(0.5)
        degree = 4
        for name in ("peach", "wpeach"):
            values = []
            for n_r in (10, 20, 40, 80):
                model = correlated_model(Dims(n_r, 4, 4), 5.0, (1.0, 1.0), corr)
                trace_r = float(np.trace(model.r_cov).real)
                if name == "peach":
                    alpha = es.alpha_optimal(es.z_matrix(model))
                    values.append(es.peach_mse(model, degree, alpha) / trace_r)
                else:
                    values.append(es.wpeach_mse_optimal(model, degree) / trace_r)
            spread = max(values) / min(values) - 1.0
            assert spread < 0.05, f"{name}: spread {spread:.2%} over {values}"


def test_criterion_08_windowed_weights_track_the_optimum():
    with criterion(8, "sliding-window weights reach near-optimal MSE"):
        corr = mild_receive_correlation(0.5)
        model = correlated_model(Dims(6, 2, 2), -5.0, (0.5, 0.5), corr)
        assert model.dims.m == 12
        degree, window = 4, 100
        alpha_w = es.default_alpha_w(model)
        mse_opt = es.wpeach_mse_optimal(model, degree)
        factor_r = psd_factor(model.r_cov)
        factor_s = psd_factor(model.s_cov)
        for seed in range(3):
            gen = np.random.default_rng(seed)

            def draw(count):
                h = factor_r @ standard_complex_normal(gen, model.dims.n, count)
                noise = factor_s @ standard_complex_normal(gen, model.dims.m, count)
                return list((model.pilot_ext @ h + noise).T)

            state = adaptive_init(model, degree, alpha_w, draw(window))
            weights = state.weights
            for y_new in draw(window):
                weights = adaptive_update(state, y_new)
            achieved = es.wpeach_mse_general(model, degree, alpha_w, weights)
            assert achieved <= 1.05 * mse_opt, f"seed {seed}: ratio {achieved / mse_opt:.4f}"


def test_criterion_09_shrinkage_optimality_and_robustness():
    with criterion(9, "shrinkage weight is grid-optimal and keeps the estimator usable"):
        rng = np.random.default_rng(91)
        for trial in range(5):
            dim = int(rng.integers(4, 9))
            c_true = random_hermitian_psd(rng, dim, eig_lo=0.2, eig_hi=3.0)
            factor = np.linalg.cholesky(c_true)
            for count in (16, 64, 256):
                samples = (factor @ standard_complex_normal(rng, dim, count)).T
                est = shrinkage_covariance(samples, c_true=c_true)
                c_sample = samples.T @ samples.conj() / count
                c_diag = np.diag(np.diag(c_sample))
                achieved = np.linalg.norm(est.c_hat - c_true) ** 2
                for kappa in np.linspace(0.0, 1.0, 101):
                    other = np.linalg.norm(kappa * c_diag + (1 - kappa) * c_sample - c_true) ** 2
                    assert achieved <= other + 1e-12

        # plugin-mode covariance keeps the weighted estimator within 20% of the
        # true-statistics optimum with as few samples as the channel dimension
        from peachsim.model import StatModel

        model = correlated_model(DESK_DIMS, 5.0, ())
        degree = 8
        mse_true = es.wpeach_mse_optimal(model, degree)
        factor_r = psd_factor(model.r_cov)
        for seed in range(5):
            gen = np.random.default_rng(900 + seed)
            samples = (factor_r @ standard_complex_normal(gen, model.dims.n, model.dims.n)).T
            shrunk = shrinkage_covariance(samples)
            model_est = StatModel(
                dims=model.dims,
                h_mean=model.h_mean,
                r_cov=shrunk.c_hat,
                n_mean=model.n_mean,
                s_cov=model.s_cov,
                pilot=model.pilot,
            )
            west = es.make_wpeach(model_est, degree)
            filt = es.poly_filter_matrix(model_est, west)
            mse_est = es.linear_filter_mse(model, filt)
            assert mse_est <= 1.20 * mse_true, f"seed {seed}: ratio {mse_est / mse_true:.4f}"


def test_criterion_10_mse_orderings():
    with criterion(10, "exact / weighted / unweighted / unbiased MSE ordering"):
        rng = np.random.default_rng(101)
        models = [random_model(rng, n_r=3, n_t=2) for _ in range(10)]
        models.append(correlated_model(DESK_DIMS, 5.0, (1.0, 1.0)))
        for model in models:
            degree = int(rng.integers(0, 7))
            alpha = es.alpha_optimal(es.z_matrix(model))
            mmse = es.mmse_mse(model)
            wpeach = es.wpeach_mse_optimal(model, degree)
            peach = es.peach_mse(model, degree, alpha)
            tol = 1e-9 * max(float(np.trace(model.r_cov).real), 1.0)
            assert mmse <= wpeach + tol
            assert wpeach <= peach + tol
            assert mmse < es.mvu_variance(model)
