from collections import deque

import numpy as np
import pytest
from numpy.testing import assert_allclose

from peachsim import estimators as es
from peachsim.adaptive import (
    AdaptiveState,
    adaptive_init,
    adaptive_update,
    shrinkage_covariance,
    shrinkage_kappa,
)
from peachsim.errors import InsufficientSamples, WindowSizeError
from peachsim.model import (
    ContaminationSpec,
    Dims,
    SpatialCorrelation,
    correlated_model,
    psd_factor,
    standard_complex_normal,
    stat_model_from_pilot,
)

from conftest import complex_vector, random_hermitian_psd, random_model
from oracles import wpeach_weight_system


def tracking_model(gamma_db=-5.0, betas=(0.5, 0.5)):
    """m = 12 model with mild receive correlation; see the tracking tests."""
    base = SpatialCorrelation()
    corr = SpatialCorrelation(
        desired_rx=0.5 * np.exp(-1j * 0.9289 * np.pi),
        interferer_rx=tuple(0.5 * c / abs(c) for c in base.interferer_rx),
    )
    return correlated_model(Dims(6, 2, 2), gamma_db, betas, corr)


def draw_stream(model, rng, count):
    factor_r = psd_factor(model.r_cov)
    factor_s = psd_factor(model.s_cov)
    h = factor_r @ standard_complex_normal(rng, model.dims.n, count)
    noise = factor_s @ standard_complex_normal(rng, model.dims.m, count)
    return list((model.pilot_ext @ h + noise).T)


class TestAdaptiveInit:
    def test_constant_window_gives_exact_quadratic_forms(self, rng):
        model = tracking_model()
        degree, window = 3, 7
        y = complex_vector(rng, model.dims.m)
        alpha_w = es.default_alpha_w(model)
        state = adaptive_init(model, window, degree, alpha_w, [y] * window)
        pe = model.pilot_ext
        f_mat = pe @ model.r_cov @ model.r_cov @ pe.conj().T
        z = es.z_matrix(model)
        for i in range(1, degree + 2):
            for j in range(1, degree + 2):
                quad = (y.conj() @ f_mat @ np.linalg.matrix_power(z, i + j - 2) @ y).real
                assert_allclose(state.a_approx[i - 1, j - 1], alpha_w ** (i + j) * quad, rtol=1e-10)

    def test_single_sample_window(self, rng):
        model = tracking_model()
        y = complex_vector(rng, model.dims.m)
        state = adaptive_init(model, 1, 2, 0.1, [y])
        assert len(state.window) == 1

    def test_wrong_warmup_length(self, rng):
        model = tracking_model()
        with pytest.raises(WindowSizeError):
            adaptive_init(model, 5, 2, 0.1, [complex_vector(rng, model.dims.m)] * 4)

    def test_windowed_system_approaches_exact_system(self):
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        degree, window = 4, 200
        ws = wpeach_weight_system(model, degree, alpha_w)
        stream_rng = np.random.default_rng(2024)
        state = adaptive_init(model, window, degree, alpha_w, draw_stream(model, stream_rng, window))
        rel = np.linalg.norm(state.a_approx - ws.a_mat) / np.linalg.norm(ws.a_mat)
        assert rel < 0.15

    def test_exact_first_entry_for_identity_pilot(self):
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        ws = wpeach_weight_system(model, 3, alpha_w)
        state = adaptive_init(model, 4, 3, alpha_w, draw_stream(model, np.random.default_rng(0), 4))
        assert_allclose(state.b_approx[0], ws.b_vec[0], rtol=1e-12)

    def test_exact_first_entry_for_general_pilot(self, rng):
        dims = Dims(3, 2, 2)
        pilot = complex_vector(rng, 4).reshape(2, 2)
        model = stat_model_from_pilot(dims, None, random_hermitian_psd(rng, dims.n), None,
                                      ContaminationSpec(), pilot)
        pe = model.pilot_ext
        exact = float(np.trace(pe @ model.r_cov @ model.r_cov @ pe.conj().T).real)
        state = adaptive_init(model, 1, 2, 0.3, [complex_vector(rng, dims.m)])
        assert_allclose(state.b_approx[0], 0.3 * exact, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_windowed_system_of_nonzero_mean_model(self, seed):
        # the quadratic forms read the mean-removed observation, whose outer
        # product has mean z; raw observations would add the mean's outer product
        model = random_model(np.random.default_rng(seed))
        assert np.linalg.norm(model.y_mean()) > 0
        alpha_w = es.default_alpha_w(model)
        degree, window = 2, 500
        ws = wpeach_weight_system(model, degree, alpha_w)
        warmup = list(model.draw(np.random.default_rng(100 + seed), window)[1].T)
        state = adaptive_init(model, window, degree, alpha_w, warmup)
        assert np.linalg.norm(state.a_approx - ws.a_mat) / np.linalg.norm(ws.a_mat) < 0.1


class TestAdaptiveUpdate:
    def test_same_sample_in_and_out_is_a_no_op(self, rng):
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        warmup = draw_stream(model, np.random.default_rng(3), 6)
        state = adaptive_init(model, 6, 3, alpha_w, warmup)
        before_a = state.a_approx.copy()
        before_w = state.weights.copy()
        weights = adaptive_update(state, warmup[0])
        assert_allclose(state.a_approx, before_a, rtol=0, atol=1e-18)
        assert_allclose(weights, before_w, rtol=1e-12)

    def test_full_window_replacement_telescopes(self):
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        degree, window = 3, 40
        gen = np.random.default_rng(12)
        first = draw_stream(model, gen, window)
        second = draw_stream(model, gen, window)
        state = adaptive_init(model, window, degree, alpha_w, first)
        for y in second:
            adaptive_update(state, y)
        fresh = adaptive_init(model, window, degree, alpha_w, second)
        assert np.linalg.norm(state.a_approx - fresh.a_approx) < 1e-12 * np.linalg.norm(fresh.a_approx)
        assert np.linalg.norm(state.b_approx - fresh.b_approx) < 1e-12 * np.linalg.norm(fresh.b_approx)

    def test_averages_match_a_fresh_init_over_the_current_window(self):
        # after any number of updates (the window mixes warmup and new samples
        # for the first window_len - 1), the windowed system equals a fresh
        # fill of the current window
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        degree, window = 3, 8
        gen = np.random.default_rng(21)
        seen = draw_stream(model, gen, window)
        state = adaptive_init(model, window, degree, alpha_w, seen)
        for k in range(1, 2 * window + 2):
            seen.append(draw_stream(model, gen, 1)[0])
            adaptive_update(state, seen[-1])
            if k in (1, 3, window - 1, window + 3, 2 * window + 1):
                current = seen[-window:]
                fresh = adaptive_init(model, window, degree, alpha_w, current)
                for got, want in ((state.a_approx, fresh.a_approx), (state.b_approx, fresh.b_approx)):
                    assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)

    def test_no_drift_over_long_streams(self):
        # the system is formed from the window record alone, so after any
        # number of updates it equals a fresh fill of the same window bit for bit
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        degree, window = 3, 8
        stream = draw_stream(model, np.random.default_rng(31), window + 2000)
        state = adaptive_init(model, window, degree, alpha_w, stream[:window])
        for y in stream[window:]:
            adaptive_update(state, y)
        fresh = adaptive_init(model, window, degree, alpha_w, stream[-window:])
        assert np.array_equal(state.a_approx, fresh.a_approx)
        assert np.array_equal(state.b_approx, fresh.b_approx)

    def test_tracked_weights_stay_near_optimal(self):
        # stationary stream: windowed weights within 5% of the exact optimum
        model = tracking_model()
        degree, window = 4, 100
        alpha_w = es.default_alpha_w(model)
        mse_opt = es.wpeach_mse_optimal(model, degree)
        ratios = []
        for seed in range(3):
            gen = np.random.default_rng(seed)
            state = adaptive_init(model, window, degree, alpha_w, draw_stream(model, gen, window))
            weights = state.weights
            for y in draw_stream(model, gen, window):
                weights = adaptive_update(state, y)
            ratios.append(es.wpeach_mse_general(model, degree, alpha_w, weights) / mse_opt)
        assert max(ratios) < 1.05

    def test_mediansconverge_with_window_length(self):
        model = tracking_model()
        degree = 4
        alpha_w = es.default_alpha_w(model)
        ws = wpeach_weight_system(model, degree, alpha_w)
        medians = []
        for window in (25, 100, 400):
            errors = []
            for seed in range(9):
                gen = np.random.default_rng(1000 * window + seed)
                state = adaptive_init(model, window, degree, alpha_w, draw_stream(model, gen, window))
                errors.append(np.linalg.norm(state.a_approx - ws.a_mat) / np.linalg.norm(ws.a_mat))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]

    def test_fallback_keeps_previous_weights(self):
        model = tracking_model()
        state = AdaptiveState(
            model=model,
            degree=1,
            alpha_w=0.1,
            b1=1.0,
            window=deque([np.zeros(3)] * 2, maxlen=2),
            weights=np.array([1.0, 2.0], dtype=complex),
        )
        weights = adaptive_update(state, np.zeros(model.dims.m, dtype=complex))
        assert state.fallback
        assert_allclose(weights, [1.0, 2.0])


class TestShrinkageKappa:
    def test_symmetric_case(self):
        assert shrinkage_kappa(1.0, 1.0, 0.0) == pytest.approx(0.5)

    def test_exact_diagonal_truth(self):
        # diagonal estimate already exact: fully trust it
        assert shrinkage_kappa(1.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_degenerate_denominator_trusts_sample(self):
        assert shrinkage_kappa(1.0, 1.0, 1.0, scale=1.0) == 0.0

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= shrinkage_kappa(5.0, 0.1, 2.0) <= 1.0


class TestShrinkageCovariance:
    def draw(self, rng, c_true, count):
        factor = np.linalg.cholesky(c_true)
        return (factor @ standard_complex_normal(rng, c_true.shape[0], count)).T

    def test_oracle_kappa_minimizes_quadratic_on_grid(self, rng):
        for trial in range(10):
            dim = int(rng.integers(3, 9))
            c_true = random_hermitian_psd(rng, dim, eig_lo=0.2, eig_hi=3.0)
            for count in (16, 64, 256):
                samples = self.draw(rng, c_true, count)
                est = shrinkage_covariance(samples, mode="oracle", c_true=c_true)
                c_sample = samples.T @ samples.conj() / count
                c_diag = np.diag(np.diag(c_sample))
                achieved = np.linalg.norm(est.c_hat - c_true) ** 2
                for kappa in np.linspace(0.0, 1.0, 101):
                    candidate = kappa * c_diag + (1 - kappa) * c_sample
                    assert achieved <= np.linalg.norm(candidate - c_true) ** 2 + 1e-12

    def test_plugin_kappa_shrinks_with_more_samples(self, rng):
        c_true = random_hermitian_psd(rng, 6, eig_lo=0.2, eig_hi=3.0)
        medians = []
        for count in (8, 32, 128):
            kappas = [
                shrinkage_covariance(self.draw(rng, c_true, count)).kappa for _ in range(50)
            ]
            medians.append(np.median(kappas))
        assert medians[0] >= medians[1] >= medians[2]

    def test_estimate_is_hermitian_psd(self, rng):
        c_true = random_hermitian_psd(rng, 5, eig_lo=0.1, eig_hi=2.0)
        est = shrinkage_covariance(self.draw(rng, c_true, 12))
        assert np.linalg.norm(est.c_hat - est.c_hat.conj().T) < 1e-12
        assert np.linalg.eigvalsh(est.c_hat)[0] > -1e-12
        assert 0.0 <= est.kappa <= 1.0

    def test_requires_two_samples(self, rng):
        with pytest.raises(InsufficientSamples):
            shrinkage_covariance(complex_vector(rng, 4).reshape(1, 4))
        with pytest.raises(InsufficientSamples):
            shrinkage_covariance(complex_vector(rng, 4))

    def test_oracle_requires_truth(self, rng):
        samples = self.draw(rng, np.eye(3), 5)
        with pytest.raises(ValueError):
            shrinkage_covariance(samples, mode="oracle")
        with pytest.raises(ValueError):
            shrinkage_covariance(samples, mode="bogus")
