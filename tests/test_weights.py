import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from peachsim import estimators as es
from peachsim.cli import run_monte_carlo
from peachsim.errors import IllConditionedWeights
from peachsim.model import Dims, identity_pilot, stat_model_from_pilot

from conftest import random_model, random_observation
from oracles import (
    WEIGHT_COND_LIMIT,
    IllConditionedWeightsWarning,
    WeightSystem,
    guarded_hermitian_solve,
    peach_as_wpeach_weights,
    wpeach_weight_system,
    wpeach_weights_optimal,
)


def scalar_model(r=0.8, sigma_sq=0.5, pilot_power=2.0):
    dims = Dims(1, 1, 1)
    return stat_model_from_pilot(
        dims, None, np.array([[r]], dtype=complex), None, identity_pilot(dims, pilot_power), noise_var=sigma_sq
    )


def capped_degree_system(model, max_degree, alpha_w, cond_limit=1e10):
    """Largest degree <= max_degree whose weight system is comfortably solvable."""
    for degree in range(max_degree, -1, -1):
        ws = wpeach_weight_system(model, degree, alpha_w)
        if np.linalg.cond(ws.a_mat) < cond_limit:
            return degree, ws
    raise AssertionError("even the degree-0 system is ill conditioned")


class TestWeightSystem:
    def test_degree_zero_entries(self, rng):
        model = random_model(rng)
        alpha_w = 0.37
        ws = wpeach_weight_system(model, 0, alpha_w)
        pe = model.pilot_ext
        z = es.z_matrix(model)
        b_mat = pe @ model.r_cov
        a11 = alpha_w**2 * np.trace(model.r_cov @ pe.conj().T @ z @ b_mat)
        b1 = alpha_w * np.trace(model.r_cov @ pe.conj().T @ b_mat)
        assert_allclose(ws.a_mat[0, 0], a11, rtol=1e-12)
        assert_allclose(ws.b_vec[0], b1, rtol=1e-12)

    def test_scalar_ratio(self):
        r, sigma_sq, pt = 0.8, 0.5, 2.0
        model = scalar_model(r, sigma_sq, pt)
        alpha_w = 0.21
        ws = wpeach_weight_system(model, 0, alpha_w)
        z = pt * r + sigma_sq
        assert_allclose(ws.b_vec[0] / ws.a_mat[0, 0], 1.0 / (alpha_w * z), rtol=1e-12)

    def test_entries_match_term_by_term_traces(self, rng):
        model = random_model(rng, n_r=4, n_t=2)  # m = 8
        degree, alpha_w = 3, 0.11
        ws = wpeach_weight_system(model, degree, alpha_w)
        z = es.z_matrix(model)
        pe = model.pilot_ext
        r = model.r_cov
        for i in range(1, degree + 2):
            expected_b = alpha_w**i * np.trace(
                r @ pe.conj().T @ np.linalg.matrix_power(z, i - 1) @ pe @ r
            )
            assert_allclose(ws.b_vec[i - 1], expected_b, rtol=1e-10)
            for j in range(1, degree + 2):
                expected_a = alpha_w ** (i + j) * np.trace(
                    r @ pe.conj().T @ np.linalg.matrix_power(z, i + j - 1) @ pe @ r
                )
                assert_allclose(ws.a_mat[i - 1, j - 1], expected_a, rtol=1e-10)

    def test_hermitian_with_nonnegative_diagonal(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        ws = wpeach_weight_system(model, 4, es.default_alpha_w(model))
        assert np.linalg.norm(ws.a_mat - ws.a_mat.conj().T) < 1e-10 * np.linalg.norm(ws.a_mat)
        assert np.all(np.diag(ws.a_mat).real >= 0)


class TestOptimalWeights:
    def test_scalar_degree_zero_reduces_to_mmse(self):
        r, sigma_sq, pt = 0.8, 0.5, 2.0
        model = scalar_model(r, sigma_sq, pt)
        alpha_w = es.default_alpha_w(model)
        weights = wpeach_weights_optimal(wpeach_weight_system(model, 0, alpha_w))
        assert_allclose(weights[0] * alpha_w, 1.0 / (pt * r + sigma_sq), rtol=1e-12)
        y = np.array([0.7 - 1.1j])
        west = es.PolyEstimator(es.EstimatorKind.WPEACH, 0, alpha_w, weights)
        assert_allclose(es.wpeach_estimate(model, west, y), es.mmse_estimate(model, y), rtol=1e-12)

    def test_minimum_value_identity(self, rng):
        for _ in range(5):
            model = random_model(rng, n_r=4, n_t=2, pt_lo=5.0, pt_hi=20.0, eig_lo=0.1)
            alpha_w = es.default_alpha_w(model)
            degree, ws = capped_degree_system(model, 6, alpha_w)
            w_opt = wpeach_weights_optimal(ws)
            tr_r = float(np.trace(model.r_cov).real)
            closed = tr_r - float(np.real(ws.b_vec.conj() @ w_opt))
            general = es.wpeach_mse_general(model, degree, alpha_w, w_opt)
            assert abs(general - closed) < 1e-10 * max(tr_r, 1.0)

    def test_beats_random_probes(self, rng):
        model = random_model(rng, n_r=4, n_t=2, pt_lo=5.0, pt_hi=20.0, eig_lo=0.1)
        alpha_w = es.default_alpha_w(model)
        degree, ws = capped_degree_system(model, 6, alpha_w)
        w_opt = wpeach_weights_optimal(ws)
        best = es.wpeach_mse_general(model, degree, alpha_w, w_opt)
        scale = max(np.linalg.norm(w_opt), 1.0)
        for _ in range(200):
            probe = w_opt + 10.0 ** rng.uniform(-2, 1) * scale * (
                rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            )
            assert es.wpeach_mse_general(model, degree, alpha_w, probe) >= best

    def test_near_real_weights_on_hermitian_system(self, rng):
        model = random_model(rng, n_r=4, n_t=2, pt_lo=5.0, pt_hi=20.0, eig_lo=0.1)
        alpha_w = es.default_alpha_w(model)
        degree, ws = capped_degree_system(model, 6, alpha_w)
        weights = wpeach_weights_optimal(ws)
        assert np.max(np.abs(weights.imag)) < 1e-8 * np.max(np.abs(weights.real))

    def test_tikhonov_fallback_warns(self, rng):
        # a noise-dominated observation covariance clusters the eigenvalues and
        # makes the moment matrix numerically singular at moderate degree
        model = random_model(rng, n_r=4, n_t=2, pt_lo=0.01, pt_hi=0.02)
        ws = wpeach_weight_system(model, 7, es.default_alpha_w(model))
        assert np.linalg.cond(ws.a_mat) > WEIGHT_COND_LIMIT
        with pytest.warns(IllConditionedWeightsWarning):
            weights = wpeach_weights_optimal(ws)
        assert np.all(np.isfinite(weights))

    def test_unresolvable_system_raises(self):
        ws = WeightSystem(a_mat=np.zeros((3, 3), dtype=complex), b_vec=np.ones(3, dtype=complex), alpha_w=1.0)
        with pytest.raises(IllConditionedWeights):
            guarded_hermitian_solve(ws.a_mat, ws.b_vec)


class TestGeneralMse:
    def test_zero_weights_give_prior_energy(self, rng):
        model = random_model(rng)
        tr_r = float(np.trace(model.r_cov).real)
        assert_allclose(es.wpeach_mse_general(model, 3, 0.2, np.zeros(4)), tr_r, rtol=1e-12)

    def test_binomial_weights_reproduce_unweighted_mse(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        alpha = es.alpha_optimal(es.z_matrix(model))
        tr_r = float(np.trace(model.r_cov).real)
        for degree in range(7):
            weights = peach_as_wpeach_weights(degree)
            general = es.wpeach_mse_general(model, degree, alpha, weights)
            assert abs(general - es.peach_mse(model, degree, alpha)) < 1e-10 * max(tr_r, 1.0)

    def test_quadratic_formula_from_weight_system(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        alpha_w = es.default_alpha_w(model)
        degree = 3
        ws = wpeach_weight_system(model, degree, alpha_w)
        weights = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * 0.5
        tr_r = float(np.trace(model.r_cov).real)
        direct = tr_r + np.real(
            weights.conj() @ ws.a_mat @ weights - ws.b_vec.conj() @ weights - weights.conj() @ ws.b_vec
        )
        assert_allclose(es.wpeach_mse_general(model, degree, alpha_w, weights), direct, rtol=1e-10)


class TestBinomialWeights:
    def test_small_degrees(self):
        assert_allclose(peach_as_wpeach_weights(0), [1.0])
        assert_allclose(peach_as_wpeach_weights(1), [2.0, -1.0])
        assert_allclose(peach_as_wpeach_weights(2), [3.0, -3.0, 1.0])

    def test_hockey_stick_identity(self):
        # sum_{l=n}^{L} C(l, n) telescopes to C(L+1, n+1)
        for degree in range(13):
            weights = peach_as_wpeach_weights(degree)
            expected = [(-1.0) ** n * math.comb(degree + 1, n + 1) for n in range(degree + 1)]
            assert_allclose(weights, expected)


class TestWpeachEstimate:
    def test_binomial_weights_reproduce_unweighted_estimator(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        y = random_observation(rng, model)
        for degree in range(7):
            pest = es.make_peach(model, degree)
            west = es.PolyEstimator(
                es.EstimatorKind.WPEACH, degree, pest.alpha, peach_as_wpeach_weights(degree)
            )
            a = es.peach_estimate(model, pest, y)
            b = es.wpeach_estimate(model, west, y)
            assert np.linalg.norm(a - b) < 1e-12 * np.linalg.norm(a)

    def test_matches_monte_carlo_at_optimal_weights(self, rng):
        model = random_model(rng, n_r=3, n_t=2)  # m = 6
        degree = 4
        west = es.make_wpeach(model, degree)
        mse_hat, stderr = run_monte_carlo(model, {"wpeach": es.bind(model, west).apply}, 20_000, 718)["wpeach"]
        analytic = es.wpeach_mse_general(model, degree, west.alpha, west.weights)
        assert abs(mse_hat - analytic) < 3 * stderr


class TestStableFit:
    def test_least_squares_matches_normal_equations_when_well_conditioned(self, rng):
        model = random_model(rng, n_r=4, n_t=2, pt_lo=5.0, pt_hi=20.0, eig_lo=0.1)
        alpha_w = es.default_alpha_w(model)
        degree, ws = capped_degree_system(model, 5, alpha_w)
        w_direct = wpeach_weights_optimal(ws)
        w_fit = es.make_wpeach(model, degree, alpha_w).weights
        mse_fit = es.wpeach_mse_optimal(model, degree)
        tr_r = float(np.trace(model.r_cov).real)
        closed = tr_r - float(np.real(ws.b_vec.conj() @ w_direct))
        assert abs(mse_fit - closed) < 1e-9 * tr_r
        assert np.linalg.norm(w_fit - w_direct) < 1e-6 * np.linalg.norm(w_direct)

    def test_optimal_value_consistent_with_estimator_in_use(self, rng):
        model = random_model(rng, n_r=4, n_t=3)
        for degree in (0, 3, 8):
            west = es.make_wpeach(model, degree)
            used = es.wpeach_mse_general(model, degree, west.alpha, west.weights)
            opt = es.wpeach_mse_optimal(model, degree)
            assert abs(used - opt) < 1e-9 * max(opt, 1.0)

    def test_optimal_value_independent_of_alpha(self, rng):
        # the scaling cancels: the filter the estimator applies has the same MSE
        model = random_model(rng, n_r=3, n_t=2)
        a, b = (
            es.wpeach_mse_general(model, 4, scale, es.make_wpeach(model, 4, alpha_w=scale).weights)
            for scale in (0.01, 0.2)
        )
        assert_allclose(a, b, rtol=1e-10)


class TestOrderings:
    def test_mse_hierarchy(self, rng):
        # exact Bayesian <= optimally weighted <= unweighted expansion; unbiased worst
        for _ in range(8):
            model = random_model(rng, n_r=3, n_t=2)
            degree = int(rng.integers(0, 7))
            alpha = es.alpha_optimal(es.z_matrix(model))
            mmse = es.mmse_mse(model)
            wpeach = es.wpeach_mse_optimal(model, degree)
            peach = es.peach_mse(model, degree, alpha)
            tol = 1e-9 * max(np.trace(model.r_cov).real, 1.0)
            assert mmse <= wpeach + tol
            assert wpeach <= peach + tol
            assert mmse < es.mvu_variance(model)

    def test_optimal_weights_dominate_binomial_weights(self, rng):
        for _ in range(5):
            model = random_model(rng, n_r=3, n_t=2)
            degree = int(rng.integers(0, 7))
            alpha = es.alpha_optimal(es.z_matrix(model))
            fixed = es.wpeach_mse_general(model, degree, alpha, peach_as_wpeach_weights(degree))
            assert es.wpeach_mse_optimal(model, degree) <= fixed + 1e-10
