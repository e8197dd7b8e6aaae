import numpy as np
import pytest
from numpy.testing import assert_allclose

import peachsim.model
from peachsim import estimators as es
from peachsim.adaptive import adaptive_init, adaptive_update
from peachsim.cli import run_monte_carlo
from peachsim.errors import (
    DivergentExpansionWarning,
    NotPositiveDefinite,
    RankDeficientPilot,
    UnsupportedPilot,
)
from peachsim.model import (
    ContaminationSpec,
    Dims,
    build_stat_model,
    correlated_model,
    deviation,
    extend_pilot,
    stat_model_from_pilot,
)

from conftest import (
    complex_vector,
    random_hermitian_psd,
    random_model,
    random_observation,
    random_pilot_model,
    relative_error,
)


def scalar_model(r=0.8, sigma_sq=0.5, pilot_power=2.0, h_mean=0.3 + 0.1j, n_mean=-0.2j):
    dims = Dims(1, 1, 1)
    return build_stat_model(
        dims,
        np.array([h_mean]),
        np.array([[r]], dtype=complex),
        np.array([n_mean]),
        ContaminationSpec(noise_var=sigma_sq),
        pilot_power,
    )


class TestMmse:
    def test_zero_deviation_returns_prior_mean(self, rng):
        model = random_model(rng)
        y = model.y_mean()
        assert_allclose(es.mmse_estimate(model, y), model.h_mean, atol=1e-13)

    def test_scalar_closed_form(self, rng):
        r, sigma_sq, pt = 0.8, 0.5, 2.0
        model = scalar_model(r, sigma_sq, pt)
        y = np.array([1.3 - 0.4j])
        d = (y - model.y_mean())[0]
        expected = model.h_mean[0] + r * np.sqrt(pt) / (pt * r + sigma_sq) * d
        assert_allclose(es.mmse_estimate(model, y)[0], expected, rtol=1e-13)

    def test_matches_dense_inverse_oracle(self, rng):
        model = random_model(rng, n_r=2, n_t=2)  # m = n = 4
        y = random_observation(rng, model)
        z = model.pilot_ext @ model.r_cov @ model.pilot_ext.conj().T + model.s_cov
        oracle = model.h_mean + model.r_cov @ model.pilot_ext.conj().T @ np.linalg.inv(z) @ deviation(model, y)
        est = es.mmse_estimate(model, y)
        assert np.linalg.norm(est - oracle) < 1e-10 * np.linalg.norm(oracle)

    def test_non_finite_observation_rejected(self, rng):
        model = random_model(rng)
        y = random_observation(rng, model)
        y[1] = np.nan
        with pytest.raises(ValueError):
            es.mmse_estimate(model, y)

    def test_mse_diagonal_closed_form(self):
        dims = Dims(3, 2, 2)
        sigma_sq, pt = 0.7, 2.5
        model = build_stat_model(dims, None, np.eye(dims.n), None, ContaminationSpec(noise_var=sigma_sq), pt)
        assert_allclose(es.mmse_mse(model), dims.n * sigma_sq / (sigma_sq + pt), rtol=1e-12)

    def test_mse_zero_channel_covariance(self):
        dims = Dims(2, 1, 1)
        model = build_stat_model(dims, None, np.zeros((2, 2)), None, ContaminationSpec(), 1.0)
        assert es.mmse_mse(model) == pytest.approx(0.0, abs=1e-14)

    def test_mse_matches_monte_carlo(self, rng):
        model = random_model(rng, n_r=3, n_t=2)  # m = 6
        mse_hat, stderr = run_monte_carlo(model, {"mmse": es.mmse_estimate}, 20_000, 314)["mmse"]
        assert abs(mse_hat - es.mmse_mse(model)) < 3 * stderr


class TestMvu:
    def test_scaled_identity_pseudoinverse(self, rng):
        model = random_model(rng)
        pt = model.pilot[0, 0].real ** 2
        y = random_observation(rng, model)
        assert_allclose(es.mvu_estimate(model, y), (y - model.n_mean) / np.sqrt(pt), rtol=1e-11)

    def test_unbiased_at_zero_noise(self, rng):
        model = random_model(rng)
        h = complex_vector(rng, model.dims.n)
        y = model.pilot_ext @ h + model.n_mean
        assert_allclose(es.mvu_estimate(model, y), h, rtol=1e-10)

    def test_matches_dense_two_solve_oracle(self, rng):
        # non-trivial disturbance covariance exercises both solves
        model = random_model(rng, n_r=2, n_t=2, beta_max=1.0)
        y = random_observation(rng, model)
        pe = model.pilot_ext
        s_inv = np.linalg.inv(model.s_cov)
        oracle = np.linalg.inv(pe.conj().T @ s_inv @ pe) @ pe.conj().T @ s_inv @ (y - model.n_mean)
        est = es.mvu_estimate(model, y)
        assert np.linalg.norm(est - oracle) < 1e-10 * np.linalg.norm(oracle)

    def test_variance_closed_form(self):
        dims = Dims(3, 2, 2)
        sigma_sq, pt = 0.7, 2.5
        model = build_stat_model(dims, None, np.eye(dims.n), None, ContaminationSpec(noise_var=sigma_sq), pt)
        assert_allclose(es.mvu_variance(model), dims.n * sigma_sq / pt, rtol=1e-12)

    def test_variance_dominates_mmse(self, rng):
        for _ in range(5):
            model = random_model(rng)
            assert es.mmse_mse(model) < es.mvu_variance(model)

    def test_variance_matches_monte_carlo(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        mse_hat, stderr = run_monte_carlo(model, {"mvu": es.mvu_estimate}, 20_000, 217)["mvu"]
        assert abs(mse_hat - es.mvu_variance(model)) < 3 * stderr

    def test_rank_deficient_pilot_raises(self, rng):
        # pilot shorter than the transmit dimension cannot be unbiased
        dims = Dims(2, 3, 1)
        pilot = complex_vector(rng, 3).reshape(3, 1)
        model = stat_model_from_pilot(dims, None, np.eye(dims.n), None, ContaminationSpec(), pilot)
        with pytest.raises(RankDeficientPilot):
            es.mvu_estimate(model, np.zeros(dims.m))
        with pytest.raises(RankDeficientPilot):
            es.mvu_variance(model)


class TestDiagonalized:
    def test_exact_for_diagonal_covariances(self, rng):
        dims = Dims(3, 2, 2)
        r_diag = np.diag(rng.uniform(0.2, 2.0, dims.n))
        model = build_stat_model(dims, complex_vector(rng, dims.n), r_diag, complex_vector(rng, dims.m),
                                 ContaminationSpec(noise_var=0.9), 1.7)
        y = random_observation(rng, model)
        a = es.diag_estimate(model, y)
        b = es.mmse_estimate(model, y)
        assert np.linalg.norm(a - b) < 1e-12 * np.linalg.norm(b)

    def test_zero_deviation_returns_prior_mean(self, rng):
        model = random_model(rng)
        assert_allclose(es.diag_estimate(model, model.y_mean()), model.h_mean, atol=1e-13)

    def test_matches_direct_formula(self, rng):
        model = random_model(rng, n_r=3, n_t=2, beta_max=1.0)
        pt = model.pilot[0, 0].real ** 2
        y = random_observation(rng, model)
        d = deviation(model, y)
        r_d = np.diag(np.diag(model.r_cov))
        s_d = np.diag(np.diag(model.s_cov))
        direct = model.h_mean + np.sqrt(pt) * r_d @ np.linalg.inv(pt * r_d + s_d) @ d
        assert np.max(np.abs(es.diag_estimate(model, y) - direct)) < 1e-14 * np.linalg.norm(direct)

    def test_requires_identity_pilot(self, rng):
        dims = Dims(2, 2, 2)
        pilot = complex_vector(rng, 4).reshape(2, 2)
        model = stat_model_from_pilot(dims, None, np.eye(dims.n), None, ContaminationSpec(), pilot)
        with pytest.raises(UnsupportedPilot):
            es.diag_estimate(model, np.zeros(dims.m))

    def test_mse_identity_covariance(self):
        dims = Dims(2, 2, 2)
        sigma_sq, pt = 1.3, 0.9
        model = build_stat_model(dims, None, np.eye(dims.n), None, ContaminationSpec(noise_var=sigma_sq), pt)
        assert_allclose(es.diag_mse(model), dims.n / (1.0 + pt / sigma_sq), rtol=1e-12)

    def test_mse_vanishes_at_high_power(self, rng):
        dims = Dims(3, 2, 2)
        r_cov = random_hermitian_psd(rng, dims.n, eig_lo=0.1, eig_hi=2.0)
        r_cov = r_cov / np.max(np.diag(r_cov).real)
        model = build_stat_model(dims, None, r_cov, None, ContaminationSpec(noise_var=1.0), 1e8)
        assert es.diag_mse(model) < 1e-6 * dims.n

    def test_mse_matches_monte_carlo(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        mse_hat, stderr = run_monte_carlo(model, {"diag": es.diag_estimate}, 20_000, 515)["diag"]
        assert abs(mse_hat - es.diag_mse(model)) < 3 * stderr


class TestAlphaRules:
    def test_identity_gives_one(self):
        assert es.alpha_optimal(np.eye(5)) == pytest.approx(1.0)

    def test_two_point_spectrum(self):
        assert es.alpha_optimal(np.diag([1.0, 3.0])) == pytest.approx(0.5)

    def test_minimizes_contraction_norm_over_grid(self, rng):
        z = random_hermitian_psd(rng, 6, eig_lo=0.2, eig_hi=4.0)
        alpha = es.alpha_optimal(z)
        lam_max = np.linalg.eigvalsh(z)[-1]
        norms = [
            np.linalg.norm(np.eye(6) - a * z, 2)
            for a in np.linspace(1e-6, 2.0 / lam_max, 100, endpoint=False)
        ]
        best = np.linalg.norm(np.eye(6) - alpha * z, 2)
        assert best < 1.0
        assert best <= min(norms) + 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            es.alpha_optimal(np.diag([1.0, -0.1]))

    def test_trace_rule(self, rng):
        assert es.alpha_trace(np.eye(7)) == pytest.approx(2.0 / 7.0)
        assert es.alpha_trace(np.diag([1.0, 3.0])) == pytest.approx(0.5)
        z = random_hermitian_psd(rng, 6)
        assert es.alpha_trace(z) <= 2.0 / np.linalg.eigvalsh(z)[-1] + 1e-15

    def test_gershgorin_rule_within_bound(self, rng):
        z = random_hermitian_psd(rng, 6, eig_lo=0.5, eig_hi=3.0)
        # Gershgorin lower bounds can be negative; the rule must stay convergent
        alpha = es.alpha_gershgorin(z)
        assert 0.0 < alpha < 2.0 / np.linalg.eigvalsh(z)[-1] + 1e-15


class TestPeachEstimate:
    def test_degree_zero_single_term(self, rng):
        model = random_model(rng)
        est = es.make_peach(model, 0)
        y = random_observation(rng, model)
        d = deviation(model, y)
        expected = model.h_mean + est.alpha * (model.r_cov @ (model.pilot_ext.conj().T @ d))
        assert_allclose(es.peach_estimate(model, est, y), expected, rtol=1e-12)

    def test_converges_to_mmse(self, rng):
        model = random_model(rng, n_r=3, n_t=2)  # m = 6
        est = es.make_peach(model, 64)
        y = random_observation(rng, model)
        a = es.peach_estimate(model, est, y)
        b = es.mmse_estimate(model, y)
        assert np.linalg.norm(a - b) < 1e-6 * np.linalg.norm(b)

    def test_scalar_geometric_series(self, rng):
        r, sigma_sq, pt = 0.8, 0.5, 2.0
        model = scalar_model(r, sigma_sq, pt)
        degree = 5
        est = es.make_peach(model, degree)
        y = np.array([0.9 + 0.2j])
        d = (y - model.y_mean())[0]
        z = pt * r + sigma_sq
        series = sum(est.alpha * (1.0 - est.alpha * z) ** l for l in range(degree + 1))
        expected = model.h_mean[0] + r * np.sqrt(pt) * series * d
        assert_allclose(es.peach_estimate(model, est, y)[0], expected, rtol=1e-12)

    def test_linear_in_deviation(self, rng):
        model = random_model(rng)
        est = es.make_peach(model, 4)
        y = random_observation(rng, model)
        doubled = model.y_mean() + 2.0 * (y - model.y_mean())
        head = es.peach_estimate(model, est, y) - model.h_mean
        head2 = es.peach_estimate(model, est, doubled) - model.h_mean
        assert_allclose(head2, 2.0 * head, rtol=1e-11, atol=1e-13)

    def test_recursion_equals_dense_polynomial(self, rng):
        model = random_model(rng, n_r=4, n_t=2)  # m = 8 <= 16
        degree = 7
        est = es.make_peach(model, degree)
        y = random_observation(rng, model)
        z = es.z_matrix(model)
        x = np.eye(model.dims.m) - est.alpha * z
        a_l = est.alpha * sum(np.linalg.matrix_power(x, l) for l in range(degree + 1))
        dense = model.h_mean + model.r_cov @ model.pilot_ext.conj().T @ a_l @ deviation(model, y)
        rec = es.peach_estimate(model, est, y)
        assert np.linalg.norm(rec - dense) < 1e-12 * np.linalg.norm(dense)

    def test_out_of_bound_alpha_warns(self, rng):
        model = random_model(rng)
        z = es.z_matrix(model)
        bad_alpha = 2.5 / np.linalg.eigvalsh(z)[-1]
        with pytest.warns(DivergentExpansionWarning):
            est = es.make_peach(model, 3, alpha=bad_alpha)
        # evaluation stays defined
        y = random_observation(rng, model)
        assert np.all(np.isfinite(es.peach_estimate(model, est, y)))

    def test_wrong_kind_rejected(self, rng):
        model = random_model(rng)
        west = es.make_wpeach(model, 2)
        with pytest.raises(ValueError):
            es.peach_estimate(model, west, random_observation(rng, model))


class TestPeachMse:
    def test_approaches_mmse_mse(self, rng):
        model = random_model(rng, n_r=3, n_t=2)  # m = 6
        alpha = es.alpha_optimal(es.z_matrix(model))
        assert abs(es.peach_mse(model, 200, alpha) - es.mmse_mse(model)) < 1e-8

    def test_matches_monte_carlo(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        degree = 4
        est = es.make_peach(model, degree)
        mse_hat, stderr = run_monte_carlo(
            model, {"peach": lambda m, y: es.peach_estimate(m, est, y)}, 20_000, 616
        )["peach"]
        assert abs(mse_hat - es.peach_mse(model, degree, est.alpha)) < 3 * stderr

    def test_truncation_error_bound_and_monotone(self, rng):
        # ||A_L - z^{-1}||_2 <= ||z^{-1}||_2 rho^(L+1), decreasing in L
        model = random_model(rng, n_r=4, n_t=2)  # m = 8
        z = es.z_matrix(model)
        alpha = es.alpha_optimal(z)
        x = np.eye(model.dims.m) - alpha * z
        rho = np.linalg.norm(x, 2)
        assert rho < 1.0
        z_inv = np.linalg.inv(z)
        errors = []
        acc = np.eye(model.dims.m, dtype=complex)
        cur = np.eye(model.dims.m, dtype=complex)
        for degree in range(12):
            if degree > 0:
                cur = cur @ x
                acc = acc + cur
            err = np.linalg.norm(alpha * acc - z_inv, 2)
            bound = np.linalg.norm(z_inv, 2) * rho ** (degree + 1)
            assert err <= bound * (1.0 + 1e-8)
            errors.append(err)
        assert all(b < a for a, b in zip(errors, errors[1:]))


PILOT_SHAPES = [(2, 3), (3, 5)]


class TestStructuredPilotEstimates:
    """Estimates through the structured pilot applies agree with dense filters."""

    @pytest.mark.parametrize("n_t, b", PILOT_SHAPES)
    @pytest.mark.parametrize("batch", [(), (4,)])
    def test_mmse_peach_wpeach_match_dense_filters(self, rng, n_t, b, batch):
        model = random_pilot_model(rng, n_t, b)
        y = model.y_mean()[(...,) + (None,) * len(batch)] + complex_vector(rng, (model.dims.m, *batch))
        d = deviation(model, y)
        h_mean = model.h_mean[(...,) + (None,) * len(batch)]
        peach_est = es.make_peach(model, 3)
        wpeach_est = es.make_wpeach(model, 3)
        pairs = [
            (es.mmse_estimate(model, y), es.mmse_filter_matrix(model)),
            (es.peach_estimate(model, peach_est, y), es.poly_filter_matrix(model, peach_est)),
            (es.wpeach_estimate(model, wpeach_est, y), es.poly_filter_matrix(model, wpeach_est)),
        ]
        for estimate, g_mat in pairs:
            assert relative_error(estimate, h_mean + g_mat @ d) <= 1e-12

    @pytest.mark.parametrize("n_t, b", PILOT_SHAPES)
    def test_mvu_matches_dense_solve(self, rng, n_t, b):
        model = random_pilot_model(rng, n_t, b)
        p_ext = extend_pilot(model.pilot, model.dims.n_r)
        y = complex_vector(rng, (model.dims.m, 4))
        t = np.linalg.solve(model.s_cov, p_ext)
        dense = np.linalg.solve(p_ext.conj().T @ t, t.conj().T @ (y - model.n_mean[:, None]))
        assert relative_error(es.mvu_estimate(model, y), dense) <= 1e-12


@pytest.mark.parametrize("pilot", ["identity", "non-square"])
def test_hot_path_never_forms_dense_pilot(rng, monkeypatch, pilot):
    # building, preparing, estimating, tracking and Monte Carlo scoring all
    # apply the pilot through its Kronecker structure
    def refuse(*args, **kwargs):
        raise AssertionError("the dense extended pilot was formed on the estimation path")

    monkeypatch.setattr(peachsim.model, "extend_pilot", refuse)
    if pilot == "identity":
        model = correlated_model(Dims(6, 3, 3), 5.0, (0.1, 0.1))
    else:
        model = random_pilot_model(rng, 3, 5)
    model.z, model.z_spectrum
    peach_est = es.make_peach(model, 3)
    wpeach_est = es.make_wpeach(model, 3)
    y = random_observation(rng, model)
    es.mmse_estimate(model, y)
    es.peach_estimate(model, peach_est, y)
    es.wpeach_estimate(model, wpeach_est, y)
    samples = [random_observation(rng, model) for _ in range(5)]
    state = adaptive_init(model, 4, 3, wpeach_est.alpha, samples[:4])
    adaptive_update(state, samples[4])
    callables = {
        "mmse": es.mmse_estimate,
        "peach": lambda mdl, obs: es.peach_estimate(mdl, peach_est, obs),
        "wpeach": lambda mdl, obs: es.wpeach_estimate(mdl, wpeach_est, obs),
    }
    results = run_monte_carlo(model, callables, 20, 3, chunk_size=8)
    assert set(results) == set(callables)
