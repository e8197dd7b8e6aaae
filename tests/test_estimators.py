import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import peachsim.model
from peachsim import analysis
from peachsim import estimators as es
from peachsim.adaptive import adaptive_init, adaptive_update
from peachsim.cli import run_monte_carlo
from peachsim.errors import (
    DivergentExpansionWarning,
    InvalidDegree,
    InvalidScaling,
    NotPositiveDefinite,
    RankDeficientPilot,
    UnsupportedEstimator,
    UnsupportedPilot,
)
from peachsim.model import (
    Dims,
    correlated_limit,
    correlated_model,
    deviation,
    extend_pilot,
    identity_pilot,
    stat_model_from_pilot,
)

from conftest import (
    complex_vector,
    count_calls,
    count_eig_calls,
    random_hermitian_psd,
    random_model,
    random_observation,
    random_pilot_model,
    relative_error,
)
from oracles import pilot_sandwich


# (n_t, b) shapes of the non-square random pilots
PILOT_SHAPES = [(2, 3), (3, 5)]


def dense_schur_mvu(model, y):
    """MVU estimates of the (m, k) block ``y`` and the variance, from the dense Schur complement of S11.

    S is the disturbance covariance in the coordinates of the complete QR
    pilot.T = Q R, contracted densely by :func:`oracles.pilot_sandwich`, and
    the channel part is mapped back by the dense (R1^{-1} (x) I).
    """
    (n_t, b), n, n_r = model.pilot.shape, model.dims.n, model.dims.n_r
    q, r = np.linalg.qr(model.pilot.T, mode="complete")
    s = pilot_sandwich(q.conj(), n_r, model.s_cov)
    x = np.kron(q.conj().T, np.eye(n_r)) @ (y - model.y_mean()[:, None])
    solve = lambda rhs: np.linalg.solve(s[n:, n:], rhs) if b > n_t else np.zeros((0, rhs.shape[1]))
    back = np.kron(np.linalg.inv(r[:n_t]), np.eye(n_r))
    schur = s[:n, :n] - s[:n, n:] @ solve(s[n:, :n])
    estimate = model.h_mean[:, None] + back @ (x[:n] - s[:n, n:] @ solve(x[n:]))
    return estimate, np.trace(back @ schur @ back.conj().T).real


def scalar_model(r=0.8, sigma_sq=0.5, pilot_power=2.0, h_mean=0.3 + 0.1j, n_mean=-0.2j):
    dims = Dims(1, 1, 1)
    return stat_model_from_pilot(
        dims,
        np.array([h_mean]),
        np.array([[r]], dtype=complex),
        np.array([n_mean]),
        identity_pilot(dims, pilot_power),
        noise_var=sigma_sq,
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
        model = stat_model_from_pilot(
            dims, None, np.eye(dims.n), None, identity_pilot(dims, pt), noise_var=sigma_sq
        )
        assert_allclose(es.mmse_mse(model), dims.n * sigma_sq / (sigma_sq + pt), rtol=1e-12)

    def test_mse_zero_channel_covariance(self):
        dims = Dims(2, 1, 1)
        model = stat_model_from_pilot(
            dims, None, np.zeros((2, 2)), None, identity_pilot(dims, 1.0)
        )
        assert es.mmse_mse(model) == pytest.approx(0.0, abs=1e-14)

    def test_mse_matches_monte_carlo(self, rng):
        model = random_model(rng, n_r=3, n_t=2)  # m = 6
        mse_hat, stderr = run_monte_carlo(model, {"mmse": es.prepare(model, "mmse").apply}, 20_000, 314)["mmse"]
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
        # a square pilot with a contaminated disturbance, then two longer
        # pilots, which also take the complement-block path
        models = [random_model(rng, n_r=2, n_t=2, beta_max=1.0)]
        models += [random_pilot_model(rng, n_t, b) for n_t, b in PILOT_SHAPES]
        for model in models:
            y = random_observation(rng, model)
            pe = model.pilot_ext
            s_inv = np.linalg.inv(model.s_cov)
            gram_inv = np.linalg.inv(pe.conj().T @ s_inv @ pe)
            oracle = gram_inv @ pe.conj().T @ s_inv @ (y - model.n_mean)
            assert relative_error(es.mvu_estimate(model, y), oracle) <= 1e-12
            assert es.mvu_variance(model) == pytest.approx(np.trace(gram_inv).real, rel=1e-12)

    @pytest.mark.parametrize("n_t, b", [(2, 2), (2, 3)])
    def test_only_a_longer_pilot_factors_its_complement_block(self, rng, monkeypatch, n_t, b):
        # a square pilot solves, factors and decomposes nothing of size m; a
        # longer one factors its (m - n) block S22 once per preparation
        model = random_model(rng, n_t=n_t) if b == n_t else random_pilot_model(rng, n_t, b)
        counts = {}
        count_calls(monkeypatch, np.linalg, ("solve", "inv", "cholesky"), counts)
        count_calls(monkeypatch, scipy.linalg, ("solve", "inv", "cho_factor", "lu_factor"), counts)
        count_eig_calls(monkeypatch, counts)
        es.mvu_estimate(model, random_observation(rng, model))
        es.mvu_variance(model)
        factored = {name: count for name, count in counts.items() if count}
        assert factored == ({} if b == n_t else {"cho_factor": 2})

    @pytest.mark.parametrize("gamma_db", [-10.0, 7.3, 30.0])
    @pytest.mark.parametrize("betas", [(), (1.0, 0.3, 0.7)], ids=["noise-limited", "cyclic"])
    @pytest.mark.parametrize("dims", [Dims(20, 4, 4), Dims(5, 3, 3)], ids=["20x4", "5x3"])
    def test_square_pilot_matches_the_dense_schur_oracle_without_a_sandwich(self, monkeypatch, dims, gamma_db, betas):
        # a square pilot reads s_cov's block traces, from the Kronecker terms
        # of a correlated model or from the dense matrix of one derived from
        # it, and forms no sandwich of s_cov
        model = correlated_model(dims, gamma_db, betas)
        y = np.random.default_rng(3).standard_normal((dims.m, 2)) + 0j
        estimate, variance = dense_schur_mvu(model, y)
        monkeypatch.setattr(es, "_pilot_sandwich", None)
        for target in (model, replace(model)):
            mvu = es.prepare(target, "mvu")
            assert mvu.mse() == pytest.approx(variance, rel=1e-13, abs=0.0)
            assert relative_error(mvu.apply(y), estimate) <= 1e-13

    @pytest.mark.parametrize("n_t, b", PILOT_SHAPES)
    def test_longer_pilot_matches_the_dense_schur_oracle_through_one_sandwich(self, rng, monkeypatch, n_t, b):
        model = random_pilot_model(rng, n_t, b)
        y = random_observation(rng, model)[:, None]
        estimate, variance = dense_schur_mvu(model, y)
        counts = {}
        count_calls(monkeypatch, es, ("_pilot_sandwich",), counts)
        mvu = es.prepare(model, "mvu")
        assert counts == {"_pilot_sandwich": 1}
        assert mvu.mse() == pytest.approx(variance, rel=1e-12, abs=0.0)
        assert relative_error(mvu.apply(y), estimate) <= 1e-12

    def test_variance_closed_form(self):
        dims = Dims(3, 2, 2)
        sigma_sq, pt = 0.7, 2.5
        model = stat_model_from_pilot(
            dims, None, np.eye(dims.n), None, identity_pilot(dims, pt), noise_var=sigma_sq
        )
        assert_allclose(es.mvu_variance(model), dims.n * sigma_sq / pt, rtol=1e-12)

    def test_variance_dominates_mmse(self, rng):
        for _ in range(5):
            model = random_model(rng)
            assert es.mmse_mse(model) < es.mvu_variance(model)

    def test_variance_matches_monte_carlo(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        mse_hat, stderr = run_monte_carlo(model, {"mvu": es.prepare(model, "mvu").apply}, 20_000, 217)["mvu"]
        assert abs(mse_hat - es.mvu_variance(model)) < 3 * stderr

    def test_rank_deficient_pilot_raises(self, rng):
        # pilot shorter than the transmit dimension cannot be unbiased
        dims = Dims(2, 3, 1)
        pilot = complex_vector(rng, 3).reshape(3, 1)
        model = stat_model_from_pilot(dims, None, np.eye(dims.n), None, pilot)
        with pytest.raises(RankDeficientPilot):
            es.mvu_estimate(model, np.zeros(dims.m))
        with pytest.raises(RankDeficientPilot):
            es.mvu_variance(model)

    def test_nearly_dependent_pilot_rows_raise(self, rng):
        # the second transmit row repeats the first up to 1e-9 noise
        dims = Dims(2, 2, 3)
        first = complex_vector(rng, 3)
        pilot = np.stack([first, first + 1e-9 * complex_vector(rng, 3)])
        model = stat_model_from_pilot(dims, None, np.eye(dims.n), None, pilot)
        with pytest.raises(RankDeficientPilot):
            es.mvu_estimate(model, np.zeros(dims.m))
        with pytest.raises(RankDeficientPilot):
            es.mvu_variance(model)


class TestDiagonalized:
    def test_exact_for_diagonal_covariances(self, rng):
        dims = Dims(3, 2, 2)
        r_diag = np.diag(rng.uniform(0.2, 2.0, dims.n))
        model = stat_model_from_pilot(dims, complex_vector(rng, dims.n), r_diag, complex_vector(rng, dims.m),
                                      identity_pilot(dims, 1.7), noise_var=0.9)
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
        model = stat_model_from_pilot(dims, None, np.eye(dims.n), None, pilot)
        with pytest.raises(UnsupportedPilot):
            es.diag_estimate(model, np.zeros(dims.m))

    def test_mse_identity_covariance(self):
        dims = Dims(2, 2, 2)
        sigma_sq, pt = 1.3, 0.9
        model = stat_model_from_pilot(
            dims, None, np.eye(dims.n), None, identity_pilot(dims, pt), noise_var=sigma_sq
        )
        assert_allclose(es.diag_mse(model), dims.n / (1.0 + pt / sigma_sq), rtol=1e-12)

    def test_mse_vanishes_at_high_power(self, rng):
        dims = Dims(3, 2, 2)
        r_cov = random_hermitian_psd(rng, dims.n, eig_lo=0.1, eig_hi=2.0)
        r_cov = r_cov / np.max(np.diag(r_cov).real)
        model = stat_model_from_pilot(
            dims, None, r_cov, None, identity_pilot(dims, 1e8), noise_var=1.0
        )
        assert es.diag_mse(model) < 1e-6 * dims.n

    def test_mse_matches_monte_carlo(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        mse_hat, stderr = run_monte_carlo(model, {"diag": es.prepare(model, "diagonalized").apply}, 20_000, 515)["diag"]
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

    NON_HERMITIAN_Z = {"skew": [[1.0, 5.0], [-5.0, 1.0]], "upper-triangular": np.triu(np.ones((3, 3))) + 2 * np.eye(3)}

    @pytest.mark.parametrize("z", NON_HERMITIAN_Z.values(), ids=NON_HERMITIAN_Z.keys())
    def test_rejects_non_hermitian_z_by_name(self, z):
        # symmetrizing would hide the skew part: the skew matrix's Hermitian part is the identity, whose alpha is 1
        with pytest.raises(NotPositiveDefinite, match="^z is not Hermitian within tolerance$"):
            es.alpha_optimal(z)

    def test_accepts_a_rounding_sized_skew_part(self, rng):
        z = random_hermitian_psd(rng, 6, eig_lo=0.2, eig_hi=4.0)
        skew = complex_vector(rng, (6, 6))
        skew -= skew.conj().T
        drifted = z + 1e-14 * np.linalg.norm(z) / np.linalg.norm(skew) * skew
        assert es.alpha_optimal(drifted) == pytest.approx(es.alpha_optimal(z), rel=1e-12)

    NON_FINITE_Z = {
        "all-nan": np.full((2, 2), np.nan),
        "inf-off-diagonal": [[1.0, np.inf], [np.inf, 1.0]],
        "inf-diagonal": np.diag([np.inf, 1.0]),
        "minus-inf": [[1.0, 0.0], [0.0, -np.inf]],
    }

    @pytest.mark.parametrize("z", NON_FINITE_Z.values(), ids=NON_FINITE_Z.keys())
    def test_rejects_non_finite_z_by_name_before_any_arithmetic(self, z):
        # the one typed error names z, and no numpy warning (hermitize's multiply) comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="^z holds NaN or infinity$"):
                es.alpha_optimal(z)


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


class TestPeachMse:
    @pytest.mark.parametrize("alpha", [1e300, 1e100], ids=["nan", "inf"])
    def test_overflowing_scaling_warns_divergence_then_raises_typed(self, alpha):
        # a scaling far outside the convergence bound: make_peach's warning, then InvalidScaling naming alpha where
        # the diverging filter overflows the MSE, with no numpy RuntimeWarning on the way
        model = correlated_model(Dims(4, 2, 2), 5.0, (0.1,))
        with pytest.warns(DivergentExpansionWarning) as warned, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidScaling, match="alpha="):
                es.peach_mse(model, 2, alpha)
        assert [w.category for w in warned] == [DivergentExpansionWarning]
        assert warned[0].filename == __file__

    def test_divergent_scaling_with_a_finite_mse_warns_and_scores(self):
        model = correlated_model(Dims(4, 2, 2), 5.0, (0.1,))
        alpha = 2.5 / model.z_spectrum.lam[-1]
        with pytest.warns(DivergentExpansionWarning):
            mse = es.peach_mse(model, 3, alpha)
        assert np.isfinite(mse) and mse > es.mmse_mse(model)

    def test_approaches_mmse_mse(self, rng):
        model = random_model(rng, n_r=3, n_t=2)  # m = 6
        alpha = es.alpha_optimal(es.z_matrix(model))
        assert abs(es.peach_mse(model, 200, alpha) - es.mmse_mse(model)) < 1e-8

    def test_matches_monte_carlo(self, rng):
        model = random_model(rng, n_r=3, n_t=2)
        degree = 4
        est = es.make_peach(model, degree)
        mse_hat, stderr = run_monte_carlo(model, {"peach": es.bind(model, est).apply}, 20_000, 616)["peach"]
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


# every entry point that takes a polynomial degree, called with an empty weight
# vector where weights are needed, so a degree of -1 has "degree + 1" weights
NEGATIVE_DEGREE_CALLS = {
    "crossover_m": lambda model, degree: analysis.crossover_m("peach", 50, degree),
    "peach_mse": lambda model, degree: es.peach_mse(model, degree, 0.1),
    "wpeach_mse_general": lambda model, degree: es.wpeach_mse_general(model, degree, 0.1, np.ones(0)),
    "wpeach_mse_optimal": es.wpeach_mse_optimal,
    "mismatched_mse": lambda model, degree: es.mismatched_mse(model, model.r_cov, degree),
    "floor_noise_limited": lambda model, degree: analysis.floor_noise_limited(model.z_spectrum, degree),
    "floor_contaminated": lambda model, degree: analysis.floor_contaminated(
        model.z_spectrum, np.ones(model.dims.n), np.full(model.dims.n, 0.2), degree
    ),
    "make_peach": es.make_peach,
    "make_wpeach": es.make_wpeach,
    "adaptive_init": lambda model, degree: adaptive_init(model, degree, 0.1, model.draw(np.random.default_rng(0), 3)[1]),
}


@pytest.mark.parametrize("degree", [-1, -2, 1.5, 2.5, True])
@pytest.mark.parametrize("name", NEGATIVE_DEGREE_CALLS)
def test_negative_degree_rejected(name, degree):
    # a negative or a non-integer degree; bool is an int to Python, not a degree
    model = correlated_model(Dims(4, 2, 2), 5.0, (0.1, 0.1))
    with pytest.raises(InvalidDegree):
        NEGATIVE_DEGREE_CALLS[name](model, degree)


# every entry point that takes a polynomial scaling, at degree 1 with weights (1, 1)
BAD_SCALING_CALLS = {
    "PolyEstimator": lambda model, alpha, weights: es.PolyEstimator(es.EstimatorKind.WPEACH, 1, alpha, weights),
    "make_peach": lambda model, alpha, weights: es.make_peach(model, 1, alpha=alpha),
    "peach_mse": lambda model, alpha, weights: es.peach_mse(model, 1, alpha),
    "wpeach_mse_general": lambda model, alpha, weights: es.wpeach_mse_general(model, 1, alpha, weights),
    "adaptive_init": lambda model, alpha, weights: adaptive_init(model, 1, alpha, model.draw(np.random.default_rng(0), 3)[1]),
}


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -0.1, -1.0, 0.0])
@pytest.mark.parametrize("name", BAD_SCALING_CALLS)
def test_non_finite_or_non_positive_scaling_rejected(name, alpha):
    model = correlated_model(Dims(4, 2, 2), 5.0, (0.1, 0.1))
    with pytest.raises(InvalidScaling):
        BAD_SCALING_CALLS[name](model, alpha, np.ones(2))


def test_weights_are_a_read_only_copy():
    # the checked weights cannot be changed later through the caller's array
    weights = np.ones(3, dtype=complex)
    est = es.PolyEstimator(es.EstimatorKind.WPEACH, 2, 0.1, weights)
    weights[0] = np.nan
    assert np.all(est.weights == 1.0)
    with pytest.raises(ValueError):
        est.weights[0] = np.nan


@pytest.mark.parametrize("weight", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("name", ["PolyEstimator", "wpeach_mse_general"])
def test_non_finite_weights_rejected(name, weight):
    model = correlated_model(Dims(4, 2, 2), 5.0, (0.1, 0.1))
    with pytest.raises(InvalidScaling):
        BAD_SCALING_CALLS[name](model, 0.1, np.array([1.0, weight]))


def test_non_finite_weights_message_names_the_first_bad_weight():
    # the message names the first bad weight, not the whole array
    with pytest.raises(InvalidScaling, match=r"weight 2 = \(nan\+0j\)$"):
        es.PolyEstimator(es.EstimatorKind.WPEACH, 4, 0.1, [1.0, 2.0, np.nan, np.inf, 3.0])


OVERFLOWING_WPEACH = {
    "make_wpeach": (lambda model: es.make_wpeach(model, 60), "degree 60 at alpha_w="),
    "prepare": (lambda model: es.prepare(model, "wpeach", 60).mse(), "degree 60 "),
    "wpeach_mse_optimal": (lambda model: es.wpeach_mse_optimal(model, 61), "degree 61 "),
    "given alpha_w": (lambda model: es.make_wpeach(model, 2, 1e-200), "degree 2 at alpha_w=1e-200 "),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, named", OVERFLOWING_WPEACH.values(), ids=OVERFLOWING_WPEACH.keys())
def test_overflowing_wpeach_weights_are_one_typed_error_naming_the_degree(call, named):
    # at 40 dB the weights of degree 60 overflow in Spectrum.fit and in their rescaling: one typed error with
    # no numpy warning, while those of degree 50 are finite
    model = correlated_model(Dims(20, 4, 4), 40.0, ())
    assert np.isfinite(es.make_wpeach(model, 50).weights).all()
    with pytest.raises(InvalidDegree, match=f"^W-PEACH weights of {named}"):
        call(model)


@pytest.mark.parametrize("kind", list(es.EstimatorKind))
def test_kind_given_by_value_is_the_kind(kind):
    # "peach" is PEACH, not a W-PEACH filter with unit weights
    lam = np.array([1.0, 2.0])
    by_value = es.PolyEstimator(kind.value, 2, 0.1, np.ones(3))
    assert by_value.kind is kind
    assert_allclose(by_value.values(lam), es.PolyEstimator(kind, 2, 0.1, np.ones(3)).values(lam), rtol=0, atol=0)


@pytest.mark.parametrize("kind", ["mmse", "PEACH", None])
def test_unknown_kind_rejected(kind):
    with pytest.raises(UnsupportedEstimator):
        es.PolyEstimator(kind, 2, 0.1, np.ones(3))


def test_estimators_compare_and_hash_by_identity():
    a = es.PolyEstimator(es.EstimatorKind.PEACH, 2, 0.1, np.ones(3))
    b = es.PolyEstimator(es.EstimatorKind.PEACH, 2, 0.1, np.ones(3))
    assert a == a and a != b
    assert len({a, b, a}) == 2




def dense_filter(model, name, degree):
    """Dense filter G of the estimator ``name``, with h_hat = h_mean + G d."""
    if name == "mmse":
        return es.mmse_filter_matrix(model)
    if name == "mvu":
        # G pilot_ext = I, so G (y - n_mean) = h_mean + G d
        p_ext = extend_pilot(model.pilot, model.dims.n_r)
        t = np.linalg.solve(model.s_cov, p_ext)
        return np.linalg.solve(p_ext.conj().T @ t, t.conj().T)
    if name == "diagonalized":
        pt = model.pilot[0, 0].real ** 2
        r_d = np.diag(np.diag(model.r_cov))
        return np.sqrt(pt) * r_d @ np.linalg.inv(pt * r_d + np.diag(np.diag(model.s_cov)))
    return es.poly_filter_matrix(model, (es.make_peach if name == "peach" else es.make_wpeach)(model, degree))


def closed_form(model, name, degree):
    """The closed-form MSE of ``name`` from its public evaluator."""
    if name == "peach":
        return es.peach_mse(model, degree, es.make_peach(model, degree).alpha)
    if name == "wpeach":
        west = es.make_wpeach(model, degree)
        return es.wpeach_mse_general(model, degree, west.alpha, west.weights)
    return {"mmse": es.mmse_mse, "mvu": es.mvu_variance, "diagonalized": es.diag_mse}[name](model)


class TestStructuredPilotEstimates:
    """Estimates through the structured pilot applies agree with dense filters."""

    @pytest.mark.parametrize("batch", [(), (4,)])
    @pytest.mark.parametrize("name", es.NAMES)
    def test_prepared_estimator_matches_dense_filter(self, rng, name, batch):
        # a non-square pilot, except for diagonalized, which needs a scaled identity
        if name == "diagonalized":
            model = random_model(rng, n_r=3, n_t=2, beta_max=1.0)
        else:
            model = random_pilot_model(rng, 2, 3)
        prepared = es.prepare(model, name, 3)
        g_mat = dense_filter(model, name, 3)
        y = model.y_mean()[(...,) + (None,) * len(batch)] + complex_vector(rng, (model.dims.m, *batch))
        h_mean = model.h_mean[(...,) + (None,) * len(batch)]
        assert relative_error(prepared.apply(y), h_mean + g_mat @ deviation(model, y)) <= 1e-12
        assert prepared.mse() == closed_form(model, name, 3)
        assert prepared.mse() == pytest.approx(es.linear_filter_mse(model, g_mat), rel=1e-10)

    def test_diagonalized_rejects_a_non_square_pilot(self, rng):
        with pytest.raises(UnsupportedPilot):
            es.prepare(random_pilot_model(rng, 2, 3), "diagonalized")

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
    # building, preparing, estimating, scoring, tracking and Monte Carlo
    # sampling all apply the pilot through its Kronecker structure
    def refuse(*args, **kwargs):
        raise AssertionError("the dense extended pilot was formed on the estimation path")

    monkeypatch.setattr(peachsim.model, "extend_pilot", refuse)
    if pilot == "identity":
        model = correlated_model(Dims(6, 3, 3), 5.0, (0.1, 0.1))
    else:
        model = random_pilot_model(rng, 3, 5)
    model.z, model.z_spectrum
    # the diagonalized estimator needs the identity pilot
    names = [name for name in es.NAMES if pilot == "identity" or name != "diagonalized"]
    prepared = {name: es.prepare(model, name, 3) for name in names}
    y = random_observation(rng, model)
    for estimator in prepared.values():
        estimator.apply(y)
        estimator.mse()
    samples = [random_observation(rng, model) for _ in range(5)]
    state = adaptive_init(model, 3, es.default_alpha_w(model), samples[:4])
    adaptive_update(state, samples[4])
    results = run_monte_carlo(model, {name: p.apply for name, p in prepared.items()}, 20, 3)
    assert set(results) == set(prepared)


BAD_SCALARS = {
    "peach degree -1": (lambda model: es.prepare(model, "peach", -1), InvalidDegree),
    "wpeach degree None": (lambda model: es.prepare(model, "wpeach"), InvalidDegree),
    "wpeach degree 2.5": (lambda model: es.make_wpeach(model, 2.5), InvalidDegree),
    "peach alpha 0": (lambda model: es.make_peach(model, 2, 0.0), InvalidScaling),
    "peach alpha nan": (lambda model: es.make_peach(model, 2, np.nan), InvalidScaling),
    "wpeach alpha_w -1": (lambda model: es.make_wpeach(model, 2, -1.0), InvalidScaling),
    "peach_mse degree -1": (lambda model: es.peach_mse(model, -1, 0.1), InvalidDegree),
    "peach_mse alpha inf": (lambda model: es.peach_mse(model, 2, np.inf), InvalidScaling),
    "wpeach_mse_optimal degree None": (lambda model: es.wpeach_mse_optimal(model, None), InvalidDegree),
    "mismatched degree -1": (lambda model: es.mismatched_mse(model, np.eye(model.dims.n), -1), InvalidDegree),
}


@pytest.mark.parametrize("dense", [False, True], ids=["correlated", "dense"])
@pytest.mark.parametrize("call, error", BAD_SCALARS.values(), ids=BAD_SCALARS.keys())
def test_bad_polynomial_scalars_are_rejected_before_the_spectrum(monkeypatch, call, error, dense):
    # a bad degree or scaling raises its typed error before any eigensolver runs, cold limit cache included
    model = correlated_model(Dims(20, 4, 4), 5.0, (0.1, 0.1))
    model = replace(model) if dense else model
    correlated_limit.cache_clear()
    counts = {}
    count_eig_calls(monkeypatch, counts)
    with pytest.raises(error):
        call(model)
    assert counts == {"eigh": 0, "eigvalsh": 0}
