import numpy as np
import pytest

from peachsim import analysis
from peachsim import estimators as es
from peachsim.errors import InvalidParameter, NotPositiveSemiDefinite, SingularLimit, UnsupportedEstimator
from peachsim.model import Dims, correlated_limit, correlated_model

from conftest import random_hermitian_psd, random_model
from oracles import contaminated_floors, correlated_contamination, noise_limited_floors, summed_covariance


def square_flop_model(m, q=50.0, tau_s=5.0, t_tot=5.0):
    # b = n_t = 1 makes the observation and channel dimensions both equal m
    return analysis.FlopModel(dims=Dims(m, 1, 1), tau_s=tau_s, tau_c=tau_s / q, t_tot=t_tot)


def table_flops(kind, m, k_c, k_s, degree=None):
    """Simplified square-dimension FLOP table used as an independent oracle."""
    if kind == "mmse":
        return k_c * (2 * m**2 - m) + k_s * (16 / 3 * m**3 + 1.5 * m**2 - 1.5 * m)
    if kind == "mvu":
        return k_c * (2 * m**2 - m) + k_s * (17 / 3 * m**3 + 0.5 * m**2 - 0.5 * m)
    if kind == "peach":
        return k_c * ((8 * degree + 4) * m**2 - (4 * degree + 2) * m) + k_s * (2 * m**2 - m)
    if kind == "wpeach":
        return k_c * (
            (16 * degree + 8) * m**2
            - (4 * degree + 2) * m
            + degree**3 / 3
            + 3 * degree**2
            + 3 * degree
            + 4 / 3
        ) + k_s * (2 * m**2 - m)
    raise AssertionError(kind)


class TestFlopModel:
    def test_rate_consistency(self):
        fm = analysis.FlopModel(dims=Dims(4, 2, 2), tau_s=5.0, tau_c=0.1, t_tot=20.0)
        assert fm.q_ratio == pytest.approx(50.0)
        assert abs(fm.k_c - fm.q_ratio * fm.k_s) < 1e-12 * fm.k_c

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            analysis.FlopModel(dims=Dims(4, 2, 2), tau_s=0.0, tau_c=0.1, t_tot=1.0)


class TestFlops:
    def test_degree_zero_without_realizations_leaves_epoch_term(self):
        # tau_c -> infinity freezes the channel, so only the per-epoch part remains
        fm = analysis.FlopModel(dims=Dims(5, 2, 3), tau_s=1.0, tau_c=np.inf, t_tot=1.0)
        assert fm.k_c == 0.0
        m, n = fm.dims.m, fm.dims.n
        assert analysis.flops("peach", fm, degree=0) == pytest.approx(fm.k_s * m * (2 * n - 1))

    def test_general_formula_matches_square_table(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = int(rng.integers(2, 400))
            degree = int(rng.integers(0, 12))
            q = float(rng.uniform(1.0, 200.0))
            tau_s = float(rng.uniform(0.5, 20.0))
            t_tot = float(rng.uniform(1.0, 50.0))
            fm = square_flop_model(m, q, tau_s, t_tot)
            for kind in ("mmse", "mvu", "peach", "wpeach"):
                deg = degree if kind in ("peach", "wpeach") else None
                general = analysis.flops(kind, fm, deg)
                table = table_flops(kind, m, fm.k_c, fm.k_s, degree)
                assert abs(general - table) <= 1e-9 * table

    def test_published_square_table_value(self):
        # m = n = 100, degree 2, k_c = 50, k_s = 1
        fm = square_flop_model(100, q=50.0, tau_s=1.0, t_tot=1.0)
        expected = 50 * (20 * 100**2 - 10 * 100) + (2 * 100**2 - 100)
        assert analysis.flops("peach", fm, degree=2) == pytest.approx(expected, rel=1e-12)

    def test_unknown_kind(self):
        fm = square_flop_model(10)
        with pytest.raises(UnsupportedEstimator):
            analysis.flops("zf", fm)
        with pytest.raises(UnsupportedEstimator):
            analysis.flops("peach", fm)  # missing degree

    @pytest.mark.parametrize("kind", ["PEACH", "MMSE", "WPeach"])
    def test_kind_is_the_lower_case_table_name(self, kind):
        with pytest.raises(UnsupportedEstimator, match=repr(kind)):
            analysis.flops(kind, square_flop_model(10), 2)
        with pytest.raises(UnsupportedEstimator, match=repr(kind)):
            analysis.crossover_m(kind, 50.0, 2)


class TestCrossover:
    def test_published_thresholds(self):
        assert abs(analysis.crossover_m("peach", 50.0, 2) - 167) <= 2
        assert abs(analysis.crossover_m("wpeach", 50.0, 2) - 357) <= 2
        assert analysis.crossover_m("peach", 50.0, 2) == pytest.approx(168.75)
        assert analysis.crossover_m("wpeach", 50.0, 2) == pytest.approx(356.25)

    def test_static_statistics_limit(self):
        assert analysis.crossover_m("peach", 0.0, 5) == 0.0

    def test_threshold_predicts_flop_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = float(rng.uniform(5.0, 120.0))
            degree = int(rng.integers(0, 8))
            for kind in ("peach", "wpeach"):
                threshold = analysis.crossover_m(kind, q, degree)
                for m in (max(2, int(threshold) - 10), max(2, int(threshold) + 10)):
                    fm = square_flop_model(m, q=q)
                    cheaper = analysis.flops(kind, fm, degree) < analysis.flops("mmse", fm)
                    if m > threshold + 2:
                        assert cheaper
                    elif m < threshold - 2:
                        assert not cheaper

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedEstimator):
            analysis.crossover_m("mmse", 50.0, 2)


class TestFloorNoiseLimited:
    def test_identity_covariance_floors_vanish(self):
        floors = noise_limited_floors(np.eye(6), 3)
        assert floors.peach == pytest.approx(0.0, abs=1e-12)
        assert floors.wpeach == pytest.approx(0.0, abs=1e-12)

    def test_degree_zero_identity(self):
        floors = noise_limited_floors(np.eye(4), 0)
        assert floors.wpeach == pytest.approx(0.0, abs=1e-12)

    def test_exact_estimators_have_zero_floors(self, rng):
        # one record for the five estimators, in the sweep tables' row order
        floors = noise_limited_floors(random_hermitian_psd(rng, 6, eig_lo=0.1, eig_hi=3.0), 3)
        assert floors._fields == es.NAMES
        assert (floors.mmse, floors.mvu, floors.diagonalized) == (0.0, 0.0, 0.0)
        assert floors.peach > 0.0 and floors.wpeach > 0.0

    def test_high_power_mses_reach_floors(self, rng):
        # the closed-form MSEs at pilot power 1e6 sit on the floors within 1%
        model = correlated_model(Dims(6, 2, 2), 60.0, ())
        degree = 6
        alpha = es.alpha_optimal(es.z_matrix(model))
        floors = noise_limited_floors(model.r_cov, degree)
        peach_now = es.peach_mse(model, degree, alpha)
        wpeach_now = es.wpeach_mse_optimal(model, degree)
        assert abs(peach_now - floors.peach) < 0.01 * floors.peach
        assert abs(wpeach_now - floors.wpeach) < 0.01 * floors.wpeach

    def test_bounded_and_monotone_in_degree(self, rng):
        r_cov = random_hermitian_psd(rng, 8, eig_lo=0.1, eig_hi=3.0)
        trace_r = float(np.trace(r_cov).real)
        previous = np.inf
        for degree in range(8):
            floors = noise_limited_floors(r_cov, degree)
            assert -1e-10 <= floors.peach <= trace_r + 1e-10
            assert -1e-10 <= floors.wpeach <= trace_r + 1e-10
            assert floors.peach <= previous + 1e-10
            previous = floors.peach

    def test_singular_channel_covariance_supported(self, rng):
        r_cov = np.diag([2.0, 1.0, 0.0, 0.0]).astype(complex)
        floors = noise_limited_floors(r_cov, 2)
        assert np.isfinite(floors.peach) and np.isfinite(floors.wpeach)


class TestFloorContaminated:
    def test_identity_closed_form(self):
        n, k, beta = 6, 2, 0.4
        floors = contaminated_floors(np.eye(n), k * beta * np.eye(n), 3)
        assert floors._fields == es.NAMES
        assert floors.mmse == pytest.approx(n * k * beta / (1.0 + k * beta), rel=1e-12)
        # the unbiased estimator's variance tends to trace(sum_interf)
        assert floors.mvu == pytest.approx(n * k * beta, rel=1e-12)

    def test_diagonal_case_equals_mmse_floor(self, rng):
        r_diag = np.diag(rng.uniform(0.3, 2.0, 5))
        s_diag = np.diag(rng.uniform(0.1, 1.0, 5))
        floors = contaminated_floors(r_diag, s_diag, 4)
        assert floors.diagonalized == pytest.approx(floors.mmse, rel=1e-12)

    def test_high_power_mses_reach_floors(self):
        dims = Dims(6, 2, 2)
        betas = (0.4, 0.8)
        model = correlated_model(dims, 60.0, betas)
        degree = 6
        alpha = es.alpha_optimal(es.z_matrix(model))
        sum_interf = summed_covariance(correlated_contamination(model.dims, betas))
        floors = contaminated_floors(model.r_cov, sum_interf, degree)
        assert abs(es.mmse_mse(model) - floors.mmse) < 0.01 * floors.mmse
        assert abs(es.diag_mse(model) - floors.diagonalized) < 0.01 * floors.diagonalized
        assert abs(es.peach_mse(model, degree, alpha) - floors.peach) < 0.01 * floors.peach
        assert abs(es.wpeach_mse_optimal(model, degree) - floors.wpeach) < 0.01 * floors.wpeach

    def test_monotone_in_interference_power(self):
        r_cov = np.eye(5)
        previous = -1.0
        for beta in (0.1, 0.3, 1.0, 3.0):
            floors = contaminated_floors(r_cov, beta * np.eye(5), 2)
            assert floors.mmse >= previous - 1e-12
            previous = floors.mmse

    def test_singular_limit_raises(self):
        r_cov = np.diag([1.0, 0.0]).astype(complex)
        sum_interf = np.zeros((2, 2))
        with pytest.raises(SingularLimit):
            contaminated_floors(r_cov, sum_interf, 2)

    @pytest.mark.filterwarnings("error")
    def test_finite_diagonals_whose_floors_overflow_are_typed(self):
        # r_diag**2 overflows in the diagonalized floor: a typed error, with no numpy warning first
        limit = correlated_limit(Dims(2, 3, 3), (0.1,))
        with pytest.raises(InvalidParameter, match="r_diag"):
            analysis.floor_contaminated(limit, 1e306 * np.ones(6), np.full(6, 0.1), 2)

    @pytest.mark.parametrize("name", ["r_diag", "s_diag"])
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_rejects_a_diagonal_that_no_covariance_has(self, name, bad):
        # unchecked, each would give a floor that means nothing, such as mvu = -6.0 for s_diag = -1
        limit = correlated_limit(Dims(2, 3, 3), (0.1,))
        diags = {"r_diag": np.ones(6), "s_diag": np.full(6, 0.1)}
        diags[name][4] = bad
        with pytest.raises(NotPositiveSemiDefinite, match=name):
            analysis.floor_contaminated(limit, degree=2, **diags)


class TestNormalizedMse:
    # the normalized MSE mse / trace(r) that every table reports
    def test_mmse_normalized_below_one(self, rng):
        for _ in range(5):
            model = random_model(rng)
            assert es.mmse_mse(model) / float(np.trace(model.r_cov).real) <= 1.0 + 1e-12
