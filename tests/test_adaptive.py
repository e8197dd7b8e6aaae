import dataclasses
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from peachsim import adaptive
from peachsim import model as model_module
from peachsim import estimators as es
from peachsim.adaptive import (
    AdaptiveState,
    _quad_forms,
    adaptive_init,
    adaptive_update,
    shrinkage_covariance,
    shrinkage_kappa,
)
from peachsim.errors import (IllConditionedWeights, InsufficientSamples, InvalidParameter, NonFiniteObservation,
                             NotPositiveSemiDefinite, ShapeError, WindowSizeError)
from peachsim.model import (
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
        state = adaptive_init(model, degree, alpha_w, [y] * window)
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
        state = adaptive_init(model, 2, 0.1, [y])
        assert len(state.window) == 1

    @pytest.mark.parametrize("warmup", [lambda m: [], lambda m: np.zeros((m, 0))], ids=["list", "block"])
    def test_empty_window_rejected(self, warmup):
        # the window length is the warmup's, so an empty warmup is a zero-length window
        model = tracking_model()
        with pytest.raises(WindowSizeError):
            adaptive_init(model, 2, 0.1, warmup(model.dims.m))

    @pytest.mark.parametrize("shape", [lambda m: (m,), lambda m: (m, 2, 3), lambda m: (m + 1, 4)],
                             ids=["sample", "3-d", "long"])
    def test_warmup_array_must_be_a_block(self, shape):
        # an array warmup is one (m, k) block of k samples
        model = tracking_model()
        with pytest.raises(ShapeError):
            adaptive_init(model, 2, 0.1, np.zeros(shape(model.dims.m), dtype=complex))

    @pytest.mark.parametrize("feeding", [lambda block: list(block.T), lambda block: block], ids=["list", "block"])
    def test_zero_deviation_warmup_raises(self, feeding):
        # observations at the mean have zero quadratic forms, so the first
        # system is zero and no weights can be solved
        model = desk_model()
        at_mean = np.tile(model.y_mean()[:, None], (1, 8))
        with pytest.raises(IllConditionedWeights):
            adaptive_init(model, 3, es.default_alpha_w(model), feeding(at_mean))

    def test_windowed_system_approaches_exact_system(self):
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        degree, window = 4, 200
        ws = wpeach_weight_system(model, degree, alpha_w)
        stream_rng = np.random.default_rng(2024)
        state = adaptive_init(model, degree, alpha_w, draw_stream(model, stream_rng, window))
        rel = np.linalg.norm(state.a_approx - ws.a_mat) / np.linalg.norm(ws.a_mat)
        assert rel < 0.15

    def test_exact_first_entry_for_identity_pilot(self):
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        ws = wpeach_weight_system(model, 3, alpha_w)
        state = adaptive_init(model, 3, alpha_w, draw_stream(model, np.random.default_rng(0), 4))
        assert_allclose(state.b_approx[0], ws.b_vec[0], rtol=1e-12)

    def test_exact_first_entry_for_general_pilot(self, rng):
        dims = Dims(3, 2, 2)
        pilot = complex_vector(rng, 4).reshape(2, 2)
        model = stat_model_from_pilot(dims, None, random_hermitian_psd(rng, dims.n), None, pilot)
        pe = model.pilot_ext
        exact = float(np.trace(pe @ model.r_cov @ model.r_cov @ pe.conj().T).real)
        state = adaptive_init(model, 2, 0.3, [complex_vector(rng, dims.m)])
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
        state = adaptive_init(model, degree, alpha_w, warmup)
        assert np.linalg.norm(state.a_approx - ws.a_mat) / np.linalg.norm(ws.a_mat) < 0.1


class TestAdaptiveUpdate:
    def test_same_sample_in_and_out_is_a_no_op(self, rng):
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        warmup = draw_stream(model, np.random.default_rng(3), 6)
        state = adaptive_init(model, 3, alpha_w, warmup)
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
        state = adaptive_init(model, degree, alpha_w, first)
        for y in second:
            adaptive_update(state, y)
        fresh = adaptive_init(model, degree, alpha_w, second)
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
        state = adaptive_init(model, degree, alpha_w, seen)
        for k in range(1, 2 * window + 2):
            seen.append(draw_stream(model, gen, 1)[0])
            adaptive_update(state, seen[-1])
            if k in (1, 3, window - 1, window + 3, 2 * window + 1):
                current = seen[-window:]
                fresh = adaptive_init(model, degree, alpha_w, current)
                for got, want in ((state.a_approx, fresh.a_approx), (state.b_approx, fresh.b_approx)):
                    assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)

    def test_no_drift_over_long_streams(self):
        # the system is formed from the window record alone, so after any
        # number of updates it equals a fresh fill of the same window bit for bit
        model = tracking_model()
        alpha_w = es.default_alpha_w(model)
        degree, window = 3, 8
        stream = draw_stream(model, np.random.default_rng(31), window + 2000)
        state = adaptive_init(model, degree, alpha_w, stream[:window])
        for y in stream[window:]:
            adaptive_update(state, y)
        fresh = adaptive_init(model, degree, alpha_w, stream[-window:])
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
            state = adaptive_init(model, degree, alpha_w, draw_stream(model, gen, window))
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
                state = adaptive_init(model, degree, alpha_w, draw_stream(model, gen, window))
                errors.append(np.linalg.norm(state.a_approx - ws.a_mat) / np.linalg.norm(ws.a_mat))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]

    # one zero sample, or a block of three, on a window of zero forms
    @pytest.mark.parametrize("columns", [(), (3,)], ids=["sample", "block"])
    def test_fallback_keeps_previous_weights(self, columns):
        model = tracking_model()
        state = AdaptiveState(
            model=model,
            degree=1,
            alpha_w=0.1,
            b1=1.0,
            window=deque([np.zeros(3)] * 2, maxlen=2),
            weights=np.array([1.0, 2.0], dtype=complex),
        )
        weights = adaptive_update(state, np.zeros((model.dims.m, *columns), dtype=complex))
        assert state.fallback
        assert_allclose(weights, [1.0, 2.0])


def desk_model():
    """The adaptive scenario's model at desk scale, m = 80."""
    return correlated_model(Dims(20, 4, 4), 5.0, ())


FEEDING_MODELS = {"tracking": tracking_model, "desk": desk_model}


class CountingMatrix:
    """Stands in for ``model.z`` and counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __matmul__(self, other):
        self.products += 1
        return self.matrix @ other


class TestBlockFeeding:
    """A block of observations enters the window as its columns would one by one."""

    @pytest.mark.parametrize("name", FEEDING_MODELS)
    def test_block_and_sample_feeding_agree(self, name):
        model = FEEDING_MODELS[name]()
        alpha_w = es.default_alpha_w(model)
        degree, window = 4, 16
        rng = np.random.default_rng(41)
        first = model.draw(rng, window)[1]
        second = model.draw(rng, window + 9)[1]
        by_block = adaptive_init(model, degree, alpha_w, first)
        adaptive_update(by_block, second)
        by_sample = adaptive_init(model, degree, alpha_w, list(first.T))
        for y in second.T:
            adaptive_update(by_sample, y)
        for got, want in ((by_block.a_approx, by_sample.a_approx), (by_block.b_approx, by_sample.b_approx)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert np.linalg.norm(by_block.weights - by_sample.weights) <= 1e-12 * np.linalg.norm(by_sample.weights)
        assert by_block.fallback == by_sample.fallback

    @pytest.mark.parametrize("name", FEEDING_MODELS)
    def test_no_drift_over_one_block_window(self, name):
        # the block form of the no-drift test: a window slid through one
        # window-long block equals a fresh fill from that block bit for bit
        model = FEEDING_MODELS[name]()
        alpha_w = es.default_alpha_w(model)
        degree, window = 3, 12
        rng = np.random.default_rng(43)
        first, second = model.draw(rng, window)[1], model.draw(rng, window)[1]
        state = adaptive_init(model, degree, alpha_w, first)
        adaptive_update(state, second)
        fresh = adaptive_init(model, degree, alpha_w, second)
        assert np.array_equal(state.a_approx, fresh.a_approx)
        assert np.array_equal(state.b_approx, fresh.b_approx)
        assert np.array_equal(state.weights, fresh.weights)

    @pytest.mark.parametrize("name", FEEDING_MODELS)
    def test_list_warmup_rows_are_the_single_sample_forms(self, name):
        # a list warmup keeps one chain per sample, so each window row is the
        # row a single update of that sample appends, bit for bit; stacked
        # into a block, some rows would round differently
        model = FEEDING_MODELS[name]()
        degree = 3
        samples = list(model.draw(np.random.default_rng(45), 8)[1].T)
        state = adaptive_init(model, degree, es.default_alpha_w(model), samples)
        assert len(state.window) == len(samples)
        for row, y in zip(state.window, samples):
            assert np.array_equal(row, _quad_forms(model, degree, y))

    def test_empty_block_leaves_the_state_unchanged(self):
        model = tracking_model()
        state = adaptive_init(model, 3, es.default_alpha_w(model), draw_stream(model, np.random.default_rng(5), 6))
        rows, weights = [id(row) for row in state.window], state.weights
        assert adaptive_update(state, np.zeros((model.dims.m, 0), dtype=complex)) is weights
        assert [id(row) for row in state.window] == rows and not state.fallback

    @pytest.mark.parametrize("k", [1, 3, 8, 20])
    def test_one_chain_of_2l_z_products_per_call(self, k, monkeypatch):
        # a block costs one chain of 2L products with the model's operator
        # for z whatever its width, and a list one chain per sample: real
        # products with z_real on a correlated model, which forms no complex
        # z, and products with z on its dense twin
        model = tracking_model()
        dense = dataclasses.replace(model)
        counter = vars(dense)["z"] = CountingMatrix(dense.z)
        real_products = []
        real_product = model_module._real_product

        def counting_real_product(s, x):
            real_products.append(x.shape)
            return real_product(s, x)

        monkeypatch.setattr(model_module, "_real_product", counting_real_product)
        degree = 3
        block = model.draw(np.random.default_rng(k), k)[1]
        for stats, products in ((model, lambda: len(real_products)), (dense, lambda: counter.products)):
            state = adaptive_init(stats, degree, 0.1, block)
            assert products() == 2 * degree
            adaptive_update(state, block)
            assert products() == 4 * degree
            adaptive_init(stats, degree, 0.1, list(block.T))
            assert products() == (4 + 2 * k) * degree
        assert "z" not in vars(model)
        assert real_products == [(model.dims.m, k)] * 4 * degree + [(model.dims.m, 1)] * 2 * k * degree


class TestOneStepPerCall:
    """A call slides the window once, by all its columns, and solves the weight system once."""

    @pytest.mark.parametrize("k", [1, 3, 8, 20])
    def test_one_weight_solve_per_call(self, k, monkeypatch):
        solves = []
        solve_sampled = adaptive._solve_sampled

        def counting_solve(state):
            solves.append(len(state.window))
            return solve_sampled(state)

        monkeypatch.setattr(adaptive, "_solve_sampled", counting_solve)
        model = tracking_model()
        block = model.draw(np.random.default_rng(k), k)[1]
        state = adaptive_init(model, 3, 0.1, block)
        assert len(solves) == 1
        adaptive_update(state, block)
        assert len(solves) == 2
        adaptive_update(state, block[:, 0])
        assert len(solves) == 3
        adaptive_init(model, 3, 0.1, list(block.T))
        assert len(solves) == 4

    def test_failed_solve_keeps_the_weights_from_before_the_call(self):
        # a window-long block at the mean leaves a window of zero forms, whose
        # one solve fails; the call keeps the weights it started with
        model = desk_model()
        window = 8
        state = adaptive_init(model, 3, es.default_alpha_w(model), model.draw(np.random.default_rng(47), window)[1])
        before = state.weights.copy()
        assert not state.fallback
        weights = adaptive_update(state, np.tile(model.y_mean()[:, None], (1, window)))
        assert state.fallback
        assert np.array_equal(weights, before) and np.array_equal(state.weights, before)


def ridged_system(state):
    """The system the tracker solves: the windowed system plus its ridge, as complex arrays."""
    a_mat, b_vec = state.a_approx, state.b_approx
    ridge = (adaptive.SAMPLED_RIDGE_SCALE / np.sqrt(state.window_len)) * np.diag(np.clip(np.diag(a_mat), 0.0, None))
    return (a_mat + ridge).astype(complex), b_vec.astype(complex)


class TestOneRegularizer:
    """The ridge is the tracker's one regularizer: the weights are one plain solve of the ridged system."""

    @pytest.mark.parametrize(
        ("degree", "window", "snr_db", "betas", "seed"),
        [
            (4, 1, 5.0, (), 0),
            (4, 16, 5.0, (), 1),
            (4, 100, 40.0, (1.0, 1.0), 2),
            # a one-sample window whose ridged system has condition number 1.2e14
            (12, 1, 40.0, (1.0, 1.0), 18),
            (12, 16, 40.0, (1.0, 1.0), 3),
            (12, 100, 5.0, (0.1, 0.1), 4),
        ],
    )
    def test_weights_are_one_solve_of_the_ridged_system(self, degree, window, snr_db, betas, seed):
        model = correlated_model(Dims(20, 4, 4), snr_db, betas)
        block = model.draw(np.random.default_rng(seed), window)[1]
        state = adaptive_init(model, degree, es.default_alpha_w(model), block)
        assert np.array_equal(state.weights, np.linalg.solve(*ridged_system(state)))

    @given(
        name=st.sampled_from(["desk", "tracking"]),
        snr_db=st.sampled_from([-10.0, 0.0, 20.0, 40.0, 60.0]),
        betas=st.sampled_from([(), (0.1, 0.1), (1.0, 1.0)]),
        degree=st.integers(min_value=0, max_value=12),
        window=st.integers(min_value=16, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_ridge_bounds_the_condition_number_from_16_samples(self, name, snr_db, betas, degree, window, seed):
        # the premise of solving without a condition-number guard
        model = tracking_model(snr_db, betas) if name == "tracking" else correlated_model(Dims(20, 4, 4), snr_db, betas)
        block = model.draw(np.random.default_rng(seed), window)[1]
        state = adaptive_init(model, degree, es.default_alpha_w(model), block)
        assert np.linalg.cond(ridged_system(state)[0]) < 1e6


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
                est = shrinkage_covariance(samples, c_true=c_true)
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

    @pytest.mark.parametrize("oracle", [False, True], ids=["plug-in", "c_true"])
    def test_estimate_is_exactly_hermitian(self, rng, oracle):
        c_true = random_hermitian_psd(rng, 6, eig_lo=0.1, eig_hi=2.0)
        est = shrinkage_covariance(self.draw(rng, c_true, 10), c_true=c_true if oracle else None)
        assert 0.0 < est.kappa < 1.0
        assert np.array_equal(est.c_hat, est.c_hat.conj().T)

    @pytest.mark.parametrize("c_true", [1.0, np.eye(3), np.eye(4)[None]])
    def test_rejects_c_true_not_shaped_like_the_sample_covariance(self, rng, c_true):
        # a scalar would broadcast silently, a wrong matrix shape fail untyped
        with pytest.raises(ShapeError):
            shrinkage_covariance(self.draw(rng, np.eye(4, dtype=complex), 10), c_true=c_true)

    @pytest.mark.parametrize("case", ["not-hermitian", "negative", "nan"])
    def test_rejects_c_true_that_is_not_hermitian_psd(self, rng, case):
        # a kappa scored against a matrix that is no covariance would mean nothing
        c_true = {
            "not-hermitian": np.eye(4) + np.triu(np.ones((4, 4)), 1),
            "negative": -np.eye(4),
            "nan": np.full((4, 4), np.nan),
        }[case]
        with pytest.raises(NotPositiveSemiDefinite):
            shrinkage_covariance(self.draw(rng, np.eye(4, dtype=complex), 10), c_true=c_true)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("oracle", [False, True], ids=["plug-in", "c_true"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imaginary-inf"])
    def test_rejects_a_sample_that_is_not_finite(self, rng, bad, oracle):
        # checked before the sample covariance, whose product would warn on inf, and the risk terms it feeds
        samples = self.draw(rng, np.eye(4, dtype=complex), 10)
        samples[3, 2] = bad
        with pytest.raises(NonFiniteObservation, match="samples"):
            shrinkage_covariance(samples, c_true=np.eye(4) if oracle else None)

    @pytest.mark.parametrize("oracle", [False, True], ids=["plug-in", "c_true"])
    @pytest.mark.parametrize("scale", [1e200, 1e100], ids=["covariance", "risk"])
    def test_rejects_samples_whose_covariance_or_risk_overflows(self, scale, oracle):
        # finite samples whose sample covariance (1e400) or fourth moments and squared norm (1e400) overflow the
        # float range: a typed error naming them, with no numpy warning first (RuntimeWarning is an error here)
        with pytest.raises(InvalidParameter, match="samples overflow the float range"):
            shrinkage_covariance(scale * np.ones((3, 8), complex), c_true=np.eye(8) if oracle else None)

    def test_requires_two_samples(self, rng):
        with pytest.raises(InsufficientSamples):
            shrinkage_covariance(complex_vector(rng, 4).reshape(1, 4))
        with pytest.raises(InsufficientSamples):
            shrinkage_covariance(complex_vector(rng, 4))

