"""A correlated model's tracker and sampler run on its structure, with no complex m x m array.

The tracker's chain of ``2L`` products runs in the real form of ``z``
(:meth:`StatModel.z_operator`), and ``b1`` reads the Kronecker factors.  The
channel is drawn through ``chol(R_t) (x) chol(R_r)``, the Cholesky factor of
``r_cov``, and a model without a positive-power interferer draws its
disturbance as ``sqrt(noise_var)`` times the standard draw, the bytes of the
dense factor's product.  The dense twin (``dataclasses.replace``) keeps the
dense path and is the reference.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from peachsim import estimators as es
from peachsim.adaptive import _quad_forms, adaptive_init, adaptive_update
from peachsim.model import FACTORED_MIN, Dims, correlated_model, psd_factor, standard_complex_normal

from conftest import relative_error

# noise-limited, with zero-power interferers, and contaminated; an even n, an odd n and three interferers
MODELS = {
    "desk": (Dims(20, 4, 4), (), 1.0),
    "desk-noise": (Dims(20, 4, 4), (), 0.3),
    "zero-power": (Dims(20, 4, 4), (0.0, 0.0), 2.5),
    "desk-contaminated": (Dims(20, 4, 4), (0.1, 0.1), 1.0),
    "odd": (Dims(5, 3, 3), (), 1.7),
    "odd-contaminated": (Dims(5, 3, 3), (0.1, 0.1), 1.0),
    "three-contaminated": (Dims(7, 3, 3), (0.1, 0.2, 0.3), 0.6),
}
NOISE_LIMITED = ("desk", "desk-noise", "zero-power", "odd")
DENSE_ARRAYS = ("r_cov", "s_cov", "z", "r_factor", "s_factor", "z_factor")


def make(name, gamma_db=10.0):
    dims, betas, noise_var = MODELS[name]
    return correlated_model(dims, gamma_db, betas, noise_var=noise_var)


def twin(name, gamma_db=10.0):
    # the dense twin of a second instance: replace reads r_cov and s_cov, which would form them on the first
    return replace(make(name, gamma_db))


@pytest.mark.parametrize("name", MODELS)
def test_channel_draws_are_the_cholesky_factor_of_r(name):
    # chol(R_t) (x) chol(R_r) is lower triangular with a positive diagonal, so it is chol(r_cov)
    model = make(name)
    factor = np.kron(*model._channel_factors)
    assert relative_error(factor, np.linalg.cholesky(model.r_cov)) <= 1e-13
    h = model.draw_channel(np.random.default_rng(3), 9)
    w = standard_complex_normal(np.random.default_rng(3), model.dims.n, 9)
    assert relative_error(h, factor @ w) <= 1e-14
    assert np.array_equal(model.draw(np.random.default_rng(3), 9)[0], h)


@pytest.mark.parametrize("name", NOISE_LIMITED)
@pytest.mark.parametrize("count", [1, 7])
def test_noise_limited_disturbance_is_the_dense_factor_product_bit_for_bit(name, count):
    # the channel takes the first n x count normals of the stream, the disturbance the next m x count
    model = make(name)
    h, y = model.draw(np.random.default_rng(11), count)
    rng = np.random.default_rng(11)
    standard_complex_normal(rng, model.dims.n, count)
    noise = psd_factor(model.s_cov) @ standard_complex_normal(rng, model.dims.m, count)
    assert np.array_equal(y, model.apply_pilot(h) + noise)


@pytest.mark.parametrize("name", ["desk-contaminated", "odd-contaminated", "three-contaminated"])
def test_contaminated_disturbance_reads_the_s_cov_factor(name):
    model = make(name)
    h, y = model.draw(np.random.default_rng(13), 5)
    rng = np.random.default_rng(13)
    standard_complex_normal(rng, model.dims.n, 5)
    assert np.array_equal(y, model.apply_pilot(h) + model.s_factor @ standard_complex_normal(rng, model.dims.m, 5))


@pytest.mark.parametrize("name", MODELS)
def test_sampling_forms_no_channel_covariance(name):
    model = make(name)
    model.draw(np.random.default_rng(1), 4)
    model.draw_channel(np.random.default_rng(2), 4)
    formed = {key for key in DENSE_ARRAYS if key in vars(model)}
    assert formed == (set() if name in NOISE_LIMITED else {"s_cov", "s_factor"})


@pytest.mark.parametrize("name", MODELS)
def test_b1_is_the_dense_energy(name):
    model, dense = make(name), twin(name)
    assert model.pilot_r_energy() == pytest.approx(dense.pilot_r_energy(), rel=1e-13)
    assert dense.pilot_r_energy() == pytest.approx(np.linalg.norm(dense.pilot_ext @ dense.r_cov) ** 2, rel=1e-13)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("shape, order", [((), "C"), ((1,), "C"), ((6,), "C"), ((6,), "F")],
                         ids=["vector", "column", "block", "fortran-block"])
def test_quadratic_forms_match_the_dense_twin(name, shape, order):
    model, dense = make(name), twin(name)
    y = model.draw(np.random.default_rng(17), 6)[1]
    y = y[:, 0] if shape == () else np.asarray(y[:, : shape[0]], order=order)
    for degree in (0, 1, 4):
        got, want = _quad_forms(model, degree, y), _quad_forms(dense, degree, y)
        assert got.shape == want.shape == (*shape, 2 * degree + 1)
        assert relative_error(got, want) <= 1e-12
    assert not {key for key in DENSE_ARRAYS if key in vars(model)} - {"s_cov", "s_factor"}


@pytest.mark.parametrize("name", MODELS)
def test_tracker_matches_the_dense_twin_and_forms_no_complex_z(name):
    model, dense = make(name, 5.0), twin(name, 5.0)
    alpha_w = es.default_alpha_w(dense)
    rng = np.random.default_rng(19)
    first, second = model.draw(rng, 24)[1], model.draw(rng, 24)[1]
    states = []
    for stats in (model, dense):
        state = adaptive_init(stats, 3, alpha_w, first)
        adaptive_update(state, second)
        states.append(state)
    assert states[0].b1 == pytest.approx(states[1].b1, rel=1e-13)
    assert relative_error(states[0].a_approx, states[1].a_approx) <= 1e-12
    assert relative_error(states[0].weights, states[1].weights) <= 1e-9
    assert not {"r_cov", "z", "r_factor", "z_factor"} & set(vars(model))


@pytest.mark.parametrize("dims", [Dims(40, 10, 10), Dims(100, 10, 10)], ids=["m400", "m1000"])
def test_cold_tracker_and_draws_peak_below_one_complex_m_by_m_array(dims):
    # two 16-column draws, a cold adaptive_init and one update.  Below FACTORED_MIN the chain forms the real form
    # z_real, half an array, from row blocks; at m = 1000 it applies z through the factors' real forms and forms
    # no m x m array.  Forming z, r_cov, s_cov or a dense factor would alone reach one array
    model = correlated_model(dims, 10.0, ())
    alpha_w = es.default_alpha_w(model)
    rng = np.random.default_rng(23)
    tracemalloc.start()
    try:
        first, second = model.draw(rng, 16)[1], model.draw(rng, 16)[1]
        state = adaptive_init(model, 4, alpha_w, first)
        adaptive_update(state, second)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * dims.m**2
    assert ("z_real" in vars(model)) == (dims.m < FACTORED_MIN) and not set(DENSE_ARRAYS) & set(vars(model))


@pytest.mark.parametrize("shape", [(400, 100), (7,), (80, 512)], ids=["400x100", "7", "80x512"])
def test_standard_draw_keeps_its_bytes(shape):
    # filled in place, real parts first, then divided as (a + 1j * b) / sqrt(2) is
    draw = standard_complex_normal(np.random.default_rng(41), *shape)
    rng = np.random.default_rng(41)
    assert draw.tobytes() == ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)).tobytes()


@pytest.mark.parametrize("shape", [(400, 100), (80, 512)], ids=["400x100", "80x512"])
def test_standard_draw_peaks_at_one_real_draw_above_its_result(shape):
    # one real draw above the returned complex array, 1.5 times it
    rng = np.random.default_rng(41)
    tracemalloc.start()
    try:
        draw = standard_complex_normal(rng, *shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * draw.nbytes
