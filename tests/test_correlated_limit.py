"""The correlated model's structured spectrum against the dense ``eigh`` of z.

:func:`peachsim.model.correlated_limit` decomposes ``r + sum_i beta_i R_i``
once (or multiplies the Kronecker factors' spectra without interference), and
a correlated model maps it affinely to the spectrum of ``z``.  A model derived
by ``dataclasses.replace`` drops that structure and decomposes ``z`` densely:
that path is the oracle here.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from peachsim import analysis
from peachsim import estimators as es
from peachsim.adaptive import _quad_forms
from peachsim.cli import _floors, default_config, main
from peachsim.errors import InvalidCorrelation, InvalidParameter, NotPositiveSemiDefinite
from peachsim.model import (
    DEFAULT_CORRELATION,
    Dims,
    KroneckerModel,
    SpatialCorrelation,
    _correlated_terms,
    _limit_real_form,
    check_hermitian_psd,
    correlated_limit,
    correlated_model,
    exp_correlation_matrix,
    identity_pilot,
    stat_model_from_pilot,
)

from conftest import count_eig_calls
from oracles import (
    centro_unitary,
    contaminated_floors,
    correlated_contamination,
    dense_spectrum,
    noise_limited_floors,
    summed_covariance,
)

DESK = Dims(20, 4, 4)
SHAPES = {"20x4": DESK, "5x3": Dims(5, 3, 3), "3x1": Dims(3, 1, 1)}
CORRELATIONS = {
    "default": DEFAULT_CORRELATION,
    "other": SpatialCorrelation(0.3 + 0.2j, -0.5 + 0.1j, (0.1j, 0.7), (0.2 - 0.6j, 0.5j)),
}
# a third interferer wraps around to the first coefficient pair, past a zero weight
BETAS = {"none": (), "zero": (0.0, 0.0), "0.1": (0.1, 0.1), "1": (1.0, 1.0), "cyclic": (1.0, 0.0, 0.7)}
# integer weights, one of them zero, which the build converts to floats
BUILD_BETAS = {**BETAS, "integer": (1, 0)}


@pytest.mark.parametrize("noise_var", [1.0, 0.5])
@pytest.mark.parametrize("betas", BETAS.values(), ids=BETAS.keys())
@pytest.mark.parametrize("gamma_db", [-10.0, 0.0, 10.0, 30.0])
def test_structured_spectrum_matches_dense_eigh(gamma_db, betas, noise_var):
    model = correlated_model(DESK, gamma_db, betas, noise_var=noise_var)
    dense = replace(model)
    assert isinstance(model, KroneckerModel) and not isinstance(dense, KroneckerModel)
    got, want = model.z_spectrum, dense.z_spectrum
    assert np.max(np.abs(got.lam - want.lam) / want.lam) <= 1e-12
    assert np.max(np.abs(got.phi - want.phi)) <= 1e-12 * np.max(want.phi)
    assert got.trace_r == want.trace_r
    assert es.mmse_mse(model) == pytest.approx(es.mmse_mse(dense), rel=1e-12, abs=0.0)
    for degree in (1, 4, 10):
        alpha = es.make_peach(dense, degree).alpha
        assert es.peach_mse(model, degree, alpha) == pytest.approx(es.peach_mse(dense, degree, alpha), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("noise_var", [1.0, 0.5])
@pytest.mark.parametrize("betas", BUILD_BETAS.values(), ids=BUILD_BETAS.keys())
@pytest.mark.parametrize("gamma_db", [-10.0, 0.0, 10.0, 30.0])
def test_build_from_factors_equals_the_densely_validated_build(gamma_db, betas, noise_var):
    # correlated_model checks no covariance; what it builds is exactly what
    # the generic path builds, and passes the generic path's dense check
    for dims in (DESK, SHAPES["5x3"]):
        model = correlated_model(dims, gamma_db, betas, noise_var=noise_var)
        r_t = exp_correlation_matrix(dims.n_t, DEFAULT_CORRELATION.desired_tx)
        r_r = exp_correlation_matrix(dims.n_r, DEFAULT_CORRELATION.desired_rx)
        pilot_power = noise_var * 10.0 ** (gamma_db / 10.0)
        generic = stat_model_from_pilot(
            dims, None, np.kron(r_t, r_r), None, identity_pilot(dims, pilot_power),
            correlated_contamination(dims, betas), noise_var
        )
        for name in ("r_cov", "s_cov", "pilot", "h_mean", "n_mean"):
            np.testing.assert_array_equal(getattr(model, name), getattr(generic, name))
        assert check_hermitian_psd(model.r_cov, "r_cov")[1]
        assert check_hermitian_psd(model.s_cov, "s_cov")[1]


@pytest.mark.parametrize("betas", [(), (0.1, 0.1), (1.0, 0.0, 0.7)], ids=["noise-limited", "contaminated", "cyclic"])
@pytest.mark.parametrize("first", ["r_cov", "s_cov", "z"])
def test_covariances_formed_on_first_read_are_the_generic_build_bytes(first, betas):
    # the build forms neither r_cov nor s_cov; whichever is read first, each
    # is formed once and has the bytes of the generic path on the same covariances
    dims, gamma_db = SHAPES["5x3"], 7.3
    model = correlated_model(dims, gamma_db, betas)
    assert "r_cov" not in vars(model) and "s_cov" not in vars(model)
    getattr(model, first)
    assert model.r_cov is model.r_cov and model.s_cov is model.s_cov
    r_cov = np.kron(exp_correlation_matrix(dims.n_t, DEFAULT_CORRELATION.desired_tx),
                    exp_correlation_matrix(dims.n_r, DEFAULT_CORRELATION.desired_rx))
    generic = stat_model_from_pilot(dims, None, r_cov, None, identity_pilot(dims, 10.0 ** (gamma_db / 10.0)),
                                    correlated_contamination(dims, betas))
    for name in ("r_cov", "s_cov", "z"):
        assert getattr(model, name).tobytes() == getattr(generic, name).tobytes(), name


@pytest.mark.parametrize("betas", [(), (0.1, 0.3), (1.0, 0.0, 0.7)], ids=["noise-limited", "contaminated", "cyclic"])
@pytest.mark.parametrize("gamma_db", [-10.0, 7.3, 30.0])
def test_summaries_read_off_the_terms_are_the_dense_ones(gamma_db, betas):
    # the diagonals and trace(r) as the dense matrices hold them, bit for bit;
    # the block traces of s_cov to rounding
    model = correlated_model(SHAPES["5x3"], gamma_db, betas, noise_var=0.7)
    dense = replace(model)
    r_diag, s_diag, interference = model.diagonals()
    assert r_diag.tobytes() == dense.diagonals()[0].tobytes()
    assert s_diag.tobytes() == dense.diagonals()[1].tobytes()
    summed = summed_covariance(correlated_contamination(model.dims, betas)) + np.zeros((model.dims.n, model.dims.n))
    assert np.array_equal(interference, np.diag(summed).real)
    assert model.trace_r == dense.trace_r == float(np.trace(dense.r_cov).real)
    want = dense.s_block_traces()
    assert np.max(np.abs(model.s_block_traces() - want)) <= 1e-14 * np.max(np.abs(want))


def dense_limit(dims, betas, correlation):
    """The limit ``r + sum_i beta_i R_i`` and ``r``, formed densely."""
    r_cov = correlated_model(dims, 0.0, betas, correlation).r_cov
    return r_cov + summed_covariance(correlated_contamination(dims, betas, correlation)), r_cov


@pytest.mark.parametrize("betas", [(0.1, 0.3), BETAS["cyclic"]], ids=["0.1-0.3", "cyclic"])
@pytest.mark.parametrize("correlation", CORRELATIONS.values(), ids=CORRELATIONS.keys())
@pytest.mark.parametrize("dims", SHAPES.values(), ids=SHAPES.keys())
def test_real_form_spectrum_matches_dense_eigh(dims, correlation, betas):
    # even n (20 x 4) and odd n (5 x 3, 3 x 1, with its middle unit column of K)
    limit, r_cov = dense_limit(dims, betas, correlation)
    got = correlated_limit(dims, betas, correlation)
    want = dense_spectrum(limit, r_cov, float(np.trace(r_cov).real))
    assert np.max(np.abs(got.lam - want.lam) / want.lam) <= 1e-12
    assert np.max(np.abs(got.phi - want.phi)) <= 1e-12 * np.max(want.phi)
    model = correlated_model(dims, 10.0, betas, correlation)
    got, want = model.z_spectrum, replace(model).z_spectrum
    assert np.max(np.abs(got.lam - want.lam) / want.lam) <= 1e-12
    assert np.max(np.abs(got.phi - want.phi)) <= 1e-12 * np.max(want.phi)


@pytest.mark.parametrize("correlation", CORRELATIONS.values(), ids=CORRELATIONS.keys())
@pytest.mark.parametrize("dims", SHAPES.values(), ids=SHAPES.keys())
def test_real_form_is_the_unitary_similarity(dims, correlation):
    # K = K_t (x) K_r, so the form is the weighted sum of the factors' forms S_t (x) S_r
    limit, _ = dense_limit(dims, (0.1, 0.3), correlation)
    k = np.kron(centro_unitary(dims.n_t), centro_unitary(dims.n_r))
    np.testing.assert_allclose(k.conj().T @ k, np.eye(dims.n), rtol=0.0, atol=1e-15)
    similar = k.conj().T @ limit @ k
    scale = np.linalg.norm(limit)
    assert np.linalg.norm(similar.imag) <= 1e-15 * scale
    real_form = _limit_real_form(_correlated_terms(dims, (0.1, 0.3), correlation))
    assert real_form.dtype == np.float64 and np.array_equal(real_form, real_form.T)
    assert np.linalg.norm(real_form - similar.real) <= 1e-15 * scale


@pytest.mark.parametrize("dims", [DESK, SHAPES["5x3"]], ids=["20x4", "5x3"])
@pytest.mark.parametrize("betas", [(), (0.1, 0.1)], ids=["noise-limited", "contaminated"])
def test_limit_runs_one_real_eigensolver(monkeypatch, betas, dims):
    # every m x m eigensolver call, with the dtype of the matrix it decomposes;
    # the Kronecker factors are smaller than m (unlike those of Dims(3, 1, 1))
    calls = []

    def recorded(fn):
        def wrapper(a, *args, **kwargs):
            if np.shape(a)[0] >= dims.m:
                calls.append(np.asarray(a).dtype)
            return fn(a, *args, **kwargs)

        return wrapper

    for namespace in (np.linalg, scipy.linalg):
        for name in ("eigh", "eig", "eigvalsh", "eigvals"):
            monkeypatch.setattr(namespace, name, recorded(getattr(namespace, name)))
    correlated_limit(dims, betas)
    assert calls == ([np.dtype(np.float64)] if betas else [])


BAD_COEFFICIENTS = {
    "desired tx": dict(desired_tx=1.0),
    "desired rx": dict(desired_rx=-1.5j),
    "interferer tx": dict(interferer_tx=(0.3, 1.0)),
    "interferer rx": dict(interferer_rx=(np.exp(0.5j), 0.3)),
}


@pytest.mark.parametrize("bad", BAD_COEFFICIENTS.values(), ids=BAD_COEFFICIENTS.keys())
def test_unit_correlation_coefficient_is_rejected(bad):
    with pytest.raises(InvalidCorrelation):
        correlated_model(DESK, 10.0, (0.1, 0.1), SpatialCorrelation(**bad))


# without the typed check these were cut short by zip, divided by zero in the
# cyclic pairing, raised a bare ValueError from complex(), or reached R_t as NaN
MALFORMED_CORRELATIONS = {
    "unequal interferer tuples": SpatialCorrelation(interferer_tx=(0.3,), interferer_rx=(0.5, 0.6)),
    "empty interferer tuples": SpatialCorrelation(interferer_tx=(), interferer_rx=()),
    "string coefficient": SpatialCorrelation(desired_rx="a"),
    "nan coefficient": SpatialCorrelation(interferer_tx=(0.3, complex("nan"))),
}


@pytest.mark.parametrize("correlation", MALFORMED_CORRELATIONS.values(), ids=MALFORMED_CORRELATIONS.keys())
@pytest.mark.parametrize("build", [correlated_model, correlated_limit], ids=lambda f: f.__name__)
def test_malformed_correlation_is_rejected(build, correlation):
    args = (DESK, 10.0) if build is correlated_model else (DESK,)
    with pytest.raises(InvalidCorrelation):
        build(*args, (0.1, 0.1), correlation)


def test_noise_limited_model_needs_no_interferer_pair():
    model = correlated_model(DESK, 10.0, (), SpatialCorrelation(interferer_tx=(), interferer_rx=()))
    assert model.r_cov.tobytes() == correlated_model(DESK, 10.0, ()).r_cov.tobytes()


@pytest.mark.parametrize("batch", [(), (3,)], ids=["vector", "block"])
@pytest.mark.parametrize("betas", [(), (0.1, 0.1)], ids=["noise-limited", "contaminated"])
@pytest.mark.parametrize("dims", SHAPES.values(), ids=SHAPES.keys())
def test_apply_r_is_the_dense_product(dims, betas, batch):
    model = correlated_model(dims, 10.0, betas)
    assert isinstance(model, KroneckerModel)
    x = np.random.default_rng(5).standard_normal((dims.n, *batch, 2)) @ np.array([1.0, 1j])
    for layout in (x, np.asfortranarray(x)):
        got, want = model.apply_r(layout), model.r_cov @ x
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_derived_model_applies_its_own_r_cov():
    model = correlated_model(DESK, 10.0, (0.1, 0.1))
    r_est = 2.0 * model.r_cov + np.eye(DESK.n)
    derived = replace(model, r_cov=r_est)
    assert not isinstance(derived, KroneckerModel)
    x = np.random.default_rng(6).standard_normal((DESK.n, 4)) + 1j
    assert np.array_equal(derived.apply_r(x), r_est @ x)


class NoProducts(np.ndarray):
    """A dense covariance that fails any matrix product with it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert ufunc is not np.matmul, "a matrix product read the dense r_cov"
        inputs = [np.asarray(a) if isinstance(a, NoProducts) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_estimates_apply_r_through_its_factors():
    model, shielded = (correlated_model(DESK, 10.0, (0.1, 0.1)) for _ in range(2))
    shielded.z  # formed before its r_cov is shielded
    object.__setattr__(shielded, "r_cov", shielded.r_cov.view(NoProducts))
    y = model.draw(np.random.default_rng(7), 3)[1]
    r_est = model.r_cov + 0.1 * np.eye(DESK.n)

    def results(target):
        estimates = [es.prepare(target, name, 4).apply(obs) for name in ("mmse", "peach", "wpeach") for obs in (y, y[:, 0])]
        return [*estimates, _quad_forms(target, 3, y), es.mismatched_mse(target, r_est, 4)]

    for got, want in zip(results(shielded), results(model), strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", ["r_cov", "s_cov"])
def test_derived_model_is_validated_densely(name):
    model = correlated_model(DESK, 10.0, (0.1, 0.1))
    indefinite = getattr(model, name) - 1e3 * np.eye(DESK.m)
    with pytest.raises(NotPositiveSemiDefinite):
        replace(model, **{name: indefinite})


def test_overflowing_powers_are_rejected():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotPositiveSemiDefinite):
        correlated_model(DESK, 10.0, (1e308, 1e308))


@pytest.mark.parametrize("gamma_db", [4000.0, np.float64(4000.0)], ids=["float", "float64"])
def test_overflowing_snr_is_invalid(gamma_db):
    # 10**400 overflows a Python float with OverflowError and a numpy scalar with a RuntimeWarning
    with pytest.raises(InvalidParameter, match="overflows"):
        correlated_model(DESK, gamma_db, (0.1, 0.1))


def test_cli_reports_an_overflowing_snr(tmp_path, capsys):
    argv = ["sweep-snr", "--snr-db", "4000", "--no-montecarlo", "--n-r", "4", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: a pilot SNR of 4000.0 dB overflows")
    assert not (tmp_path / "x.csv").exists()


def test_noise_limited_limit_is_the_kronecker_spectrum():
    limit = correlated_limit(DESK, ())
    assert np.all(np.diff(limit.lam) >= 0)
    np.testing.assert_array_equal(limit.phi, limit.lam**2)
    r_cov = correlated_model(DESK, 0.0, ()).r_cov
    np.testing.assert_allclose(limit.lam, np.linalg.eigvalsh(r_cov), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("betas", [(), (0.1, 0.1)], ids=["noise-limited", "contaminated"])
def test_derived_model_uses_the_dense_path(monkeypatch, betas):
    model = correlated_model(DESK, 10.0, betas)
    derived = replace(model, r_cov=2.0 * model.r_cov)
    assert not isinstance(derived, KroneckerModel)
    counts = {}
    count_eig_calls(monkeypatch, counts, min_dim=DESK.m)
    spectrum = derived.z_spectrum
    assert counts == {"eigh": 1, "eigvalsh": 0}
    assert correlated_limit.cache_info().misses == 0
    assert spectrum.lam[-1] > model.z_spectrum.lam[-1]


@pytest.mark.parametrize("betas", [(), (0.1, 0.1)], ids=["noise-limited", "contaminated"])
def test_building_a_model_runs_no_eigendecomposition(monkeypatch, betas):
    counts = {}
    count_eig_calls(monkeypatch, counts)
    model = correlated_model(DESK, 10.0, betas)
    assert counts == {"eigh": 0, "eigvalsh": 0}
    # the limit is computed on first use of the spectrum, not at the build
    assert correlated_limit.cache_info().misses == 0
    assert "z" not in vars(model)


def test_one_read_only_limit_is_kept():
    correlated_limit(DESK, (0.1, 0.1))
    correlated_limit(DESK, ())
    limit = correlated_limit(DESK, (0.1, 0.1))
    info = correlated_limit.cache_info()
    assert (info.maxsize, info.currsize, info.misses, info.hits) == (1, 1, 3, 0)
    assert correlated_limit(DESK, (0.1, 0.1)) is limit
    with pytest.raises(ValueError):
        limit.lam[0] = 0.0
    with pytest.raises(ValueError):
        limit.phi[0] = 0.0


@pytest.mark.parametrize("correlation", CORRELATIONS.values(), ids=CORRELATIONS.keys())
def test_interferers_cycle_through_the_coefficient_pairs(correlation):
    covs = [cov for _, cov in correlated_contamination(DESK, BETAS["cyclic"], correlation)]
    pairs = [*zip(correlation.interferer_tx, correlation.interferer_rx)] * 2
    for cov, (tx, rx) in zip(covs, pairs, strict=False):
        want = np.kron(exp_correlation_matrix(DESK.n_t, tx), exp_correlation_matrix(DESK.n_r, rx))
        np.testing.assert_array_equal(cov, want)
    assert len(covs) == 3


@pytest.mark.parametrize("correlation", CORRELATIONS.values(), ids=CORRELATIONS.keys())
def test_build_adds_the_cycled_interferers(correlation):
    # the disturbance of the generic path over the dense interferers above
    model = correlated_model(DESK, 10.0, BETAS["cyclic"], correlation)
    interferers = correlated_contamination(DESK, BETAS["cyclic"], correlation)
    generic = stat_model_from_pilot(DESK, None, model.r_cov, None, model.pilot, interferers)
    assert model.s_cov.tobytes() == generic.s_cov.tobytes()


@pytest.mark.parametrize("correlation", CORRELATIONS.values(), ids=CORRELATIONS.keys())
@pytest.mark.parametrize("betas", BETAS.values(), ids=BETAS.keys())
def test_dense_diagonals_are_one_and_the_summed_betas(betas, correlation):
    # the runner's contaminated floors take r's diagonal as 1 and the summed
    # interferer covariance's as sum(betas), which the dense forms bear out
    # exactly, so they are the floors of the dense diagonals
    r_diag = np.diag(correlated_model(DESK, 0.0, betas, correlation).r_cov)
    sum_interf = summed_covariance(correlated_contamination(DESK, betas, correlation)) + np.zeros((DESK.n, DESK.n))
    s_diag = np.diag(sum_interf)
    np.testing.assert_array_equal(r_diag, np.ones(DESK.n))
    np.testing.assert_array_equal(s_diag, np.full(DESK.n, sum(betas)))
    if any(betas):
        config = default_config("sweep-snr", betas=betas, correlation=correlation)
        dense = analysis.floor_contaminated(correlated_limit(DESK, betas, correlation), r_diag.real, s_diag.real, 4)
        assert _floors(correlated_model(DESK, 10.0, betas, correlation), config, 4) == dense._asdict()


@pytest.mark.parametrize("degree", [0, 4, 10])
@pytest.mark.parametrize("betas", [(), (0.1, 0.1), (1.0, 1.0), BETAS["cyclic"]], ids=["noise-limited", "0.1", "1", "cyclic"])
def test_sweep_floors_match_dense_floors(betas, degree):
    # the runner's floors read the limit spectrum and the factors' diagonals;
    # the dense forms decompose r_cov (+ the summed interferer covariance)
    config = default_config("sweep-snr", betas=betas)
    model = correlated_model(DESK, 10.0, betas)
    floors = _floors(model, config, degree)
    if betas:
        sum_interf = summed_covariance(correlated_contamination(DESK, betas))
        dense = contaminated_floors(model.r_cov, sum_interf, degree)._asdict()
    else:
        dense = noise_limited_floors(model.r_cov, degree)._asdict()
    assert floors.keys() == dense.keys()
    for name, value in dense.items():
        # the W-PEACH floor is the MSE of a monomial least-squares fit, which
        # loses about a digit per degree on either spectrum
        rel = 1e-9 if name == "wpeach" and degree == 10 else 1e-12
        assert floors[name] == pytest.approx(value, rel=rel, abs=1e-14), name


@pytest.mark.parametrize("betas", [(), (0.1, 0.1), (1.0, 1.0)], ids=["noise-limited", "0.1", "1"])
def test_polynomial_floors_score_the_filters_prepared_on_the_limit(betas):
    # each polynomial floor is the one closed-form MSE of the filter that the
    # estimator's own rule prepares on the limit spectrum, so it matches exactly
    limit = correlated_limit(DESK, betas)
    r_diag, s_diag = np.ones(DESK.n), np.full(DESK.n, sum(betas))
    for degree in range(13):
        if betas:
            floors = analysis.floor_contaminated(limit, r_diag, s_diag, degree)
        else:
            floors = analysis.floor_noise_limited(limit, degree)
        assert floors.peach == limit.mse(es._peach_on(limit, degree).values(limit.lam)), degree
        assert floors.wpeach == limit.mse(es._wpeach_on(limit, degree).values(limit.lam)), degree
