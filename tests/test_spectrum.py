"""The spectral closed forms against the dense oracles, and their linear-algebra cost."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from peachsim import analysis
from peachsim import model as model_module
from peachsim import estimators as es
from peachsim.adaptive import shrinkage_covariance
from peachsim.cli import _sweep_point, default_config, run_experiment
from peachsim.errors import DivergentExpansionWarning, NotPositiveSemiDefinite, ShapeError
from peachsim.model import Dims, correlated_model

from conftest import (
    complex_vector,
    count_calls,
    count_eig_calls,
    random_hermitian_psd,
    random_model,
    random_pilot_model,
)
from oracles import contaminated_floors, dense_spectrum, noise_limited_floors, pilot_sandwich

DEGREES = (0, 3, 10)
KINDS = ("random", "random-contaminated", "correlated", "correlated-contaminated")
SNRS_DB = (0.0, 20.0, 40.0)

# In the monomial basis the optimal W-PEACH weights of the strongly correlated
# model reach 1e11 at L = 10 and 20 dB or more; evaluating them at computed
# eigenvalues then keeps only 5 to 8 significant digits against an
# extended-precision dense evaluation (the float64 dense filter keeps more); a
# stable polynomial basis for the weights would remove the cancellation.
MONOMIAL_CANCELLATION = pytest.mark.xfail(
    strict=True, reason="monomial W-PEACH weights of order 1e11 cancel at the eigenvalue nodes"
)


def make_model(kind, gamma_db):
    power = 10.0 ** (gamma_db / 10.0)
    if kind.startswith("random"):
        interferers = 2 if kind.endswith("contaminated") else 0
        rng = np.random.default_rng(31)
        return random_model(rng, n_r=3, n_t=2, pt_lo=power, pt_hi=power, n_interferers=interferers)
    return correlated_model(Dims(6, 2, 2), gamma_db, (0.1, 0.1) if kind.endswith("contaminated") else ())


@pytest.mark.parametrize("gamma_db", SNRS_DB)
@pytest.mark.parametrize("kind", KINDS)
def test_mmse_and_peach_closed_forms_match_dense_filters(kind, gamma_db):
    model = make_model(kind, gamma_db)
    dense = es.linear_filter_mse(model, es.mmse_filter_matrix(model))
    assert es.mmse_mse(model) == pytest.approx(dense, rel=1e-10)
    for degree in DEGREES:
        peach = es.make_peach(model, degree)
        assert es.peach_mse(model, degree, peach.alpha) == pytest.approx(
            es.linear_filter_mse(model, es.poly_filter_matrix(model, peach)), rel=1e-10
        )


def wpeach_cases():
    for kind in KINDS:
        for gamma_db in SNRS_DB:
            for degree in DEGREES:
                ill = kind.startswith("correlated") and gamma_db >= 20.0 and degree == 10
                yield pytest.param(kind, gamma_db, degree, marks=MONOMIAL_CANCELLATION if ill else ())


@pytest.mark.parametrize("kind, gamma_db, degree", wpeach_cases())
def test_wpeach_closed_form_matches_dense_filter(kind, gamma_db, degree):
    model = make_model(kind, gamma_db)
    wpeach = es.make_wpeach(model, degree)
    assert es.wpeach_mse_general(model, degree, wpeach.alpha, wpeach.weights) == pytest.approx(
        es.linear_filter_mse(model, es.poly_filter_matrix(model, wpeach)), rel=1e-10
    )


def shrunk_r_cov(model, n_samples, seed):
    """Plug-in shrinkage estimate of ``model``'s r_cov from ``n_samples`` channel draws."""
    draws = model.r_factor @ model_module.standard_complex_normal(np.random.default_rng(seed), model.dims.n, n_samples)
    return shrinkage_covariance(draws.T).c_hat


MISMATCH_MODELS = {
    "desk": lambda: correlated_model(Dims(20, 4, 4), 5.0, ()),
    "desk-contaminated": lambda: correlated_model(Dims(20, 4, 4), 5.0, (0.1, 0.1)),
    # nonzero means and a non-square pilot
    "random-pilot": lambda: random_pilot_model(np.random.default_rng(17), 2, 3, n_r=3),
}


def mismatch_cases():
    for kind in MISMATCH_MODELS:
        for n_samples in (3, 20, 160):
            # three draws of the 80-dimensional desk channel give weights of
            # 1e9 to 1e10, and the mismatched W-PEACH MSE keeps 7 to 8 digits
            ill = kind.startswith("desk") and n_samples == 3
            yield pytest.param(kind, n_samples, marks=MONOMIAL_CANCELLATION if ill else ())


@pytest.mark.parametrize("kind, n_samples", mismatch_cases())
def test_mismatched_mse_matches_dense_filters(kind, n_samples):
    model = MISMATCH_MODELS[kind]()
    r_est = shrunk_r_cov(model, n_samples, seed=3)
    mmse, wpeach = es.mismatched_mse(model, r_est, 8)
    # the dense oracles prepare the filters on a second model holding r_est
    model_est = replace(model, r_cov=r_est)
    dense_wpeach = es.poly_filter_matrix(model_est, es.make_wpeach(model_est, 8))
    assert mmse == pytest.approx(es.linear_filter_mse(model, es.mmse_filter_matrix(model_est)), rel=1e-12)
    assert wpeach == pytest.approx(es.linear_filter_mse(model, dense_wpeach), rel=1e-9)


@pytest.mark.parametrize("n_samples", [3, 160])
@pytest.mark.parametrize("betas", [(), (1.0, 0.3, 0.7)], ids=["noise-limited", "cyclic"])
@pytest.mark.parametrize("gamma_db", [-10.0, 30.0])
@pytest.mark.parametrize("dims", [Dims(20, 4, 4), Dims(5, 3, 3)], ids=["20x4", "5x3"])
def test_mismatched_observation_covariance_is_the_contraction_bit_for_bit(dims, gamma_db, betas, n_samples):
    # r_est validated as mismatched_mse does; the identity pilot's scaled
    # sandwich gives the symmetrized contraction's bits
    model = correlated_model(dims, gamma_db, betas)
    r_est, _ = model_module.check_hermitian_psd(shrunk_r_cov(model, n_samples, seed=3))
    want = model_module.hermitize(pilot_sandwich(model.pilot, model.dims.n_r, r_est) + model.s_cov)
    assert model.observation_covariance(r_est).tobytes() == want.tobytes()


# the desk models of the figure battery on which the shared preparation is compared
PREPARATION_MODELS = {
    "noise-limited": lambda: correlated_model(Dims(20, 4, 4), 5.0, ()),
    "beta-0.1-10dB": lambda: correlated_model(Dims(20, 4, 4), 10.0, (0.1, 0.1)),
    "beta-1": lambda: correlated_model(Dims(20, 4, 4), 5.0, (1.0, 1.0)),
}


@pytest.mark.parametrize("degree", [0, 4, 8])
@pytest.mark.parametrize("kind", PREPARATION_MODELS)
def test_mismatched_mse_of_the_true_covariance_is_the_prepared_mse(kind, degree):
    # with r_est = r, mismatched_mse prepares W-PEACH exactly as make_wpeach
    # does and scores it, through another formula, under the same statistics
    model = PREPARATION_MODELS[kind]()
    est = es.make_wpeach(model, degree)
    mmse, wpeach = es.mismatched_mse(model, model.r_cov, degree)
    assert mmse == pytest.approx(es.mmse_mse(model), rel=1e-12, abs=0.0)
    assert wpeach == pytest.approx(es.wpeach_mse_general(model, degree, est.alpha, est.weights), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("degree", [0, 4])
@pytest.mark.parametrize("make", [es.make_peach, es.make_wpeach], ids=["peach", "wpeach"])
@pytest.mark.parametrize("kind", PREPARATION_MODELS)
def test_filter_applied_to_eigenvectors_scales_them_by_its_values(kind, make, degree):
    # v(z) u_k = v(lam_k) u_k: the vector and the eigenvalue evaluation are one polynomial
    model = PREPARATION_MODELS[kind]()
    est = make(model, degree)
    lam, vecs = scipy.linalg.eigh(model.z)
    applied = est.apply(replace(model).z_operator()[0], vecs)  # the dense twin's operator multiplies by z itself
    expected = vecs * est.values(lam)
    assert np.linalg.norm(applied - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "case, error",
    [("wrong-shape", ShapeError), ("not-hermitian", NotPositiveSemiDefinite), ("negative", NotPositiveSemiDefinite)],
)
def test_mismatched_mse_rejects_invalid_r_est(case, error):
    model = MISMATCH_MODELS["random-pilot"]()
    r_est = shrunk_r_cov(model, 10, seed=3)
    n = model.dims.n
    bad = {
        "wrong-shape": r_est[:-1, :-1],
        "not-hermitian": r_est + np.triu(np.ones((n, n)), 1),
        "negative": r_est - 2.0 * np.trace(r_est).real * np.eye(n),
    }[case]
    with pytest.raises(error):
        es.mismatched_mse(model, bad, 4)


def test_shrinkage_scenario_linear_algebra_calls(monkeypatch, tmp_path):
    # the true z's spectrum (the true-statistics MSEs) comes from the Kronecker
    # factors of the noise-limited channel, with no m x m decomposition, and
    # each estimated z takes one eigh (both mismatched filters); no dense
    # filter and no solve.  The model's build runs no m x m Cholesky, nor do
    # the channel draws, which go through r's Kronecker factors; one
    # validates each r_est: s_cov is not validated again
    config = default_config("shrinkage", out=str(tmp_path / "shrinkage.csv"))
    counts = {}
    count_calls(monkeypatch, np.linalg, ("solve", "inv"), counts)
    count_calls(monkeypatch, np.linalg, ("cholesky",), counts, min_dim=config.n_r * config.b)
    count_eig_calls(monkeypatch, counts, min_dim=config.n_r * config.b)

    def forbidden(*args, **kwargs):
        raise AssertionError("the shrinkage scenario forms no dense filter")

    for name in ("poly_filter_matrix", "mmse_filter_matrix", "linear_filter_mse"):
        monkeypatch.setattr(es, name, forbidden)
    rows = run_experiment(config)
    assert len(rows) == 4 * len(config.shrink_samples)
    n_est = len(config.shrink_samples)
    assert counts == {"solve": 0, "inv": 0, "cholesky": n_est, "eigh": n_est, "eigvalsh": 0}


def dense_peach_floor(r_cov, limit, degree):
    """PEACH floor from the truncated inverse B_L of the limit matrix, formed densely."""
    eigs = np.linalg.eigvalsh(limit)
    scale = 2.0 / (eigs[-1] + eigs[0])
    x = np.eye(limit.shape[0]) - scale * limit
    acc = np.eye(limit.shape[0], dtype=complex)
    cur = np.eye(limit.shape[0], dtype=complex)
    for _ in range(degree):
        cur = cur @ x
        acc = acc + cur
    rb = r_cov @ (scale * acc)
    return float(np.trace(r_cov + rb @ limit @ rb.conj().T - 2.0 * rb @ r_cov).real)


@pytest.mark.parametrize("degree", DEGREES)
def test_peach_floors_match_dense_truncated_inverse(degree):
    rng = np.random.default_rng(5)
    for _ in range(3):
        r_cov = random_hermitian_psd(rng, 8, eig_lo=0.05, eig_hi=3.0)
        sum_interf = random_hermitian_psd(rng, 8, eig_lo=0.0, eig_hi=0.5)
        noise_limited = noise_limited_floors(r_cov, degree)
        contaminated = contaminated_floors(r_cov, sum_interf, degree)
        assert noise_limited.peach == pytest.approx(dense_peach_floor(r_cov, r_cov, degree), rel=1e-10)
        assert contaminated.peach == pytest.approx(
            dense_peach_floor(r_cov, r_cov + sum_interf, degree), rel=1e-10
        )


def desk_contaminated_point(monte_carlo):
    config = default_config("sweep-snr", betas=(0.1, 0.1), monte_carlo=monte_carlo)
    return config, correlated_model(Dims(config.n_r, config.n_t, config.b), 10.0, config.betas)


def test_contaminated_sweep_point_linear_algebra_calls(monkeypatch):
    # one eigh of the limit matrix serves all floors and, mapped affinely, z's
    # spectrum (every closed-form MSE, PEACH's alpha and the W-PEACH fit); MVU,
    # computed in the square pilot's coordinates, factors and solves nothing of
    # size m; MMSE, prepared but never applied, forms neither z nor its factor
    config, model = desk_contaminated_point(monte_carlo=False)
    counts = {}
    count_calls(monkeypatch, np.linalg, ("solve", "inv"), counts)
    count_calls(monkeypatch, scipy.linalg, ("cho_factor",), counts)
    count_eig_calls(monkeypatch, counts, min_dim=model.dims.m)
    _sweep_point(config, model, {"degrees": config.degree}, 10.0, 0)
    assert counts["eigh"] == 1
    assert counts["eigvalsh"] == 0
    assert counts["solve"] == 0
    assert counts["inv"] == 0
    assert counts["cho_factor"] == 0
    assert "z" not in model.__dict__


def test_contaminated_sweep_point_monte_carlo_draws_once(monkeypatch):
    # all five estimators are scored on one draw per chunk: one m x m
    # Cholesky factor, of s_cov (the channel is drawn through r's Kronecker
    # factors), and two normal draws (h and n) for each of the four chunks
    # of 2000 trials; the MVU system is prepared once per point for both the
    # analytic variance and the Monte Carlo callable, and neither it nor any
    # chunk's estimate solves or factors an m x m matrix
    config, model = desk_contaminated_point(monte_carlo=True)
    assert config.trials == 2000
    counts = {}
    count_calls(monkeypatch, np.linalg, ("solve", "inv"), counts)
    count_calls(monkeypatch, np.linalg, ("cholesky",), counts, min_dim=model.dims.m)
    count_eig_calls(monkeypatch, counts, min_dim=model.dims.m)
    count_calls(monkeypatch, model_module, ("standard_complex_normal",), counts)
    _sweep_point(config, model, {"degrees": config.degree}, 10.0, 0)
    assert counts["cholesky"] == 1
    assert counts["standard_complex_normal"] == 8
    assert counts["eigh"] == 1
    assert counts["eigvalsh"] == 0
    assert counts["solve"] == 0
    assert counts["inv"] == 0


def test_sweep_point_mvu_variance_matches_public_evaluator():
    config, model = desk_contaminated_point(monte_carlo=False)
    rows = _sweep_point(config, model, {"degrees": config.degree}, 10.0, 0)
    (mvu,) = [row for row in rows if row.estimator == "mvu"]
    assert mvu.nmse_analytic == es.mvu_variance(model) / float(np.trace(model.r_cov).real)


@pytest.mark.parametrize("kind", ["random-contaminated", "correlated-contaminated", "correlated"])
def test_one_eigendecomposition_per_model(monkeypatch, kind):
    # PEACH's alpha, W-PEACH's scaling and weights and every closed-form MSE
    # read the model's one spectrum of z, whatever entry point could compute
    # it: one m x m eigh, of z or of the correlated limit, and none for the
    # noise-limited correlated model, whose spectrum is a Kronecker product
    model = make_model(kind, 10.0)
    counts = {}
    count_eig_calls(monkeypatch, counts, min_dim=model.dims.m)
    peach = es.make_peach(model, 4)
    wpeach = es.make_wpeach(model, 4)
    es.peach_mse(model, 4, peach.alpha)
    es.wpeach_mse_general(model, 4, wpeach.alpha, wpeach.weights)
    es.mmse_mse(model)
    assert counts == {"eigh": 0 if kind == "correlated" else 1, "eigvalsh": 0}


@pytest.mark.parametrize(
    "scenario, betas, points, eighs",
    [("sweep-snr", (0.1, 0.1), 7, 1), ("sweep-l", (1.0, 1.0), 13, 1), ("sweep-l", (), 13, 0)],
    ids=["sweep-snr-contaminated", "sweep-l-contaminated", "sweep-l-noise-limited"],
)
def test_sweep_table_decomposes_its_limit_once(monkeypatch, tmp_path, scenario, betas, points, eighs):
    # a 7-point SNR table and a 13-degree table share one limit spectrum over
    # all their models and floors: one m x m eigh with interference, none without
    config = default_config(scenario, betas=betas, monte_carlo=False, out=str(tmp_path / "table.csv"))
    counts = {}
    count_eig_calls(monkeypatch, counts, min_dim=config.n_r * config.b)
    assert len(run_experiment(config)) == 5 * points
    assert counts == {"eigh": eighs, "eigvalsh": 0}


@pytest.mark.parametrize("kind", KINDS)
def test_make_peach_alpha_matches_alpha_optimal(kind):
    model = make_model(kind, 10.0)
    assert es.make_peach(model, 3).alpha == pytest.approx(es.alpha_optimal(model.z), rel=1e-14, abs=0.0)


def test_make_peach_explicit_alpha_checked_against_shared_spectrum(monkeypatch):
    model = make_model("correlated-contaminated", 10.0)
    bound = 2.0 / model.z_spectrum.lam[-1]
    counts = {}
    count_eig_calls(monkeypatch, counts)
    assert es.make_peach(model, 3, alpha=0.99 * bound).alpha == 0.99 * bound
    with pytest.warns(DivergentExpansionWarning):
        es.make_peach(model, 3, alpha=1.01 * bound)
    assert counts == {"eigh": 0, "eigvalsh": 0}


def hermitian_with_spectrum(rng, eigs):
    q, _ = np.linalg.qr(complex_vector(rng, (len(eigs), len(eigs))))
    return q @ np.diag(eigs) @ q.conj().T


def zero_block_matrix(rng, dim, rank):
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[:rank, :rank] = random_hermitian_psd(rng, rank, eig_lo=0.01, eig_hi=5.0)
    return matrix


def spectrum_property_cases():
    rng = np.random.default_rng(41)
    for dim in (5, 24, 60):
        yield pytest.param(random_hermitian_psd(rng, dim, eig_lo=1e-3, eig_hi=10.0), id=f"pd-{dim}")
    yield pytest.param(zero_block_matrix(rng, 24, 15), id="zero-block")


@pytest.mark.parametrize("matrix", spectrum_property_cases())
def test_spectrum_of_eigenvalues_and_energies(matrix):
    # MRRR eigenvalues agree with the reference eigvalsh, and the energies
    # keep the channel's Frobenius norm, which needs orthonormal eigenvectors
    rng = np.random.default_rng(43)
    dim = matrix.shape[0]
    for channel in (matrix, complex_vector(rng, (7, dim))):
        spectrum = dense_spectrum(matrix, channel, 1.0)
        reference = np.linalg.eigvalsh(matrix)
        assert np.max(np.abs(spectrum.lam - reference)) <= 1e-13 * reference[-1]
        frobenius = np.linalg.norm(channel) ** 2
        assert abs(np.sum(spectrum.phi) - frobenius) <= 1e-12 * frobenius


def noise_limited_floor_cases():
    rng = np.random.default_rng(47)
    yield pytest.param(random_hermitian_psd(rng, 16, eig_lo=0.01, eig_hi=3.0), id="full-rank")
    eigs = np.concatenate([rng.uniform(0.01, 3.0, 12), np.zeros(4)])
    yield pytest.param(hermitian_with_spectrum(rng, eigs), id="rank-deficient")
    yield pytest.param(zero_block_matrix(rng, 16, 12), id="zero-block")


@pytest.mark.parametrize("r_cov", noise_limited_floor_cases())
def test_noise_limited_floor_from_eigenvalues_matches_eigenvectors(r_cov):
    # the channel of the noise-limited limit is r itself, so phi_k = lam_k^2.
    # The W-PEACH floor is the MSE of a monomial least-squares fit whose
    # conditioning grows with the degree: at L = 8 on 12 nonzero eigenvalues
    # both evaluations sit 1e-10 to 1e-9 (relative) from the floor of the
    # exact spectrum, so it is also accepted within 1e-12 trace(r), the scale
    # on which the fit is backward stable and the NMSE floor is reported.
    r_cov = 0.5 * (r_cov + r_cov.conj().T)
    trace_r = float(np.trace(r_cov).real)
    spectrum = dense_spectrum(r_cov, r_cov, trace_r)
    for degree in range(9):
        floors = noise_limited_floors(r_cov, degree)
        dense = analysis.floor_noise_limited(spectrum, degree)
        assert floors.peach == pytest.approx(dense.peach, rel=1e-10, abs=0.0)
        assert floors.wpeach == pytest.approx(dense.wpeach, rel=1e-10, abs=1e-12 * trace_r)


def test_mmse_epoch_factors_z_once(monkeypatch):
    # the Cholesky factor of z is cached on the model, so an epoch of
    # single-observation MMSE estimates pays one factorization and no solves
    _, model = desk_contaminated_point(monte_carlo=False)
    observations = np.random.default_rng(3).standard_normal((50, model.dims.m)) + 0j
    scipy_counts, numpy_counts = {}, {}
    count_calls(monkeypatch, scipy.linalg, ("cho_factor", "solve"), scipy_counts)
    count_calls(monkeypatch, np.linalg, ("solve",), numpy_counts)
    for y in observations:
        es.mmse_estimate(model, y)
    assert scipy_counts == {"cho_factor": 1, "solve": 0}
    assert numpy_counts == {"solve": 0}
