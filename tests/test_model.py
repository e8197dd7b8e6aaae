import functools
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from peachsim.errors import (
    EmptyDimension,
    InvalidCorrelation,
    InvalidParameter,
    NotPositiveSemiDefinite,
    PilotShapeMismatch,
    ShapeError,
    SingularCovariance,
)
from peachsim.cli import _sweep_point, default_config
from peachsim.estimators import NAMES, mmse_estimate
from peachsim.model import (
    HERMITIAN_RTOL,
    Dims,
    SpatialCorrelation,
    StatModel,
    check_hermitian_psd,
    correlated_limit,
    correlated_model,
    deviation,
    exp_correlation_matrix,
    extend_pilot,
    hermitize,
    identity_pilot,
    psd_factor,
    standard_complex_normal,
    stat_model_from_pilot,
)

from conftest import (
    complex_vector,
    count_calls,
    count_eig_calls,
    random_hermitian_psd,
    random_model,
    random_pilot_model,
    relative_error,
    traced_peak,
)
from oracles import correlated_contamination, pilot_sandwich


# §IV-C-style correlation coefficient used by the entry-value check below
RX_COEFF = 0.9 * np.exp(-1j * 0.9289 * np.pi)


class TestDims:
    def test_derived_sizes(self):
        dims = Dims(n_r=3, n_t=2, b=4)
        assert dims.m == 12
        assert dims.n == 6

    @pytest.mark.parametrize("bad", [dict(n_r=0, n_t=1, b=1), dict(n_r=1, n_t=-2, b=1), dict(n_r=1, n_t=1, b=0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(EmptyDimension):
            Dims(**bad)

    @pytest.mark.parametrize("value", [None, 3.0, float("nan"), True], ids=["none", "float", "nan", "bool"])
    def test_rejects_non_integers(self, value):
        with pytest.raises(EmptyDimension):
            Dims(value, 2, 2)

    def test_accepts_numpy_integers(self):
        dims = Dims(np.int64(3), np.int32(2), np.int64(2))
        assert (dims.m, dims.n) == (6, 6)
        # stored as int, so a narrow numpy integer cannot wrap m or n
        dims = Dims(np.uint8(20), np.uint8(20), np.uint8(20))
        assert (dims.m, dims.n) == (400, 400)
        assert all(type(getattr(dims, name)) is int for name in ("n_r", "n_t", "b"))


class TestExpCorrelation:
    def test_zero_coefficient_gives_identity(self):
        assert_allclose(exp_correlation_matrix(2, 0.0), np.eye(2))

    def test_real_half_coefficient(self):
        assert_allclose(exp_correlation_matrix(2, 0.5), np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_complex_entry_is_direct_power(self):
        mat = exp_correlation_matrix(3, RX_COEFF)
        assert_allclose(mat[0, 2], RX_COEFF**2, rtol=1e-14)
        assert_allclose(mat[2, 0], np.conj(RX_COEFF) ** 2, rtol=1e-14)
        assert_allclose(mat[1, 2], RX_COEFF, rtol=1e-14)

    def test_rejects_unit_magnitude(self):
        with pytest.raises(InvalidCorrelation):
            exp_correlation_matrix(4, 1.0)
        with pytest.raises(InvalidCorrelation):
            exp_correlation_matrix(4, 1.2 * np.exp(1j * 0.3))

    def test_rejects_empty(self):
        with pytest.raises(EmptyDimension):
            exp_correlation_matrix(0, 0.5)

    @pytest.mark.parametrize("dim", [2.5, 3.0, True, None], ids=["2.5", "3.0", "bool", "none"])
    def test_rejects_non_integer_dimension(self, dim):
        # 2.5 used to build a 3 x 3 matrix
        with pytest.raises(EmptyDimension):
            exp_correlation_matrix(dim, 0.5)

    @pytest.mark.parametrize("coeff", [np.nan, complex(0.3, np.nan)], ids=["nan", "nan-imag"])
    def test_rejects_nan_coefficient(self, coeff):
        # a NaN coefficient used to give a NaN matrix
        with pytest.raises(InvalidCorrelation):
            exp_correlation_matrix(3, coeff)

    @pytest.mark.parametrize("coeff", ["a", None, "0.5"], ids=["word", "none", "numeric-string"])
    def test_rejects_non_numeric_coefficient(self, coeff):
        # complex() raised a bare ValueError or TypeError here, and parsed "0.5"
        with pytest.raises(InvalidCorrelation):
            exp_correlation_matrix(3, coeff)

    @pytest.mark.parametrize("coeff", [False, True, np.bool_(False)], ids=["false", "true", "numpy-false"])
    def test_rejects_boolean_coefficient(self, coeff):
        # a bool is a numbers.Complex, so False used to give the identity
        with pytest.raises(InvalidCorrelation):
            exp_correlation_matrix(2, coeff)
        with pytest.raises(InvalidCorrelation):
            SpatialCorrelation(desired_tx=coeff).validate(0)

    @given(
        dim=st.integers(min_value=1, max_value=400),
        magnitude=st.floats(min_value=0.0, max_value=np.nextafter(1.0, 0.0)),
        phase=st.floats(min_value=-np.pi, max_value=np.pi),
    )
    @example(dim=400, magnitude=np.nextafter(1.0, 0.0), phase=0.0)
    @example(dim=400, magnitude=np.nextafter(1.0, 0.0), phase=np.pi / 2)
    @example(dim=400, magnitude=np.nextafter(1.0, 0.0), phase=-0.9289 * np.pi)
    @example(dim=1, magnitude=0.0, phase=0.0)
    @settings(max_examples=40, deadline=None)
    def test_every_accepted_coefficient_gives_an_exact_factor(self, dim, magnitude, phase):
        # what correlated_model trusts in place of checking its factors: any
        # coefficient the boundary accepts gives an exactly Hermitian matrix
        # with an exactly unit diagonal
        coeff = magnitude * complex(np.cos(phase), np.sin(phase))
        assume(abs(coeff) < 1.0)  # the rotation can round a magnitude next to 1 up to 1
        SpatialCorrelation(desired_tx=coeff, desired_rx=coeff).validate(0)
        mat = exp_correlation_matrix(dim, coeff)
        assert mat.dtype == np.complex128 and mat.shape == (dim, dim)
        assert np.array_equal(mat, mat.conj().T)
        assert np.array_equal(np.diag(mat), np.ones(dim))

    @given(
        dim=st.integers(min_value=1, max_value=12),
        magnitude=st.floats(min_value=0.0, max_value=0.95),
        phase=st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_hermitian_unit_diagonal_positive_definite(self, dim, magnitude, phase):
        mat = exp_correlation_matrix(dim, magnitude * np.exp(1j * phase))
        assert_allclose(mat, mat.conj().T, atol=1e-14)
        assert_allclose(np.diag(mat), np.ones(dim), atol=1e-14)
        assert np.linalg.eigvalsh(mat)[0] > 0


class TestBuildStatModel:
    def test_noise_limited_disturbance_is_identity(self):
        dims = Dims(2, 2, 2)
        model = stat_model_from_pilot(
            dims, None, np.eye(dims.n), None, identity_pilot(dims, 2.0), noise_var=1.0
        )
        assert_allclose(model.s_cov, np.eye(dims.m))
        assert_allclose(model.pilot, np.sqrt(2.0) * np.eye(2))

    def test_single_identity_interferer(self):
        dims = Dims(2, 2, 2)
        pilot_power = 3.0
        model = stat_model_from_pilot(
            dims, None, np.eye(dims.n), None, identity_pilot(dims, pilot_power), ((0.5, np.eye(dims.n)),), 1.0
        )
        assert_allclose(model.s_cov, (0.5 * pilot_power + 1.0) * np.eye(dims.m), rtol=1e-12)

    def test_two_interferers_match_direct_evaluation(self):
        # independent dense evaluation of the contaminated covariance
        dims = Dims(3, 2, 2)
        pilot_power = 1.7
        sigma_sq = 0.8
        covs = (
            np.kron(exp_correlation_matrix(2, 0.35 * np.exp(-1j * 0.8537 * np.pi)),
                    exp_correlation_matrix(3, 0.9 * np.exp(-1j * 0.7464 * np.pi))),
            np.kron(exp_correlation_matrix(2, 0.4 * np.exp(-1j * 0.4583 * np.pi)),
                    exp_correlation_matrix(3, 0.9 * np.exp(-1j * 0.2649 * np.pi))),
        )
        betas = (0.3, 1.0)
        model = stat_model_from_pilot(
            dims, None, np.eye(dims.n), None, identity_pilot(dims, pilot_power), tuple(zip(betas, covs)), sigma_sq
        )
        p_ext = np.kron(np.sqrt(pilot_power) * np.eye(2), np.eye(3))
        expected = sigma_sq * np.eye(dims.m)
        for beta, cov in zip(betas, covs):
            expected = expected + beta * p_ext @ cov @ p_ext.conj().T
        assert np.max(np.abs(model.s_cov - expected)) < 1e-12 * np.linalg.norm(expected)

    def test_identity_pilot_requires_square(self):
        with pytest.raises(PilotShapeMismatch):
            dims = Dims(2, 2, 3)
            stat_model_from_pilot(dims, None, np.eye(4), None, identity_pilot(dims, 1.0))

    def test_rejects_non_psd_channel_covariance(self):
        dims = Dims(2, 1, 1)
        bad = np.diag([1.0, -0.5])
        with pytest.raises(NotPositiveSemiDefinite):
            stat_model_from_pilot(dims, None, bad, None, identity_pilot(dims, 1.0))

    def test_rejects_non_hermitian(self):
        dims = Dims(2, 1, 1)
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotPositiveSemiDefinite):
            stat_model_from_pilot(dims, None, bad, None, identity_pilot(dims, 1.0))

    @pytest.mark.parametrize(
        "interferers, error",
        [
            ((np.eye(4),), ShapeError),
            (((0.5,),), ShapeError),
            (((0.5, np.eye(4), 1.0),), ShapeError),
            (((0.5, np.eye(2)),), ShapeError),
            (((0.5, np.diag([1.0, -0.5, 1.0, 1.0])),), NotPositiveSemiDefinite),
            (((0.5, np.triu(np.ones((4, 4)))),), NotPositiveSemiDefinite),
            # the powers are checked before any covariance
            (((-0.5, np.eye(2)),), InvalidParameter),
        ],
        ids=["bare-covariance", "single", "triple", "wrong-shape", "not-psd", "not-hermitian", "negative-beta"],
    )
    def test_rejects_malformed_interferer(self, interferers, error):
        dims = Dims(2, 2, 2)
        with pytest.raises(error):
            stat_model_from_pilot(dims, None, np.eye(dims.n), None, identity_pilot(dims, 1.0), interferers)


def hermitian_with_spectrum(rng, eigs):
    q, _ = np.linalg.qr(complex_vector(rng, (len(eigs), len(eigs))))
    return q @ np.diag(eigs) @ q.conj().T


class TestValidation:
    @pytest.mark.parametrize("betas", [(), (0.1, 0.1), (1.0, 0.0, 0.7)], ids=["noise-limited", "two", "cyclic"])
    def test_correlated_build_runs_no_factorization(self, monkeypatch, betas):
        # the validated coefficients fix every Kronecker factor, so no
        # Cholesky or eigensolver of any size runs (counted through
        # numpy.linalg and scipy.linalg)
        counts = {}
        count_calls(monkeypatch, np.linalg, ("cholesky",), counts)
        count_calls(monkeypatch, scipy.linalg, ("cholesky", "cho_factor"), counts)
        count_eig_calls(monkeypatch, counts)
        correlated_model(Dims(20, 4, 4), 10.0, betas)
        assert counts == {"cholesky": 0, "cho_factor": 0, "eigh": 0, "eigvalsh": 0}

    def test_negative_eigenvalue_rejected_with_message(self, rng):
        dims = Dims(2, 2, 2)
        bad = hermitian_with_spectrum(rng, [-1e-3, 1.0, 2.0, 3.0])
        with pytest.raises(NotPositiveSemiDefinite, match=r"^r_cov has negative eigenvalue -1\.000e-03 \(largest 3\.000e\+00\)$"):
            stat_model_from_pilot(dims, None, bad, None, identity_pilot(dims, 1.0))

    def test_negative_eigenvalue_within_tolerance_accepted(self, rng):
        dims = Dims(2, 2, 2)
        r_cov = hermitian_with_spectrum(rng, [-1e-13 * 3.0, 1.0, 2.0, 3.0])
        model = stat_model_from_pilot(dims, None, r_cov, None, identity_pilot(dims, 1.0))
        assert_allclose(model.r_cov, r_cov, atol=1e-14)

    def test_zero_block_channel_covariance_accepted_and_factored(self, rng):
        dims = Dims(2, 2, 2)
        r_cov = np.zeros((dims.n, dims.n), dtype=complex)
        r_cov[:2, :2] = random_hermitian_psd(rng, 2)
        model = stat_model_from_pilot(dims, None, r_cov, None, identity_pilot(dims, 1.0))
        factor = psd_factor(model.r_cov)
        assert_allclose(factor @ factor.conj().T, r_cov, atol=1e-12)

    def test_semidefinite_factor_costs_one_cholesky_and_one_eigh(self, monkeypatch):
        counts = {}
        count_calls(monkeypatch, np.linalg, ("cholesky",), counts)
        count_eig_calls(monkeypatch, counts)
        psd_factor(np.diag([1.0, 0.0, 2.0]))
        assert counts == {"cholesky": 1, "eigh": 1, "eigvalsh": 0}

    def test_singular_disturbance_covariance_rejected(self):
        dims = Dims(2, 1, 1)
        with pytest.raises(NotPositiveSemiDefinite, match="s_cov must be positive definite"):
            StatModel(dims, None, np.eye(dims.n), None, np.diag([1.0, 0.0]), np.eye(1))

    @pytest.mark.filterwarnings("error")
    def test_infinite_entry_is_not_positive_definite(self):
        # both Frobenius norms of the Hermitian test are infinite, and a Cholesky of the symmetrized matrix does not
        # raise, so this matrix used to be accepted as positive definite, after a warning
        with pytest.raises(NotPositiveSemiDefinite, match="^matrix holds NaN or infinity$"):
            check_hermitian_psd(np.array([[1, np.inf], [1, 1]]))

    @pytest.mark.filterwarnings("error")
    def test_hermitize_of_entries_near_the_float_limit_does_not_overflow(self):
        # a + a^H overflowed for entries above about 9e307; the two halves cannot
        a = np.array([[1e308, 1.5e308 + 1e307j], [1.5e308 - 1e307j, 1.0]])
        assert hermitize(a).tobytes() == a.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_skew_entries_near_the_float_limit_are_rejected_without_overflow(self):
        # a - a^H overflowed for entries of opposite sign near the float limit; the halves a / 2 - a^H / 2 cannot
        with pytest.raises(NotPositiveSemiDefinite, match="^matrix is not Hermitian within tolerance$"):
            check_hermitian_psd(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150, 1e290])
    @pytest.mark.parametrize("dim", [2, 5, 17])
    def test_hermitian_decision_is_the_full_difference_rule_bit_for_bit(self, rng, dim, scale, layout):
        # a / 2 - a^H / 2 against half the tolerance decides as ||a - a^H||_F <= HERMITIAN_RTOL ||a||_F did, on both
        # sides of the tolerance: a[0, 0], which moves ||a||_F and not the skew part, is bisected to the last float
        # that this rule rejects, and stepped one float at a time across it
        def full_difference_accepts(a):
            skew = scipy.linalg.norm((a - a.conj().T).ravel(), check_finite=False)
            return skew <= HERMITIAN_RTOL * scipy.linalg.norm(a.ravel(order="K"), check_finite=False)

        def accepts(a):
            try:
                check_hermitian_psd(a)
            except NotPositiveSemiDefinite as error:
                assert str(error) == "matrix is not Hermitian within tolerance"
                return False
            return True

        def with_corner(a, corner):
            a[0, 0] = corner
            return a

        hermitian = hermitize(random_hermitian_psd(rng, dim))
        skew = complex_vector(rng, (dim, dim))
        skew -= skew.conj().T
        step = HERMITIAN_RTOL * np.linalg.norm(hermitian) / np.linalg.norm(2 * skew)
        a = np.asarray(scale * (hermitian + step * skew), order=layout)
        rejected, accepted = 0.5 * a[0, 0].real, 2.0 * a[0, 0].real
        assert not full_difference_accepts(with_corner(a, rejected)) and full_difference_accepts(with_corner(a, accepted))
        while np.nextafter(rejected, accepted) != accepted:
            middle = 0.5 * (rejected + accepted)
            if full_difference_accepts(with_corner(a, middle)):
                accepted = middle
            else:
                rejected = middle
        corner = rejected
        for _ in range(12):
            corner = np.nextafter(corner, 0.0)
        decisions = []
        for _ in range(25):
            decisions.append(full_difference_accepts(with_corner(a, corner)))
            assert accepts(a) == decisions[-1], corner
            corner = np.nextafter(corner, np.inf)
        assert decisions[12:14] == [False, True]  # the bisected pair

    @pytest.mark.filterwarnings("error")
    def test_pilot_that_overflows_the_disturbance_covariance_is_typed(self):
        # a finite pilot whose sandwich of the interferer covariance overflows: a typed error, with no numpy warning
        dims = Dims(2, 2, 2)
        pilot, interferers = 1e306 * identity_pilot(dims, 2.0), ((0.1, np.eye(dims.n)),)
        with pytest.raises(InvalidParameter, match="pilot"):
            stat_model_from_pilot(dims, None, np.eye(dims.n), None, pilot, interferers)


MEMORY_BETAS = {"noise-limited": (), "two": (0.1, 0.1), "three": (1.0, 0.3, 0.7)}


class TestBuildMemory:
    @pytest.mark.parametrize("betas", MEMORY_BETAS.values(), ids=MEMORY_BETAS.keys())
    def test_build_forms_no_m_by_m_array(self, betas):
        # the build keeps the (n_t, n_t) and (n_r, n_r) factors of each term
        # and forms neither r_cov nor s_cov: its peak is below a tenth of one
        # m x m complex array, whatever the number of interferers
        for dims in (Dims(40, 10, 10), Dims(20, 20, 20)):
            model, peak = traced_peak(lambda: correlated_model(dims, 5.0, betas))
            assert peak < 0.1 * dims.m**2 * 16, dims
            assert "r_cov" not in vars(model) and "s_cov" not in vars(model)

    @pytest.mark.parametrize("betas", [(0.1, 0.1), (1.0, 0.3, 0.7)], ids=["two", "three"])
    def test_first_s_cov_read_holds_one_interferer_covariance_at_a_time(self, betas):
        # s_cov, one interferer covariance and the two scaled copies of its
        # sandwich: about 4 m x m complex arrays, whatever the number of
        # interferers, since each is added before the next is formed
        for dims in (Dims(20, 4, 4), Dims(40, 5, 5)):
            model = correlated_model(dims, 5.0, betas)
            assert traced_peak(lambda: model.s_cov)[1] < 4.6 * dims.m**2 * 16, dims

    @pytest.mark.parametrize("betas", [(0.1, 0.1), (1.0, 0.3, 0.7)], ids=["two", "three"])
    def test_first_s_cov_read_forms_each_interferer_term_in_one_buffer(self, betas):
        # s_cov and one reused (n_t, n_r, n_t, n_r) term, scaled in place: about 2 m x m
        # complex arrays where the sandwich's scaled copies made it 4
        dims = Dims(40, 10, 10)
        model = correlated_model(dims, 5.0, betas)
        assert traced_peak(lambda: model.s_cov)[1] < 2.5 * dims.m**2 * 16

    @pytest.mark.parametrize("betas", [(0.1, 0.1), (1.0, 0.3, 0.7)], ids=["two", "three"])
    def test_first_s_cov_read_at_desk_scale_holds_no_iterator_buffer(self, betas):
        # at m = 80 a broadcast ufunc over the whole term buffers about one or two m x m
        # arrays more (4.03 in all); scaled by transmit rows, s_cov and the term stay near 2
        dims = Dims(20, 4, 4)
        model = correlated_model(dims, 5.0, betas)
        assert traced_peak(lambda: model.s_cov)[1] < 2.5 * dims.m**2 * 16

    def test_build_and_one_analytic_sweep_point_form_no_covariance(self):
        # the closed forms, floors and normalized rows read the limit spectrum
        # and the O(m) summaries of the Kronecker terms; the limit, which a
        # table decomposes once for all its points, is computed beforehand
        dims = Dims(40, 10, 10)
        config = default_config("sweep-snr", n_r=40, n_t=10, snr_db=(10.0,), betas=(0.1, 0.1), monte_carlo=False)
        correlated_limit(dims, config.betas)

        def point():
            model = correlated_model(dims, 10.0, config.betas)
            return model, _sweep_point(config, model, {"degrees": config.degree}, 10.0, 0)

        (model, rows), peak = traced_peak(point)
        assert [row.estimator for row in rows] == list(NAMES)
        assert peak < 2 * dims.m**2 * 16
        assert "r_cov" not in vars(model) and "s_cov" not in vars(model)

    def test_cold_limit_and_real_form_peak_below_their_old_blocks(self):
        # the limit holds its real form, then the real eigenvectors and one real LIMIT_BLOCK of their energies
        # (2.46 m x m complex arrays when the energies took complex blocks of mapped eigenvectors, 1.22 measured);
        # a cold z_real holds the form and the factors' (0.85 when it was filled from complex top rows, 0.62)
        dims = Dims(40, 10, 10)
        correlated_limit.cache_clear()
        assert traced_peak(lambda: correlated_limit(dims, (0.1, 0.1)))[1] < 1.7 * dims.m**2 * 16
        model = correlated_model(dims, 5.0, (0.1, 0.1))
        assert traced_peak(lambda: model.z_real)[1] < 0.7 * dims.m**2 * 16


class TestObservationCovarianceCache:
    def test_dense_z_matches_factored_application(self, rng):
        # the estimators and the dense filter views share this one z
        model = random_model(rng)
        pe = model.pilot_ext
        v = complex_vector(rng, (model.dims.m, 3))
        factored = pe @ (model.r_cov @ (pe.conj().T @ v)) + model.s_cov @ v
        assert np.linalg.norm(model.z @ v - factored) <= 1e-12 * np.linalg.norm(factored)

    def test_z_and_factor_are_formed_once(self, rng):
        model = random_model(rng)
        assert model.z is model.z
        assert model.z_factor is model.z_factor

    def test_z_and_factor_are_read_only(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError):
            model.z[0, 0] = 0.0
        with pytest.raises(ValueError):
            model.z_factor[0][0, 0] = 0.0

    def test_derived_model_forms_its_own_z(self, rng):
        model = random_model(rng)
        model.z_spectrum  # fill the parent's caches before deriving
        derived = replace(model, r_cov=2.0 * model.r_cov)
        pe = derived.pilot_ext
        expected = pe @ (2.0 * model.r_cov) @ pe.conj().T + model.s_cov
        assert_allclose(derived.z, expected, rtol=1e-12, atol=1e-12 * np.linalg.norm(expected))
        assert derived.z_spectrum.lam[-1] > model.z_spectrum.lam[-1]

    def test_failed_factorization_is_singular_covariance(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        model = random_model(rng)
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
        with pytest.raises(SingularCovariance):
            mmse_estimate(model, model.y_mean())


def channel_model(r_cov, h_mean=None):
    """Identity-pilot, unit-noise model with one receive antenna and the given channel statistics."""
    n = r_cov.shape[0]
    dims = Dims(1, n, n)
    return stat_model_from_pilot(dims, h_mean, r_cov, None, identity_pilot(dims, 1.0))


class TestSampleGaussian:
    """Channel draws of StatModel.draw and the sampling factor psd_factor."""

    def test_zero_covariance_returns_mean(self, rng):
        mean = complex_vector(rng, 4)
        h, _ = channel_model(np.zeros((4, 4)), mean).draw(np.random.default_rng(0), 3)
        assert_allclose(h, np.repeat(mean[:, None], 3, axis=1))

    def test_deterministic_given_seed(self, rng):
        model = channel_model(random_hermitian_psd(rng, 5))
        h_a, y_a = model.draw(np.random.default_rng(33), 2)
        h_b, y_b = model.draw(np.random.default_rng(33), 2)
        assert_allclose(h_a, h_b)
        assert_allclose(y_a, y_b)

    def test_empirical_covariance_identity(self):
        h, _ = channel_model(np.eye(4)).draw(np.random.default_rng(7), 100_000)
        emp = h @ h.conj().T / h.shape[1]
        assert np.max(np.abs(emp - np.eye(4))) < 0.05

    def test_semidefinite_covariance_accepted(self):
        cov = np.diag([1.0, 0.0, 2.0]).astype(complex)
        h, _ = channel_model(cov).draw(np.random.default_rng(1), 200)
        assert_allclose(h[1], 0.0, atol=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemiDefinite):
            psd_factor(np.diag([1.0, -1.0]))

    def test_psd_factor_reconstructs(self, rng):
        cov = random_hermitian_psd(rng, 6, eig_lo=0.0, eig_hi=2.0)
        factor = psd_factor(cov)
        assert_allclose(factor @ factor.conj().T, cov, atol=1e-10)


class TestObserve:
    """Observations y = apply_pilot(h) + n, as StatModel.draw forms them."""

    def test_zero_inputs(self):
        model = random_model(np.random.default_rng(0), zero_means=True)
        y = model.apply_pilot(np.zeros(model.dims.n)) + np.zeros(model.dims.m)
        assert_allclose(y, 0.0)

    def test_noiseless_identity_pilot_scales_channel(self, rng):
        model = random_model(rng, zero_means=True)
        pilot_power = model.pilot[0, 0].real ** 2
        h = complex_vector(rng, model.dims.n)
        y = model.apply_pilot(h) + np.zeros(model.dims.m)
        assert_allclose(y, np.sqrt(pilot_power) * h, rtol=1e-12)

    def test_deviation_matches_direct_formula(self, rng):
        model = random_model(rng)
        h = complex_vector(rng, model.dims.n)
        noise = complex_vector(rng, model.dims.m)
        y = model.apply_pilot(h) + noise
        direct = y - model.pilot_ext @ model.h_mean - model.n_mean
        assert np.max(np.abs(deviation(model, y) - direct)) < 1e-14 * np.linalg.norm(direct)

    # a wrong length, a scalar, and a 3-D array that would otherwise reach
    # numpy broadcasting untyped
    @pytest.mark.parametrize(
        "shape", [lambda m: (m + 2,), lambda m: (), lambda m: (m, 2, 3)], ids=["long", "scalar", "3-d"]
    )
    def test_shape_mismatch(self, rng, shape):
        model = random_model(rng)
        with pytest.raises(ShapeError):
            deviation(model, np.zeros(shape(model.dims.m)))

    def test_empirical_observation_covariance(self, rng):
        # covariance of y approaches pilot r pilot^H + s over many draws
        model = random_model(rng, n_r=3, n_t=2, zero_means=True)
        draws = 20_000
        _, y = model.draw(np.random.default_rng(11), draws)
        emp = y @ y.conj().T / draws
        expected = model.pilot_ext @ model.r_cov @ model.pilot_ext.conj().T + model.s_cov
        spectral = np.linalg.norm(expected, 2)
        assert np.max(np.abs(emp - expected)) < 0.05 * spectral


class TestArbitraryPilot:
    def test_injected_pilot_shapes(self, rng):
        dims = Dims(2, 3, 4)
        pilot = complex_vector(rng, 12).reshape(3, 4)
        model = stat_model_from_pilot(dims, None, np.eye(dims.n), None, pilot)
        assert model.pilot_ext.shape == (dims.m, dims.n)
        assert_allclose(model.pilot_ext, np.kron(pilot.T, np.eye(2)))

    @pytest.mark.parametrize("n_t, b", [(2, 3), (3, 5)])
    def test_contaminated_disturbance_matches_dense_product(self, rng, n_t, b):
        dims = Dims(2, n_t, b)
        pilot = complex_vector(rng, n_t * b).reshape(n_t, b)
        covs = tuple(random_hermitian_psd(rng, dims.n) for _ in range(2))
        betas = (0.3, 0.7)
        model = stat_model_from_pilot(
            dims, None, np.eye(dims.n), None, pilot, tuple(zip(betas, covs)), 0.8
        )
        p_ext = extend_pilot(pilot, dims.n_r)
        expected = 0.8 * np.eye(dims.m)
        for beta, cov in zip(betas, covs):
            expected = expected + beta * p_ext @ cov @ p_ext.conj().T
        assert np.linalg.norm(model.s_cov - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_pilot_shape_mismatch(self):
        # the builder and the model name a pilot that is not n_t x b with one error, check_array's
        dims, pilot = Dims(2, 2, 3), np.ones((3, 2))
        message = re.escape("pilot must be of shape (2, 3), got shape (3, 2)")
        with pytest.raises(ShapeError, match=message):
            stat_model_from_pilot(dims, None, np.eye(dims.n), None, pilot)
        with pytest.raises(ShapeError, match=message):
            StatModel(dims, None, np.eye(dims.n), None, np.eye(dims.m), pilot)


SANDWICH_DIMS = {"20x4": Dims(20, 4, 4), "5x3": Dims(5, 3, 3), "100x10": Dims(100, 10, 10), "3x1": Dims(3, 1, 1)}
SANDWICH_BETAS = {"none": (), "0.1": (0.1, 0.1), "cyclic": (1.0, 0.3, 0.7)}


# the cases of one SNR run through the betas with both noise variances, so two entries serve all of them and
# at most two complex m x m arrays are kept at m = 1000
@functools.lru_cache(maxsize=2)
def channel_sandwich(dims, gamma_db, noise_var):
    """:func:`oracles.pilot_sandwich` of a correlated model's channel covariance, which the betas do not change."""
    model = correlated_model(dims, gamma_db, (), noise_var=noise_var)
    return pilot_sandwich(model.pilot, dims.n_r, model.r_cov)


class TestPilotSandwich:
    """The identity pilot's sandwich scales; every other pilot is contracted and symmetrized."""

    @pytest.mark.parametrize("noise_var", [1.0, 0.5])
    @pytest.mark.parametrize("betas", SANDWICH_BETAS.values(), ids=SANDWICH_BETAS.keys())
    @pytest.mark.parametrize("gamma_db", [-10.0, 0.0, 7.3, 30.0])
    @pytest.mark.parametrize("dims", SANDWICH_DIMS.values(), ids=SANDWICH_DIMS.keys())
    def test_correlated_z_is_the_symmetrized_contraction_bit_for_bit(self, dims, gamma_db, betas, noise_var):
        # the scaled sandwich is the same bits as the contraction of
        # oracles.pilot_sandwich, symmetrized as the dense path does
        model = correlated_model(dims, gamma_db, betas, noise_var=noise_var)
        assert model.z.tobytes() == hermitize(channel_sandwich(dims, gamma_db, noise_var) + model.s_cov).tobytes()

    @pytest.mark.parametrize("betas", SANDWICH_BETAS.values(), ids=SANDWICH_BETAS.keys())
    @pytest.mark.parametrize("gamma_db", [-10.0, 0.0, 7.3, 30.0])
    @pytest.mark.parametrize("dims", [SANDWICH_DIMS[key] for key in ("20x4", "5x3", "3x1")], ids=["20x4", "5x3", "3x1"])
    def test_correlated_disturbance_is_the_symmetrized_contraction_bit_for_bit(self, dims, gamma_db, betas):
        interferers = correlated_contamination(dims, betas)
        pilot = identity_pilot(dims, 0.5 * 10.0 ** (gamma_db / 10.0))
        s_cov = 0.5 * np.eye(dims.m, dtype=complex)
        for beta, cov in interferers:
            s_cov = s_cov + beta * pilot_sandwich(pilot, dims.n_r, cov)
        want = hermitize(s_cov).tobytes()
        assert correlated_model(dims, gamma_db, betas, noise_var=0.5).s_cov.tobytes() == want
        assert stat_model_from_pilot(dims, None, np.eye(dims.n), None, pilot, interferers, 0.5).s_cov.tobytes() == want

    @pytest.mark.parametrize(
        "pilot",
        [
            lambda rng: complex_vector(rng, 9).reshape(3, 3),
            lambda rng: np.diag([1.0, 2.0, 3.0]).astype(complex),
            lambda rng: 1j * np.eye(3),
        ],
        ids=["random", "diagonal", "imaginary-scalar"],
    )
    def test_square_pilots_other_than_a_real_scalar_are_contracted(self, rng, pilot):
        pilot = pilot(rng)
        dims = Dims(2, 3, 3)
        covs = tuple(random_hermitian_psd(rng, dims.n) for _ in range(2))
        betas = (0.3, 0.7)
        r_cov = random_hermitian_psd(rng, dims.n)
        model = stat_model_from_pilot(dims, None, r_cov, None, pilot, tuple(zip(betas, covs)), 0.8)
        p_ext = extend_pilot(pilot, dims.n_r)
        dense = 0.8 * np.eye(dims.m) + p_ext @ model.r_cov @ p_ext.conj().T
        for beta, cov in zip(betas, covs):
            dense = dense + beta * p_ext @ cov @ p_ext.conj().T
        assert np.array_equal(model.z, model.z.conj().T)
        assert relative_error(model.z, dense) <= 1e-12

    @pytest.mark.parametrize("root", [2.5, -0.5, 1.0])
    def test_scaled_identity_pilot_is_scaled_not_contracted(self, rng, root, monkeypatch):
        dims = Dims(3, 2, 2)
        model = stat_model_from_pilot(
            dims, None, random_hermitian_psd(rng, dims.n), None, root * np.eye(2, dtype=complex)
        )
        monkeypatch.setattr(np, "tensordot", None)
        assert model.z.tobytes() == (root * (root * model.r_cov) + model.s_cov).tobytes()


PILOT_SHAPES = [(2, 3), (3, 5)]


class TestStructuredPilot:
    """The Kronecker-structured pilot applies agree with the dense extend_pilot products."""

    @pytest.mark.parametrize("n_t, b", PILOT_SHAPES)
    @pytest.mark.parametrize("batch", [(), (4,)])
    def test_apply_pilot_and_adjoint_match_dense(self, rng, n_t, b, batch):
        model = random_pilot_model(rng, n_t, b)
        p_ext = extend_pilot(model.pilot, model.dims.n_r)
        x = complex_vector(rng, (model.dims.n, *batch))
        y = complex_vector(rng, (model.dims.m, *batch))
        assert model.apply_pilot(x).shape == (model.dims.m, *batch)
        assert model.apply_pilot_adjoint(y).shape == (model.dims.n, *batch)
        assert relative_error(model.apply_pilot(x), p_ext @ x) <= 1e-12
        assert relative_error(model.apply_pilot_adjoint(y), p_ext.conj().T @ y) <= 1e-12

    @pytest.mark.parametrize("n_t, b", PILOT_SHAPES)
    def test_z_y_mean_and_observe_match_dense(self, rng, n_t, b):
        model = random_pilot_model(rng, n_t, b)
        p_ext = extend_pilot(model.pilot, model.dims.n_r)
        assert relative_error(model.z, p_ext @ model.r_cov @ p_ext.conj().T + model.s_cov) <= 1e-12
        assert np.array_equal(model.z, model.z.conj().T)
        assert relative_error(model.y_mean(), p_ext @ model.h_mean + model.n_mean) <= 1e-12
        h = complex_vector(rng, (model.dims.n, 4))
        noise = complex_vector(rng, (model.dims.m, 4))
        assert relative_error(model.apply_pilot(h) + noise, p_ext @ h + noise) <= 1e-12
        assert relative_error(model.apply_pilot(h[:, 0]) + noise[:, 0], p_ext @ h[:, 0] + noise[:, 0]) <= 1e-12

    @pytest.mark.parametrize("n_t, b", PILOT_SHAPES)
    def test_draw_matches_explicit_formula(self, rng, n_t, b):
        # nonzero means and a non-square pilot; the channel is drawn before the disturbance
        model = random_pilot_model(rng, n_t, b)
        h, y = model.draw(np.random.default_rng(5), 7)
        gen = np.random.default_rng(5)
        h_ref = model.h_mean[:, None] + model.r_factor @ standard_complex_normal(gen, model.dims.n, 7)
        noise = model.n_mean[:, None] + model.s_factor @ standard_complex_normal(gen, model.dims.m, 7)
        p_ext = extend_pilot(model.pilot, model.dims.n_r)
        assert np.array_equal(h, h_ref)
        assert relative_error(y, p_ext @ h_ref + noise) <= 1e-12
        assert np.array_equal(y, model.apply_pilot(h_ref) + noise)

    def test_pilot_ext_is_derived_not_stored(self, rng):
        model = random_pilot_model(rng, 2, 3)
        assert np.array_equal(model.pilot_ext, extend_pilot(model.pilot, model.dims.n_r))
        with pytest.raises(FrozenInstanceError):
            model.pilot_ext = np.zeros((model.dims.m, model.dims.n))
        with pytest.raises(TypeError):
            StatModel(
                model.dims, None, model.r_cov, None, model.s_cov, model.pilot, pilot_ext=model.pilot_ext
            )


class TestSamplingFactors:
    def test_factors_reconstruct_covariances(self, rng):
        model = random_pilot_model(rng, 3, 5)
        for factor, cov in ((model.r_factor, model.r_cov), (model.s_factor, model.s_cov)):
            assert relative_error(factor @ factor.conj().T, cov) <= 1e-12

    def test_factors_are_cached_and_read_only(self, rng):
        model = random_model(rng)
        assert model.r_factor is model.r_factor
        assert model.s_factor is model.s_factor
        with pytest.raises(ValueError):
            model.r_factor[0, 0] = 0.0
        with pytest.raises(ValueError):
            model.s_factor[0, 0] = 0.0

    def test_factors_are_lazy(self, rng, monkeypatch):
        # a model that is never sampled from holds no factor
        counts = {}
        count_calls(monkeypatch, np.linalg, ("cholesky",), counts)
        model = random_model(rng)
        built = counts["cholesky"]
        model.z_spectrum
        assert counts["cholesky"] == built
        model.r_factor, model.s_factor, model.r_factor
        assert counts["cholesky"] == built + 2

