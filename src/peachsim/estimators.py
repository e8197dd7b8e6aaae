"""Channel estimators and their closed-form MSE evaluators.

Exact baselines (Bayesian MMSE, classical MVU, diagonalized) next to the
polynomial-expansion family: the truncated Neumann-series estimator with a
single scaling (kind ``PEACH``) and its per-term weighted refinement with
MSE-optimal weights (kind ``W-PEACH``).

:func:`prepare` (or :func:`bind`, for a given polynomial filter) does an
estimator's per-epoch work once; its :class:`Prepared` has ``apply(y)``, the
per-realization estimate, and ``mse()``, the closed form.  The free functions
(``mmse_estimate``, ``diag_mse``, ...) are wrappers that prepare per call.

Both polynomial kinds are one :class:`PolyEstimator`, whose one Horner loop
applies the filter to observations with matrix-vector products, O(L * m^2),
and evaluates it at eigenvalues for the closed-form MSEs, the floors and the
mismatched scores.  Closed-form MSEs, the default scalings and the optimal
weights come from the model's one cached spectrum of z (see
:mod:`peachsim.spectrum`).  The MVU baseline is computed in the coordinates
of the pilot's QR decomposition, O(m^2 * b), with no O(m^3) work for a
square pilot.  Estimators prepared from an estimated channel covariance are
scored under the true statistics in the eigenbasis of the estimated z
(:func:`mismatched_mse`).  The dense filter views are kept as independent
oracles only.
"""

from __future__ import annotations

import enum
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DivergentExpansionWarning,
    InvalidDegree,
    InvalidScaling,
    NotPositiveDefinite,
    RankDeficientPilot,
    ShapeError,
    UnsupportedEstimator,
    UnsupportedPilot,
)
from .model import StatModel, _pilot_sandwich, check_hermitian_psd, deviation, hermitize, z_matrix
from .spectrum import Spectrum, check_degree


class EstimatorKind(enum.Enum):
    PEACH = "peach"
    WPEACH = "wpeach"

    @classmethod
    def _missing_(cls, value):
        raise UnsupportedEstimator(f"unknown estimator kind {value!r}")


@dataclass(frozen=True, eq=False)
class PolyEstimator:
    """A prepared polynomial filter v of degree L: scaling alpha, ``degree + 1`` weights w_l.

    PEACH is the truncated Neumann series v(x) = alpha sum_l (1 - alpha x)^l
    of 1/x (unit weights), W-PEACH v(x) = alpha sum_l w_l (alpha x)^l.
    Raises :class:`UnsupportedEstimator` (a kind that is not an :class:`EstimatorKind` or its value),
    :class:`InvalidDegree` or :class:`InvalidScaling` (alpha not finite and positive, or a weight not
    finite).  The weights are kept read-only; estimators compare and hash by identity.
    """

    kind: EstimatorKind
    degree: int
    alpha: float
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kind", EstimatorKind(self.kind))
        check_degree(self.degree)
        # a read-only copy, so the checked weights cannot change afterwards
        weights = np.array(self.weights, dtype=complex)
        weights.flags.writeable = False
        if weights.shape != (self.degree + 1,):
            raise InvalidDegree(f"need degree + 1 weights, got {self.degree} and {weights.shape}")
        if not (np.isfinite(self.alpha) and self.alpha > 0) or not np.all(np.isfinite(weights)):
            raise InvalidScaling(f"need a finite positive alpha and finite weights, got alpha={self.alpha!r}")
        object.__setattr__(self, "weights", weights)

    def values(self, lam: np.ndarray) -> np.ndarray:
        """The filter v at the eigenvalues ``lam``."""
        t = 1.0 - self.alpha * lam if self.kind is EstimatorKind.PEACH else self.alpha * lam
        return self._horner(lambda acc: t * acc, np.ones(lam.shape))

    def apply(self, z: np.ndarray, d: np.ndarray) -> np.ndarray:
        """v(z) d for a vector or a batch of columns ``d``, with L products by ``z`` and no power of it."""
        if self.kind is EstimatorKind.PEACH:
            return self._horner(lambda acc: acc - self.alpha * (z @ acc), d)
        return self._horner(lambda acc: self.alpha * (z @ acc), d)

    def _horner(self, step, d):
        # acc <- t(acc) + w_l d from the top weight down, then alpha acc.  A
        # unit weight skips its multiply, so PEACH pays only its z products,
        # and no term is bound to a name, so numpy may add into temporaries
        term = lambda w_l: d if w_l == 1 else w_l * d
        acc = term(self.weights[-1])
        for w_l in self.weights[-2::-1]:
            acc = step(acc) + term(w_l)
        return self.alpha * acc


# ---------------------------------------------------------------------------
# scaling rules


def alpha_optimal(z: np.ndarray) -> float:
    """Scaling 2 / (largest + smallest eigenvalue), the fastest-converging choice.

    Minimizes the spectral radius of I - alpha * z over the convergent range.
    """
    eigs = np.linalg.eigvalsh(hermitize(np.asarray(z, dtype=complex)))
    if eigs[0] <= 0:
        raise NotPositiveDefinite(f"matrix must be positive definite, min eigenvalue {eigs[0]:.3e}")
    return float(2.0 / (eigs[-1] + eigs[0]))


def alpha_gershgorin(z: np.ndarray) -> float:
    """Scaling from Gershgorin eigenvalue bounds, avoiding an eigendecomposition."""
    z = np.asarray(z, dtype=complex)
    radii = np.sum(np.abs(z), axis=1) - np.abs(np.diag(z))
    diag = np.diag(z).real
    if np.any(diag <= 0):
        raise NotPositiveDefinite("matrix must be positive definite")
    upper = float(np.max(diag + radii))
    lower = max(float(np.min(diag - radii)), 0.0)
    return 2.0 / (upper + lower)


# ---------------------------------------------------------------------------
# prepared estimators


NAMES = ("mmse", "mvu", "diagonalized", "peach", "wpeach")  # the CSV names, in the sweep tables' row order


@dataclass(frozen=True, eq=False)
class Prepared:
    """An estimator prepared on ``model``: h_mean + ``head(d)`` per observation, ``mse()`` its closed-form MSE.

    Work that only one of the two needs runs on its first call, so an
    estimator that is only scored forms nothing it needs only to estimate.
    """

    model: StatModel
    head: Callable[[np.ndarray], np.ndarray]
    mse: Callable[[], float]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """The estimate of an (m,) observation or of each column of an (m, k) batch, from d = :func:`deviation`."""
        d = deviation(self.model, y)
        return (self.model.h_mean[:, None] if d.ndim == 2 else self.model.h_mean) + self.head(d)


def prepare(model: StatModel, name: str, degree: int | None = None) -> Prepared:
    """Prepare the estimator ``name`` of :data:`NAMES` on ``model``, at ``degree`` for the polynomials.

    The per-epoch half of the paper's cost split; :meth:`Prepared.apply` is
    the per-realization half.  ``mmse`` solves against the model's cached
    Cholesky factor of z, formed on the first ``apply`` and never by ``mse``,
    in two O(m^2) triangular solves per estimate, and rejects a non-finite
    observation (``ValueError``); ``mvu`` is :func:`_mvu_system`,
    ``diagonalized`` :func:`_diagonalized`, and ``peach`` and ``wpeach`` bind
    :func:`make_peach` and :func:`make_wpeach` at their default scalings.  Any
    other name raises :class:`UnsupportedEstimator`.
    """
    if name == "mmse":
        solve = lambda d: scipy.linalg.cho_solve(model.z_factor, np.asarray_chkfinite(d), check_finite=False)
        return Prepared(model, lambda d: model.r_cov @ model.apply_pilot_adjoint(solve(d)), lambda: model.z_spectrum.mmse())
    if name == "mvu":
        return _mvu_system(model)
    if name == "diagonalized":
        return _diagonalized(model)
    if name in ("peach", "wpeach"):
        return bind(model, (make_peach if name == "peach" else make_wpeach)(model, degree))
    raise UnsupportedEstimator(f"unknown estimator {name!r}; choose from {', '.join(NAMES)}")


def bind(model: StatModel, est: PolyEstimator) -> Prepared:
    """The polynomial filter ``est`` prepared on ``model``: r_cov pilot_ext^H v(z) d, and v on the spectrum of z.

    Each degree costs one product of z (formed once per model) with d; no power of z is formed.
    """
    head = lambda d: model.r_cov @ model.apply_pilot_adjoint(est.apply(model.z, d))
    return Prepared(model, head, lambda: model.z_spectrum.mse(est.values(model.z_spectrum.lam)))


# ---------------------------------------------------------------------------
# exact baselines


def mmse_estimate(model: StatModel, y: np.ndarray) -> np.ndarray:
    """Bayesian MMSE estimate h_mean + r_cov pilot_ext^H z^{-1} d (:func:`prepare`'s ``mmse``)."""
    return prepare(model, "mmse").apply(y)


def mmse_mse(model: StatModel) -> float:
    """Closed-form MSE trace(r_cov - r_cov pilot_ext^H z^{-1} pilot_ext r_cov) of the MMSE estimator."""
    return prepare(model, "mmse").mse()


def mvu_estimate(model: StatModel, y: np.ndarray) -> np.ndarray:
    """Minimum-variance unbiased estimate; uses disturbance statistics only (:func:`_mvu_system`)."""
    return prepare(model, "mvu").apply(y)


def mvu_variance(model: StatModel) -> float:
    """Estimation variance trace((pilot_ext^H s_cov^{-1} pilot_ext)^{-1}), from :func:`_mvu_system`."""
    return prepare(model, "mvu").mse()


def _mvu_system(model: StatModel) -> Prepared:
    """The MVU estimator in the coordinates of the complete QR pilot.T = Q R.

    With R1 the top n_t x n_t block of R, pilot_ext = (Q (x) I)([R1; 0] (x) I),
    so the rotated deviation x = (Q^H (x) I) d splits into
    x1 = (R1 (x) I)(h - h_mean) + w1 and x2 = w2, where the disturbance w has
    covariance S = (Q^H (x) I) s_cov (Q (x) I).  The estimate is h_mean +
    (R1^{-1} (x) I)(x1 - S12 S22^{-1} x2), both factors applied to reshaped
    views, with variance trace((R1^{-1} (x) I)(S11 - S12 S22^{-1} S21)(R1^{-1} (x) I)^H).
    Forming S costs O(m^2 * b), or O(m^2) for an identity pilot, whose Q is
    I; for b > n_t one Cholesky of the (m - n) block S22 follows, and for
    b == n_t nothing of size m is factored.
    :class:`RankDeficientPilot` unless the pilot has full row rank (b >= n_t
    and a smallest singular value above 1e-6 times the largest).
    """
    n_t, b = model.pilot.shape
    sing = np.linalg.svd(model.pilot, compute_uv=False)
    if b < n_t or sing[-1] <= 1e-6 * sing[0]:
        raise RankDeficientPilot("the pilot does not have full row rank; it does not excite all channel dimensions")
    n, m, n_r = model.dims.n, model.dims.m, model.dims.n_r
    q, r = np.linalg.qr(model.pilot.T, mode="complete")
    r1_inv = scipy.linalg.solve_triangular(r[:n_t], np.eye(n_t))
    # _pilot_sandwich(p) forms (p.T (x) I) s_cov (p.T (x) I)^H, so p = conj(Q) gives S
    s = _pilot_sandwich(q.conj(), n_r, model.s_cov)
    gain, schur = np.zeros((n, m - n), dtype=complex), s[:n, :n]
    if m > n:
        gain = scipy.linalg.cho_solve(scipy.linalg.cho_factor(s[n:, n:]), s[n:, :n]).conj().T
        schur = schur - gain @ s[n:, :n]
    # the variance is sum_jk M_kj trace(C_jk) over the (n_r, n_r) blocks C_jk
    # of the Schur complement, with M = R1^{-H} R1^{-1}: no n x n product
    block_traces = np.einsum("jrkr->jk", schur.reshape(n_t, n_r, n_t, n_r))
    variance = float(np.sum(block_traces * (r1_inv.conj().T @ r1_inv).T).real)

    def head(d):
        x = (q.conj().T @ d.reshape(b, -1)).reshape(d.shape)
        x1 = x[:n] - gain @ x[n:]
        return (r1_inv @ x1.reshape(n_t, -1)).reshape(x1.shape)

    return Prepared(model, head, lambda: variance)


def _diagonalized(model: StatModel) -> Prepared:
    """MMSE after zeroing all off-diagonal covariance entries, for a positive scaled-identity pilot sqrt(p_t) I only.

    :class:`UnsupportedPilot` for any other pilot.  Zero diagonal entries contribute zero MSE.
    """
    pilot, root = model.pilot, model.pilot[0, 0]
    if pilot.shape[0] != pilot.shape[1] or root.real <= 0 or abs(root.imag) > 1e-12 * abs(root) or not np.allclose(
        pilot, root * np.eye(pilot.shape[0]), rtol=0.0, atol=1e-12 * abs(root)
    ):
        raise UnsupportedPilot("requires a positive scaled-identity pilot (b == n_t)")
    p_t = float(root.real**2)
    r_diag = np.diag(model.r_cov).real
    s_diag = np.diag(model.s_cov).real
    coeff = (np.sqrt(p_t) * r_diag / (p_t * r_diag + s_diag)).astype(complex)
    mse = float(np.sum(r_diag * s_diag / (s_diag + p_t * r_diag)))
    return Prepared(model, lambda d: (coeff[:, None] if d.ndim == 2 else coeff) * d, lambda: mse)


def diag_estimate(model: StatModel, y: np.ndarray) -> np.ndarray:
    """MMSE after zeroing all off-diagonal covariance entries; O(m) per estimate."""
    return prepare(model, "diagonalized").apply(y)


def diag_mse(model: StatModel) -> float:
    """MSE of the diagonalized estimator; zero diagonal entries contribute zero."""
    return prepare(model, "diagonalized").mse()


# ---------------------------------------------------------------------------
# polynomial estimator construction


def make_peach(model: StatModel, degree: int, alpha: float | None = None) -> PolyEstimator:
    """Prepare an unweighted polynomial estimator for one statistics epoch.

    Without ``alpha`` the scaling is 2 / (lambda_max + lambda_min) of the
    model's shared spectrum of z, the fastest-converging one (as
    :func:`alpha_optimal`).  Another rule is passed as ``alpha``, for example
    ``alpha_gershgorin(z_matrix(model))``; outside the convergence bound of that
    spectrum it triggers :class:`DivergentExpansionWarning`, and evaluation
    stays defined but no longer approaches the MMSE estimator.
    """
    est = _peach_on(model.z_spectrum, degree, alpha)
    bound = 2.0 / model.z_spectrum.lam[-1]
    if alpha is not None and not est.alpha < bound:
        warnings.warn(
            f"alpha={est.alpha:.6g} outside the convergence bound (0, {bound:.6g})",
            DivergentExpansionWarning,
            stacklevel=2,
        )
    return est


def _peach_on(spectrum: Spectrum, degree: int, alpha: float | None = None) -> PolyEstimator:
    # PEACH for the eigenvalues of ``spectrum``, by default with the fastest-converging
    # scaling 2 / (lambda_max + lambda_min); the degree is checked before it sizes the weights
    check_degree(degree)
    if alpha is None:
        alpha = 2.0 / (spectrum.lam[-1] + spectrum.lam[0])
    return PolyEstimator(EstimatorKind.PEACH, degree, float(alpha), np.ones(degree + 1))


def make_wpeach(model: StatModel, degree: int, alpha_w: float | None = None) -> PolyEstimator:
    """Prepare a weighted polynomial estimator with MSE-optimal weights.

    The weights come from the least-squares form of the weight system (see
    :meth:`peachsim.spectrum.Spectrum.fit`), which stays accurate where the
    normal-equations solve degrades.  Without ``alpha_w`` the scaling is
    ``1 / lambda_max`` of the observation covariance (a numerically safe
    choice, :func:`default_alpha_w`).  An estimator with other weights is a
    :class:`PolyEstimator` built directly.
    """
    return _wpeach_on(model.z_spectrum, degree, alpha_w)


def _wpeach_on(spectrum: Spectrum, degree: int, alpha_w: float | None = None) -> PolyEstimator:
    # W-PEACH with the optimal weights on ``spectrum``: the monomial
    # coefficients of Spectrum.fit, rescaled to powers of alpha_w x
    if alpha_w is None:
        alpha_w = 1.0 / spectrum.lam[-1]
    poly, _ = spectrum.fit(degree)
    weights = poly / alpha_w ** (np.arange(degree + 1) + 1)
    return PolyEstimator(EstimatorKind.WPEACH, degree, float(alpha_w), weights)


def default_alpha_w(model: StatModel) -> float:
    """Weighted-estimator scaling 1 / lambda_max(z), :func:`make_wpeach`'s default."""
    return float(1.0 / model.z_spectrum.lam[-1])


# ---------------------------------------------------------------------------
# polynomial estimation (matrix-vector recursions only)


def peach_estimate(model: StatModel, est: PolyEstimator, y: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial estimator ``est``, PEACH or W-PEACH by the kind it carries (:func:`bind`)."""
    return bind(model, est).apply(y)


# the estimator carries its kind, so one function evaluates both
wpeach_estimate = peach_estimate


# ---------------------------------------------------------------------------
# analysis path: spectral MSE formulas


def _poly_accumulate(x: np.ndarray, degree: int) -> np.ndarray:
    # sum_{l=0}^{degree} x^l by repeated multiplication
    acc = np.eye(x.shape[0], dtype=complex)
    cur = np.eye(x.shape[0], dtype=complex)
    for _ in range(degree):
        cur = cur @ x
        acc = acc + cur
    return acc


def peach_mse(model: StatModel, degree: int, alpha: float) -> float:
    """Closed-form MSE of the unweighted polynomial estimator.

    trace(r + r pilot^H A_L z A_L^H pilot r - 2 r pilot^H A_L pilot r) with
    A_L the truncated expansion of z^{-1}, evaluated on the spectrum of z.
    """
    return bind(model, _peach_on(model.z_spectrum, degree, alpha)).mse()


def wpeach_mse_general(model: StatModel, degree: int, alpha_w: float, weights: np.ndarray) -> float:
    """MSE of the weighted estimator for any choice of weighting coefficients.

    The quadratic trace(r) + w^H A w - b^H w - w^H b is evaluated in the
    eigenbasis of the observation covariance, where it stays accurate even
    for the large, strongly cancelling weight vectors that high degrees
    produce.
    """
    return bind(model, PolyEstimator(EstimatorKind.WPEACH, degree, alpha_w, weights)).mse()


def wpeach_mse_optimal(model: StatModel, degree: int) -> float:
    """Minimum MSE trace(r) - b^H A^{-1} b of the weighted estimator.

    The value does not depend on the scaling alpha_w, which cancels inside
    the quadratic.  It is evaluated through the least-squares form, which
    keeps it accurate for degrees where the moment matrix is numerically
    singular.
    """
    return model.z_spectrum.fit(degree)[1]


def peach_as_wpeach_weights(degree: int) -> np.ndarray:
    """Weights that make the weighted estimator reproduce the unweighted one.

    w_n = (-1)^n sum_{l=n}^{L} C(l, n), to be combined with alpha_w = alpha.
    """
    check_degree(degree)
    return np.array(
        [(-1) ** n * sum(math.comb(l, n) for l in range(n, degree + 1)) for n in range(degree + 1)],
        dtype=complex,
    )


def mismatched_mse(model: StatModel, r_est: np.ndarray, degree: int) -> tuple[float, float]:
    """MSEs ``(mmse, wpeach)`` under ``model`` of the estimators prepared from ``r_est``.

    The estimators see ``model``'s statistics with ``r_est`` in place of its
    channel covariance, so z_est = :meth:`StatModel.observation_covariance`
    of ``r_est``; W-PEACH is :func:`make_wpeach`'s default on those
    statistics.  ``r_est`` is validated here, once (:class:`ShapeError`
    unless shaped like ``model.r_cov``, then :func:`check_hermitian_psd`);
    ``model`` is not validated again.  Both filters are functions v of
    z_est = U diag(lam) U^H, so with B = pilot_ext^H U, C = r_est B and
    D = r B the filter r_est pilot_ext^H v(z_est) has, under the true
    statistics, MSE =
    trace(r) - 2 Re sum_k v_k x_k + Re sum_kl v_k E_kl conj(v_l) G_lk, where
    x_k = sum_i conj(D_ik) C_ik, E = U^H z U = diag(lam) + (D - C)^H B and
    G = C^H C, whose diagonal holds the estimated energies.  One ``eigh`` of
    z_est and four O(m^3) products serve both filters; neither is formed densely.
    """
    if np.shape(r_est) != model.r_cov.shape:
        raise ShapeError(f"r_est must have the shape {model.r_cov.shape} of r_cov, got {np.shape(r_est)}")
    r_est, _ = check_hermitian_psd(r_est, "r_est")
    lam, vecs = scipy.linalg.eigh(model.observation_covariance(r_est), driver="evr")
    b = model.apply_pilot_adjoint(vecs)
    c_est, d_true = r_est @ b, model.r_cov @ b
    x = np.sum(d_true.conj() * c_est, axis=0)
    # H_kl = E_kl G_lk, so a filter's quadratic term is Re(v^T H conj(v))
    quad = (d_true - c_est).conj().T @ b
    quad[np.diag_indices_from(quad)] += lam
    quad *= c_est.T @ c_est.conj()
    wpeach = _wpeach_on(Spectrum(lam, np.sum(np.abs(c_est) ** 2, axis=0), float(np.trace(r_est).real)), degree)
    trace_r = float(np.trace(model.r_cov).real)
    return tuple(
        float(trace_r - 2.0 * np.sum(v * x).real + (v @ quad @ v.conj()).real)
        for v in (1.0 / lam, wpeach.values(lam))
    )


# ---------------------------------------------------------------------------
# dense linear-filter views, kept as oracles for the spectral MSE formulas


def poly_filter_matrix(model: StatModel, est: PolyEstimator) -> np.ndarray:
    """Dense filter G of a polynomial estimator, with h_hat = h_mean + G d.

    Oracle only: the estimation and analysis paths never form this matrix.
    """
    z = z_matrix(model)
    m = z.shape[0]
    if est.kind is EstimatorKind.PEACH:
        poly = est.alpha * _poly_accumulate(np.eye(m) - est.alpha * z, est.degree)
    else:
        poly = np.zeros((m, m), dtype=complex)
        cur = est.alpha * np.eye(m, dtype=complex)
        for w_l in est.weights:
            poly = poly + w_l * cur
            cur = est.alpha * (cur @ z)
    return model.r_cov @ model.pilot_ext.conj().T @ poly


def mmse_filter_matrix(model: StatModel) -> np.ndarray:
    """Dense MMSE filter r_cov pilot_ext^H z^{-1}."""
    b = model.pilot_ext @ model.r_cov
    return np.linalg.solve(z_matrix(model), b).conj().T


def linear_filter_mse(model: StatModel, g_mat: np.ndarray) -> float:
    """Exact MSE of any linear estimator h_hat = h_mean + G d under ``model``.

    trace(r) - 2 Re trace(G pilot r) + trace(G z G^H); the oracle for the
    spectral closed forms and for :func:`mismatched_mse`.
    """
    b = model.pilot_ext @ model.r_cov
    z = z_matrix(model)
    tr_r = float(np.trace(model.r_cov).real)
    cross = float(np.trace(g_mat @ b).real)
    quad = float(np.trace(g_mat @ z @ g_mat.conj().T).real)
    return tr_r - 2.0 * cross + quad
