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
and evaluates it at eigenvalues for every closed-form MSE (the optimal W-PEACH
one too), the floors and the mismatched scores.  The products, and MMSE's
solves, take the operator the model gives (:meth:`StatModel.z_operator`): on a
correlated model the real symmetric form of its centro-Hermitian z and its
real Cholesky factor, which read each complex block as its real view, with one
O(m) map into their coordinates and ``r_cov pilot_ext^H`` applied from them, as
one Kronecker apply; on a dense model z itself.
Closed-form MSEs come from the model's one cached spectrum of z (see
:mod:`peachsim.spectrum`), and one rule (:func:`_poly_rule`) prepares either
polynomial kind, its default scaling and W-PEACH's optimal weights, on it or on
any other spectrum: the floors' limit and the mismatched scorer's estimated z.
The MVU baseline is computed in the coordinates of the pilot's QR
decomposition, O(m^2 * b), and from the block traces of s_cov alone for a
square pilot.  Estimators prepared from an estimated channel covariance are
scored under the true statistics in the eigenbasis of the estimated z
(:func:`mismatched_mse`).  The dense filter views are kept as independent
oracles only.
"""

from __future__ import annotations

import enum
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from .errors import (
    DivergentExpansionWarning,
    InvalidDegree,
    InvalidParameter,
    InvalidScaling,
    NotPositiveDefinite,
    NotPositiveSemiDefinite,
    RankDeficientPilot,
    ShapeError,
    UnsupportedEstimator,
    UnsupportedPilot,
    check_array,
    check_real,
    finite_or,
    read_only,
)
from .model import StatModel, _definite, _pilot_sandwich, check_hermitian_psd, deviation, z_matrix
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
    :class:`InvalidDegree` or :class:`InvalidScaling` (alpha not finite and positive, or weights holding NaN or
    infinity).  The weights are a read-only copy; estimators compare and hash by identity.
    """

    kind: EstimatorKind
    degree: int
    alpha: float
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kind", EstimatorKind(self.kind))
        object.__setattr__(self, "degree", check_degree(self.degree))
        object.__setattr__(self, "alpha", check_real("alpha", self.alpha, InvalidScaling, 0.0, strict=True))
        weights = read_only(check_array("weights", self.weights, InvalidScaling), copy=True)
        if weights.shape != (self.degree + 1,):
            raise InvalidDegree(f"need degree + 1 weights, got {self.degree} and {weights.shape}")
        object.__setattr__(self, "weights", weights)

    def values(self, lam: np.ndarray) -> np.ndarray:
        """The filter v at the eigenvalues ``lam``."""
        t = 1.0 - self.alpha * lam if self.kind is EstimatorKind.PEACH else self.alpha * lam
        return self._horner(np.ones(lam.shape), lambda acc, w_l: t * acc + w_l)

    def apply(self, z, d: np.ndarray) -> np.ndarray:
        """v(z) d for a vector or a batch of columns ``d``, with L products by the operator ``z`` that
        :meth:`StatModel.z_operator` gives and no power of it.  Each product ``z(acc, c, s)`` accumulates its Horner
        step ``c + s z acc``, inside the BLAS call on a real form: ``c = acc + w_l d`` and ``s = -alpha`` for PEACH,
        ``c = w_l d`` and ``s = alpha`` for W-PEACH, in the one of two blocks not holding ``acc``; ``d`` is never
        written."""
        peach = self.kind is EstimatorKind.PEACH
        blocks = [np.empty_like(d) for _ in range(min(self.degree, 2))]

        def step(acc, w_l):
            c = blocks[acc is blocks[0]]
            if peach:
                return z(acc, np.add(acc, d if w_l == 1 else w_l * d, out=c), -self.alpha)
            return z(acc, np.multiply(d, w_l, out=c), self.alpha)

        return self._horner(d, step)

    def _horner(self, d, step):
        # acc <- step(acc, w_l) from the top weight down, from w_L d (d itself for a unit weight), then alpha acc,
        # in acc's memory unless acc is d
        acc = d if self.weights[-1] == 1 else self.weights[-1] * d
        for w_l in self.weights[-2::-1]:
            acc = step(acc, w_l)
        return np.multiply(acc, self.alpha, out=None if acc is d else acc)


# ---------------------------------------------------------------------------
# scaling rules


def alpha_optimal(z: np.ndarray) -> float:
    """Scaling 2 / (largest + smallest eigenvalue), the fastest-converging choice (:func:`make_peach`'s default).

    Minimizes the spectral radius of I - alpha * z over the convergent range.  ``z`` must pass
    :func:`check_hermitian_psd`, whose :class:`NotPositiveSemiDefinite` (NaN or infinity, a skew part, a negative
    eigenvalue) is raised as :class:`NotPositiveDefinite`, and be nonsingular (the same class).
    """
    try:
        z, _ = check_hermitian_psd(z, "z")
    except NotPositiveSemiDefinite as error:
        raise NotPositiveDefinite(str(error)) from None
    eigs = np.linalg.eigvalsh(z)
    return _poly_rule(EstimatorKind.PEACH, 0)(_definite(Spectrum(eigs, np.zeros_like(eigs), 0.0))).alpha


def _poly_rule(kind: EstimatorKind, degree: int, scaling: float | None = None) -> Callable[[Spectrum], PolyEstimator]:
    """The filter of the polynomial ``kind`` and ``degree`` on any :class:`Spectrum`: the one preparation rule.

    The degree and a given scaling are checked first, naming ``alpha`` or ``alpha_w``, so a bad one costs no
    eigensolver call.  By default PEACH gets unit weights at 2 / (lambda_max + lambda_min), and W-PEACH the weights
    of :meth:`Spectrum.fit` in powers of alpha_w x at 1 / lambda_max (:class:`InvalidDegree` where they overflow).
    """
    peach = kind is EstimatorKind.PEACH
    degree = check_degree(degree)
    if scaling is not None:
        scaling = check_real("alpha" if peach else "alpha_w", scaling, InvalidScaling, 0.0, strict=True)

    def on(spectrum: Spectrum) -> PolyEstimator:
        lam = spectrum.lam
        if peach:
            alpha = 2.0 / (lam[-1] + lam[0]) if scaling is None else scaling
            return PolyEstimator(kind, degree, alpha, np.ones(degree + 1))
        alpha_w = 1.0 / lam[-1] if scaling is None else scaling
        overflow = f"W-PEACH weights of degree {degree} at alpha_w={alpha_w:.6g} overflow the float range"
        with finite_or(InvalidDegree, overflow) as finite:
            weights = finite(spectrum.fit(degree) / alpha_w ** (np.arange(degree + 1) + 1))
        return PolyEstimator(kind, degree, alpha_w, weights)

    return on


# ---------------------------------------------------------------------------
# prepared estimators


NAMES = ("mmse", "mvu", "diagonalized", "peach", "wpeach")  # the CSV names, in the sweep tables' row order


@dataclass(frozen=True, eq=False)
class Prepared:
    """An estimator prepared on ``model``: h_mean + ``head(d)`` per observation, ``mse()`` its closed-form MSE.

    ``head`` returns a fresh array, to which ``apply`` adds h_mean in place.

    Work that only one of the two needs runs on its first call, so an
    estimator that is only scored forms nothing it needs only to estimate.
    """

    model: StatModel
    head: Callable[[np.ndarray], np.ndarray]
    mse: Callable[[], float]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """The estimate of an (m,) observation or of each column of an (m, k) batch, from d = :func:`deviation`;
        one that overflows the float range raises :class:`InvalidParameter`, with no numpy warning first."""
        d = deviation(self.model, y)
        with finite_or(InvalidParameter, "the estimate of the observation overflows the float range") as finite:
            estimate = self.head(d)
            estimate += self.model.h_mean[:, None] if d.ndim == 2 else self.model.h_mean
            return finite(estimate)


def prepare(model: StatModel, name: str, degree: int | None = None) -> Prepared:
    """Prepare the estimator ``name`` of :data:`NAMES` on ``model``, at ``degree`` for the polynomials.

    The per-epoch half of the paper's cost split; :meth:`Prepared.apply` is
    the per-realization half.  ``mmse`` solves against the model's cached
    Cholesky factor of z (of its real form on a correlated model,
    :meth:`StatModel.z_operator`), formed on the first ``apply`` and never by
    ``mse``, in two O(m^2) triangular solves per estimate, then applies
    ``r_cov pilot_ext^H`` in the operator's coordinates (its ``head``); ``mvu``
    is :func:`_mvu_system`, ``diagonalized`` :func:`_diagonalized`, and ``peach`` and ``wpeach`` bind
    :func:`make_peach` and :func:`make_wpeach` at their default scalings.  Any
    other name raises :class:`UnsupportedEstimator`.
    """
    if name == "mmse":
        return Prepared(model, lambda d: _through(model, d), lambda: model.z_spectrum.mmse())
    if name == "mvu":
        return _mvu_system(model)
    if name == "diagonalized":
        return _diagonalized(model)
    if name in ("peach", "wpeach"):
        return bind(model, (make_peach if name == "peach" else make_wpeach)(model, degree))
    raise UnsupportedEstimator(f"unknown estimator {name!r}; choose from {', '.join(NAMES)}")


def bind(model: StatModel, est: PolyEstimator) -> Prepared:
    """The polynomial filter ``est`` prepared on ``model``: r_cov pilot_ext^H v(z) d, and v on the spectrum of z.

    Each degree costs one product with d of the operator the model gives (:meth:`StatModel.z_operator`,
    formed once per model, on the first ``apply``); no power of z is formed.  ``r_cov pilot_ext^H`` is applied
    once, in the operator's coordinates (its ``head``), through its Kronecker factors when the model has them.
    """
    mse = lambda: model.z_spectrum.mse(est.values(model.z_spectrum.lam))
    return Prepared(model, lambda d: _through(model, d, est), mse)


def _through(model: StatModel, d: np.ndarray, est: PolyEstimator | None = None) -> np.ndarray:
    # r_cov pilot_ext^H of z^{-1} d, or of v(z) d for the filter est, in the coordinates of the model's operator
    op, into, head, _ = model.z_operator(est is None)
    x = into(d)
    return head(op(x) if est is None else est.apply(op, x)).reshape(model.dims.n, *d.shape[1:])


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
    For b > n_t, forming S costs O(m^2 * b) and one Cholesky of the (m - n)
    block S22 follows; for b == n_t, S is S11, whose block traces are Q^H T Q
    for T those of s_cov (:meth:`StatModel.s_block_traces`): nothing of size m.
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
    gain = np.zeros((n, m - n), dtype=complex)
    if m == n:
        block_traces = q.conj().T @ model.s_block_traces() @ q
    else:
        # _pilot_sandwich(p) forms (p.T (x) I) s_cov (p.T (x) I)^H, so p = conj(Q) gives S
        s = _pilot_sandwich(q.conj(), n_r, model.s_cov)
        gain = scipy.linalg.cho_solve(scipy.linalg.cho_factor(s[n:, n:]), s[n:, :n]).conj().T
        block_traces = np.einsum("jrkr->jk", (s[:n, :n] - gain @ s[n:, :n]).reshape(n_t, n_r, n_t, n_r))
    # the variance is sum_jk M_kj trace(C_jk) over the (n_r, n_r) blocks C_jk
    # of the Schur complement, with M = R1^{-H} R1^{-1}: no n x n product
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
    r_diag, s_diag, _ = model.diagonals()
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
    """Prepare an unweighted polynomial estimator for one statistics epoch (:func:`_poly_rule` on the spectrum of z).

    Without ``alpha`` the scaling is the fastest-converging 2 / (lambda_max +
    lambda_min) (:func:`alpha_optimal`).  A given ``alpha`` outside the
    convergence bound of that spectrum triggers :class:`DivergentExpansionWarning`,
    and evaluation stays defined but no longer approaches the MMSE estimator.
    """
    return _peach(model, degree, alpha)


def _peach(model: StatModel, degree: int, alpha: float | None) -> PolyEstimator:
    # make_peach's filter, warning at the caller of make_peach or peach_mse when alpha is outside the bound
    est = _poly_rule(EstimatorKind.PEACH, degree, alpha)(model.z_spectrum)
    bound = 2.0 / model.z_spectrum.lam[-1]
    if alpha is not None and not est.alpha < bound:
        warnings.warn(
            f"alpha={est.alpha:.6g} outside the convergence bound (0, {bound:.6g})",
            DivergentExpansionWarning,
            stacklevel=3,
        )
    return est


def make_wpeach(model: StatModel, degree: int, alpha_w: float | None = None) -> PolyEstimator:
    """Prepare a weighted polynomial estimator with MSE-optimal weights (:func:`_poly_rule` on the spectrum of z).

    The weights come from the least-squares form of the weight system (see
    :meth:`peachsim.spectrum.Spectrum.fit`), which stays accurate where the
    normal-equations solve degrades.  Without ``alpha_w`` the scaling is
    ``1 / lambda_max`` of the observation covariance (a numerically safe
    choice, :func:`default_alpha_w`).  An estimator with other weights is a
    :class:`PolyEstimator` built directly.
    """
    return _poly_rule(EstimatorKind.WPEACH, degree, alpha_w)(model.z_spectrum)


def default_alpha_w(model: StatModel) -> float:
    """Weighted-estimator scaling 1 / lambda_max(z), :func:`make_wpeach`'s default."""
    return _poly_rule(EstimatorKind.WPEACH, 0)(model.z_spectrum).alpha


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
    An ``alpha`` outside the convergence bound warns as :func:`make_peach` does, and one whose diverging filter
    overflows the MSE raises :class:`InvalidScaling`, with no numpy warning first.
    """
    est = _peach(model, degree, alpha)
    overflow = f"alpha={est.alpha:.6g} makes the degree-{degree} PEACH MSE overflow the float range"
    with finite_or(InvalidScaling, overflow) as finite:
        return finite(bind(model, est).mse())


def wpeach_mse_general(model: StatModel, degree: int, alpha_w: float, weights: np.ndarray) -> float:
    """MSE of the weighted estimator for any choice of weighting coefficients.

    The quadratic trace(r) + w^H A w - b^H w - w^H b is evaluated in the
    eigenbasis of the observation covariance, where it stays accurate even
    for the large, strongly cancelling weight vectors that high degrees
    produce.  Finite weights so large that the MSE overflows the float range raise :class:`InvalidScaling`, as
    :func:`peach_mse` does, with no numpy warning first.
    """
    est = PolyEstimator(EstimatorKind.WPEACH, degree, alpha_w, weights)
    with finite_or(InvalidScaling, f"the weights make the degree-{degree} W-PEACH MSE overflow the float range") as finite:
        return finite(bind(model, est).mse())


def wpeach_mse_optimal(model: StatModel, degree: int) -> float:
    """Minimum MSE trace(r) - b^H A^{-1} b of the weighted estimator, at any scaling alpha_w.

    It is the MSE of the filter that :func:`prepare`'s ``wpeach`` applies."""
    return prepare(model, "wpeach", degree).mse()


def mismatched_mse(model: StatModel, r_est: np.ndarray, degree: int) -> tuple[float, float]:
    """MSEs ``(mmse, wpeach)`` under ``model`` of the estimators prepared from ``r_est``.

    The estimators see ``model``'s statistics with ``r_est`` in place of its
    channel covariance, so z_est = :meth:`StatModel.observation_covariance`
    of ``r_est``; W-PEACH is :func:`make_wpeach`'s default on those
    statistics.  ``r_est`` is validated here, once (:func:`check_hermitian_psd`,
    with :class:`ShapeError` unless it is shaped like ``model.r_cov``);
    ``model`` is not validated again.  Both filters are functions v of
    z_est = U diag(lam) U^H, so with B = pilot_ext^H U, C = r_est B and
    D = r B the filter r_est pilot_ext^H v(z_est) has, under the true
    statistics, MSE =
    trace(r) - 2 Re sum_k v_k x_k + Re sum_kl v_k E_kl conj(v_l) G_lk, where
    x_k = sum_i conj(D_ik) C_ik, E = U^H z U = diag(lam) + (D - C)^H B and
    G = C^H C, whose diagonal holds the estimated energies.  One ``eigh`` of
    z_est, two O(m^3) products and one Hermitian rank-n update (``zherk``,
    which forms one triangle of G at half a product's flops) serve both
    filters; neither is formed densely.  E and G are Hermitian and v is real,
    so the quadratic term is read off one triangle of H_kl = E_kl G_lk.  D
    applies r with :meth:`StatModel.apply_r`, through its Kronecker factors
    when ``model`` has them.  At most four arrays of z_est's size are held at
    once: the ``eigh`` overwrites z_est, U is dropped once B exists, the
    validated ``r_est`` once C does, and D and C are conjugated in place.
    A finite ``r_est`` so large that its trace, z_est or its trace, the fit's
    weighted energies or a score overflows the float range, or that rounding leaves a
    score below zero, which no MSE is, raises
    :class:`InvalidParameter`, and one so ill-conditioned that the computed
    z_est has an eigenvalue at or below zero raises
    :class:`NotPositiveDefinite`, each with no numpy warning first.
    """
    rule = _poly_rule(EstimatorKind.WPEACH, degree)
    r_est, _ = check_hermitian_psd(r_est, "r_est", (model.dims.n, model.dims.n))
    overflow = lambda: f"r_est (trace {trace_est:.6g}) overflows the float range in the mismatched MSE"
    with finite_or(InvalidParameter, overflow) as finite:
        trace_est = float(np.trace(r_est).real)
        z_est = model.observation_covariance(r_est)
        # z_est's eigenvalues are positive and sum to its trace, which overflows before any of them does
        finite(trace_est, np.trace(z_est).real, z_est)
        # z_est is exactly Hermitian, so its conjugate's transpose is z_est in Fortran order, which LAPACK overwrites
        z_est = np.conjugate(z_est, out=z_est).T
        lam, vecs = scipy.linalg.eigh(z_est, driver="evr", overwrite_a=True, check_finite=False)
        del z_est
        if not lam[0] > 0:  # the rounding of a far larger eigenvalue can leave z_est indefinite
            raise NotPositiveDefinite(f"z_est of r_est (trace {trace_est:.6g}) is not numerically positive definite")
        b = model.apply_pilot_adjoint(vecs)
        del vecs
        c_est = r_est @ b
        del r_est
        # D, then C, conjugated in place: x, then conj(D - C), whose transpose times B is (D - C)^H B
        d_true = model.apply_r(b)
        x = np.einsum("ij,ij->j", np.conjugate(d_true, out=d_true), c_est)
        d_true -= np.conjugate(c_est, out=c_est)
        quad = d_true.T @ b
        del d_true, b
        # conj(C)^T is C^H in Fortran order: G = C^H C in the upper triangle, zeros below, so G.T holds G_lk at (k, l)
        gram = blas.zherk(1.0, c_est.T)
        del c_est
        phi = gram.diagonal().real.copy()
        finite(phi * lam)  # the fit weighs each energy by its eigenvalue
        # H on and below the diagonal; H is Hermitian and v real, so Re(v^T H v) = 2 Re(v^T L v) for L that
        # triangle with its diagonal halved
        quad.flat[:: len(quad) + 1] += lam
        quad *= gram.T
        del gram
        quad.flat[:: len(quad) + 1] *= 0.5
        wpeach = rule(Spectrum(lam, phi, trace_est))
        # the fitted weights are real, held as complex, so the filter's values are real
        scores = finite([
            model.trace_r - 2.0 * np.sum(v * x).real + 2.0 * ((v @ quad).real @ v)
            for v in (1.0 / lam, wpeach.values(lam).real)
        ])
    if min(scores) < 0:  # E's two terms of r_est's size cancel, and G amplifies their rounding
        raise InvalidParameter(f"r_est (trace {trace_est:.6g}) is so large that rounding leaves an MSE below 0")
    return tuple(float(score) for score in scores)


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
    g_mat = check_array("g_mat", g_mat, ShapeError, (model.dims.n, model.dims.m))
    b = model.pilot_ext @ model.r_cov
    z = z_matrix(model)
    tr_r = float(np.trace(model.r_cov).real)
    cross = float(np.trace(g_mat @ b).real)
    quad = float(np.trace(g_mat @ z @ g_mat.conj().T).real)
    return tr_r - 2.0 * cross + quad
