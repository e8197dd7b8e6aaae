"""Low-complexity weight tracking and shrinkage covariance estimation.

The weight system of the weighted polynomial estimator is approximated from
received samples over a sliding window: each trace is replaced by the mean of
per-sample quadratic forms of the mean-removed observations over the window,
except the first right-hand-side entry, the exact ``alpha_w ||pilot_ext r||_F^2``.
Large covariance matrices are estimated by shrinking the sample covariance
towards its diagonal.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (IllConditionedWeights, InsufficientSamples, InvalidParameter, InvalidScaling, ShapeError,
                     WindowSizeError, check_array, check_real)
from .model import StatModel, check_hermitian_psd, deviation, hermitize
from .spectrum import check_degree

# Ridge scale for solving the sampled weight system.  The sampled moments
# carry O(1/sqrt(T)) relative noise which the ill-conditioned moment matrix
# would amplify into useless weights, so the solve adds a diagonal ridge
# matched to that noise floor; it vanishes as the window grows and leaves
# the weights invariant to the choice of alpha_w.
SAMPLED_RIDGE_SCALE = 0.3


@dataclass
class AdaptiveState:
    """Sliding-window approximation of the weight system.

    Single-writer: updates are sequential by construction.  ``window`` is the
    only record of the samples: the quadratic forms of the last
    ``window_len``, oldest first, one row per sample whether the samples
    arrived one at a time or as the columns of a block.  ``a_approx`` and
    ``b_approx`` are read-only views formed from its correctly rounded mean,
    which depends on which rows the window holds, not their order; so within
    one feeding mode a slid state equals a fresh fill of its window bit for
    bit.  ``b_approx[0]`` is the exact ``b1``
    (:meth:`StatModel.pilot_r_energy`).  Each update is one step with one
    solve of the system plus its ridge; ``fallback`` is set when the latest
    step's system was singular and the ``weights`` from before that step were
    kept.  On a correlated model the rows come from chains in the real form
    of ``z`` and ``b1`` from the Kronecker factors, so tracking forms no
    complex m x m array; the first step forms that real form.
    """

    model: StatModel
    degree: int
    alpha_w: float
    b1: float
    window: deque
    weights: np.ndarray
    fallback: bool = False

    @property
    def window_len(self) -> int:
        return self.window.maxlen

    @property
    def a_approx(self) -> np.ndarray:
        return _windowed_system(self)[0]

    @property
    def b_approx(self) -> np.ndarray:
        return _windowed_system(self)[1]


def _quad_forms(model: StatModel, degree: int, y: np.ndarray) -> np.ndarray:
    """Quadratic forms q_k = Re(f^H z^k d), k = 0..2L, with f = pilot r^2 pilot^H d, of a sample or a block.

    ``d`` is the mean-removed observation, whose outer product has mean
    ``z``.  An ``(m,)`` sample gives the ``(2L + 1,)`` row of its forms; an
    ``(m, k)`` block gives one such row per column, ``(k, 2L + 1)``.  Either
    costs one chain of ``2L`` products with the operator the model gives for
    ``z`` (:meth:`StatModel.z_operator`), two with ``r_cov`` and a column-wise
    conjugate dot per power, O(L m^2 k); the pilot is applied through its
    Kronecker structure, and so is ``r_cov`` on a model with Kronecker factors
    (:meth:`StatModel.apply_r`).  ``d`` and ``f`` are mapped into the
    operator's coordinates once, to ``x`` and ``g``, so ``q_k = Re(g^H op^k
    x)`` times the operator's ``scale``: on a correlated model in real
    arithmetic on the real form of ``z``, with no complex m x m array formed;
    on a dense model with ``z`` itself.  A block turns the chain's
    matrix-vector products into matrix products, several times cheaper per
    column.
    """
    d = deviation(model, y)
    op, into, _, scale = model.z_operator()
    f = model.apply_pilot(model.apply_r(model.apply_r(model.apply_pilot_adjoint(d))))
    g = into(f.reshape(len(d), -1)).view(float)
    x = into(np.ascontiguousarray(d.reshape(len(d), -1)))  # a real view needs C order; a block may be Fortran's
    # per power, the real dots of the real views' columns: each column's Re(g^H x) is the sum of a pair
    parts = np.empty((2 * degree + 1, 2 * x.shape[1]))
    for k in range(2 * degree + 1):
        if k:
            x = op @ x
        np.einsum("ij,ij->j", g, x.view(float), out=parts[k])
    out = parts.reshape(2 * degree + 1, -1, 2).sum(axis=2).T
    out *= scale
    return out.reshape(*d.shape[1:], 2 * degree + 1)


def _windowed_system(state: AdaptiveState) -> tuple[np.ndarray, np.ndarray]:
    # one-based A[i, j] = alpha^(i+j) mean(q[i+j-2]); b[1] = b1 and, for
    # i >= 2, b[i] = alpha^i mean(q[i-2]) = A[1, i-1]
    mean = np.array([math.fsum(col) for col in np.array(state.window).T.tolist()]) / len(state.window)
    k_mat = np.add.outer(np.arange(state.degree + 1), np.arange(state.degree + 1))
    a_mat = state.alpha_w ** (k_mat + 2) * mean[k_mat]
    return a_mat, np.concatenate(([state.b1], a_mat[0, :-1]))


def _solve_sampled(state: AdaptiveState) -> np.ndarray:
    a_mat, b_vec = _windowed_system(state)
    ridge = (SAMPLED_RIDGE_SCALE / np.sqrt(state.window_len)) * np.diag(np.clip(np.diag(a_mat), 0.0, None))
    try:
        weights = np.linalg.solve((a_mat + ridge).astype(complex), b_vec.astype(complex))
    except np.linalg.LinAlgError:
        weights = np.full(len(b_vec), np.nan)
    if not np.all(np.isfinite(weights)):
        raise IllConditionedWeights("sampled weight system is singular")
    return weights


def adaptive_init(model: StatModel, degree: int, alpha_w: float, warmup: list | np.ndarray) -> AdaptiveState:
    """Fill the window from the ``warmup`` samples and solve the first weights.

    ``warmup`` is a list of ``(m,)`` samples or one ``(m, k)`` block; the
    window length is the number of samples or columns, an empty warmup
    raises :class:`WindowSizeError` and a block inside a list
    :class:`ShapeError`.  A ``degree`` that is not a nonnegative integer
    raises :class:`InvalidDegree` and an ``alpha_w`` that is not finite and
    positive :class:`InvalidScaling`, before any work.

    A list's forms are computed sample by sample, as single updates compute
    them; stacked into a block they would round differently (about 1e-16
    relative), since a block product accumulates in another order than a
    matrix-vector product.  The first right-hand-side entry has no window
    dependence: it is ``alpha_w tr(pilot_ext r^2 pilot_ext^H) = alpha_w
    ||pilot_ext r||_F^2`` (:meth:`StatModel.pilot_r_energy`), exact for any
    pilot.  Every other entry comes
    from the window mean, so a state that has slid through any stream holds
    the same system as a fresh fill of its current window.  The first
    weights are one solve of the system plus its ridge; if that system is
    singular, :class:`IllConditionedWeights` is raised.
    """
    degree = check_degree(degree)
    alpha_w = check_real("alpha_w", alpha_w, InvalidScaling, 0.0, strict=True)
    if not isinstance(warmup, list | tuple):
        warmup = check_array("warmup", warmup)
        if warmup.ndim != 2:
            raise ShapeError(f"a warmup array must be an (m, k) block, got shape {warmup.shape}")
        rows = list(_quad_forms(model, degree, warmup))
    else:
        rows = [_quad_forms(model, degree, y) for y in warmup]
        if any(row.ndim != 1 for row in rows):
            raise ShapeError(f"a warmup list must hold ({model.dims.m},) samples, got an (m, k) block in it")
    if not rows:
        raise WindowSizeError("the warmup must hold at least one sample")
    state = AdaptiveState(
        model=model,
        degree=degree,
        alpha_w=alpha_w,
        b1=alpha_w * model.pilot_r_energy(),
        window=deque(rows, maxlen=len(rows)),
        weights=np.zeros(degree + 1, dtype=complex),
    )
    state.weights = _solve_sampled(state)
    return state


def adaptive_update(state: AdaptiveState, y_new: np.ndarray):
    """Slide the window by an ``(m,)`` sample or an ``(m, k)`` block in one step; return the weights.

    The forms of every column, from one chain of block products, push as
    many of the oldest rows out of the window, and the system of the new
    window is solved once.  If that system plus its ridge is singular, the
    weights the state had before the call are kept and ``state.fallback`` is
    set.  An ``(m, 0)`` block leaves the state unchanged.
    """
    rows = _quad_forms(state.model, state.degree, y_new).reshape(-1, 2 * state.degree + 1)
    if not len(rows):
        return state.weights
    state.window.extend(rows)
    try:
        state.weights = _solve_sampled(state)
        state.fallback = False
    except IllConditionedWeights:
        state.fallback = True
    return state.weights


# ---------------------------------------------------------------------------
# shrinkage covariance estimation


@dataclass(frozen=True)
class ShrinkageEstimate:
    """Affine combination of the sample covariance and its diagonal.

    ``c_hat = kappa * diag(c_sample) + (1 - kappa) * c_sample`` with the
    mixing weight chosen to minimize the squared Frobenius distance to the
    true covariance.
    """

    c_hat: np.ndarray
    kappa: float
    phi_sample: float
    phi_diag: float
    psi: float


def shrinkage_kappa(phi_sample: float, phi_diag: float, psi: float, scale: float = 1.0) -> float:
    """Mixing weight minimizing kappa^2 phi_d + (1-kappa)^2 phi_s + 2 kappa (1-kappa) psi.

    The minimizer of this quadratic is (phi_s - psi) / (phi_s + phi_d - 2 psi)
    clamped to [0, 1]; the denominator equals the expected squared distance
    between the two candidate estimates, so a vanishing denominator means
    they already coincide and the sample matrix is kept (kappa = 0).
    """
    terms = (phi_sample, phi_diag, psi, scale)
    phi_sample, phi_diag, psi, scale = (check_real("risk term", t, InvalidParameter, finite=False) for t in terms)
    denom = phi_sample + phi_diag - 2.0 * psi
    if not np.isfinite(denom) or denom <= 1e-14 * max(scale, 1e-300):
        return 0.0
    return float(min(max((phi_sample - psi) / denom, 0.0), 1.0))


def shrinkage_covariance(samples: np.ndarray, c_true: np.ndarray | None = None) -> ShrinkageEstimate:
    """Shrink the sample covariance of ``samples`` towards its diagonal.

    ``samples`` holds one observation per row.  Given ``c_true``, the
    quadratic-risk terms are evaluated against that known covariance (the
    oracle, for validation); without it they are estimated from the samples
    themselves (the plug-in rule), with the sample covariance standing in for
    the truth.  ``c_true`` must have the shape of the sample covariance
    (:class:`ShapeError`) and be Hermitian positive semidefinite
    (:class:`NotPositiveSemiDefinite`, :func:`check_hermitian_psd`).
    """
    samples = check_array("samples", samples)
    if samples.ndim != 2:
        raise InsufficientSamples("samples must be a 2-D array with one vector per row")
    n_samples = samples.shape[0]
    if n_samples < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n_samples}")
    c_sample = hermitize(samples.T @ samples.conj() / n_samples)
    diag = np.diag(c_sample).real
    c_diag = np.diag(diag.astype(complex))
    if c_true is not None:
        c_true, _ = check_hermitian_psd(c_true, "c_true", c_sample.shape)
        dev_s = c_sample - c_true
        dev_d = c_diag - c_true
        phi_sample = float(np.linalg.norm(dev_s) ** 2)
        phi_diag = float(np.linalg.norm(dev_d) ** 2)
        psi = float(np.trace(dev_d @ dev_s).real)
    else:
        abs2 = np.abs(samples) ** 2
        # sum_i ||c_i c_i^H - c_sample||_F^2 = sum_i ||c_i||^4 - N ||c_sample||_F^2
        phi_sample = (np.sum(abs2.sum(axis=1) ** 2) - n_samples * np.linalg.norm(c_sample) ** 2) / n_samples**2
        # diagonal part of the same sum estimates the variance of the diagonal entries
        psi = (np.sum(abs2**2) - n_samples * np.sum(diag**2)) / n_samples**2
        phi_diag = psi + float(np.linalg.norm(c_sample - c_diag) ** 2)
        phi_sample = float(max(phi_sample, 0.0))
        psi = float(max(psi, 0.0))
    kappa = shrinkage_kappa(phi_sample, phi_diag, psi, scale=float(np.linalg.norm(c_sample) ** 2))
    # a real diagonal plus a real multiple of the Hermitian c_sample: exactly Hermitian
    c_hat = kappa * c_diag + (1.0 - kappa) * c_sample
    return ShrinkageEstimate(c_hat=c_hat, kappa=kappa, phi_sample=phi_sample, phi_diag=phi_diag, psi=psi)
