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

from .errors import IllConditionedWeights, InsufficientSamples, WindowSizeError
from .model import StatModel, deviation, hermitize

# Condition number above which weight solves switch to Tikhonov regularization.
WEIGHT_COND_LIMIT = 1e12

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
    ``window_len``, oldest first.  ``a_approx`` and ``b_approx`` are
    read-only views formed from its correctly rounded mean, which depends on
    which samples the window holds, not their order; ``b_approx[0]`` is the
    exact ``b1``.  ``fallback`` is set when an ill-conditioned update kept
    the previous ``weights``.
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
    """Per-sample quadratic forms q_k = Re(d^H pilot r^2 pilot^H z^k d), k = 0..2L.

    ``d`` is the mean-removed observation, whose outer product has mean
    ``z``; the pilot is applied through its Kronecker structure and each
    sample costs 2L products with ``z``, O(L m^2).
    """
    v = deviation(model, y)
    f_d = model.apply_pilot(model.r_cov @ (model.r_cov @ model.apply_pilot_adjoint(v)))
    out = np.empty(2 * degree + 1)
    out[0] = np.vdot(f_d, v).real
    for k in range(1, 2 * degree + 1):
        v = model.z @ v
        out[k] = np.vdot(f_d, v).real
    return out


def _windowed_system(state: AdaptiveState) -> tuple[np.ndarray, np.ndarray]:
    # one-based A[i, j] = alpha^(i+j) mean(q[i+j-2]); b[1] = b1 and, for
    # i >= 2, b[i] = alpha^i mean(q[i-2]) = A[1, i-1]
    mean = np.array([math.fsum(col) for col in np.array(state.window).T.tolist()]) / len(state.window)
    k_mat = np.add.outer(np.arange(state.degree + 1), np.arange(state.degree + 1))
    a_mat = state.alpha_w ** (k_mat + 2) * mean[k_mat]
    return a_mat, np.concatenate(([state.b1], a_mat[0, :-1]))


def guarded_hermitian_solve(a_mat: np.ndarray, b_vec: np.ndarray) -> tuple[np.ndarray, bool]:
    """Hermitian solve with a Tikhonov fallback when badly conditioned.

    Returns the solution and a flag telling whether regularization was used.
    The fallback adds delta * I with delta = 1e-12 trace(A) / (L + 1), which
    keeps the perturbation far below the diagonal scale.
    """
    a_mat = np.asarray(a_mat, dtype=complex)
    b_vec = np.asarray(b_vec, dtype=complex)
    cond = np.linalg.cond(a_mat)
    regularized = False
    if not np.isfinite(cond) or cond > WEIGHT_COND_LIMIT:
        delta = 1e-12 * np.trace(a_mat).real / a_mat.shape[0]
        a_mat = a_mat + delta * np.eye(a_mat.shape[0])
        regularized = True
    try:
        solution = np.linalg.solve(a_mat, b_vec)
    except np.linalg.LinAlgError:
        solution = np.full_like(b_vec, np.nan)
    if not np.all(np.isfinite(solution)):
        raise IllConditionedWeights("weight system is singular even after regularization")
    return solution, regularized


def _solve_sampled(state: AdaptiveState) -> np.ndarray:
    a_mat, b_vec = _windowed_system(state)
    ridge = (SAMPLED_RIDGE_SCALE / np.sqrt(state.window_len)) * np.diag(np.clip(np.diag(a_mat), 0.0, None))
    weights, _ = guarded_hermitian_solve(a_mat + ridge, b_vec)
    return weights


def adaptive_init(model: StatModel, window_len: int, degree: int, alpha_w: float, warmup: list) -> AdaptiveState:
    """Fill the window from ``warmup`` samples and solve the first weights.

    The first right-hand-side entry has no window dependence: it is
    ``alpha_w tr(pilot_ext r^2 pilot_ext^H) = alpha_w ||pilot_ext r||_F^2``,
    exact for any pilot.  Every other entry comes from the window mean, so a
    state that has slid through any stream holds the same system as a fresh
    fill of its current window.
    """
    if len(warmup) != window_len:
        raise WindowSizeError(f"expected {window_len} warmup samples, got {len(warmup)}")
    state = AdaptiveState(
        model=model,
        degree=degree,
        alpha_w=alpha_w,
        b1=alpha_w * float(np.linalg.norm(model.apply_pilot(model.r_cov)) ** 2),
        window=deque((_quad_forms(model, degree, y) for y in warmup), maxlen=window_len),
        weights=np.zeros(degree + 1, dtype=complex),
    )
    state.weights = _solve_sampled(state)
    return state


def adaptive_update(state: AdaptiveState, y_new: np.ndarray):
    """Slide the window one step and return the refreshed weights.

    The newest sample's quadratic forms push the oldest out of the window.
    If the system formed from the new window is too ill-conditioned to
    solve, the previous weights are kept and ``state.fallback`` is set.
    """
    state.window.append(_quad_forms(state.model, state.degree, y_new))
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
    denom = phi_sample + phi_diag - 2.0 * psi
    if not np.isfinite(denom) or denom <= 1e-14 * max(scale, 1e-300):
        return 0.0
    return float(min(max((phi_sample - psi) / denom, 0.0), 1.0))


def shrinkage_covariance(
    samples: np.ndarray,
    mode: str = "plugin",
    c_true: np.ndarray | None = None,
) -> ShrinkageEstimate:
    """Shrink the sample covariance of ``samples`` towards its diagonal.

    ``samples`` holds one observation per row.  In ``oracle`` mode the
    quadratic-risk terms are evaluated against the known covariance
    ``c_true`` (for validation); ``plugin`` mode estimates them from the
    samples themselves, with the sample covariance standing in for the truth.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2:
        raise InsufficientSamples("samples must be a 2-D array with one vector per row")
    n_samples = samples.shape[0]
    if n_samples < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n_samples}")
    c_sample = hermitize(samples.T @ samples.conj() / n_samples)
    diag = np.diag(c_sample).real
    c_diag = np.diag(diag.astype(complex))
    if mode == "oracle":
        if c_true is None:
            raise ValueError("oracle mode requires c_true")
        c_true = np.asarray(c_true, dtype=complex)
        dev_s = c_sample - c_true
        dev_d = c_diag - c_true
        phi_sample = float(np.linalg.norm(dev_s) ** 2)
        phi_diag = float(np.linalg.norm(dev_d) ** 2)
        psi = float(np.trace(dev_d @ dev_s).real)
    elif mode == "plugin":
        abs2 = np.abs(samples) ** 2
        # sum_i ||c_i c_i^H - c_sample||_F^2 = sum_i ||c_i||^4 - N ||c_sample||_F^2
        phi_sample = (np.sum(abs2.sum(axis=1) ** 2) - n_samples * np.linalg.norm(c_sample) ** 2) / n_samples**2
        # diagonal part of the same sum estimates the variance of the diagonal entries
        psi = (np.sum(abs2**2) - n_samples * np.sum(diag**2)) / n_samples**2
        phi_diag = psi + float(np.linalg.norm(c_sample - c_diag) ** 2)
        phi_sample = float(max(phi_sample, 0.0))
        psi = float(max(psi, 0.0))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    kappa = shrinkage_kappa(phi_sample, phi_diag, psi, scale=float(np.linalg.norm(c_sample) ** 2))
    c_hat = hermitize(kappa * c_diag + (1.0 - kappa) * c_sample)
    return ShrinkageEstimate(c_hat=c_hat, kappa=kappa, phi_sample=phi_sample, phi_diag=phi_diag, psi=psi)
