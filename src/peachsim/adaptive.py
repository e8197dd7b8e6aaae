"""Low-complexity weight tracking and shrinkage covariance estimation.

The weight system of the weighted polynomial estimator is approximated from
received samples over a sliding window: each trace is replaced by an average
of per-sample quadratic forms, updated by adding the newest sample and
removing the oldest.  Large covariance matrices are estimated by shrinking
the sample covariance towards its diagonal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllConditionedWeights,
    InsufficientSamples,
    UnsupportedPilot,
    WindowSizeError,
)
from .estimators import _identity_pilot_power
from .model import StatModel, hermitize, standard_complex_normal

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

    Single-writer: updates are sequential by construction.  ``a_approx`` and
    ``b_approx`` hold the windowed averages of the per-sample quadratic forms
    that ``_quad_cache`` keeps for the last ``window_len`` received vectors,
    oldest first, so the sample leaving the window is subtracted exactly.
    ``weights`` is the latest solved weight vector (``fallback`` is set when
    an ill-conditioned update kept the previous weights).
    """

    model: StatModel
    window_len: int
    degree: int
    alpha_w: float
    a_approx: np.ndarray
    b_approx: np.ndarray
    weights: np.ndarray
    fallback: bool = False
    _quad_cache: deque = field(default_factory=deque, repr=False)


def _pilot_r2(model: StatModel, v: np.ndarray) -> np.ndarray:
    # pilot r^2 pilot^H v, the pilot applied through its Kronecker structure
    return model.apply_pilot(model.r_cov @ (model.r_cov @ model.apply_pilot_adjoint(v)))


def _quad_forms(model: StatModel, degree: int, y: np.ndarray) -> np.ndarray:
    """Per-sample quadratic forms q_k = Re(y^H pilot r^2 pilot^H z^k y), k = 0..2L.

    The powers z^k y extend the estimator's own matrix-vector recursion, so
    each sample costs O(L m^2); the real part is taken because the traces the
    averages approximate are real.
    """
    z = model.z
    f_y = _pilot_r2(model, y)
    out = np.empty(2 * degree + 1)
    v = y
    out[0] = np.vdot(f_y, v).real
    for k in range(1, 2 * degree + 1):
        v = z @ v
        out[k] = np.vdot(f_y, v).real
    return out


def _accumulate(state: AdaptiveState, quad_sum: np.ndarray, scale: float) -> None:
    # a_approx[i, j] += alpha^(i+j) quad[i+j-2] * scale, one-based i, j;
    # b_approx[i] likewise with exponent i - 2 for i >= 2 (b_1 is probe-based).
    degree = state.degree
    idx = np.arange(degree + 1)
    k_mat = idx[:, None] + idx[None, :]
    state.a_approx = state.a_approx + state.alpha_w ** (k_mat + 2) * quad_sum[k_mat] * scale
    if degree >= 1:
        i0 = np.arange(1, degree + 1)
        state.b_approx[1:] = state.b_approx[1:] + state.alpha_w ** (i0 + 1) * quad_sum[i0 - 1] * scale


def _probe_b1(model: StatModel, alpha_w: float, count: int, rng: np.random.Generator) -> float:
    # Random-probe trace estimate (alpha_w / T) sum_i v_i^H pilot r^2 pilot^H v_i.
    total = 0.0
    for _ in range(count):
        v = standard_complex_normal(rng, model.dims.m)
        total += np.vdot(_pilot_r2(model, v), v).real
    return alpha_w * total / count


def _b1_value(model: StatModel, alpha_w: float, count: int, rng: np.random.Generator) -> float:
    # First right-hand-side entry alpha_w * tr(pilot r^2 pilot^H).  For a
    # scaled-identity pilot this trace is pilot_power * ||r||_F^2, computable
    # exactly from the diagonal of r^2; otherwise fall back to random probes.
    try:
        pilot_power = _identity_pilot_power(model)
    except UnsupportedPilot:
        return _probe_b1(model, alpha_w, count, rng)
    return alpha_w * pilot_power * float(np.linalg.norm(model.r_cov) ** 2)


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
    ridge = (SAMPLED_RIDGE_SCALE / np.sqrt(state.window_len)) * np.diag(
        np.clip(np.diag(state.a_approx).real, 0.0, None)
    )
    weights, _ = guarded_hermitian_solve(state.a_approx + ridge, state.b_approx)
    return weights


def adaptive_init(
    model: StatModel,
    window_len: int,
    degree: int,
    alpha_w: float,
    warmup: list,
    rng: np.random.Generator,
) -> AdaptiveState:
    """Fill the window from ``warmup`` samples and solve the first weights.

    The first entry of the approximate right-hand side has no window
    dependence: for scaled-identity pilots it is computed exactly from the
    diagonal of r^2, otherwise from ``window_len`` random probe vectors drawn
    once per statistics epoch from ``rng``.
    """
    if len(warmup) != window_len:
        raise WindowSizeError(f"expected {window_len} warmup samples, got {len(warmup)}")
    state = AdaptiveState(
        model=model,
        window_len=window_len,
        degree=degree,
        alpha_w=alpha_w,
        a_approx=np.zeros((degree + 1, degree + 1), dtype=complex),
        b_approx=np.zeros(degree + 1, dtype=complex),
        weights=np.zeros(degree + 1, dtype=complex),
    )
    quad_sum = np.zeros(2 * degree + 1)
    for y in warmup:
        y = np.asarray(y, dtype=complex)
        quad = _quad_forms(model, degree, y)
        quad_sum += quad
        state._quad_cache.append(quad)
    _accumulate(state, quad_sum, 1.0 / window_len)
    state.b_approx[0] = _b1_value(model, alpha_w, window_len, rng)
    state.weights = _solve_sampled(state)
    return state


def adaptive_update(state: AdaptiveState, y_new: np.ndarray):
    """Slide the window one step and return the refreshed weights.

    The sample leaving the window is the one inserted ``window_len`` steps
    ago; its cached quadratic forms are subtracted, so the averages always
    match the last ``window_len`` samples.  If the updated system is too
    ill-conditioned to solve, the previous weights are kept and
    ``state.fallback`` is set.
    """
    y_new = np.asarray(y_new, dtype=complex)
    quad_old = state._quad_cache.popleft()
    quad_new = _quad_forms(state.model, state.degree, y_new)
    _accumulate(state, quad_new - quad_old, 1.0 / state.window_len)
    state._quad_cache.append(quad_new)
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
