"""Dense normal-equations form of the W-PEACH weight system.

An independent reference for the optimal weights, which the library computes
through the least-squares fit on the spectrum of z
(:meth:`peachsim.spectrum.Spectrum.fit`).  It powers z densely and solves the
moment (Hankel-type) system directly, so it is only trusted at degrees where
that system is well conditioned.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from peachsim.adaptive import guarded_hermitian_solve
from peachsim.model import StatModel, z_matrix


class IllConditionedWeightsWarning(UserWarning):
    """Weight system was solved with Tikhonov regularization."""


@dataclass(frozen=True)
class WeightSystem:
    """Linear system A w = b whose solution minimizes the weighted-estimator MSE."""

    a_mat: np.ndarray
    b_vec: np.ndarray
    alpha_w: float

    @property
    def degree(self) -> int:
        return self.a_mat.shape[0] - 1


def wpeach_weight_system(model: StatModel, degree: int, alpha_w: float) -> WeightSystem:
    """Weight system of the MSE-optimal weighted estimator.

    A[i, j] = alpha_w^(i+j) trace(r pilot^H z^(i+j-1) pilot r) and
    b[i] = alpha_w^i trace(r pilot^H z^(i-1) pilot r) with one-based i, j.
    Computed by powering z against the fixed matrix pilot_ext @ r_cov;
    dense, analysis-side only.
    """
    z = z_matrix(model)
    b_mat = model.pilot_ext @ model.r_cov
    f = b_mat @ b_mat.conj().T
    traces = np.empty(2 * degree + 2)
    cur = f
    traces[0] = np.trace(cur).real
    for k in range(1, 2 * degree + 2):
        cur = cur @ z
        traces[k] = np.trace(cur).real
    idx = np.arange(1, degree + 2)
    powers = alpha_w ** (idx[:, None] + idx[None, :])
    a_mat = powers * traces[idx[:, None] + idx[None, :] - 1]
    b_vec = alpha_w**idx * traces[idx - 1]
    return WeightSystem(a_mat=a_mat.astype(complex), b_vec=b_vec.astype(complex), alpha_w=alpha_w)


def wpeach_weights_optimal(ws: WeightSystem) -> np.ndarray:
    """MSE-minimizing weights A^{-1} b, guarded against ill-conditioning."""
    weights, regularized = guarded_hermitian_solve(ws.a_mat, ws.b_vec)
    if regularized:
        warnings.warn(
            "weight system condition number exceeded the limit; solved with Tikhonov regularization",
            IllConditionedWeightsWarning,
            stacklevel=2,
        )
    return weights
