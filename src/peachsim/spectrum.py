"""Spectral form of the closed-form MSE of linear channel estimators.

An estimator h_hat = h_mean + r pilot^H v(z) d whose filter is a scalar
function ``v`` of a Hermitian matrix ``z`` (a polynomial for the expansion
estimators, 1/x for MMSE) has

    MSE(v) = trace(r) + sum_k phi_k (lam_k |v(lam_k)|^2 - 2 Re v(lam_k))

with ``lam_k`` the eigenvalues of ``z`` and ``phi_k`` the channel energy
along its eigenvectors, the spectral measure of the moment view of the
weight system (Golub & Meurant, Matrices, Moments and Quadrature, 2010).
The finite-power MSEs use the observation covariance; the high-power floors
use its limit, ``r`` without and ``r + sum_interf`` with pilot contamination
(:func:`peachsim.model.correlated_limit`), of which the correlated model's
spectrum of z is an affine image.
Every polynomial MSE, the optimal W-PEACH one and the floors included,
evaluates the applied filter at ``lam_k`` with
:meth:`peachsim.estimators.PolyEstimator.values`, the Horner loop that
applies it to observations; :meth:`Spectrum.fit` gives only its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDegree, SingularLimit, check_integer


def check_degree(degree: int) -> int:
    """``degree`` as an ``int`` if it is an integer of at least 0 (:func:`check_integer`), else :class:`InvalidDegree`."""
    return check_integer("polynomial degree", degree, 0, InvalidDegree)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues ``lam`` (ascending), channel energies ``phi`` and trace(r)."""

    lam: np.ndarray
    phi: np.ndarray
    trace_r: float

    @staticmethod
    def energies(channel: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Channel energy ||channel @ u_k||^2 along each eigenvector column u_k."""
        return np.sum(np.abs(channel @ vecs) ** 2, axis=0)

    def mse(self, v: np.ndarray) -> float:
        """MSE of the filter whose values at the eigenvalues are ``v``."""
        v = np.asarray(v)
        return float(self.trace_r + np.sum(self.phi * (self.lam * np.abs(v) ** 2 - 2.0 * v.real)))

    def mmse(self) -> float:
        """MSE of the exact inverse, v = 1 / lam."""
        return float(self.trace_r - np.sum(self.phi / self.lam))

    def fit(self, degree: int) -> np.ndarray:
        """Monomial coefficients of the optimal degree-``degree`` polynomial filter v, in lam (increasing order).

        MSE(v) = mmse + sum_k phi_k lam_k |v(lam_k) - 1/lam_k|^2, so the
        optimum is a weighted least-squares fit of 1/lam, computed in the
        scaled variable lam / max(lam); this square-roots the condition number
        of the equivalent moment (Hankel-type) system; :meth:`mse` scores the
        filter.  Null eigenvalues are dropped; :class:`SingularLimit` is raised
        when the channel has energy along them.
        """
        degree = check_degree(degree)
        lam, phi = self.lam, self.phi
        if lam[-1] <= 0:
            return np.zeros(degree + 1)
        keep = lam > 1e-14 * lam[-1]
        dropped = phi[~keep]
        if dropped.size and np.any(dropped > 1e-12 * max(phi.max(), 1e-300)):
            raise SingularLimit("matrix is singular where the channel has energy")
        lam, phi = lam[keep], phi[keep]
        scale = lam.max()
        sqrt_w = np.sqrt(np.clip(phi, 0.0, None) * lam)
        design = sqrt_w[:, None] * np.vander(lam / scale, degree + 1, increasing=True)
        target = sqrt_w / lam
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        return coef / scale ** np.arange(degree + 1)
