"""Dense references for the spectral library paths.

The normal-equations form of the W-PEACH weight system is an independent
reference for the optimal weights, which the library computes through the
least-squares fit on the spectrum of z
(:meth:`peachsim.spectrum.Spectrum.fit`).  It powers z densely and solves the
moment (Hankel-type) system directly, so it is only trusted at degrees where
that system is well conditioned.

The matrix forms of the high-power floors decompose dense covariances and
hand the limit spectrum to :mod:`peachsim.analysis`, which the library feeds
from the Kronecker-structured :func:`peachsim.model.correlated_limit`; the
dense unitary of :func:`centro_unitary` checks the real form that function
decomposes.  :func:`pilot_sandwich` contracts the pilot for every pilot,
where the library only scales for an identity pilot.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from peachsim import analysis
from peachsim.adaptive import guarded_hermitian_solve
from peachsim.model import StatModel, hermitize, z_matrix
from peachsim.spectrum import Spectrum


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


def dense_spectrum(matrix: np.ndarray, channel: np.ndarray, trace_r: float) -> Spectrum:
    """Spectrum of a dense Hermitian ``matrix`` by one MRRR ``eigh``; phi_k = ||channel @ u_k||^2."""
    lam, vecs = scipy.linalg.eigh(matrix, driver="evr")
    return Spectrum(lam, Spectrum.energies(channel, vecs), trace_r)


def centro_unitary(n: int) -> np.ndarray:
    """Dense unitary ``K = [[I, iJ], [J, -iI]] / sqrt(2)`` of order ``n``, with a middle unit column for odd ``n``.

    ``conj(K) = J K`` for the exchange matrix ``J``, so ``K^H L K`` is real for
    every centro-Hermitian ``L`` (``J conj(L) J = L``).
    """
    p = n // 2
    eye, flip = np.eye(p), np.eye(p)[::-1]
    k = np.zeros((n, n), dtype=complex)
    k[:p, :p], k[:p, n - p :] = eye, 1j * flip
    k[n - p :, :p], k[n - p :, n - p :] = flip, -1j * eye
    k /= np.sqrt(2.0)
    if n % 2:
        k[p, p] = 1.0
    return k


def pilot_sandwich(pilot: np.ndarray, n_r: int, cov: np.ndarray) -> np.ndarray:
    """pilot_ext @ cov @ pilot_ext^H by contracting the pilot on both transmit axes of ``cov``, unsymmetrized.

    With ``pilot_ext = pilot.T (x) I_{n_r}``, ``cov`` is viewed as an
    (n_t, n_r, n_t, n_r) array; rows of the result are (j, r) and columns (k, s).
    """
    n_t, b = pilot.shape
    left = np.tensordot(pilot, cov.reshape(n_t, n_r, n_t, n_r), axes=(0, 0))
    return np.tensordot(left, pilot.conj(), axes=(2, 0)).transpose(0, 1, 3, 2).reshape(b * n_r, b * n_r)


def noise_limited_floors(r_cov: np.ndarray, degree: int) -> analysis.NoiseLimitedFloors:
    """Noise-limited floors of a dense channel covariance: its eigenvalues, with phi = lam^2."""
    r_cov = hermitize(np.asarray(r_cov, dtype=complex))
    lam = np.linalg.eigvalsh(r_cov)
    return analysis.floor_noise_limited(Spectrum(lam, lam**2, float(np.trace(r_cov).real)), degree)


def contaminated_floors(r_cov: np.ndarray, sum_interf: np.ndarray, degree: int) -> analysis.ContaminatedFloors:
    """Contaminated floors of dense covariances: one eigh of r_cov + sum_interf, and both diagonals."""
    r_cov = np.asarray(r_cov, dtype=complex)
    sum_interf = np.asarray(sum_interf, dtype=complex)
    limit = dense_spectrum(hermitize(r_cov + sum_interf), r_cov, float(np.trace(r_cov).real))
    return analysis.floor_contaminated(limit, np.diag(r_cov).real, np.diag(sum_interf).real, degree)
