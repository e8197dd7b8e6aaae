"""Dense references for the spectral library paths.

The normal-equations form of the W-PEACH weight system is an independent
reference for the optimal weights, which the library fits by least squares
on the spectrum of z (:meth:`peachsim.spectrum.Spectrum.fit`) and scores as
the filter it applies.  It powers z densely and solves the
moment (Hankel-type) system directly, so it is only trusted at degrees where
that system is well conditioned.  Its solve, :func:`guarded_hermitian_solve`,
adds a Tikhonov shift once the condition number passes
:data:`WEIGHT_COND_LIMIT`, which these exact normal equations do at high
degree; the library's sliding-window tracker needs no such guard, since the
ridge it adds to its sampled system bounds that system.

The matrix forms of the high-power floors decompose dense covariances and
hand the limit spectrum to :mod:`peachsim.analysis`, which the library feeds
from the Kronecker-structured :func:`peachsim.model.correlated_limit`; the
dense unitary of :func:`centro_unitary` checks the real form that function
decomposes.  :func:`pilot_sandwich` contracts the pilot for every pilot,
where the library only scales for an identity pilot.
:func:`peach_as_wpeach_weights` gives the weights under which W-PEACH is
PEACH, an identity the tests check the weighted paths against.

:func:`correlated_contamination` lists the ``(beta_i, R_i)`` interferer pairs of
:func:`peachsim.model.correlated_model`, with dense ``R_i`` restated from the public correlation
coefficients, for the generic build path (which validates each of them
densely) and for :func:`summed_covariance`, the dense ``sum_i beta_i R_i``;
the library forms each ``R_i`` only while it adds that interferer's sandwich.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from peachsim import analysis
from peachsim.errors import IllConditionedWeights
from peachsim.model import (
    DEFAULT_CORRELATION,
    SpatialCorrelation,
    StatModel,
    exp_correlation_matrix,
    hermitize,
    z_matrix,
)
from peachsim.spectrum import Spectrum, check_degree


# Condition number above which the normal-equations solve switches to Tikhonov regularization.
WEIGHT_COND_LIMIT = 1e12


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


def peach_as_wpeach_weights(degree: int) -> np.ndarray:
    """Weights that make the weighted estimator reproduce the unweighted one.

    w_n = (-1)^n sum_{l=n}^{L} C(l, n), to be combined with alpha_w = alpha.
    """
    check_degree(degree)
    return np.array(
        [(-1) ** n * sum(math.comb(l, n) for l in range(n, degree + 1)) for n in range(degree + 1)],
        dtype=complex,
    )


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


def noise_limited_floors(r_cov: np.ndarray, degree: int) -> analysis.Floors:
    """Noise-limited floors of a dense channel covariance: its eigenvalues, with phi = lam^2."""
    r_cov = hermitize(np.asarray(r_cov, dtype=complex))
    lam = np.linalg.eigvalsh(r_cov)
    return analysis.floor_noise_limited(Spectrum(lam, lam**2, float(np.trace(r_cov).real)), degree)


def contaminated_floors(r_cov: np.ndarray, sum_interf: np.ndarray, degree: int) -> analysis.Floors:
    """Contaminated floors of dense covariances: one eigh of r_cov + sum_interf, and both diagonals."""
    r_cov = np.asarray(r_cov, dtype=complex)
    sum_interf = np.asarray(sum_interf, dtype=complex)
    limit = dense_spectrum(hermitize(r_cov + sum_interf), r_cov, float(np.trace(r_cov).real))
    return analysis.floor_contaminated(limit, np.diag(r_cov).real, np.diag(sum_interf).real, degree)


def correlated_contamination(dims, betas: tuple, correlation: SpatialCorrelation = DEFAULT_CORRELATION) -> tuple:
    """Dense ``(beta, cov)`` interferer pairs of :func:`peachsim.model.correlated_model`.

    Interferer ``i`` has weight ``betas[i]`` and covariance ``R_t (x) R_r`` of
    the ``i``-th interferer coefficient pair of ``correlation``, cyclically.
    """
    pairs = list(zip(correlation.interferer_tx, correlation.interferer_rx))
    covs = (
        np.kron(exp_correlation_matrix(dims.n_t, tx), exp_correlation_matrix(dims.n_r, rx))
        for tx, rx in (pairs[i % len(pairs)] for i in range(len(betas)))
    )
    return tuple(zip(betas, covs))


def summed_covariance(interferers):
    """Sum of beta_i * cov_i over the ``(beta, cov)`` interferers (0 without any)."""
    return sum((beta * cov for beta, cov in interferers), 0)
