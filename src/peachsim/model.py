"""Statistical models for pilot-based MIMO channel estimation.

Builds the second-order statistics of the vectorized observation
``y = pilot_ext @ h + n`` with ``h ~ CN(h_mean, r_cov)`` and
``n ~ CN(n_mean, s_cov)``, including Kronecker-structured spatial
covariances, exponential correlation matrices, pilot-contaminated
disturbance covariances and the correlated model of the simulations
(:func:`correlated_model`).  Every covariance is validated densely at
construction, except that :func:`correlated_model` validates only the
Kronecker factors of its one term list.  ``z`` is the pilot sandwich of
``r_cov`` plus ``s_cov``; for the identity pilot the sandwich only scales.
:meth:`StatModel.draw` is the one sampler of ``(h, y)`` pairs.  The
correlated model's limit ``r + sum_i beta_i R_i`` (:func:`correlated_limit`)
is eigendecomposed once per sweep, in real arithmetic since it is
centro-Hermitian, and the spectrum of ``z`` at each pilot SNR is an affine
map of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.linalg

from .errors import (
    ConfigError,
    EmptyDimension,
    InvalidCorrelation,
    InvalidParameter,
    NotPositiveDefinite,
    NotPositiveSemiDefinite,
    PilotShapeMismatch,
    ShapeError,
    SingularCovariance,
)
from .spectrum import Spectrum

# Relative tolerance for Hermitian / PSD validation of covariance inputs.
HERMITIAN_RTOL = 1e-10
PSD_RTOL = 1e-10


@dataclass(frozen=True)
class Dims:
    """Antenna and pilot dimensions.

    ``m = b * n_r`` is the length of the vectorized observation and
    ``n = n_t * n_r`` the length of the vectorized channel.
    """

    n_r: int
    n_t: int
    b: int

    def __post_init__(self):
        for name in ("n_r", "n_t", "b"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise EmptyDimension(f"{name} must be a positive integer, got {value!r}")

    @property
    def m(self) -> int:
        return self.b * self.n_r

    @property
    def n(self) -> int:
        return self.n_t * self.n_r


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize against rounding drift: (X + X^H) / 2."""
    return 0.5 * (a + a.conj().T)


def is_hermitian(a: np.ndarray) -> bool:
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return True
    return np.linalg.norm(a - a.conj().T) <= HERMITIAN_RTOL * scale


def _factor_hermitian_psd(a: np.ndarray, name: str, vectors: bool):
    """Validate ``a`` as Hermitian PSD and factor it the cheapest way that decides.

    Returns ``(a, factor, eigs, vecs)`` with ``a`` symmetrized.  When a
    Cholesky factorization succeeds the matrix is positive definite, ``factor``
    is its lower Cholesky factor and ``eigs``/``vecs`` are None.  Otherwise
    ``factor`` is None and the ascending eigenvalues (and, with ``vectors``,
    the eigenvectors) decide semidefiniteness within ``PSD_RTOL``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    if not is_hermitian(a):
        raise NotPositiveSemiDefinite(f"{name} is not Hermitian within tolerance")
    a = hermitize(a)
    try:
        return a, np.linalg.cholesky(a), None, None
    except np.linalg.LinAlgError:
        pass
    eigs, vecs = scipy.linalg.eigh(a, driver="evr") if vectors else (np.linalg.eigvalsh(a), None)
    scale = max(eigs[-1], 0.0)
    if eigs[0] < -PSD_RTOL * max(scale, 1.0):
        raise NotPositiveSemiDefinite(
            f"{name} has negative eigenvalue {eigs[0]:.3e} (largest {eigs[-1]:.3e})"
        )
    return a, None, eigs, vecs


def check_hermitian_psd(a: np.ndarray, name: str = "matrix"):
    """Validate that ``a`` is square and Hermitian PSD within the module tolerances.

    Hermitian means to ``HERMITIAN_RTOL`` relative.  A matrix that Cholesky
    factors is accepted as positive definite; only when that fails does an
    ``eigvalsh`` test decide, accepting a smallest eigenvalue down to
    ``-PSD_RTOL`` times the largest (or ``-PSD_RTOL`` when it is below 1).

    Returns ``a`` symmetrized and whether it is positive definite.
    """
    a, factor, eigs, _ = _factor_hermitian_psd(a, name, vectors=False)
    return a, factor is not None or eigs[0] > 0


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L @ L^H = cov, after validating cov as Hermitian PSD.

    Returns the Cholesky factor when the matrix is positive definite.  For
    semidefinite inputs (for example covariances with zero blocks) the failed
    factorization is followed by one MRRR ``eigh``, which both validates the
    matrix and gives the factor with clipped negative eigenvalues.
    """
    _, factor, eigs, vecs = _factor_hermitian_psd(cov, "covariance", vectors=True)
    if factor is not None:
        return factor
    return vecs * np.sqrt(np.clip(eigs, 0.0, None))


@dataclass(frozen=True)
class ContaminationSpec:
    """Interference entering the disturbance covariance through pilot reuse.

    Each interferer contributes ``beta * pilot_ext @ cov @ pilot_ext^H`` and
    uncorrelated receiver noise adds ``noise_var * I``.
    """

    interferer_covs: tuple = ()
    betas: tuple = ()
    noise_var: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "interferer_covs", tuple(np.asarray(c, dtype=complex) for c in self.interferer_covs))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.interferer_covs) != len(self.betas):
            raise ShapeError("interferer_covs and betas must have equal length")
        # written so that NaN fails each comparison
        if not all(0 <= b < np.inf for b in self.betas):
            raise InvalidParameter("interference power ratios must be finite and nonnegative")
        if not 0 < self.noise_var < np.inf:
            raise InvalidParameter("noise variance must be finite and positive")

    @property
    def summed_covariance(self):
        """Sum of beta_i * cov_i over the interferers (0 without any)."""
        return sum((beta * cov for beta, cov in zip(self.betas, self.interferer_covs)), 0)


@dataclass(frozen=True)
class StatModel:
    """Full second-order statistics of the channel and disturbance.

    Fields
    ------
    dims : Dims
    h_mean : (n,) channel mean
    r_cov : (n, n) channel covariance, Hermitian PSD
    n_mean : (m,) disturbance mean
    s_cov : (m, m) disturbance covariance, Hermitian positive definite
    pilot : (n_t, b) pilot matrix

    The extended pilot ``pilot_ext = pilot.T (x) I_{n_r}`` is not stored:
    :meth:`apply_pilot` and :meth:`apply_pilot_adjoint` apply it through its
    Kronecker structure in O(m * n_t) per vector, and the ``pilot_ext``
    property forms the dense (m, n) matrix on demand for the analysis-side
    oracles.  A model is never mutated after construction, so quantities
    derived from it (``z``, ``z_factor``, ``z_spectrum``, ``r_factor``,
    ``s_factor``) are computed once, on first use; :meth:`draw` samples
    through the two cached factors.

    ``limit`` is set by :func:`correlated_model` only: ``(source, power,
    noise_var)`` with ``z = power * limit + noise_var * I`` and ``source()``
    the limit's :class:`Spectrum`.  It is not an init field, so
    ``dataclasses.replace`` leaves a derived model without it, on the dense
    path.
    """

    dims: Dims
    h_mean: np.ndarray
    r_cov: np.ndarray
    n_mean: np.ndarray
    s_cov: np.ndarray
    pilot: np.ndarray
    limit: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        n, m = self.dims.n, self.dims.m
        h_mean = np.zeros(n, dtype=complex) if self.h_mean is None else np.asarray(self.h_mean, dtype=complex)
        n_mean = np.zeros(m, dtype=complex) if self.n_mean is None else np.asarray(self.n_mean, dtype=complex)
        pilot = np.asarray(self.pilot, dtype=complex)
        if pilot.shape != (self.dims.n_t, self.dims.b):
            raise ShapeError(f"pilot must be {self.dims.n_t}x{self.dims.b}, got {pilot.shape}")
        if h_mean.shape != (n,) or n_mean.shape != (m,):
            raise ShapeError("mean vectors inconsistent with dims")
        r_cov, _ = check_hermitian_psd(self.r_cov, "r_cov")
        s_cov, s_definite = check_hermitian_psd(self.s_cov, "s_cov")
        if r_cov.shape != (n, n) or s_cov.shape != (m, m):
            raise ShapeError("covariance shapes inconsistent with dims")
        if not s_definite:
            raise NotPositiveSemiDefinite("s_cov must be positive definite")
        object.__setattr__(self, "h_mean", h_mean)
        object.__setattr__(self, "n_mean", n_mean)
        object.__setattr__(self, "r_cov", r_cov)
        object.__setattr__(self, "s_cov", s_cov)
        object.__setattr__(self, "pilot", pilot)

    @classmethod
    def _of_kronecker_factors(cls, dims: Dims, r_cov, s_cov, pilot, limit) -> StatModel:
        """Zero-mean model of :func:`correlated_model`: the one place that skips ``__post_init__``'s checks.

        ``r_cov`` and each interferer covariance are ``np.kron`` of Hermitian
        factors validated as PSD, so each is exactly Hermitian (an entry and
        its mirror are products of conjugates) and PSD (its eigenvalues are
        the products of the factors'; Horn & Johnson, Topics in Matrix
        Analysis, Thm 4.2.12).  The identity ``pilot``'s sandwich of ``R_i``
        scales each entry by the same real scalar (:func:`_pilot_sandwich`),
        so ``s_cov``, ``noise_var * I`` plus the sandwiches weighted by
        ``beta_i >= 0``, with finite ``noise_var > 0``, is exactly Hermitian
        and positive definite: the m x m Cholesky, norms and ``hermitize``
        copies would change nothing.
        """
        model = object.__new__(cls)
        model.__dict__.update(dims=dims, h_mean=np.zeros(dims.n, dtype=complex), r_cov=r_cov,
                              n_mean=np.zeros(dims.m, dtype=complex), s_cov=s_cov, pilot=pilot, limit=limit)
        return model

    @property
    def pilot_ext(self) -> np.ndarray:
        """Dense extended pilot pilot.T (x) I_{n_r}, formed on each access (analysis side only)."""
        return extend_pilot(self.pilot, self.dims.n_r)

    # The two applies view a vector (or each column of a batch) as n_t or b
    # blocks of n_r entries and contract the pilot over the block index, one
    # small matrix product on a reshaped view.  np.tensordot computes the same
    # product but adds about 15 us of Python overhead per call, three times
    # the product itself at m = 80.

    def apply_pilot(self, x: np.ndarray) -> np.ndarray:
        """pilot_ext @ x for an (n,) vector or an (n, k) batch, without forming pilot_ext."""
        x = np.asarray(x)
        return (self.pilot.T @ x.reshape(self.dims.n_t, -1)).reshape(self.dims.m, *x.shape[1:])

    def apply_pilot_adjoint(self, y: np.ndarray) -> np.ndarray:
        """pilot_ext^H @ y for an (m,) vector or an (m, k) batch, without forming pilot_ext."""
        y = np.asarray(y)
        return (self.pilot.conj() @ y.reshape(self.dims.b, -1)).reshape(self.dims.n, *y.shape[1:])

    def draw(self, rng: np.random.Generator, count: int):
        """``count`` seeded channel and observation draws ``(h, y)``, of shapes (n, count) and (m, count).

        Draws ``h = h_mean + r_factor @ w`` first, then the disturbance
        ``n_mean + s_factor @ v`` (``w`` and ``v`` standard complex normal),
        and returns ``y = apply_pilot(h) + disturbance``.
        """
        h = self.h_mean[:, None] + self.r_factor @ standard_complex_normal(rng, self.dims.n, count)
        noise = self.n_mean[:, None] + self.s_factor @ standard_complex_normal(rng, self.dims.m, count)
        return h, self.apply_pilot(h) + noise

    def y_mean(self) -> np.ndarray:
        """Mean of the observation, pilot_ext @ h_mean + n_mean."""
        return self.apply_pilot(self.h_mean) + self.n_mean

    def observation_covariance(self, r_cov: np.ndarray) -> np.ndarray:
        """pilot_ext @ r_cov @ pilot_ext^H + s_cov for a validated channel covariance ``r_cov`` of this model's shape."""
        return _pilot_sandwich(self.pilot, self.dims.n_r, r_cov) + self.s_cov

    @cached_property
    def z(self) -> np.ndarray:
        """Dense observation covariance of the model's own ``r_cov`` (read-only)."""
        z = self.observation_covariance(self.r_cov)
        z.setflags(write=False)
        return z

    @cached_property
    def z_factor(self):
        """Cholesky factor of z in the ``scipy.linalg.cho_factor`` form (read-only), for MMSE solves."""
        try:
            factor, lower = scipy.linalg.cho_factor(self.z)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("observation covariance is singular") from exc
        factor.setflags(write=False)
        return factor, lower

    @cached_property
    def z_spectrum(self) -> Spectrum:
        """Spectrum of z, shared by every closed-form MSE and default scaling.

        With a ``limit``, ``lam = power * mu + noise_var`` and ``phi = power *
        phi_limit`` of the limit's spectrum, and z is not formed; otherwise one
        MRRR ``eigh`` of z.
        """
        if self.limit is not None:
            source, power, noise_var = self.limit
            mu = source()
            spectrum = Spectrum(power * mu.lam + noise_var, power * mu.phi, mu.trace_r)
        else:
            lam, vecs = scipy.linalg.eigh(self.z, driver="evr")
            # formed after eigh, so the (n, m) channel and eigh's workspace never coexist
            channel = self.apply_pilot(self.r_cov).conj().T
            spectrum = Spectrum(lam, Spectrum.energies(channel, vecs), float(np.trace(self.r_cov).real))
        if spectrum.lam[0] <= 0:
            raise NotPositiveDefinite("observation covariance must be positive definite")
        return spectrum

    @cached_property
    def r_factor(self) -> np.ndarray:
        """Factor L with L @ L^H = r_cov (:func:`psd_factor`, read-only), for drawing channels."""
        factor = psd_factor(self.r_cov)
        factor.setflags(write=False)
        return factor

    @cached_property
    def s_factor(self) -> np.ndarray:
        """Factor L with L @ L^H = s_cov (:func:`psd_factor`, read-only), for drawing disturbances."""
        factor = psd_factor(self.s_cov)
        factor.setflags(write=False)
        return factor


def z_matrix(model: StatModel) -> np.ndarray:
    """Dense observation covariance of ``model``, formed once per model (read-only)."""
    return model.z


def exp_correlation_matrix(dim: int, coeff: complex) -> np.ndarray:
    """Hermitian Toeplitz correlation matrix with entry (i, j) = coeff**(j - i) for j >= i.

    Requires |coeff| < 1 strictly, which makes the matrix positive definite.
    """
    if dim < 1:
        raise EmptyDimension(f"dim must be a positive integer, got {dim!r}")
    coeff = complex(coeff)
    if abs(coeff) >= 1.0:
        raise InvalidCorrelation(f"|coeff| must be < 1, got {abs(coeff):.6g}")
    lags = np.arange(dim)
    offsets = lags[None, :] - lags[:, None]
    powers = coeff ** np.abs(offsets)
    return np.where(offsets >= 0, powers, np.conj(powers))


def extend_pilot(pilot: np.ndarray, n_r: int) -> np.ndarray:
    """Extended pilot matrix pilot.T (x) I_{n_r} acting on the vectorized channel."""
    return np.kron(np.asarray(pilot, dtype=complex).T, np.eye(n_r))


def identity_pilot(dims: Dims, pilot_power: float) -> np.ndarray:
    """Scaled identity pilot sqrt(pilot_power) * I; requires b == n_t."""
    if dims.b != dims.n_t:
        raise PilotShapeMismatch(
            f"identity pilot requires b == n_t, got b={dims.b}, n_t={dims.n_t}"
        )
    if not 0 < pilot_power < np.inf:
        raise InvalidParameter("pilot power must be finite and positive")
    return np.sqrt(pilot_power) * np.eye(dims.n_t, dtype=complex)


def _pilot_sandwich(pilot: np.ndarray, n_r: int, cov: np.ndarray) -> np.ndarray:
    """pilot_ext @ cov @ pilot_ext^H without the dense factor; exactly Hermitian when ``cov`` is.

    A pilot ``root * I`` with real ``root`` scales each entry twice.  Any
    other pilot is contracted on both transmit axes of ``cov`` viewed as an
    (n_t, n_r, n_t, n_r) array, in O(b * n_t * n * n_r) rather than
    O(m * n^2), and the result is symmetrized.
    """
    n_t, b = pilot.shape
    root = pilot[0, 0].real
    if n_t == b and np.array_equal(pilot, root * np.eye(n_t)):
        return root * (root * cov)
    # pilot on the row transmit axis gives (j, r, u, s), conj(pilot) on the
    # column one (j, r, s, k); rows are (j, r) and columns (k, s)
    left = np.tensordot(pilot, cov.reshape(n_t, n_r, n_t, n_r), axes=(0, 0))
    return hermitize(np.tensordot(left, pilot.conj(), axes=(2, 0)).transpose(0, 1, 3, 2).reshape(b * n_r, -1))


def disturbance_covariance(pilot: np.ndarray, n_r: int, contamination: ContaminationSpec) -> np.ndarray:
    """Pilot-contaminated disturbance covariance.

    Sums ``beta_i * pilot_ext @ cov_i @ pilot_ext^H`` over the interfering
    cells, each formed by :func:`_pilot_sandwich`, and adds the
    receiver-noise term ``noise_var * I``.
    """
    n_t, b = pilot.shape
    s_cov = contamination.noise_var * np.eye(b * n_r, dtype=complex)
    for beta, cov in zip(contamination.betas, contamination.interferer_covs):
        cov, _ = check_hermitian_psd(cov, "interferer covariance")
        if cov.shape != (n_t * n_r,) * 2:
            raise ShapeError("interferer covariance shape inconsistent with pilot_ext")
        s_cov += beta * _pilot_sandwich(pilot, n_r, cov)
    return s_cov


def build_stat_model(
    dims: Dims,
    h_mean: np.ndarray | None,
    r_cov: np.ndarray,
    n_mean: np.ndarray | None,
    contamination: ContaminationSpec,
    pilot_power: float,
) -> StatModel:
    """Assemble a StatModel with the built-in scaled-identity pilot.

    Arbitrary pilot matrices are supported by :func:`stat_model_from_pilot`
    or by constructing :class:`StatModel` directly.
    """
    pilot = identity_pilot(dims, pilot_power)
    return stat_model_from_pilot(dims, h_mean, r_cov, n_mean, contamination, pilot)


def stat_model_from_pilot(
    dims: Dims,
    h_mean: np.ndarray | None,
    r_cov: np.ndarray,
    n_mean: np.ndarray | None,
    contamination: ContaminationSpec,
    pilot: np.ndarray,
) -> StatModel:
    """Assemble a StatModel from an arbitrary pilot matrix."""
    pilot = np.asarray(pilot, dtype=complex)
    if pilot.shape != (dims.n_t, dims.b):
        raise PilotShapeMismatch(f"pilot must be {dims.n_t}x{dims.b}, got {pilot.shape}")
    s_cov = disturbance_covariance(pilot, dims.n_r, contamination)
    return StatModel(
        dims=dims,
        h_mean=h_mean,
        r_cov=r_cov,
        n_mean=n_mean,
        s_cov=s_cov,
        pilot=pilot,
    )


@dataclass(frozen=True)
class SpatialCorrelation:
    """Exponential-model correlation coefficients for the desired and interfering links."""

    desired_tx: complex = 0.4 * np.exp(-1j * 0.9349 * np.pi)
    desired_rx: complex = 0.9 * np.exp(-1j * 0.9289 * np.pi)
    interferer_tx: tuple = (
        0.35 * np.exp(-1j * 0.8537 * np.pi),
        0.4 * np.exp(-1j * 0.4583 * np.pi),
    )
    interferer_rx: tuple = (
        0.9 * np.exp(-1j * 0.7464 * np.pi),
        0.9 * np.exp(-1j * 0.2649 * np.pi),
    )

    def validate(self):
        coeffs = (self.desired_tx, self.desired_rx, *self.interferer_tx, *self.interferer_rx)
        if any(abs(c) >= 1.0 for c in coeffs):
            raise ConfigError("all correlation coefficient magnitudes must be < 1")


DEFAULT_CORRELATION = SpatialCorrelation()


def _correlated_terms(dims: Dims, betas: tuple, correlation: SpatialCorrelation) -> list:
    """Unvalidated ``(weight, R_t, R_r)`` of r (weight 1), then of each interferer of :func:`correlated_model`:
    interferer ``i`` has weight ``betas[i]`` and the ``i``-th interferer coefficient pair, cyclically."""
    pairs = list(zip(correlation.interferer_tx, correlation.interferer_rx))
    terms = [(1.0, correlation.desired_tx, correlation.desired_rx)]
    terms += [(beta, *pairs[i % len(pairs)]) for i, beta in enumerate(betas)]
    return [(w, exp_correlation_matrix(dims.n_t, tx), exp_correlation_matrix(dims.n_r, rx)) for w, tx, rx in terms]


def _kronecker_covariance(r_t: np.ndarray, r_r: np.ndarray) -> np.ndarray:
    """``R_t (x) R_r``, each factor validated Hermitian PSD first (O(n_t^3 + n_r^3))."""
    return np.kron(check_hermitian_psd(r_t, "R_t")[0], check_hermitian_psd(r_r, "R_r")[0])


def _centro_real_form(top: np.ndarray) -> np.ndarray:
    """Real symmetric ``S = K^H L K`` of a centro-Hermitian ``L`` (``J conj(L) J = L``), in O(n^2).

    ``top`` holds the first ``n - n // 2`` rows of ``L``, which determine it.
    ``K = [[I, iJ], [J, -iI]] / sqrt(2)`` is unitary, with a middle unit
    column for odd ``n``, and ``conj(K) = J K``, so ``S`` is real.  With ``p =
    n // 2``, ``A = L[:p, :p]`` and ``B = L[:p, n-p:]``, ``S = [[Re(A + BJ),
    -Im(AJ - B)], [., J Re(AJ - B)]]``; for odd ``n`` the middle row and column
    are ``sqrt(2)`` times the real and the flipped imaginary part of ``x =
    L[:p, p]``, about ``L[p, p]``.
    """
    n = top.shape[1]
    p = n // 2
    a, b = top[:p, :p], top[:p, n - p :]
    aj_b = a[:, ::-1] - b
    s = np.empty((n, n))
    s[:p, :p] = a.real + b.real[:, ::-1]
    s[:p, n - p :] = -aj_b.imag
    s[n - p :, :p] = s[:p, n - p :].T
    s[n - p :, n - p :] = aj_b.real[::-1]
    if n % 2:
        x = math.sqrt(2.0) * top[:p, p]
        s[:p, p] = s[p, :p] = x.real
        s[n - p :, p] = s[p, n - p :] = x.imag[::-1]
        s[p, p] = top[p, p].real
    return s


def _centro_vectors(vecs: np.ndarray) -> np.ndarray:
    """``K @ vecs`` for the ``K`` of :func:`_centro_real_form` and real ``vecs``, in O(n^2).

    The top ``p`` entries of ``K v`` are ``(v_top + iJ v_bottom) / sqrt(2)``,
    the bottom ``p`` their flipped conjugates and an odd ``n``'s middle one
    ``v``'s.  Built by rows, so the result is the Fortran-ordered transpose
    of a C-ordered array.
    """
    n = vecs.shape[0]
    p = n // 2
    rows = np.empty(vecs.shape[::-1], dtype=complex)
    half = rows[:, :p]
    half.real, half.imag = math.sqrt(0.5) * vecs[:p].T, math.sqrt(0.5) * vecs[n - p :][::-1].T
    np.conjugate(half[:, ::-1], out=rows[:, n - p :])
    if n % 2:
        rows[:, p] = vecs[p]
    return rows.T


@lru_cache(maxsize=1)
def correlated_limit(dims: Dims, betas: tuple, correlation: SpatialCorrelation = DEFAULT_CORRELATION) -> Spectrum:
    """Spectrum of the limit ``r + sum_i beta_i R_i`` of :func:`correlated_model`, with channel ``r``.

    The high-power floors read it directly, and each model's ``z_spectrum``
    maps it affinely, so it depends on neither the SNR nor the degree.
    Without a positive ``beta`` the limit is ``r = R_t (x) R_r``, whose
    eigenvalues are the products of the factors' (Horn & Johnson, Topics in
    Matrix Analysis, Thm 4.2.12) and whose energies are ``mu**2``: no m x m
    decomposition.  With interference, every term is a Kronecker product of
    Hermitian Toeplitz factors, each centro-Hermitian (``J conj(T) J = T``
    for the exchange matrix ``J``), and ``J_n = J_{n_t} (x) J_{n_r}``, so the
    limit is centro-Hermitian too.  It is unitarily similar to a real
    symmetric matrix (Lee, Linear Algebra Appl. 29, 1980; Hill, Bates &
    Waters, SIAM J. Matrix Anal. Appl. 11, 1990; :func:`_centro_real_form`),
    which one real MRRR ``eigh`` (``dsyevr``) decomposes; its eigenvectors
    map back in O(m^2) (:func:`_centro_vectors`).  The energies
    ``||r u_k||^2`` apply ``r`` through its factors.  Only the latest
    spectrum is kept (two length-m vectors, read-only), as the experiment
    runner keeps only its latest model; ``betas`` is a tuple, the cache key.
    """
    n_t, n_r, n = dims.n_t, dims.n_r, dims.n
    (_, r_t, r_r), *interferers = _correlated_terms(dims, betas, correlation)
    interferers = [term for term in interferers if term[0] > 0]
    trace_r = float(np.trace(r_t).real * np.trace(r_r).real)
    if not interferers:
        mu = np.sort(np.kron(np.linalg.eigvalsh(r_t), np.linalg.eigvalsh(r_r)))
        phi = mu**2
    else:
        # the limit's first n - n // 2 rows determine it; the first k * n_r
        # rows of R_t (x) R_r are R_t[:k] (x) R_r
        rows = n - n // 2
        t_rows = -(-rows // n_r)
        top = np.kron(r_t[:t_rows], r_r)[:rows]
        for beta, i_t, i_r in interferers:
            top += np.kron(beta * i_t[:t_rows], i_r)[:rows]
        mu, vecs = scipy.linalg.eigh(_centro_real_form(top).T, driver="evr", overwrite_a=True)
        del top
        vecs = _centro_vectors(vecs)
        # r u = vec(R_t U R_r^T) for the row-major (n_t, n_r) view U of each
        # eigenvector u, a row of the C-ordered vecs.T; vecs is released before
        # the second product, so at most two n x n complex arrays coexist
        r_vecs = vecs.T.reshape(n * n_t, n_r) @ r_r.T
        del vecs
        r_vecs = np.matmul(r_t, r_vecs.reshape(n, n_t, n_r))
        phi = np.sum(np.abs(r_vecs) ** 2, axis=(1, 2))
    # every caller shares the cached arrays
    mu.setflags(write=False)
    phi.setflags(write=False)
    return Spectrum(mu, phi, trace_r)


def correlated_diagonals(dims: Dims, betas: tuple, correlation: SpatialCorrelation = DEFAULT_CORRELATION):
    """Diagonals of r and of ``sum_i beta_i R_i`` of :func:`correlated_model`, read off their Kronecker factors."""
    (_, r_t, r_r), *interferers = _correlated_terms(dims, betas, correlation)
    diag = lambda a, b: np.kron(np.diag(a), np.diag(b)).real
    return diag(r_t, r_r), sum((beta * diag(i_t, i_r) for beta, i_t, i_r in interferers), np.zeros(dims.n))


def correlated_contamination(
    dims: Dims,
    betas: tuple,
    correlation: SpatialCorrelation = DEFAULT_CORRELATION,
    noise_var: float = 1.0,
) -> ContaminationSpec:
    """Pilot-reusing interferers of :func:`correlated_model` (:func:`_correlated_terms`), from validated factors."""
    _, *interferers = _correlated_terms(dims, betas, correlation)
    return ContaminationSpec(tuple(_kronecker_covariance(r_t, r_r) for _, r_t, r_r in interferers), betas, noise_var)


def correlated_model(
    dims: Dims,
    gamma_db: float,
    betas: tuple,
    correlation: SpatialCorrelation = DEFAULT_CORRELATION,
    noise_var: float = 1.0,
) -> StatModel:
    """Kronecker-correlated desired channel plus pilot-reusing interferers.

    ``gamma_db`` is the normalized pilot SNR in dB, so the pilot power is
    ``noise_var * 10**(gamma_db / 10)`` (:class:`InvalidParameter` where that
    is not finite and positive); the interferers are those of
    :func:`correlated_contamination`.  With the identity pilot,
    ``z = pilot_power * (r + sum_i beta_i R_i) + noise_var * I``, so the
    model's ``z_spectrum`` is read off :func:`correlated_limit`, on first use.

    Only the factors ``R_t`` and ``R_r`` of r and of each interferer are
    validated, in O(n_t^3 + n_r^3) (:meth:`StatModel._of_kronecker_factors`);
    the model equals :func:`build_stat_model`'s on the same covariances.
    """
    try:  # math.pow overflows with an OverflowError, never with a numpy warning
        pilot_power = float(noise_var) * math.pow(10.0, gamma_db / 10.0)
    except OverflowError:
        raise InvalidParameter(f"a pilot SNR of {gamma_db} dB overflows the pilot power") from None
    _, r_t, r_r = _correlated_terms(dims, (), correlation)[0]
    r_cov = _kronecker_covariance(r_t, r_r)
    contamination = correlated_contamination(dims, betas, correlation, noise_var)
    pilot = identity_pilot(dims, pilot_power)
    s_cov = contamination.noise_var * np.eye(dims.m, dtype=complex)
    for beta, cov in zip(contamination.betas, contamination.interferer_covs):
        s_cov += beta * _pilot_sandwich(pilot, dims.n_r, cov)
    if not np.isfinite(s_cov).all():
        raise NotPositiveSemiDefinite("s_cov is not finite: the pilot and interference powers overflow")
    source = partial(correlated_limit, dims, contamination.betas, correlation)
    return StatModel._of_kronecker_factors(dims, r_cov, s_cov, pilot, (source, pilot_power, noise_var))


def standard_complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Circularly symmetric complex Gaussian entries with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def deviation(model: StatModel, y: np.ndarray) -> np.ndarray:
    """Mean-removed observation d = y - pilot_ext @ h_mean - n_mean."""
    y = np.asarray(y, dtype=complex)
    if y.shape[0] != model.dims.m:
        raise ShapeError(f"expected observation of length {model.dims.m}, got {y.shape}")
    y_bar = model.y_mean()
    if y.ndim == 2:
        return y - y_bar[:, None]
    return y - y_bar

