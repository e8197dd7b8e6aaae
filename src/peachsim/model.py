"""Statistical models for pilot-based MIMO channel estimation.

Builds the second-order statistics of the vectorized observation
``y = pilot_ext @ h + n`` with ``h ~ CN(h_mean, r_cov)`` and
``n ~ CN(n_mean, s_cov)``, including Kronecker-structured spatial
covariances, exponential correlation matrices, pilot-contaminated
disturbance covariances and the correlated model of the simulations
(:func:`correlated_model`).  Every covariance is validated densely at
construction, except that :func:`correlated_model` checks and forms none:
validated coefficients fix its Kronecker factors, which the model keeps in
one :class:`KroneckerTerms` record.  Its ``r_cov`` and ``s_cov`` are formed on
first read; ``apply_r`` and the summaries (``trace_r``, ``diagonals``,
``s_block_traces``) read the terms.  ``z`` is the pilot sandwich of ``r_cov``
plus ``s_cov``; for the identity pilot the sandwich only scales.
:meth:`StatModel.draw` is the one sampler of ``(h, y)`` pairs.  The
correlated model's limit ``r + sum_i beta_i R_i`` (:func:`correlated_limit`)
is eigendecomposed once per sweep, in real arithmetic since it is
centro-Hermitian, and the spectrum of ``z`` at each pilot SNR is an affine
map of it.  Its ``z`` is centro-Hermitian too, so the estimators' products and
MMSE solves and the tracker's quadratic forms run on the real symmetric ``S``
with ``z = K S K^H`` (:meth:`StatModel.z_operator`), formed from the limit's
top rows, a block of rows at a time, on the first estimate, with one O(m) map
by ``K^H`` in and by ``K`` out (Lee, Linear Algebra Appl. 29, 1980; Hill,
Bates & Waters, SIAM J. Matrix Anal. Appl. 11, 1990).  It samples its channel
through ``chol(R_t) (x) chol(R_r)``, the Cholesky factor of ``r_cov``, and,
without a positive-power interferer, its disturbance as ``sqrt(noise_var)``
times a standard draw, so neither tracking nor sampling forms a complex m x m
array.  The mismatched scores, and the disturbance draws of a model with
interferers, still read the complex ``z`` and ``s_cov``.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from .errors import (
    EmptyDimension,
    InvalidCorrelation,
    InvalidParameter,
    NonFiniteObservation,
    NotPositiveDefinite,
    NotPositiveSemiDefinite,
    PilotShapeMismatch,
    ShapeError,
    SingularCovariance,
    check_array,
    check_integer,
    check_real,
)
from .spectrum import Spectrum

# Relative tolerance for Hermitian / PSD validation of covariance inputs.
HERMITIAN_RTOL = 1e-10
PSD_RTOL = 1e-10
# Columns per block in which correlated_limit maps its eigenvectors back and applies r.
LIMIT_BLOCK = 256
# Length from which a vector is multiplied by a real form as two dsymv, which read one triangle; below it, and
# for every block, one dgemm on the real view is faster (one OpenBLAS thread: equal near m = 500, 1.6x at 1000).
SYMV_MIN = 500


@dataclass(frozen=True)
class Dims:
    """Antenna and pilot dimensions.

    ``m = b * n_r`` is the length of the vectorized observation and
    ``n = n_t * n_r`` the length of the vectorized channel.  Each is an
    integer of at least 1 (:func:`~peachsim.errors.check_integer`), stored as
    ``int`` (so numpy integers pass, and cannot wrap), or :class:`EmptyDimension`.
    """

    n_r: int
    n_t: int
    b: int

    def __post_init__(self):
        for name in ("n_r", "n_t", "b"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1, EmptyDimension))

    @property
    def m(self) -> int:
        return self.b * self.n_r

    @property
    def n(self) -> int:
        return self.n_t * self.n_r


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize against rounding drift: (X + X^H) / 2."""
    return 0.5 * (a + a.conj().T)


def _factor_hermitian_psd(a: np.ndarray, name: str, vectors: bool, shape: tuple | None = None):
    """Validate ``a`` as Hermitian PSD and factor it the cheapest way that decides.

    Returns ``(a, factor, eigs, vecs)`` with ``a`` symmetrized.  When a
    Cholesky factorization succeeds the matrix is positive definite, ``factor``
    is its lower Cholesky factor and ``eigs``/``vecs`` are None.  Otherwise
    ``factor`` is None and the ascending eigenvalues (and, with ``vectors``,
    the eigenvectors) decide semidefiniteness within ``PSD_RTOL``.
    """
    a = check_array(name, a, shape, square=True)
    if not np.linalg.norm(a - a.conj().T) <= HERMITIAN_RTOL * np.linalg.norm(a):  # NaN fails the comparison
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


def check_hermitian_psd(a: np.ndarray, name: str = "matrix", shape: tuple | None = None):
    """Validate that ``a`` is square (of ``shape`` if given) and Hermitian PSD within the module tolerances.

    Hermitian means to ``HERMITIAN_RTOL`` relative.  A matrix that Cholesky
    factors is accepted as positive definite; only when that fails does an
    ``eigvalsh`` test decide, accepting a smallest eigenvalue down to
    ``-PSD_RTOL`` times the largest (or ``-PSD_RTOL`` when it is below 1).

    Returns ``a`` symmetrized and whether it is positive definite.
    """
    a, factor, eigs, _ = _factor_hermitian_psd(a, name, vectors=False, shape=shape)
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


def _check_betas(betas) -> tuple:
    """The interference power ratios as a tuple of finite nonnegative floats, or :class:`InvalidParameter`."""
    if not np.iterable(betas):
        raise InvalidParameter(f"betas must be a sequence of interference power ratios, got {betas!r}")
    return tuple(check_real("interference power ratio", beta, InvalidParameter, 0.0) for beta in betas)


# A correlated model's Kronecker form: the ``(weight, R_t, R_r)`` terms of r (weight 1), then of each interferer;
# the pilot ``power`` and ``noise_var``, with ``z = power * limit + noise_var * I``; the limit's Spectrum ``source()``.
KroneckerTerms = namedtuple("KroneckerTerms", "terms power noise_var source")


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
    through the two cached factors, or on a correlated model through the
    channel's Kronecker factors (:meth:`draw_channel`) and, without a
    positive-power interferer, the scalar ``sqrt(noise_var)``.

    ``kronecker`` (:class:`KroneckerTerms`) is set by :func:`correlated_model`
    only, whose ``r_cov`` and ``s_cov`` are formed from it on first read.
    :meth:`apply_r` multiplies by ``r_cov = R_t (x) R_r`` through its factors,
    in O(n (n_t + n_r)) per column, and ``z_spectrum`` maps the limit's.  The
    estimators and the tracker ask :meth:`z_operator` for z: a correlated
    model gives its real form ``z_real`` (m x m float64, half of z's bytes)
    or that form's real Cholesky factor ``z_real_factor``, each formed on the
    first estimate that needs it, and forms neither z nor a covariance.  ``kronecker`` is not an
    init field, so ``dataclasses.replace`` gives a densely validated model on
    the dense path, whose operator is z (or ``z_factor``) itself.
    """

    dims: Dims
    h_mean: np.ndarray
    r_cov: np.ndarray
    n_mean: np.ndarray
    s_cov: np.ndarray
    pilot: np.ndarray
    kronecker: KroneckerTerms | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        n, m = self.dims.n, self.dims.m
        h_mean = np.zeros(n, dtype=complex) if self.h_mean is None else check_array("h_mean", self.h_mean, (n,))
        n_mean = np.zeros(m, dtype=complex) if self.n_mean is None else check_array("n_mean", self.n_mean, (m,))
        pilot = check_array("pilot", self.pilot, (self.dims.n_t, self.dims.b))
        r_cov, _ = check_hermitian_psd(self.r_cov, "r_cov", (n, n))
        s_cov, s_definite = check_hermitian_psd(self.s_cov, "s_cov", (m, m))
        if not s_definite:
            raise NotPositiveSemiDefinite("s_cov must be positive definite")
        object.__setattr__(self, "h_mean", h_mean)
        object.__setattr__(self, "n_mean", n_mean)
        object.__setattr__(self, "r_cov", r_cov)
        object.__setattr__(self, "s_cov", s_cov)
        object.__setattr__(self, "pilot", pilot)

    @classmethod
    def _of_kronecker_terms(cls, dims: Dims, pilot, kronecker: KroneckerTerms) -> StatModel:
        """Zero-mean model of :func:`correlated_model`: the one place that skips ``__post_init__``'s checks.

        ``r_cov`` and each interferer covariance are ``np.kron`` of factors
        fixed by validated coefficients (:func:`exp_correlation_matrix`), so
        each is exactly Hermitian and positive definite (its eigenvalues are
        the products of the factors'; Horn & Johnson, Topics in Matrix
        Analysis, Thm 4.2.12).  The identity ``pilot`` scales each entry of
        ``R_i`` by one real scalar (:func:`_pilot_sandwich`), so ``s_cov``,
        ``noise_var * I`` plus the sandwiches weighted by ``beta_i >= 0``, is
        too: the m x m Cholesky, norms and ``hermitize`` copies would change nothing.
        """
        model = object.__new__(cls)
        model.__dict__.update(dims=dims, h_mean=np.zeros(dims.n, dtype=complex), n_mean=np.zeros(dims.m, dtype=complex),
                              pilot=pilot, kronecker=kronecker)
        return model

    def _formed(self, name: str) -> np.ndarray:
        # r_cov or s_cov of a correlated model from its terms, in the order of stat_model_from_pilot on the same
        # covariances, so the bytes are its; s_cov adds each interferer's np.kron(i_t, i_r), formed in one reused
        # buffer and scaled in place as _pilot_sandwich scales it (root * (root * cov), then beta), before the next.
        # The buffer is filled by assignment, then multiplied in place one transmit row at a time: a ufunc over the
        # whole buffer and a broadcast operand holds iterator buffers, one to two m x m arrays at m = 80
        (_, r_t, r_r), *interferers = self.kronecker.terms
        if name == "r_cov":
            return np.kron(r_t, r_r)
        s_cov = self.kronecker.noise_var * np.eye(self.dims.m, dtype=complex)
        term = np.empty((self.dims.n_t, self.dims.n_r) * 2, dtype=complex) if interferers else None
        for beta, i_t, i_r in interferers:
            term[...] = i_t[:, None, :, None]
            for row in term:
                row *= i_r[:, None, :]
            for factor in (self.pilot[0, 0].real, self.pilot[0, 0].real, beta):
                term *= factor
            s_cov += term.reshape(s_cov.shape)
        return s_cov

    def pilot_r_energy(self) -> float:
        """``||pilot_ext r_cov||_F^2``; on a correlated model ``||pilot^T R_t||_F^2 ||R_r||_F^2``, with no n x n array."""
        if self.kronecker is None:
            return float(np.linalg.norm(self.apply_pilot(self.r_cov)) ** 2)
        _, r_t, r_r = self.kronecker.terms[0]
        return float(np.linalg.norm(self.pilot.T @ r_t) ** 2 * np.linalg.norm(r_r) ** 2)

    @property
    def trace_r(self) -> float:
        """trace(r_cov); exactly ``n`` on a correlated model, whose every factor has diagonal ``coeff**0 = 1``."""
        return float(np.trace(self.r_cov).real) if self.kronecker is None else float(self.dims.n)

    def diagonals(self) -> tuple:
        """Real diagonals of ``r_cov``, ``s_cov`` and the interference ``sum_i beta_i R_i`` (None on a dense model).

        Every factor's diagonal is 1, so on a correlated model ``s_cov``'s is
        ``noise_var + sum_i beta_i (sqrt(p) sqrt(p))``, as :meth:`_formed` forms it."""
        if self.kronecker is None:
            return np.diag(self.r_cov).real, np.diag(self.s_cov).real, None
        ones, root, s_diag = np.ones(self.dims.n), math.sqrt(self.kronecker.power), self.kronecker.noise_var
        for beta, *_ in self.kronecker.terms[1:]:
            s_diag += beta * (root * root)
        return ones, s_diag * ones, sum((beta * ones for beta, *_ in self.kronecker.terms[1:]), 0 * ones)

    def s_block_traces(self) -> np.ndarray:
        """(b, b) traces of the (n_r, n_r) blocks of ``s_cov``; ``R_t (x) R_r``'s block (j, k) has ``n_r R_t[j, k]``."""
        b, n_r = self.dims.b, self.dims.n_r
        if self.kronecker is None:
            return np.einsum("jrkr->jk", self.s_cov.reshape(b, n_r, b, n_r))
        traces = self.kronecker.noise_var * n_r * np.eye(b, dtype=complex)
        for beta, i_t, _ in self.kronecker.terms[1:]:
            traces += beta * self.kronecker.power * n_r * i_t
        return traces

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

    def apply_r(self, x: np.ndarray) -> np.ndarray:
        """r_cov @ x for an (n,) vector or an (n, k) block; through its Kronecker factors on a correlated model."""
        if self.kronecker is None:
            return self.r_cov @ x
        return _kronecker_apply(*self.kronecker.terms[0][1:], np.asarray(x))

    def apply_r_pilot_adjoint(self, y: np.ndarray) -> np.ndarray:
        """r_cov @ pilot_ext^H @ y for an (m,) vector or an (m, k) block, the last step of every linear estimate.

        On a correlated model ``r_cov pilot_ext^H = (R_t conj(pilot)) (x) R_r``
        (its pilot is square), so both are one Kronecker apply.
        """
        if self.kronecker is None:
            return self.apply_r(self.apply_pilot_adjoint(y))
        return _kronecker_apply(self._pilot_r_t, self.kronecker.terms[0][2], y)

    @cached_property
    def _pilot_r_t(self) -> np.ndarray:
        return self.kronecker.terms[0][1] @ self.pilot.conj()

    def draw(self, rng: np.random.Generator, count: int):
        """``count`` seeded channel and observation draws ``(h, y)``, of shapes (n, count) and (m, count).

        Draws the channel first (:meth:`draw_channel`), then the disturbance
        ``n_mean + s_factor @ v`` (``v`` standard complex normal), and returns
        ``y = apply_pilot(h) + disturbance``.  A correlated model without a
        positive-power interferer has ``s_cov = noise_var I``, whose Cholesky
        factor is ``sqrt(noise_var) I``, so its disturbance is ``sqrt(noise_var)
        v``, the bytes of the factor's product, and ``s_cov`` is not formed.
        ``count`` is an integer of at least 0, else :class:`InvalidParameter`.
        """
        h = self.draw_channel(rng, count)
        noise = standard_complex_normal(rng, self.dims.m, count)
        if self.kronecker is not None and not any(beta > 0 for beta, *_ in self.kronecker.terms[1:]):
            noise *= math.sqrt(self.kronecker.noise_var)
        else:
            noise = self.s_factor @ noise
        # in place, each sum is the one its operands give in either order
        noise += self.n_mean[:, None]
        noise += self.apply_pilot(h)
        return h, noise

    def draw_channel(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` seeded channel draws ``h = h_mean + L w``, (n, count), for ``w`` standard complex normal.

        ``L`` is the Cholesky factor of ``r_cov``: on a correlated model
        ``chol(R_t) (x) chol(R_r)``, lower triangular with a positive diagonal
        and so the factor itself (Horn & Johnson, Topics in Matrix Analysis,
        Thm 4.2.12), applied through its two factors (:func:`_kronecker_apply`,
        into ``w``'s memory) with no n x n array; on a dense model
        :attr:`r_factor`.  ``count`` is an integer of at least 0, else
        :class:`InvalidParameter`.
        """
        w = standard_complex_normal(rng, self.dims.n, check_integer("count", count, 0, InvalidParameter))
        h = self.r_factor @ w if self.kronecker is None else _kronecker_apply(*self._channel_factors, w, out=w)
        h += self.h_mean[:, None]
        return h

    @cached_property
    def _channel_factors(self) -> tuple:
        # the Cholesky factors of a correlated model's R_t and R_r, which exp_correlation_matrix makes definite
        return tuple(np.linalg.cholesky(factor) for factor in self.kronecker.terms[0][1:])

    def y_mean(self) -> np.ndarray:
        """Mean of the observation, pilot_ext @ h_mean + n_mean (read-only, formed once per model)."""
        return self._y_mean

    @cached_property
    def _y_mean(self) -> np.ndarray:
        y_mean = self.apply_pilot(self.h_mean) + self.n_mean
        y_mean.setflags(write=False)
        return y_mean

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
    def z_real(self) -> np.ndarray:
        """A correlated model's z in real form: the real symmetric S with ``z = K S K^H`` (read-only, m x m float64).

        ``power * S_limit + noise_var * I`` for the real form of the limit
        (:func:`_limit_real_form`), so neither ``z`` nor a covariance is formed.
        """
        _, power, noise_var, _ = self.kronecker
        s = _limit_real_form(self.dims.n_r, [term for term in self.kronecker.terms if term[0] > 0])
        s *= power
        s.flat[:: len(s) + 1] += noise_var
        s.setflags(write=False)
        return s

    @cached_property
    def z_real_factor(self) -> np.ndarray:
        """Lower Cholesky factor of :attr:`z_real` (read-only, Fortran order), for a correlated model's MMSE solves."""
        try:
            factor, _ = scipy.linalg.cho_factor(self.z_real, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("observation covariance is singular") from exc
        factor.setflags(write=False)
        return factor

    def z_operator(self, inverse: bool = False) -> tuple:
        """``(op, into, back)`` with ``back(op @ into(d))`` equal to ``z d``, or ``z^{-1} d`` when ``inverse``.

        ``d`` is a complex (m,) vector or (m, k) block, which ``into`` may
        overwrite.  On a correlated model ``op`` applies :attr:`z_real` (or
        solves against :attr:`z_real_factor`) in real arithmetic, and ``into``
        and ``back`` are ``sqrt(2) K^H`` and ``K / sqrt(2)``, O(mk) each, on
        (m, k) blocks (a vector becomes one column); on a dense model ``op`` is
        ``z`` (or solves against ``z_factor``) and both maps are the identity.
        Nothing is formed until this is called.
        """
        if self.kronecker is None:
            return (_Operator(self.z_factor, _cho_solve) if inverse else self.z), _same, _same
        if inverse:
            return _Operator(self.z_real_factor, _real_solve), _centro_in, _centro_out
        return _Operator(self.z_real, _real_product), _centro_in, _centro_out

    @cached_property
    def z_spectrum(self) -> Spectrum:
        """Spectrum of z, shared by every closed-form MSE and default scaling.

        On a correlated model, ``lam = power * mu + noise_var`` and ``phi =
        power * phi_limit`` of the limit's spectrum, and z is not formed;
        otherwise one MRRR ``eigh`` of z.
        """
        if self.kronecker is not None:
            _, power, noise_var, source = self.kronecker
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
        """Factor L with L @ L^H = r_cov (:func:`psd_factor`, read-only), for a dense model's channel draws."""
        factor = psd_factor(self.r_cov)
        factor.setflags(write=False)
        return factor

    @cached_property
    def s_factor(self) -> np.ndarray:
        """Factor L with L @ L^H = s_cov (:func:`psd_factor`, read-only), for drawing disturbances."""
        factor = psd_factor(self.s_cov)
        factor.setflags(write=False)
        return factor


for _name in ("r_cov", "s_cov"):  # a correlated model's, formed on first read; a dense model's own value wins
    setattr(StatModel, _name, cached_property(partial(StatModel._formed, name=_name)))
    getattr(StatModel, _name).__set_name__(StatModel, _name)


def z_matrix(model: StatModel) -> np.ndarray:
    """Dense observation covariance of ``model``, formed once per model (read-only)."""
    return model.z


def exp_correlation_matrix(dim: int, coeff: complex) -> np.ndarray:
    """Hermitian Toeplitz correlation matrix with entry (i, j) = coeff**(j - i) for j >= i.

    The one place that guarantees a correlation factor, and so the one coefficient rule, which
    :meth:`SpatialCorrelation.validate` applies through it: ``dim`` is an integer of at least 1
    (:class:`EmptyDimension`) and ``coeff`` a finite ``numbers.Complex`` other than ``bool`` with ``|coeff| < 1``
    (:class:`InvalidCorrelation`).  Then each entry below the diagonal is exactly the conjugate of its mirror,
    each diagonal entry exactly ``coeff**0 = 1``, and the eigenvalues lie in
    ``[(1-|c|)/(1+|c|), (1+|c|)/(1-|c|)]`` (Grenander & Szegő, Toeplitz Forms, 1958).
    """
    lags = np.arange(check_integer("dim", dim, 1, EmptyDimension))
    if not isinstance(coeff, numbers.Complex) or isinstance(coeff, bool) or not abs(coeff) < 1.0:  # NaN fails it
        raise InvalidCorrelation(f"correlation coefficients must be finite numbers with |c| < 1, got {coeff!r}")
    offsets = lags[None, :] - lags[:, None]
    powers = complex(coeff) ** np.abs(offsets)
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
    pilot_power = check_real("pilot power", pilot_power, InvalidParameter, 0.0, strict=True)
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


def stat_model_from_pilot(
    dims: Dims,
    h_mean: np.ndarray | None,
    r_cov: np.ndarray,
    n_mean: np.ndarray | None,
    pilot: np.ndarray,
    interferers=(),
    noise_var: float = 1.0,
) -> StatModel:
    """Assemble a StatModel from an arbitrary pilot matrix and the interferers reusing it.

    Each ``(beta, cov)`` pair of ``interferers`` adds ``beta * pilot_ext @ cov
    @ pilot_ext^H`` (:func:`_pilot_sandwich`) to the disturbance covariance,
    and receiver noise adds ``noise_var * I``.
    """
    pilot = check_array("pilot", pilot, (dims.n_t, dims.b))
    interferers = tuple(interferers) if np.iterable(interferers) else (interferers,)  # a lone value is no pair
    if not all(isinstance(pair, tuple | list) and len(pair) == 2 for pair in interferers):
        raise ShapeError(f"each interferer must be a (beta, cov) pair, got {interferers!r}")
    betas = _check_betas([beta for beta, _ in interferers])
    noise_var = check_real("noise variance", noise_var, InvalidParameter, 0.0, strict=True)
    s_cov = noise_var * np.eye(dims.m, dtype=complex)
    for beta, (_, cov) in zip(betas, interferers):
        cov, _ = check_hermitian_psd(cov, "interferer covariance", (dims.n, dims.n))
        s_cov += beta * _pilot_sandwich(pilot, dims.n_r, cov)
    return StatModel(dims=dims, h_mean=h_mean, r_cov=r_cov, n_mean=n_mean, s_cov=s_cov, pilot=pilot)


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

    def validate(self, interferers: int):
        """Raise :class:`InvalidCorrelation` unless these coefficients serve ``interferers`` interfering cells.

        The interferer fields must be tuples of one length, nonzero when
        ``interferers`` is, and every coefficient one that :func:`exp_correlation_matrix` accepts.
        """
        pairs = (self.interferer_tx, self.interferer_rx)
        if not all(isinstance(p, tuple) for p in pairs) or len(pairs[0]) != len(pairs[1]):
            raise InvalidCorrelation(f"interferer_tx and interferer_rx must be tuples of one length, got {pairs!r}")
        if interferers and not pairs[0]:
            raise InvalidCorrelation(f"{interferers} interferers need at least one interferer coefficient pair")
        for coeff in (self.desired_tx, self.desired_rx, *self.interferer_tx, *self.interferer_rx):
            exp_correlation_matrix(1, coeff)  # the one coefficient rule, on a 1 x 1 factor


DEFAULT_CORRELATION = SpatialCorrelation()


def _correlated_terms(dims: Dims, betas: tuple, correlation: SpatialCorrelation) -> list:
    """``(weight, R_t, R_r)`` of r (weight 1), then of each interferer of :func:`correlated_model`:
    interferer ``i`` has weight ``betas[i]`` and the ``i``-th interferer coefficient pair, cyclically.
    The caller has checked both (:meth:`SpatialCorrelation.validate`, which fixes every factor)."""
    pairs = list(zip(correlation.interferer_tx, correlation.interferer_rx))
    terms = [(1.0, correlation.desired_tx, correlation.desired_rx)]
    terms += [(beta, *pairs[i % len(pairs)]) for i, beta in enumerate(betas)]
    return [(w, exp_correlation_matrix(dims.n_t, tx), exp_correlation_matrix(dims.n_r, rx)) for w, tx, rx in terms]


def _kronecker_apply(r_t: np.ndarray, r_r: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(R_t (x) R_r) @ x`` for an (n,) vector or an (n, k) block, in O(n (n_t + n_r) k).

    Viewed as ``(n_t, n_r, k)``, ``x`` is contracted with ``R_r`` per
    transmit block, then with ``R_t`` on the transmit axis.  The view of a
    Fortran-ordered block splits its first axis, so it is not copied either.
    The second product is written into ``out`` if given, a C-contiguous array
    of ``x``'s shape that may be ``x`` itself, which the first has read.
    """
    n_t, n_r = len(r_t), len(r_r)
    rx = np.matmul(r_r, x.reshape(n_t, n_r, -1))
    return np.matmul(r_t, rx.reshape(n_t, -1), out=None if out is None else out.reshape(n_t, -1)).reshape(x.shape)


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
    s = np.empty((top.shape[1],) * 2)
    _centro_rows(s, top, 0)
    return s


def _centro_rows(s: np.ndarray, top: np.ndarray, start: int):
    """Write into ``S`` (:func:`_centro_real_form`) every entry that rows ``start`` on of ``L``'s top rows fix.

    ``top`` holds those rows, a block of the ``n - n // 2`` that determine
    ``L``.  Row ``i < p`` of ``L`` fixes row ``i`` of ``S``'s top half, column
    ``i`` of its bottom-left block, row ``n - 1 - i`` of its bottom-right one
    and, for odd ``n``, the middle entries ``i`` and ``n - 1 - i``; the middle
    row of ``L`` fixes the middle diagonal entry.  Each entry is computed as
    from the whole top, so a form filled block by block is the same bytes.
    """
    n = len(s)
    p = n // 2
    stop = min(start + len(top), p)
    rows, flipped = slice(start, stop), slice(n - 1 - start, n - 1 - stop, -1)
    a, b = top[: stop - start, :p], top[: stop - start, n - p :]
    aj_b = a[:, ::-1] - b
    s[rows, :p] = a.real + b.real[:, ::-1]
    s[rows, n - p :] = -aj_b.imag
    s[n - p :, rows] = s[rows, n - p :].T
    s[flipped, n - p :] = aj_b.real
    if n % 2:
        x = math.sqrt(2.0) * top[: stop - start, p]
        s[rows, p] = s[p, rows] = x.real
        s[flipped, p] = s[p, flipped] = x.imag
        if start + len(top) > p:
            s[p, p] = top[p - start, p].real


def _limit_real_form(n_r: int, terms: list) -> np.ndarray:
    """Real symmetric form (:func:`_centro_real_form`) of ``sum_i w_i R_t,i (x) R_r,i`` over ``(w_i, R_t,i, R_r,i)``.

    The first term is r's, of weight 1.  The centro-Hermitian sum's first
    ``n - n // 2`` rows determine it, and rows ``j n_r`` to ``(j + 1) n_r``
    of ``R_t (x) R_r`` are ``R_t[j] (x) R_r``, the ``(n_r, n_t, n_r)`` outer
    product ``R_t[j, c] R_r[k, l]``, in ``np.kron``'s operand order and so its
    bytes.  The form is filled from one such block of rows at a time, in
    reused buffers, so no complex array of more than ``n_r`` rows is formed.
    """
    (_, r_t, r_r), *interferers = terms
    n_t = len(r_t)
    n = n_t * n_r
    s = np.empty((n, n))
    top = np.empty((n_r, n_t, n_r), dtype=complex)
    term = np.empty_like(top) if interferers else None
    for j in range(-(-(n - n // 2) // n_r)):
        np.multiply(r_t[j][:, None], r_r[:, None, :], out=top)
        for beta, i_t, i_r in interferers:
            top += np.multiply((beta * i_t[j])[:, None], i_r[:, None, :], out=term)
        _centro_rows(s, top.reshape(n_r, n), j * n_r)
    return s


# The maps of a correlated model's z = K S K^H, for the K of _centro_real_form: K = U / sqrt(2) with U = [[I, iJ],
# [J, -iI]] (J reverses the rows) and, for an odd m, a unit middle entry.  _centro_in gives sqrt(2) K^H d and
# _centro_out K x / sqrt(2), so _centro_out(op @ _centro_in(d)) = K op K^H d for the product and the solve alike.
# A block is mapped in place with one half-block copy: at m = 80, 512 columns, a whole-block temporary costs more
# in fresh pages than in arithmetic (0.6 against 0.1 ms per map).  A vector takes two products and a sum instead,
# half the calls (about 5 against 9 us per estimate at m = 80).  Both keep (m, k) blocks, a vector being one
# column, so each real view below is one call: x.view(float), (m, 2k).


@lru_cache(maxsize=4)
def _centro_columns(m: int) -> tuple:
    # (m, 1) columns (a, b, c, e) with _centro_in(d) = a d + b Jd and _centro_out(x) = c x + e Jx (read-only)
    p = m // 2
    columns = np.zeros((4, m), dtype=complex)
    columns[:, :p] = np.array([1, 1, 0.5, 0.5j])[:, None]
    columns[:, m - p :] = np.array([1j, -1j, -0.5j, 0.5])[:, None]
    if m % 2:
        columns[:, p] = (math.sqrt(2.0), 0.0, math.sqrt(0.5), 0.0)
    columns.setflags(write=False)
    return tuple(columns[:, :, None])


def _centro_in(d: np.ndarray) -> np.ndarray:
    """``sqrt(2) K^H d`` for a complex (m,) vector or (m, k) block, as a C-contiguous (m, k) block (a block in
    ``d``'s memory when ``d`` is C-contiguous): top ``d_top + J d_bottom``, bottom ``i (d_bottom - J d_top)``."""
    x = d.reshape(len(d), -1)
    if x.shape[1] == 1:
        a, b, _, _ = _centro_columns(len(x))
        return a * x + b * x[::-1]
    x = np.ascontiguousarray(x)
    p = len(x) // 2
    top, bottom = x[:p], x[len(x) - p :]
    old_top = top.copy()
    top += bottom[::-1]
    bottom -= old_top[::-1]
    bottom *= 1j
    if len(x) % 2:
        x[p] *= math.sqrt(2.0)
    return x


def _centro_out(x: np.ndarray) -> np.ndarray:
    """``K x / sqrt(2)`` for a C-contiguous complex (m, k) block (a block in place): top ``(x_top + i J x_bottom) / 2``,
    bottom ``(J x_top - i x_bottom) / 2``."""
    if x.shape[1] == 1:
        _, _, c, e = _centro_columns(len(x))
        return c * x + e * x[::-1]
    p = len(x) // 2
    top, bottom = x[:p], x[len(x) - p :]
    bottom *= -0.5j
    old_top = 0.5 * top
    np.subtract(old_top, bottom[::-1], out=top)
    bottom += old_top[::-1]
    if len(x) % 2:
        x[p] *= math.sqrt(0.5)
    return x


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


def _real_product(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``S x`` for a real symmetric S and a C-contiguous complex (m, k) block, in real arithmetic; S is never upcast.

    One ``dgemm`` reads the real view, except that a column of at least
    ``SYMV_MIN`` entries has its real and imaginary parts multiplied by
    ``dsymv`` each, which reads one triangle of S.
    """
    if x.shape[1] == 1 and len(x) < SYMV_MIN:
        return np.dot(s, x.view(float)).view(complex)
    out = np.empty(x.shape, dtype=complex)  # owns its data, so numpy may reuse a block as a temporary
    if x.shape[1] == 1:
        for part, result in zip(x.view(float).T, out.view(float).T):
            result[:] = blas.dsymv(1.0, s.T, part)
    else:
        np.matmul(s, x.view(float), out=out.view(float))
    return out


def _real_solve(factor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``S^{-1} x`` for ``S = factor factor^T`` (lower, Fortran order) and a C-contiguous complex (m, k) block.

    A column's real and imaginary parts each take two ``dtrsv``.  A wider
    block is solved in place: its real view, read as the Fortran (2k, m)
    array ``x^T``, takes two right-side ``dtrsm``, to ``x^T L^{-T} L^{-1}``.
    """
    if x.shape[1] == 1:
        out = np.empty(x.shape, dtype=complex)
        for part, result in zip(x.view(float).T, out.view(float).T):
            part = blas.dtrsv(factor, part, lower=1)
            result[:] = blas.dtrsv(factor, part, lower=1, trans=1, overwrite_x=1)
        return out
    rows = x.view(float).T
    blas.dtrsm(1.0, factor, rows, side=1, lower=1, trans_a=1, overwrite_b=1)
    blas.dtrsm(1.0, factor, rows, side=1, lower=1, overwrite_b=1)
    return x


def _cho_solve(factor: tuple, x: np.ndarray) -> np.ndarray:
    # z^{-1} x against a dense model's z_factor; the observation was checked finite at the boundary
    return scipy.linalg.cho_solve(factor, x, check_finite=False)


def _same(x: np.ndarray) -> np.ndarray:
    # a dense model's map into and out of z's coordinates
    return x


class _Operator(namedtuple("_Operator", "matrix apply")):
    """``self @ x`` is ``apply(matrix, x)``: a real form, or a factor to solve against, read as a matrix."""

    __slots__ = ()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(self.matrix, x)


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
    ``||r u_k||^2`` apply ``r`` through its factors (:func:`_kronecker_apply`),
    ``LIMIT_BLOCK`` eigenvectors at a time.  Only the latest
    spectrum is kept (two length-m vectors, read-only), as the experiment
    runner keeps only its latest model.  ``betas`` and ``correlation`` are
    checked before they key the cache, whose ``cache_info`` and
    ``cache_clear`` this function carries.
    """
    betas = _check_betas(betas)
    correlation.validate(len(betas))
    return _limit_spectrum(dims, betas, correlation)


@lru_cache(maxsize=1)
def _limit_spectrum(dims: Dims, betas: tuple, correlation: SpatialCorrelation) -> Spectrum:
    # the spectrum of correlated_limit, for checked arguments
    n = dims.n
    terms = [term for term in _correlated_terms(dims, betas, correlation) if term[0] > 0]
    (_, r_t, r_r), *interferers = terms
    trace_r = float(np.trace(r_t).real * np.trace(r_r).real)
    if not interferers:
        mu = np.sort(np.kron(np.linalg.eigvalsh(r_t), np.linalg.eigvalsh(r_r)))
        phi = mu**2
    else:
        mu, vecs = scipy.linalg.eigh(_limit_real_form(dims.n_r, terms).T, driver="evr", overwrite_a=True)
        # the energies of LIMIT_BLOCK eigenvectors at a time, so no n x n
        # complex array is formed; each is summed along a contiguous row, where
        # numpy sums pairwise, as it did before the blocks
        phi = np.empty(n)
        for j in range(0, n, LIMIT_BLOCK):
            r_vecs = _kronecker_apply(r_t, r_r, _centro_vectors(vecs[:, j : j + LIMIT_BLOCK]))
            phi[j : j + LIMIT_BLOCK] = np.sum(np.abs(r_vecs.T, order="C") ** 2, axis=1)
    # every caller shares the cached arrays
    mu.setflags(write=False)
    phi.setflags(write=False)
    return Spectrum(mu, phi, trace_r)


correlated_limit.cache_info, correlated_limit.cache_clear = _limit_spectrum.cache_info, _limit_spectrum.cache_clear


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
    is not finite and positive).  Interferer ``i`` has power ratio
    ``betas[i]`` and covariance ``R_i``, a Kronecker product of the ``i``-th
    interferer coefficient pair of ``correlation``, taken cyclically.  With the
    identity pilot, ``z = pilot_power * (r + sum_i beta_i R_i) + noise_var *
    I``, so the model's ``z_spectrum`` is read off :func:`correlated_limit`,
    on first use.

    No covariance is checked, factored or formed: the validated coefficients fix every factor
    (:meth:`StatModel._of_kronecker_terms`); ``r_cov`` and ``s_cov``, formed on first read, equal
    :func:`stat_model_from_pilot`'s on the same covariances.  Powers whose product overflows ``s_cov``'s
    diagonal, its largest entry, raise :class:`NotPositiveSemiDefinite`.
    """
    noise_var = check_real("noise variance", noise_var, InvalidParameter, 0.0, strict=True)
    try:  # math.pow overflows with an OverflowError, never with a numpy warning
        pilot_power = noise_var * math.pow(10.0, check_real("gamma_db", gamma_db, InvalidParameter) / 10.0)
    except OverflowError:
        raise InvalidParameter(f"a pilot SNR of {gamma_db} dB overflows the pilot power") from None
    betas = _check_betas(betas)
    correlation.validate(len(betas))
    terms = tuple(_correlated_terms(dims, betas, correlation))
    source = partial(_limit_spectrum, dims, betas, correlation)
    model = StatModel._of_kronecker_terms(dims, identity_pilot(dims, pilot_power),
                                          KroneckerTerms(terms, pilot_power, noise_var, source))
    if not np.isfinite(model.diagonals()[1]).all():
        raise NotPositiveSemiDefinite("s_cov is not finite: the pilot and interference powers overflow")
    return model


def standard_complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Circularly symmetric complex Gaussian entries with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def deviation(model: StatModel, y: np.ndarray) -> np.ndarray:
    """Mean-removed observation d = y - pilot_ext @ h_mean - n_mean of an (m,) observation or an (m, k) block.

    Every estimator and the tracker read observations through it, so a shape other than these raises
    :class:`ShapeError` and a NaN or infinite entry :class:`NonFiniteObservation`, the same for all of them."""
    y = check_array("observation", y)
    if y.ndim not in (1, 2) or y.shape[0] != model.dims.m:
        raise ShapeError(f"expected an ({model.dims.m},) observation or an ({model.dims.m}, k) block, got {y.shape}")
    if not np.isfinite(y).all():
        raise NonFiniteObservation("an observation holds NaN or infinity")
    y_bar = model.y_mean()
    if y.ndim == 2:
        return y - y_bar[:, None]
    return y - y_bar

