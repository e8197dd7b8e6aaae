"""Statistical models for pilot-based MIMO channel estimation.

Builds the second-order statistics of the vectorized observation
``y = pilot_ext @ h + n`` with ``h ~ CN(h_mean, r_cov)`` and
``n ~ CN(n_mean, s_cov)``, including Kronecker-structured spatial
covariances, exponential correlation matrices and pilot-contaminated
disturbance covariances, in two classes.  :class:`StatModel` holds arbitrary
statistics as dense arrays, validated at construction; ``z`` is the pilot
sandwich of ``r_cov`` plus ``s_cov``.  :class:`KroneckerModel`, the correlated
model of the simulations (:func:`correlated_model`), keeps the Kronecker
factors that validated coefficients fix and overrides what they make cheaper.
Its limit ``r + sum_i beta_i R_i`` (:func:`correlated_limit`) is
eigendecomposed once per sweep, in real arithmetic since it is
centro-Hermitian, and the spectrum of ``z`` at each pilot SNR is an affine map
of it.  Its ``z`` is centro-Hermitian too, so its estimates and tracking run on
the real symmetric ``S`` with ``z = K S K^H`` for ``K = K_t (x) K_r``, a sum of
Kronecker products of the factors' real forms (Lee, Linear Algebra Appl. 29,
1980; Van Loan, J. Comput. Appl. Math. 123, 2000), which a large model with
few terms applies term by term without forming ``S``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
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
# Columns per block in which correlated_limit applies r's real form to its eigenvectors.
LIMIT_BLOCK = 256
# Length from which a correlated model with at most m / (2 (n_t + n_r)) terms applies S through its factors' real
# forms (about 5x for a vector, 1.6-2.2x for a 512-column block at m = 1000 with three terms); below it the one dgemm
# on the real view wins (one OpenBLAS thread, m = 80 with three terms: the factored product is 4x slower for a vector
# and 2-4x slower for a 512-column block).
FACTORED_MIN = 500


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


@dataclass(frozen=True)
class StatModel:
    """Full second-order statistics of the channel and disturbance, held as dense arrays.

    Fields
    ------
    dims : Dims
    h_mean : (n,) channel mean
    r_cov : (n, n) channel covariance, Hermitian PSD
    n_mean : (m,) disturbance mean
    s_cov : (m, m) disturbance covariance, Hermitian positive definite
    pilot : (n_t, b) pilot matrix

    Every covariance is validated densely at construction.  The extended
    pilot ``pilot_ext = pilot.T (x) I_{n_r}`` is not stored: :meth:`apply_pilot`
    and :meth:`apply_pilot_adjoint` apply it in O(m * n_t) per vector, and the
    ``pilot_ext`` property forms it for the analysis-side oracles.  A model is
    never mutated after construction, so what is derived from it (``z``,
    ``z_factor``, ``z_spectrum``, ``r_factor``, ``s_factor``) is computed once,
    on first use.  :meth:`draw` is the one sampler of ``(h, y)`` pairs, and
    :meth:`z_operator` gives the estimators and the tracker ``z``.
    """

    dims: Dims
    h_mean: np.ndarray
    r_cov: np.ndarray
    n_mean: np.ndarray
    s_cov: np.ndarray
    pilot: np.ndarray

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

    def pilot_r_energy(self) -> float:
        """``||pilot_ext r_cov||_F^2``."""
        return float(np.linalg.norm(self.apply_pilot(self.r_cov)) ** 2)

    @property
    def trace_r(self) -> float:
        """trace(r_cov)."""
        return float(np.trace(self.r_cov).real)

    def diagonals(self) -> tuple:
        """Real diagonals of ``r_cov``, ``s_cov`` and the interference ``sum_i beta_i R_i`` (None: not kept apart)."""
        return np.diag(self.r_cov).real, np.diag(self.s_cov).real, None

    def s_block_traces(self) -> np.ndarray:
        """(b, b) traces of the (n_r, n_r) blocks of ``s_cov``."""
        b, n_r = self.dims.b, self.dims.n_r
        return np.einsum("jrkr->jk", self.s_cov.reshape(b, n_r, b, n_r))

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
        """r_cov @ x for an (n,) vector or an (n, k) block."""
        return self.r_cov @ x

    def apply_r_pilot_adjoint(self, y: np.ndarray) -> np.ndarray:
        """r_cov @ pilot_ext^H @ y for an (m,) vector or an (m, k) block, the last step of every linear estimate."""
        return self.apply_r(self.apply_pilot_adjoint(y))

    def draw(self, rng: np.random.Generator, count: int):
        """``count`` seeded channel and observation draws ``(h, y)``, of shapes (n, count) and (m, count).

        Draws the channel first (:meth:`draw_channel`), then the disturbance
        ``n_mean + L v`` for ``v`` standard complex normal and the factor ``L =
        s_factor``, and returns ``y = apply_pilot(h) + disturbance``.
        ``count`` is an integer of at least 0, else :class:`InvalidParameter`.
        """
        h = self.draw_channel(rng, count)
        noise = self._disturbance(standard_complex_normal(rng, self.dims.m, count))
        # in place, each sum is the one its operands give in either order
        noise += self.n_mean[:, None]
        noise += self.apply_pilot(h)
        return h, noise

    def draw_channel(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` seeded channel draws ``h = h_mean + L w``, (n, count), for ``w`` standard complex normal.

        ``L`` is the factor :attr:`r_factor`.  ``count`` is an integer of at
        least 0, else :class:`InvalidParameter`.
        """
        w = standard_complex_normal(rng, self.dims.n, check_integer("count", count, 0, InvalidParameter))
        h = self._channel(w)
        h += self.h_mean[:, None]
        return h

    def _channel(self, w: np.ndarray) -> np.ndarray:
        # the channel's deviation from its mean, L w for a factor L of r_cov
        return self.r_factor @ w

    def _disturbance(self, v: np.ndarray) -> np.ndarray:
        # the disturbance's deviation from its mean, L v for a factor L of s_cov
        return self.s_factor @ v

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

    def z_operator(self, inverse: bool = False) -> tuple:
        """``(op, into, head, scale)``: ``head(op(into(d)))`` is ``r_cov pilot_ext^H z d`` (``z^{-1} d`` if ``inverse``).

        ``d`` is a complex (m,) vector or (m, k) block, which ``into`` may
        overwrite, and ``Re(into(f)^H op^j into(d)) * scale = Re(f^H z^j d)``.
        Here ``op`` is one kernel bound to its array: it multiplies by ``z``,
        and ``op(x, out, scale)`` accumulates ``out + scale z x`` into ``out``,
        or it solves against ``z_factor``; ``into`` is the identity, ``head``
        :meth:`apply_r_pilot_adjoint` and ``scale`` 1; nothing is formed until
        this is called.
        """
        if inverse:  # the observation was checked finite at the boundary
            op = partial(scipy.linalg.cho_solve, self.z_factor, check_finite=False)
        else:
            op = partial(_dense_product, self.z)
        return op, _same, self.apply_r_pilot_adjoint, 1.0

    @cached_property
    def z_spectrum(self) -> Spectrum:
        """Spectrum of z, from one MRRR ``eigh``, for every closed-form MSE and default scaling (:func:`_definite`)."""
        lam, vecs = scipy.linalg.eigh(self.z, driver="evr")
        # formed after eigh, so the (n, m) channel and eigh's workspace never coexist
        channel = self.apply_pilot(self.r_cov).conj().T
        return _definite(Spectrum(lam, Spectrum.energies(channel, vecs), self.trace_r))

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


@dataclass(frozen=True, init=False)  # frozen in its own attributes too
class KroneckerModel(StatModel):
    """The zero-mean correlated model of :func:`correlated_model`, kept in its Kronecker factors.

    ``terms`` lists the ``(weight, R_t, R_r)`` of r (weight 1), then of each
    interferer, and ``z = power * (r + sum_i beta_i R_i) + noise_var * I`` for
    the identity ``pilot``; ``source()`` is the limit's :class:`Spectrum`.
    ``r_cov`` and ``s_cov`` are formed on first read, with the bytes
    :func:`stat_model_from_pilot` gives them; the overrides form neither.
    :meth:`z_operator` gives the real form ``z_real = K^H z K``, ``K = K_t (x)
    K_r`` (m x m float64), or its real Cholesky factor ``z_real_factor``; from
    ``FACTORED_MIN`` entries, with few enough terms, it applies that form through
    the factors' real forms, and only MMSE's factor forms ``z_real``.

    Its constructor skips :class:`StatModel`'s checks: each covariance is
    ``np.kron`` of factors fixed by validated coefficients
    (:func:`exp_correlation_matrix`), so exactly Hermitian and positive
    definite (Horn & Johnson, Topics in Matrix Analysis, Thm 4.2.12), and the
    identity pilot scales each entry by one real scalar, so ``s_cov`` is too.
    Called with fields by name, as ``dataclasses.replace`` calls it, it
    returns the densely validated :class:`StatModel` of those fields.
    """

    def __new__(cls, *args, **fields):
        return StatModel(**fields) if fields else super().__new__(cls)

    def __init__(self, dims: Dims, pilot: np.ndarray, terms: tuple, power: float, noise_var: float, source):
        self.__dict__.update(dims=dims, h_mean=np.zeros(dims.n, dtype=complex), n_mean=np.zeros(dims.m, dtype=complex),
                             pilot=pilot, terms=terms, power=power, noise_var=noise_var, source=source)

    @cached_property
    def r_cov(self) -> np.ndarray:
        """``R_t (x) R_r``, formed on first read."""
        _, r_t, r_r = self.terms[0]
        return np.kron(r_t, r_r)

    @cached_property
    def s_cov(self) -> np.ndarray:
        """``noise_var * I`` plus the interferers' sandwiches, formed on first read."""
        # in the order of stat_model_from_pilot; each interferer's np.kron(i_t, i_r) is formed in one reused buffer
        # and scaled in place as _pilot_sandwich scales it (root * (root * cov), then beta), before the next.  The
        # buffer is filled by assignment, then multiplied in place one transmit row at a time: a ufunc over the whole
        # buffer and a broadcast operand holds iterator buffers, one to two m x m arrays at m = 80
        s_cov = self.noise_var * np.eye(self.dims.m, dtype=complex)
        interferers = self.terms[1:]
        term = np.empty((self.dims.n_t, self.dims.n_r) * 2, dtype=complex) if interferers else None
        for beta, i_t, i_r in interferers:
            term[...] = i_t[:, None, :, None]
            for row in term:
                row *= i_r[:, None, :]
            for factor in (self.pilot[0, 0].real, self.pilot[0, 0].real, beta):
                term *= factor
            s_cov += term.reshape(s_cov.shape)
        return s_cov

    @property
    def _interfered(self) -> bool:
        # whether an interferer has positive power; without one s_cov is noise_var * I
        return any(beta > 0 for beta, *_ in self.terms[1:])

    def pilot_r_energy(self) -> float:
        """``||pilot^T R_t||_F^2 ||R_r||_F^2``, with no n x n array."""
        _, r_t, r_r = self.terms[0]
        return float(np.linalg.norm(self.pilot.T @ r_t) ** 2 * np.linalg.norm(r_r) ** 2)

    @property
    def trace_r(self) -> float:
        """Exactly ``n``: every factor has diagonal ``coeff**0 = 1``."""
        return float(self.dims.n)

    def diagonals(self) -> tuple:
        """Every factor's diagonal is 1, so ``s_cov``'s is ``noise_var + sum_i beta_i (sqrt(p) sqrt(p))``, as formed."""
        ones, root, s_diag = np.ones(self.dims.n), math.sqrt(self.power), self.noise_var
        for beta, *_ in self.terms[1:]:
            s_diag += beta * (root * root)
        return ones, s_diag * ones, sum((beta * ones for beta, *_ in self.terms[1:]), 0 * ones)

    def s_block_traces(self) -> np.ndarray:
        """:meth:`StatModel.s_block_traces` from the factors: ``R_t (x) R_r``'s block (j, k) has ``n_r R_t[j, k]``."""
        n_r = self.dims.n_r
        traces = self.noise_var * n_r * np.eye(self.dims.b, dtype=complex)
        for beta, i_t, _ in self.terms[1:]:
            traces += beta * self.power * n_r * i_t
        return traces

    def apply_r(self, x: np.ndarray) -> np.ndarray:
        """r_cov @ x through the Kronecker factors of ``r_cov``."""
        return _kronecker_apply(*self.terms[0][1:], np.asarray(x))

    def _channel(self, w: np.ndarray) -> np.ndarray:
        # chol(R_t) (x) chol(R_r) w, into w's memory: that product is lower triangular with a positive diagonal, so
        # it is the Cholesky factor of r_cov (Horn & Johnson, Topics in Matrix Analysis, Thm 4.2.12)
        return _kronecker_apply(*self._channel_factors, w, out=w)

    @cached_property
    def _channel_factors(self) -> tuple:
        # the Cholesky factors of R_t and R_r, which exp_correlation_matrix makes definite
        return tuple(np.linalg.cholesky(factor) for factor in self.terms[0][1:])

    def _disturbance(self, v: np.ndarray) -> np.ndarray:
        # without a positive-power interferer s_cov = noise_var I, whose Cholesky factor sqrt(noise_var) I gives
        # these bytes, and s_cov is not formed
        if self._interfered:
            return super()._disturbance(v)
        v *= math.sqrt(self.noise_var)
        return v

    def observation_covariance(self, r_cov: np.ndarray) -> np.ndarray:
        """:meth:`StatModel.observation_covariance`; without a positive-power interferer ``noise_var`` is added on
        the sandwich's diagonal, the sum ``s_cov = noise_var * I`` gives there, and ``s_cov`` is not formed."""
        if self._interfered:
            return super().observation_covariance(r_cov)
        z = _pilot_sandwich(self.pilot, self.dims.n_r, r_cov)
        z.flat[:: len(z) + 1] += self.noise_var
        return z

    @cached_property
    def z_real(self) -> np.ndarray:
        """The real symmetric S with ``z = K S K^H`` (read-only, m x m float64), ``power * S_limit + noise_var * I``
        for the limit's real form (:func:`_limit_real_form`), so neither ``z`` nor a covariance is formed."""
        s = self._real_form()
        s.setflags(write=False)
        return s

    def _real_form(self) -> np.ndarray:
        # a fresh, writable z_real
        s = _limit_real_form([term for term in self.terms if term[0] > 0])
        s *= self.power
        s.flat[:: len(s) + 1] += self.noise_var
        return s

    @cached_property
    def z_real_factor(self) -> np.ndarray:
        """Lower Cholesky factor of :attr:`z_real` (read-only, Fortran order), for MMSE solves.  Where the product
        does not read :attr:`z_real` (:meth:`z_operator`), a fresh form is factored in place and none is kept."""
        # S is exactly symmetric, so its transpose is its Fortran-ordered view, which LAPACK can overwrite
        s = (self._real_form() if self._factored else self.z_real).T
        try:
            factor, _ = scipy.linalg.cho_factor(s, lower=True, overwrite_a=self._factored, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("observation covariance is singular") from exc
        factor.setflags(write=False)
        return factor

    def z_operator(self, inverse: bool = False) -> tuple:
        """``op`` applies :attr:`z_real` (or solves against :attr:`z_real_factor`), ``into`` is ``2 K^H`` in O(mk)
        (:func:`_centro_in`), ``head`` is ``r_cov pilot_ext^H K / 2``, one Kronecker apply, and ``scale`` is 1/4,
        since ``into`` multiplies inner products by 4.  From ``FACTORED_MIN`` entries, when the terms of positive weight
        number at most ``m / (2 (n_t + n_r))``, ``op`` applies ``S`` through the factors' real forms
        (:func:`_factored_product`) and :attr:`z_real` is not formed: per real column each term costs
        ``m (n_t + n_r)`` multiply-adds against the dense form's ``m^2``, so the rule asks for at most half.  Either
        product also accumulates a Horner step, ``op(x, out, scale)``."""
        if inverse:
            op = partial(_real_solve, self.z_real_factor)
        elif self._factored:
            op = partial(_factored_product, self._z_factors)
        else:
            op = partial(_real_product, self.z_real)
        return (op, *self._maps, 0.25)

    @property
    def _factored(self) -> bool:
        # z_operator's rule: whether the product applies S through the factors' real forms, never reading z_real
        dims = self.dims
        return dims.m >= FACTORED_MIN and len(self._z_factors[1]) * (dims.n_t + dims.n_r) <= dims.m / 2

    @cached_property
    def _z_factors(self) -> tuple:
        # (noise_var, ((power w_i S_t,i, S_r,i), ...)) over the terms of positive weight, whose Kronecker sum plus
        # noise_var I is z_real: the factors' real forms, a few (n_t^2 + n_r^2) floats
        factors = [(self.power * w * _real_form(r_t)[0], _real_form(r_r)[0]) for w, r_t, r_r in self.terms if w > 0]
        return self.noise_var, tuple(factors)

    @cached_property
    def _maps(self) -> tuple:
        # into and head: r_cov pilot_ext^H K / 2 = (R_t conj(pilot) K_t / 2) (x) (R_r K_r)
        _, r_t, r_r = self.terms[0]
        head = (r_t @ self.pilot.conj() @ _real_form(r_t)[1] / 2, r_r @ _real_form(r_r)[1])
        return partial(_centro_in, self.dims.n_r), partial(_kronecker_apply, *head)

    @cached_property
    def z_spectrum(self) -> Spectrum:
        """``lam = power * mu + noise_var`` and ``phi = power * phi_limit`` of the limit's spectrum; z is not formed."""
        mu = self.source()
        return _definite(Spectrum(self.power * mu.lam + self.noise_var, self.power * mu.phi, mu.trace_r))


def _definite(spectrum: Spectrum) -> Spectrum:
    # the spectrum of z, or NotPositiveDefinite unless every eigenvalue is positive
    if spectrum.lam[0] <= 0:
        raise NotPositiveDefinite("observation covariance must be positive definite")
    return spectrum


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
    The caller has checked both (:meth:`SpatialCorrelation.validate`, which fixes every factor).  ``dims`` whose
    m x m complex array exceeds numpy's size limit raise :class:`ShapeError` here, before anything is allocated."""
    if 16 * dims.m**2 > np.iinfo(np.intp).max:  # 16 bytes per complex entry
        raise ShapeError(f"a model with n_r={dims.n_r} and n_t={dims.n_t} needs m x m arrays beyond numpy's size limit")
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


def _real_form(r: np.ndarray) -> tuple:
    """``(S, K)`` for a Hermitian Toeplitz, so centro-Hermitian, factor ``R``: ``S = Re(K^H R K)``, symmetrized to be
    exactly symmetric, for the unitary ``K = [[I, iJ], [J, -iI]] / sqrt(2)`` (a middle unit column for an odd order,
    ``J`` the exchange matrix), read off :func:`_centro_butterfly` on the identity.  ``conj(K) = J K``, so ``K^H R K``
    is real (Lee, Linear Algebra Appl. 29, 1980)."""
    k = _centro_butterfly(np.eye(len(r), dtype=complex)).conj().T / math.sqrt(2.0)
    s = (k.conj().T @ r @ k).real
    return (s + s.T) / 2, k


def _limit_real_form(terms: list) -> np.ndarray:
    """Real symmetric form ``sum_i w_i S_t,i (x) S_r,i`` of ``sum_i w_i R_t,i (x) R_r,i`` over ``(w_i, R_t,i, R_r,i)``.

    The first term is r's, of weight 1.  For ``K = K_t (x) K_r``, ``K^H (R_t (x)
    R_r) K = S_t (x) S_r`` (:func:`_real_form`; Van Loan, J. Comput. Appl. Math.
    123, 2000), exactly symmetric since each ``S`` is.  It is filled one
    transmit row, ``S_t[j, c] S_r[k, l]`` over ``(k, c, l)``, at a time: one
    ufunc over the whole array holds iterator buffers of one to two m x m arrays.
    """
    (_, s_t, s_r), *interferers = [(w, _real_form(r_t)[0], _real_form(r_r)[0]) for w, r_t, r_r in terms]
    n_t, n_r = len(s_t), len(s_r)
    s = np.empty((n_t, n_r, n_t, n_r))
    term = np.empty((n_r, n_t, n_r)) if interferers else None
    for j, row in enumerate(s):
        np.multiply(s_t[j][:, None], s_r[:, None, :], out=row)
        for beta, i_t, i_r in interferers:
            row += np.multiply((beta * i_t[j])[:, None], i_r[:, None, :], out=term)
    return s.reshape(n_t * n_r, -1)


# The map into a correlated model's z = K S K^H, K = K_t (x) K_r: _centro_in gives 2 K^H d, and the head applies
# r_cov pilot_ext^H K / 2 (KroneckerModel._maps), for the product and the solve alike.  A block, a vector being one
# column, is mapped in place with one half-block copy per axis: at m = 80, 512 columns, a whole-block temporary costs
# more in fresh pages than in arithmetic (0.6 against 0.1 ms per map).  It keeps (m, k) blocks, so each real view
# below is one call: x.view(float), (m, 2k).


def _centro_butterfly(x: np.ndarray) -> np.ndarray:
    """``sqrt(2) K^H x`` along the first axis of ``x``, in place: top ``x_top + J x_bottom``, bottom
    ``i (x_bottom - J x_top)`` and, for an odd length, ``sqrt(2)`` times the middle."""
    p = len(x) // 2
    top, bottom = x[:p], x[len(x) - p :]
    old_top = top.copy()
    top += bottom[::-1]
    bottom -= old_top[::-1]
    bottom *= 1j
    if len(x) % 2:
        x[p] *= math.sqrt(2.0)
    return x


def _centro_in(n_r: int, d: np.ndarray) -> np.ndarray:
    """``2 K^H d`` for a complex (m,) vector or (m, k) block, as a C-contiguous (m, k) block (in ``d``'s memory when
    ``d`` is C-contiguous): the butterfly along the transmit axis, then along the receive axis, of its
    ``(m / n_r, n_r, k)`` view."""
    x = np.ascontiguousarray(d.reshape(len(d), -1))
    blocks = x.reshape(len(x) // n_r, n_r, x.shape[1])
    _centro_butterfly(blocks)
    _centro_butterfly(blocks.swapaxes(0, 1))
    return x


def _real_product(s: np.ndarray, x: np.ndarray, out: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
    """``S x`` for a real symmetric S and a C-contiguous complex (m, k) block, in real arithmetic; S is never upcast.
    Given a C-contiguous ``out`` of ``x``'s shape, ``out + scale S x`` is accumulated into ``out`` (BLAS ``beta = 1``).

    One ``dgemm`` whatever the width, a vector being one column, reads the real view as ``x^T S^T`` in Fortran
    order (f2py would copy a C-ordered S on every call).
    """
    beta, out = (0.0, np.empty(x.shape, dtype=complex)) if out is None else (1.0, out)
    if x.size:  # the BLAS wrapper rejects an empty block
        blas.dgemm(scale, x.view(float).T, s.T, beta, out.view(float).T, overwrite_c=1)
    return out


def _factored_product(form: tuple, x: np.ndarray, out: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
    """``S x`` for ``S = noise_var I + sum_i A_t,i (x) A_r,i``, ``form = (noise_var, ((A_t,i, A_r,i), ...))`` with
    real symmetric factors, and a C-contiguous complex (m, k) block, in real arithmetic on its ``(n_t, n_r, 2k)``
    real view; given ``out``, as :func:`_real_product`, ``out + scale S x`` is accumulated into it.  Per term,
    ``A_r,i`` is applied per transmit block into one reused block, and ``A_t,i`` on the transmit axis by one
    ``dgemm`` that adds into the output, so the product holds two blocks whatever the number of terms: each fresh
    block costs more in new pages than a term's transmit product.  An accumulated ``noise_var x`` is one ``daxpy``."""
    noise_var, factors = form
    if not x.size:  # the BLAS wrappers reject an empty block
        return np.empty(x.shape, dtype=complex) if out is None else out
    real = x.view(float)
    if out is None:
        out = np.empty(x.shape, dtype=complex)
        np.multiply(real, noise_var, out=out.view(float))
    else:
        blas.daxpy(real.ravel(), out.view(float).ravel(), a=scale * noise_var)
    result, rx = out.view(float), np.empty(real.shape)
    for a_t, a_r in factors:
        n_t = len(a_t)
        np.matmul(a_r, real.reshape(n_t, len(a_r), -1), out=rx.reshape(n_t, len(a_r), -1))
        # result += scale A_t rx on the (n_t, n_r 2k) views, in Fortran order result^T += scale rx^T A_t^T
        blas.dgemm(scale, rx.reshape(n_t, -1).T, a_t.T, 1.0, result.reshape(n_t, -1).T, overwrite_c=1)
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


def _dense_product(z: np.ndarray, x: np.ndarray, out: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
    # z x against a dense model's complex z; given out, out + scale z x is accumulated into it
    return z @ x if out is None else np.add(out, scale * (z @ x), out=out)


def _same(x: np.ndarray) -> np.ndarray:
    # a dense model's map into z's coordinates
    return x


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
    limit is centro-Hermitian too.  ``K = K_t (x) K_r`` takes it to the real
    symmetric ``sum_i w_i S_t,i (x) S_r,i`` of the factors' real forms (Lee,
    Linear Algebra Appl. 29, 1980; Hill, Bates & Waters, SIAM J. Matrix Anal.
    Appl. 11, 1990; :func:`_limit_real_form`), which one real MRRR ``eigh``
    (``dsyevr``) decomposes.  For its eigenvector ``v`` the limit's is
    ``K v``, and the energy ``||r K v||^2 = ||(S_t (x) S_r) v||^2`` is taken
    in real arithmetic (:func:`_kronecker_apply`), ``LIMIT_BLOCK``
    eigenvectors at a time, so no complex n x n array is formed.  Only the latest
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
        mu, vecs = scipy.linalg.eigh(_limit_real_form(terms).T, driver="evr", overwrite_a=True)
        # ||r K v|| = ||(S_t (x) S_r) v|| for the limit's eigenvector K v, in real arithmetic, LIMIT_BLOCK
        # eigenvectors at a time; each is summed along a contiguous row, where numpy sums pairwise
        s_t, s_r = _real_form(r_t)[0], _real_form(r_r)[0]
        phi = np.empty(n)
        for j in range(0, n, LIMIT_BLOCK):
            r_vecs = _kronecker_apply(s_t, s_r, vecs[:, j : j + LIMIT_BLOCK])
            phi[j : j + LIMIT_BLOCK] = np.sum(np.square(r_vecs.T, order="C"), axis=1)
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
) -> KroneckerModel:
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
    (:class:`KroneckerModel`), and dimensions too large for an m x m array raise :class:`ShapeError`;
    ``r_cov`` and ``s_cov``, formed on first read, equal :func:`stat_model_from_pilot`'s on the same covariances.
    Powers whose product overflows ``s_cov``'s diagonal, its largest entry, raise :class:`NotPositiveSemiDefinite`.
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
    model = KroneckerModel(dims, identity_pilot(dims, pilot_power), terms, pilot_power, noise_var, source)
    if not np.isfinite(model.diagonals()[1]).all():
        raise NotPositiveSemiDefinite("s_cov is not finite: the pilot and interference powers overflow")
    return model


def standard_complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Circularly symmetric complex Gaussian entries with unit variance, real parts drawn first.

    Filled in place, so it peaks at one real draw above the array it returns.
    The in-place division is the complex one of ``(a + 1j * b) / sqrt(2)``, so
    the bytes are that expression's.
    """
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= np.sqrt(2.0)
    return out


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

