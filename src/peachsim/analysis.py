"""Closed-form asymptotics and computational cost models.

High-power MSE floors of the five estimators (noise-limited and
pilot-contaminated regimes, one :class:`Floors` record) on the spectrum of
the limit matrix, which :func:`peachsim.model.correlated_limit` computes once
per sweep; exact FLOP counts over a total operating time, and the dimension
thresholds above which the polynomial estimators are cheaper than exact MMSE.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, SingularLimit, UnsupportedEstimator, check_array, check_real
from .estimators import NAMES, _peach_on, _wpeach_on
from .model import Dims
from .spectrum import Spectrum, check_degree


@dataclass(frozen=True)
class FlopModel:
    """Stationarity and coherence parameters of the FLOP cost model.

    ``q_ratio = tau_s / tau_c`` counts channel realizations per statistics
    coherence time; ``k_s`` and ``k_c`` count how many times the per-epoch and
    per-realization parts run within ``t_tot`` seconds.  Each time is a
    positive real, stored as ``float``, and finite except ``tau_c``, whose
    infinity freezes the channel; anything else raises :class:`InvalidParameter`.
    """

    dims: Dims
    tau_s: float
    tau_c: float
    t_tot: float

    def __post_init__(self):
        for name in ("tau_s", "tau_c", "t_tot"):
            time = check_real(name, getattr(self, name), InvalidParameter, 0.0, strict=True, finite=name != "tau_c")
            object.__setattr__(self, name, time)

    @property
    def q_ratio(self) -> float:
        return self.tau_s / self.tau_c

    @property
    def k_s(self) -> float:
        return self.t_tot / self.tau_s

    @property
    def k_c(self) -> float:
        return self.t_tot / self.tau_c


def flops(kind: str, fm: FlopModel, degree: int | None = None) -> float:
    """Exact complex-valued FLOP count of an estimator over ``fm.t_tot``.

    ``kind`` is one of ``mmse``, ``mvu``, ``peach``, ``wpeach``; the
    polynomial kinds require ``degree``.  Counts are a cost model evaluated in
    floating point, not an integer ledger; one beyond the float range raises
    :class:`InvalidParameter`.
    """
    return _finite(lambda: _flops(kind, fm, degree), f"{kind} FLOP count")


def _finite(count, what: str) -> float:
    # count(), or InvalidParameter where it, or a number it reads, overflows the float range
    try:
        value = count()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParameter(f"the {what} is not finite: its inputs overflow the float range")
    return value


def _flops(kind: str, fm: FlopModel, degree: int | None) -> float:
    # the count of flops, in floating point
    m, n = float(fm.dims.m), float(fm.dims.n)
    k_c, k_s = fm.k_c, fm.k_s
    if kind == "mmse":
        return k_c * (n * (2 * m - 1)) + k_s * (
            m**3 / 3 + (3 * n - 0.5) * m**2 + (2 * n**2 + 2 * n - 1.5) * m
        )
    if kind == "mvu":
        return k_c * (n * (2 * m - 1)) + k_s * (
            m**3 / 3 + 2 * n * m**2 + (3 * n**2 + n) * m + n**3 / 3 - 0.5 * n**2 - 0.5 * n
        )
    if kind in ("peach", "wpeach"):
        if degree is None:
            raise UnsupportedEstimator(f"{kind} FLOP count requires a polynomial degree")
        ell = float(check_degree(degree))
        if kind == "peach":
            per_real = 2 * ell * m**2 + ((4 * ell + 2) * n - 2 * ell) * m + 2 * (ell + 1) * n**2 - 2 * (ell + 1) * n
        else:
            per_real = (
                4 * ell * m**2
                + (8 * ell + 4) * m * n
                + (4 * ell + 4) * n**2
                + m
                - (4 * ell + 3) * n
                + ell**3 / 3
                + 3 * ell**2
                + 3 * ell
                + 4 / 3
            )
        return k_c * per_real + k_s * (m * (2 * n - 1))
    raise UnsupportedEstimator(f"unknown estimator kind {kind!r}")


def crossover_m(kind: str, q: float, degree: int) -> float:
    """Dimension threshold above which the polynomial estimator beats MMSE in FLOPs.

    Dominant-term comparison with m = n: q (3 L / 2 + 3 / 8) for the
    unweighted kind and q (3 L + 9 / 8) for the weighted one.  Returned as a
    real threshold; consumers apply the ceiling.
    """
    q = check_real("q", q, InvalidParameter, 0.0)
    degree = check_degree(degree)
    if kind not in ("peach", "wpeach"):
        raise UnsupportedEstimator(f"no crossover threshold for kind {kind!r}")
    slope, offset = (1.5, 0.375) if kind == "peach" else (3.0, 1.125)
    return _finite(lambda: q * (slope * degree + offset), "crossover threshold")


Floors = namedtuple("Floors", NAMES)
Floors.__doc__ = "High-power MSE floors, one field per estimator of :data:`peachsim.estimators.NAMES`, in that order."


def _polynomial_floors(limit: Spectrum, degree: int) -> dict:
    # make_peach's and make_wpeach's default filters on the limit spectrum, scored as they are applied
    if limit.lam[-1] + limit.lam[0] <= 0:
        raise SingularLimit("limit matrix must have positive extreme-eigenvalue sum")
    rules = {"peach": _peach_on, "wpeach": _wpeach_on}
    return {name: limit.mse(rule(limit, degree).values(limit.lam)) for name, rule in rules.items()}


def floor_noise_limited(limit: Spectrum, degree: int) -> Floors:
    """High-power MSE floors without interference.

    The exact estimators' floors are 0.0; the polynomial ones saturate at
    values set entirely by the channel covariance and the degree.  ``limit``
    is the spectrum of r_cov with the channel r_cov, so phi_k = lam_k^2
    (:func:`peachsim.model.correlated_limit` without interferers).
    """
    return Floors(mmse=0.0, mvu=0.0, diagonalized=0.0, **_polynomial_floors(limit, degree))


def floor_contaminated(limit: Spectrum, r_diag: np.ndarray, s_diag: np.ndarray, degree: int) -> Floors:
    """High-power MSE floors of all estimators under pilot contamination, for the identity pilot.

    All floors depend only on the channel and interference covariances, not
    the pilot or noise power.  The MMSE, PEACH and W-PEACH floors come from
    ``limit``, the spectrum of r_cov + sum_interf with the channel r_cov
    (:func:`peachsim.model.correlated_limit`), where ``sum_interf`` is the
    summed interferer covariance, power ratios applied.  The MVU floor,
    trace(sum_interf), and the diagonalized one read only the real parts of the
    diagonals ``r_diag`` of r_cov and ``s_diag`` of sum_interf, length-n
    vectors (:class:`ShapeError`).
    """
    if limit.lam[0] <= 1e-14 * max(limit.lam[-1], 1.0):
        raise SingularLimit("r_cov + sum_interf must be nonsingular")
    r_diag = check_array("r_diag", r_diag, limit.lam.shape).real
    s_diag = check_array("s_diag", s_diag, limit.lam.shape).real
    denom = r_diag + s_diag
    ratio = np.divide(r_diag**2, denom, out=np.zeros_like(denom), where=denom > 0)
    return Floors(
        mmse=limit.mmse(),
        mvu=float(np.sum(s_diag)),
        diagonalized=float(np.sum(r_diag) - np.sum(ratio)),
        **_polynomial_floors(limit, degree),
    )
