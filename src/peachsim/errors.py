"""Exception and warning types shared across the package, and the checks of outside values that raise them."""

import math
import numbers

import numpy as np


class PeachSimError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PeachSimError, ValueError):
    """A vector or matrix is not numeric, or has dimensions incompatible with the model."""


class EmptyDimension(PeachSimError, ValueError):
    """A dimension is not an integer of at least 1."""


class InvalidCorrelation(PeachSimError, ValueError):
    """A correlation coefficient is not a finite complex number of magnitude below one, or the interferer ones do not pair up."""


class PilotShapeMismatch(PeachSimError, ValueError):
    """Identity pilots require the pilot length to equal the transmit-antenna count."""


class NonFiniteObservation(PeachSimError, ValueError):
    """An observation holds NaN or infinity."""


class NotPositiveSemiDefinite(PeachSimError, ValueError):
    """A covariance-role matrix is not Hermitian positive semi-definite."""


class NotPositiveDefinite(PeachSimError, ValueError):
    """A matrix that must be Hermitian positive definite is not."""


class SingularCovariance(PeachSimError, ValueError):
    """The observation covariance cannot be solved against."""


class RankDeficientPilot(PeachSimError, ValueError):
    """The pilot lacks full row rank, so no unbiased estimate exists."""


class UnsupportedPilot(PeachSimError, ValueError):
    """The operation requires a scaled-identity pilot matrix."""


class IllConditionedWeights(PeachSimError, ValueError):
    """The weight system is singular: its solve fails or gives a non-finite weight."""


class WindowSizeError(PeachSimError, ValueError):
    """The warmup holds no sample, so the sliding window would be empty."""


class InsufficientSamples(PeachSimError, ValueError):
    """Too few samples to form the requested covariance estimate."""


class InvalidDegree(PeachSimError, ValueError):
    """A polynomial degree is not a nonnegative integer, or a weight vector does not have degree + 1 entries."""


class InvalidScaling(PeachSimError, ValueError):
    """A polynomial filter's scaling is not finite and positive, or one of its weights is not finite."""


class SingularLimit(PeachSimError, ValueError):
    """The high-power limit matrix is singular, so the floor is undefined."""


class UnsupportedEstimator(PeachSimError, ValueError):
    """Unknown estimator kind."""


class InvalidParameter(PeachSimError, ValueError):
    """A scalar parameter (power, variance, time, ratio, trial count or seed) is not a number in its range."""


class ConfigError(PeachSimError, ValueError):
    """An experiment configuration failed validation."""


class DivergentExpansionWarning(UserWarning):
    """Scaling factor violates the polynomial-expansion convergence bound."""


def check_integer(name: str, value, least: int, error: type) -> int:
    """``value`` as an ``int`` if it is a ``numbers.Integral`` other than ``bool`` of at least ``least``, else ``error``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(name: str, value, error: type, least: float = -math.inf, strict: bool = False, finite: bool = True) -> float:
    """``value`` as a ``float`` if it is a ``numbers.Real`` other than ``bool`` of at least ``least`` (above it when
    ``strict``), finite unless ``finite`` is false, else ``error``; NaN fails every comparison, and an integer beyond
    the float range is infinite."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not real or not (number > least if strict else number >= least) or finite and not math.isfinite(number):
        bound = f" and {'>' if strict else '>='} {least}" if least > -math.inf else ""
        raise error(f"{name} must be {'finite and ' if finite else ''}real{bound}, got {value!r}")
    return number


def check_array(name: str, value, shape: tuple | None = None, square: bool = False) -> np.ndarray:
    """``value`` as a complex array (of ``shape`` if given, square if ``square``), else :class:`ShapeError`;
    so is a value that numpy cannot read as numbers, such as a string."""
    try:
        array = np.asarray(value, dtype=complex)
    except (TypeError, ValueError):
        raise ShapeError(f"{name} must be a numeric array, got {value!r}") from None
    if shape is not None and array.shape != shape or square and (array.ndim != 2 or len(array) != array.shape[1]):
        raise ShapeError(f"{name} must be {'square' if shape is None else f'of shape {shape}'}, got shape {array.shape}")
    return array
