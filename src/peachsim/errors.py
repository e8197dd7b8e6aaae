"""Exception and warning types shared across the package."""


class PeachSimError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PeachSimError, ValueError):
    """A vector or matrix has dimensions incompatible with the model."""


class EmptyDimension(PeachSimError, ValueError):
    """A dimension that must be a positive integer is zero or negative."""


class InvalidCorrelation(PeachSimError, ValueError):
    """A correlation coefficient is not a finite complex number of magnitude below one, or the interferer ones do not pair up."""


class PilotShapeMismatch(PeachSimError, ValueError):
    """Identity pilots require the pilot length to equal the transmit-antenna count."""


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
    """A scalar parameter (power, variance, time, ratio or trial count) is outside its range."""


class ConfigError(PeachSimError, ValueError):
    """An experiment configuration failed validation."""


class DivergentExpansionWarning(UserWarning):
    """Scaling factor violates the polynomial-expansion convergence bound."""
