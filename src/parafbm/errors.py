"""Exception hierarchy.

Two branches matter operationally: ``ConfigError`` means the inputs were
wrong (CLI exit code 1), ``NumericalError`` means a computation failed in a
way that signals a grid/precision/conditioning problem (CLI exit code 2).
"""


class ParafbmError(Exception):
    """Base class for all package errors."""


class ConfigError(ParafbmError, ValueError):
    """Invalid parameters, malformed configuration, or precondition violation."""


class NumericalError(ParafbmError, ArithmeticError):
    """A numerical routine failed beyond its tolerance."""


class CovarianceNotPSD(NumericalError):
    """Covariance factorization failed; the grid or precision is the suspect."""


class SingularConditioning(NumericalError):
    """Conditioning block of a Gaussian covariance is numerically singular."""


class DegenerateRange(NumericalError):
    """Box-count regression has no usable scale range (e.g. all counts equal)."""


class BoxIndexOverflow(NumericalError):
    """A box index is too large in magnitude for an exact int64 box key."""


class AlphaExceedsH(ConfigError):
    """Holder exponent alpha must not exceed the parabolic index H."""


class HOrderViolation(ConfigError):
    """Comparison bounds require H < H'."""


class GammaAtBoundary(ConfigError):
    """gamma is too close to H*d; neither scaling branch applies."""


class InvalidRatio(ConfigError):
    """Cantor construction needs m*r < 1, otherwise children overlap."""


class GenerationTooLarge(ConfigError):
    """Requested fractal generation exceeds the interval-count cap."""


class GridMismatch(ConfigError):
    """Drift grid or sample times are incompatible with the path grid."""


class InfeasibleParameters(ConfigError):
    """Experiment parameters violate the feasibility condition alpha'*d < dim(A)."""
