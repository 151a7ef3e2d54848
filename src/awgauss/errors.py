"""Exception taxonomy shared across the package.

Every domain error derives from :class:`AwGaussError`, so callers (and the
CLI exit-code mapping) can catch one base class.
"""


class AwGaussError(Exception):
    """Base class for all invariant violations raised by this package."""


class DimensionMismatch(AwGaussError):
    """Operands have incompatible shapes or lengths."""


class NonFiniteValue(AwGaussError):
    """An input contains NaN or infinite entries."""


class NotSymmetric(AwGaussError):
    """A matrix exceeds the relative symmetry tolerance."""


class NotPositiveDefinite(AwGaussError):
    """A matrix fails the positive-definiteness gate (tiny or negative pivot)."""


class BadSplit(AwGaussError):
    """A past/future split point lies outside the admissible range."""


class BadCorrelation(AwGaussError):
    """A per-time correlation lies outside [-1, 1]."""


class NonPositiveWeight(AwGaussError):
    """A cost weight is zero or negative."""


class BadAngle(AwGaussError):
    """An angle parameter lies outside the open interval (0, pi)."""


class BadParameter(AwGaussError):
    """A scalar parameter violates its documented range."""


class TooLarge(AwGaussError):
    """A requested computation exceeds the supported problem size."""


class UnsupportedDimension(AwGaussError):
    """The operation is only defined for a specific dimension (e.g. N = 2 figures)."""


class NumericalInconsistency(AwGaussError):
    """A quantity that is mathematically constrained (e.g. a PSD joint covariance)
    came out wrong by more than float noise; indicates an internal bug or
    pathological input rather than an expected user error."""
