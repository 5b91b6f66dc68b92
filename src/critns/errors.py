"""Exception and warning types shared across the package."""


class CritNSError(Exception):
    """Base class for all package errors."""


class InvalidFieldError(CritNSError):
    """Field samples are non-finite or structurally inconsistent."""


class GridMismatchError(CritNSError):
    """Two fields that must share a grid do not."""


class DomainError(CritNSError):
    """A scalar parameter is outside its admissible range."""


class SupportOverflowError(CritNSError):
    """A rescaled field's support does not fit inside the periodic box."""


class UndersampledScaleError(CritNSError):
    """Requested dilation scale is below the grid's resolvable floor."""


class TrajectoryCoverageError(CritNSError):
    """A trajectory does not cover a requested time."""


class ConfigValidationError(CritNSError):
    """A run configuration document failed validation."""


class EmptyBandWarning(UserWarning):
    """A dyadic band lies entirely outside the resolvable range."""


class AccuracyWarning(UserWarning):
    """A computed quantity is likely degraded (edge concentration, non-critical pair)."""
