"""Exception hierarchy shared by all modules.

Parameter errors map to CLI exit code 2, resource errors to exit code 3.
"""


class NeedletError(Exception):
    """Base class for all library errors."""


class ParameterError(NeedletError, ValueError):
    """Invalid argument or configuration value."""


class InvalidDegreeError(ParameterError):
    """Degree is negative or exceeds the configured cap."""


class DimensionMismatchError(ParameterError):
    """Point, multi-index, or expansion dimensions disagree."""


class InsufficientQuadratureError(ParameterError):
    """Quadrature order too small for the requested projection degree."""


class FrameDepthError(ParameterError):
    """Input degree exceeds what the frame's deepest level can carry."""


class FrameMismatchError(ParameterError):
    """Coefficients do not belong to the frame they are used with."""


class ResolutionError(ParameterError):
    """Evaluation grid too coarse or too small for the frame in use."""


class IngestionAccuracyError(ParameterError):
    """Numerical projection tail too large for the requested function."""


class ResourceError(NeedletError):
    """Requested construction exceeds the configured node budget."""


class NumericFailureError(NeedletError):
    """An iterative numerical procedure failed to converge."""
