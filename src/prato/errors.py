"""Exception types raised across the library."""


class PratoError(Exception):
    """Base class for all library errors."""


class ShapeError(PratoError, ValueError):
    """Operand shapes are inconsistent. Messages name both shapes."""


class ConfigurationError(PratoError, ValueError):
    """A parameter is outside its legal domain."""


class ValidationError(PratoError, ValueError):
    """Input data violates a documented precondition."""


class DegeneratePromptError(PratoError, ValueError):
    """A box prompt collapses to (near) zero width or height on the token grid."""


class RangeError(PratoError, ValueError):
    """A coordinate or box lies outside the valid region."""


class EmptyRetentionError(PratoError, RuntimeError):
    """A pruning mask retained zero tokens."""


class UndefinedMetricError(PratoError, ValueError):
    """A metric has no defined value for the given inputs (e.g. empty region)."""
