"""Exception hierarchy shared by all exqip modules."""


class ExqipError(Exception):
    """Base class for all errors raised by exqip."""


class DimensionMismatchError(ExqipError):
    """Declared dimensions are inconsistent with the supplied matrices."""


class NotHermitianError(ExqipError):
    """Operator fails the Hermiticity check beyond tolerance."""


class NotPositiveError(ExqipError):
    """Operator has a negative eigenvalue beyond tolerance."""


class ValidationError(ExqipError):
    """Object fails its normalization / positivity contract."""


class ExtremalInputError(ExqipError):
    """Decomposition was requested for an extremal object."""


class FileFormatError(ExqipError):
    """Operator or certificate file is malformed."""


class SizeLimitError(ExqipError):
    """The estimated memory of a computation exceeds its budget."""


class ToleranceError(ExqipError, ValueError):
    """The tolerance lies outside (0, 1), or leaves every support empty, or
    puts the rank cutoff at or above every singular value."""
