"""Exception hierarchy shared across the package."""


class EnfError(Exception):
    """Base class for all package errors."""


class UnsupportedFormatError(EnfError):
    """Input file exists but is not a format we can decode."""


class TrackFormatError(EnfError):
    """A track file row could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DegenerateInputError(EnfError):
    """Input is structurally valid but carries no usable information."""


class IncompatibleInputError(EnfError, ValueError):
    """Inputs or settings that cannot be used together: a sample rate that
    is not a multiple of the working rate, an estimation band too narrow
    for the frequency grid, a query track longer than its reference, a
    skip interval that is not finite."""


class NotPositiveDefiniteError(EnfError):
    """Prediction-error power handed to the generator step is not positive."""


class SpectrumDegeneracyError(EnfError):
    """Capon denominator became non-positive at some grid bin."""

    def __init__(self, q, value):
        super().__init__(f"non-positive denominator {value:g} at grid bin {q}")
        self.q = q


class UndefinedCorrelationError(EnfError):
    """Correlation is undefined (zero-norm or constant vector)."""
