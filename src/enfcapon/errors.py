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
    """Inputs or settings that cannot be used together: every setting
    PipelineConfig rejects (estimator, window, harmonic band, taps, Capon
    order, pad factor, frame layout, an estimation band too narrow for
    the frequency grid), a fisher_test argument out of range, a
    sample rate that is not a multiple of the working rate, a query track
    longer than its reference."""


class UndefinedCorrelationError(DegenerateInputError):
    """Correlation is undefined (zero-norm or constant vector)."""
