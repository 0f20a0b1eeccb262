"""Exception types shared across the package."""


class QhtError(Exception):
    """Base class for every error raised by this library."""


class InvariantViolation(QhtError):
    """A validated value failed one of its declared invariants.

    The ``check`` attribute names the failing invariant, e.g. ``"trace"``
    or ``"hermitian"``, so callers can report it without parsing messages.
    """

    def __init__(self, check, message=""):
        self.check = check
        text = f"InvariantViolation({check})"
        if message:
            text += f": {message}"
        super().__init__(text)


class NonHermitianInput(InvariantViolation):
    def __init__(self, message=""):
        super().__init__("hermitian", message)


class NotPositiveSemidefinite(InvariantViolation):
    def __init__(self, message=""):
        super().__init__("psd", message)


class DimensionMismatch(QhtError):
    """Operands live on spaces of different dimension."""


class NegativeSpectrum(QhtError):
    """A fractional matrix power was requested on an indefinite operator."""


class SingularInput(QhtError):
    """An operator lacks the full support required by an inverse or log."""


class DimensionBudgetExceeded(QhtError):
    """An n-fold spectrum would be longer than the fixed budget ``MAX_TENSOR_DIM``."""


class NonpositiveRate(QhtError):
    """Rates must be positive and above the exponent's value at s = 0 (zero but for roundoff)."""


class RateAboveDivergence(QhtError):
    """The threshold parameter is at or above the relative entropy."""


class ParseError(QhtError):
    """Input file or preset could not be parsed."""


class RateTooSmallWarning(UserWarning):
    """The ratio objective peaked at the first positive point of its s-grid."""
