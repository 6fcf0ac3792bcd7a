"""Exception types shared across the library."""


class GoldenBoundsError(Exception):
    """Base class for every error raised by this package."""


class NonSquareError(GoldenBoundsError):
    """Input array is not a square matrix."""


class NotHermitianError(GoldenBoundsError):
    """Input has non-finite entries, or a Hermiticity defect above the acceptance threshold."""


class NoConvergenceError(GoldenBoundsError):
    """Jacobi sweep cap was hit before the off-diagonal mass vanished."""


class DomainError(GoldenBoundsError):
    """A spectral function was evaluated outside its domain."""


class BadIndexError(GoldenBoundsError):
    """Norm index outside the admissible set."""


class DimMismatchError(GoldenBoundsError):
    """Operands have incompatible dimensions."""


class CondError(GoldenBoundsError):
    """Condition number too large for a reliable inverse square root."""


class BadRangeError(GoldenBoundsError):
    """Scalar parameter outside its admissible range."""


class BadGridError(GoldenBoundsError):
    """Exponent grid for an order check is malformed."""


class EmptySequenceError(GoldenBoundsError):
    """A nonempty sequence was required."""


class NonPositiveError(GoldenBoundsError):
    """A positive quantity was required."""


class HypothesisViolatedError(GoldenBoundsError):
    """Certifier input does not satisfy the inequality's hypothesis."""
