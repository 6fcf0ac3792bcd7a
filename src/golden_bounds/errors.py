"""Exception types shared across the library, and the gates that turn a
caller's scalars and arrays into numbers or name them in an error."""

import contextlib
import operator

import numpy as np


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


class EmptySequenceError(BadRangeError):
    """A nonempty sequence was required."""


class NonPositiveError(BadRangeError):
    """A positive quantity was required."""


class HypothesisViolatedError(GoldenBoundsError):
    """Certifier input does not satisfy the inequality's hypothesis."""


def _shown(value) -> str:
    """The repr of a caller's value, cut to 40 characters and "..."."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _real(value, name: str) -> float:
    """``value`` as a float: whatever float() accepts passes; any other
    value, or one float() overflows on, raises BadRangeError naming ``name``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise BadRangeError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        raise BadRangeError(f"{name} exceeds double range, got {_shown(value)}") from None


def _reals(values, name: str, error: type = BadRangeError) -> list[float]:
    """``values`` as a list of floats, each whatever float() accepts; a
    value that is not an iterable of numbers, or holds one float() overflows
    on, raises ``error`` naming ``name`` (BadRangeError, or BadGridError for
    an exponent grid)."""
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise error(f"{name} must be a sequence of numbers, got {values!r}") from None
    except OverflowError:
        raise error(f"{name} exceeds double range, got {_shown(values)}") from None


def _array(value, dtype, name: str) -> np.ndarray:
    """``value`` as a numpy array of ``dtype``: whatever np.asarray accepts
    passes; a value it cannot convert (ragged, not numbers) or overflows on
    raises NotHermitianError naming ``name``."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise NotHermitianError(f"{name} must be numbers, got {_shown(value)}") from None


def _integer(value, name: str, error: type = BadRangeError) -> int:
    """``value`` as a Python int: Python and numpy integers pass, through
    operator.index; any other value, True and 3.0 included, raises ``error``."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise error(f"{name} must be an integer, got {value!r}")
