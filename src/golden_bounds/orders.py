"""Matrix order relations: the package's one Loewner test, and Olson order.

``loewner_leq`` is the only Loewner test: the certifiers' hypothesis
re-checks and the chain samplers decide by it.  ``olson_leq`` decides Olson
order, A^r <= B^r for every r >= 1, by grid evidence: ``loewner_leq`` at each
exponent of a finite grid that contains 1.  Exponents in (0, 1] need no
check, since t -> t^s is operator monotone for s in (0, 1].
"""

from __future__ import annotations

import math

from .errors import BadGridError
from .linalg import (
    HYPOTHESIS_RTOL,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    _cholesky_succeeds,
    _spectral_scale,
    power,
)


def loewner_leq(lhs: HermitianMatrix, rhs: HermitianMatrix) -> bool:
    """Whether lhs <= rhs within tol = 1e-8 * the larger spectral radius of
    lhs and rhs, so the test means the same at every scale.

    A Cholesky factorization of rhs - lhs + tol*I that succeeds passes the
    check; only when it fails is the spectrum of the difference computed,
    and that decides.
    """
    tolerance = HYPOTHESIS_RTOL * _spectral_scale(lhs, rhs, 0.0)
    diff = rhs - lhs
    if _cholesky_succeeds(diff.matrix, tolerance):
        return True
    return bool(diff.eigenvalues[-1] >= -tolerance)


def _validated_grid(grid) -> tuple[float, ...]:
    values = sorted({float(r) for r in grid})
    if not values:
        raise BadGridError("exponent grid must be nonempty")
    if any(not math.isfinite(r) for r in values):
        raise BadGridError(f"exponent grid must be finite, got {values}")
    if values[0] < 1.0:
        raise BadGridError(f"exponent grid entries must be >= 1, got {values}")
    if values[0] != 1.0:
        raise BadGridError("exponent grid must contain 1 (the Loewner base case)")
    return tuple(values)


def olson_leq(a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix, grid) -> bool:
    """Whether A^r <= B^r by ``loewner_leq`` at every exponent r of ``grid``
    (finite, nonempty, entries >= 1 and 1 among them), in ascending order,
    stopping at the first that fails.

    On a commuting pair the r = 1 entry decides every exponent: in a shared
    eigenbasis a_i <= b_i gives a_i^r <= b_i^r for all r.
    """
    return all(loewner_leq(power(a, r), power(b, r)) for r in _validated_grid(grid))
