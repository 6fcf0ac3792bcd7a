"""Weighted matrix means and the small-exponent limit connecting them.

The weighted geometric mean A #_a B = A^{1/2} (A^{-1/2} B A^{-1/2})^a A^{1/2}
and the log-Euclidean mean exp((1-a) log A + a log B) agree for commuting
operands and are linked in general by

    exp((1-a) H + a K) = lim_{q -> 0} (e^{qH} #_a e^{qK})^{1/q},

which is the limit the reverse trace/eigenvalue bounds sharpen at finite q.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import _check_decreasing_positive
from .errors import BadRangeError
from .linalg import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    congruence,
    exp_h,
    frobenius_distance,
    inv_sqrt_congruence,
    power,
)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise BadRangeError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def geometric_mean(
    a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix, alpha: float
) -> PositiveDefiniteMatrix:
    """Weighted geometric mean A #_alpha B.

    Joint monotone in (A, B), congruence covariant
    (T A T*) #_a (T B T*) = T (A #_a B) T*, and equal to A^{1-a} B^a on
    commuting pairs. Endpoints return the operands themselves.
    """
    alpha = _check_alpha(alpha)
    if alpha == 0.0:
        return a
    if alpha == 1.0:
        return b
    inner = PositiveDefiniteMatrix(inv_sqrt_congruence(a, b))
    dec = a.decomposition
    sqrt_a = dec.map_eigenvalues(np.sqrt(dec.eigenvalues))
    return PositiveDefiniteMatrix(congruence(sqrt_a, power(inner, alpha)))


def log_euclidean(h: HermitianMatrix, k: HermitianMatrix, alpha: float) -> PositiveDefiniteMatrix:
    """exp((1 - alpha) H + alpha K) for Hermitian exponents H, K."""
    alpha = _check_alpha(alpha)
    return exp_h((1.0 - alpha) * h + alpha * k)


def mean_power(
    h: HermitianMatrix, k: HermitianMatrix, alpha: float, q: float
) -> PositiveDefiniteMatrix:
    """(e^{qH} #_alpha e^{qK})^{1/q} for q > 0."""
    q = float(q)
    if not 0.0 < q < math.inf:
        raise BadRangeError(f"q must be positive and finite, got {q}")
    return power(geometric_mean(exp_h(q * h), exp_h(q * k), alpha), 1.0 / q)


def limit_probe(
    h: HermitianMatrix, k: HermitianMatrix, alpha: float, q_sequence
) -> list[tuple[float, float]]:
    """Frobenius distance of (e^{qH} #_a e^{qK})^{1/q} to the log-Euclidean mean.

    Returns (q, distance) pairs along a strictly decreasing positive sequence;
    the distances shrink to zero with q.
    """
    qs = _check_decreasing_positive(q_sequence, "q_sequence")
    target = log_euclidean(h, k, alpha)
    return [(q, frobenius_distance(mean_power(h, k, alpha, q), target)) for q in qs]
