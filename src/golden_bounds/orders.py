"""Matrix order relations: Loewner, Olson (power-monotone), log-majorization.

Every check returns an OrderCertificate recording the relation tested, the
normalized worst-case margin and the witness that attained it. Each relation
is checked one way: Loewner order by the spectrum of B - A, log-majorization
by the partial products of the two spectra, and Olson order by grid evidence,
the Loewner comparison of A^r and B^r at finitely many exponents r >= 1.

Margins are oriented so that nonnegative means the relation holds; a
certificate passes when the worst margin stays above minus its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadGridError, DimMismatchError, NonPositiveError
from .linalg import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    inv_sqrt_congruence,
    power,
)

#: Exponents at which Olson-order evidence is collected by default.  The
#: relation A <=ols B means A^r <= B^r (Loewner) for every r >= 1; exponents
#: in (0, 1] then follow by operator monotonicity of t -> t^s, s in (0, 1],
#: so evidence grids only ever contain exponents >= 1.
DEFAULT_OLSON_GRID: tuple[float, ...] = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)

#: The tolerance of every Olson and log-majorization certificate: it passes
#: when its worst normalized margin is at least -1e-9.
_CERTIFICATE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OrderCertificate:
    """Outcome of one order-relation check.

    ``margins`` holds one normalized margin per probe (labelled by
    ``labels``); ``worst_margin`` is their minimum and ``witness`` records
    where it occurred.  ``holds`` is ``worst_margin >= -tolerance``.
    """

    relation: str
    holds: bool
    worst_margin: float
    tolerance: float
    labels: tuple[str, ...] = ()
    margins: tuple[float, ...] = ()
    witness: dict = field(default_factory=dict)


def _finish(
    relation, labels, margins, witness, tolerance=_CERTIFICATE_TOLERANCE
) -> OrderCertificate:
    worst = min(margins)
    return OrderCertificate(
        relation=relation,
        holds=bool(worst >= -tolerance),
        worst_margin=float(worst),
        tolerance=float(tolerance),
        labels=tuple(labels),
        margins=tuple(float(m) for m in margins),
        witness=witness,
    )


def loewner_leq(a: HermitianMatrix, b: HermitianMatrix) -> OrderCertificate:
    """Certify A <= B in the Loewner order via the spectrum of B - A.

    The margin is the smallest eigenvalue of B - A.  The tolerance scales
    with the Frobenius norm of the difference, max(1e-10 * ||B - A||_F,
    1e-12), floored so that the zero difference passes.
    """
    diff = b - a
    eigs = diff.eigenvalues
    scale = float(np.linalg.norm(diff.matrix))
    tolerance = max(1e-10 * scale, 1e-12)
    min_eig = float(eigs[-1])
    witness = {"min_eigenvalue": min_eig, "difference_norm": scale}
    return _finish("loewner-leq", ("min-eigenvalue",), (min_eig,), witness, tolerance)


def sandwich_bounds(
    a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix
) -> tuple[float, float]:
    """Tightest scalars (lo, hi) with lo * A <= B <= hi * A.

    These are the extreme eigenvalues of A^{-1/2} B A^{-1/2}.  Raises
    CondError when A is too ill-conditioned to invert reliably.
    """
    pinched = inv_sqrt_congruence(a, b)
    eigs = pinched.eigenvalues
    return float(eigs[-1]), float(eigs[0])


def _validated_grid(grid) -> tuple[float, ...]:
    if grid is None:
        return DEFAULT_OLSON_GRID
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


def olson_leq(
    a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix, grid=None
) -> OrderCertificate:
    """Certify A <=ols B, i.e. A^r <= B^r for every exponent r >= 1.

    The certificate is grid evidence: for each r on a finite exponent grid,
    which always contains r = 1, the margin is the smallest eigenvalue of
    B^r - A^r normalized by the larger spectral norm, and the witness records
    the exponent where the margin is worst.  On a commuting pair the r = 1
    entry decides every exponent: in a shared eigenbasis a_i <= b_i gives
    a_i^r <= b_i^r for all r.
    """
    grid = _validated_grid(grid)
    margins = []
    labels = []
    for r in grid:
        a_r = power(a, r)
        b_r = power(b, r)
        diff = b_r - a_r
        denom = max(a_r.eigenvalues[0], b_r.eigenvalues[0], 1e-300)
        margins.append(float(diff.eigenvalues[-1]) / denom)
        labels.append(f"r={r:g}")
    worst_i = int(np.argmin(margins))
    witness = {"exponent": grid[worst_i], "grid": list(grid)}
    return _finish("olson-leq", labels, margins, witness)


def _positive_desc(values, name: str) -> np.ndarray:
    arr = getattr(values, "eigenvalues", values)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimMismatchError(f"{name} must be a nonempty 1-d value sequence")
    if np.any(arr <= 0.0):
        raise NonPositiveError(f"{name} must be strictly positive, got {arr.tolist()}")
    return np.sort(arr)[::-1]


def weak_log_majorizes(values_a, values_b) -> OrderCertificate:
    """Certify lambda(A) prec-wlog lambda(B): leading products never cross.

    Accepts descending positive sequences or matrices carrying
    ``.eigenvalues``.  Works in log space, so widely scaled spectra are safe:
    the margin at k is -expm1(sum_{i<=k} log a_i - sum_{i<=k} log b_i),
    positive when the k-th partial product of A sits strictly below B's.
    """
    avals = _positive_desc(values_a, "values_a")
    bvals = _positive_desc(values_b, "values_b")
    if avals.shape != bvals.shape:
        raise DimMismatchError(
            f"value sequences differ in length: {avals.size} vs {bvals.size}"
        )
    cum_a = np.cumsum(np.log(avals))
    cum_b = np.cumsum(np.log(bvals))
    margins = [-math.expm1(da - db) for da, db in zip(cum_a, cum_b)]
    labels = [f"k={k + 1}" for k in range(avals.size)]
    worst_k = int(np.argmin(margins))
    witness = {
        "k": worst_k + 1,
        "log_product_gap": float(cum_b[worst_k] - cum_a[worst_k]),
    }
    return _finish("weak-log-majorization", labels, margins, witness)


def log_majorizes(values_a, values_b) -> OrderCertificate:
    """Weak log-majorization plus equality of the full products (determinants)."""
    avals = _positive_desc(values_a, "values_a")
    bvals = _positive_desc(values_b, "values_b")
    weak = weak_log_majorizes(avals, bvals)
    total_gap = float(np.sum(np.log(avals)) - np.sum(np.log(bvals)))
    equality_margin = -abs(math.expm1(total_gap))
    labels = weak.labels + ("total-product",)
    margins = weak.margins + (equality_margin,)
    witness = dict(weak.witness)
    witness["total_log_gap"] = total_gap
    return _finish("log-majorization", labels, margins, witness)
