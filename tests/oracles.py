"""Independent oracles the test suite checks library results against.

Everything here is deliberately primitive and shares no code with the
package: closed forms for 2x2 spectra, a scaling-and-squaring Taylor series
for the matrix exponential, Loewner, Olson and sandwich checks on numpy's
``eigh`` (not the package's Jacobi eigensolver), and 50-digit mpmath
re-evaluations of the scalar constants.  The frozen literals below were
produced by these evaluators and are asserted verbatim so a regression in
either side is caught.
"""

import math

import mpmath
import numpy as np

mpmath.mp.dps = 50


def eig2_closed_form(matrix) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian array, descending, by the quadratic formula."""
    a = complex(matrix[0][0]).real
    d = complex(matrix[1][1]).real
    b = complex(matrix[0][1])
    center = (a + d) / 2.0
    radius = math.hypot((a - d) / 2.0, abs(b))
    return center + radius, center - radius


def taylor_expm(matrix, terms: int = 40) -> np.ndarray:
    """exp(A) via scaling-and-squaring on a truncated Taylor series."""
    a = np.asarray(matrix, dtype=np.complex128)
    norm = float(np.linalg.norm(a))
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    small = a / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=np.complex128)
    term = np.eye(a.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ small / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _array(matrix) -> np.ndarray:
    return np.asarray(getattr(matrix, "matrix", matrix), dtype=np.complex128)


def _eigh_power(matrix, r: float) -> np.ndarray:
    """A^r of a positive definite matrix through numpy's eigh."""
    vals, vecs = np.linalg.eigh(_array(matrix))
    return (vecs * vals**r) @ vecs.conj().T


def loewner_margin(a, b) -> float:
    """Smallest eigenvalue of B - A by numpy's eigvalsh: A <= B iff it is >= 0."""
    return float(np.linalg.eigvalsh(_array(b) - _array(a))[0])


def loewner_holds(a, b) -> bool:
    """A <= B when the smallest eigenvalue of B - A is at least
    -max(1e-10 * ||B - A||_F, 1e-12)."""
    diff = _array(b) - _array(a)
    return loewner_margin(a, b) >= -max(1e-10 * float(np.linalg.norm(diff)), 1e-12)


def olson_holds(a, b, grid) -> bool:
    """A^r <= B^r at every r in ``grid``, each margin lambda_min(B^r - A^r)
    normalized by the larger spectral norm and held to -1e-9."""
    for r in grid:
        a_r, b_r = _eigh_power(a, r), _eigh_power(b, r)
        scale = max(np.abs(np.linalg.eigvalsh(a_r)).max(), np.abs(np.linalg.eigvalsh(b_r)).max())
        if loewner_margin(a_r, b_r) / max(scale, 1e-300) < -1e-9:
            return False
    return True


def sandwich_bounds(a, b) -> tuple[float, float]:
    """The tightest (lo, hi) with lo*A <= B <= hi*A: the extreme eigenvalues
    of A^{-1/2} B A^{-1/2}."""
    inv_sqrt = _eigh_power(a, -0.5)
    eigs = np.linalg.eigvalsh(inv_sqrt @ _array(b) @ inv_sqrt)
    return float(eigs[0]), float(eigs[-1])


def specht_mp(t) -> float:
    """Specht ratio at 50 digits: (t-1) t^{1/(t-1)} / (e log t)."""
    t = mpmath.mpf(t)
    if t == 1:
        return 1.0
    value = (t - 1) * mpmath.power(t, 1 / (t - 1)) / (mpmath.e * mpmath.log(t))
    return float(value)


def kantorovich_mp(w, alpha) -> float:
    """Generalized Kantorovich constant at 50 digits."""
    w = mpmath.mpf(w)
    alpha = mpmath.mpf(alpha)
    if w == 1:
        return 1.0
    if alpha in (0, 1):
        return 1.0
    lead = (mpmath.power(w, alpha) - w) / ((alpha - 1) * (w - 1))
    inner = ((alpha - 1) / alpha) * (mpmath.power(w, alpha) - 1) / (
        mpmath.power(w, alpha) - w
    )
    return float(lead * mpmath.power(inner, alpha))


def geomean_scalars(a, b, alpha) -> float:
    """Scalar weighted geometric mean a^{1-alpha} b^alpha."""
    return float(a ** (1.0 - alpha) * b**alpha)


# Frozen 50-digit evaluations (first 20 significant digits), produced by the
# mpmath oracles above before the library code existed.
SPECHT_2 = 1.0614756908460859771
SPECHT_8 = 1.6667470595816954912
SPECHT_10 = 1.8571348933459846107
KANTOROVICH_2_HALF = 0.98517143100941603869
KANTOROVICH_E2_QUARTER = 0.91411282511785924707
KANTOROVICH_3_03 = 0.969212369449689717
FM_2_HALF_2 = 1.1331484530668263168
KANTOROVICH_SLOPE_2 = -0.059660101141609624
REMARK_DIFF_H2 = -0.013496341985001825
REMARK_DIFF_H8 = 0.063115929517714164
