"""Hermitian matrix core: types, Jacobi spectral decomposition, matrix functions.

Everything routes through one eigensolver, a cyclic Jacobi iteration with
complex rotations, so results are reproducible bit for bit on a given build
and need no external solver. Matrices produced by spectral construction carry
their decomposition with them; only genuinely new matrices cost a Jacobi run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    BadIndexError,
    CondError,
    DimMismatchError,
    DomainError,
    NoConvergenceError,
    NonSquareError,
    NotHermitianError,
)

HERMITICITY_DEFECT_RTOL = 1e-8
JACOBI_OFFDIAG_RTOL = 1e-14
JACOBI_MAX_SWEEPS = 100
COND_LIMIT = 1e12


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _jacobi(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian array by cyclic Jacobi rotations.

    Returns (eigenvalues descending, unitary eigenvector columns). Sweeps stop
    once the off-diagonal Frobenius mass falls below 1e-14 times the Frobenius
    norm of the input; the 100-sweep cap raises NoConvergenceError.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([a[0, 0].real]), v
    threshold = JACOBI_OFFDIAG_RTOL * float(np.linalg.norm(a))
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        if _offdiag_norm(a) <= threshold:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise NoConvergenceError(
                f"Jacobi sweep cap {JACOBI_MAX_SWEEPS} hit at off-diagonal "
                f"mass {_offdiag_norm(a):.3e} (threshold {threshold:.3e})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                phase = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                if math.isinf(tau):
                    continue
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # unitary U = diag(1, conj(phase)) . [[c, s], [-s, c]]
                w = s * phase.conjugate()
                z = c * phase.conjugate()
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - w * col_q
                a[:, q] = s * col_p + z * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - w.conjugate() * row_q
                a[q, :] = s * row_p + z.conjugate() * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = c * col_p - w * col_q
                v[:, q] = s * col_p + z * col_q
    vals = a.diagonal().real.copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], np.ascontiguousarray(v[:, order])


def _read_only(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array)
    if out is array and array.flags.writeable:
        out = array.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", _read_only(np.asarray(self.eigenvalues, dtype=np.float64))
        )
        object.__setattr__(
            self, "eigenvectors", _read_only(np.asarray(self.eigenvectors, dtype=np.complex128))
        )

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return self.map_eigenvalues(self.eigenvalues)

    def map_eigenvalues(self, values: np.ndarray) -> np.ndarray:
        """V diag(values) V* for externally supplied eigenvalue images."""
        v = self.eigenvectors
        return (v * np.asarray(values)) @ v.conj().T

    def basis_residual(self) -> float:
        v = self.eigenvectors
        return float(np.linalg.norm(v.conj().T @ v - np.eye(self.dim)))


class HermitianMatrix:
    """Square complex matrix equal to its conjugate transpose.

    Construction rejects non-finite entries, symmetrizes the entries to
    (raw + raw*)/2, records the Hermiticity defect, and rejects inputs whose
    defect exceeds 1e-8 times the largest entry magnitude. The stored array
    is immutable.
    """

    __slots__ = ("_matrix", "_decomp", "hermiticity_defect")

    def __init__(self, entries, *, decomposition: SpectralDecomposition | None = None):
        raw = np.asarray(entries, dtype=np.complex128)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.shape[0] == 0:
            raise NonSquareError(f"expected a nonempty square matrix, got shape {raw.shape}")
        scale = float(np.max(np.abs(raw)))
        if not math.isfinite(scale):
            raise NotHermitianError("matrix entries must be finite (got NaN or Inf)")
        defect = float(np.max(np.abs(raw - raw.conj().T)))
        if defect > HERMITICITY_DEFECT_RTOL * scale:
            raise NotHermitianError(
                f"Hermiticity defect {defect:.3e} exceeds "
                f"{HERMITICITY_DEFECT_RTOL:g} * max|entry| = {HERMITICITY_DEFECT_RTOL * scale:.3e}"
            )
        self._matrix = _read_only((raw + raw.conj().T) / 2.0)
        self._decomp = decomposition
        self.hermiticity_defect = defect

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def decomposition(self) -> SpectralDecomposition:
        if self._decomp is None:
            vals, vecs = _jacobi(self._matrix)
            self._decomp = SpectralDecomposition(vals, vecs)
        return self._decomp

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order (read-only array)."""
        return self.decomposition.eigenvalues

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self._matrix))

    def _binary(self, other, sign: float) -> "HermitianMatrix":
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise DimMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return HermitianMatrix(self._matrix + sign * other._matrix)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return self._scaled(-1.0)

    def _scaled(self, factor: float) -> "HermitianMatrix":
        dec = self._decomp
        new_dec = None
        if dec is not None:
            vals = dec.eigenvalues * factor
            vecs = dec.eigenvectors
            if factor < 0.0:
                vals = vals[::-1]
                vecs = vecs[:, ::-1]
            new_dec = SpectralDecomposition(vals, vecs)
        return HermitianMatrix(self._matrix * factor, decomposition=new_dec)

    def __mul__(self, factor):
        if not isinstance(factor, Real):
            return NotImplemented
        return self._scaled(float(factor))

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class PositiveDefiniteMatrix(HermitianMatrix):
    """Hermitian matrix whose smallest eigenvalue is certified positive."""

    __slots__ = ()

    def __init__(self, entries, *, decomposition: SpectralDecomposition | None = None):
        super().__init__(entries, decomposition=decomposition)
        smallest = float(self.eigenvalues[-1])
        if smallest <= 0.0:
            raise DomainError(f"matrix is not positive definite: min eigenvalue {smallest:.3e}")

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def base(self) -> HermitianMatrix:
        """The same matrix viewed as a plain HermitianMatrix (shared storage)."""
        view = HermitianMatrix.__new__(HermitianMatrix)
        view._matrix = self._matrix
        view._decomp = self._decomp
        view.hermiticity_defect = self.hermiticity_defect
        return view

    def _scaled(self, factor: float):
        plain = super()._scaled(factor)
        if factor > 0.0:
            return PositiveDefiniteMatrix(plain.matrix, decomposition=plain._decomp)
        return plain


def identity_pd(n: int) -> PositiveDefiniteMatrix:
    eye = np.eye(n, dtype=np.complex128)
    dec = SpectralDecomposition(np.ones(n), eye)
    return PositiveDefiniteMatrix(eye, decomposition=dec)


def _from_eigen(vals: np.ndarray, vecs: np.ndarray, positive: bool) -> HermitianMatrix:
    order = np.argsort(-vals, kind="stable")
    dec = SpectralDecomposition(vals[order], vecs[:, order])
    cls = PositiveDefiniteMatrix if positive else HermitianMatrix
    return cls(dec.reconstruct(), decomposition=dec)


def apply_function(matrix: HermitianMatrix, f) -> HermitianMatrix:
    """Apply a real scalar function to the spectrum: V diag(f(w)) V*.

    Raises DomainError if f is undefined or non-finite on any eigenvalue.
    """
    dec = matrix.decomposition
    try:
        with np.errstate(all="ignore"):
            vals = np.array([float(f(x)) for x in dec.eigenvalues], dtype=np.float64)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"function undefined on an eigenvalue: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise DomainError("function produced a non-finite value on the spectrum")
    return _from_eigen(vals, dec.eigenvectors, positive=False)


def power(matrix: HermitianMatrix, exponent: float) -> PositiveDefiniteMatrix:
    """Real matrix power of a positive definite matrix via its spectrum."""
    r = float(exponent)
    dec = matrix.decomposition
    if dec.eigenvalues[-1] <= 0.0:
        raise DomainError("matrix power requires a positive definite input")
    if r == 0.0:
        return identity_pd(matrix.dim)
    if r == 1.0:
        if isinstance(matrix, PositiveDefiniteMatrix):
            return matrix
        return PositiveDefiniteMatrix(matrix.matrix, decomposition=dec)
    with np.errstate(over="raise"):
        try:
            vals = dec.eigenvalues**r
        except FloatingPointError as exc:
            raise DomainError(f"matrix power overflowed: {exc}") from exc
    vecs = dec.eigenvectors
    if r < 0.0:
        vals = vals[::-1]
        vecs = vecs[:, ::-1]
    dec_out = SpectralDecomposition(vals, vecs)
    return PositiveDefiniteMatrix(dec_out.reconstruct(), decomposition=dec_out)


def exp_h(matrix: HermitianMatrix) -> PositiveDefiniteMatrix:
    """Matrix exponential of a Hermitian matrix (always positive definite)."""
    dec = matrix.decomposition
    with np.errstate(over="ignore"):
        vals = np.exp(dec.eigenvalues)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"exponential overflowed at eigenvalue {dec.eigenvalues[0]:.6g}")
    dec_out = SpectralDecomposition(vals, dec.eigenvectors)
    return PositiveDefiniteMatrix(dec_out.reconstruct(), decomposition=dec_out)


def log_pd(matrix: HermitianMatrix) -> HermitianMatrix:
    """Matrix logarithm; DomainError unless the input is positive definite."""
    dec = matrix.decomposition
    if dec.eigenvalues[-1] <= 0.0:
        raise DomainError("matrix logarithm requires a positive definite input")
    vals = np.log(dec.eigenvalues)
    dec_out = SpectralDecomposition(vals, dec.eigenvectors)
    return HermitianMatrix(dec_out.reconstruct(), decomposition=dec_out)


def eigenvalues_desc(matrix: HermitianMatrix) -> np.ndarray:
    """Copy of the spectrum in descending order."""
    return matrix.eigenvalues.copy()


def singular_values_desc(matrix: HermitianMatrix) -> np.ndarray:
    return np.sort(np.abs(matrix.eigenvalues))[::-1]


def ky_fan_norm(matrix: HermitianMatrix, k: int) -> float:
    """Sum of the k largest singular values, 1 <= k <= n."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise BadIndexError(f"Ky Fan index must be an integer, got {k!r}")
    if k < 1 or k > matrix.dim:
        raise BadIndexError(f"Ky Fan index {k} outside 1..{matrix.dim}")
    return float(np.sum(singular_values_desc(matrix)[:k]))


def schatten_norm(matrix: HermitianMatrix, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}."""
    sv = singular_values_desc(matrix)
    if p == 1:
        return float(np.sum(sv))
    if p == 2:
        return float(np.sqrt(np.sum(sv * sv)))
    if p == math.inf:
        return float(sv[0])
    raise BadIndexError(f"Schatten order must be 1, 2 or inf, got {p!r}")


def trace(matrix: HermitianMatrix) -> complex:
    return complex(np.trace(matrix.matrix))


def frobenius_distance(a: HermitianMatrix, b: HermitianMatrix) -> float:
    if a.dim != b.dim:
        raise DimMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.linalg.norm(a.matrix - b.matrix))


def congruence(transform: np.ndarray, matrix: HermitianMatrix) -> HermitianMatrix:
    """T X T* for a complex transform T with matching column count.

    T may be rectangular (k x n against an n x n matrix); the result is k x k.
    """
    t = np.asarray(transform, dtype=np.complex128)
    if t.ndim != 2 or t.shape[1] != matrix.dim:
        raise DimMismatchError(f"transform shape {t.shape} does not match dim {matrix.dim}")
    return HermitianMatrix(t @ matrix.matrix @ t.conj().T)


def inv_sqrt_congruence(anchor: HermitianMatrix, matrix: HermitianMatrix) -> HermitianMatrix:
    """A^{-1/2} X A^{-1/2} with a condition-number safeguard on the anchor."""
    dec = anchor.decomposition
    smallest = float(dec.eigenvalues[-1])
    largest = float(dec.eigenvalues[0])
    if smallest <= 0.0:
        raise DomainError("inverse square root requires a positive definite anchor")
    if largest / smallest > COND_LIMIT:
        raise CondError(
            f"condition number {largest / smallest:.3e} exceeds the {COND_LIMIT:g} safeguard"
        )
    inv_sqrt = dec.map_eigenvalues(dec.eigenvalues**-0.5)
    return congruence(inv_sqrt, matrix)


def commutator_norm(a: HermitianMatrix, b: HermitianMatrix) -> float:
    if a.dim != b.dim:
        raise DimMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    am, bm = a.matrix, b.matrix
    return float(np.linalg.norm(am @ bm - bm @ am))


def common_eigenbasis(
    a: HermitianMatrix, b: HermitianMatrix, rtol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Simultaneous eigenbasis of a commuting pair, or None.

    Returns (V, a_values, b_values) with both matrices diagonal in V and the
    eigenvalue pairing given by shared column order (a_values descending).
    Detection threshold: commutator and residual norms within rtol relative
    to the operand norms.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    scale = a.frobenius_norm() * b.frobenius_norm()
    if scale > 0.0 and commutator_norm(a, b) > rtol * scale:
        return None
    dec = a.decomposition
    v = dec.eigenvectors.copy()
    avals = dec.eigenvalues
    cluster_tol = 1e-8 * max(float(np.max(np.abs(avals))), 1e-300)
    b_rot = v.conj().T @ b.matrix @ v
    start = 0
    while start < a.dim:
        stop = start + 1
        while stop < a.dim and avals[stop - 1] - avals[stop] <= cluster_tol:
            stop += 1
        if stop - start > 1:
            block = b_rot[start:stop, start:stop]
            block = (block + block.conj().T) / 2.0
            _, w = _jacobi(block)
            v[:, start:stop] = v[:, start:stop] @ w
        start = stop
    b_rot = v.conj().T @ b.matrix @ v
    b_scale = max(b.frobenius_norm(), 1e-300)
    if _offdiag_norm(b_rot) > max(rtol * b_scale, 1e-13 * b_scale):
        return None
    a_rot = v.conj().T @ a.matrix @ v
    return v, a_rot.diagonal().real.copy(), b_rot.diagonal().real.copy()


def matrix_to_json(matrix: HermitianMatrix) -> str:
    """Serialize to the {"n", "re", "im"} literal format."""
    m = matrix.matrix
    payload = {"n": matrix.dim, "re": m.real.tolist(), "im": m.imag.tolist()}
    return json.dumps(payload)


def matrix_from_json(text: str) -> HermitianMatrix:
    """Parse the {"n", "re", "im"} literal format ("im" optional)."""
    payload = json.loads(text)
    n = int(payload["n"])
    re = np.asarray(payload["re"], dtype=np.float64)
    if re.shape != (n, n):
        raise NonSquareError(f'"re" block has shape {re.shape}, expected ({n}, {n})')
    entries = re.astype(np.complex128)
    if "im" in payload and payload["im"] is not None:
        im = np.asarray(payload["im"], dtype=np.float64)
        if im.shape != (n, n):
            raise NonSquareError(f'"im" block has shape {im.shape}, expected ({n}, {n})')
        entries = entries + 1j * im
    return HermitianMatrix(entries)
