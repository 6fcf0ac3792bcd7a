"""Hermitian matrix core: types, Jacobi spectral decomposition, matrix functions.

Every spectrum comes from one eigensolver, a Jacobi iteration with complex
rotations, and a positivity test that needs no spectrum runs a Cholesky
factorization on Python complex scalars instead. Neither needs an external
solver, and run to run the results repeat bit for bit. Below
_ROUND_ROBIN_MIN_N (9) the eigensolver is cyclic: it runs one rotation at a
time on Python complex scalars, rotating only the upper triangle. From there
up it is round-robin: each round rotates disjoint pairs at once as one
unitary G, applied as G* A G by two numpy products, so at those n the
eigenvalues too are rounded by the host BLAS. Either way it returns a
replay of what it applied, which builds the eigenvectors on their first
read, on the identity, so a spectrum read only for its eigenvalues never
builds them. Across machines the last bits can still move: the matrix
products around the solver, and in it from n = 9, run on numpy, whose BLAS
build and runtime CPU dispatch (fused multiply-adds on X86_V3/V4) set their
rounding. Matrices produced by spectral
construction carry their decomposition with them, and their entries
V diag(f(λ)) V* are built on first read, so a result read only for its
spectrum never forms them; only genuinely new matrices cost a Jacobi run.

Nor does a matrix whose entries equal, bit for bit, those of one solved a
little earlier in the same process: every solve goes through one spectral
cache, keyed by the exact bytes of the read-only complex128 entries the
eigensolver would receive.  A hit is a new decomposition on the cached
read-only arrays: the eigenvalues, and the eigenvectors once a decomposition
of that key has built them.  The cache holds at most _CACHE_BYTES (256 KiB,
fixed) of entries, least recently used out first: that is room for the
reuse within one pass of a sweep over the ids (rows that share draws solve
the same matrices) and not across passes.  It holds no replay, so a hit
whose eigenvectors were never built builds them, if they are read, from a
new solve of its key, which gives the same bits.  While ``_jacobi`` is a
caller's wrapper (``_own_solver``), the cache is bypassed and sweeps and
tables stay in this process, so the wrapper sees every solve, and every
eigenvector build through the replays it returns.  The eigensolver's
settings are constants, which the cache does not track.  It lives as long
as the process, across the CLI calls made in it; a new ``golden-bounds``
process, and each forked sweep worker, starts with it empty.

Arrays are checked where they enter, not wherever a matrix is built. A
caller's raw array (shape, finiteness, Hermiticity defect), a decomposition
given as arrays (shapes, finiteness) and a congruence transform (shape,
finiteness) get the full checks; the samplers' matrices enter as drawn
decompositions. A matrix computed here from checked matrices (a congruence,
a sum, a scaled copy, the pending entries of a matrix function) only gets
the symmetrization (raw + raw*)/2 and one finiteness guard, so an overflow
raises DomainError where it happens.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections import OrderedDict
from collections.abc import Callable
from numbers import Real

import numpy as np

from .errors import (
    BadIndexError,
    BadRangeError,
    CondError,
    DimMismatchError,
    DomainError,
    NoConvergenceError,
    NonSquareError,
    NotHermitianError,
    _array,
    _integer,
    _real,
)

HERMITICITY_DEFECT_RTOL = 1e-8
JACOBI_OFFDIAG_RTOL = 1e-14
JACOBI_MAX_SWEEPS = 100
COND_LIMIT = 1e12

#: _jacobi scales its input by a power of two (exact) that brings the binary
#: exponent of its largest real or imaginary part into [-400, 400]: sums of
#: squared magnitudes then stay finite, the squares that reach the stopping
#: test stay normal, and an input already inside the range is rotated as it is.
_JACOBI_EXPONENT_LIMIT = 400


#: From this dimension up, _jacobi rotates in the round-robin order (see
#: _round_robin_jacobi); below it, in the cyclic order on Python scalars.
#: The ``kernels`` table of benchmarks/jacobi_kernel.py (BENCH_round_robin.json,
#: 2 cores, AVX-512, OpenBLAS 0.3.31; two runs) has round-robin at x0.8-0.9
#: of cyclic at n = 6, x1.0-1.5 at n = 8 and 9, and x1.9-2.7 at n = 16.  It
#: is 9 rather than 8 so that n <= 8, where kernel digests are frozen and no
#: sweep runs at 7 or 8, keeps the cyclic kernel's bits.
_ROUND_ROBIN_MIN_N = 9


def _jacobi(matrix: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Diagonalize a Hermitian array by Jacobi rotations: in the cyclic order
    below the crossover _ROUND_ROBIN_MIN_N (9), in the round-robin order of
    ``_round_robin_jacobi`` from it.

    Returns (eigenvalues descending, replay), a callable that pickles and
    builds the unitary eigenvector columns; decompositions call it on the
    first read of their eigenvectors, so a spectrum that is only read for
    its eigenvalues never pays for them. Sweeps stop once the off-diagonal
    Frobenius mass falls below 1e-14 times the Frobenius norm of the input;
    the 100-sweep cap raises NoConvergenceError.  The input is
    rotated as its copy scaled by 2^k (see _JACOBI_EXPONENT_LIMIT), which
    leaves every rotation as it is, and the eigenvalues are scaled back by
    2^-k.

    The cyclic rotations run on nested lists of Python complex scalars: at
    these small dimensions, per-element numpy indexing costs more than the
    arithmetic. Only the diagonal and the upper triangle of ``a`` are kept;
    an entry below the diagonal is read as the conjugate of its mirror, which
    is what rotating both triangles would store there, up to the sign of an
    exact zero (on real input, the sign of a zero imaginary part in an
    eigenvector can differ).  The round-robin kernel applies its rounds with
    BLAS products instead, so from the crossover up no such claim holds: its
    bits are those of the host's BLAS kernel.
    """
    parts = np.ascontiguousarray(matrix, dtype=np.complex128).view(np.float64)
    n = parts.shape[0]
    peak = math.frexp(np.abs(parts).max())[1]
    exponent = min(max(peak, -_JACOBI_EXPONENT_LIMIT), _JACOBI_EXPONENT_LIMIT) - peak
    if n >= _ROUND_ROBIN_MIN_N:
        return _round_robin_jacobi(np.ldexp(parts, exponent).view(np.complex128), exponent)
    a = np.ldexp(parts, exponent).view(np.complex128).tolist()
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    steps = []
    threshold = JACOBI_OFFDIAG_RTOL * math.sqrt(
        sum(x.real * x.real + x.imag * x.imag for row in a for x in row)
    )
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off = 0.0
        for i, row in enumerate(a):  # row-major, lower entries through their mirrors
            for above in a[:i]:
                x = above[i]
                off += x.real * x.real + x.imag * x.imag
            for x in row[i + 1 :]:
                off += x.real * x.real + x.imag * x.imag
        off = math.sqrt(off)
        if off <= threshold:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise _sweep_cap_error(off, threshold)
        for p, q in pairs:
            row_p = a[p]
            row_q = a[q]
            apq = row_p[q]
            mag = abs(apq)
            if mag == 0.0:
                continue
            # apq / mag as numpy rounds it (times the reciprocal); Python's
            # complex division rounds differently
            inv = 1.0 / mag
            phase = complex(apq.real * inv, apq.imag * inv)
            tau = (row_q[q].real - row_p[p].real) / (2.0 * mag)
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
            # unitary U = diag(1, conj(phase)) . [[c, s], [-s, c]]; A <- U* A U
            w = s * phase.conjugate()
            z = c * phase.conjugate()
            # a float times a complex multiplies as complex(f, 0.0) does,
            # so converting once changes no bit
            c = complex(c)
            s = complex(s)
            wc = w.conjugate()
            zc = z.conjugate()
            steps.append((p, q, c, s, w, z))
            for row in a[:p]:  # columns p and q above row p
                x = row[p]
                y = row[q]
                row[p] = c * x - w * y
                row[q] = s * x + z * y
            for r in range(p + 1, q):  # row p and column q between them
                row = a[r]
                x = row_p[r]
                y = row[q]
                row_p[r] = c * x - wc * y.conjugate()
                row[q] = s * x.conjugate() + z * y
            for r in range(q + 1, n):  # rows p and q right of column q
                x = row_p[r]
                y = row_q[r]
                row_p[r] = c * x - wc * y
                row_q[r] = s * x + zc * y
            # the 2x2 block, column update first as the full update does it
            app = row_p[p]
            aqq = row_q[q]
            aqp = apq.conjugate()
            row_p[p] = c * (c * app - w * apq) - wc * (c * aqp - w * aqq)
            row_q[q] = s * (s * app + z * apq) + zc * (s * aqp + z * aqq)
            row_p[q] = 0j
    vals = np.ldexp([a[i][i].real for i in range(n)], -exponent)
    order = np.argsort(-vals, kind="stable")
    return vals[order], functools.partial(_replay_rotations, steps, order.tolist())


def _sweep_cap_error(off: float, threshold: float) -> NoConvergenceError:
    return NoConvergenceError(
        f"Jacobi sweep cap {JACOBI_MAX_SWEEPS} hit at off-diagonal "
        f"mass {off:.3e} (threshold {threshold:.3e})"
    )


@functools.cache
def _round_robin_schedule(n: int) -> tuple:
    """One sweep of the round-robin order at dimension n, and the mask of
    the off-diagonal entries.  The sweep is a tuple of rounds; each round is
    the flat indices of the entries (p, p), then (p, q), (q, p) and (q, q),
    of its disjoint pairs p < q.
    Every pair p < q is in one round.  The order is the tournament one:
    index 0 stays and the others move one place per round; at odd n an
    index n is added, and whichever index meets it idles in that round.
    Cached per n, so its arrays are read-only."""
    m = n + n % 2
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted((players[i], players[m - 1 - i])) for i in range(m // 2)]
        p, q = np.array([pair for pair in pairs if pair[1] < n]).T
        flat = np.concatenate((p * (n + 1), p * n + q, q * n + p, q * (n + 1)))
        rounds.append(_read_only(flat))
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(rounds), _read_only(~np.eye(n, dtype=bool))


def _round_robin_jacobi(a: np.ndarray, exponent: int) -> tuple[np.ndarray, Callable]:
    """``_jacobi`` on ``a``, its input scaled by 2^exponent, in the parallel
    order of Brent and Luk (SIAM J. Sci. Stat. Comput. 6, 1985).  The pairs
    of a round are disjoint, so its rotations make one unitary G, and
    A <- G* A G is two numpy products on the host BLAS.  Each rotation is
    formed as in the cyclic kernel, from the entries of A at the start of
    its round, except that t is taken from hypot(1, tau), which needs no
    branch for |tau| > 1e150; a pair with a zero coupling or an infinite
    tau is skipped, G being the identity there.  After each round A is made
    Hermitian again, as (A + A*)/2, since the products round its two
    triangles apart, and the entry a rotation zeroes is set to zero.  The
    replay keeps the entries of each round's G."""
    n = a.shape[0]
    rounds, off_diagonal = _round_robin_schedule(n)
    eye = np.eye(n, dtype=np.complex128)
    steps = []
    threshold = JACOBI_OFFDIAG_RTOL * math.sqrt(np.vdot(a, a).real)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        x = a[off_diagonal]
        off = math.sqrt(np.vdot(x, x).real)
        if off <= threshold:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise _sweep_cap_error(off, threshold)
        for flat in rounds:
            m = len(flat) // 4
            entries = a.take(flat).tolist()  # the (p, p), (p, q), (q, p), (q, q) of each pair
            values = [1.0] * m + [0.0] * (2 * m) + [1.0] * m  # those of G
            skipped = []
            for i in range(m):
                apq = entries[m + i]
                mag = abs(apq)
                tau = (entries[3 * m + i].real - entries[i].real) / (2.0 * mag) if mag else math.inf
                if math.isinf(tau):
                    skipped.append(i)
                    continue
                inv = 1.0 / mag
                if tau >= 0.0:
                    t = 1.0 / (tau + math.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # G = diag(1, conj(phase)) . [[c, s], [-s, c]] on (p, q)
                conj_phase = complex(apq.real * inv, -apq.imag * inv)
                values[i] = c
                values[m + i] = s
                values[2 * m + i] = -s * conj_phase
                values[3 * m + i] = c * conj_phase
            g = eye.copy()
            g.put(flat, values)
            a = g.conj().T @ (a @ g)
            a = (a + a.conj().T) * 0.5
            a.put(flat[m : 3 * m], 0.0)
            for i in skipped:  # G is the identity there: (p, q) and (q, p) stay
                a.put(flat[m + i : 3 * m : m], entries[m + i : 3 * m : m])
            steps.append((flat, values))
    vals = np.ldexp(a.diagonal().real, -exponent)
    order = np.argsort(-vals, kind="stable")
    return vals[order], functools.partial(_replay_rounds, steps, order.tolist())


#: ``_jacobi`` as defined here, in a container that a caller's wrapper
#: replacing the module name leaves alone (``_own_solver``).
_OWN_JACOBI = {"_jacobi": _jacobi}


def _own_solver() -> bool:
    """Whether ``_jacobi`` is this module's own.  Only then is the spectral
    cache used and do sweeps and tables split (``certify._cpus``), so that a
    caller's wrapper around ``_jacobi`` sees every solve and replay here."""
    return _jacobi is _OWN_JACOBI["_jacobi"]


def _replay_rotations(steps: list, order: list) -> np.ndarray:
    """The eigenvector columns of a cyclic run, in the eigenvalues' ``order``:
    each rotation (p, q, c, s, w, z) of ``steps`` applied to the identity."""
    n = len(order)
    vt = np.eye(n, dtype=np.complex128).tolist()  # rows are eigenvector columns
    for p, q, c, s, w, z in steps:
        col_p = vt[p]
        col_q = vt[q]
        for j in range(n):
            x = col_p[j]
            y = col_q[j]
            col_p[j] = c * x - w * y
            col_q[j] = s * x + z * y
    return np.array([vt[i] for i in order], dtype=np.complex128).T.copy()


def _replay_rounds(steps: list, order: list) -> np.ndarray:
    """The eigenvector columns of a round-robin run, in the eigenvalues'
    ``order``: the product of its rounds' unitaries, as (flat indices, values)."""
    eye = np.eye(len(order), dtype=np.complex128)
    vectors = eye
    for flat, values in steps:
        g = eye.copy()
        g.put(flat, values)
        vectors = vectors @ g
    return vectors.take(order, axis=1)


def _cholesky_succeeds(matrix: np.ndarray, shift: float) -> bool:
    """Whether ``matrix + shift*I`` has a Cholesky factor, i.e. is positive definite.

    Builds the factor L row by row on Python complex scalars, reading only the
    lower triangle of the Hermitian array; every pivot must be positive and
    finite. Cholesky is backward stable, so for a shift well above
    n * eps * ||matrix|| the verdict is that of ``lambda_min >= -shift``.
    """
    rows = np.asarray(matrix, dtype=np.complex128).tolist()
    conj_rows = []  # conjugated rows of L, without their diagonal
    inv_diag = []  # 1 / L[j][j]
    for i, row in enumerate(rows):
        l_row = []
        for j in range(i):
            x = row[j]
            for y, z in zip(l_row, conj_rows[j]):
                x -= y * z
            l_row.append(x * inv_diag[j])
        pivot = row[i].real + shift
        for y in l_row:
            pivot -= y.real * y.real + y.imag * y.imag
        if not 0.0 < pivot < math.inf:
            return False
        inv_diag.append(1.0 / math.sqrt(pivot))
        conj_rows.append([y.conjugate() for y in l_row])
    return True


#: Relative slack of every hypothesis check, ``orders.loewner_leq``
#: included: a hypothesis that holds by construction passes within it, and a
#: violation beyond it is a sampler or caller bug.
HYPOTHESIS_RTOL = 1e-8


def _spectral_scale(a: HermitianMatrix, b: HermitianMatrix, floor: float) -> float:
    """The larger spectral radius of a and b, at least ``floor``."""
    return max(float(np.max(np.abs(a.eigenvalues))), float(np.max(np.abs(b.eigenvalues))), floor)


def _require_same_dim(a: HermitianMatrix, b: HermitianMatrix) -> None:
    if a.dim != b.dim:
        raise DimMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _read_only(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array)
    if out is array and array.flags.writeable:
        out = array.copy()
    out.flags.writeable = False
    return out


class SpectralDecomposition:
    """Eigenvalues (descending) and matching unitary eigenvector columns.

    The eigenvector columns are given either as an array or as a callable
    that builds them, such as the replay that ``_jacobi`` returns.
    The callable runs on the first read of ``eigenvectors``; its array is
    kept, read-only, and the callable is dropped.

    Given as arrays, the decomposition enters from outside and gets the full
    checks: n eigenvalues, n x n eigenvectors, all finite (NotHermitianError
    for NaN or Inf, DimMismatchError for the shapes). The descending order
    and the unitarity of the columns are trusted. Given with a callable, as
    this module builds it from a checked matrix, nothing is checked.
    """

    __slots__ = ("_eigenvalues", "_eigenvectors")

    def __init__(self, eigenvalues, eigenvectors):
        eigenvalues = _read_only(_array(eigenvalues, np.float64, "decomposition entries"))
        if not callable(eigenvectors):
            eigenvectors = _read_only(_array(eigenvectors, np.complex128, "decomposition entries"))
            _check_spectrum(eigenvalues, eigenvectors)
        self._eigenvalues = eigenvalues
        self._eigenvectors = eigenvectors

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        if callable(self._eigenvectors):
            built = self._eigenvectors()
            self._eigenvectors = _read_only(np.asarray(built, dtype=np.complex128))
        return self._eigenvectors

    def reconstruct(self) -> np.ndarray:
        return self.map_eigenvalues(self.eigenvalues)

    def map_eigenvalues(self, values: np.ndarray) -> np.ndarray:
        """V diag(values) V* for externally supplied eigenvalue images."""
        v = self.eigenvectors
        return (v * np.asarray(values)) @ v.conj().T

    def _mapped(self, values: np.ndarray, reverse: bool = False) -> "SpectralDecomposition":
        """The decomposition with these eigenvalue images on this one's
        eigenvectors, both reversed if ``reverse`` (for a decreasing map); its
        eigenvectors are built from this one's when first read.  They are
        given as a bound method, so the result pickles, lazy as it is."""
        if reverse:
            return SpectralDecomposition(values[::-1], self._reversed_eigenvectors)
        return SpectralDecomposition(values, self._same_eigenvectors)

    def __setstate__(self, state: tuple) -> None:
        _restore_read_only(self, state)

    def _same_eigenvectors(self) -> np.ndarray:
        return self.eigenvectors

    def _reversed_eigenvectors(self) -> np.ndarray:
        return self.eigenvectors[:, ::-1]


def _check_spectrum(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> None:
    """The full check of a decomposition given as arrays: n finite eigenvalues
    and finite n x n eigenvector columns."""
    n = eigenvalues.shape[0] if eigenvalues.ndim == 1 else 0
    if n == 0 or eigenvectors.shape != (n, n):
        raise DimMismatchError(
            f"eigenvalues of shape {eigenvalues.shape} do not match "
            f"eigenvectors of shape {eigenvectors.shape}"
        )
    if not (np.isfinite(eigenvalues).all() and np.isfinite(eigenvectors).all()):
        raise NotHermitianError("decomposition entries must be finite (got NaN or Inf)")


def _restore_read_only(obj, state: tuple) -> None:
    """Set the slots of an unpickled object, its arrays read-only again: a
    pickle round trip copies an array and drops the flag."""
    for name, value in state[1].items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        setattr(obj, name, value)


#: The spectral cache holds at most this many bytes of solved matrices: per
#: entry its key, its eigenvalues, room for its eigenvectors and
#: _CACHE_ENTRY_OVERHEAD; about 30 entries at n = 16 and 300 at n = 2.  That
#: covers the reuse within one pass of a sweep over the ids, whose rows share
#: draws, and not the reuse across passes.
_CACHE_BYTES = 256 * 1024
#: The Python objects of one entry besides its arrays' data, measured.
_CACHE_ENTRY_OVERHEAD = 600


class _Entry:
    """One solved matrix in the spectral cache: its key (the bytes of its
    entries), its eigenvalues, and its eigenvectors once a decomposition of
    it has read them.  The cache holds no replay: a replay lives as long as
    the decomposition that holds it, as it does without a cache."""

    __slots__ = ("key", "eigenvalues", "eigenvectors")

    def __init__(self, key: bytes, eigenvalues: np.ndarray):
        eigenvalues.flags.writeable = False
        self.key = key
        self.eigenvalues = eigenvalues
        self.eigenvectors = None

    def decomposition(self, replay: Callable | None = None) -> SpectralDecomposition:
        """A new decomposition on this entry's arrays; its eigenvectors are
        built, if they are read, by ``_vectors``, on ``replay``, the solve's."""
        return SpectralDecomposition(self.eigenvalues, functools.partial(self._vectors, replay))

    def _vectors(self, replay: Callable | None) -> np.ndarray:
        """The stored eigenvectors, or else, stored for the next reader, those
        of ``replay`` or of a new solve of the key, which gives the same
        bits."""
        if self.eigenvectors is None:
            if replay is None:
                _CACHE.count("resolves")
                n = self.eigenvalues.shape[0]
                matrix = np.frombuffer(self.key, dtype=np.complex128).reshape(n, n)
                replay = _OWN_JACOBI["_jacobi"](matrix)[1]
            vectors = replay()
            vectors.flags.writeable = False
            self.eigenvectors = vectors
        return self.eigenvectors

    def __setstate__(self, state: tuple) -> None:
        _restore_read_only(self, state)

    def nbytes(self) -> int:
        """What the entry counts against _CACHE_BYTES."""
        return 2 * len(self.key) + self.eigenvalues.nbytes + _CACHE_ENTRY_OVERHEAD


class _SpectralCache:
    """This process's solved matrices, keyed by the exact bytes of their
    entries, least recently used first, and a tally of hits, misses
    (solves), re-solves and the bytes held.  One instance, changed in place
    and never rebound; the lock makes it safe to share between threads."""

    def __init__(self) -> None:
        self.entries: OrderedDict[bytes, _Entry] = OrderedDict()
        self.lock = threading.Lock()
        self.tally = {"hits": 0, "misses": 0, "resolves": 0, "bytes": 0}

    def count(self, name: str) -> None:
        with self.lock:
            self.tally[name] += 1

    def clear(self) -> None:
        """Empty the cache and zero the tally, in place."""
        with self.lock:
            self.entries.clear()
            self.tally.update(dict.fromkeys(self.tally, 0))

    def after_fork(self) -> None:
        """In a forked child: a new lock, for a thread of the parent may have
        held the old one at the fork, and an empty cache."""
        self.lock = threading.Lock()
        self.clear()

    def solve(self, matrix: np.ndarray) -> SpectralDecomposition:
        """A decomposition on the cached arrays of an entry array with these
        bytes, or a new solve, cached unless its entry alone exceeds the
        budget.  Two threads may solve one key at once; the first to store it
        is cached, and each returns its own solve, of the same bits."""
        key = matrix.tobytes()
        with self.lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                self.tally["hits"] += 1
                return entry.decomposition()
        vals, replay = _jacobi(matrix)
        entry = _Entry(key, vals)
        dec = entry.decomposition(replay)
        tally = self.tally
        with self.lock:
            tally["misses"] += 1
            if entry.nbytes() > _CACHE_BYTES:
                return dec
            if self.entries.setdefault(key, entry) is not entry:
                self.entries.move_to_end(key)
                return dec
            tally["bytes"] += entry.nbytes()
            while tally["bytes"] > _CACHE_BYTES:
                tally["bytes"] -= self.entries.popitem(last=False)[1].nbytes()
        return dec


_CACHE = _SpectralCache()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_CACHE.after_fork)


def _solve(matrix: np.ndarray) -> SpectralDecomposition:
    """The decomposition of a checked entry array.  The spectral cache is
    consulted and filled only while ``_own_solver()``; otherwise, under a
    caller's wrapper, every solve runs, none is stored, and the eigenvectors
    are built by the replay that the wrapper returned."""
    if _own_solver():
        return _CACHE.solve(matrix)
    return SpectralDecomposition(*_jacobi(matrix))


def _symmetric_part(half: np.ndarray) -> np.ndarray:
    """The read-only (raw + raw*)/2 of a square array, formed as h + h* from
    its half h = raw/2. Halving is exact for normal numbers and commutes
    with rounding, so the bits are those of (raw + raw*)/2 unless a half is
    subnormal; unlike that form, this one cannot overflow."""
    out = np.ascontiguousarray(half + half.conj().T)
    out.flags.writeable = False
    return out


def _checked_entries(entries) -> np.ndarray:
    """The full check of an array that enters from outside: the read-only
    (raw + raw*)/2 of a finite, nonempty, square, Hermitian array."""
    raw = _array(entries, np.complex128, "matrix entries")
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.shape[0] == 0:
        raise NonSquareError(f"expected a nonempty square matrix, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise NotHermitianError("matrix entries must be finite (got NaN or Inf)")
    half = raw / 2.0
    # Moduli of the quarters and of their defect stay in double range; both
    # values are exactly a quarter of the unscaled ones for normal numbers,
    # and their Python-float quadruples may be inf, silently.
    quarter = half / 2.0
    scale = float(np.max(np.abs(quarter)))
    defect = float(np.max(np.abs(quarter - quarter.conj().T)))
    if defect > HERMITICITY_DEFECT_RTOL * scale:
        raise NotHermitianError(
            f"Hermiticity defect {4.0 * defect:.3e} exceeds {HERMITICITY_DEFECT_RTOL:g} "
            f"* max|entry| = {4.0 * HERMITICITY_DEFECT_RTOL * scale:.3e}"
        )
    return _symmetric_part(half)


def _result_entries(raw: np.ndarray) -> np.ndarray:
    """The read-only (raw + raw*)/2 of a square array computed here from
    checked matrices. Its one check is the finiteness guard: such an array
    is square and Hermitian up to rounding by construction, and can only
    fail by leaving double range."""
    out = _symmetric_part(raw / 2.0)
    if not np.isfinite(out).all():
        raise DomainError("a computed matrix left double range: its entries are not finite")
    return out


class HermitianMatrix:
    """Square complex matrix equal to its conjugate transpose.

    Given a caller's array, construction checks it in full: it rejects
    non-finite entries and inputs whose Hermiticity defect max|raw - raw*|
    exceeds 1e-8 times the largest entry magnitude, and it symmetrizes the
    entries to (raw + raw*)/2. The stored array is immutable.

    The entries are given either as an array or, together with the
    decomposition, as a callable that builds them, such as a decomposition's
    ``reconstruct``. The callable runs on the first read of ``matrix``; its
    result is an internal one, which is symmetrized and guarded for
    finiteness (DomainError) but not checked in full. Until then ``dim`` and
    the spectrum come from the decomposition. A HermitianMatrix given as the
    entries hands over its entries, which are already checked. The results
    of sums, scalings and congruences are internal too.
    """

    __slots__ = ("_matrix", "_decomp")

    def __init__(self, entries, *, decomposition: SpectralDecomposition | None = None):
        if isinstance(entries, HermitianMatrix):
            entries = entries.matrix
        elif callable(entries):
            if decomposition is None:
                raise TypeError("entries given as a callable need a decomposition")
        else:
            entries = _checked_entries(entries)
        self._matrix = entries
        self._decomp = decomposition

    @property
    def matrix(self) -> np.ndarray:
        if callable(self._matrix):
            self._matrix = _result_entries(self._matrix())
        return self._matrix

    @property
    def dim(self) -> int:
        if callable(self._matrix):
            return self._decomp.eigenvalues.shape[0]
        return self._matrix.shape[0]

    @property
    def decomposition(self) -> SpectralDecomposition:
        if self._decomp is None:
            self._decomp = _solve(self._matrix)
        return self._decomp

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order (read-only array)."""
        return self.decomposition.eigenvalues

    def __setstate__(self, state: tuple) -> None:
        _restore_read_only(self, state)

    def _binary(self, other, sign: float) -> "HermitianMatrix":
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        _require_same_dim(self, other)
        with np.errstate(over="ignore", invalid="ignore"):
            return _result(self.matrix + sign * other.matrix)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return self._scaled(-1.0)

    def _scaled(self, factor: float) -> "HermitianMatrix":
        """``factor`` times this matrix, of this class for a positive factor."""
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = _result(self.matrix * factor)
        dec = self._decomp
        if dec is not None:
            dec = dec._mapped(dec.eigenvalues * factor, reverse=factor < 0.0)
        cls = type(self) if factor > 0.0 else HermitianMatrix
        return cls(scaled, decomposition=dec)

    def __mul__(self, factor):
        if not isinstance(factor, Real):
            return NotImplemented
        factor = _real(factor, "a matrix scale factor")
        if not math.isfinite(factor):
            raise BadRangeError(f"a matrix scale factor must be finite, got {factor}")
        return self._scaled(factor)

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


def _result(raw: np.ndarray) -> HermitianMatrix:
    """A HermitianMatrix holding an internal result, ``raw`` computed here
    from checked matrices: its entries get only ``_result_entries``, whose
    DomainError is the one signal of an overflow (formed with warnings off)."""
    out = HermitianMatrix.__new__(HermitianMatrix)
    out._matrix = _result_entries(raw)
    out._decomp = None
    return out


def _check_images(values: np.ndarray, name: str, eigenvalues: np.ndarray) -> None:
    """DomainError unless the eigenvalue images of a monotone map, whose
    extremes are its ends, are positive and finite; ``name`` names the map."""
    for end in (0, -1):
        if not 0.0 < values[end] < math.inf:
            fault = "exceeds double range" if values[end] else "underflows to 0 in double precision"
            raise DomainError(f"{name} {fault} at eigenvalue {eigenvalues[end]:.6g}")


def _from_eigen(vals: np.ndarray, vecs: np.ndarray, positive: bool) -> HermitianMatrix:
    order = np.argsort(-vals, kind="stable")
    dec = SpectralDecomposition(vals[order], vecs[:, order])
    cls = PositiveDefiniteMatrix if positive else HermitianMatrix
    return cls(dec.reconstruct, decomposition=dec)


def power(matrix: HermitianMatrix, exponent: float) -> PositiveDefiniteMatrix:
    """Real matrix power of a positive definite matrix via its spectrum."""
    r = _real(exponent, "exponent")
    if math.isnan(r):
        raise BadRangeError(f"exponent must not be NaN, got {r}")
    dec = matrix.decomposition
    if dec.eigenvalues[-1] <= 0.0:
        raise DomainError("matrix power requires a positive definite input")
    if r == 1.0 and isinstance(matrix, PositiveDefiniteMatrix):
        return matrix
    with np.errstate(over="ignore"):
        vals = dec.eigenvalues**r
    _check_images(vals, f"matrix power X^{r:g}", dec.eigenvalues)
    dec_out = dec._mapped(vals, reverse=r < 0.0)
    return PositiveDefiniteMatrix(dec_out.reconstruct, decomposition=dec_out)


def exp_h(matrix: HermitianMatrix) -> PositiveDefiniteMatrix:
    """Matrix exponential of a Hermitian matrix (always positive definite)."""
    dec = matrix.decomposition
    with np.errstate(over="ignore"):
        vals = np.exp(dec.eigenvalues)
    _check_images(vals, "matrix exponential e^X", dec.eigenvalues)
    dec_out = dec._mapped(vals)
    return PositiveDefiniteMatrix(dec_out.reconstruct, decomposition=dec_out)


def log_pd(matrix: HermitianMatrix) -> HermitianMatrix:
    """Matrix logarithm; DomainError unless the input is positive definite."""
    dec = matrix.decomposition
    if dec.eigenvalues[-1] <= 0.0:
        raise DomainError("matrix logarithm requires a positive definite input")
    vals = np.log(dec.eigenvalues)
    dec_out = dec._mapped(vals)
    return HermitianMatrix(dec_out.reconstruct, decomposition=dec_out)


def _singular_values_desc(matrix: HermitianMatrix) -> np.ndarray:
    return np.sort(np.abs(matrix.eigenvalues))[::-1]


def _norm_family(matrix: HermitianMatrix) -> np.ndarray:
    """Ky Fan 1..n, then Schatten 1, 2 and inf, from the cumulative sums of
    the singular values."""
    sv = _singular_values_desc(matrix)
    ky_fan = np.cumsum(sv)
    # squares of sv scaled by a power of two (exact) to below 1 cannot overflow
    exponent = math.frexp(sv[0])[1]
    schatten_2 = np.ldexp(np.sqrt(np.sum(np.ldexp(sv, -exponent) ** 2)), exponent)
    return np.concatenate([ky_fan, [ky_fan[-1], schatten_2, sv[0]]])


def ky_fan_norm(matrix: HermitianMatrix, k: int) -> float:
    """Sum of the k largest singular values, 1 <= k <= n."""
    k = _integer(k, "Ky Fan index", BadIndexError)
    if k < 1 or k > matrix.dim:
        raise BadIndexError(f"Ky Fan index {k} outside 1..{matrix.dim}")
    return float(_norm_family(matrix)[k - 1])


def schatten_norm(matrix: HermitianMatrix, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}."""
    for offset, order in enumerate((1, 2, math.inf)):
        if p == order and not isinstance(p, bool):
            return float(_norm_family(matrix)[matrix.dim + offset])
    raise BadIndexError(f"Schatten order must be 1, 2 or inf, got {p!r}")


def trace(matrix: HermitianMatrix) -> complex:
    return complex(np.trace(matrix.matrix))


def frobenius_distance(a: HermitianMatrix, b: HermitianMatrix) -> float:
    _require_same_dim(a, b)
    parts = (a.matrix - b.matrix).view(np.float64)
    # scaled by a power of two (exact) to below 1, the squares cannot overflow
    exponent = math.frexp(np.abs(parts).max())[1]
    scaled = np.ldexp(parts, -exponent).view(np.complex128)
    return float(np.ldexp(np.linalg.norm(scaled), exponent))


def congruence(transform: np.ndarray, matrix: HermitianMatrix) -> HermitianMatrix:
    """T X T* for a complex transform T with matching column count.

    T may be rectangular (k x n against an n x n matrix); the result is k x k.
    T enters here and must be finite; the result is an internal one.
    """
    t = _array(transform, np.complex128, "transform entries")
    if t.ndim != 2 or t.shape[1] != matrix.dim:
        raise DimMismatchError(f"transform shape {t.shape} does not match dim {matrix.dim}")
    if not np.isfinite(t).all():
        raise NotHermitianError("transform entries must be finite (got NaN or Inf)")
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(t @ matrix.matrix @ t.conj().T)


def inv_sqrt_congruence(anchor: HermitianMatrix, matrix: HermitianMatrix) -> HermitianMatrix:
    """A^{-1/2} X A^{-1/2} with a condition-number safeguard on the anchor."""
    _require_same_dim(anchor, matrix)
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

