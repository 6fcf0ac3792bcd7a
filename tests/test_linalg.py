"""Matrix core: construction, Jacobi spectra, functions, norms."""

import gc
import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from golden_bounds.errors import (
    BadIndexError,
    CondError,
    DimMismatchError,
    DomainError,
    NoConvergenceError,
    NonSquareError,
    NotHermitianError,
)
from golden_bounds import linalg
from golden_bounds.linalg import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    _singular_values_desc,
    congruence,
    exp_h,
    frobenius_distance,
    inv_sqrt_congruence,
    ky_fan_norm,
    log_pd,
    power,
    schatten_norm,
    trace,
)
from golden_bounds.means import geometric_mean, log_euclidean, mean_power
from golden_bounds.orders import loewner_leq

import oracles


def random_hermitian(rng, n) -> HermitianMatrix:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix((raw + raw.conj().T) / 2.0)


def random_pd_array(rng, n) -> PositiveDefiniteMatrix:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return PositiveDefiniteMatrix(raw @ raw.conj().T + 0.5 * np.eye(n))


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_construction_symmetrizes_small_defects():
    m = HermitianMatrix([[1.0, 0.5 + 1e-12j], [0.5, 2.0]])
    assert np.allclose(m.matrix, m.matrix.conj().T)
    # the stored entry is the mean of the entry and its mirror's conjugate
    assert m.matrix[0, 1] == 0.5 + 0.5e-12j


@pytest.mark.parametrize(
    "entries",
    [
        [[1.0, 1.0], [0.0, 1.0]],
        # the defect raw - raw* would overflow to inf here; its halves do not
        [[0.0, 1.5e308], [-1.5e308, 0.0]],
    ],
)
def test_construction_rejects_large_defect(entries):
    with pytest.raises(NotHermitianError, match="Hermiticity defect"):
        HermitianMatrix(entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_construction_rejects_non_finite_entries(bad):
    # A NaN defect compares false against the Hermiticity threshold, so only
    # an explicit finiteness check keeps such input out of the eigensolver.
    with pytest.raises(NotHermitianError, match="finite"):
        HermitianMatrix([[1.0, bad], [bad, 1.0]])
    with pytest.raises(NotHermitianError, match="finite"):
        PositiveDefiniteMatrix([[bad, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("bad", [[[1.0, 2.0]], [[[1.0]]], np.zeros((0, 0))])
def test_construction_rejects_non_square(bad):
    with pytest.raises(NonSquareError):
        HermitianMatrix(bad)


def test_stored_matrix_is_immutable():
    m = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 5.0


def test_positive_definite_rejects_indefinite():
    with pytest.raises(DomainError):
        PositiveDefiniteMatrix([[1.0, 0.0], [0.0, -0.5]])


def test_positive_definite_properties():
    p = PositiveDefiniteMatrix([[2.0, 0.0], [0.0, 0.5]])
    assert p.eigenvalues[-1] == pytest.approx(0.5)


def test_scalar_multiplication_and_class_propagation():
    p = PositiveDefiniteMatrix([[2.0, 0.0], [0.0, 0.5]])
    doubled = p * 2.0
    assert isinstance(doubled, PositiveDefiniteMatrix)
    assert doubled.eigenvalues == pytest.approx([4.0, 1.0])
    flipped = p * -1.0
    assert not isinstance(flipped, PositiveDefiniteMatrix)
    assert flipped.eigenvalues == pytest.approx([-0.5, -2.0])
    assert (2.0 * p).eigenvalues == pytest.approx([4.0, 1.0])


def test_addition_subtraction_dimension_checks():
    a = HermitianMatrix(np.eye(2))
    b = HermitianMatrix(np.eye(3))
    with pytest.raises(DimMismatchError):
        _ = a + b
    c = a + a
    assert np.allclose(c.matrix, 2.0 * np.eye(2))
    assert np.allclose((-a).matrix, -np.eye(2))


# ---------------------------------------------------------------------------
# Spectra: Jacobi against closed forms and invariants
# ---------------------------------------------------------------------------


def test_two_by_two_spectra_match_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(300):
        m = random_hermitian(rng, 2)
        top, bottom = oracles.eig2_closed_form(m.matrix)
        scale = max(abs(top), abs(bottom), 1.0)
        assert m.eigenvalues[0] == pytest.approx(top, abs=1e-12 * scale)
        assert m.eigenvalues[1] == pytest.approx(bottom, abs=1e-12 * scale)


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8):
        m = random_hermitian(rng, n)
        dec = m.decomposition
        assert np.linalg.norm(dec.reconstruct() - m.matrix) <= 1e-12 * max(
            np.linalg.norm(m.matrix), 1.0
        )
        v = dec.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12
        assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)


def test_decomposition_arrays_read_only():
    m = HermitianMatrix(np.diag([2.0, 1.0]))
    with pytest.raises(ValueError):
        m.decomposition.eigenvalues[0] = 7.0


def test_diagonal_matrix_spectrum_exact():
    m = HermitianMatrix(np.diag([3.0, -1.0, 2.0]))
    assert list(m.eigenvalues) == [3.0, 2.0, -1.0]


def test_repeated_eigenvalues_handled():
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(raw)
    m = HermitianMatrix((q * np.array([2.0, 2.0, 2.0, 1.0])) @ q.conj().T)
    assert m.eigenvalues == pytest.approx([2.0, 2.0, 2.0, 1.0], abs=1e-12)


# ---------------------------------------------------------------------------
# The Jacobi kernel itself, against LAPACK (np.linalg.eigh is for tests only)
# ---------------------------------------------------------------------------


def jacobi_eigenpairs(a):
    """Eigenvalues from ``_jacobi`` and eigenvectors from the replay of its log."""
    vals, log = linalg._jacobi(a)
    return vals, log.replay()


def assert_accurate_decomposition(a, vals, vecs):
    n = a.shape[0]
    scale = np.linalg.norm(a)
    assert vals.dtype == np.float64 and vals.shape == (n,)
    assert vecs.dtype == np.complex128 and vecs.flags.c_contiguous
    assert list(vals) == sorted(vals, reverse=True)
    reference = np.linalg.eigh(a)[0][::-1]
    assert np.max(np.abs(vals - reference)) <= 1e-13 * scale
    assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-13 * scale
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 11, 16, 17, 24, 48])
def test_jacobi_matches_eigh(n):
    rng = np.random.default_rng(100 + n)
    for trial in range(12 if n <= 8 else 3):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if trial % 3 == 2:
            raw = raw.real.astype(np.complex128)
        a = (raw + raw.conj().T) / 2.0
        assert_accurate_decomposition(a, *jacobi_eigenpairs(a))


@pytest.mark.parametrize("coupling", [1e-200, 1e-320])
def test_jacobi_huge_tau_branches(coupling):
    # Index 0 couples to the rest only through a[0, 1] = coupling, so the
    # first rotation, on pair (0, 1), sees tau = 1 / (2 * coupling).
    a = np.array(
        [[0.0, coupling, 0.0], [coupling, 1.0, 0.5], [0.0, 0.5, 2.0]], dtype=np.complex128
    )
    vals, vecs = jacobi_eigenpairs(a)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))
    assert_accurate_decomposition(a, vals, vecs)
    if coupling == 1e-200:
        # tau = 5e199 > 1e150 takes t = 1 / (2 tau); the root formula would
        # square tau to inf, give t = 0 and leave the null vector exactly e_0.
        assert coupling / 2.0 <= abs(vecs[1, 2]) <= 2.0 * coupling
    else:
        # tau overflows to inf and the pair is skipped.
        assert np.array_equal(vecs[:, 2], [1.0, 0.0, 0.0])


def test_jacobi_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 4).matrix
    with pytest.raises(NoConvergenceError, match="sweep cap 1 hit"):
        linalg._jacobi(a)
    # One rotation zeroes a 2x2 exactly, so one sweep is enough there.
    b = random_hermitian(rng, 2).matrix
    assert_accurate_decomposition(b, *jacobi_eigenpairs(b))


@pytest.mark.parametrize(
    "diagonal",
    [[4.5], [3.0, -1.0, 2.0], [1.0, 1.0, 0.0, 1.0], [0.0, 0.0], [i % 5 - 2.0 for i in range(16)]],
)
def test_jacobi_makes_no_rotation_on_diagonal_input(diagonal):
    # Any rotation would leave inexact eigenvector entries; none may remain.
    vals, vecs = jacobi_eigenpairs(np.diag(np.array(diagonal, dtype=np.complex128)))
    order = np.argsort(-np.array(diagonal), kind="stable")
    assert vals.tolist() == [diagonal[i] for i in order]
    assert np.array_equal(vecs, np.eye(len(diagonal))[:, order])
    assert vecs.dtype == np.complex128 and vecs.flags.c_contiguous


# The round-robin kernel, which _jacobi runs from linalg._ROUND_ROBIN_MIN_N up


@pytest.mark.parametrize("n", [9, 10, 11, 16, 17])
def test_round_robin_schedule_rotates_each_pair_once_per_sweep(n):
    rounds, off_diagonal = linalg._round_robin_schedule(n)
    assert len(rounds) == n - 1 + n % 2
    seen = []
    for flat in rounds:
        diagonal, pq, qp, qq = np.split(flat, 4)
        p, q = divmod(pq, n)
        assert np.array_equal(diagonal, p * (n + 1)) and np.array_equal(qq, q * (n + 1))
        assert np.array_equal(qp, q * n + p) and np.all(p < q)
        # disjoint: each index in at most one pair, and at even n in one
        assert len(set(p) | set(q)) == 2 * len(p) == n - n % 2
        seen += zip(p.tolist(), q.tolist())
    assert sorted(seen) == [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    assert np.array_equal(off_diagonal, ~np.eye(n, dtype=bool))


def test_round_robin_runs_from_the_crossover_up():
    crossover = linalg._ROUND_ROBIN_MIN_N
    for n in (crossover - 1, crossover):
        a = random_hermitian(np.random.default_rng(n), n).matrix
        assert linalg._jacobi(a)[1].rounds == (n == crossover)


def test_round_robin_leaves_decoupled_indices_exact():
    # indices coupled to nothing keep their diagonal entry as eigenvalue and
    # their unit vector as eigenvector, bit for bit; a coupled block's
    # eigenvectors vanish exactly off the block
    n = 16
    block = [3, 7, 8, 12]
    rng = np.random.default_rng(19)
    a = np.diag(100.0 + np.arange(n)).astype(np.complex128)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a[np.ix_(block, block)] = (raw + raw.conj().T) / 2.0
    vals, vecs = jacobi_eigenpairs(a)
    assert_accurate_decomposition(a, vals, vecs)
    free = [i for i in range(n) if i not in block][::-1]
    assert vals[:12].tolist() == [100.0 + i for i in free]
    assert np.array_equal(vecs[:, :12], np.eye(n)[:, free])
    assert not vecs[free, 12:].any()


@pytest.mark.parametrize("coupling", [1e-200, 1e-320])
def test_round_robin_huge_tau_branches(coupling):
    # test_jacobi_huge_tau_branches' matrix at indices 0, 1, 2 of a 16 x 16
    # whose other indices couple to nothing
    a = np.diag(10.0 + np.arange(16)).astype(np.complex128)
    a[:3, :3] = [[0.0, coupling, 0.0], [coupling, 1.0, 0.5], [0.0, 0.5, 2.0]]
    vals, vecs = jacobi_eigenpairs(a)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))
    assert_accurate_decomposition(a, vals, vecs)
    if coupling == 1e-200:
        # t = 1 / (tau + hypot(1, tau)) = 1 / (2 tau) at tau = 5e199
        assert coupling / 2.0 <= abs(vecs[1, 15]) <= 2.0 * coupling
    else:
        # tau overflows to inf, on every pair with index 0, and those pairs
        # are skipped: its row and column of G stay e_0
        assert np.array_equal(vecs[:, 15], np.eye(16)[0])
        assert vals[15] == 0.0


@pytest.mark.parametrize("n", [11, 16])
@pytest.mark.parametrize("power", [1000, -1000])
def test_round_robin_scales_its_input_by_a_power_of_two(n, power):
    # entries at 2^+-1000 are rotated as their copy scaled into
    # [2^-400, 2^400], which changes no rotation: the eigenvalues are the
    # unscaled ones times 2^power and the eigenvectors are the same bits
    a = random_hermitian(np.random.default_rng(23 + n), n).matrix
    vals, vecs = jacobi_eigenpairs(a)
    scaled_vals, scaled_vecs = jacobi_eigenpairs(np.ldexp(a.view(np.float64), power).view(a.dtype))
    assert scaled_vals.tobytes() == np.ldexp(vals, power).tobytes()
    assert scaled_vecs.tobytes() == vecs.tobytes()


def test_round_robin_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 16).matrix
    with pytest.raises(NoConvergenceError, match="sweep cap 1 hit"):
        linalg._jacobi(a)
    # a single coupled pair: its rotation zeroes it, so one sweep is enough
    b = np.diag(np.arange(16.0)).astype(np.complex128)
    b[4, 11], b[11, 4] = 0.5 + 0.25j, 0.5 - 0.25j
    assert_accurate_decomposition(b, *jacobi_eigenpairs(b))


def test_round_robin_repeated_eigenvalues():
    # u u* + 2I: eigenvalue 2 fifteen times
    rng = np.random.default_rng(29)
    u = rng.normal(size=16) + 1j * rng.normal(size=16)
    a = np.outer(u, u.conj()) + 2.0 * np.eye(16)
    a = (a + a.conj().T) / 2.0
    vals, vecs = jacobi_eigenpairs(a)
    assert_accurate_decomposition(a, vals, vecs)
    assert np.max(np.abs(vals[1:] - 2.0)) <= 1e-14 * vals[0]
    assert abs(vals[0] - 2.0 - np.vdot(u, u).real) <= 1e-14 * vals[0]


def kernel_digest_inputs() -> dict:
    """Seeded Hermitian arrays for the frozen kernel digests.

    They are built from normal draws with additions, halvings and Python
    scalar products only, so no BLAS call or numpy CPU dispatch touches their
    bits.  Below linalg._ROUND_ROBIN_MIN_N neither does the kernel, which
    runs on Python scalars there; the round-robin kernel at n = 16 rotates
    with BLAS products, whose bits depend on the BLAS kernel.
    """
    rng = np.random.default_rng(2024)
    cases = {}
    for n in (1, 2, 3, 4, 5, 6, 8, 16):
        for trial in range(3):
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            name = f"n{n}-complex-{trial}"
            if trial == 2:
                raw = raw.real.astype(np.complex128)
                name = f"n{n}-real"
            cases[name] = (raw + raw.conj().T) / 2.0
    cases["diagonal"] = np.diag(np.array([3.0, -1.0, 2.0, 2.0], dtype=np.complex128))
    # tau = 5e199 on the first rotation: the |tau| > 1e150 branch
    cases["coupling-1e-200"] = np.array(
        [[0.0, 1e-200, 0.0], [1e-200, 1.0, 0.5], [0.0, 0.5, 2.0]], dtype=np.complex128
    )
    # u u* + 2I: eigenvalue 2 four times
    u = [complex(x, y) for x, y in rng.normal(size=(5, 2))]
    rank_one = np.array(
        [
            [x * y.conjugate() + (2.0 if i == j else 0.0) for j, y in enumerate(u)]
            for i, x in enumerate(u)
        ]
    )
    cases["repeated"] = (rank_one + rank_one.conj().T) / 2.0
    return cases


#: sha256 of eigenvalues.tobytes() + eigenvectors.tobytes().  Below n = 16
#: they were frozen from the cyclic kernel that built its eigenvectors while
#: it rotated, on both triangles; the n16 ones from the round-robin kernel
#: on OpenBLAS's Haswell kernel, which any x86-64 CPU with AVX2 runs, so
#: they hold whatever kernel OpenBLAS would pick for the host (numpy's CPU
#: dispatch does not move them: they read the same with its X86_V4 loops
#: disabled).
#: On real inputs ("-real") every imaginary part is zero, and the sign of such
#: a zero in an eigenvector may differ from that first kernel's, so those
#: digests are taken after adding 0.0, which turns -0.0 into 0.0.
KERNEL_SHA256 = {
    "n1-complex-0": "68f0ab7c0cce5d3bf31c1325f035339d2ba7691b09d8c25c224657a6187b7ba2",
    "n1-complex-1": "f6cab86dd25d5f229d961e1eb117c54c2ca2df8ee8d566d48139571b83d9c93d",
    "n1-real": "f2b56f6adeb4e1e016b67a4a10e78f2dfb2ffa8179b3f1f6e8906f4007aaf61b",
    "n2-complex-0": "da8c550ba950d786133ffd6d233af76ef61b2170e8d265963e66a0fe363e7071",
    "n2-complex-1": "848461c1a44a2bbb2bb20afd0ce0784e2d480a18b320b476a1a309df2149164b",
    "n2-real": "7d381ed601c368e671ae222fb01210987feb9bab6ed6d14daf8f41de90173e1a",
    "n3-complex-0": "b7cd9e187a6e00963c396803e9d0fbba40aba0839375e7dfd7a1f95c51740ab9",
    "n3-complex-1": "e68d173f12421c390354fe776c1e3ae2c4417bec7fa046ecc13d7ec6ba459fec",
    "n3-real": "a8d4f14fb1e0e9913caf0e98f041feb75adbccd5693dd10afc5d32c935a97b73",
    "n4-complex-0": "8c5220263b70a5d2310ae0359b323d05842500779b80e001703d6ed90daa2846",
    "n4-complex-1": "1312a5869893e5cd1deae24d33f368ca4a4d64c610890704e5090d3633c0671b",
    "n4-real": "08465e15eef726658f1e0ad8c10efc88ebc466084092e8d088a5b34480c79af7",
    "n5-complex-0": "e63adc0b92357f3698d474e3f24bc5bd9076137efc21407285964edde0ac8915",
    "n5-complex-1": "9ca898a61878686b0157d65243f463b6f4f5c6f5331433e75484241dfb620220",
    "n5-real": "552601abbdaf9bd6647211151ffd8ab001d9f72049133d38ee9bd636daa5dca4",
    "n6-complex-0": "f6694208fcfb1bef931ec212dbfdcfee3575100241b377b91b380fa87d28f0fb",
    "n6-complex-1": "eb91fe567d30d55f255a87955df8b174951ea141c1b8d60327fbcb00b7c93409",
    "n6-real": "29d84722bfc459ccec904a188df43b16fc610201c1a18c1d900ec11547e64840",
    "n8-complex-0": "b1f76684a62e484678fe603bf78c9899c1ebd7ce2ad5ae735f2d59fa7da621b0",
    "n8-complex-1": "6356246e15569b502dbdd859ef3b216f70eab43cc13db4150ef6845f43b675a5",
    "n8-real": "687b50c4402262a8e8b48b5185e569ed065d13747479ff95901d68c81751cabd",
    "n16-complex-0": "3e44bc47862494557483962e6d437c290d36db212288e7682c60918a6cebd803",
    "n16-complex-1": "83cf2e98d9ee361811889e3ff56e1d95d465a5465ea406a7202b7f06d7779024",
    "n16-real": "b169d556edc2f4b4ff7578ee819276cfcc3c20b87a970d1b4dbee60745813ca8",
    "diagonal": "26ae4518f399cb3df4fc1e1449184fcf0a725cdc1dbeeaa56e643d7566ea268d",
    "coupling-1e-200": "07fe390493a0e39377835ecf03ee0a373db280b5bfba98d53fb859e2731fba86",
    "repeated": "71bde21d0f91cabbccf7931ee6b11a3a6430d4a9958faf316640c0eb3fcab441",
}


def kernel_digests() -> dict:
    """The KERNEL_SHA256 digest of each of kernel_digest_inputs(), computed
    in this process."""
    digests = {}
    for name, a in kernel_digest_inputs().items():
        vals, vecs = jacobi_eigenpairs(a)
        if name.endswith("-real"):
            vecs = vecs + 0.0
        digests[name] = hashlib.sha256(vals.tobytes() + vecs.tobytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def haswell_kernel_digests() -> dict:
    """kernel_digests() computed in a new process on OpenBLAS's Haswell
    kernel: OpenBLAS picks its kernel as it loads, so this process, which
    has loaded it, cannot switch."""
    path = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(linalg.__file__))]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(path)}
    code = "import json, test_linalg; print(json.dumps(test_linalg.kernel_digests()))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_kernel_digest_table_covers_every_input():
    assert set(KERNEL_SHA256) == set(kernel_digest_inputs())


@pytest.mark.parametrize("name", sorted(KERNEL_SHA256))
def test_jacobi_bits_are_frozen(haswell_kernel_digests, name):
    assert haswell_kernel_digests[name] == KERNEL_SHA256[name]


# ---------------------------------------------------------------------------
# Eigenvectors built on first read, by replaying the rotation log
# ---------------------------------------------------------------------------


@pytest.fixture
def solver_counts(monkeypatch):
    """Count the eigensolves, the rotation-log replays and the builds of
    pending matrix entries made from here on."""
    counts = {"jacobi": 0, "replay": 0, "builds": 0}
    jacobi, replay = linalg._jacobi, linalg._RotationLog.replay
    matrix = linalg.HermitianMatrix.matrix

    def counting_jacobi(m):
        counts["jacobi"] += 1
        return jacobi(m)

    def counting_replay(log):
        counts["replay"] += 1
        return replay(log)

    def counting_matrix(m):
        if callable(m._matrix):
            counts["builds"] += 1
        return matrix.fget(m)

    monkeypatch.setattr(linalg, "_jacobi", counting_jacobi)
    monkeypatch.setattr(linalg._RotationLog, "replay", counting_replay)
    monkeypatch.setattr(linalg.HermitianMatrix, "matrix", property(counting_matrix))
    return counts


@pytest.mark.parametrize("n", [5, 16])
def test_eigenvectors_replay_once_into_one_read_only_array(solver_counts, n):
    m = random_hermitian(np.random.default_rng(41), n)
    dec = m.decomposition
    assert solver_counts == {"jacobi": 1, "replay": 0, "builds": 0}
    first = dec.eigenvectors
    second = dec.eigenvectors
    assert first is second
    assert not first.flags.writeable
    assert solver_counts == {"jacobi": 1, "replay": 1, "builds": 0}
    assert np.array_equal(first, jacobi_eigenpairs(m.matrix)[1])


def test_eigenvalues_of_a_geometric_mean_leave_its_log_pending(solver_counts):
    rng = np.random.default_rng(43)
    a, b = random_pd_array(rng, 4), random_pd_array(rng, 4)
    mean = geometric_mean(a, b, 0.3)
    before = dict(solver_counts)
    mean.eigenvalues
    assert solver_counts == before
    mean.decomposition.eigenvectors
    assert solver_counts == dict(before, replay=before["replay"] + 1)


def test_loewner_check_on_a_difference_never_replays(solver_counts):
    rng = np.random.default_rng(47)
    a = random_pd_array(rng, 4)
    b = a + PositiveDefiniteMatrix(np.eye(4))
    assert solver_counts == {"jacobi": 2, "replay": 0, "builds": 0}
    assert loewner_leq(a, b)
    assert solver_counts == {"jacobi": 3, "replay": 0, "builds": 0}


def test_derived_spectra_make_no_second_eigensolve(solver_counts):
    rng = np.random.default_rng(53)
    pd = random_pd_array(rng, 4)
    h = random_hermitian(rng, 4)
    h.decomposition
    derived = [-h, 2.5 * h, -0.5 * pd, 3.0 * pd]
    assert isinstance(derived[3], PositiveDefiniteMatrix)
    for m in derived:
        m.eigenvalues
    assert solver_counts == {"jacobi": 2, "replay": 0, "builds": 0}
    neg = derived[0].decomposition.eigenvectors
    assert solver_counts["replay"] == 1
    assert np.array_equal(neg, h.decomposition.eigenvectors[:, ::-1])
    assert derived[1].decomposition.eigenvectors is h.decomposition.eigenvectors
    # matrix functions leave their entries, and so pd's log, pending
    results = [power(pd, 0.7), power(pd, -1.5), exp_h(h), exp_h(-0.5 * pd)]
    assert solver_counts == {"jacobi": 2, "replay": 1, "builds": 0}
    results[0].matrix
    assert solver_counts == {"jacobi": 2, "replay": 2, "builds": 1}
    for m in results[1:]:
        m.matrix
    assert solver_counts == {"jacobi": 2, "replay": 2, "builds": 4}


def test_spectra_of_means_build_no_entries_and_replay_no_result_log(solver_counts):
    rng = np.random.default_rng(59)
    h, k = random_hermitian(rng, 4), random_hermitian(rng, 4)
    log_euclidean(h, k, 0.3).eigenvalues
    # one eigensolve of the weighted sum; its log and the exponential's
    # entries stay pending
    assert solver_counts == {"jacobi": 1, "replay": 0, "builds": 0}
    before = dict(solver_counts)
    result = mean_power(h, k, 0.3, 0.5)
    result.eigenvalues
    spent = {key: solver_counts[key] - before[key] for key in before}
    # eigensolves of qH, qK, the inner congruence and the mean; the mean's
    # log is the one not replayed, and the mean's power is never built
    assert spent == {"jacobi": 4, "replay": 3, "builds": 2}
    result.matrix
    assert solver_counts["replay"] == before["replay"] + 4
    assert solver_counts["builds"] == before["builds"] + 3


def test_pending_entries_build_once_as_the_eager_constructor_would(solver_counts):
    out = power(random_pd_array(np.random.default_rng(61), 5), 0.3)
    assert solver_counts["builds"] == 0
    raw = out.decomposition.reconstruct()
    first = out.matrix
    assert solver_counts["builds"] == 1
    assert first.tobytes() == ((raw + raw.conj().T) / 2.0).tobytes()
    assert not first.flags.writeable
    assert out.matrix is first
    assert solver_counts["builds"] == 1


def test_dim_and_eigenvalues_of_pending_entries_build_nothing(solver_counts):
    h = random_hermitian(np.random.default_rng(67), 3)
    results = [exp_h(h), log_pd(exp_h(h)), power(exp_h(h), 2.0)]
    for m in results:
        assert m.dim == 3
        m.eigenvalues
        repr(m)
    assert solver_counts["builds"] == 0


def test_pending_entries_need_a_decomposition():
    with pytest.raises(TypeError):
        HermitianMatrix(lambda: np.eye(2))


def test_checked_entries_are_not_checked_again(solver_counts, monkeypatch):
    # A caller's array gets one full check where it enters; a result made
    # from checked matrices (a positive scaling, a geometric mean, a sum, a
    # congruence, a matrix function's entries) gets none, only the
    # symmetrization and its finiteness guard.
    full, internal = [], []
    check, result_entries = linalg._checked_entries, linalg._result_entries

    def counting_check(entries):
        full.append(entries)
        return check(entries)

    def counting_result_entries(raw):
        internal.append(raw)
        return result_entries(raw)

    monkeypatch.setattr(linalg, "_checked_entries", counting_check)
    monkeypatch.setattr(linalg, "_result_entries", counting_result_entries)
    rng = np.random.default_rng(71)
    a, b = random_pd_array(rng, 3), random_pd_array(rng, 3)
    assert (len(full), len(internal)) == (2, 0)
    full.clear()
    solver_counts.update(jacobi=0)
    doubled = a * 2.0
    assert isinstance(doubled, PositiveDefiniteMatrix)
    assert (len(full), len(internal)) == (0, 1)
    assert solver_counts["jacobi"] == 0
    internal.clear()
    mean = geometric_mean(a, b, 0.3)
    assert isinstance(mean, PositiveDefiniteMatrix)
    # the inner congruence, the entries of its power, the outer congruence
    assert (len(full), len(internal)) == (0, 3)
    assert solver_counts["jacobi"] == 2
    internal.clear()
    (a + b).matrix, congruence(np.eye(3), a).matrix, exp_h(a).matrix
    assert (len(full), len(internal)) == (0, 3)


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1.0, 1e20, 1e300])
def test_symmetrization_keeps_the_bits_of_raw_plus_raw_star_over_two(scale):
    # raw/2 + (raw/2)* is formed so as not to overflow; away from subnormal
    # halves it rounds exactly as (raw + raw*)/2, the reference here.
    rng = np.random.default_rng(73)
    for n in (1, 2, 3, 6, 16):
        raw = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale
        expected = (raw + raw.conj().T) / 2.0
        assert linalg._result_entries(raw).tobytes() == expected.tobytes()


def test_entries_near_the_top_of_double_range_build_unchanged():
    # (raw + raw*)/2 would overflow in the sum at 1e308; the halves do not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = HermitianMatrix(1e308 * np.eye(2))
        offdiagonal = HermitianMatrix([[0.0, 1.5e308j], [-1.5e308j, 1e308]])
    assert np.array_equal(m.matrix, 1e308 * np.eye(2))
    assert offdiagonal.matrix[0, 1] == 1.5e308j


def test_complex_entries_whose_moduli_leave_double_range_are_checked():
    # |1.5e308 + 1.5e308j| exceeds double range, but the entries are finite:
    # the array is Hermitian and builds, and its non-Hermitian twin is
    # rejected for its defect, not for its finiteness
    entry = complex(1.5e308, 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = HermitianMatrix([[0.0, entry], [entry.conjugate(), 0.0]])
        with pytest.raises(NotHermitianError, match="Hermiticity defect"):
            HermitianMatrix([[0.0, entry], [-entry.conjugate(), 0.0]])
    assert m.matrix[0, 1] == entry and m.matrix[1, 0] == entry.conjugate()


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1.0, 1e20, 1e300])
def test_hermiticity_verdict_and_message_are_those_of_the_unscaled_entries(scale):
    # the check runs on quarters of the entries; for normal numbers its
    # verdict and its message are those of max|raw - raw*| > 1e-8 max|raw|
    rng = np.random.default_rng(79)
    for n in (2, 3, 6):
        for ratio in (0.5, 0.99, 1.01, 2.0):
            hermitian = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            hermitian += hermitian.conj().T
            defect = ratio * 1e-8 * float(np.max(np.abs(hermitian)))
            raw = (hermitian + defect * np.triu(np.ones((n, n)), 1)) * scale
            gap = float(np.max(np.abs(raw - raw.conj().T)))
            bound = 1e-8 * float(np.max(np.abs(raw)))
            if gap > bound:
                message = f"Hermiticity defect {gap:.3e} exceeds 1e-08 * max|entry| = {bound:.3e}"
                with pytest.raises(NotHermitianError) as excinfo:
                    HermitianMatrix(raw)
                assert str(excinfo.value) == message
            else:
                HermitianMatrix(raw)


# ---------------------------------------------------------------------------
# The spectral cache: one solve per distinct entry array
# ---------------------------------------------------------------------------


def test_matrices_with_the_same_bytes_share_one_decomposition():
    a = random_hermitian(np.random.default_rng(83), 5).matrix
    first, second = HermitianMatrix(a), PositiveDefiniteMatrix(a @ a + np.eye(5))
    again = HermitianMatrix(a.copy())
    assert again.decomposition is first.decomposition
    assert second.decomposition is not first.decomposition
    assert again.decomposition.eigenvectors is first.decomposition.eigenvectors
    assert linalg._CACHE.tally["hits"] == 1 and linalg._CACHE.tally["misses"] == 2
    vals, vecs = jacobi_eigenpairs(a)
    assert first.eigenvalues.tobytes() == vals.tobytes()
    assert first.decomposition.eigenvectors.tobytes() == vecs.tobytes()
    # entries one ulp apart are another key
    moved = a.copy()
    moved[0, 1] = complex(np.nextafter(a[0, 1].real, np.inf), a[0, 1].imag)
    moved[1, 0] = moved[0, 1].conjugate()
    assert HermitianMatrix(moved).decomposition is not first.decomposition
    assert linalg._CACHE.tally["misses"] == 3


def test_a_wrapped_jacobi_sees_every_solve_and_none_is_stored(solver_counts, monkeypatch):
    a = random_hermitian(np.random.default_rng(89), 4).matrix
    decompositions = [HermitianMatrix(a).decomposition for _ in range(3)]
    assert solver_counts["jacobi"] == 3
    assert len({id(dec) for dec in decompositions}) == 3
    assert not linalg._CACHE.entries
    assert linalg._CACHE.tally == dict.fromkeys(linalg._CACHE.tally, 0)
    monkeypatch.undo()
    HermitianMatrix(a).eigenvalues
    assert linalg._CACHE.tally["misses"] == 1 and linalg._CACHE.tally["hits"] == 0


@pytest.mark.parametrize(
    "name, value",
    [
        ("JACOBI_MAX_SWEEPS", 0),
        ("JACOBI_OFFDIAG_RTOL", 1e-3),
        ("_JACOBI_EXPONENT_LIMIT", 2),
        ("_ROUND_ROBIN_MIN_N", 2),
    ],
)
def test_changed_settings_bypass_the_cache(monkeypatch, name, value):
    a = random_hermitian(np.random.default_rng(97), 4).matrix * 100.0
    cached = HermitianMatrix(a)
    cached.eigenvalues
    monkeypatch.setattr(linalg, name, value)
    if name == "JACOBI_MAX_SWEEPS":
        with pytest.raises(NoConvergenceError, match="sweep cap 0 hit"):
            HermitianMatrix(a).eigenvalues
    else:
        assert HermitianMatrix(a).decomposition is not cached.decomposition
    assert linalg._CACHE.tally["hits"] == 0 and linalg._CACHE.tally["misses"] == 1


def test_a_hit_after_its_holders_are_gone_keeps_the_bits(monkeypatch):
    rng = np.random.default_rng(101)
    a, b = random_hermitian(rng, 6).matrix, random_hermitian(rng, 5).matrix
    (a_vals, a_vecs), (b_vals, b_vecs) = jacobi_eigenpairs(a), jacobi_eigenpairs(b)
    # a's eigenvectors are read while a holder lives, b's never are
    built = HermitianMatrix(a).decomposition.eigenvectors
    HermitianMatrix(b).eigenvalues
    gc.collect()
    # the cache keeps no log: a new holder of a gets the stored columns, and
    # one of b solves b's bytes again, under the settings of cached solves
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    later_a, later_b = linalg._CACHE.solve(a), linalg._CACHE.solve(b)
    assert later_a.eigenvectors is built and built.tobytes() == a_vecs.tobytes()
    assert later_b.eigenvectors.tobytes() == b_vecs.tobytes()
    assert later_a.eigenvalues.tobytes() == a_vals.tobytes()
    assert later_b.eigenvalues.tobytes() == b_vals.tobytes()
    assert linalg._CACHE.tally == dict(linalg._CACHE.tally, hits=2, misses=2, resolves=1)


def test_decompositions_in_three_threads_evict_safely():
    # more distinct arrays than the budget holds, so each thread evicts
    # while the others look up and store; at n = 1 a solve is quick, so the
    # threads spend most of their time in the cache
    arrays = [np.array([[float(i)]]) for i in range(1000)]
    expected = [np.array([float(i)]).tobytes() for i in range(1000)]
    orders = [list(range(1000)) * 6, list(range(999, -1, -1)) * 6, list(range(0, 1000, 2)) * 12]
    faults, results = [], {}

    def solve_all(name, order):
        try:
            results[name] = [(i, HermitianMatrix(arrays[i]).eigenvalues.tobytes()) for i in order]
        except Exception as exc:
            faults.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=solve_all, args=(k, order)) for k, order in enumerate(orders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not faults and len(results) == 3
    for pairs in results.values():
        assert all(bits == expected[i] for i, bits in pairs)
    tally = linalg._CACHE.tally
    assert tally["hits"] + tally["misses"] == sum(map(len, orders))
    assert tally["hits"] > 0 and 0 < tally["bytes"] <= linalg._CACHE_BYTES
    assert tally["bytes"] == sum(entry.nbytes() for entry in linalg._CACHE.entries.values())


def test_a_forked_child_starts_with_an_empty_cache():
    HermitianMatrix(random_hermitian(np.random.default_rng(107), 3).matrix).eigenvalues
    assert linalg._CACHE.entries
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        empty = not linalg._CACHE.entries and not any(linalg._CACHE.tally.values())
        os._exit(0 if empty and linalg._CACHE.lock.acquire(blocking=False) else 1)
    assert os.waitpid(pid, 0)[1] == 0
    assert linalg._CACHE.entries


def test_pickled_matrices_and_decompositions_stay_read_only():
    h = random_hermitian(np.random.default_rng(109), 4)
    lazy = exp_h(h)
    # h's cached decomposition goes with it, its eigenvectors not yet built
    copies = [pickle.loads(pickle.dumps(lazy))]
    built = HermitianMatrix(h.matrix)
    built.decomposition.eigenvectors
    copies += [pickle.loads(pickle.dumps(x)) for x in (built, h)]
    for original, copy in zip((lazy, built, h), copies):
        arrays = [copy.matrix, copy.eigenvalues, copy.decomposition.eigenvectors]
        assert not any(array.flags.writeable for array in arrays)
        assert copy.eigenvalues.tobytes() == original.eigenvalues.tobytes()
        assert copy.matrix.tobytes() == original.matrix.tobytes()
    dec = pickle.loads(pickle.dumps(built.decomposition))
    assert not dec.eigenvalues.flags.writeable and not dec.eigenvectors.flags.writeable


# ---------------------------------------------------------------------------
# The shifted Cholesky positivity predicate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shift", [1e-8, 1e-3])
@pytest.mark.parametrize("placement", [-2.0, -0.5, 0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 16])
def test_cholesky_verdict_matches_spectrum(n, placement, shift):
    rng = np.random.default_rng(1000 * n + int(4 * placement))
    for _ in range(4):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        smallest = placement * shift
        vals = np.concatenate([[smallest], rng.uniform(0.1, 2.0, size=n - 1)])
        m = HermitianMatrix((q * vals) @ q.conj().T)
        verdict = linalg._cholesky_succeeds(m.matrix, shift)
        assert verdict == bool(m.eigenvalues[-1] >= -shift)
        assert verdict == (placement > -1.0)


def test_cholesky_edge_cases():
    zero = np.zeros((3, 3), dtype=np.complex128)
    assert linalg._cholesky_succeeds(zero, 1e-12)
    assert not linalg._cholesky_succeeds(zero, 0.0)
    assert linalg._cholesky_succeeds(np.array([[-0.5]]), 0.6)
    assert not linalg._cholesky_succeeds(np.array([[-0.5]]), 0.4)
    # An infinite pivot counts as failure, as does one that overflows to
    # -inf through the Schur complement of an indefinite matrix.
    assert not linalg._cholesky_succeeds(np.diag([1e308, 1e308]), 1e308)
    assert not linalg._cholesky_succeeds(np.array([[1e-300, 1e200], [1e200, 1.0]]), 0.0)


# ---------------------------------------------------------------------------
# Matrix functions
# ---------------------------------------------------------------------------


def test_power_identities():
    rng = np.random.default_rng(3)
    p = random_pd_array(rng, 4)
    assert power(p, 1.0) is p
    assert np.allclose(power(p, 0.0).matrix, np.eye(4))
    root = power(p, 0.5)
    assert frobenius_distance(
        HermitianMatrix(root.matrix @ root.matrix), p
    ) <= 1e-12 * np.linalg.norm(p.matrix)
    inv = power(p, -1.0)
    assert np.allclose(inv.matrix @ p.matrix, np.eye(4), atol=1e-11)


def test_power_one_of_a_hermitian_input_is_positive_definite():
    # A positive definite spectrum in a plain HermitianMatrix takes the
    # spectral map at r = 1, as at every other exponent.
    p = random_pd_array(np.random.default_rng(5), 3)
    out = power(HermitianMatrix(p.matrix), 1.0)
    assert isinstance(out, PositiveDefiniteMatrix)
    assert frobenius_distance(out, p) <= 1e-12 * np.linalg.norm(p.matrix)


def test_power_requires_positive_definite():
    m = HermitianMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        power(m, 0.5)


def test_power_overflow_guard():
    p = PositiveDefiniteMatrix(np.diag([1e12, 1.0]))
    with pytest.raises(DomainError):
        power(p, 40.0)


def test_exp_h_matches_taylor_oracle():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        m = random_hermitian(rng, n)
        expected = oracles.taylor_expm(m.matrix)
        got = exp_h(m)
        assert np.linalg.norm(got.matrix - expected) <= 1e-10 * np.linalg.norm(expected)
        assert isinstance(got, PositiveDefiniteMatrix)


def test_exp_h_overflow_guard():
    with pytest.raises(DomainError):
        exp_h(HermitianMatrix(np.diag([800.0, 0.0])))


@pytest.mark.parametrize(
    "function, eigenvalues, message",
    [
        (lambda m: power(m, 3.0), [1e200, 1.0],
         "matrix power X^3 exceeds double range at eigenvalue 1e+200"),
        (lambda m: power(m, 3.0), [1.0, 1e-200],
         "matrix power X^3 underflows to 0 in double precision at eigenvalue 1e-200"),
        (lambda m: power(m, -2.0), [1e200, 1.0],
         "matrix power X^-2 underflows to 0 in double precision at eigenvalue 1e+200"),
        (lambda m: power(m, -2.0), [1.0, 1e-200],
         "matrix power X^-2 exceeds double range at eigenvalue 1e-200"),
        (exp_h, [710.0, 0.0], "matrix exponential e^X exceeds double range at eigenvalue 710"),
        (exp_h, [0.0, -746.0],
         "matrix exponential e^X underflows to 0 in double precision at eigenvalue -746"),
    ],
)
def test_matrix_function_images_stay_in_double_range(function, eigenvalues, message):
    # Overflow or underflow to 0 of an eigenvalue image is a DomainError that
    # names the map, its exponent and the eigenvalue, not a later "not
    # positive definite" or an entry check.
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        function(HermitianMatrix(np.diag(eigenvalues)))


@pytest.mark.parametrize(
    "overflow",
    [
        lambda: congruence(1e200 * np.eye(2), HermitianMatrix(np.eye(2))),
        lambda: HermitianMatrix(1e308 * np.eye(2)) + HermitianMatrix(1e308 * np.eye(2)),
        lambda: HermitianMatrix([[1e308, 1e308], [1e308, 1e308]]) * 10.0,
    ],
    ids=["congruence", "sum", "scaling"],
)
def test_congruence_overflow_raises_where_it_happens(overflow):
    # A product that overflows (and then meets inf * 0) raises the result's
    # DomainError before any matrix holds it, with no numpy warning first:
    # warnings are errors in this suite.
    with pytest.raises(DomainError, match="left double range"):
        overflow()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_entry_point_rejects_non_finite_input(bad):
    finite = np.array([[2.0, 0.5], [0.5, 1.0]])
    spoiled = finite.copy()
    spoiled[1, 1] = bad
    vals, vecs = np.array([2.0, 1.0]), np.eye(2)
    with pytest.raises(NotHermitianError, match="finite"):
        linalg.SpectralDecomposition(np.array([2.0, bad]), vecs)
    with pytest.raises(NotHermitianError, match="finite"):
        linalg.SpectralDecomposition(vals, spoiled)
    with pytest.raises(NotHermitianError, match="transform entries must be finite"):
        congruence(spoiled, HermitianMatrix(finite))
    # a sampler's matrix enters as its drawn spectrum and basis
    for positive in (False, True):
        with pytest.raises(NotHermitianError, match="finite"):
            linalg._from_eigen(np.array([2.0, bad]), vecs, positive=positive)
        with pytest.raises(NotHermitianError, match="finite"):
            linalg._from_eigen(vals, spoiled, positive=positive)


@pytest.mark.parametrize(
    "vals, vecs", [([2.0, 1.0], np.eye(3)), ([[2.0, 1.0]], np.eye(2)), ([], np.eye(0))]
)
def test_decomposition_arrays_must_match_in_shape(vals, vecs):
    with pytest.raises(DimMismatchError):
        linalg.SpectralDecomposition(np.array(vals), vecs)


def test_log_pd_inverts_exp():
    rng = np.random.default_rng(41)
    m = random_hermitian(rng, 3)
    back = log_pd(exp_h(m))
    assert frobenius_distance(back, m) <= 1e-12 * max(np.linalg.norm(m.matrix), 1.0)
    with pytest.raises(DomainError):
        log_pd(HermitianMatrix(np.diag([1.0, -1.0])))


# ---------------------------------------------------------------------------
# Norms and scalar reductions
# ---------------------------------------------------------------------------


def test_singular_values_and_ky_fan():
    m = HermitianMatrix(np.diag([3.0, -4.0, 1.0]))
    assert list(_singular_values_desc(m)) == [4.0, 3.0, 1.0]
    assert ky_fan_norm(m, 1) == 4.0
    assert ky_fan_norm(m, 2) == 7.0
    assert ky_fan_norm(m, 3) == 8.0


def test_ky_fan_index_validation():
    m = HermitianMatrix(np.eye(2))
    for bad in (0, 3, 1.5, True):
        with pytest.raises(BadIndexError):
            ky_fan_norm(m, bad)


def test_schatten_norms():
    m = HermitianMatrix(np.diag([3.0, -4.0]))
    assert schatten_norm(m, 1) == 7.0
    assert schatten_norm(m, 2) == pytest.approx(5.0)
    assert schatten_norm(m, math.inf) == 4.0
    for bad in (3, True):
        with pytest.raises(BadIndexError):
            schatten_norm(m, bad)


def test_trace_and_distance():
    a = HermitianMatrix(np.diag([1.0, 2.0]))
    b = HermitianMatrix(np.diag([1.0, 5.0]))
    assert trace(a) == 3.0 + 0.0j
    assert frobenius_distance(a, b) == pytest.approx(3.0)
    with pytest.raises(DimMismatchError):
        frobenius_distance(a, HermitianMatrix(np.eye(3)))


# ---------------------------------------------------------------------------
# Congruence transforms
# ---------------------------------------------------------------------------


def test_congruence_square_and_rectangular():
    rng = np.random.default_rng(13)
    p = random_pd_array(rng, 4)
    t = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    compressed = congruence(t, p)
    assert compressed.dim == 2
    expected = t @ p.matrix @ t.conj().T
    assert np.allclose(compressed.matrix, (expected + expected.conj().T) / 2.0)
    with pytest.raises(DimMismatchError):
        congruence(np.eye(3), p)


def test_inv_sqrt_congruence_identity_anchor():
    rng = np.random.default_rng(19)
    m = random_hermitian(rng, 3)
    out = inv_sqrt_congruence(PositiveDefiniteMatrix(np.eye(3)), m)
    assert frobenius_distance(out, m) <= 1e-12 * max(np.linalg.norm(m.matrix), 1.0)


def test_inv_sqrt_congruence_guards():
    with pytest.raises(DomainError):
        inv_sqrt_congruence(
            HermitianMatrix(np.diag([1.0, -1.0])), PositiveDefiniteMatrix(np.eye(2))
        )
    with pytest.raises(CondError):
        inv_sqrt_congruence(
            PositiveDefiniteMatrix(np.diag([1e14, 1.0])), PositiveDefiniteMatrix(np.eye(2))
        )


# ---------------------------------------------------------------------------
# Extreme magnitudes
# ---------------------------------------------------------------------------

_EDGE_SCALES = [1e200, 1e-200, 1e300, 1e-300]


@pytest.mark.parametrize("scale", _EDGE_SCALES)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_spectrum_is_right_at_the_edge_of_double_range(scale, kind):
    if kind == "real":
        entries = np.array([[1.0, 0.9], [0.9, 1.0]])
    else:
        raw = np.random.default_rng(5).normal(size=(2, 4, 4))
        entries = (raw[0] + 1j * raw[1] + (raw[0] + 1j * raw[1]).conj().T) / 2.0
    expected = np.linalg.eigvalsh(entries * scale)[::-1]
    got = HermitianMatrix(entries * scale).eigenvalues
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_a_spread_of_400_decades_keeps_both_eigenvalues():
    # scaled into range, 1e-200 stays 2^-1329 of 1e200, above the 2^-1474 lost
    assert list(PositiveDefiniteMatrix(np.diag([1e200, 1e-200])).eigenvalues) == [1e200, 1e-200]


@pytest.mark.parametrize("scale", _EDGE_SCALES)
def test_positive_definite_rejects_an_indefinite_matrix_at_any_scale(scale):
    with pytest.raises(DomainError, match="not positive definite"):
        PositiveDefiniteMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]) * scale)


@pytest.mark.parametrize("scale", _EDGE_SCALES)
def test_norm_family_is_right_at_the_edge_of_double_range(scale):
    m = HermitianMatrix(np.diag([3.0, -4.0]) * scale)
    assert ky_fan_norm(m, 2) == pytest.approx(7.0 * scale, rel=1e-15, abs=0.0)
    assert schatten_norm(m, 2) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
    assert schatten_norm(m, math.inf) == 4.0 * scale


@pytest.mark.parametrize("scale", _EDGE_SCALES)
def test_frobenius_distance_is_right_at_the_edge_of_double_range(scale):
    # 1e200 * I against -1e200 * I: the squares of the entries of the
    # difference leave double range, the distance 2 * sqrt(2) * 1e200 does not
    a = HermitianMatrix(np.eye(2) * scale)
    b = HermitianMatrix(-np.eye(2) * scale)
    expected = 2.0 * math.sqrt(2.0) * scale
    assert frobenius_distance(a, b) == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert frobenius_distance(a, a) == 0.0
