"""Matrix core: construction, Jacobi spectra, functions, norms, serialization."""

import math

import numpy as np
import pytest

from golden_bounds.errors import (
    BadIndexError,
    CondError,
    DimMismatchError,
    DomainError,
    NonSquareError,
    NotHermitianError,
)
from golden_bounds.linalg import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    apply_function,
    commutator_norm,
    common_eigenbasis,
    congruence,
    eigenvalues_desc,
    exp_h,
    frobenius_distance,
    identity_pd,
    inv_sqrt_congruence,
    ky_fan_norm,
    log_pd,
    matrix_from_json,
    matrix_to_json,
    power,
    schatten_norm,
    singular_values_desc,
    trace,
)

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
    assert m.hermiticity_defect <= 1e-11


def test_construction_rejects_large_defect():
    with pytest.raises(NotHermitianError):
        HermitianMatrix([[1.0, 1.0], [0.0, 1.0]])


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
    assert p.min_eigenvalue == pytest.approx(0.5)
    view = p.base
    assert type(view) is HermitianMatrix
    assert view.matrix is p.matrix


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
            m.frobenius_norm(), 1.0
        )
        assert dec.basis_residual() <= 1e-12
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
# Matrix functions
# ---------------------------------------------------------------------------


def test_apply_function_squares_spectrum():
    m = HermitianMatrix(np.diag([3.0, -2.0]))
    sq = apply_function(m, lambda x: x * x)
    assert sq.eigenvalues == pytest.approx([9.0, 4.0])


def test_apply_function_domain_error():
    m = HermitianMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        apply_function(m, math.log)
    with pytest.raises(DomainError):
        apply_function(m, lambda x: 1.0 / (x - 1.0))


def test_power_identities():
    rng = np.random.default_rng(3)
    p = random_pd_array(rng, 4)
    assert power(p, 1.0) is p
    assert np.allclose(power(p, 0.0).matrix, np.eye(4))
    root = power(p, 0.5)
    assert frobenius_distance(
        HermitianMatrix(root.matrix @ root.matrix), p
    ) <= 1e-12 * p.frobenius_norm()
    inv = power(p, -1.0)
    assert np.allclose(inv.matrix @ p.matrix, np.eye(4), atol=1e-11)


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


def test_log_pd_inverts_exp():
    rng = np.random.default_rng(41)
    m = random_hermitian(rng, 3)
    back = log_pd(exp_h(m))
    assert frobenius_distance(back, m) <= 1e-12 * max(m.frobenius_norm(), 1.0)
    with pytest.raises(DomainError):
        log_pd(HermitianMatrix(np.diag([1.0, -1.0])))


# ---------------------------------------------------------------------------
# Norms and scalar reductions
# ---------------------------------------------------------------------------


def test_singular_values_and_ky_fan():
    m = HermitianMatrix(np.diag([3.0, -4.0, 1.0]))
    assert list(singular_values_desc(m)) == [4.0, 3.0, 1.0]
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
    with pytest.raises(BadIndexError):
        schatten_norm(m, 3)


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
    out = inv_sqrt_congruence(identity_pd(3), m)
    assert frobenius_distance(out, m) <= 1e-12 * max(m.frobenius_norm(), 1.0)


def test_inv_sqrt_congruence_guards():
    with pytest.raises(DomainError):
        inv_sqrt_congruence(HermitianMatrix(np.diag([1.0, -1.0])), identity_pd(2).base)
    with pytest.raises(CondError):
        inv_sqrt_congruence(
            PositiveDefiniteMatrix(np.diag([1e14, 1.0])), identity_pd(2).base
        )


# ---------------------------------------------------------------------------
# Commutation detection
# ---------------------------------------------------------------------------


def test_common_eigenbasis_on_commuting_pair():
    rng = np.random.default_rng(29)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(raw)
    avals = np.array([4.0, 2.0, 2.0, 1.0])
    bvals = np.array([1.0, 5.0, 3.0, 2.0])
    a = HermitianMatrix((q * avals) @ q.conj().T)
    b = HermitianMatrix((q * bvals) @ q.conj().T)
    assert commutator_norm(a, b) <= 1e-12
    result = common_eigenbasis(a, b)
    assert result is not None
    v, got_a, got_b = result
    assert np.allclose((v * got_a) @ v.conj().T, a.matrix, atol=1e-10)
    assert np.allclose((v * got_b) @ v.conj().T, b.matrix, atol=1e-10)
    # The scalar pairs must be the matched eigenvalue pairs, including inside
    # the degenerate a-cluster where only b separates the directions.
    pairs = sorted(zip(np.round(got_a, 9), np.round(got_b, 9)))
    assert pairs == [(1.0, 2.0), (2.0, 3.0), (2.0, 5.0), (4.0, 1.0)]


def test_common_eigenbasis_rejects_noncommuting_pair():
    a = HermitianMatrix(np.diag([2.0, 1.0]))
    b = HermitianMatrix([[1.0, 0.6], [0.6, 1.5]])
    assert commutator_norm(a, b) > 0.1
    assert common_eigenbasis(a, b) is None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_complex():
    rng = np.random.default_rng(37)
    m = random_hermitian(rng, 3)
    back = matrix_from_json(matrix_to_json(m))
    assert frobenius_distance(m, back) == 0.0


def test_json_imaginary_block_optional():
    m = matrix_from_json('{"n": 2, "re": [[1.0, 0.5], [0.5, 2.0]]}')
    assert np.allclose(m.matrix, [[1.0, 0.5], [0.5, 2.0]])


def test_json_shape_validation():
    with pytest.raises(NonSquareError):
        matrix_from_json('{"n": 2, "re": [[1.0, 0.5]]}')
    with pytest.raises(NonSquareError):
        matrix_from_json('{"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0]]}')


def test_eigenvalues_desc_returns_fresh_copy():
    m = HermitianMatrix(np.diag([2.0, 1.0]))
    values = eigenvalues_desc(m)
    values[0] = 99.0
    assert m.eigenvalues[0] == 2.0
