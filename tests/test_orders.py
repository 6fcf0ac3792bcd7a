"""Order relations: the one Loewner test, Olson grid evidence, log-majorization."""

import numpy as np
import pytest

import oracles
from golden_bounds import certify
from golden_bounds.errors import BadGridError
from golden_bounds.linalg import HermitianMatrix, PositiveDefiniteMatrix
from golden_bounds.orders import loewner_leq, olson_leq

#: The exponent grid these tests collect Olson evidence on.
GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


def diag_pd(values) -> PositiveDefiniteMatrix:
    return PositiveDefiniteMatrix(np.diag(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------------------
# Loewner comparisons
# ---------------------------------------------------------------------------


def test_loewner_holds_on_ordered_pair():
    assert loewner_leq(diag_pd([1.0, 2.0]), diag_pd([1.5, 2.5])) is True


def test_loewner_detects_violation():
    assert loewner_leq(diag_pd([1.0, 2.0]), diag_pd([1.5, 1.0])) is False


@pytest.mark.parametrize(
    "lhs, rhs, holds",
    [
        # tol = 1e-8 * 2, the larger spectral radius
        ([1.0, 1.0], [1.0 - 1.9e-8, 2.0], True),
        ([1.0, 1.0], [1.0 - 2.1e-8, 2.0], False),
        ([1.0, 1.0], [1.0 - 1e-6, 2.0], False),
        # tol = 1e-8 * 1, the floor, for spectra inside [-1, 1]
        ([0.0, 0.0], [-0.9e-8, 1e-3], True),
        ([0.0, 0.0], [-1.1e-8, 1e-3], False),
    ],
)
def test_loewner_tolerance_is_relative_to_the_spectral_radius(lhs, rhs, holds):
    assert loewner_leq(HermitianMatrix(np.diag(lhs)), HermitianMatrix(np.diag(rhs))) is holds


def test_loewner_spectrum_decides_when_cholesky_fails():
    # smallest eigenvalue of the difference exactly -tol: the shifted
    # Cholesky meets a zero pivot and fails, the spectrum passes
    lhs = HermitianMatrix(np.zeros((2, 2)))
    assert loewner_leq(lhs, HermitianMatrix(np.diag([-1e-8, 0.5]))) is True
    assert loewner_leq(lhs, HermitianMatrix(np.diag([-1.0000001e-8, 0.5]))) is False


def test_loewner_accepts_the_tightest_sandwich():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = PositiveDefiniteMatrix(raw @ raw.conj().T + np.eye(3))
    b = PositiveDefiniteMatrix(2.0 * np.eye(3) + 0.1 * np.diag([1.0, 0.0, -1.0]))
    lo, hi = oracles.sandwich_bounds(a, b)
    assert 0.0 < lo <= hi
    # s A <= B <= t A must then certify, and fail just outside [lo, hi]
    assert loewner_leq(a * lo, b) and loewner_leq(b, a * hi)
    assert oracles.loewner_margin(a * lo, b) >= -1e-9
    assert oracles.loewner_margin(b, a * hi) >= -1e-9
    assert not loewner_leq(a * (lo * 1.001), b)
    assert not loewner_leq(b, a * (hi / 1.001))


# ---------------------------------------------------------------------------
# Power-monotone (Olson) evidence
# ---------------------------------------------------------------------------


def test_olson_commuting_pair_certifies_exactly():
    a = diag_pd([1.0, 2.0, 3.0])
    b = diag_pd([1.5, 2.5, 3.5])
    assert olson_leq(a, b, GRID) is True
    assert oracles.olson_holds(a, b, GRID)


@pytest.mark.parametrize(
    "b_values, holds",
    [((3.5, 2.6, 2.3, 1.2), True), ((3.5, 2.6, 1.5, 1.2), False)],
    ids=["holds", "fails"],
)
def test_olson_exact_on_repeated_eigenvalue(b_values, holds):
    # A has the eigenvalue 2 twice; B commutes with A but splits that
    # eigenspace along a basis the eigensolver of A does not pick; the grid
    # check compares B^r - A^r directly and needs no shared basis.
    rng = np.random.default_rng(41)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(raw)
    mix = np.eye(4, dtype=complex)
    c, s = np.cos(0.6), np.sin(0.6) * np.exp(0.4j)
    mix[1:3, 1:3] = [[c, -s], [s.conjugate(), c]]
    a = PositiveDefiniteMatrix((q * np.array([3.0, 2.0, 2.0, 1.0])) @ q.conj().T)
    qb = q @ mix
    b = PositiveDefiniteMatrix((qb * np.array(b_values)) @ qb.conj().T)
    v = a.decomposition.eigenvectors[:, 1:3]
    assert abs((v.conj().T @ b.matrix @ v)[0, 1]) > 0.1  # not diagonal in A's basis
    assert olson_leq(a, b, GRID) is holds
    assert oracles.olson_holds(a, b, GRID) is holds


def test_olson_general_pair_uses_grid_evidence():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(raw)
    a = PositiveDefiniteMatrix((q * np.array([1.2, 1.0, 0.8])) @ q.conj().T)
    b = diag_pd([2.0, 2.1, 2.2])  # spectra separated: a < 1.3 < 2.0 < b
    assert olson_leq(a, b, GRID) is True
    assert oracles.olson_holds(a, b, GRID)


def test_olson_catches_power_order_failure():
    # B - A is positive semidefinite yet B^2 - A^2 is not: the Loewner
    # comparison alone would pass, the power-monotone check must not.
    a = HermitianMatrix([[1.1, 1.0], [1.0, 1.1]])
    b = HermitianMatrix([[2.1, 1.0], [1.0, 1.1]])
    a_pd = PositiveDefiniteMatrix(a.matrix)
    b_pd = PositiveDefiniteMatrix(b.matrix)
    assert loewner_leq(a_pd, b_pd)
    assert olson_leq(a_pd, b_pd, grid=(1.0,)) is True
    assert olson_leq(a_pd, b_pd, grid=(1.0, 2.0)) is False  # exponent 2 is the witness
    assert not oracles.olson_holds(a_pd, b_pd, (2.0,))


def test_olson_grid_validation():
    a, b = diag_pd([1.0]), diag_pd([2.0])
    with pytest.raises(BadGridError):
        olson_leq(a, b, grid=())
    with pytest.raises(BadGridError):
        olson_leq(a, b, grid=(2.0, 3.0))  # must contain the base case 1
    with pytest.raises(BadGridError):
        olson_leq(a, b, grid=(1.0, 0.5))
    with pytest.raises(BadGridError):
        olson_leq(a, b, grid=(1.0, float("inf")))
    with pytest.raises(TypeError):
        olson_leq(a, b)  # the grid is required


# ---------------------------------------------------------------------------
# Log-majorization, as the forward-ando-hiai comparison reports it
# ---------------------------------------------------------------------------


@pytest.fixture
def log_majorization(monkeypatch):
    """``certify._log_majorization`` on two given spectra: labels and margins."""
    monkeypatch.setattr(certify, "_power_means", lambda a, b, v: (a, b))

    def margins(lhs, rhs):
        _, labels, _, _, margins = certify._log_majorization(diag_pd(lhs), diag_pd(rhs), {})
        return list(labels), list(margins)

    return margins


def test_weak_log_majorization_ordered_spectra(log_majorization):
    labels, margins = log_majorization([1.0, 0.5], [2.0, 1.0])
    assert labels == ["k=1", "k=2", "total-product"]
    assert min(margins[:2]) >= -1e-9


def test_weak_log_majorization_detects_violation(log_majorization):
    _, margins = log_majorization([3.0, 1.0], [2.0, 1.0])
    assert margins[0] < -1e-9
    assert int(np.argmin(margins[:2])) == 0


def test_log_majorization_requires_total_product_equality(log_majorization):
    # Same total product, dominated partial products: holds.
    labels, margins = log_majorization([2.0, 0.5], [4.0, 0.25])
    assert min(margins) >= -1e-9
    assert labels[-1] == "total-product"
    # Total products differ: the final entry must fail even though the
    # partial-product comparisons pass.
    _, margins = log_majorization([1.0, 0.5], [2.0, 1.0])
    assert min(margins[:2]) >= -1e-9
    assert margins[-1] < -1e-9


def test_log_majorization_equal_spectra_margins_vanish(log_majorization):
    _, margins = log_majorization([2.0, 1.0, 0.5], [2.0, 1.0, 0.5])
    assert max(abs(m) for m in margins) <= 1e-15
