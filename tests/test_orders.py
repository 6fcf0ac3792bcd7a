"""Order certificates: Loewner, power-monotone evidence, log-majorization."""

import numpy as np
import pytest

from golden_bounds.errors import BadGridError, DimMismatchError, NonPositiveError
from golden_bounds.linalg import HermitianMatrix, PositiveDefiniteMatrix
from golden_bounds.orders import (
    DEFAULT_OLSON_GRID,
    MODE_EXACT,
    MODE_GRID,
    OrderCertificate,
    loewner_leq,
    log_majorizes,
    olson_leq,
    sandwich_bounds,
    weak_log_majorizes,
)


def diag_pd(values) -> PositiveDefiniteMatrix:
    return PositiveDefiniteMatrix(np.diag(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------------------
# Loewner comparisons
# ---------------------------------------------------------------------------


def test_loewner_holds_on_ordered_pair():
    cert = loewner_leq(diag_pd([1.0, 2.0]), diag_pd([1.5, 2.5]))
    assert cert.holds
    assert cert.worst_margin == pytest.approx(0.5)
    assert cert.relation == "loewner-leq"


def test_loewner_detects_violation():
    cert = loewner_leq(diag_pd([1.0, 2.0]), diag_pd([1.5, 1.0]))
    assert not cert.holds
    assert cert.worst_margin == pytest.approx(-1.0)


def test_loewner_tolerance_override():
    a = diag_pd([1.0, 1.0])
    b = diag_pd([1.0 - 1e-6, 2.0])
    assert not loewner_leq(a, b).holds
    assert loewner_leq(a, b, tolerance=1e-5).holds


def test_certificate_serialization():
    cert = loewner_leq(diag_pd([1.0]), diag_pd([2.0]))
    assert cert.relation == "loewner-leq"
    assert cert.holds is True
    assert isinstance(cert.witness, dict)
    assert isinstance(cert, OrderCertificate)


def test_sandwich_bounds_recovers_scalar_multiple():
    a = diag_pd([2.0, 3.0])
    lo, hi = sandwich_bounds(a, a * 1.7)
    assert lo == pytest.approx(1.7, rel=1e-12)
    assert hi == pytest.approx(1.7, rel=1e-12)


def test_sandwich_bounds_bracket_conjugated_spectrum():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = PositiveDefiniteMatrix(raw @ raw.conj().T + np.eye(3))
    b = PositiveDefiniteMatrix(2.0 * np.eye(3) + 0.1 * np.diag([1.0, 0.0, -1.0]))
    lo, hi = sandwich_bounds(a, b)
    assert 0.0 < lo <= hi
    # s A <= B <= t A must then certify.
    assert loewner_leq(a * lo, b, tolerance=1e-9).holds
    assert loewner_leq(b, a * hi, tolerance=1e-9).holds


# ---------------------------------------------------------------------------
# Power-monotone (Olson) evidence
# ---------------------------------------------------------------------------


def test_olson_commuting_pair_certifies_exactly():
    a = diag_pd([1.0, 2.0, 3.0])
    b = diag_pd([1.5, 2.5, 3.5])
    cert = olson_leq(a, b)
    assert cert.holds
    assert cert.mode == MODE_EXACT


@pytest.mark.parametrize(
    "b_values, holds, worst",
    [
        ((3.5, 2.6, 2.3, 1.2), True, (2.3 - 2.0) / 2.3),
        ((3.5, 2.6, 1.5, 1.2), False, (1.5 - 2.0) / 2.0),
    ],
    ids=["holds", "fails"],
)
def test_olson_exact_on_repeated_eigenvalue(b_values, holds, worst):
    # A has the eigenvalue 2 twice; B commutes with A but splits that
    # eigenspace along a basis the eigensolver of A does not pick, so only
    # the block eigensolve in common_eigenbasis can pair the eigenvalues.
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
    cert = olson_leq(a, b)
    assert cert.mode == MODE_EXACT
    assert cert.holds is holds
    assert cert.worst_margin == pytest.approx(worst, abs=1e-9)


def test_olson_general_pair_uses_grid_evidence():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(raw)
    a = PositiveDefiniteMatrix((q * np.array([1.2, 1.0, 0.8])) @ q.conj().T)
    b = diag_pd([2.0, 2.1, 2.2])  # spectra separated: a < 1.3 < 2.0 < b
    cert = olson_leq(a, b)
    assert cert.holds
    assert cert.mode == MODE_GRID
    assert set(cert.labels) == {f"r={r:g}" for r in DEFAULT_OLSON_GRID}
    assert cert.tolerance == 1e-9


def test_olson_catches_power_order_failure():
    # B - A is positive semidefinite yet B^2 - A^2 is not: the Loewner
    # comparison alone would pass, the power-monotone check must not.
    a = HermitianMatrix([[1.1, 1.0], [1.0, 1.1]])
    b = HermitianMatrix([[2.1, 1.0], [1.0, 1.1]])
    a_pd = PositiveDefiniteMatrix(a.matrix)
    b_pd = PositiveDefiniteMatrix(b.matrix)
    assert loewner_leq(a_pd, b_pd).holds
    cert = olson_leq(a_pd, b_pd, grid=(1.0, 2.0))
    assert not cert.holds
    assert cert.witness["exponent"] == 2.0


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


# ---------------------------------------------------------------------------
# Log-majorization
# ---------------------------------------------------------------------------


def test_weak_log_majorization_ordered_spectra():
    cert = weak_log_majorizes([1.0, 0.5], [2.0, 1.0])
    assert cert.holds
    assert list(cert.labels) == ["k=1", "k=2"]


def test_weak_log_majorization_detects_violation():
    cert = weak_log_majorizes([3.0, 1.0], [2.0, 1.0])
    assert not cert.holds
    assert cert.witness["k"] == 1


def test_weak_log_majorization_positivity_checks():
    with pytest.raises(NonPositiveError):
        weak_log_majorizes([1.0, -1.0], [2.0, 1.0])
    with pytest.raises(DimMismatchError):
        weak_log_majorizes([1.0], [2.0, 1.0])


def test_log_majorization_requires_total_product_equality():
    # Same total product, dominated partial products: holds.
    cert = log_majorizes([2.0, 0.5], [4.0, 0.25])
    assert cert.holds
    assert cert.tolerance == 1e-9
    assert cert.labels[-1] == "total-product"
    # Total products differ: the final entry must fail even though the
    # partial-product comparisons pass.
    cert2 = log_majorizes([1.0, 0.5], [2.0, 1.0])
    assert not cert2.holds
    assert cert2.margins[-1] < 0.0


def test_log_majorization_equal_spectra_margins_vanish():
    cert = log_majorizes([2.0, 1.0, 0.5], [2.0, 1.0, 0.5])
    assert cert.holds
    assert max(abs(m) for m in cert.margins) <= 1e-15
