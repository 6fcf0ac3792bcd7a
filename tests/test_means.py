"""Weighted geometric means: algebraic identities and limit behavior."""

import numpy as np
import pytest

from golden_bounds.errors import BadRangeError, EmptySequenceError
from golden_bounds.linalg import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    congruence,
    exp_h,
    frobenius_distance,
    log_pd,
    power,
)
from golden_bounds.means import (
    geometric_mean,
    limit_probe,
    log_euclidean,
    mean_power,
)


def random_pd(rng, n, shift=0.5) -> PositiveDefiniteMatrix:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return PositiveDefiniteMatrix(raw @ raw.conj().T + shift * np.eye(n))


def random_hermitian(rng, n) -> HermitianMatrix:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix((raw + raw.conj().T) / 2.0)


def test_endpoints_return_operands():
    rng = np.random.default_rng(1)
    a, b = random_pd(rng, 3), random_pd(rng, 3)
    assert geometric_mean(a, b, 0.0) is a
    assert geometric_mean(a, b, 1.0) is b


def test_alpha_domain():
    rng = np.random.default_rng(2)
    a, b = random_pd(rng, 2), random_pd(rng, 2)
    with pytest.raises(BadRangeError):
        geometric_mean(a, b, -0.1)
    with pytest.raises(BadRangeError):
        geometric_mean(a, b, 1.1)


def test_commuting_closed_form():
    a = PositiveDefiniteMatrix(np.diag([4.0, 1.0, 9.0]))
    b = PositiveDefiniteMatrix(np.diag([1.0, 16.0, 2.0]))
    for alpha in (0.25, 0.5, 0.8):
        mean = geometric_mean(a, b, alpha)
        expected = np.diag(
            [x ** (1.0 - alpha) * y**alpha for x, y in [(4, 1), (1, 16), (9, 2)]]
        )
        assert np.allclose(mean.matrix, expected, atol=1e-13)


def test_identity_anchor_gives_power():
    rng = np.random.default_rng(3)
    b = random_pd(rng, 4)
    for alpha in (0.3, 0.5):
        mean = geometric_mean(PositiveDefiniteMatrix(np.eye(4)), b, alpha)
        assert frobenius_distance(mean, power(b, alpha)) <= 1e-12 * np.linalg.norm(b.matrix)


def test_riccati_characterization():
    # X = A # B is the unique positive solution of X A^{-1} X = B.
    rng = np.random.default_rng(4)
    a, b = random_pd(rng, 4), random_pd(rng, 4)
    x = geometric_mean(a, b, 0.5)
    recovered = x.matrix @ power(a, -1.0).matrix @ x.matrix
    assert np.linalg.norm(recovered - b.matrix) <= 1e-10 * np.linalg.norm(b.matrix)


def test_weight_symmetry():
    rng = np.random.default_rng(5)
    a, b = random_pd(rng, 3), random_pd(rng, 3)
    for alpha in (0.2, 0.5, 0.9):
        lhs = geometric_mean(a, b, alpha)
        rhs = geometric_mean(b, a, 1.0 - alpha)
        assert frobenius_distance(lhs, rhs) <= 1e-11 * np.linalg.norm(lhs.matrix)


def test_congruence_covariance():
    rng = np.random.default_rng(6)
    a, b = random_pd(rng, 4), random_pd(rng, 4)
    t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for alpha in (0.3, 0.5, 0.75):
        direct = congruence(t, geometric_mean(a, b, alpha))
        transformed = geometric_mean(
            PositiveDefiniteMatrix(congruence(t, a).matrix),
            PositiveDefiniteMatrix(congruence(t, b).matrix),
            alpha,
        )
        assert frobenius_distance(direct, transformed) <= 1e-9 * max(
            np.linalg.norm(direct.matrix), 1.0
        )


def test_scalar_homogeneity():
    rng = np.random.default_rng(7)
    a, b = random_pd(rng, 3), random_pd(rng, 3)
    mean = geometric_mean(a, b, 0.4)
    scaled = geometric_mean(a * 3.0, b * 3.0, 0.4)
    assert frobenius_distance(scaled, mean * 3.0) <= 1e-11 * np.linalg.norm(scaled.matrix)


def test_log_euclidean_equals_mean_on_commuting_pairs():
    h = HermitianMatrix(np.diag([0.7, -0.4, 0.1]))
    k = HermitianMatrix(np.diag([-0.2, 0.5, 0.9]))
    for alpha in (0.25, 0.5):
        le = log_euclidean(h, k, alpha)
        mean = geometric_mean(exp_h(h), exp_h(k), alpha)
        assert frobenius_distance(le, mean) <= 1e-12 * np.linalg.norm(le.matrix)


def test_mean_power_at_one_matches_geometric_mean():
    rng = np.random.default_rng(8)
    h, k = random_hermitian(rng, 3), random_hermitian(rng, 3)
    direct = geometric_mean(exp_h(h), exp_h(k), 0.3)
    via_power = mean_power(h, k, 0.3, 1.0)
    assert frobenius_distance(direct, via_power) <= 1e-11 * np.linalg.norm(direct.matrix)


def test_mean_power_requires_positive_exponent():
    rng = np.random.default_rng(9)
    h, k = random_hermitian(rng, 2), random_hermitian(rng, 2)
    with pytest.raises(BadRangeError):
        mean_power(h, k, 0.5, 0.0)
    with pytest.raises(BadRangeError):
        mean_power(h, k, 0.5, -1.0)


def test_log_mean_inverse_consistency():
    # log of the mean-power matrix stays Hermitian with bounded spectrum.
    rng = np.random.default_rng(10)
    h, k = random_hermitian(rng, 3), random_hermitian(rng, 3)
    out = mean_power(h, k, 0.5, 0.01)
    logged = log_pd(out)
    bound = max(float(np.max(np.abs(h.eigenvalues))), float(np.max(np.abs(k.eigenvalues))))
    assert float(np.max(np.abs(logged.eigenvalues))) <= bound + 1e-6


def test_limit_probe_descends_toward_log_euclidean():
    rng = np.random.default_rng(11)
    h, k = random_hermitian(rng, 3), random_hermitian(rng, 3)
    probes = limit_probe(h, k, 0.5, [1.0, 0.1, 0.01, 1e-3, 1e-4])
    qs = [q for q, _ in probes]
    distances = [d for _, d in probes]
    assert qs == [1.0, 0.1, 0.01, 1e-3, 1e-4]
    assert distances[-1] <= 1e-3
    assert distances[-1] <= distances[0]


def test_limit_probe_validation():
    rng = np.random.default_rng(12)
    h, k = random_hermitian(rng, 2), random_hermitian(rng, 2)
    with pytest.raises(EmptySequenceError):
        limit_probe(h, k, 0.5, [])
    with pytest.raises(BadRangeError):
        limit_probe(h, k, 0.5, [0.5, 1.0])
    with pytest.raises(BadRangeError):
        limit_probe(h, k, 0.5, [1.0, -0.5])
