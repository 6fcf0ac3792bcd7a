"""Seeded samplers: determinism, spectral ranges, the relations they construct."""

import math
import re

import numpy as np
import pytest

from golden_bounds import sampling
from golden_bounds.certify import certify_inequality, compare_specht_vs_fm, run_instances
from golden_bounds.errors import BadGridError, BadRangeError, DimMismatchError
from golden_bounds.linalg import HermitianMatrix, exp_h
from golden_bounds.means import limit_probe, mean_power
from golden_bounds.orders import loewner_leq, olson_leq, sandwich_bounds, weak_log_majorizes
from golden_bounds.sampling import (
    MODE_COMMUTING,
    MODE_GENERAL,
    SamplerConfig,
    bounded_hermitian_pair,
    haar_unitary,
    olson_exponential_pair,
    olson_sandwich_pair,
    ordered_chain_pair,
    ordered_exponential_chain_pair,
    philox_generator,
    random_bounded_hermitian,
    random_isometry,
    random_pd,
    random_pd_pair,
    sandwich_pair,
)

# Frozen spectra for three golden (seed, n, lo, hi) configurations.  These
# pin the whole sampling pipeline — counter-based streams, spectrum draws,
# basis draws — so silent stream drift fails loudly.
GOLDEN_PD_SPECTRA = {
    (0, 3, 0.5, 2.0): (1.6338492252015389, 0.823318730542102, 0.8177893160501861),
    (7, 4, 0.2, 1.0): (
        0.898760240811183,
        0.8756857293474631,
        0.7079543529626731,
        0.28757282484409974,
    ),
    (12345, 2, 1.0, 3.0): (1.579364228662222, 1.212075529041663),
}

GOLDEN_HERMITIAN_H = (0.5117989669353853, -0.5689083592771973, -0.5762809119330852)
GOLDEN_HERMITIAN_K = (0.25067966246598616, -0.14685106488590383, -0.7347483282680889)
GOLDEN_SANDWICH_B = (1.6462083688074924, 1.2386221911751496, 1.0603236851273243)


def test_config_validation():
    with pytest.raises(BadRangeError):
        SamplerConfig(0, 1, 0.5, 2.0)
    with pytest.raises(BadRangeError):
        SamplerConfig(2, -1, 0.5, 2.0)
    with pytest.raises(BadRangeError):
        SamplerConfig(2, 2**64, 0.5, 2.0)
    with pytest.raises(BadRangeError):
        SamplerConfig(2, 1, 2.0, 0.5)
    with pytest.raises(BadRangeError):
        SamplerConfig(2, 1, 0.5, 2.0, mode="diagonal")
    cfg = SamplerConfig(2, 1, 0.5, 2.0)
    assert (cfg.lo, cfg.hi) == (0.5, 2.0)


_CFG_3 = SamplerConfig(3, 1, 0.5, 2.0)
_SIGNED = SamplerConfig(2, 0, -1.0, 1.0)
_I2 = HermitianMatrix(np.eye(2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: SamplerConfig(2, 0, 0.0, math.inf), BadRangeError,
         "spectral range must be finite, got [0.0, inf]"),
        (lambda: philox_generator(-1, 0, 0), BadRangeError,
         "seed must be a 64-bit unsigned integer, got -1"),
        (lambda: philox_generator(2**64, 0, 0), BadRangeError,
         "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
        (lambda: philox_generator(0, -1, 0), BadRangeError,
         "index and tag must be nonnegative, got (-1, 0)"),
        (lambda: random_isometry(_CFG_3, 4), DimMismatchError, "rows must lie in [1, 3], got 4"),
        (lambda: random_pd(_SIGNED), BadRangeError,
         "positive definite draws need a positive range, got [-1.0, 1.0]"),
        (lambda: random_pd_pair(_SIGNED), BadRangeError,
         "positive definite draws need a positive range, got [-1.0, 1.0]"),
        (lambda: olson_sandwich_pair(_SIGNED), BadRangeError,
         "Olson sandwich needs a positive spectral range, got [-1.0, 1.0]"),
        (lambda: certify_inequality(
            "kantorovich-matrix", random_pd(_CFG_3), np.eye(2, 4), m=0.5, M=2.0
         ), DimMismatchError, "isometry shape (2, 4) incompatible with dim 3"),
        (lambda: compare_specht_vs_fm(0.5, 0.5, 0.9), BadRangeError, "h must be >= 1, got 0.9"),
        (lambda: weak_log_majorizes([[1.0]], [1.0]), DimMismatchError,
         "values_a must be a nonempty 1-d value sequence"),
        (lambda: weak_log_majorizes([], []), DimMismatchError,
         "values_a must be a nonempty 1-d value sequence"),
        (lambda: HermitianMatrix(np.eye(2)) + 1.0, TypeError,
         "unsupported operand type(s) for +: 'HermitianMatrix' and 'float'"),
        (lambda: certify_inequality("forward-gt-trace", np.eye(2), np.eye(2)), TypeError,
         "forward-gt-trace: operand x must be a HermitianMatrix, got ndarray"),
        (lambda: HermitianMatrix(np.eye(2)) * math.inf, BadRangeError,
         "a matrix scale factor must be finite, got inf"),
        (lambda: mean_power(_I2, _I2, 0.5, math.inf), BadRangeError,
         "q must be positive and finite, got inf"),
        (lambda: limit_probe(_I2, _I2, 0.5, [math.inf, 1.0]), BadRangeError,
         "q_sequence must be finite, got [inf, 1.0]"),
        (lambda: weak_log_majorizes([math.nan, 1.0], [1.0, 1.0]), BadRangeError,
         "values_a must be finite, got [nan, 1.0]"),
        (lambda: weak_log_majorizes([1.0, 1.0], [math.inf, 1.0]), BadRangeError,
         "values_b must be finite, got [inf, 1.0]"),
        (lambda: philox_generator(3.0, 0, 0), BadRangeError, "seed must be an integer, got 3.0"),
        (lambda: philox_generator(3, 1.5, 0), BadRangeError, "index must be an integer, got 1.5"),
        (lambda: SamplerConfig(2.0, 0, 0.1, 1.0), BadRangeError, "dim must be an integer, got 2.0"),
    ],
)
def test_input_checks_raise_their_class_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_seeds_and_indices_may_be_numpy_integers():
    cfg = SamplerConfig(np.int64(3), np.uint64(2), 0.1, 1.0)
    assert (type(cfg.dim), type(cfg.seed), cfg.dim, cfg.seed) == (int, int, 3, 2)
    stream = philox_generator(np.int64(3), np.int32(1), np.uint8(5)).uniform(size=4)
    assert stream.tolist() == philox_generator(3, 1, 5).uniform(size=4).tolist()
    numpy_seed = run_instances("gt-specht", count=2, seed=np.int64(3))
    assert type(numpy_seed.seed) is int
    assert [r.to_json() for r in numpy_seed.reports] == [
        r.to_json() for r in run_instances("gt-specht", count=2, seed=3).reports
    ]


def test_golden_pd_spectra_frozen():
    for (seed, n, lo, hi), expected in GOLDEN_PD_SPECTRA.items():
        cfg = SamplerConfig(n, seed, lo, hi)
        a = random_pd(cfg, index=0)
        assert a.eigenvalues == pytest.approx(expected, abs=1e-10)


def test_golden_hermitian_pair_frozen():
    cfg = SamplerConfig(3, 0, -1.0, 1.0)
    h, k = bounded_hermitian_pair(cfg, 0)
    assert h.eigenvalues == pytest.approx(GOLDEN_HERMITIAN_H, abs=1e-10)
    assert k.eigenvalues == pytest.approx(GOLDEN_HERMITIAN_K, abs=1e-10)


def test_golden_sandwich_frozen():
    sample = sandwich_pair(SamplerConfig(3, 9, 0.5, 1.5), 0.8, 2.0, 1)
    assert sample.b.eigenvalues == pytest.approx(GOLDEN_SANDWICH_B, abs=1e-10)


def test_bitwise_determinism_across_calls():
    cfg = SamplerConfig(4, 99, 0.3, 1.7)
    first = random_pd(cfg, index=5)
    second = random_pd(cfg, index=5)
    assert np.array_equal(first.matrix, second.matrix)
    pair1 = bounded_hermitian_pair(SamplerConfig(3, 4, -1.0, 0.5), 2)
    pair2 = bounded_hermitian_pair(SamplerConfig(3, 4, -1.0, 0.5), 2)
    assert np.array_equal(pair1[0].matrix, pair2[0].matrix)
    assert np.array_equal(pair1[1].matrix, pair2[1].matrix)


def test_distinct_indices_and_seeds_decorrelate():
    cfg = SamplerConfig(3, 1, 0.5, 2.0)
    a = random_pd(cfg, index=0)
    b = random_pd(cfg, index=1)
    c = random_pd(SamplerConfig(3, 2, 0.5, 2.0), index=0)
    assert not np.allclose(a.matrix, b.matrix)
    assert not np.allclose(a.matrix, c.matrix)


def test_philox_streams_are_tag_separated():
    one = philox_generator(5, 3, 1).normal(size=4)
    two = philox_generator(5, 3, 2).normal(size=4)
    assert not np.allclose(one, two)


def test_spectra_respect_configured_range():
    rng_cases = [(0.5, 2.0), (0.1, 0.2), (3.0, 3.0)]
    for lo, hi in rng_cases:
        cfg = SamplerConfig(5, 21, lo, hi)
        a = random_pd(cfg, index=3)
        assert lo - 1e-12 <= a.eigenvalues[-1] <= a.eigenvalues[0] <= hi + 1e-12
    bounded = random_bounded_hermitian(SamplerConfig(4, 8, -2.0, -0.5), 1)
    assert -2.0 - 1e-12 <= bounded.eigenvalues[-1]
    assert bounded.eigenvalues[0] <= -0.5 + 1e-12


def _commutator(a, b):
    am, bm = a.matrix, b.matrix
    return float(np.linalg.norm(am @ bm - bm @ am))


def test_commuting_mode_commutes_general_does_not():
    commuting = SamplerConfig(4, 17, 0.5, 2.0, mode=MODE_COMMUTING)
    a, b = random_pd_pair(commuting, 0)
    assert _commutator(a, b) <= 1e-12
    general = SamplerConfig(4, 17, 0.5, 2.0, mode=MODE_GENERAL)
    a2, b2 = random_pd_pair(general, 0)
    assert _commutator(a2, b2) > 1e-6


@pytest.mark.parametrize("sampler, lo", [(random_pd_pair, 0.5), (bounded_hermitian_pair, -1.0)])
@pytest.mark.parametrize("mode, draws", [(MODE_COMMUTING, 1), (MODE_GENERAL, 2)])
def test_pair_samplers_draw_each_basis_once(monkeypatch, sampler, lo, mode, draws):
    calls = []

    def counting_haar(rng, n):
        calls.append(n)
        return haar_unitary(rng, n)

    monkeypatch.setattr(sampling, "haar_unitary", counting_haar)
    sampler(SamplerConfig(3, 17, lo, 2.0, mode=mode), 0)
    assert len(calls) == draws


def test_degenerate_range_collapses_to_scalar_matrix():
    cfg = SamplerConfig(3, 2, 1.0, 1.0)
    a = random_pd(cfg, index=0)
    assert np.allclose(a.matrix, np.eye(3))


def test_isometry_rows_orthonormal():
    cfg = SamplerConfig(5, 33, 0.5, 2.0)
    for rows in (1, 3, 5):
        u = random_isometry(cfg, rows, index=2)
        assert u.shape == (rows, 5)
        assert np.allclose(u @ u.conj().T, np.eye(rows), atol=1e-12)


def test_sandwich_pair_satisfies_scalar_bounds():
    for mode in (MODE_GENERAL, MODE_COMMUTING):
        cfg = SamplerConfig(4, 3, 0.5, 1.5, mode=mode)
        sample = sandwich_pair(cfg, 0.7, 2.5, 0)
        assert sample.s == 0.7 and sample.t == 2.5
        assert loewner_leq(sample.a * 0.7, sample.b).holds
        assert loewner_leq(sample.b, sample.a * 2.5).holds
        # the observed sandwich lies inside the requested [s, t]
        lo_obs, hi_obs = sandwich_bounds(sample.a, sample.b)
        assert 0.7 - 1e-9 * 2.5 <= lo_obs <= hi_obs <= 2.5 + 1e-9 * 2.5


def test_sandwich_pair_degenerate_scalars():
    cfg = SamplerConfig(3, 5, 0.5, 1.5)
    sample = sandwich_pair(cfg, 1.3, 1.3, 0)
    assert np.allclose(sample.b.matrix, 1.3 * sample.a.matrix, atol=1e-12)


def test_sandwich_pair_validation():
    cfg = SamplerConfig(3, 5, 0.5, 1.5)
    with pytest.raises(BadRangeError):
        sandwich_pair(cfg, 2.0, 1.0, 0)
    with pytest.raises(BadRangeError):
        sandwich_pair(cfg, 0.0, 1.0, 0)


def _olson_sandwich_checks(sample):
    return (
        olson_leq(sample.a * sample.s, sample.b),
        olson_leq(sample.b, sample.a * sample.t),
    )


def test_olson_sandwich_modes_and_certificates():
    commuting = SamplerConfig(3, 6, 0.4, 1.6, mode=MODE_COMMUTING)
    sample = olson_sandwich_pair(commuting, 0)
    assert sample.s == pytest.approx(0.25)
    assert sample.t == pytest.approx(4.0)
    assert all(c.holds for c in _olson_sandwich_checks(sample))

    general = SamplerConfig(3, 6, 0.4, 1.6, mode=MODE_GENERAL)
    assert all(c.holds for c in _olson_sandwich_checks(olson_sandwich_pair(general, 0)))


def test_olson_and_loewner_agree_on_commuting_draws():
    # on a commuting pair Olson order is Loewner order, so the grid's r = 1
    # entry decides every exponent: the two checks give one verdict
    verdicts = []
    for n in range(2, 7):
        cfg = SamplerConfig(n, 5, 0.3, 0.8, mode=MODE_COMMUTING)
        for index in range(3):
            chain = ordered_chain_pair(cfg, index)
            sample = olson_sandwich_pair(cfg, index)
            pairs = [
                (chain.a, chain.b),
                (sample.a * sample.s, sample.b),
                (sample.b, sample.a * sample.t),
                random_pd_pair(cfg, index),
            ]
            for x, y in pairs:
                for lhs, rhs in ((x, y), (y, x)):
                    holds = loewner_leq(lhs, rhs).holds
                    assert olson_leq(lhs, rhs).holds is holds
                    verdicts.append(holds)
    assert True in verdicts and False in verdicts


def _same_arrays(x, y):
    return np.array_equal(x.matrix, y.matrix) and np.array_equal(x.eigenvalues, y.eigenvalues)


def test_olson_sandwich_pair_is_the_sandwich_or_the_pd_pair():
    for index in range(3):
        commuting = SamplerConfig(4, 21, 0.4, 1.6, mode=MODE_COMMUTING)
        sample = olson_sandwich_pair(commuting, index)
        expected = sandwich_pair(commuting, 0.4 / 1.6, 1.6 / 0.4, index)
        assert _same_arrays(sample.a, expected.a) and _same_arrays(sample.b, expected.b)
        assert (sample.s, sample.t) == (expected.s, expected.t)
        general = SamplerConfig(4, 21, 0.4, 1.6, mode=MODE_GENERAL)
        sample = olson_sandwich_pair(general, index)
        a, b = random_pd_pair(general, index)
        assert _same_arrays(sample.a, a) and _same_arrays(sample.b, b)
        assert (sample.s, sample.t) == (0.4 / 1.6, 1.6 / 0.4)


def test_olson_exponential_pair_is_the_bounded_pair():
    for mode in (MODE_COMMUTING, MODE_GENERAL):
        cfg = SamplerConfig(4, 22, -0.8, 0.7, mode=mode)
        for index in range(3):
            pair = olson_exponential_pair(cfg, index)
            h, k = bounded_hermitian_pair(cfg, index)
            assert _same_arrays(pair.h, h) and _same_arrays(pair.k, k)


def test_olson_exponential_pair_relations():
    cfg = SamplerConfig(3, 8, -0.8, 0.7)
    pair = olson_exponential_pair(cfg, 0)
    assert pair.s == pytest.approx(-1.5)
    assert pair.t == pytest.approx(1.5)
    lhs = exp_h(pair.h) * math.exp(pair.s)
    mid = exp_h(pair.k)
    rhs = exp_h(pair.h) * math.exp(pair.t)
    assert olson_leq(lhs, mid).holds and olson_leq(mid, rhs).holds
    assert loewner_leq(lhs, mid).worst_margin >= -1e-9
    assert loewner_leq(mid, rhs).worst_margin >= -1e-9


def test_ordered_chain_loewner_and_bounds():
    for mode in (MODE_COMMUTING, MODE_GENERAL):
        cfg = SamplerConfig(4, 10, 0.2, 0.9, mode=mode)
        chain = ordered_chain_pair(cfg, 0)
        assert 0.0 < chain.m <= chain.M <= 1.0 + 1e-12
        assert loewner_leq(chain.a, chain.b).holds
        assert chain.a.eigenvalues[-1] >= chain.m - 1e-10
        assert chain.b.eigenvalues[0] <= chain.M + 1e-10
        assert loewner_leq(chain.a, chain.b).worst_margin >= -1e-9


def test_ordered_chain_olson_middle():
    cfg = SamplerConfig(3, 11, 0.3, 0.8, mode=MODE_GENERAL)
    chain = ordered_chain_pair(cfg, 1, grid=(1.0, 2.0, 3.0))
    assert olson_leq(chain.a, chain.b, grid=(1.0, 2.0, 3.0)).holds


@pytest.mark.parametrize(
    "sampler, lo, hi",
    [(ordered_chain_pair, 0.3, 0.8), (ordered_exponential_chain_pair, -1.2, -0.2)],
    ids=["ordered_chain_pair", "ordered_exponential_chain_pair"],
)
def test_ordered_chain_checks_its_olson_middle_only_on_a_grid(chain_checks, sampler, lo, hi):
    # grid=None means no Olson check in both chain samplers
    checked = chain_checks
    cfg = SamplerConfig(3, 11, lo, hi, mode=MODE_GENERAL)
    sampler(cfg, 1)
    assert checked == []
    sampler(cfg, 1, grid=(1.0, 2.0))
    # the accepted step passed the shared test at every grid exponent
    assert set(checked) == {1.0, 2.0} and checked[-2:] == [1.0, 2.0]


def test_ordered_chain_falls_back_to_the_commuting_pair(monkeypatch):
    # when the shared Loewner test rejects every perturbation size, the
    # exact commuting construction (e = 0) is returned
    monkeypatch.setattr(sampling, "_loewner_violation", lambda lhs, rhs: -1.0)
    general = ordered_chain_pair(SamplerConfig(3, 11, 0.3, 0.8), 1, grid=(1.0, 2.0))
    commuting = ordered_chain_pair(SamplerConfig(3, 11, 0.3, 0.8, mode=MODE_COMMUTING), 1)
    assert (general.m, general.M) == (0.3, 0.8)
    assert np.array_equal(general.a.matrix, commuting.a.matrix)
    assert np.array_equal(general.b.matrix, commuting.b.matrix)


@pytest.mark.parametrize("grid", [(2.0,), (), (1.0, math.nan)], ids=["no-1", "empty", "nan"])
@pytest.mark.parametrize("mode", [MODE_COMMUTING, MODE_GENERAL])
@pytest.mark.parametrize(
    "sampler, lo, hi",
    [(ordered_chain_pair, 0.3, 0.8), (ordered_exponential_chain_pair, -1.2, -0.2)],
    ids=["ordered_chain_pair", "ordered_exponential_chain_pair"],
)
def test_chain_samplers_validate_the_grid_in_both_modes(sampler, lo, hi, mode, grid):
    with pytest.raises(BadGridError):
        sampler(SamplerConfig(3, 11, lo, hi, mode=mode), 1, grid=grid)


def test_ordered_chain_range_validation():
    with pytest.raises(BadRangeError):
        ordered_chain_pair(SamplerConfig(3, 1, 0.5, 1.5), 0)
    with pytest.raises(BadRangeError):
        ordered_chain_pair(SamplerConfig(3, 1, 0.0, 0.5), 0)


def test_exponential_chain_relations():
    cfg = SamplerConfig(3, 13, -1.2, -0.1)
    sample = ordered_exponential_chain_pair(cfg, 0, grid=(1.0, 2.0))
    assert sample.m <= sample.M <= 0.0 + 1e-12
    assert sample.h.eigenvalues[-1] >= sample.m - 1e-9
    assert sample.k.eigenvalues[0] <= sample.M + 1e-9
    assert loewner_leq(exp_h(sample.h), exp_h(sample.k)).worst_margin >= -1e-9


def test_exponential_chain_rejects_positive_upper_bound():
    with pytest.raises(BadRangeError):
        ordered_exponential_chain_pair(SamplerConfig(3, 1, -1.0, 0.5), 0)
