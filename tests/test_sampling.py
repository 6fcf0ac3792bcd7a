"""Seeded samplers: determinism, spectral ranges, the relations they construct."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

import oracles
from golden_bounds import orders, sampling
from golden_bounds.certify import (
    certify_inequality,
    compare_seo_constants,
    compare_specht_vs_fm,
    convergence_study,
    run_instances,
)
from golden_bounds.constants import (
    evaluate_constant,
    fm_factor,
    kantorovich_limit_root,
    specht,
    specht_p_root,
)
from golden_bounds.errors import (
    BadGridError,
    BadRangeError,
    DimMismatchError,
    NonPositiveError,
    NotHermitianError,
)
from golden_bounds.linalg import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    SpectralDecomposition,
    congruence,
    exp_h,
    inv_sqrt_congruence,
    power,
)
from golden_bounds.means import geometric_mean, limit_probe, mean_power
from golden_bounds.orders import loewner_leq, olson_leq
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
_H1 = HermitianMatrix(np.eye(1))
_PD1, _PD2 = PositiveDefiniteMatrix(np.eye(1)), PositiveDefiniteMatrix(np.eye(2))
#: The exponent grid these tests collect Olson evidence on.
GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


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
        # a tag of 2**64 would draw index 1's stream; an index of 2**128
        # would leave the 256-bit counter
        (lambda: philox_generator(0, 0, 2**64), BadRangeError,
         f"index must be below 2**128 and tag below 2**64, got (0, {2**64})"),
        (lambda: philox_generator(0, 2**128, 0), BadRangeError,
         f"index must be below 2**128 and tag below 2**64, got ({2**128}, 0)"),
        (lambda: random_isometry(_CFG_3, 4), DimMismatchError, "rows must lie in [1, 3], got 4"),
        (lambda: random_pd(_SIGNED), BadRangeError,
         "positive definite draws need a positive range, got [-1.0, 1.0]"),
        (lambda: random_pd_pair(_SIGNED), BadRangeError,
         "positive definite draws need a positive range, got [-1.0, 1.0]"),
        (lambda: olson_sandwich_pair(_SIGNED), BadRangeError,
         "positive definite draws need a positive range, got [-1.0, 1.0]"),
        (lambda: sampling._ratio_reduction(1e-300, 1e300), BadRangeError,
         "m/M = 1e-300/1e+300 underflows to 0 in double precision"),
        (lambda: sampling._ratio_reduction(1e-160, 1e160), BadRangeError,
         "M/m = 1e+160/1e-160 exceeds double range"),
        (lambda: certify_inequality(
            "kantorovich-matrix", random_pd(_CFG_3), np.eye(2, 4), m=0.5, M=2.0
         ), DimMismatchError, "isometry shape (2, 4) incompatible with dim 3"),
        (lambda: compare_specht_vs_fm(0.5, 0.5, 0.9), BadRangeError, "h must be >= 1, got 0.9"),
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
        (lambda: philox_generator(3.0, 0, 0), BadRangeError, "seed must be an integer, got 3.0"),
        (lambda: philox_generator(3, 1.5, 0), BadRangeError, "index must be an integer, got 1.5"),
        (lambda: SamplerConfig(2.0, 0, 0.1, 1.0), BadRangeError, "dim must be an integer, got 2.0"),
        # a bool is no integer, as np.True_ is not
        (lambda: run_instances("gt-specht", count=True), BadRangeError,
         "count must be an integer, got True"),
        (lambda: run_instances("gt-specht", 1, seed=True), BadRangeError,
         "seed must be an integer, got True"),
        (lambda: run_instances("gt-specht", 1, n=True), BadRangeError,
         "n must be an integer, got True"),
        (lambda: SamplerConfig(True, 0, 0.5, 1.0), BadRangeError, "dim must be an integer, got True"),
        (lambda: random_isometry(_CFG_3, True), BadRangeError, "rows must be an integer, got True"),
        (lambda: philox_generator(0, True, 0), BadRangeError, "index must be an integer, got True"),
        # a NaN exponent is named, whatever the spectrum
        (lambda: power(PositiveDefiniteMatrix(np.eye(2)), math.nan), BadRangeError,
         "exponent must not be NaN, got nan"),
        # a scalar that is not a number is a BadRangeError naming it, in every module
        (lambda: specht("x"), BadRangeError, "t must be a number, got 'x'"),
        (lambda: specht_p_root(2, "x"), BadRangeError, "p must be a number, got 'x'"),
        (lambda: fm_factor("x", 0.5, 1), BadRangeError, "h must be a number, got 'x'"),
        (lambda: kantorovich_limit_root("x", 0.5, (1, 0.5)), BadRangeError,
         "w must be a number, got 'x'"),
        (lambda: evaluate_constant("specht", 5), BadRangeError,
         "arguments must be a sequence of numbers, got 5"),
        (lambda: power(random_pd(_CFG_3), None), BadRangeError,
         "exponent must be a number, got None"),
        (lambda: mean_power(_I2, _I2, 0.5, "x"), BadRangeError, "q must be a number, got 'x'"),
        (lambda: SamplerConfig(3, 1, "x", 1.0), BadRangeError, "lo must be a number, got 'x'"),
        (lambda: random_isometry(_CFG_3, "x"), BadRangeError, "rows must be an integer, got 'x'"),
        (lambda: olson_leq(random_pd(_CFG_3), random_pd(_CFG_3), ["x"]), BadGridError,
         "exponent grid must be a sequence of numbers, got ['x']"),
        (lambda: compare_seo_constants(0.5, 0.5, "x", 1), BadRangeError,
         "m must be a number, got 'x'"),
        (lambda: certify_inequality(
            "specht-power-low", _I2, _I2, alpha=0.5, r=0.5, s="x", t=2.0
         ), BadRangeError, "s must be a number, got 'x'"),
        (lambda: certify_inequality("specht-pq", _I2, _I2, alpha=0.5, q=None, p=1.0, s=0.5, t=2.0),
         BadRangeError, "q must be a number, got None"),
        (lambda: certify_inequality(
            "bounded-power-low", _I2, _I2, alpha=0.5, r=0.5, m=0.5, M=None
         ), BadRangeError, "M must be a number, got None"),
        # a number float() overflows on is named too, its repr cut to 40 characters
        (lambda: specht(10**400), BadRangeError, f"t exceeds double range, got 1{'0' * 39}..."),
        (lambda: specht(Fraction(10**400)), BadRangeError,
         f"t exceeds double range, got Fraction(1{'0' * 30}..."),
        (lambda: evaluate_constant("specht", [10**400]), BadRangeError,
         f"arguments exceeds double range, got [1{'0' * 38}..."),
        (lambda: run_instances("gt-specht", 1, param_overrides={"alpha": 10**400}), BadRangeError,
         f"pinned alpha exceeds double range, got 1{'0' * 39}..."),
        (lambda: olson_leq(random_pd(_CFG_3), random_pd(_CFG_3), [1, 10**400]), BadGridError,
         f"exponent grid exceeds double range, got [1, 1{'0' * 35}..."),
        # a sweep's dimension and mode are checked where they enter, by their names
        (lambda: run_instances("gt-specht", 1, n="x"), BadRangeError,
         "n must be an integer, got 'x'"),
        (lambda: run_instances("gt-specht", 1, n=2.0), BadRangeError,
         "n must be an integer, got 2.0"),
        (lambda: run_instances("gt-specht", 1, n=0), BadRangeError, "n must be >= 1, got 0"),
        (lambda: run_instances("gt-specht", 1, mode="diagonal"), BadRangeError,
         "mode must be None, 'general' or 'commuting', got 'diagonal'"),
        # a scale factor goes through the scalar gate, and a caller's array
        # that is not numbers, ragged or overflows through the array gate
        (lambda: HermitianMatrix(np.eye(2)) * 10**400, BadRangeError,
         f"a matrix scale factor exceeds double range, got 1{'0' * 39}..."),
        (lambda: 10**400 * HermitianMatrix(np.eye(2)), BadRangeError,
         f"a matrix scale factor exceeds double range, got 1{'0' * 39}..."),
        (lambda: HermitianMatrix([[10**400]]), NotHermitianError,
         f"matrix entries must be numbers, got [[1{'0' * 37}..."),
        (lambda: HermitianMatrix([["x"]]), NotHermitianError,
         "matrix entries must be numbers, got [['x']]"),
        (lambda: HermitianMatrix([[1, 2], [3]]), NotHermitianError,
         "matrix entries must be numbers, got [[1, 2], [3]]"),
        (lambda: SpectralDecomposition(["x"], np.eye(1)), NotHermitianError,
         "decomposition entries must be numbers, got ['x']"),
        (lambda: SpectralDecomposition([1.0], [[10**400]]), NotHermitianError,
         f"decomposition entries must be numbers, got [[1{'0' * 37}..."),
        (lambda: congruence([["x"]], _I2), NotHermitianError,
         "transform entries must be numbers, got [['x']]"),
        (lambda: congruence([[10**400]], _I2), NotHermitianError,
         f"transform entries must be numbers, got [[1{'0' * 37}..."),
        (lambda: certify_inequality(
            "kantorovich-matrix", PositiveDefiniteMatrix(np.eye(2)), [["x", 0]], m=1.0, M=1.0
         ), NotHermitianError, "transform entries must be numbers, got [['x', 0]]"),
        # operands of two sizes are named as such, at the means' endpoints too
        (lambda: geometric_mean(_PD1, _PD2, 0.0), DimMismatchError, "dimension mismatch: 1 vs 2"),
        (lambda: mean_power(_H1, _I2, 0.0, 1.0), DimMismatchError, "dimension mismatch: 1 vs 2"),
        (lambda: mean_power(_H1, _I2, 0.5, 1.0), DimMismatchError, "dimension mismatch: 1 vs 2"),
        (lambda: inv_sqrt_congruence(_PD1, _I2), DimMismatchError, "dimension mismatch: 1 vs 2"),
        # a negative w is named, not the complex w**p it would give
        (lambda: kantorovich_limit_root(-2.0, 0.5, [0.5]), NonPositiveError,
         "Kantorovich constant needs w > 0, got -2.0"),
        # a spectral range whose width leaves double range, and an
        # exponential chain bound that underflows, are named where they enter
        (lambda: SamplerConfig(2, 0, -1e308, 1e308), BadRangeError,
         "width of the spectral range [-1e+308, 1e+308] exceeds double range"),
        (lambda: ordered_exponential_chain_pair(SamplerConfig(2, 0, -800.0, -1.0), grid=GRID),
         BadRangeError, "e^(m) = e^(-800) underflows to 0 in double precision"),
        # text is not read character by character, nor a set or mapping in
        # hash order; generators, lists, tuples and arrays pass
        (lambda: evaluate_constant("kantorovich", "25"), BadRangeError,
         "arguments must be a sequence of numbers, got '25'"),
        (lambda: evaluate_constant("kantorovich", {2.0, 0.5}), BadRangeError,
         f"arguments must be a sequence of numbers, got {({2.0, 0.5})!r}"),
        (lambda: evaluate_constant("specht", b"2"), BadRangeError,
         "arguments must be a sequence of numbers, got b'2'"),
        (lambda: evaluate_constant("specht", bytearray(b"2")), BadRangeError,
         "arguments must be a sequence of numbers, got bytearray(b'2')"),
        (lambda: evaluate_constant("specht", {2.0: "t"}), BadRangeError,
         "arguments must be a sequence of numbers, got {2.0: 't'}"),
        (lambda: convergence_study(_I2, _I2, 0.0, 0.0, 0.5, "51"), BadRangeError,
         "p_sequence must be a sequence of numbers, got '51'"),
        (lambda: limit_probe(_I2, _I2, 0.5, frozenset({1.0})), BadRangeError,
         "q_sequence must be a sequence of numbers, got frozenset({1.0})"),
        (lambda: olson_leq(random_pd(_CFG_3), random_pd(_CFG_3), "12"), BadGridError,
         "exponent grid must be a sequence of numbers, got '12'"),
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
    assert [r.to_dict() for r in numpy_seed.reports] == [
        r.to_dict() for r in run_instances("gt-specht", count=2, seed=3).reports
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
        assert oracles.loewner_holds(sample.a * 0.7, sample.b)
        assert oracles.loewner_holds(sample.b, sample.a * 2.5)
        # the observed sandwich lies inside the requested [s, t]
        lo_obs, hi_obs = oracles.sandwich_bounds(sample.a, sample.b)
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
        oracles.olson_holds(sample.a * sample.s, sample.b, GRID),
        oracles.olson_holds(sample.b, sample.a * sample.t, GRID),
    )


def test_olson_sandwich_modes_and_certificates():
    commuting = SamplerConfig(3, 6, 0.4, 1.6, mode=MODE_COMMUTING)
    sample = olson_sandwich_pair(commuting, 0)
    assert sample.s == pytest.approx(0.25)
    assert sample.t == pytest.approx(4.0)
    assert all(_olson_sandwich_checks(sample))

    general = SamplerConfig(3, 6, 0.4, 1.6, mode=MODE_GENERAL)
    assert all(_olson_sandwich_checks(olson_sandwich_pair(general, 0)))


def test_olson_and_loewner_agree_on_commuting_draws():
    # on a commuting pair Olson order is Loewner order, so the grid's r = 1
    # entry decides every exponent: the two checks give one verdict
    verdicts = []
    for n in range(2, 7):
        cfg = SamplerConfig(n, 5, 0.3, 0.8, mode=MODE_COMMUTING)
        for index in range(3):
            chain = ordered_chain_pair(cfg, index, grid=GRID)
            sample = olson_sandwich_pair(cfg, index)
            pairs = [
                (chain.a, chain.b),
                (sample.a * sample.s, sample.b),
                (sample.b, sample.a * sample.t),
                random_pd_pair(cfg, index),
            ]
            for x, y in pairs:
                for lhs, rhs in ((x, y), (y, x)):
                    holds = loewner_leq(lhs, rhs)
                    assert olson_leq(lhs, rhs, GRID) is holds
                    assert oracles.loewner_holds(lhs, rhs) is holds
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
    assert oracles.olson_holds(lhs, mid, GRID) and oracles.olson_holds(mid, rhs, GRID)
    assert oracles.loewner_margin(lhs, mid) >= -1e-9
    assert oracles.loewner_margin(mid, rhs) >= -1e-9


def test_ordered_chain_loewner_and_bounds():
    for mode in (MODE_COMMUTING, MODE_GENERAL):
        cfg = SamplerConfig(4, 10, 0.2, 0.9, mode=mode)
        chain = ordered_chain_pair(cfg, 0, grid=(1.0,))
        assert 0.0 < chain.m <= chain.M <= 1.0 + 1e-12
        assert oracles.loewner_holds(chain.a, chain.b)
        assert chain.a.eigenvalues[-1] >= chain.m - 1e-10
        assert chain.b.eigenvalues[0] <= chain.M + 1e-10
        assert oracles.loewner_margin(chain.a, chain.b) >= -1e-9


def test_ordered_chain_olson_middle():
    cfg = SamplerConfig(3, 11, 0.3, 0.8, mode=MODE_GENERAL)
    chain = ordered_chain_pair(cfg, 1, grid=(1.0, 2.0, 3.0))
    assert oracles.olson_holds(chain.a, chain.b, (1.0, 2.0, 3.0))


@pytest.mark.parametrize(
    "sampler, lo, hi",
    [(ordered_chain_pair, 0.3, 0.8), (ordered_exponential_chain_pair, -1.2, -0.2)],
    ids=["ordered_chain_pair", "ordered_exponential_chain_pair"],
)
def test_ordered_chain_checks_its_olson_middle_on_the_grid_it_is_given(
    chain_checks, sampler, lo, hi
):
    # a general-mode chain always runs the shared test on its grid, which
    # it must be given; at exponent 1 alone the first perturbation passes
    checked = chain_checks
    cfg = SamplerConfig(3, 11, lo, hi, mode=MODE_GENERAL)
    with pytest.raises(TypeError, match="grid"):
        sampler(cfg, 1)
    sampler(cfg, 1, grid=(1.0,))
    assert checked == [1.0]
    sampler(cfg, 1, grid=(1.0, 2.0))
    # the accepted step passed the shared test at every grid exponent
    assert set(checked) == {1.0, 2.0} and checked[-2:] == [1.0, 2.0]


def test_ordered_chain_falls_back_to_the_commuting_pair(monkeypatch):
    # when the shared Loewner test rejects every perturbation size, the
    # exact commuting construction (e = 0) is returned
    monkeypatch.setattr(orders, "loewner_leq", lambda lhs, rhs: False)
    general = ordered_chain_pair(SamplerConfig(3, 11, 0.3, 0.8), 1, grid=(1.0, 2.0))
    commuting = ordered_chain_pair(
        SamplerConfig(3, 11, 0.3, 0.8, mode=MODE_COMMUTING), 1, grid=(1.0,)
    )
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
        ordered_chain_pair(SamplerConfig(3, 1, 0.5, 1.5), 0, grid=(1.0,))
    with pytest.raises(BadRangeError):
        ordered_chain_pair(SamplerConfig(3, 1, 0.0, 0.5), 0, grid=(1.0,))


def test_exponential_chain_relations():
    cfg = SamplerConfig(3, 13, -1.2, -0.1)
    sample = ordered_exponential_chain_pair(cfg, 0, grid=(1.0, 2.0))
    assert sample.m <= sample.M <= 0.0 + 1e-12
    assert sample.h.eigenvalues[-1] >= sample.m - 1e-9
    assert sample.k.eigenvalues[0] <= sample.M + 1e-9
    assert oracles.loewner_margin(exp_h(sample.h), exp_h(sample.k)) >= -1e-9


def test_exponential_chain_rejects_positive_upper_bound():
    with pytest.raises(BadRangeError):
        ordered_exponential_chain_pair(SamplerConfig(3, 1, -1.0, 0.5), 0, grid=(1.0,))
