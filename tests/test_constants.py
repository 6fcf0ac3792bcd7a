"""Scalar constants: frozen oracle values, identities, branches, domains."""

import math

import numpy as np
import pytest

from golden_bounds.constants import (
    BRANCH_DIRECT,
    BRANCH_LIMIT,
    BRANCH_SERIES,
    ConstantEval,
    evaluate_constant,
    fm_factor,
    kantorovich,
    kantorovich_limit_root,
    kantorovich_lower_bound,
    specht,
    specht_p_root,
)
from golden_bounds.errors import (
    BadRangeError,
    EmptySequenceError,
    NonPositiveError,
)

import oracles


# ---------------------------------------------------------------------------
# Specht ratio
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "t, expected",
    [
        (2.0, oracles.SPECHT_2),
        (8.0, oracles.SPECHT_8),
        (10.0, oracles.SPECHT_10),
    ],
)
def test_specht_frozen_values(t, expected):
    assert specht(t) == pytest.approx(expected, rel=1e-14)


def test_specht_matches_mpmath_on_grid():
    for t in (0.05, 0.3, 0.9, 1.7, 3.0, 25.0, 400.0):
        assert specht(t) == pytest.approx(oracles.specht_mp(t), rel=1e-13)


def test_specht_at_one_is_exactly_one():
    assert specht(1.0) == 1.0


def test_specht_symmetry():
    for t in (1.001, 1.5, 2.0, 7.3, 120.0):
        assert abs(specht(t) - specht(1.0 / t)) <= 1e-13 * specht(t)


def test_specht_exceeds_one_off_unity():
    for t in (0.01, 0.5, 0.999, 1.001, 3.0, 1e4):
        assert specht(t) > 1.0


def test_specht_series_window_quadratic_behavior():
    u = 1e-7
    assert specht(1.0 + u) == pytest.approx(1.0 + u * u / 8.0, abs=1e-18)


def test_specht_branch_boundary_consistent():
    # Values just inside and outside the series window must agree closely.
    lo = specht(1.0 + 0.99e-6)
    hi = specht(1.0 + 1.01e-6)
    assert abs(hi - lo) <= 1e-10


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_specht_domain(bad):
    with pytest.raises(NonPositiveError):
        specht(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_constants_reject_non_finite_arguments(bad):
    # specht(inf) used to be NaN, which max() in a factor silently dropped
    with pytest.raises(BadRangeError):
        specht(bad)
    with pytest.raises(BadRangeError):
        kantorovich(bad, 0.5)
    with pytest.raises(BadRangeError):
        kantorovich(2.0, bad)
    with pytest.raises(BadRangeError):
        evaluate_constant("specht", [bad])
    with pytest.raises(BadRangeError):
        evaluate_constant("kantorovich", [2.0, bad])
    with pytest.raises(BadRangeError):
        kantorovich_lower_bound(bad)
    with pytest.raises(BadRangeError):
        specht_p_root(0.5, bad)
    with pytest.raises(BadRangeError):
        fm_factor(bad, 0.5, 1.0)
    with pytest.raises(BadRangeError):
        fm_factor(2.0, 0.5, bad)


@pytest.mark.parametrize("t", [1e-320, 5e-309])
def test_specht_beyond_double_range(t):
    with pytest.raises(BadRangeError, match=r"exceeds double range$"):
        specht(t)


@pytest.mark.parametrize(
    "constant, arguments",
    [
        (kantorovich, (1e300, 1.5)),
        (specht_p_root, (1e200, 2.0)),
        (kantorovich_limit_root, (1e300, 3.0, [2.0, 1.0])),
        (fm_factor, (2.0, 0.5, 1e300)),
    ],
    ids=["kantorovich", "specht_p_root", "kantorovich_limit_root", "fm_factor"],
)
def test_constants_beyond_double_range(constant, arguments):
    # float ** and math.exp raise OverflowError; each constant reports it
    with pytest.raises(BadRangeError, match=r"exceeds double range$"):
        constant(*arguments)


def test_specht_p_root_frozen():
    assert specht_p_root(2.0, 1.0) == pytest.approx(oracles.SPECHT_2, rel=1e-14)
    assert specht_p_root(2.0, 2.0) == pytest.approx(
        math.sqrt(oracles.specht_mp(4.0)), rel=1e-13
    )


def test_specht_p_root_tends_to_one():
    values = [specht_p_root(10.0, p) for p in (1.0, 0.1, 0.01, 1e-4, 1e-6)]
    assert all(v >= 1.0 for v in values)
    assert values == sorted(values, reverse=True)
    assert values[-1] == pytest.approx(1.0, abs=1e-4)


def test_specht_p_root_domains():
    with pytest.raises(NonPositiveError):
        specht_p_root(2.0, 0.0)
    with pytest.raises(NonPositiveError):
        specht_p_root(0.0, 1.0)


# ---------------------------------------------------------------------------
# Generalized Kantorovich constant
# ---------------------------------------------------------------------------


def test_kantorovich_frozen_values():
    assert kantorovich(2.0, 0.5) == pytest.approx(oracles.KANTOROVICH_2_HALF, rel=1e-14)
    assert kantorovich(math.e**2, 0.25) == pytest.approx(
        oracles.KANTOROVICH_E2_QUARTER, rel=1e-14
    )
    assert kantorovich(3.0, 0.3) == pytest.approx(oracles.KANTOROVICH_3_03, rel=1e-14)


def test_kantorovich_matches_mpmath_on_grid():
    for w in (0.2, 0.9, 1.3, 4.0, 50.0):
        for alpha in (0.1, 0.4, 0.5, 0.85):
            assert kantorovich(w, alpha) == pytest.approx(
                oracles.kantorovich_mp(w, alpha), rel=1e-12
            )


@pytest.mark.parametrize("w", [5e-324, 1e-320, 1e-309, 1e-300, 1e-200, 1e-20, 1e-5, 0.3])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_kantorovich_matches_mpmath_for_small_w(w, alpha):
    # w^a - w cancels for tiny w unless the constant is evaluated at 1/w,
    # and below 1/DBL_MAX 1/w itself leaves double range.  K is as small
    # as 3e-81 here, so the default absolute tolerance is switched off.
    expected = oracles.kantorovich_mp(w, alpha)
    assert kantorovich(w, alpha) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_kantorovich_small_w_closed_form_and_range():
    assert kantorovich(1e-20, 2.0) == pytest.approx((1.0 + 1e-20) ** 2 / 4e-20, rel=1e-13)
    for w, alpha in ((1e-300, 2.0), (1e-300, 3.0), (1e-320, 2.0)):
        with pytest.raises(BadRangeError, match="exceeds double range"):
            kantorovich(w, alpha)


def test_kantorovich_alpha_symmetry():
    for w in (1.5, 3.0, 9.0):
        for alpha in (0.2, 0.3, 0.45):
            assert kantorovich(w, alpha) == pytest.approx(
                kantorovich(w, 1.0 - alpha), rel=1e-13
            )


def test_kantorovich_half_closed_form():
    for w in (1.5, 2.0, 7.0, 40.0):
        expected = 2.0 * w**0.25 / (math.sqrt(w) + 1.0)
        assert kantorovich(w, 0.5) == pytest.approx(expected, rel=1e-12)


def test_kantorovich_outside_unit_interval_closed_form():
    # At alpha = 2 and alpha = -1 the constant is the classical (1+h)^2/(4h).
    for h in (1.5, 2.0, 5.0):
        classical = (1.0 + h) ** 2 / (4.0 * h)
        assert kantorovich(h, 2.0) == pytest.approx(classical, rel=1e-12)
        assert kantorovich(h, -1.0) == pytest.approx(classical, rel=1e-12)


def test_kantorovich_bounds_on_unit_interval():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        w = float(rng.uniform(0.05, 60.0))
        alpha = float(rng.uniform(0.0, 1.0))
        value = kantorovich(w, alpha)
        assert kantorovich_lower_bound(w) - 1e-12 <= value <= 1.0 + 1e-12


def test_kantorovich_degenerate_points_exact():
    assert kantorovich(1.0, 0.37) == 1.0
    assert kantorovich(5.0, 0.0) == 1.0
    assert kantorovich(5.0, 1.0) == 1.0


def test_kantorovich_limit_window_slope():
    # Near alpha = 0 the constant behaves like 1 + alpha (1 - L + log L).
    eps = 1e-9
    expected = 1.0 + eps * oracles.KANTOROVICH_SLOPE_2
    assert kantorovich(2.0, eps) == pytest.approx(expected, abs=1e-15)


def test_kantorovich_limit_branch_boundary_consistent():
    inside = kantorovich(2.0, 0.99e-8)
    outside = kantorovich(2.0, 1.01e-8)
    assert abs(inside - outside) <= 1e-10


def test_kantorovich_w_near_one_continuous():
    inside = kantorovich(1.0 + 0.99e-8, 0.3)
    outside = kantorovich(1.0 + 1.01e-8, 0.3)
    assert abs(inside - 1.0) <= 1e-12
    assert abs(outside - 1.0) <= 1e-12


def test_kantorovich_domain():
    with pytest.raises(NonPositiveError):
        kantorovich(0.0, 0.5)
    with pytest.raises(NonPositiveError):
        kantorovich(-2.0, 0.5)


def test_kantorovich_lower_bound_values():
    for w in (1.0, 2.0, 16.0):
        expected = 2.0 * w**0.25 / (math.sqrt(w) + 1.0)
        assert kantorovich_lower_bound(w) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(NonPositiveError):
        kantorovich_lower_bound(0.0)


def test_kantorovich_limit_root_descends_to_one():
    roots = kantorovich_limit_root(math.e**2, 0.5, [1.0, 0.1, 0.01, 1e-3, 1e-4])
    assert len(roots) == 5
    assert all(r >= 1.0 for r in roots)
    assert roots == sorted(roots, reverse=True)
    assert roots[-1] == pytest.approx(1.0, abs=1e-3)


def test_kantorovich_limit_root_validation():
    with pytest.raises(EmptySequenceError):
        kantorovich_limit_root(2.0, 0.5, [])
    with pytest.raises(NonPositiveError):
        kantorovich_limit_root(2.0, 0.5, [1.0, -0.1])
    with pytest.raises(BadRangeError):
        kantorovich_limit_root(2.0, 0.5, [0.1, 0.5])


# ---------------------------------------------------------------------------
# Exponential reverse factor
# ---------------------------------------------------------------------------


def test_fm_factor_frozen_value():
    assert fm_factor(2.0, 0.5, 2.0) == pytest.approx(oracles.FM_2_HALF_2, rel=1e-15)


def test_fm_factor_formula():
    for h, alpha, scale in ((1.5, 0.3, 1.0), (4.0, 0.8, 0.25), (9.0, 0.5, 3.0)):
        expected = math.exp(scale * alpha * (1.0 - alpha) * (1.0 - 1.0 / h) ** 2)
        assert fm_factor(h, alpha, scale) == pytest.approx(expected, rel=1e-15)


def test_fm_factor_degenerate_one():
    assert fm_factor(1.0, 0.5, 1.0) == 1.0
    assert fm_factor(3.0, 0.0, 1.0) == 1.0
    assert fm_factor(3.0, 1.0, 1.0) == 1.0


def test_fm_factor_always_at_least_one():
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = float(rng.uniform(1.0, 50.0))
        alpha = float(rng.uniform(0.0, 1.0))
        scale = float(rng.uniform(0.01, 5.0))
        assert fm_factor(h, alpha, scale) >= 1.0


def test_fm_factor_domains():
    with pytest.raises(BadRangeError):
        fm_factor(0.9, 0.5, 1.0)
    with pytest.raises(BadRangeError):
        fm_factor(2.0, 1.5, 1.0)
    with pytest.raises(BadRangeError):
        fm_factor(2.0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# Scalar reverse AM-GM and the evaluator front end
# ---------------------------------------------------------------------------


def _specht_amgm(values) -> tuple[float, float]:
    """Arithmetic mean and its reverse AM-GM bound S(max/min) * geometric mean."""
    mean = sum(values) / len(values)
    geomean = math.exp(sum(math.log(x) for x in values) / len(values))
    return mean, specht(max(values) / min(values)) * geomean


def test_scalar_amgm_reverse_holds_on_random_tuples():
    rng = np.random.default_rng(11)
    for _ in range(300):
        values = [float(x) for x in rng.uniform(0.2, 9.0, size=int(rng.integers(1, 7)))]
        mean, bound = _specht_amgm(values)
        assert mean <= bound + 1e-12 * bound


def test_scalar_amgm_equal_values_tight():
    mean, bound = _specht_amgm([3.0, 3.0, 3.0])
    assert mean == pytest.approx(3.0, rel=1e-15)
    assert bound == pytest.approx(3.0, rel=1e-15)
    assert bound - mean == pytest.approx(0.0, abs=1e-14)


def test_scalar_amgm_validation():
    # the bound needs a finite positive spread max/min; an unbounded one has no constant
    for ratio in (math.inf, math.nan):
        with pytest.raises(BadRangeError):
            specht(ratio)
    with pytest.raises(NonPositiveError):
        specht(0.0)


def test_evaluate_constant_names_and_branches():
    direct = evaluate_constant("specht", [2.0])
    assert isinstance(direct, ConstantEval)
    assert direct.value == pytest.approx(oracles.SPECHT_2, rel=1e-14)
    assert direct.branch == BRANCH_DIRECT

    series = evaluate_constant("specht", [1.0 + 1e-8])
    assert series.branch == BRANCH_SERIES

    limit = evaluate_constant("kantorovich", [2.0, 1e-9])
    assert limit.branch == BRANCH_LIMIT

    fm = evaluate_constant("fm", [2.0, 0.5, 2.0])
    assert fm.value == pytest.approx(oracles.FM_2_HALF_2, rel=1e-15)

    lower = evaluate_constant("kantorovich-lower-bound", [2.0])
    assert lower.value == pytest.approx(kantorovich_lower_bound(2.0), rel=1e-15)

    root = evaluate_constant("specht-p-root", [2.0, 2.0])
    assert root.value == pytest.approx(specht_p_root(2.0, 2.0), rel=1e-15)


def test_evaluate_constant_usage_errors():
    with pytest.raises(BadRangeError):
        evaluate_constant("nope", [1.0])
    with pytest.raises(BadRangeError):
        evaluate_constant("specht", [1.0, 2.0])
    with pytest.raises(BadRangeError):
        evaluate_constant("kantorovich", [2.0])
