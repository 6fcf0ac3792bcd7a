"""Certifiers: report invariants, scalar cross-checks, hypothesis guards."""

import dataclasses
import itertools
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from golden_bounds import _pool, certify, linalg, means, sampling
from golden_bounds.certify import (
    CSV_HEADER,
    INEQUALITY_IDS,
    N_CYCLE,
    RECIPES,
    certify_inequality,
    compare_constants_remark,
    compare_seo_constants,
    compare_specht_vs_fm,
    convergence_study,
    run_instances,
    specht_fm_sign_scan,
)
from golden_bounds.constants import (
    fm_factor,
    kantorovich,
    kantorovich_limit_root,
    kantorovich_lower_bound,
    specht,
    specht_p_root,
)
from golden_bounds.errors import (
    BadRangeError,
    DomainError,
    EmptySequenceError,
    GoldenBoundsError,
    HypothesisViolatedError,
    NonPositiveError,
)
from golden_bounds.linalg import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    exp_h,
    ky_fan_norm,
    power,
    schatten_norm,
)
from golden_bounds.means import geometric_mean, limit_probe, log_euclidean, mean_power
from golden_bounds.sampling import (
    SamplerConfig,
    bounded_hermitian_pair,
    olson_exponential_pair,
    ordered_chain_pair,
    ordered_exponential_chain_pair,
    random_isometry,
    random_pd,
    random_pd_pair,
    sandwich_pair,
)

import oracles

#: The exponent grid of the chain samples these tests draw.
_OLSON_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


def commuting_pd_pair(avals, bvals, seed=0):
    """PD pair diagonal in one random basis with paired spectra."""
    rng = np.random.default_rng(seed)
    n = len(avals)
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(raw)
    a = PositiveDefiniteMatrix((q * np.asarray(avals, float)) @ q.conj().T)
    b = PositiveDefiniteMatrix((q * np.asarray(bvals, float)) @ q.conj().T)
    return a, b


def commuting_hermitian_pair(hvals, kvals, seed=0):
    rng = np.random.default_rng(seed)
    n = len(hvals)
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(raw)
    h = HermitianMatrix((q * np.asarray(hvals, float)) @ q.conj().T)
    k = HermitianMatrix((q * np.asarray(kvals, float)) @ q.conj().T)
    return h, k


# ---------------------------------------------------------------------------
# Report structure
# ---------------------------------------------------------------------------


def test_report_fields_and_serialization():
    a, b = commuting_pd_pair([2.0, 1.0], [1.5, 1.2])
    report = certify_inequality("bounded-power-low", a, b, m=1.0, M=2.0, alpha=0.5, r=0.5)
    assert report.inequality_id == "bounded-power-low"
    assert report.holds
    assert report.semantics == "loewner"
    assert report.n == 2
    assert len(report.margins) == len(report.labels) == len(report.lhs_values)
    assert report.margins == tuple(
        r - l for l, r in zip(report.lhs_values, report.rhs_values)
    )
    assert report.worst_relative_margin == min(report.relative_margins)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["inequality_id"] == "bounded-power-low"
    assert payload["parameters"]["factor"] >= 1.0
    assert len(report.input_digest) == 16
    rows = report.csv_rows(instance=3)
    assert all(len(row) == len(CSV_HEADER) for row in rows)
    assert rows[0][1] == 3


def test_report_digest_tracks_inputs():
    a, b = commuting_pd_pair([2.0, 1.0], [1.5, 1.2])
    r1 = certify_inequality("bounded-power-low", a, b, m=1.0, M=2.0, alpha=0.5, r=0.5)
    r2 = certify_inequality("bounded-power-low", a, b, m=1.0, M=2.0, alpha=0.5, r=0.6)
    r3 = certify_inequality("bounded-power-low", a, b, m=1.0, M=2.0, alpha=0.5, r=0.5)
    assert r1.input_digest != r2.input_digest
    assert r1.input_digest == r3.input_digest


@pytest.mark.parametrize(
    "inequality_id, params",
    [
        ("bounded-pq", {"alpha": 0.5, "q": 1, "p": 2, "m": 1, "M": 2}),
        ("gt-bounded-specht", {"alpha": 0.5, "p": 1, "m": 1, "M": 2}),
        ("gt-specht", {"alpha": 0.5, "p": 1, "s": -1, "t": 1}),
        ("gt-kantorovich-squared", {"m": 1, "M": 2}),
    ],
)
def test_report_digest_ignores_the_python_type_of_a_parameter(inequality_id, params):
    # the digest hashes the float values the report prints, so 1 and 1.0 agree
    a, b = commuting_pd_pair([2.0, 1.0], [1.5, 1.2])
    as_ints = certify_inequality(inequality_id, a, b, **params)
    as_floats = certify_inequality(
        inequality_id, a, b, **{k: float(v) for k, v in params.items()}
    )
    assert as_ints.parameters == as_floats.parameters
    assert as_ints.input_digest == as_floats.input_digest


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_opening_an_instance_fixes_the_report_head(inequality_id):
    # both halves of a split instance carry the head that opening computes,
    # so it must be the (n, input digest) of the report of one process
    x, y, given = certify._draw(inequality_id, 1, 3, 3, sampling.MODE_GENERAL, {})
    _, head = certify._opened(inequality_id, x, y, given)
    report = certify_inequality(inequality_id, x, y, **given)
    assert head == (report.n, report.input_digest) and report.n == 3


# ---------------------------------------------------------------------------
# Scalar cross-checks on commuting pairs
# ---------------------------------------------------------------------------


def test_specht_eigen_power_matches_scalar_computation():
    avals = np.array([1.6, 1.0, 0.7])
    ratios = np.array([0.8, 1.1, 1.9])
    a, b = commuting_pd_pair(avals, avals * ratios, seed=3)
    s, t = float(ratios.min()), float(ratios.max())
    alpha, r = 0.3, 2.0
    report = certify_inequality("specht-eigen-power", a, b, s=s, t=t, alpha=alpha, r=r)
    assert report.holds

    products = avals ** (1.0 - alpha) * (avals * ratios) ** alpha
    expected_lhs = np.sort(products)[::-1] ** r
    factor = max(specht(s**r), specht(t**r))
    powered = (avals**r) ** (1.0 - alpha) * ((avals * ratios) ** r) ** alpha
    expected_rhs = factor * np.sort(powered)[::-1]
    assert report.lhs_values == pytest.approx(expected_lhs, rel=1e-10)
    assert report.rhs_values == pytest.approx(expected_rhs, rel=1e-10)
    assert report.parameters["factor"] == pytest.approx(factor, rel=1e-15)


def test_gt_specht_commuting_margins_are_factor_gap():
    # On a commuting pair the exponential side and the mean-power side agree
    # exactly, so every relative margin equals (factor - 1)/factor.
    h, k = commuting_hermitian_pair([0.4, -0.2, 0.1], [-0.3, 0.2, 0.0], seed=5)
    m = min(float(h.eigenvalues[-1]), float(k.eigenvalues[-1]))
    M = max(float(h.eigenvalues[0]), float(k.eigenvalues[0]))
    s, t = m - M, M - m
    report = certify_inequality("gt-specht", h, k, s=s, t=t, alpha=0.4, p=1.3)
    assert report.holds
    factor = report.parameters["factor"]
    assert factor > 1.0
    expected = (factor - 1.0) / factor
    assert report.relative_margins == pytest.approx(
        [expected] * len(report.relative_margins), rel=1e-9
    )


def test_fm_pq_matches_scalar_computation():
    avals = np.array([0.30, 0.42, 0.55])
    bvals = np.array([0.35, 0.50, 0.80])
    a, b = commuting_pd_pair(avals, bvals, seed=7)
    m, M = 0.30, 0.80
    alpha, q, p = 0.6, 0.5, 1.5
    report = certify_inequality("fm-pq", a, b, m=m, M=M, alpha=alpha, q=q, p=p)
    assert report.holds
    h_ratio = M / m
    factor = fm_factor(h_ratio**p, alpha, 1.0 / p)
    lhs = np.sort(avals ** (q * (1 - alpha)) * bvals ** (q * alpha))[::-1] ** (1.0 / q)
    rhs = factor * np.sort(avals ** (p * (1 - alpha)) * bvals ** (p * alpha))[::-1] ** (
        1.0 / p
    )
    assert report.lhs_values == pytest.approx(lhs, rel=1e-10)
    assert report.rhs_values == pytest.approx(rhs, rel=1e-10)


def test_forward_trace_commuting_is_tight():
    h, k = commuting_hermitian_pair([0.5, -0.1], [0.2, 0.3], seed=9)
    report = certify_inequality("forward-gt-trace", h, k)
    assert report.holds
    assert abs(report.relative_margins[0]) <= 1e-12


#: The ids whose reports are Loewner comparisons: they keep only the
#: eigenvalues of the difference, so they have no two sides to compare.
_LOEWNER_IDS = ("specht-power-low", "bounded-power-low", "fm-power-low", "kantorovich-matrix")


@pytest.mark.parametrize("inequality_id", [i for i in INEQUALITY_IDS if i not in _LOEWNER_IDS])
def test_commuting_sides_differ_only_by_the_factor(inequality_id):
    # On a commuting pair both sides are equal in exact arithmetic, once the
    # factor is divided out: (A #_a B)^r = A^r #_a B^r, e^{(1-a)H+aK} =
    # (e^{pH} #_a e^{pK})^{1/p} and tr e^{H+K} = tr e^H e^K.  Over 200
    # instances per id at seed 2026 the largest gap was 5.5e-13
    # (forward-ando-hiai) and 2.9e-13 (specht-eigen-power), and at most
    # 2.4e-14 on the other ids.
    sweep = run_instances(inequality_id, 100, 2026, mode="commuting")
    for report in sweep.reports:
        assert report.semantics != "loewner"
        factor = report.parameters.get("factor", 1.0)
        for lhs, rhs in zip(report.lhs_values, report.rhs_values):
            rhs /= factor
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_side_gap_test_covers_every_id_with_two_sides():
    assert len(INEQUALITY_IDS) - len(_LOEWNER_IDS) == 17
    for inequality_id in _LOEWNER_IDS:
        assert run_instances(inequality_id, 1, 2026).reports[0].semantics == "loewner"


def _certified(monkeypatch, inequality_id, count, seed, mode) -> list[tuple]:
    """(x, y, report) of each instance of a seeded sweep, in instance order."""
    seen = []

    def recording(ident, x, y, /, **kwargs):
        report = certify_inequality(ident, x, y, **kwargs)
        seen.append((x, y, report))
        return report

    monkeypatch.setattr(certify, "certify_inequality", recording)
    run_instances(inequality_id, count, seed, mode=mode)
    assert len(seen) == count
    return seen


@pytest.mark.parametrize("inequality_id", _LOEWNER_IDS[:3])
def test_commuting_loewner_differences_are_the_factor_slack(monkeypatch, one_cpu, inequality_id):
    # On a commuting pair A^r #_a B^r = (A #_a B)^r, so the difference whose
    # spectrum is reported, factor (A #_a B)^r - A^r #_a B^r, is
    # (factor - 1) (A #_a B)^r.
    # Over 200 instances per id at seed 2026 the largest gap was 6.9e-15 of
    # factor * lambda_max.
    for a, b, report in _certified(monkeypatch, inequality_id, 100, 2026, "commuting"):
        v = report.parameters
        eigs = power(geometric_mean(a, b, v["alpha"]), v["r"]).eigenvalues[::-1]
        gap = np.abs(np.array(report.margins) - (v["factor"] - 1.0) * eigs)
        assert gap.max() <= 1e-12 * v["factor"] * eigs[-1]


#: Each corollary id's parent and the reduction (m, M) -> (s, t) it applies.
_COROLLARIES = {
    "bounded-power-low": ("specht-power-low", sampling._ratio_reduction),
    "bounded-eigen-power": ("specht-eigen-power", sampling._ratio_reduction),
    "bounded-pq": ("specht-pq", sampling._ratio_reduction),
    "gt-bounded-specht": ("gt-specht", sampling._difference_reduction),
    "gt-kantorovich-bounded": ("gt-kantorovich", sampling._difference_reduction),
}


@pytest.mark.parametrize("inequality_id", sorted(_COROLLARIES))
@pytest.mark.parametrize("mode", ["commuting", "general"])
def test_bounded_pairs_meet_the_parent_hypothesis_at_the_reduced_scalars(
    monkeypatch, one_cpu, inequality_id, mode
):
    # The reduction lemma: spectra inside [m, M] imply the parent's hypothesis
    # at the (s, t) derived from m and M, so the parent's bound applies there.
    parent_id, reduce = _COROLLARIES[inequality_id]
    parent = certify._INEQUALITIES[parent_id]
    assert certify._INEQUALITIES[inequality_id].compare is parent.compare
    for a, b, report in _certified(monkeypatch, inequality_id, 100, 2026, mode):
        v = report.parameters
        s, t = reduce(v["m"], v["M"])
        reduced = {**v, "s": s, "t": t}
        parent.require(a, b, reduced)
        assert v["factor"] == parent.factor(reduced)


# ---------------------------------------------------------------------------
# Degenerate parameters collapse to equalities
# ---------------------------------------------------------------------------


def test_specht_power_low_scalar_sandwich_tight():
    cfg = SamplerConfig(3, 31, 0.6, 1.4)
    sample = sandwich_pair(cfg, 1.2, 1.2, 0)
    report = certify_inequality(
        "specht-power-low", sample.a, sample.b, s=1.2, t=1.2, alpha=0.5, r=0.7
    )
    assert report.holds
    # B = 1.2 A makes both sides proportional: the difference spectrum is
    # exactly (factor^r - 1) times the mean's spectrum, hence nonnegative.
    assert all(m >= -1e-12 for m in report.relative_margins)


def test_power_one_keeps_loewner_form_tight():
    a, b = commuting_pd_pair([1.3, 0.9], [1.2, 1.1], seed=11)
    report = certify_inequality("bounded-power-low", a, b, m=0.9, M=1.3, alpha=0.5, r=1.0)
    factor = report.parameters["factor"]
    # r = 1: LHS = A # B and RHS = factor (A # B); margins reduce to
    # (factor - 1) times the mean's eigenvalues.
    assert report.holds
    lhs_mean = np.sort([1.3**0.5 * 1.2**0.5, 0.9**0.5 * 1.1**0.5])
    expected = (factor - 1.0) * lhs_mean
    assert report.rhs_values == pytest.approx(expected, rel=1e-9)


def _sandwich_operands(cfg):
    sample = sandwich_pair(cfg, 0.8, 1.9, 0)
    return sample.a, sample.b, {"s": sample.s, "t": sample.t}


def _chain_operands(cfg):
    chain = ordered_chain_pair(cfg, 0, grid=(1.0,))
    return chain.a, chain.b, {"m": chain.m, "M": chain.M}


def _specht_low_factor(v):
    """specht-power-low's README factor cell, max(S(s), S(t))^r."""
    return max(specht(v["s"]), specht(v["t"])) ** v["r"]


#: Each power-low row's operands and README factor cell; bounded-power-low's
#: is specht-power-low's at the ratio reduction (s, t) = (m/M, M/m).
_POWER_LOW_ROWS = {
    "specht-power-low": (_sandwich_operands, _specht_low_factor),
    "bounded-power-low": (
        lambda cfg: (*random_pd_pair(cfg, 0), {"m": cfg.lo, "M": cfg.hi}),
        lambda v: _specht_low_factor(
            {**v, **dict(zip("st", sampling._ratio_reduction(v["m"], v["M"])))}
        ),
    ),
    "fm-power-low": (_chain_operands, lambda v: fm_factor(v["h"], v["alpha"], v["r"])),
}


@pytest.mark.parametrize("inequality_id", sorted(_POWER_LOW_ROWS))
def test_power_low_reports_the_factor_it_applies(inequality_id):
    operands, readme_factor = _POWER_LOW_ROWS[inequality_id]
    a, b, scalars = operands(SamplerConfig(3, 29, 0.5, 0.9))
    report = certify_inequality(inequality_id, a, b, alpha=0.3, r=0.6, **scalars)
    factor = report.parameters["factor"]
    assert factor == readme_factor(report.parameters)
    # The margins are the ascending spectrum of factor (A #_a B)^r - A^r #_a B^r.
    diff = power(geometric_mean(a, b, 0.3), 0.6) * factor - geometric_mean(
        power(a, 0.6), power(b, 0.6), 0.3
    )
    assert list(report.margins) == list(diff.eigenvalues[::-1])


def test_alpha_endpoints_hold_everywhere():
    a, b = commuting_pd_pair([1.4, 0.8], [1.0, 1.1], seed=13)
    for alpha in (0.0, 1.0):
        report = certify_inequality(
            "bounded-eigen-power", a, b, m=0.8, M=1.4, alpha=alpha, r=1.5
        )
        assert report.holds


# ---------------------------------------------------------------------------
# Hypothesis re-verification fails fast
# ---------------------------------------------------------------------------


def raises_exactly(message):
    """Expect a HypothesisViolatedError whose whole text is ``message``; the
    texts are those raised when every Loewner check ran an eigensolve of the
    difference, whose smallest eigenvalue they quote."""
    return pytest.raises(HypothesisViolatedError, match=f"^{re.escape(message)}$")


def test_sandwich_hypothesis_violation_detected():
    cfg = SamplerConfig(3, 17, 0.5, 1.5)
    # B = 1.2 A exactly, so claiming 1.3 A <= B is certainly false.
    sample = sandwich_pair(cfg, 1.2, 1.2, 0)
    with raises_exactly("hypothesis 1.3*A <= B fails: min eigenvalue of difference = -1.269e-01"):
        certify_inequality(
            "specht-power-low", sample.a, sample.b, s=1.3, t=1.5, alpha=0.5, r=0.5
        )


def test_bounded_hypothesis_violation_detected():
    a, b = commuting_pd_pair([2.0, 1.0], [1.5, 1.2])
    with raises_exactly("spectrum of A = [1, 2] escapes the bounds [1.1, 2]"):
        certify_inequality("bounded-power-low", a, b, m=1.1, M=2.0, alpha=0.5, r=0.5)
    with raises_exactly("spectrum of A = [1, 2] escapes the bounds [1, 1.8]"):
        certify_inequality("bounded-eigen-power", a, b, m=1.0, M=1.8, alpha=0.5, r=2.0)


def test_bounded_hypothesis_violation_detected_at_1e200():
    # the spectra are [1.9e200, 1e199] and [1.9e200, 1e199], not [1e200, 1e200]
    a = PositiveDefiniteMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]) * 1e200)
    b = PositiveDefiniteMatrix(np.array([[1.0, -0.9], [-0.9, 1.0]]) * 1e200)
    with raises_exactly("spectrum of A = [1e+199, 1.9e+200] escapes the bounds [5e+199, 1.5e+200]"):
        certify_inequality(
            "bounded-eigen-power", a, b, alpha=0.5, r=1.0, m=5e199, M=1.5e200
        )


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_sandwich_violation_is_caught_at_every_scale(scale):
    # A <= B fails by an eigenvalue of -6.3 * scale; with the re-check's
    # tolerance floored at 1e-8 the scale-1e-9 pair passed, and the report
    # read as a counterexample to Specht's reverse bound
    rng = np.random.default_rng(0)
    a, b = (
        PositiveDefiniteMatrix(scale * (z @ z.conj().T + 0.1 * np.eye(3)))
        for z in (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    )
    with raises_exactly(
        f"hypothesis 1*A <= B fails: min eigenvalue of difference = {-6.337 * scale:.3e}"
    ):
        certify_inequality("specht-eigen-power", a, b, alpha=0.5, r=2.0, s=1.0, t=1.0)


def test_bounded_violation_is_caught_at_small_scale():
    a, b = commuting_pd_pair([2.5e-10, 1e-10], [1.5e-10, 1.2e-10])
    with raises_exactly("spectrum of A = [1e-10, 2.5e-10] escapes the bounds [1e-10, 2e-10]"):
        certify_inequality("bounded-pq", a, b, m=1e-10, M=2e-10, alpha=0.5, q=0.5, p=1.0)


def test_chain_hypothesis_violations_detected():
    a, b = commuting_pd_pair([0.5, 0.3], [0.45, 0.6], seed=15)  # not ordered
    with raises_exactly("hypothesis A <= B fails: min eigenvalue of difference = -5.000e-02"):
        certify_inequality("fm-power-low", a, b, m=0.3, M=0.6, alpha=0.5, r=0.5)
    a2, b2 = commuting_pd_pair([0.4, 0.3], [0.8, 0.5], seed=15)
    with pytest.raises(BadRangeError, match=r"^chain needs M <= 1, got M = 1\.4$"):
        # M > 1 breaks the chain
        certify_inequality("fm-power-low", a2, b2, m=0.3, M=1.4, alpha=0.5, r=0.5)


def test_exponential_chain_requires_nonpositive_upper_bound():
    h, k = commuting_hermitian_pair([-0.5, -0.8], [-0.2, -0.4], seed=17)
    with pytest.raises(BadRangeError, match=r"^exponential chain needs M <= 0, got M = 0\.3$"):
        certify_inequality("gt-fm", h, k, m=-1.0, M=0.3, alpha=0.5, p=1.0)


_CHAIN_ROW_PARAMS = {
    "fm-power-low": {"alpha": 0.5, "r": 0.5},
    "fm-eigen-power": {"alpha": 0.5, "r": 2.0},
    "fm-pq": {"alpha": 0.5, "q": 0.5, "p": 1.5},
}
_CHAIN_SCALAR_FAULTS = [
    ({"m": math.nan, "M": 0.6}, "m must be positive, got nan"),
    ({"m": 0.3, "M": math.nan}, "need m <= M, got m=0.3, M=nan"),
    ({"m": 0.0, "M": 0.6}, "m must be positive, got 0.0"),
    ({"m": -0.1, "M": 0.6}, "m must be positive, got -0.1"),
    ({"m": 0.7, "M": 0.6}, "need m <= M, got m=0.7, M=0.6"),
    ({"m": 0.3, "M": 1.4}, "chain needs M <= 1, got M = 1.4"),
    # the top is exact: no tolerance past M = 1
    ({"m": 0.3, "M": 1.000000001}, "chain needs M <= 1, got M = 1.000000001"),
]
_EXP_CHAIN_SCALAR_FAULTS = [
    ({"m": math.nan, "M": -0.2}, "need m <= M, got m=nan, M=-0.2"),
    ({"m": -1.0, "M": math.nan}, "need m <= M, got m=-1.0, M=nan"),
    ({"m": -0.1, "M": -0.5}, "need m <= M, got m=-0.1, M=-0.5"),
    ({"m": -1.0, "M": 0.3}, "exponential chain needs M <= 0, got M = 0.3"),
    ({"m": -1.0, "M": 1e-9}, "exponential chain needs M <= 0, got M = 1e-09"),
]


@pytest.mark.parametrize(
    "inequality_id, bounds, message",
    [(i, b, msg) for i in _CHAIN_ROW_PARAMS for b, msg in _CHAIN_SCALAR_FAULTS]
    + [("gt-fm", b, msg) for b, msg in _EXP_CHAIN_SCALAR_FAULTS],
)
def test_chain_scalar_faults_are_parameter_errors(inequality_id, bounds, message):
    # m and M of the chain rows are checked with the parameters, before any
    # hypothesis re-check, with the bounded rows' texts where they share one
    if inequality_id == "gt-fm":
        x, y = commuting_hermitian_pair([-0.5, -0.8], [-0.2, -0.4], seed=17)
        params = {"alpha": 0.5, "p": 1.0}
    else:
        x, y = commuting_pd_pair([0.4, 0.3], [0.5, 0.45], seed=15)
        params = _CHAIN_ROW_PARAMS[inequality_id]
    with pytest.raises(BadRangeError, match=f"^{re.escape(message)}$"):
        certify_inequality(inequality_id, x, y, **bounds, **params)


_ORDERED_HK = ([-0.5, -0.8], [-0.2, -0.4])


@pytest.mark.parametrize(
    "hk, bounds, message",
    [
        (_ORDERED_HK, {"m": -0.7, "M": -0.1},
         "spectrum of H = [-0.8, -0.5] escapes the bounds [-0.7, -0.1]"),
        (_ORDERED_HK, {"m": -1.0, "M": -0.6},
         "spectrum of H = [-0.8, -0.5] escapes the bounds [-1, -0.6]"),
        (_ORDERED_HK, {"m": -1.0, "M": -0.3},
         "spectrum of K = [-0.4, -0.2] escapes the bounds [-1, -0.3]"),
        # e^H <= e^K fails here too, but the spectra are checked first
        (([-0.3, -0.4], [-0.2, -0.6]), {"m": -0.5, "M": -0.1},
         "spectrum of K = [-0.6, -0.2] escapes the bounds [-0.5, -0.1]"),
    ],
)
def test_exponential_chain_spectrum_faults(hk, bounds, message):
    # both spectra in [m, M], by the bounded-spectra rows' check and text
    h, k = commuting_hermitian_pair(*hk, seed=17)
    with raises_exactly(message):
        certify_inequality("gt-fm", h, k, **bounds, alpha=0.5, p=1.0)


@pytest.mark.parametrize(
    "inequality_id, params, message",
    [
        ("forward-ando-hiai", {"alpha": 0.5, "r": math.inf}, "r must be finite, got inf"),
        ("fm-eigen-power", {"alpha": 0.5, "r": math.inf, "m": 0.3, "M": 0.6},
         "r must be finite, got inf"),
        ("specht-pq", {"alpha": 0.5, "q": 0.5, "p": math.inf, "s": 0.5, "t": 2.0},
         "p must be finite, got inf"),
        ("gt-specht", {"alpha": 0.5, "p": math.inf, "s": -1.0, "t": 1.0},
         "p must be finite, got inf"),
        ("bounded-pq", {"alpha": 0.5, "q": 0.5, "p": 1.0, "m": 0.3, "M": math.inf},
         "M must be finite, got inf"),
        ("gt-fm", {"alpha": 0.5, "p": 1.0, "m": -math.inf, "M": -0.1},
         "m must be finite, got -inf"),
    ],
)
def test_non_finite_parameters_are_rejected_by_name(inequality_id, params, message):
    # after the row's own checks, which keep their texts for NaN
    a, b = commuting_pd_pair([0.4, 0.3], [0.5, 0.45], seed=15)
    with pytest.raises(BadRangeError, match=f"^{re.escape(message)}$"):
        certify_inequality(inequality_id, a, b, **params)


@pytest.mark.parametrize(
    "inequality_id, params",
    [("specht-eigen-power", {"r": 3.0}), ("specht-pq", {"q": 1.0, "p": 3.0})],
)
def test_sandwich_powers_out_of_double_range_are_range_errors(inequality_id, params):
    # s^3 underflows to 0: a fault of double precision, not a non-positive s
    a = PositiveDefiniteMatrix(np.diag([1.0, 2.0]))
    message = "s^nu = 1e-200^3 underflows to 0 in double precision"
    with pytest.raises(BadRangeError, match=f"^{re.escape(message)}$"):
        certify_inequality(inequality_id, a, a, alpha=0.5, s=1e-200, t=1.0, **params)


def test_exponential_olson_hypothesis_violation_detected():
    cfg = SamplerConfig(3, 19, -0.5, 0.5)
    pair = olson_exponential_pair(cfg, 0)
    with raises_exactly(
        "hypothesis e^(1K) <= e^(0.1*1) e^(1H) fails: min eigenvalue of difference = -6.219e-01"
    ):
        certify_inequality("gt-specht", pair.h, pair.k, s=-0.1, t=0.1, alpha=0.5, p=1.0)


def test_isometry_check_rejects_bad_transform():
    cfg = SamplerConfig(3, 23, 0.5, 2.0)
    a = random_pd(cfg, 0)
    with raises_exactly("transform rows are not orthonormal (U U* != I)"):
        certify_inequality("kantorovich-matrix", a, np.ones((2, 3)), m=0.5, M=2.0)


def _count_eigensolves_in_loewner_checks(monkeypatch) -> dict:
    """Patch ``_jacobi`` and ``_demand_loewner`` to count the eigensolves
    made inside the Loewner hypothesis checks."""
    counts = {"checks": 0, "jacobi": 0, "jacobi_in_checks": 0, "depth": 0}
    jacobi, demand = linalg._jacobi, certify._demand_loewner

    def counting_jacobi(matrix):
        counts["jacobi"] += 1
        counts["jacobi_in_checks"] += counts["depth"] > 0
        return jacobi(matrix)

    def counting_demand(lhs, rhs, what):
        counts["checks"] += 1
        counts["depth"] += 1
        try:
            demand(lhs, rhs, what)
        finally:
            counts["depth"] -= 1

    monkeypatch.setattr(linalg, "_jacobi", counting_jacobi)
    monkeypatch.setattr(certify, "_demand_loewner", counting_demand)
    return counts


def test_passing_loewner_checks_make_no_eigensolve(monkeypatch):
    counts = _count_eigensolves_in_loewner_checks(monkeypatch)
    for index in range(3):
        pair = olson_exponential_pair(SamplerConfig(4, 31, -0.6, 0.4), index)
        assert certify_inequality(
            "gt-specht", pair.h, pair.k, s=-1.0, t=1.0, alpha=0.3, p=2.0
        ).holds
        chain = ordered_chain_pair(SamplerConfig(4, 37, 0.2, 0.9), index, grid=_OLSON_GRID)
        assert certify_inequality(
            "fm-pq", chain.a, chain.b, m=0.2, M=0.9, alpha=0.6, q=0.5, p=1.5
        ).holds
    # exponents {1, 2} for gt-specht and {1, 1.5} for fm-pq, two checks per
    # exponent in the exp-Olson sandwich and one in the chain
    assert counts["checks"] == 3 * (4 + 2)
    assert counts["jacobi"] > 0
    assert counts["jacobi_in_checks"] == 0


@pytest.mark.parametrize("p", [0.8, 1.0, 1.7])
def test_chain_sampler_checks_olson_middle_on_the_lean_grid(chain_checks, one_cpu, p):
    # fm-pq's general-mode chain is checked by the shared Loewner test at
    # exponent 1, and at p too when p > 1; the first perturbation size
    # passes, so each of the three instances checks its grid once
    result = run_instances(
        "fm-pq", count=3, seed=5, n=3, mode="general", param_overrides={"q": 0.5, "p": p}
    )
    assert result.all_hold
    assert chain_checks == ([1.0, p] if p > 1.0 else [1.0]) * 3


_CHAIN_IDS = ("fm-power-low", "fm-eigen-power", "fm-pq", "gt-fm")


@pytest.mark.parametrize("inequality_id", _CHAIN_IDS)
def test_every_general_chain_passes_olson_order_on_its_lean_grid(monkeypatch, inequality_id):
    # each general-mode chain of a sweep is tested on its row's lean grid,
    # and the chain it returns is the one that passed
    calls = []
    olson_leq = sampling.olson_leq

    def recording_olson_leq(a, b, grid):
        calls.append((tuple(grid), olson_leq(a, b, grid)))
        return calls[-1][1]

    monkeypatch.setattr(sampling, "olson_leq", recording_olson_leq)
    for index in range(1, 20, 2):
        calls.clear()
        n = N_CYCLE[index % len(N_CYCLE)]
        report = RECIPES[inequality_id](index=index, seed=1, n=n, mode="general", ov={})
        lean = certify._lean_exponents(report.parameters)
        assert calls and {grid for grid, _ in calls} == {lean}
        assert calls[-1][1] and not any(verdict for _, verdict in calls[:-1])


@pytest.mark.parametrize(
    "inequality_id, tried",
    [
        ("fm-eigen-power", [0.12, 0.05, 0.02]),
        ("gt-fm", [0.12, 0.05, 0.02]),
        ("fm-pq", [0.12, 0.05]),
    ],
)
def test_chain_sampler_ladder_at_seed_2026(monkeypatch, inequality_id, tried):
    # Instance 63 of run_instances(id, count=64, seed=2026) is n = 5 in
    # general mode; its chain rejects every perturbation size before the
    # last one tried.  These are the only rejected steps of the 21 x 1000
    # acceptance sweep at seed 2026.
    sizes = []
    congruence = sampling.congruence

    def recording_congruence(transform, matrix):
        # the perturbation direction has spectral norm 1, so ||T - I||_2 = e
        sizes.append(round(float(np.linalg.norm(transform - np.eye(len(transform)), 2)), 9))
        return congruence(transform, matrix)

    monkeypatch.setattr(sampling, "congruence", recording_congruence)
    assert (N_CYCLE[63 % len(N_CYCLE)], 63 % 2) == (5, 1)
    report = RECIPES[inequality_id](index=63, seed=2026, n=5, mode="general", ov={})
    assert report.holds
    assert sizes[::2] == tried and sizes[1::2] == tried  # A and B per step


def test_failing_loewner_check_still_takes_the_spectrum(monkeypatch):
    counts = _count_eigensolves_in_loewner_checks(monkeypatch)
    a, b = commuting_pd_pair([0.5, 0.3], [0.45, 0.6], seed=15)
    with pytest.raises(HypothesisViolatedError, match="min eigenvalue of difference"):
        certify_inequality("fm-power-low", a, b, m=0.3, M=0.6, alpha=0.5, r=0.5)
    assert counts["checks"] == 1
    # one spectrum decides inside ``loewner_leq``, one names the violation
    assert counts["jacobi_in_checks"] == 2


def test_eigen_power_sides_leave_mean_eigenvectors_unbuilt(monkeypatch):
    # Both sides compare spectra of geometric means, so the eigenvectors of
    # the means are never built: each one's replay is still pending.
    means = []
    mean = certify.geometric_mean

    def recording_mean(a, b, alpha):
        means.append(mean(a, b, alpha))
        return means[-1]

    monkeypatch.setattr(certify, "geometric_mean", recording_mean)
    avals = np.array([1.6, 1.0, 0.7])
    a, b = commuting_pd_pair(avals, avals * np.array([0.8, 1.1, 1.9]), seed=3)
    assert certify_inequality("specht-eigen-power", a, b, s=0.8, t=1.9, alpha=0.3, r=2.0).holds
    chain = ordered_chain_pair(SamplerConfig(4, 37, 0.2, 0.9), 0, grid=_OLSON_GRID)
    assert certify_inequality(
        "fm-eigen-power", chain.a, chain.b, m=0.2, M=0.9, alpha=0.6, r=1.5
    ).holds
    assert len(means) == 4
    for m in means:
        dec = m._decomp
        assert callable(dec._eigenvectors)
        vectors = dec.eigenvectors
        assert dec._eigenvectors is vectors and not vectors.flags.writeable


# ---------------------------------------------------------------------------
# Parameter domain validation
# ---------------------------------------------------------------------------


def test_parameter_domain_errors():
    a, b = commuting_pd_pair([1.3, 0.9], [1.2, 1.1], seed=11)
    with pytest.raises(BadRangeError):
        certify_inequality("bounded-power-low", a, b, m=0.9, M=1.3, alpha=1.2, r=0.5)  # alpha
    with pytest.raises(BadRangeError):
        certify_inequality("bounded-power-low", a, b, m=0.9, M=1.3, alpha=0.5, r=1.5)  # r > 1
    with pytest.raises(BadRangeError):
        certify_inequality("bounded-eigen-power", a, b, m=0.9, M=1.3, alpha=0.5, r=0.5)  # r < 1
    with pytest.raises(BadRangeError):
        certify_inequality("bounded-pq", a, b, m=0.9, M=1.3, alpha=0.5, q=2.0, p=1.0)  # q > p
    with pytest.raises(BadRangeError):
        certify_inequality("specht-power-low", a, b, s=-1.0, t=1.3, alpha=0.5, r=0.5)  # s <= 0
    h, k = commuting_hermitian_pair([0.2, -0.1], [0.1, 0.0], seed=19)
    with pytest.raises(BadRangeError, match="^need s <= t, got s=0.5, t=-0.5$"):
        # s > t is unsatisfiable
        certify_inequality("gt-specht", h, k, s=0.5, t=-0.5, alpha=0.5, p=1.0)
    with pytest.raises(BadRangeError):
        certify_inequality("gt-kantorovich", h, k, s=-0.5, t=0.5, alpha=0.5, p=0.0)  # p = 0


@pytest.mark.parametrize(
    "s, t", [(-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1.0, math.nan)]
)
def test_exp_olson_rows_reject_non_finite_s_t(s, t):
    # an infinite t once gave the factor S(e^{s p}) alone (specht(inf) is NaN,
    # which max() dropped), and an infinite s reported a violation with factor NaN
    h, k = commuting_hermitian_pair([0.2, -0.1], [0.1, 0.0], seed=19)
    for inequality_id in ("gt-specht", "gt-specht-norm", "gt-kantorovich"):
        with pytest.raises(BadRangeError, match="s and t must be finite"):
            certify_inequality(inequality_id, h, k, s=s, t=t, alpha=0.5, p=1.0)
    with pytest.raises(BadRangeError, match="s and t must be finite"):
        certify_inequality("gt-specht-norm-squared", h, k, s=s, t=t)
    with pytest.raises(BadRangeError, match="s and t must be finite"):
        convergence_study(h, k, s, t, 0.5, (1.0, 0.5))


_GT = {"alpha": 0.5, "p": 1.0, "s": -2.0, "t": 2.0}


@pytest.mark.parametrize(
    "inequality_id, given, message",
    [
        ("gt-nope", _GT, "unknown inequality id 'gt-nope'"),
        (["gt-specht"], _GT, r"unknown inequality id \['gt-specht'\]"),
        ("gt-specht", {**_GT, "r": 2.0, "x": 1.0}, "gt-specht takes no parameter r, x;"),
        ("gt-specht-norm", {**_GT, "norm_id": "schatten-2"},
         "gt-specht-norm takes no parameter norm_id;"),
        ("gt-specht-norm-squared", _GT, "gt-specht-norm-squared fixes alpha, p;"),
        ("gt-kantorovich-squared", {"m": -1.0, "M": 1.0, "p": 2.0},
         "gt-kantorovich-squared fixes p;"),
        ("bounded-pq", {"h": 2.0}, "bounded-pq derives h;"),
        ("kantorovich-matrix", {"m": 0.5, "M": 2.0, "rows": 2.0},
         "kantorovich-matrix derives rows;"),
        ("gt-specht", {**_GT, "factor": 1.5}, "gt-specht derives factor;"),
        ("gt-specht", {"alpha": 0.5, "p": 1.0, "s": -2.0},
         "gt-specht needs t; it takes alpha, p, s, t$"),
    ],
    ids=[
        "unknown-id", "unhashable-id", "unknown-name", "norm-id", "fixed-alpha-p", "fixed-p",
        "derived-h", "derived-rows", "derived-factor", "missing-name",
    ],
)
def test_certify_inequality_rejects_names_the_row_does_not_take(inequality_id, given, message):
    # The name checks run before the operands are read, so one Hermitian
    # pair serves every id.
    pair = olson_exponential_pair(SamplerConfig(3, 37, -0.6, 0.6), 0)
    with pytest.raises(BadRangeError, match=message):
        certify_inequality(inequality_id, pair.h, pair.k, **given)


def test_package_attribute_certify_is_the_module():
    # ``from golden_bounds import certify`` must keep giving the module,
    # which a package-level function of that name would shadow.
    import golden_bounds

    assert golden_bounds.certify is certify
    assert certify.__name__ == "golden_bounds.certify"
    assert golden_bounds.certify_inequality is certify.certify_inequality


# ---------------------------------------------------------------------------
# Norm-family reports
# ---------------------------------------------------------------------------


def test_norm_report_families_and_filtering():
    cfg = SamplerConfig(3, 37, -0.6, 0.6)
    pair = olson_exponential_pair(cfg, 0)
    full = certify_inequality(
        "gt-specht-norm", pair.h, pair.k, s=pair.s, t=pair.t, alpha=0.5, p=1.0
    )
    assert full.holds
    assert list(full.labels) == [
        "ky-fan-1", "ky-fan-2", "ky-fan-3", "schatten-1", "schatten-2", "schatten-inf",
    ]
    by_label = dict(zip(full.labels, full.lhs_values))
    assert by_label["schatten-1"] == pytest.approx(by_label["ky-fan-3"], rel=1e-15)
    assert by_label["schatten-inf"] == pytest.approx(by_label["ky-fan-1"], rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 16])
def test_norm_report_entries_are_the_library_norms(n):
    h, k = bounded_hermitian_pair(SamplerConfig(n, 61, -0.7, 0.7), 0)
    report = certify_inequality("forward-mean-norm", h, k, alpha=0.35, p=1.2)
    sides = (
        (report.lhs_values, mean_power(h, k, 0.35, 1.2)),
        (report.rhs_values, log_euclidean(h, k, 0.35)),
    )
    for values, matrix in sides:
        expected = [ky_fan_norm(matrix, j) for j in range(1, n + 1)]
        expected += [schatten_norm(matrix, p) for p in (1, 2, math.inf)]
        assert list(values) == expected


def test_norm_squared_display_factor():
    cfg = SamplerConfig(3, 41, -0.5, 0.4)
    pair = olson_exponential_pair(cfg, 0)
    report = certify_inequality("gt-specht-norm-squared", pair.h, pair.k, s=pair.s, t=pair.t)
    assert report.holds
    expected = max(specht(math.exp(2 * pair.s)), specht(math.exp(2 * pair.t)))
    assert report.parameters["factor"] == pytest.approx(expected, rel=1e-14)
    assert report.parameters["p"] == 2.0


def test_kantorovich_squared_display_uses_cosh():
    cfg = SamplerConfig(3, 43, -0.4, 0.5)
    h, k = bounded_hermitian_pair(cfg, 0)
    report = certify_inequality("gt-kantorovich-squared", h, k, m=-0.4, M=0.5)
    assert report.holds
    assert report.parameters["factor"] == pytest.approx(math.cosh(0.9), rel=1e-12)


def test_cosh_factor_is_reciprocal_kantorovich():
    # cosh(M - m) = 1 / K(e^{4(M-m)}, 1/2): the closed form the squared
    # display reports agrees with the Kantorovich constant it stands for,
    # over the sampled range and at widths 0, 1e-6, 5 and 20.
    grid = [(m, w) for m in np.linspace(-1.5, 0.3, 10) for w in np.linspace(0.3, 2.0, 10)]
    for m, width in grid + [(-0.4, w) for w in (0.0, 1e-6, 5.0, 20.0)]:
        m, M = float(m), float(m + width)
        factor = certify._cosh_factor({"m": m, "M": M})
        assert factor == pytest.approx(1.0 / kantorovich(math.exp(4.0 * (M - m)), 0.5), rel=1e-9)


def test_kantorovich_matrix_full_rank_and_compression():
    cfg = SamplerConfig(4, 47, 0.5, 2.0)
    a = random_pd(cfg, 0)
    for rows in (1, 2, 4):
        u = random_isometry(cfg, rows, 0)
        report = certify_inequality("kantorovich-matrix", a, u, m=0.5, M=2.0)
        assert report.holds
        assert report.parameters["factor"] == pytest.approx(
            kantorovich(4.0, 2.0), rel=1e-12
        )


# ---------------------------------------------------------------------------
# Forward baselines
# ---------------------------------------------------------------------------


def test_forward_ando_hiai_holds_and_validates():
    cfg = SamplerConfig(3, 53, 0.4, 1.8)
    a, b = random_pd_pair(cfg, 0)
    report = certify_inequality("forward-ando-hiai", a, b, alpha=0.4, r=2.0)
    assert report.holds
    assert report.labels[-1] == "total-product"
    with pytest.raises(BadRangeError):
        certify_inequality("forward-ando-hiai", a, b, alpha=0.4, r=0.5)


def test_forward_mean_norm_holds():
    cfg = SamplerConfig(3, 59, -0.7, 0.7)
    h, k = bounded_hermitian_pair(cfg, 0)
    report = certify_inequality("forward-mean-norm", h, k, alpha=0.35, p=1.2)
    assert report.holds
    assert report.parameters == {"alpha": 0.35, "p": 1.2}


# ---------------------------------------------------------------------------
# Constant comparisons
# ---------------------------------------------------------------------------


def test_compare_constants_remark_frozen_values():
    _, _, d2 = compare_constants_remark(0.5, 0.5, 2.0)
    _, _, d8 = compare_constants_remark(0.5, 0.5, 8.0)
    assert d2 == pytest.approx(oracles.REMARK_DIFF_H2, abs=1e-12)
    assert d8 == pytest.approx(oracles.REMARK_DIFF_H8, abs=1e-12)


def test_compare_constants_remark_components():
    kant, fm, diff = compare_constants_remark(0.5, 0.5, 2.0)
    assert kant == pytest.approx(kantorovich(2.0, 0.5) ** -2.0, rel=1e-13)
    assert fm == pytest.approx(fm_factor(math.sqrt(2.0), 0.5, 2.0), rel=1e-13)
    assert diff == pytest.approx(kant - fm, abs=1e-16)
    with pytest.raises(BadRangeError):
        compare_constants_remark(0.5, 0.5, 0.9)


def test_compare_constants_remark_beyond_double_range():
    with pytest.raises(BadRangeError, match=r"^h\^\(2p\) = 1e\+200\^4 exceeds double range$"):
        compare_constants_remark(0.5, 2.0, 1e200)


def test_compare_specht_vs_fm_and_sign_scan():
    specht_side, fm_side, diff = compare_specht_vs_fm(0.5, 1.0, 8.0)
    assert specht_side == pytest.approx(oracles.SPECHT_8, rel=1e-13)
    assert diff > 0.0
    _, _, diff_small = compare_specht_vs_fm(0.5, 1.0, 1.5)
    assert diff_small < 0.0
    scan = specht_fm_sign_scan()
    assert scan["positive"] is not None and scan["positive"][3] > 0.0
    assert scan["negative"] is not None and scan["negative"][3] < 0.0


def test_compare_seo_constants_ratio_bounded():
    rng = np.random.default_rng(61)
    for _ in range(100):
        alpha = float(rng.uniform())
        p = float(rng.uniform(1e-3, 1.0))
        m = float(rng.uniform(-1.5, 0.5))
        M = m + float(rng.uniform(0.0, 2.0))
        new, product, ratio = compare_seo_constants(alpha, p, m, M)
        assert ratio <= 1.0 + 1e-12
        assert new == pytest.approx(ratio * product, rel=1e-12)
    with pytest.raises(BadRangeError):
        compare_seo_constants(0.5, 1.5, 0.0, 1.0)


def test_compare_seo_constants_takes_the_bounded_rows_factor():
    # The single constant is gt-kantorovich-bounded's factor (gt-kantorovich
    # at s = m - M, t = M - m); the formula it replaced is the reference, and
    # the two agree bit for bit, since p(t - s) and 2p(M - m) round alike.
    # The two remark comparisons take fm-pq's and fm-power-low's factors,
    # the same operations as the formulas they replaced.
    for alpha in (0.0, 0.1, 0.5, 0.9, 1.0):
        for p in (1e-3, 0.3, 0.77, 1.0):
            for m in (-1.5, -0.2, 0.0, 0.5):
                for width in (0.0, 1e-9, 0.7, 2.0):
                    M = m + width
                    single, _, _ = compare_seo_constants(alpha, p, m, M)
                    reference = kantorovich(math.exp(2.0 * p * (M - m)), alpha) ** (-1.0 / p)
                    assert single == reference
            for h in (1.0, 1.0 + 1e-9, 1.5, 4.0, 16.0):
                _, remark, _ = compare_constants_remark(alpha, p, h)
                assert remark == fm_factor(h**p, alpha, 1.0 / p)
                _, low, _ = compare_specht_vs_fm(alpha, p, h)
                assert low == fm_factor(h, alpha, p)
        _, remark, _ = compare_constants_remark(alpha, 2.5, 3.0)
        assert remark == fm_factor(3.0**2.5, alpha, 1.0 / 2.5)


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------


def test_convergence_study_shape_and_decay():
    cfg = SamplerConfig(3, 67, -0.5, 0.8)
    pair = olson_exponential_pair(cfg, 0)
    powers = (1.0, 0.1, 0.01, 1e-3, 1e-4)
    for kind in ("specht", "kantorovich"):
        rows = convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, powers, kind)
        assert len(rows) == len(powers) * 3
        assert all(row.gap >= -1e-9 for row in rows)
        final = max(abs(row.gap) for row in rows if row.p == 1e-4)
        first = max(abs(row.gap) for row in rows if row.p == 1.0)
        assert final <= 1e-3
        assert final < first


def test_convergence_study_equal_pair_gap_is_factor_only():
    cfg = SamplerConfig(2, 71, -0.3, 0.3)
    pair = olson_exponential_pair(cfg, 0)
    rows = convergence_study(pair.h, pair.h, 0.0, 0.0, 0.5, (1.0, 0.5), "specht")
    # H = K with s = t = 0 gives factor 1 and exact equality of both sides.
    assert all(abs(row.gap) <= 1e-12 for row in rows)


def test_convergence_study_validation():
    cfg = SamplerConfig(2, 73, -0.3, 0.3)
    pair = olson_exponential_pair(cfg, 0)
    with pytest.raises(BadRangeError):
        convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, (), "specht")
    with pytest.raises(BadRangeError):
        convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, (0.1, 0.5), "specht")
    with pytest.raises(BadRangeError):
        convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, (1.0, 0.5), "magic")
    with pytest.raises(BadRangeError):
        convergence_study(pair.h, pair.k, 0.5, -0.5, 0.5, (1.0, 0.5), "specht")
    # malformed input is a BadRangeError too, not a TypeError or ValueError
    for bad in ({"p_sequence": [1, "x"]}, {"alpha": "x"}, {"p_sequence": 5}, {"s": "x"}):
        given = {"s": pair.s, "t": pair.t, "alpha": 0.5, "p_sequence": (1.0, 0.5), **bad}
        with pytest.raises(BadRangeError):
            convergence_study(pair.h, pair.k, **given)


@pytest.mark.parametrize(
    "kind, pattern",
    [
        ("specht", r"S\^\(1/p\) = [0-9.]+e\+257\^\(1/0\.3\) exceeds double range"),
        ("kantorovich", r"e\^\(p\(t-s\)\) = e\^\(1200\) exceeds double range"),
    ],
)
def test_convergence_factor_beyond_double_range_is_named(kind, pattern):
    # at s = -2000, t = 2000 and p = 0.3 the Specht factor's power 1/p, and
    # the Kantorovich factor's e^{p(t-s)}, leave double range
    pair = olson_exponential_pair(SamplerConfig(2, 73, -0.3, 0.3), 0)
    with pytest.raises(BadRangeError, match=f"^{pattern}$"):
        convergence_study(pair.h, pair.k, -2000.0, 2000.0, 0.5, [0.3], kind)


#: The values the extreme-value sweep gives each argument of a scalar
#: function of one or two arguments, and the ten it gives each argument of
#: one of three or four.
_EXTREMES = (
    0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 1.0 + 1e-12, 2.0, 1e300, 1.7e308, -1.0,
    math.inf, -math.inf, math.nan,
)
_TEN_EXTREMES = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, 1.7e308, math.inf, math.nan)


def test_extreme_arguments_give_finite_numbers_or_a_library_error():
    # A float product that overflows gives inf, and then NaN, without
    # raising; every scalar function ends in finite floats or a
    # GoldenBoundsError, never a NaN or a bare OverflowError.
    sweep = (
        (specht, _EXTREMES, 1),
        (kantorovich_lower_bound, _EXTREMES, 1),
        (specht_p_root, _EXTREMES, 2),
        (kantorovich, _EXTREMES, 2),
        (fm_factor, _TEN_EXTREMES, 3),
        (compare_constants_remark, _TEN_EXTREMES, 3),
        (compare_specht_vs_fm, _TEN_EXTREMES, 3),
        (compare_seo_constants, _TEN_EXTREMES, 4),
    )
    calls, bad = 0, []
    for function, values, arity in sweep:
        for arguments in itertools.product(values, repeat=arity):
            calls += 1
            try:
                result = function(*arguments)
            except GoldenBoundsError:
                continue
            except Exception as exc:  # an escape: what the sweep counts
                bad.append((function.__name__, arguments, repr(exc)))
                continue
            results = result if isinstance(result, tuple) else (result,)
            if not all(isinstance(x, float) and math.isfinite(x) for x in results):
                bad.append((function.__name__, arguments, result))
    assert calls == 13420
    assert bad == []


@pytest.mark.parametrize(
    "sequence, error",
    [((), EmptySequenceError), ((1.0, -0.5), NonPositiveError), ((0.1, 0.5), BadRangeError)],
    ids=["empty", "non-positive", "increasing"],
)
def test_exponent_sequences_are_checked_alike(sequence, error):
    # the three functions that walk a decreasing positive exponent sequence
    # share one check, so each fault raises one class in all of them
    pair = olson_exponential_pair(SamplerConfig(2, 73, -0.3, 0.3), 0)
    calls = (
        lambda: kantorovich_limit_root(2.0, 0.5, sequence),
        lambda: limit_probe(pair.h, pair.k, 0.5, sequence),
        lambda: convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, sequence),
    )
    for call in calls:
        with pytest.raises(BadRangeError) as excinfo:
            call()
        assert type(excinfo.value) is error


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


def test_registry_covers_every_id():
    assert set(INEQUALITY_IDS) == set(RECIPES)
    assert len(INEQUALITY_IDS) == 21


def test_the_repeated_sweeps_are_exactly_the_known_pairs():
    # Pairs of ids whose relative margins are bit-equal on every general
    # instance repeat one sweep under two names: each corollary below draws
    # its parent's pairs and applies its parent's factor at the same scalars.
    # A new repeat fails here; drawing a tight (s, t) for the parent rows
    # removes pairs on purpose.
    general = {
        ident: [r.relative_margins for r in run_instances(ident, 20, 1).reports
                if r.mode == "general"]
        for ident in INEQUALITY_IDS
    }
    repeated = {
        (first, second)
        for first, second in itertools.combinations(INEQUALITY_IDS, 2)
        if general[first] == general[second]
    }
    assert repeated == {
        ("bounded-eigen-power", "specht-eigen-power"),
        ("gt-bounded-specht", "gt-specht"),
        ("gt-kantorovich", "gt-kantorovich-bounded"),
    }


def test_run_instances_deterministic_and_annotated():
    first = run_instances("gt-kantorovich", count=6, seed=5)
    second = run_instances("gt-kantorovich", count=6, seed=5)
    assert [r.to_dict() for r in first.reports] == [r.to_dict() for r in second.reports]
    assert first.all_hold
    assert [r.n for r in first.reports] == [2, 3, 4, 5, 6, 2]
    assert [r.mode for r in first.reports] == [
        "commuting", "general", "commuting", "general", "commuting", "general",
    ]


#: Where a sweep's events are logged, one line each: the pid, the event and
#: the instance index; set before the sweep forks its workers.
_EVENTS = {"path": None}
_DRAW, _SIDE = certify._draw, certify._side


def _log(event: str, index=None) -> None:
    with open(_EVENTS["path"], "a") as log:
        log.write(f"{os.getpid()} {event} {index}\n")


def _logging_draw(inequality_id, index, seed, n, mode, ov):
    _log("draw", index)
    return _DRAW(inequality_id, index, seed, n, mode, ov)


def _logging_side(k, *args):
    _log(("first", "second")[k])
    return _SIDE(k, *args)


def _start_workers() -> None:
    """Fork the sweep workers, if this process may use two CPUs, by a split
    call of no-op jobs: a sweep of one instance forks none for its side."""
    noop = [(len, ((),))]
    _pool.run([noop] * (len(certify._blocks(2)) - 1), noop)


def _sweep_events(monkeypatch, tmp_path, inequality_id, count) -> tuple[list, list]:
    """The blocks of a sweep with its workers running, and the (pid, event,
    index) of each instance drawn and each side built separately in it, in
    the order logged.  The patches are module names of certify, made before
    the workers are forked, so the workers run them, and the side job
    pickles the logging function by name."""
    _EVENTS["path"] = tmp_path / "events"
    monkeypatch.setattr(certify, "_draw", _logging_draw)
    monkeypatch.setattr(certify, "_side", _logging_side)
    _start_workers()
    blocks = certify._sweep_blocks(count)
    run_instances(inequality_id, count=count, seed=1)
    monkeypatch.undo()
    events = []
    for line in _EVENTS["path"].read_text().splitlines():
        pid, event, index = line.split()
        events.append((int(pid), event, None if index == "None" else int(index)))
    return blocks, events


@pytest.mark.parametrize("count", [1, 2, 3, 7, 64])
def test_sweep_blocks_cover_the_instances_once_in_order(monkeypatch, tmp_path, count):
    # every instance is certified once: whole, in the process of its block,
    # or, left over from even blocks, as two sides in two processes
    blocks, events = _sweep_events(monkeypatch, tmp_path, "gt-specht", count)
    whole = [i for block in blocks for i in block]
    left = list(range(len(whole), count))
    assert whole + left == list(range(count))
    assert max(map(len, blocks)) - min(map(len, blocks)) <= 1
    cpus = len(os.sched_getaffinity(0))
    k = min(cpus, max(count, 2))
    if k > 1 and count % k == 1:
        assert len(blocks) == k and {len(block) for block in blocks} == {count // k}
        assert left == [count - 1]
    else:
        assert len(blocks) == min(count, cpus) and left == []
    drawn = {}
    for pid, event, index in events:
        if event == "draw":
            drawn.setdefault(index, set()).add(pid)
    assert sorted(drawn) == list(range(count))
    here = os.getpid()
    for j, block in enumerate(blocks):
        pids = set().union(*(drawn[i] for i in block))
        assert len(pids) <= 1 and (pids <= {here} if j == len(blocks) - 1 else here not in pids)
        assert all(len(drawn[i]) == 1 for i in block)
    first = [pid for pid, event, _ in events if event == "first"]
    second = [pid for pid, event, _ in events if event == "second"]
    if left:
        # drawn and opened here for its second side, and in a worker, which
        # builds its first side
        assert len(first) == 1 and first != [here] and second == [here]
        assert drawn[count - 1] == {here, first[0]}
    else:
        assert first == second == []


def test_a_sweep_of_one_instance_forks_no_worker_for_its_side():
    assert certify._sweep_blocks(1) == [range(1)]
    assert run_instances("gt-specht", count=1, seed=1, n=16).all_hold
    assert _pool._POOL.workers == []
    _start_workers()
    assert len(certify._sweep_blocks(1)) == min(2, len(os.sched_getaffinity(0)))


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_a_split_sweep_reports_what_one_process_reports(request, inequality_id):
    split = [r.to_dict() for r in run_instances(inequality_id, count=7, seed=11).reports]
    request.getfixturevalue("one_cpu")
    single = [r.to_dict() for r in run_instances(inequality_id, count=7, seed=11).reports]
    assert split == single


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_a_split_instance_reports_what_one_process_reports(request, inequality_id, count):
    # on two CPUs the last instance is built as two sides in two processes
    def sweep() -> list[dict]:
        return [r.to_dict() for r in run_instances(inequality_id, count, seed=7, n=16).reports]

    _start_workers()
    split = sweep()
    request.getfixturevalue("one_cpu")
    assert split == sweep()


def _params_draw_raises(monkeypatch, effects: dict) -> None:
    """Make the params-stream draw of instance i run ``effects[i]()`` first;
    the patch is in place before a sweep forks, so its children see it."""
    philox = certify.philox_generator

    def generator(seed, index, tag):
        if index in effects:
            effects[index]()
        return philox(seed, index, tag)

    monkeypatch.setattr(certify, "philox_generator", generator)


def _raise(error):
    def effect():
        raise error

    return effect


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _no_child_but_the_workers() -> bool:
    """Whether every child of this process is a pool worker: once the
    workers are stopped, no child is left."""
    _pool.stop()
    return _no_child_left()


def test_a_split_sweep_raises_the_lowest_failing_instances_error(monkeypatch):
    # on two CPUs instance 1 fails in the child and instance 6 in this process
    _params_draw_raises(monkeypatch, {
        1: _raise(BadRangeError("instance 1")), 6: _raise(HypothesisViolatedError("instance 6")),
    })
    with pytest.raises(BadRangeError, match="^instance 1$"):
        run_instances("gt-specht", count=8, seed=1)
    assert _no_child_but_the_workers()


@pytest.mark.parametrize(
    "faults, message",
    [
        ({0: "instance 0", 2: "instance 2"}, "instance 0"),
        ({1: "instance 1", 2: "instance 2"}, "instance 1"),
        ({2: "instance 2"}, "instance 2"),
    ],
)
def test_a_split_instance_ranks_after_the_blocks(monkeypatch, request, faults, message):
    # count 3 on two CPUs: instance 0 in the worker, 1 here and 2 split
    _params_draw_raises(monkeypatch, {i: _raise(BadRangeError(m)) for i, m in faults.items()})
    with pytest.raises(BadRangeError, match=f"^{message}$"):
        run_instances("gt-specht", count=3, seed=1)
    assert _no_child_but_the_workers()
    request.getfixturevalue("one_cpu")
    with pytest.raises(BadRangeError, match=f"^{message}$"):
        run_instances("gt-specht", count=3, seed=1)


def _raising(error):
    def raising(*args, **kwargs):
        raise error

    return raising


_OVERFLOWS = "gt-specht: a value exceeds double range"


@pytest.mark.parametrize(
    "faults, error, message",
    [
        # the hypothesis re-check, here, as the instance is opened
        ({"_demand_loewner": HypothesisViolatedError("re-check")}, HypothesisViolatedError,
         "re-check"),
        # the first side, e^{(1-a)H + aK}, built in a worker
        ({"log_euclidean": DomainError("first side")}, DomainError, "first side"),
        # the second side, the mean-power, built here
        ({"mean_power": DomainError("second side")}, DomainError, "second side"),
        # the combiner
        ({"_relative": DomainError("combined")}, DomainError, "combined"),
        # both sides fail: the first one's error, as in one process
        ({"log_euclidean": DomainError("first side"), "mean_power": DomainError("second side")},
         DomainError, "first side"),
        # an overflow anywhere is the id's BadRangeError
        ({"_demand_loewner": OverflowError("re-check")}, BadRangeError, _OVERFLOWS),
        ({"log_euclidean": OverflowError("first")}, BadRangeError, _OVERFLOWS),
        ({"mean_power": OverflowError("second")}, BadRangeError, _OVERFLOWS),
        ({"_relative": OverflowError("combined")}, BadRangeError, _OVERFLOWS),
    ],
)
def test_a_split_instance_raises_what_one_process_raises(
    monkeypatch, request, faults, error, message
):
    # the faults are certify's module names, so the workers see them too
    for name, fault in faults.items():
        monkeypatch.setattr(certify, name, _raising(fault))
    _start_workers()

    def raised() -> tuple:
        with pytest.raises(GoldenBoundsError) as excinfo:
            run_instances("gt-specht", count=1, seed=1)
        return type(excinfo.value), str(excinfo.value)

    assert raised() == (error, message)
    request.getfixturevalue("one_cpu")
    assert raised() == (error, message)


def test_a_worker_killed_during_a_side_job_is_an_error(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep forks only with two CPUs or more")
    parent = os.getpid()
    first = certify.log_euclidean

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return first(*args)

    monkeypatch.setattr(certify, "log_euclidean", dying)
    _start_workers()
    with pytest.raises(
        RuntimeError, match=r"^the worker running _side on 0 exited without a result$"
    ):
        run_instances("gt-specht", count=1, seed=1)
    assert _pool._POOL.workers == []
    assert _no_child_left()


def test_a_split_sweep_at_a_large_n_finishes():
    # At n = 48 a pair of operands (74 KB pickled) outgrows a pipe's 64 KiB
    # buffer, and so does a worker's block of 50 reports.  A request that
    # large, queued on a worker still writing such a response, would wait on
    # the worker while the worker waited on this process.
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep forks only with two CPUs or more")

    def timed_out(signum, frame):
        raise TimeoutError("the split sweep did not finish")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(300)
    try:
        result = run_instances("kantorovich-matrix", count=101, seed=1, n=48)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    alone = certify._certify_block("kantorovich-matrix", 1, 48, None, {}, range(100, 101))
    assert result.reports[-1].to_dict() == alone[0].to_dict()


def test_a_job_that_returns_none_is_a_result():
    # a worker's outcome of None is not taken for the end of its pipe
    assert _pool.run([[(time.sleep, (0,))]], [(time.sleep, (0,))]) == [None, None]


def _worker_pids() -> list[int]:
    return [worker.pid for worker in _pool._POOL.workers]


def test_no_child_outlives_a_sweep(monkeypatch):
    # split sweeps reuse the workers, which live until they are stopped
    run_instances("gt-specht", count=4, seed=1)
    workers = _worker_pids()
    run_instances("gt-specht", count=4, seed=1)
    assert _worker_pids() == workers
    assert len(workers) >= len(certify._blocks(4)) - 1
    _pool.stop()
    assert _no_child_left()
    # a child still at work when this process is interrupted is stopped
    parent = os.getpid()
    _params_draw_raises(monkeypatch, {
        0: lambda: os.getpid() != parent and time.sleep(60), 3: _raise(KeyboardInterrupt()),
    })
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_instances("gt-specht", count=4, seed=1)
    assert time.perf_counter() - started < 30.0
    assert _no_child_left()


def test_a_child_that_dies_is_an_error(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep forks only with two CPUs or more")
    parent = os.getpid()
    _params_draw_raises(monkeypatch, {0: lambda: os.getpid() != parent and os._exit(3)})
    with pytest.raises(
        RuntimeError, match=r"^the worker running _certify_block on range\(0, 2\) exited "
    ):
        run_instances("gt-specht", count=4, seed=1)
    assert _no_child_left()


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited within 30 s; a zombie that no one has
    reaped yet counts as exited."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                if stat.read().rpartition(")")[2].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.parametrize(
    "ending", ["pass", "sys.exit(3)", "os.kill(os.getpid(), signal.SIGKILL)"]
)
def test_no_worker_outlives_its_process(ending):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep starts workers only with two CPUs or more")
    program = (
        "import os, signal, sys\n"
        "from golden_bounds import _pool, certify\n"
        "certify.run_instances('gt-specht', count=4, seed=1)\n"
        "print(*[worker.pid for worker in _pool._POOL.workers], flush=True)\n"
        f"{ending}\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    child = subprocess.Popen([sys.executable, "-c", program], stdout=subprocess.PIPE, env=env)
    try:
        # the pipe ends only when no process holds it: no worker keeps it open
        out, _ = child.communicate(timeout=30)
    finally:
        child.kill()
        child.wait()
    workers = [int(pid) for pid in out.split()]
    assert workers
    assert all(_gone(pid) for pid in workers)


def test_a_wrapped_eigensolver_sees_every_solve_in_this_process(monkeypatch, tmp_path, request):
    # the wrapper logs each solve and each replay of the eigenvectors to a
    # file, so one in a worker would show; the workers run before the wrap,
    # and one run unwrapped would be missing from the counts
    _EVENTS["path"] = tmp_path / "events"
    solve = linalg._jacobi

    def logging_jacobi(*args):
        _log("solve")
        vals, replay = solve(*args)

        def logging_replay():
            _log("replay")
            return replay()

        return vals, logging_replay

    _start_workers()
    monkeypatch.setattr(linalg, "_jacobi", logging_jacobi)
    pair = olson_exponential_pair(SamplerConfig(4, 7, -0.6, 0.9), 0)

    def events() -> list[dict]:
        counts = []
        for call in (
            lambda: run_instances("gt-specht", count=1, seed=1),
            lambda: run_instances("gt-specht", count=3, seed=1),
            lambda: run_instances("gt-specht", count=4, seed=1),
            lambda: convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, _POWERS),
        ):
            _EVENTS["path"].write_text("")
            call()
            logged = [line.split() for line in _EVENTS["path"].read_text().splitlines()]
            assert logged and {int(pid) for pid, _, _ in logged} == {os.getpid()}
            kinds = [kind for _, kind, _ in logged]
            counts.append({kind: kinds.count(kind) for kind in ("solve", "replay")})
        return counts

    split = events()
    assert sum(count["replay"] for count in split)
    request.getfixturevalue("one_cpu")
    assert events() == split


def test_a_wrapped_eigensolver_leaves_this_process_one_cpu(monkeypatch):
    cpus = certify._cpus()
    assert cpus == len(os.sched_getaffinity(0))
    solve = linalg._jacobi
    monkeypatch.setattr(linalg, "_jacobi", lambda matrix: solve(matrix))
    assert certify._cpus() == 1
    monkeypatch.undo()
    assert certify._cpus() == cpus


@pytest.mark.parametrize("reaped", [False, True], ids=["zombie", "reaped"])
def test_a_worker_killed_between_sweeps_is_replaced(reaped):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep starts workers only with two CPUs or more")
    split = [r.to_dict() for r in run_instances("gt-specht", count=4, seed=1).reports]
    killed = _worker_pids()[0]
    os.kill(killed, signal.SIGKILL)
    if reaped:
        os.waitpid(killed, 0)
    else:
        assert _gone(killed)
    assert [r.to_dict() for r in run_instances("gt-specht", count=4, seed=1).reports] == split
    assert killed not in _worker_pids()


def test_sweeps_in_two_threads_take_the_workers_in_turn():
    def sweeps(seed: int) -> list[list[dict]]:
        return [
            [r.to_dict() for r in run_instances("gt-specht", count=6, seed=seed + k).reports]
            for k in range(3)
        ]

    alone = {seed: sweeps(seed) for seed in (1, 10)}
    together = {}
    threads = [
        threading.Thread(target=lambda seed=seed: together.update({seed: sweeps(seed)}))
        for seed in alone
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert together == alone


def test_spectral_cache_stays_in_its_budget_over_an_n16_pass(one_cpu):
    # one pass over the ids at one seed, a commuting and a general instance
    # each: the rows that share draws hit the decompositions of the rows
    # before them, and the general instances solve more than the budget holds
    for inequality_id in INEQUALITY_IDS:
        assert run_instances(inequality_id, count=2, seed=1, n=16).all_hold
    cache = linalg._CACHE
    assert cache.tally["hits"] > 0 and cache.tally["misses"] > 0
    held = sum(entry.nbytes() for entry in cache.entries.values())
    assert cache.tally["bytes"] == held
    # the budget bound: entries were evicted to keep within it
    assert held <= linalg._CACHE_BYTES and len(cache.entries) < cache.tally["misses"]


#: The CLI's default convergence powers: on two CPUs the first four go to
#: a worker and the last three stay in this process.
_POWERS = (1.0, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-4)


def _table_bits(rows) -> list[tuple]:
    return [(row.p.hex(), row.k, row.lhs.hex(), row.rhs.hex(), row.gap.hex()) for row in rows]


@pytest.mark.parametrize("operand", ["2.0 * h", "exp_h(h)"])
def test_lazy_operands_give_one_table_split_or_in_one_process(request, operand):
    # both operands hold a decomposition whose eigenvectors are not built
    # yet; they pickle as they are and give the workers the same bits
    def table() -> list[tuple]:
        pair = olson_exponential_pair(SamplerConfig(4, 7, -0.6, 0.9), 0)
        x = 2.0 * pair.h if operand == "2.0 * h" else exp_h(pair.h)
        assert callable(x.decomposition._eigenvectors)
        assert pickle.loads(pickle.dumps(x)).eigenvalues.tobytes() == x.eigenvalues.tobytes()
        return _table_bits(convergence_study(x, pair.k, pair.s, pair.t, 0.5, _POWERS))

    split = table()
    if len(os.sched_getaffinity(0)) >= 2:
        assert _pool._POOL.workers
    request.getfixturevalue("one_cpu")
    assert split == table()


def _table_faults(monkeypatch, lhs: bool = False, factor=(), mean=()) -> None:
    """Make the lhs, the factor at each p of ``factor`` and the mean-power
    side at each p of ``mean`` raise an error that names it; the mean-power
    faults are patched into ``means``, so the workers see them."""
    if lhs:
        def failing_lhs(h, k, alpha):
            raise BadRangeError("lhs")

        monkeypatch.setattr(certify, "log_euclidean", failing_lhs)
    row = certify._INEQUALITIES["gt-specht"]

    def failing_factor(v):
        if v["p"] in factor:
            raise BadRangeError(f"factor at p = {v['p']}")
        return row.factor(v)

    faulty = dataclasses.replace(row, factor=failing_factor)
    monkeypatch.setitem(certify._INEQUALITIES, "gt-specht", faulty)
    power = means.power

    def failing_power(matrix, exponent):
        # mean_power's last step is the power 1/p
        for p in mean:
            if exponent == 1.0 / p:
                raise HypothesisViolatedError(f"mean power at p = {p}")
        return power(matrix, exponent)

    monkeypatch.setattr(means, "power", failing_power)


@pytest.mark.parametrize(
    "faults, message",
    [
        ({"lhs": True, "mean": (0.3,)}, "lhs"),
        ({"factor": (0.1,), "mean": (0.3,)}, "mean power at p = 0.3"),
        ({"factor": (0.3,), "mean": (0.1,)}, "factor at p = 0.3"),
        ({"mean": (0.03, 0.01)}, "mean power at p = 0.03"),
        ({"factor": (0.001,), "mean": (0.0001,)}, "factor at p = 0.001"),
        ({"mean": (0.001,), "factor": (0.0001,)}, "mean power at p = 0.001"),
        ({"factor": (1.0,)}, "factor at p = 1.0"),
    ],
)
def test_a_table_raises_the_error_of_one_loop_over_p(monkeypatch, request, faults, message):
    pair = olson_exponential_pair(SamplerConfig(3, 5, -0.6, 0.9), 0)
    _table_faults(monkeypatch, **faults)
    with pytest.raises(GoldenBoundsError) as split:
        convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, _POWERS)
    assert str(split.value) == message
    request.getfixturevalue("one_cpu")
    with pytest.raises(type(split.value), match=f"^{re.escape(message)}$"):
        convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, _POWERS)


def test_a_failing_block_in_a_worker_keeps_the_pool(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a table starts workers only with two CPUs or more")
    pair = olson_exponential_pair(SamplerConfig(3, 5, -0.6, 0.9), 0)
    # p = 0.1 and 0.03 are in the worker's block, 1e-3 in this process's
    _table_faults(monkeypatch, mean=(0.1, 0.03, 1e-3))
    with pytest.raises(HypothesisViolatedError, match=r"^mean power at p = 0\.1$"):
        convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, _POWERS)
    # the worker's error was read as its block's outcome: it stays, idle,
    # and the next table forks nothing
    workers = _worker_pids()
    assert workers
    with pytest.raises(HypothesisViolatedError, match=r"^mean power at p = 0\.1$"):
        convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, _POWERS)
    assert _worker_pids() == workers
    assert _no_child_but_the_workers()


def test_an_error_in_this_processs_block_keeps_the_workers(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep starts workers only with two CPUs or more")
    _start_workers()
    workers = _worker_pids()
    # patched after the fork: the workers certify instances 0 and 1 as the
    # package was when they were forked, and this process fails on 2
    row = certify._INEQUALITIES["gt-specht"]

    def failing_factor(v):
        raise BadRangeError("factor here")

    monkeypatch.setitem(
        certify._INEQUALITIES, "gt-specht", dataclasses.replace(row, factor=failing_factor)
    )
    with pytest.raises(BadRangeError, match="^factor here$"):
        run_instances("gt-specht", count=4, seed=1)
    assert _worker_pids() == workers
    monkeypatch.undo()
    # a pinned parameter out of range fails every block, each error is read
    with pytest.raises(BadRangeError, match=r"^alpha must lie in \[0, 1\], got 2\.0$"):
        run_instances("gt-specht", count=4, seed=1, param_overrides={"alpha": 2.0})
    assert _worker_pids() == workers
    # and the next split call forks nothing
    assert run_instances("gt-specht", count=4, seed=1).all_hold
    assert _worker_pids() == workers


def test_run_instances_pins_dimension_and_mode():
    result = run_instances("bounded-pq", count=4, seed=2, n=3, mode="commuting")
    assert {r.n for r in result.reports} == {3}
    assert {r.mode for r in result.reports} == {"commuting"}


def test_run_instances_param_overrides():
    result = run_instances(
        "gt-specht", count=3, seed=8, param_overrides={"alpha": 0.3, "p": 2.0}
    )
    for report in result.reports:
        assert report.parameters["alpha"] == 0.3
        assert report.parameters["p"] == 2.0
    assert result.all_hold


def _drawn(monkeypatch, inequality_id, seed, pins, count=6) -> list[dict]:
    """Per instance of a sweep, its report parameters with the m and M the
    recipe drew for its sampler in place of any reported ones."""
    configs = []
    monkeypatch.setattr(
        certify, "SamplerConfig", lambda *args: configs.append(args) or SamplerConfig(*args)
    )
    reports = run_instances(inequality_id, count=count, seed=seed, param_overrides=pins).reports
    assert len(configs) == count
    return [{**rep.parameters, "m": cfg[2], "M": cfg[3]} for rep, cfg in zip(reports, configs)]


@pytest.mark.parametrize("inequality_id, name, value", [
    ("gt-specht", "alpha", 0.3),
    ("fm-eigen-power", "r", 1.5),
])
def test_a_pin_moves_no_other_draw(monkeypatch, one_cpu, inequality_id, name, value):
    kept = [other for other in certify._pinnable(inequality_id) if other != name]
    free = _drawn(monkeypatch, inequality_id, 3, {})
    pinned = _drawn(monkeypatch, inequality_id, 3, {name: value})
    assert [{k: d[k] for k in kept} for d in pinned] == [{k: d[k] for k in kept} for d in free]
    assert {d[name] for d in pinned} == {value}


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_every_drawn_name_can_be_pinned(monkeypatch, one_cpu, inequality_id):
    # seed 4's first draw, a consistent set, pinned whole on seed 3's instance
    pinnable = certify._pinnable(inequality_id)
    (other,) = _drawn(monkeypatch, inequality_id, 4, {}, count=1)
    pins = {name: other[name] for name in pinnable}
    (got,) = _drawn(monkeypatch, inequality_id, 3, pins, count=1)
    assert {name: got[name] for name in pinnable} == pins


def test_run_instances_validation():
    with pytest.raises(BadRangeError):
        run_instances("nope", count=1)
    with pytest.raises(BadRangeError):
        run_instances("gt-specht", count=0)
    with pytest.raises(BadRangeError):
        run_instances("gt-specht", count=1, mode="sideways")
    # an id that is not a string is unknown too, hashable or not
    for bad_id in (["gt-specht"], 3, None):
        with pytest.raises(BadRangeError, match="unknown inequality id"):
            run_instances(bad_id, count=1)
    # a name the id does not draw is refused before its value is read
    with pytest.raises(BadRangeError, match="does not draw alpha.*pinnable:"):
        run_instances("kantorovich-matrix", count=1, param_overrides={"alpha": "half"})
    # malformed input is a BadRangeError too, not a TypeError or ValueError
    for bad in ({"count": 2.5}, {"count": "3"}, {"param_overrides": ["alpha"]},
                {"param_overrides": {"alpha": "x"}}, {"param_overrides": {"alpha": None}}):
        with pytest.raises(BadRangeError):
            run_instances("gt-specht", **{"count": 1, **bad})


def test_every_recipe_produces_holding_reports():
    for inequality_id in INEQUALITY_IDS:
        result = run_instances(inequality_id, count=4, seed=23)
        assert result.all_hold, (inequality_id, result.violation_indices)
        for report in result.reports:
            assert report.parameters.get("factor", 1.0) >= 1.0 - 1e-12
            assert report.tolerance == pytest.approx(1e-9)


def test_sweep_summary_and_replace():
    result = run_instances("forward-gt-trace", count=2, seed=1)
    line = result.summary()
    assert "forward-gt-trace" in line and "ok" in line
    tweaked = dataclasses.replace(result.reports[0], mode="n/a")
    assert tweaked.mode == "n/a"
