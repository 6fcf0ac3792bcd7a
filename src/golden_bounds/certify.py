"""Certifiers for the reverse (and forward) geometric-mean inequalities.

Every inequality has one shape: under an order hypothesis, one side is at
most a scalar constant times the other.  Each of the ten hypotheses is one
``_Hypothesis`` record: its README cell, the scalars it adds to a row's
parameters and their checks, its re-check, its sampler and the draws before
the row's own.  The table ``_INEQUALITIES`` holds, per inequality id, its
record and only what else differs — its own exponent parameters, checks and
draws, the factor, the comparison and their README cells — and one public
certifier, ``certify_inequality``, runs every row: check parameters,
re-verify the hypothesis (HypothesisViolated on failure, so a drifting
sampler cannot feed a certifier inputs outside its domain), build the
factor, build the first side, then the second, and combine them into the
report.  A comparison is those two side builders, which do not read each
other, and the combiner.  Comparisons are evaluated exactly as
stated — Loewner form via the spectrum of RHS − LHS, eigenvalue form via
sorted spectra, norm form via the Ky Fan / Schatten families, trace form
directly — into an InequalityReport with per-entry margins; it holds when
every relative margin is at least -1e-9.  A scalar exponential (``_exp``),
a power of s, t or h, or a row's factor that leaves double range is a
BadRangeError naming it, from the range gate ``errors._in_range``; any other
scalar overflow is one naming the id (``errors._overflow_named``).

``RECIPES`` maps each id to its seeded per-instance recipe, and
run_instances drives soundness sweeps over them on every CPU the process may
use.  A split call is its one-process loop cut into job lists for the
workers of ``_pool`` and this process: a sweep's blocks of instances, the
last certified here, and an instance left over from even blocks as two
runs of one job, ``_side(k, ...)``, which opens the instance (its
parameters and the report's head, n and the input digest) and builds side
k: k = 0 ahead of the first worker's block, k = 1 here; convergence_study's
p blocks, each computing its factors and sides, the last here after the
lhs.  Each job raises its own error.  On one CPU (``taskset -c 0``), or
while ``linalg._jacobi`` is a caller's wrapper, all stays here.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _pool, errors, linalg
from .constants import _check_decreasing_positive, fm_factor, kantorovich, specht
from .errors import BadRangeError, DimMismatchError, HypothesisViolatedError, _integer, _real
from .linalg import (
    HYPOTHESIS_RTOL,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    _norm_family,
    _spectral_scale,
    congruence,
    exp_h,
    power,
    trace,
)
from .means import geometric_mean, log_euclidean, mean_power
from .orders import loewner_leq
from .sampling import (
    MODE_COMMUTING,
    MODE_GENERAL,
    TAG_PARAMS,
    SamplerConfig,
    _checked_seed,
    _difference_reduction,
    _ratio_reduction,
    bounded_hermitian_pair,
    olson_exponential_pair,
    olson_sandwich_pair,
    ordered_chain_pair,
    ordered_exponential_chain_pair,
    philox_generator,
    random_isometry,
    random_pd,
    random_pd_pair,
    sandwich_pair,
)

SEMANTICS_LOEWNER = "loewner"
SEMANTICS_EIGENVALUE = "eigenvalue"
SEMANTICS_NORM = "norm"
SEMANTICS_TRACE = "trace"

_TOLERANCE = 1e-9

_TINY = 1e-300


@dataclass(frozen=True)
class InequalityReport:
    """Margins of one inequality instance.

    ``margins`` are raw rhs − lhs per entry; ``relative_margins`` divide by
    the larger side's magnitude (or, for Loewner semantics, by the larger
    spectral norm of the two sides), and ``holds`` means every relative
    margin stays above −tolerance.
    """

    inequality_id: str
    parameters: dict
    lhs_values: tuple[float, ...]
    rhs_values: tuple[float, ...]
    margins: tuple[float, ...]
    relative_margins: tuple[float, ...]
    holds: bool
    tolerance: float
    semantics: str
    labels: tuple[str, ...]
    n: int
    mode: str
    input_digest: str

    def __post_init__(self):
        columns = (self.lhs_values, self.rhs_values, self.margins, self.relative_margins)
        sizes = {len(self.labels), *(len(column) for column in columns)}
        if len(sizes) != 1:
            raise DimMismatchError("report value/margin/label lengths disagree")

    @property
    def worst_relative_margin(self) -> float:
        return min(self.relative_margins)

    def to_dict(self) -> dict:
        """Every field in declaration order, tuples as lists."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["parameters"] = dict(self.parameters)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}

    def csv_rows(self, instance: int) -> list[list]:
        """One row per entry; see CSV_HEADER for the column layout."""
        head = [self.inequality_id, instance, self.n]
        head += [self.mode, self.semantics]
        tail = [self.holds, self.tolerance, self.input_digest]
        tail.append(json.dumps(self.parameters, sort_keys=True))
        entries = zip(
            self.labels, self.lhs_values, self.rhs_values, self.margins, self.relative_margins
        )
        return [head + list(entry) + tail for entry in entries]


CSV_HEADER = [
    "inequality_id",
    "instance",
    "n",
    "mode",
    "semantics",
    "entry",
    "lhs",
    "rhs",
    "margin",
    "relative_margin",
    "holds",
    "tolerance",
    "input_digest",
    "parameters",
]


def _digest(params: dict, *matrices: HermitianMatrix) -> str:
    hasher = hashlib.sha256()
    for m in matrices:
        hasher.update(np.ascontiguousarray(m.matrix).tobytes())
    hasher.update(repr(sorted((k, float(v)) for k, v in params.items())).encode())
    return hasher.hexdigest()[:16]


def _relative(lhs, rhs) -> list:
    return [(r - l) / max(abs(l), abs(r), _TINY) for l, r in zip(lhs, rhs)]


def _eigen_sides(lhs, rhs, v):
    """lambda_k of the lhs against factor * lambda_k of the rhs."""
    rhs = v["factor"] * rhs
    labels = [f"k={k + 1}" for k in range(len(lhs))]
    return SEMANTICS_EIGENVALUE, labels, lhs, rhs, _relative(lhs, rhs)


def _loewner_sides(lhs_mat, rhs_mat, v):
    """LHS <= factor * RHS via the ascending spectrum of factor * RHS - LHS.

    Margins are the difference eigenvalues; relative margins divide by the
    larger spectral norm of the two sides, so 'holds' is scale-invariant.
    """
    rhs_mat = rhs_mat * v["factor"]
    diff = rhs_mat - lhs_mat
    diff_eigs = diff.eigenvalues[::-1]
    scale = _spectral_scale(lhs_mat, rhs_mat, _TINY)
    rel = [e / scale for e in diff_eigs]
    labels = [f"diff-eig-{k + 1}" for k in range(len(diff_eigs))]
    return SEMANTICS_LOEWNER, labels, np.zeros(len(diff_eigs)), diff_eigs, rel


def _norm_sides(lhs, rhs, v):
    """Ky Fan 1..n plus Schatten {1, 2, inf} values (``_norm_family``) of two
    positive matrices, the rhs's times the factor, if the row has one."""
    labels = [f"ky-fan-{k + 1}" for k in range(len(lhs) - 3)]
    labels += ["schatten-1", "schatten-2", "schatten-inf"]
    rhs = v.get("factor", 1.0) * rhs
    return SEMANTICS_NORM, labels, lhs, rhs, _relative(lhs, rhs)


# ---------------------------------------------------------------------------
# Hypothesis re-verification (fail fast on stale or wrong certificates)
# ---------------------------------------------------------------------------


def _demand_loewner(lhs: HermitianMatrix, rhs: HermitianMatrix, what: str) -> None:
    """Require lhs <= rhs by the shared Loewner test, ``orders.loewner_leq``
    (the chain samplers accept their pairs by it too), naming a violation by
    the smallest eigenvalue of the difference."""
    if not loewner_leq(lhs, rhs):
        smallest = float((rhs - lhs).eigenvalues[-1])
        raise HypothesisViolatedError(
            f"hypothesis {what} fails: min eigenvalue of difference = {smallest:.3e}"
        )


def _lean_exponents(v: dict) -> tuple[float, ...]:
    """{1} plus the exponents r, q, p above 1 — where an Olson hypothesis is consumed."""
    keep = {1.0}
    keep.update(float(v[e]) for e in ("r", "q", "p") if e in v and float(v[e]) > 1.0)
    return tuple(sorted(keep))


# Each hypothesis check takes the two operands and the parameter dict.


def _powers(a, b, nu: float):
    """A^nu, B^nu and the text of the exponent: at nu = 1 the operands
    themselves and no text."""
    if nu == 1.0:
        return a, b, ""
    return power(a, nu), power(b, nu), f"^{nu:g}"


def _require_olson_sandwich(a, b, v: dict) -> None:
    s, t = v["s"], v["t"]
    for nu in _lean_exponents(v):
        a_nu, b_nu, e = _powers(a, b, nu)
        s_nu = errors._in_range(lambda: s**nu, "s^nu = {:g}^{:g}", s, nu)
        _demand_loewner(a_nu * s_nu, b_nu, f"{s:g}{e}*A{e} <= B{e}")
        t_nu = errors._in_range(lambda: t**nu, "t^nu = {:g}^{:g}", t, nu)
        _demand_loewner(b_nu, a_nu * t_nu, f"B{e} <= {t:g}{e}*A{e}")


def _require_spectrum_bounds(x: HermitianMatrix, lo: float, hi: float, name: str) -> None:
    slack = HYPOTHESIS_RTOL * max(abs(lo), abs(hi))
    eigs = x.eigenvalues
    if eigs[-1] < lo - slack or eigs[0] > hi + slack:
        raise HypothesisViolatedError(
            f"spectrum of {name} = [{eigs[-1]:.6g}, {eigs[0]:.6g}] "
            f"escapes the bounds [{lo:g}, {hi:g}]"
        )


def _require_bounded(x, y, v: dict, names: str = "AB") -> None:
    _require_spectrum_bounds(x, v["m"], v["M"], names[0])
    _require_spectrum_bounds(y, v["m"], v["M"], names[1])


def _require_bounded_hk(h, k, v: dict) -> None:
    _require_bounded(h, k, v, "HK")


def _require_chain(a, b, v: dict) -> None:
    _require_bounded(a, b, v)
    for nu in _lean_exponents(v):
        a_nu, b_nu, e = _powers(a, b, nu)
        _demand_loewner(a_nu, b_nu, f"A{e} <= B{e}")


def _require_exponential_olson(h, k, v: dict) -> None:
    s, t = v["s"], v["t"]
    for nu in _lean_exponents(v):
        exp_nu_h = exp_h(h * nu)
        low = exp_nu_h * _exp(s * nu, "s*nu")
        mid = exp_h(k * nu)
        high = exp_nu_h * _exp(t * nu, "t*nu")
        _demand_loewner(low, mid, f"e^({s:g}*{nu:g}) e^({nu:g}H) <= e^({nu:g}K)")
        _demand_loewner(mid, high, f"e^({nu:g}K) <= e^({t:g}*{nu:g}) e^({nu:g}H)")


def _require_exponential_chain(h, k, v: dict) -> None:
    _require_bounded_hk(h, k, v)
    for nu in _lean_exponents(v):
        _demand_loewner(exp_h(h * nu), exp_h(k * nu), f"e^({nu:g}H) <= e^({nu:g}K)")


def _require_compression(a, u, v: dict) -> None:
    """Spectrum of A inside [m, M] and a row-orthonormal transform U."""
    _require_spectrum_bounds(a, v["m"], v["M"], "A")
    u = errors._array(u, np.complex128, "transform entries")
    n = a.dim
    if u.ndim != 2 or u.shape[1] != n or not 1 <= u.shape[0] <= n:
        raise DimMismatchError(f"isometry shape {u.shape} incompatible with dim {n}")
    gram = u @ u.conj().T
    if float(np.max(np.abs(gram - np.eye(u.shape[0])))) > 1e-10:
        raise HypothesisViolatedError("transform rows are not orthonormal (U U* != I)")


# ---------------------------------------------------------------------------
# Parameter checks: each is one test of the parameter dict and one message.
# They run on floats: every parameter a caller gives goes through
# ``errors._real`` first (``_checked``), in the rows and the experiments alike.
# ---------------------------------------------------------------------------


def _check(test: Callable[[dict], bool], message: str) -> Callable[[dict], None]:
    """The check that raises BadRangeError(``message`` formatted from the
    parameter dict) where ``test`` of the dict is false."""

    def check(v: dict) -> None:
        if not test(v):
            raise BadRangeError(message.format(**v))

    return check


def _checked(checks, **values) -> dict:
    """``values`` as floats by ``_real``, in order, then run through ``checks``."""
    v = {name: _real(value, name) for name, value in values.items()}
    for check in checks:
        check(v)
    return v


_alpha = _check(lambda v: 0.0 <= v["alpha"] <= 1.0, "alpha must lie in [0, 1], got {alpha}")
_low_r = _check(lambda v: 0.0 < v["r"] <= 1.0, "exponent must lie in (0, 1], got {r}")
_high_r = _check(lambda v: v["r"] >= 1.0, "exponent must be >= 1, got {r}")
_q_le_p = _check(lambda v: 0.0 < v["q"] <= v["p"], "need 0 < q <= p, got q={q}, p={p}")
_positive_p = _check(lambda v: v["p"] > 0.0, "p must be positive, got {p}")
_low_p = _check(lambda v: 0.0 < v["p"] <= 1.0, "need 0 < p <= 1, got {p}")
_positive_m = _check(lambda v: v["m"] > 0.0, "m must be positive, got {m}")
_bounds = _check(lambda v: v["m"] <= v["M"], "need m <= M, got m={m}, M={M}")
_chain_top = _check(lambda v: v["M"] <= 1.0, "chain needs M <= 1, got M = {M}")
_exp_chain_top = _check(lambda v: v["M"] <= 0.0, "exponential chain needs M <= 0, got M = {M}")
_high_h = _check(lambda v: v["h"] >= 1.0, "h must be >= 1, got {h}")
_finite_s_t = _check(
    lambda v: math.isfinite(v["s"]) and math.isfinite(v["t"]),
    "s and t must be finite, got s={s}, t={t}",
)
_s_le_t = _check(lambda v: v["s"] <= v["t"], "need s <= t, got s={s}, t={t}")
_sandwich = _check(lambda v: 0.0 < v["s"] <= v["t"], "need 0 < s <= t, got s={s}, t={t}")


def _exp(exponent: float, name: str) -> float:
    """e^exponent through the range gate, the exponent named ``name`` (e.g. "t*p")."""
    return errors._in_range(lambda: math.exp(exponent), "e^({}) = e^({:g})", name, exponent)


# ---------------------------------------------------------------------------
# Comparisons: two side builders, (x, y, params) -> side, and a combiner,
# (first, second, params) -> (semantics, labels, lhs, rhs, relative
# margins).  Neither side reads the other, so a sweep may build the first in
# a worker while it builds the second.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Comparison:
    """How a row compares its operands: ``first`` and ``second`` build the
    two sides, in the order one process evaluates them, and ``combine``
    turns them into the report's columns.  "First" is the first evaluated,
    not the lhs: forward-mean-norm reports its first side as its rhs."""

    first: Callable
    second: Callable
    combine: Callable


def _mean_of_powers(a, b, v):
    """A^r #_a B^r."""
    return geometric_mean(power(a, v["r"]), power(b, v["r"]), v["alpha"])


def _power_of_mean(a, b, v):
    """(A #_a B)^r."""
    return power(geometric_mean(a, b, v["alpha"]), v["r"])


def _powered_mean_spectrum(a, b, v, e: str):
    """lambda_k(A^e #_a B^e)^{1/e} for the exponent named ``e``."""
    e = v[e]
    return geometric_mean(power(a, e), power(b, e), v["alpha"]).eigenvalues ** (1.0 / e)


def _log_euclidean(h, k, v):
    """e^{(1-a)H + aK}."""
    return log_euclidean(h, k, v["alpha"])


def _mean_power(h, k, v):
    """The mean-power (e^{pH} #_a e^{pK})^{1/p}."""
    return mean_power(h, k, v["alpha"], v["p"])


def _exp_sum(h, k, v):
    """e^{H+K}: the alpha = 1/2, p = 2 display's lhs, squared."""
    return exp_h(h + k)


def _squared_mean(h, k, v):
    """e^{2H} # e^{2K}: the alpha = 1/2, p = 2 display's rhs, squared."""
    return geometric_mean(exp_h(h * 2.0), exp_h(k * 2.0), 0.5)


def _eigenvalues(side):
    """The side builder of the spectrum of ``side``'s matrix."""
    return lambda x, y, v: side(x, y, v).eigenvalues


def _norms(side):
    """The side builder of ``_norm_family`` of ``side``'s matrix."""
    return lambda x, y, v: _norm_family(side(x, y, v))


def _log_majorization(lhs_eigs, rhs_eigs, v):
    """Cumulative log-products of both spectra plus the k = n equality entry.

    The margin at k is -expm1(sum_{i<=k} log lhs_i - sum_{i<=k} log rhs_i),
    positive when the k-th partial product of the lhs sits below the rhs's;
    the equality entry's is -|expm1(log det lhs - log det rhs)|.
    """
    log_lhs, log_rhs = (np.log(np.sort(eigs)[::-1]) for eigs in (lhs_eigs, rhs_eigs))
    cum_lhs, cum_rhs = np.cumsum(log_lhs), np.cumsum(log_rhs)
    margins = [-math.expm1(gap) for gap in cum_lhs - cum_rhs]
    margins.append(-abs(math.expm1(float(np.sum(log_lhs) - np.sum(log_rhs)))))
    labels = [f"k={k + 1}" for k in range(len(lhs_eigs))] + ["total-product"]
    lhs_values = np.concatenate([cum_lhs, [cum_lhs[-1]]])
    rhs_values = np.concatenate([cum_rhs, [cum_rhs[-1]]])
    return SEMANTICS_EIGENVALUE, labels, lhs_values, rhs_values, margins


def _trace_sides(lhs, rhs, v):
    return SEMANTICS_TRACE, ("trace",), [lhs], [rhs], _relative([lhs], [rhs])


#: Loewner: A^r #_a B^r <= factor * (A #_a B)^r for 0 < r <= 1.
_POWER_LOW = _Comparison(_mean_of_powers, _power_of_mean, _loewner_sides)
#: lambda_k(A #_a B)^r against factor * lambda_k(A^r #_a B^r).
_EIGEN_POWER = _Comparison(
    lambda a, b, v: geometric_mean(a, b, v["alpha"]).eigenvalues ** v["r"],
    _eigenvalues(_mean_of_powers), _eigen_sides,
)
#: lambda_k(A^q #_a B^q)^{1/q} against factor * lambda_k(A^p #_a B^p)^{1/p}.
_PQ = _Comparison(
    lambda a, b, v: _powered_mean_spectrum(a, b, v, "q"),
    lambda a, b, v: _powered_mean_spectrum(a, b, v, "p"), _eigen_sides,
)
_GT_EIGEN = _Comparison(_eigenvalues(_log_euclidean), _eigenvalues(_mean_power), _eigen_sides)
_SQUARED_EIGEN = _Comparison(_eigenvalues(_exp_sum), _eigenvalues(_squared_mean), _eigen_sides)
_GT_NORM = _Comparison(_norms(_log_euclidean), _norms(_mean_power), _norm_sides)
_SQUARED_NORM = _Comparison(_norms(_exp_sum), _norms(_squared_mean), _norm_sides)
#: The forward bound: the mean-power's norms at most the log-Euclidean's.
_FORWARD_NORM = _Comparison(
    _norms(_log_euclidean), _norms(_mean_power),
    lambda first, second, v: _norm_sides(second, first, v),
)
#: Loewner: U A^{-1} U* <= factor * (U A U*)^{-1}.
_COMPRESSION = _Comparison(
    lambda a, u, v: PositiveDefiniteMatrix(congruence(u, power(a, -1.0))),
    lambda a, u, v: power(PositiveDefiniteMatrix(congruence(u, a)), -1.0), _loewner_sides,
)
#: Log-majorization of the mean of powers by the power of the mean.
_LOG_MAJORIZATION = _Comparison(
    _eigenvalues(_mean_of_powers), _eigenvalues(_power_of_mean), _log_majorization
)
#: Trace: tr e^{H+K} <= tr e^H e^K.
_TRACE = _Comparison(
    lambda h, k, v: float(trace(exp_h(h + k)).real),
    lambda h, k, v: float(np.trace(exp_h(h).matrix @ exp_h(k).matrix).real), _trace_sides,
)


# ---------------------------------------------------------------------------
# Parameter draws, (name, draw(rng, drawn, n)) entries, and samplers,
# (config, index, drawn) -> (x, y, sampled parameters).  A block holds the
# entries that draw together; a row's draws are its hypothesis's blocks, then
# its own, in params-stream order, and a later entry reads the values drawn
# before it.
# ---------------------------------------------------------------------------

N_CYCLE = (2, 3, 4, 5, 6)

_ALPHA_GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_ALPHA = (
    ("alpha", lambda rng, d, n: float(rng.choice(_ALPHA_GRID)) if rng.uniform() < 0.4
     else rng.uniform()),
)
_LOW_R = (("r", lambda rng, d, n: 1.0 if rng.uniform() < 0.1 else rng.uniform(0.05, 1.0)),)
_HIGH_R = (
    ("r", lambda rng, d, n: 1.0 if rng.uniform() < 0.1 else 1.0 + rng.uniform(0.0, 2.0)),
)
_QP = (
    ("q", lambda rng, d, n: rng.uniform(0.2, 1.2)),
    ("p", lambda rng, d, n: d["q"] * (1.0 + rng.uniform(0.0, 1.5))),
)
_GT_P = (("p", lambda rng, d, n: rng.uniform(0.3, 2.5)),)
_PD_RANGE = (
    ("m", lambda rng, d, n: rng.uniform(0.3, 1.0)),
    ("M", lambda rng, d, n: d["m"] * rng.uniform(1.2, 5.0)),
)
_HERMITIAN_RANGE = (
    ("m", lambda rng, d, n: rng.uniform(-1.5, 0.3)),
    ("M", lambda rng, d, n: d["m"] + rng.uniform(0.3, 2.0)),
)


def _pinnable(inequality_id: str) -> tuple[str, ...]:
    """Names ``run_instances`` accepts in ``param_overrides`` for this id:
    the names its draws draw, less the derived rows."""
    return tuple(name for name, _ in _INEQUALITIES[inequality_id].draws if name != "rows")


def _sandwich_sample(cfg, index, d):
    sample = sandwich_pair(cfg, d["s"], d["t"], index)
    return sample.a, sample.b, {}


def _olson_sandwich_sample(cfg, index, d):
    sample = olson_sandwich_pair(cfg, index)
    return sample.a, sample.b, {"s": sample.s, "t": sample.t}


def _pd_pair_sample(cfg, index, d):
    return *random_pd_pair(cfg, index), {}


def _exp_olson_sample(cfg, index, d):
    pair = olson_exponential_pair(cfg, index)
    return pair.h, pair.k, {"s": pair.s, "t": pair.t}


def _bounded_sample(cfg, index, d):
    return *bounded_hermitian_pair(cfg, index), {}


def _chain_sample(cfg, index, d):
    # the row's own check of the top comes before the sampler's, so a pinned
    # top past 1 is reported in the certifier's words, at its pinned value
    _chain_top(d)
    chain = ordered_chain_pair(cfg, index, grid=_lean_exponents(d))
    return chain.a, chain.b, {"m": chain.m, "M": chain.M}


def _exp_chain_sample(cfg, index, d):
    _exp_chain_top(d)
    pair = ordered_exponential_chain_pair(cfg, index, grid=_lean_exponents(d))
    return pair.h, pair.k, {"m": pair.m, "M": pair.M}


# ---------------------------------------------------------------------------
# The hypotheses, the inequality table and the skeleton that runs it
# ---------------------------------------------------------------------------


#: Report parameters computed from the others, never given by a caller.
_DERIVED = ("h", "rows", "factor")


@dataclass(frozen=True)
class _Inequality:
    """What one inequality id adds to the shared skeleton (see
    certify_inequality).

    ``params`` are the report's parameter keys in order, some pinned by
    ``fixed``; "factor" follows them, and "h" = M/m and "rows" are derived.
    ``draws`` are (name, draw) entries run in params-stream order; each value
    drawn, or the pin put in its place, is visible to the later entries, and
    then ``sample`` builds the operands.
    ``cells`` are the hypothesis, comparison and factor cells of the id's row
    in the README table, which is rendered from them.
    """

    params: tuple[str, ...]
    checks: tuple[Callable, ...]
    require: Callable | None
    factor: Callable | None
    compare: _Comparison
    draws: tuple[tuple[str, Callable], ...]
    sample: Callable
    cells: tuple[str, str, str]
    fixed: dict = field(default_factory=dict)

    @property
    def taken(self) -> tuple[str, ...]:
        """The parameter names a caller gives: ``params`` less the fixed and
        derived ones."""
        return tuple(n for n in self.params if n not in self.fixed and n not in _DERIVED)


@dataclass(frozen=True)
class _Hypothesis:
    """One order hypothesis, stated once for every row that assumes it: its
    README cell, the scalars it appends to a row's parameters and their
    checks, its re-check (None: nothing to re-check), its sampler, and the
    draws that come before the row's own."""

    cell: str
    params: tuple[str, ...]
    checks: tuple[Callable, ...]
    require: Callable | None
    sample: Callable
    draws: tuple[tuple[str, Callable], ...]


def _under(hypothesis: _Hypothesis, params, checks, draws, factor, compare, cells, fixed=None):
    """The row of an inequality under ``hypothesis``, given its own exponent
    parameters, checks and draws, its factor and comparison, and its
    comparison and factor cells."""
    h = hypothesis
    return _Inequality(
        params + h.params, checks + h.checks, h.require, factor, compare, h.draws + draws,
        h.sample, (h.cell, *cells), fixed or {},
    )


_SANDWICH = _Hypothesis(
    "sandwich", ("s", "t"), (_sandwich,), _require_olson_sandwich, _sandwich_sample,
    _PD_RANGE + (
        ("s", lambda rng, d, n: rng.uniform(0.4, 1.0)),
        ("t", lambda rng, d, n: d["s"] * (1.0 + rng.uniform(0.0, 3.0))),
    ),
)
_POWER_SANDWICH = _Hypothesis(
    "power sandwich", ("s", "t"), (_sandwich,), _require_olson_sandwich, _olson_sandwich_sample,
    _PD_RANGE,
)
_EXP_OLSON = _Hypothesis(
    "exp-Olson", ("s", "t"), (_finite_s_t, _s_le_t), _require_exponential_olson,
    _exp_olson_sample, _HERMITIAN_RANGE,
)
_BOUNDED_A = _Hypothesis(
    "bounded `A`", ("m", "M", "h", "rows"), (_positive_m, _bounds), _require_compression,
    lambda cfg, i, d: (random_pd(cfg, i), random_isometry(cfg, d["rows"], i), {}),
    # the isometry's row count: an int, derived, never pinned
    _PD_RANGE + (("rows", lambda rng, d, n: int(rng.integers(1, n + 1))),),
)
_BOUNDED = _Hypothesis(
    "bounded", ("m", "M", "h"), (_positive_m, _bounds), _require_bounded, _pd_pair_sample,
    _PD_RANGE,
)
_BOUNDED_SPECTRA = _Hypothesis(
    "bounded spectra", ("m", "M"), (_bounds,), _require_bounded_hk, _bounded_sample,
    _HERMITIAN_RANGE,
)
_CHAIN = _Hypothesis(
    "chain", ("m", "M", "h"), (_positive_m, _bounds, _chain_top), _require_chain, _chain_sample,
    (
        ("M", lambda rng, d, n: rng.uniform(0.35, 1.0)),
        ("m", lambda rng, d, n: d["M"] * rng.uniform(0.15, 0.8)),
    ),
)
_EXP_CHAIN = _Hypothesis(
    "exp-chain", ("m", "M"), (_bounds, _exp_chain_top), _require_exponential_chain,
    _exp_chain_sample, (
        ("M", lambda rng, d, n: -rng.uniform(0.0, 0.8)),
        ("m", lambda rng, d, n: d["M"] - rng.uniform(0.3, 2.0)),
    ),
)
_POSITIVE_PAIR = _Hypothesis("positive pair", (), (), None, _pd_pair_sample, _PD_RANGE)
_HERMITIAN_PAIR = _Hypothesis("Hermitian pair", (), (), None, _bounded_sample, _HERMITIAN_RANGE)


def _specht_exp_factor(v: dict) -> float:
    p = v["p"]
    ratio = max(specht(_exp(v["s"] * p, "s*p")), specht(_exp(v["t"] * p, "t*p")))
    return errors._in_range(lambda: ratio ** (1.0 / p), "S^(1/p) = {}^(1/{})", ratio, p)


def _kantorovich_exp_factor(v: dict) -> float:
    p = v["p"]
    k = kantorovich(_exp(p * (v["t"] - v["s"]), "p(t-s)"), v["alpha"])
    return errors._in_range(lambda: k ** (-1.0 / p), "K^(-1/p) = {}^(-1/{})", k, p)


def _specht_of_powers(v: dict, name: str) -> float:
    """max(S(s^e), S(t^e)) at the exponent e = v[name]."""
    what, e = "{}^{} = {:g}^{:g}", v[name]
    return max(specht(errors._in_range(lambda: v[x] ** e, what, x, name, v[x], e)) for x in "st")


def _cosh_factor(v: dict) -> float:
    """cosh(M - m) as (e^{2M} + e^{2m}) / (2 e^M e^m)."""
    m, M = v["m"], v["M"]
    return (_exp(2.0 * M, "2M") + _exp(2.0 * m, "2m")) / (2.0 * _exp(M + m, "M+m"))


#: A corollary row's reduction to its parent's hypothesis: (its own
#: hypothesis, (m, M) -> (s, t), text of s and t).
_RATIO = (_BOUNDED, _ratio_reduction, "`s = m/M`, `t = M/m`")
_DIFFERENCE = (_BOUNDED_SPECTRA, _difference_reduction, "`s = m - M`, `t = M - m`")


def _corollary(parent: str, reduction: tuple, params, checks, draws) -> _Inequality:
    """The row ``parent`` at the scalars (s, t) that ``reduction`` derives from
    [m, M]: the parent's factor there and its comparison, under the
    reduction's hypothesis, with the corollary's own params, checks and draws."""
    row = _INEQUALITIES[parent]
    hypothesis, reduce, scalars = reduction

    def factor(v: dict) -> float:
        s, t = reduce(v["m"], v["M"])
        return row.factor({**v, "s": s, "t": t})

    cells = (f"same as `{parent}`", f"`{parent}` at {scalars}")
    return _under(hypothesis, params, checks, draws, factor, row.compare, cells)


_SQUARED = {"alpha": 0.5, "p": 2.0}

_INEQUALITIES = {
    # Specht ratio: sandwich s*A <= B <= t*A, power-monotone for exponents >= 1
    "specht-power-low": _under(
        _SANDWICH, ("alpha", "r"), (_alpha, _low_r), _ALPHA + _LOW_R, compare=_POWER_LOW,
        factor=lambda v: max(specht(v["s"]), specht(v["t"])) ** v["r"],
        cells=("Loewner, `(A #_a B)^r` vs mean of powers, `0 < r <= 1`", "`max(S(s), S(t))^r`"),
    ),
    "specht-eigen-power": _under(
        _POWER_SANDWICH, ("alpha", "r"), (_alpha, _high_r), _ALPHA + _HIGH_R,
        factor=lambda v: _specht_of_powers(v, "r"),
        compare=_EIGEN_POWER, cells=("eigenvalues, `r >= 1`", "`max(S(s^r), S(t^r))`"),
    ),
    "specht-pq": _under(
        _POWER_SANDWICH, ("alpha", "q", "p"), (_alpha, _q_le_p), _QP + _ALPHA, compare=_PQ,
        factor=lambda v: _specht_of_powers(v, "p") ** (1.0 / v["p"]),
        cells=("eigenvalues, two exponents `0 < q <= p`", "`max(S(s^p), S(t^p))^(1/p)`"),
    ),
    # Golden-Thompson reverses with the Specht ratio
    "gt-specht": _under(
        _EXP_OLSON, ("alpha", "p"), (_alpha, _positive_p), _ALPHA + _GT_P, compare=_GT_EIGEN,
        factor=_specht_exp_factor, cells=(
            "eigenvalues of `e^{(1-a)H + aK}` vs mean-power", "`max(S(e^{sp}), S(e^{tp}))^(1/p)`",
        ),
    ),
    "gt-specht-norm": _under(
        _EXP_OLSON, ("alpha", "p"), (_alpha, _positive_p), _ALPHA + _GT_P, compare=_GT_NORM,
        factor=_specht_exp_factor, cells=("Ky Fan + Schatten norms", "same as `gt-specht`"),
    ),
    "gt-specht-norm-squared": _under(
        _EXP_OLSON, ("alpha", "p"), (), (), fixed=_SQUARED,
        factor=lambda v: max(specht(_exp(2.0 * v["s"], "2s")), specht(_exp(2.0 * v["t"], "2t"))),
        compare=_SQUARED_NORM,
        cells=("norm of `e^{H+K}` vs `e^{2H} # e^{2K}`", "`max(S(e^{2s}), S(e^{2t}))`"),
    ),
    # Kantorovich constant
    "kantorovich-matrix": _under(
        _BOUNDED_A, (), (), (),
        factor=lambda v: (v["m"] + v["M"]) ** 2
        / errors._in_range(lambda: 4.0 * v["m"] * v["M"], "4mM = 4*{:g}*{:g}", v["m"], v["M"]),
        compare=_COMPRESSION, cells=("Loewner, inverse under a compression", "`(m+M)^2 / 4mM`"),
    ),
    "gt-kantorovich": _under(
        _EXP_OLSON, ("alpha", "p"), (_alpha, _positive_p), _ALPHA + _GT_P, compare=_GT_EIGEN,
        factor=_kantorovich_exp_factor, cells=("eigenvalues", "`K(e^{p(t-s)}, a)^(-1/p)`"),
    ),
    "gt-kantorovich-squared": _under(
        _BOUNDED_SPECTRA, ("alpha", "p"), (), (), fixed=_SQUARED, factor=_cosh_factor,
        compare=_SQUARED_EIGEN,
        cells=("eigenvalues of `e^{H+K}` vs `e^{2H} # e^{2K}`", "`cosh(M - m)`"),
    ),
    # Exponential difference factor: ordered chain m*I <= A <= B <= M*I <= I
    "fm-power-low": _under(
        _CHAIN, ("alpha", "r"), (_alpha, _low_r), _ALPHA + _LOW_R,
        factor=lambda v: fm_factor(v["h"], v["alpha"], v["r"]),
        compare=_POWER_LOW, cells=("Loewner, `0 < r <= 1`", "difference factor"),
    ),
    "fm-eigen-power": _under(
        _CHAIN, ("alpha", "r"), (_alpha, _high_r), _HIGH_R + _ALPHA,
        factor=lambda v: fm_factor(v["h"] ** v["r"], v["alpha"], 1.0),
        compare=_EIGEN_POWER, cells=("eigenvalues, `r >= 1`", "difference factor"),
    ),
    "fm-pq": _under(
        _CHAIN, ("alpha", "q", "p"), (_alpha, _q_le_p), _QP + _ALPHA,
        factor=lambda v: fm_factor(v["h"] ** v["p"], v["alpha"], 1.0 / v["p"]),
        compare=_PQ, cells=("eigenvalues, `0 < q <= p`", "difference factor"),
    ),
    "gt-fm": _under(
        _EXP_CHAIN, ("alpha", "p"), (_alpha, _positive_p), _GT_P + _ALPHA,
        factor=lambda v: fm_factor(
            _exp(v["p"] * (v["M"] - v["m"]), "p(M-m)"), v["alpha"], 1.0 / v["p"]
        ),
        compare=_GT_EIGEN, cells=("eigenvalues", "difference factor"),
    ),
}
# The paper's bounded-spectrum corollaries, which read their parents' rows above
_INEQUALITIES |= {
    "bounded-power-low": _corollary(
        "specht-power-low", _RATIO, ("alpha", "r"), (_alpha, _low_r), _ALPHA + _LOW_R,
    ),
    "bounded-eigen-power": _corollary(
        "specht-eigen-power", _RATIO, ("alpha", "r"), (_alpha, _high_r), _ALPHA + _HIGH_R,
    ),
    "bounded-pq": _corollary(
        "specht-pq", _RATIO, ("alpha", "q", "p"), (_alpha, _q_le_p), _ALPHA + _QP,
    ),
    "gt-bounded-specht": _corollary(
        "gt-specht", _DIFFERENCE, ("alpha", "p"), (_alpha, _positive_p), _ALPHA + _GT_P,
    ),
    "gt-kantorovich-bounded": _corollary(
        "gt-kantorovich", _DIFFERENCE, ("alpha", "p"), (_alpha, _positive_p), _ALPHA + _GT_P,
    ),
    # Forward baselines: no hypothesis, no factor
    "forward-ando-hiai": _under(
        _POSITIVE_PAIR, ("alpha", "r"), (_alpha, _high_r), _ALPHA + _HIGH_R,
        factor=None, compare=_LOG_MAJORIZATION, cells=("log-majorization, `r >= 1`", "1"),
    ),
    "forward-gt-trace": _under(
        _HERMITIAN_PAIR, (), (), (), factor=None, compare=_TRACE, cells=("trace", "1"),
    ),
    "forward-mean-norm": _under(
        _HERMITIAN_PAIR, ("alpha", "p"), (_alpha, _positive_p), _ALPHA + _GT_P, factor=None,
        compare=_FORWARD_NORM,
        cells=("unitarily invariant norms", "1"),
    ),
}

#: Every name some row draws and a caller may pin, in first-drawn order.
PIN_NAMES = tuple(dict.fromkeys(name for ident in _INEQUALITIES for name in _pinnable(ident)))


def _row(inequality_id: str) -> _Inequality:
    """The table row of ``inequality_id``; BadRangeError for an unknown id."""
    if not isinstance(inequality_id, str) or inequality_id not in _INEQUALITIES:
        raise BadRangeError(
            f"unknown inequality id {inequality_id!r}; known ids: {', '.join(INEQUALITY_IDS)}"
        )
    return _INEQUALITIES[inequality_id]


def certify_inequality(
    inequality_id: str,
    x,
    y,
    /,
    **params,
) -> InequalityReport:
    """Certify one instance of ``inequality_id`` (an id of INEQUALITY_IDS):
    check the parameters, re-verify the hypothesis, build the factor and
    both sides, and report the margins.

    ``x`` and ``y`` are the operands: A and B, H and K, or, for
    kantorovich-matrix, A and the row-orthonormal U (U is not part of the
    digest).  ``params`` are exactly the row's parameters less those it
    fixes (alpha and p of the -squared ids) and the derived h = M/m and
    rows.  BadRangeError names an unknown id, a given name the row does not
    take, fixes or derives, and a missing name; TypeError names an operand
    that is not a HermitianMatrix (U excepted).  The report holds when every
    relative margin is at least -1e-9, a fixed threshold.
    """
    values, head = _opened(inequality_id, x, y, params)
    compare = _INEQUALITIES[inequality_id].compare
    with errors._overflow_named("{}: a value", inequality_id):
        first = compare.first(x, y, values)
        second = compare.second(x, y, values)
    return _report(inequality_id, values, head, first, second)


def _opened(inequality_id: str, x, y, params: dict) -> tuple[dict, tuple[int, str]]:
    """The first steps of ``certify_inequality``: check the operands and
    the parameter names, take each given parameter as a float by
    ``errors._real`` and run the row's checks, check that each is finite,
    re-verify the hypothesis, derive h and rows and build the factor.
    Returns the row's parameter dict, which both sides read, and the
    report's head: n and the input digest of the parameters and the
    operands (U excepted)."""
    spec = _row(inequality_id)
    operands = (x,) if "rows" in spec.params else (x, y)
    for label, operand in zip("xy", operands):
        if not isinstance(operand, HermitianMatrix):
            raise TypeError(
                f"{inequality_id}: operand {label} must be a HermitianMatrix, "
                f"got {type(operand).__name__}"
            )
    fixed = sorted(set(params) & set(spec.fixed))
    derived = sorted(set(params) & set(_DERIVED))
    unknown = sorted(set(params) - set(spec.taken) - set(spec.fixed) - set(_DERIVED))
    missing = [name for name in spec.taken if name not in params]
    for names, fault in (
        (unknown, "takes no parameter"), (fixed, "fixes"), (derived, "derives"), (missing, "needs"),
    ):
        if names:
            raise BadRangeError(
                f"{inequality_id} {fault} {', '.join(names)}; "
                f"it takes {', '.join(spec.taken) or 'no parameters'}"
            )
    values = dict.fromkeys(spec.params)
    values.update(spec.fixed, **_checked(spec.checks, **{n: params[n] for n in spec.taken}))
    for name in spec.taken:
        if not math.isfinite(values[name]):
            raise BadRangeError(f"{name} must be finite, got {values[name]}")
    with errors._overflow_named("{}: a value", inequality_id):
        if spec.require is not None:
            spec.require(x, y, values)
        if "h" in values:
            values["h"] = values["M"] / values["m"]
        if "rows" in values:
            values["rows"] = float(np.shape(y)[0])
        if spec.factor is not None:
            what = inequality_id + " factor"
            values["factor"] = errors._in_range(lambda: spec.factor(values), what)
    return values, (x.dim, _digest(values, *operands))


def _report(inequality_id: str, values: dict, head: tuple, first, second) -> InequalityReport:
    """The last step of ``certify_inequality``: combine the two sides into
    the report, under the head (n, input digest) that ``_opened`` fixed."""
    with errors._overflow_named("{}: a value", inequality_id):
        compared = _INEQUALITIES[inequality_id].compare.combine(first, second, values)
    semantics, labels, lhs, rhs, rel = compared
    lhs, rhs, rel = (tuple(float(val) for val in seq) for seq in (lhs, rhs, rel))
    parameters = {k: float(v) for k, v in values.items()}
    return InequalityReport(
        inequality_id=inequality_id,
        parameters=parameters,
        lhs_values=lhs,
        rhs_values=rhs,
        margins=tuple(r - l for l, r in zip(lhs, rhs)),
        relative_margins=rel,
        holds=bool(min(rel) >= -_TOLERANCE),
        tolerance=_TOLERANCE,
        semantics=semantics,
        labels=tuple(labels),
        n=head[0],
        mode="n/a",
        input_digest=head[1],
    )


# ---------------------------------------------------------------------------
# Constant-comparison experiments
# ---------------------------------------------------------------------------


def compare_constants_remark(alpha: float, p: float, h: float) -> tuple[float, float, float]:
    """Kantorovich-route factor minus exponential-route factor at (alpha, p, h).

    Returns (K(h^{2p}, alpha)^{-1/p}, exp((1/p) alpha(1-alpha)(1-1/h^p)^2),
    difference).  The sign varies with h — neither reverse bound dominates.
    The exponential-route factor is the fm-pq row's."""
    v = _checked((_alpha, _positive_p, _high_h), alpha=alpha, p=p, h=h)
    alpha, p, h = v.values()
    h_2p = errors._in_range(lambda: h ** (2.0 * p), "h^(2p) = {:g}^{:g}", h, 2.0 * p)
    k = kantorovich(h_2p, alpha)
    kant_side = errors._in_range(lambda: k ** (-1.0 / p), "K^(-1/p) = {}^(-1/{})", k, p)
    fm_side = _INEQUALITIES["fm-pq"].factor(v)
    return kant_side, fm_side, kant_side - fm_side


def compare_specht_vs_fm(alpha: float, r: float, h: float) -> tuple[float, float, float]:
    """Specht-route factor minus exponential-route factor for the low-power
    comparison: (S(h)^r, exp(r alpha(1-alpha)(1-1/h)^2), difference), the
    latter the fm-power-low row's factor."""
    v = _checked((_alpha, _low_r, _high_h), alpha=alpha, r=r, h=h)
    specht_side = specht(v["h"]) ** v["r"]
    fm_side = _INEQUALITIES["fm-power-low"].factor(v)
    return specht_side, fm_side, specht_side - fm_side


_SIGN_SCAN_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)
_SIGN_SCAN_POWERS = (0.1, 0.3, 0.5, 0.8, 1.0)
_SIGN_SCAN_RATIOS = (1.1, 1.5, 2.0, 4.0, 8.0, 16.0)


def specht_fm_sign_scan() -> dict:
    """Scan (alpha, r, h) over a fixed grid for both signs of the
    Specht-vs-exponential gap.

    Returns {'positive': (alpha, r, h, diff) | None, 'negative': ...}; both
    present witnesses that neither constant dominates the other."""
    positive = negative = None
    for alpha in _SIGN_SCAN_ALPHAS:
        for r in _SIGN_SCAN_POWERS:
            for h in _SIGN_SCAN_RATIOS:
                _, _, diff = compare_specht_vs_fm(alpha, r, h)
                if diff > 0.0 and (positive is None or diff > positive[3]):
                    positive = (alpha, r, h, diff)
                if diff < 0.0 and (negative is None or diff < negative[3]):
                    negative = (alpha, r, h, diff)
    return {"positive": positive, "negative": negative}


def compare_seo_constants(
    alpha: float, p: float, m: float, M: float
) -> tuple[float, float, float]:
    """Sharper single constant vs the two-factor product bound, 0 < p <= 1.

    Returns (K(e^{2p(M-m)}, alpha)^{-1/p},
             K(e^{M-m}, p)^{-alpha/p} * K(e^{2p(M-m)}, alpha)^{-1/p},
             ratio), where ratio <= 1 certifies that the single constant is
    never worse than the product.  The single constant is the factor of the
    gt-kantorovich-bounded row."""
    v = _checked((_alpha, _low_p, _bounds), alpha=alpha, p=p, m=m, M=M)
    alpha, p, m, M = v.values()
    new_constant = _INEQUALITIES["gt-kantorovich-bounded"].factor(v)
    k = kantorovich(_exp(M - m, "M-m"), p)
    product = errors._in_range(lambda: k ** (-alpha / p) * new_constant, "the product bound")
    return new_constant, product, new_constant / product


@dataclass(frozen=True)
class ConvergenceRow:
    """One (p, k) cell of a convergence table: factor-adjusted RHS vs LHS."""

    p: float
    k: int
    lhs: float
    rhs: float
    gap: float


def convergence_study(
    h: HermitianMatrix,
    k: HermitianMatrix,
    s: float,
    t: float,
    alpha: float,
    p_sequence,
    factor_kind: str = "specht",
) -> list[ConvergenceRow]:
    """Track the reverse bound's RHS collapsing onto the LHS as p decreases.

    For each p in the strictly decreasing positive sequence, the rows hold
    lambda_k of the mean-power side scaled by the chosen factor ("specht" ->
    (max{S(e^{sp}), S(e^{tp})})^{1/p}, "kantorovich" -> K(e^{p(t-s)},
    alpha)^{-1/p}) against the fixed lambda_k(e^{(1-alpha)H + alpha K}), with
    gap = (rhs - lhs)/lhs.

    The p sequence is split into contiguous blocks over the sweep workers
    that ``run_instances`` uses, the smallest block last, for this process,
    which computes the lhs before it.  A block's job computes, at each of
    its p in order, the factor and then the scaled mean-power side, so the
    rows, and the error raised, are those of one loop over p: the lhs's
    error first, then at each p in order the factor's before the mean-power
    side's.  With one CPU (``_cpus``: also while ``linalg._jacobi`` is a
    caller's wrapper) or one p, the table runs in this process.  A caller
    who replaces ``mean_power`` and wants it to see every p wraps
    ``linalg._jacobi`` too, or narrows this process to one CPU."""
    alpha, s, t = _checked((_alpha, _finite_s_t, _s_le_t), alpha=alpha, s=s, t=t).values()
    ps = _check_decreasing_positive(p_sequence, "p_sequence")
    if factor_kind not in ("specht", "kantorovich"):
        raise BadRangeError(
            f"factor_kind must be 'specht' or 'kantorovich', got {factor_kind!r}"
        )
    table = h, k, alpha, s, t, factor_kind
    *theirs, mine = [[(_scaled_spectra, (*table, ps[b.start:b.stop]))] for b in _blocks(len(ps))]
    *outcomes, lhs, last = _pool.run(theirs, [(log_euclidean, (h, k, alpha)), *mine])
    if isinstance(lhs, Exception):
        raise lhs
    lhs = lhs.eigenvalues
    rows = []
    for p, rhs in _joined([*outcomes, last]):
        for index, (left, right) in enumerate(zip(lhs, rhs), start=1):
            gap = float((right - left) / left)
            rows.append(ConvergenceRow(p, index, float(left), float(right), gap))
    return rows


def _scaled_spectra(h, k, alpha: float, s: float, t: float, factor_kind: str, ps) -> list:
    """(p, the gt-``factor_kind`` factor at p times the eigenvalues of
    ``mean_power(h, k, alpha, p)``) for each p, in order: at each p the
    factor is evaluated before the mean power."""
    factor, v = _INEQUALITIES[f"gt-{factor_kind}"].factor, {"alpha": alpha, "s": s, "t": t}
    return [(p, factor({**v, "p": p}) * mean_power(h, k, alpha, p).eigenvalues) for p in ps]


# ---------------------------------------------------------------------------
# Seeded instance recipes and the soundness-sweep driver
# ---------------------------------------------------------------------------


def _draw(inequality_id, index, seed, n, mode, ov) -> tuple:
    """Draw one instance's free parameters from its params stream (seed,
    index, params tag) in its row's order and sample its operands: the
    operands and the parameters ``certify_inequality`` takes.

    Every entry draws, pinned or not, so a pin moves no other draw; the pin
    in ``ov``, if any, then takes the drawn value's place, and the later
    entries read it."""
    spec = _INEQUALITIES[inequality_id]
    rng = philox_generator(seed, index, TAG_PARAMS)
    drawn = {}
    for name, draw in spec.draws:
        value = draw(rng, drawn, n)
        drawn[name] = ov.get(name, value)
    cfg = SamplerConfig(n, seed, drawn["m"], drawn["M"], mode)
    x, y, sampled = spec.sample(cfg, index, drawn)
    drawn.update(sampled)
    return x, y, {name: drawn[name] for name in spec.taken}


def _recipe(inequality_id, index, seed, n, mode, ov):
    """Draw one seeded instance (``_draw``) and certify it."""
    x, y, given = _draw(inequality_id, index, seed, n, mode, ov)
    return certify_inequality(inequality_id, x, y, **given)


RECIPES = {ident: functools.partial(_recipe, ident) for ident in _INEQUALITIES}

INEQUALITY_IDS = tuple(sorted(RECIPES))


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a seeded soundness sweep over one inequality."""

    inequality_id: str
    seed: int
    count: int
    reports: tuple[InequalityReport, ...]
    violation_indices: tuple[int, ...]
    elapsed_seconds: float

    @property
    def all_hold(self) -> bool:
        return not self.violation_indices

    def summary(self) -> str:
        status = "ok" if self.all_hold else f"{len(self.violation_indices)} VIOLATIONS"
        return (
            f"{self.inequality_id}: {self.count} instances, seed {self.seed}, "
            f"{status}, {self.elapsed_seconds:.2f}s"
        )


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the os module has no fork
    or no sched_getaffinity, and while ``linalg._jacobi`` is a caller's
    wrapper (``linalg._own_solver``), which then sees every solve here."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and linalg._own_solver()):
        return 1
    return len(os.sched_getaffinity(0))


def _blocks(count: int, k: int | None = None) -> list[range]:
    """``range(count)`` in ``k`` contiguous blocks as even as can be, the
    larger first; by default one per CPU, at most ``count``.  The last
    block, the smallest, is this process's, which has the rest of the
    work."""
    k = k or min(count, _cpus())
    bounds = [-(-count * j // k) for j in range(k + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _sweep_blocks(count: int) -> list[range]:
    """The blocks of a sweep of ``count`` instances, which ``run_instances``
    certifies whole, one per process.  With k = min(CPUs, max(count, 2))
    processes and count = q k + 1, every process gets q instances, and the
    last instance, in no block, is certified in two of them; otherwise they
    are ``_blocks(count)``.  The split pays where one instance is left over:
    with two or more, the processes that certify one of them whole would
    still finish last.  A sweep of one instance (q = 0) is split only while
    the workers run: forking one for a side alone costs more than the side
    saves at n = 16 (x1.055 over 105 pairs), while with the workers running
    the split pays (x0.816 over 210; ``BENCH_round_robin.json``)."""
    k = min(_cpus(), max(count, 2))
    if k > 1 and count % k == 1 and (count > 1 or _pool.running()):
        return _blocks(count - 1, k)
    return _blocks(count)


def _dimension_and_mode(index: int, n: int | None, mode: str | None) -> tuple[int, str]:
    """The dimension and sampler mode of instance ``index`` of a sweep: n
    and mode if pinned, else the 2..6 cycle and alternating modes."""
    use_n = n if n is not None else N_CYCLE[index % len(N_CYCLE)]
    use_mode = mode if mode is not None else (MODE_COMMUTING, MODE_GENERAL)[index % 2]
    return use_n, use_mode


def _certify_block(
    inequality_id: str, seed: int, n: int | None, mode: str | None, pins: dict, block: range
) -> list[InequalityReport]:
    """The reports of the instances in ``block`` of one sweep, in order."""
    recipe = RECIPES[inequality_id]
    reports = []
    for index in block:
        use_n, use_mode = _dimension_and_mode(index, n, mode)
        report = recipe(index=index, seed=seed, n=use_n, mode=use_mode, ov=pins)
        reports.append(dataclasses.replace(report, mode=use_mode))
    return reports


def _side(
    k: int, inequality_id: str, seed: int, n: int | None, mode: str | None, pins: dict, index: int
) -> tuple:
    """Instance ``index`` of one sweep drawn and opened, and its side ``k``
    built (0 the first, 1 the second): the parameter dict, the report's
    head and the side.  A job is given the sweep and the index, not the
    operands, so that every request to a worker is small."""
    use_n, use_mode = _dimension_and_mode(index, n, mode)
    x, y, given = _draw(inequality_id, index, seed, use_n, use_mode, pins)
    values, head = _opened(inequality_id, x, y, given)
    compare = _INEQUALITIES[inequality_id].compare
    with errors._overflow_named("{}: a value", inequality_id):
        return values, head, (compare.first, compare.second)[k](x, y, values)


def _sweep_outcomes(sweep: tuple, blocks: list[range], count: int) -> list:
    """The outcomes of a sweep's ``blocks``, in order, then, if an instance
    is left over after them, its report in a list or the error that
    certifying it in one process raises.  The last block runs in this
    process, each other in a worker of its own (``_pool.run``)."""
    *theirs, mine = [[(_certify_block, (*sweep, block))] for block in blocks]
    index = blocks[-1].stop
    if index == count:
        return _pool.run(theirs, mine)
    # the leftover instance: its first side in the first worker, ahead of
    # its block, and its second here, ahead of this process's block
    theirs[0].insert(0, (_side, (0, *sweep, index)))
    first, *outcomes, second, last = _pool.run(theirs, [(_side, (1, *sweep, index)), *mine])
    outcomes.append(last)
    # opening is deterministic, so the first error of the two is the one of
    # one process: opening, then the first side, then the second
    fault = next((side for side in (first, second) if isinstance(side, Exception)), None)
    if fault is not None:
        return [*outcomes, fault]
    inequality_id, _, n, mode, _ = sweep
    values, head, side = second
    try:
        report = _report(inequality_id, values, head, first[2], side)
    except Exception as exc:
        return [*outcomes, exc]
    return [*outcomes, [dataclasses.replace(report, mode=_dimension_and_mode(index, n, mode)[1])]]


def _joined(outcomes) -> list:
    """The lists among ``outcomes`` concatenated in order, up to the first
    exception, which is raised: the error of one loop over the blocks."""
    joined = []
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        joined += outcome
    return joined


def run_instances(
    inequality_id: str,
    count: int = 200,
    seed: int = 0,
    n: int | None = None,
    mode: str | None = None,
    param_overrides: dict | None = None,
) -> SweepResult:
    """Certify ``count`` seeded instances of one inequality.

    Instance i draws its free parameters from the Philox stream (seed, i,
    params tag); the dimension cycles through 2..6 unless pinned by ``n``,
    and the sampler alternates general/commuting pairs unless ``mode`` pins
    one.  ``param_overrides`` pins drawn parameters: a pin takes the place
    of its name's draw, which still runs, so it moves no other draw but
    those that read it (M from m, p from q, t from s, and m from M on the
    chain rows).  Pinning a name the id does not draw raises BadRangeError.
    Reports come back in instance order, bit-reproducible per seed.

    The instances are certified in blocks, one per CPU this process may run
    on, and one left over from even blocks as two sides in two processes,
    each by the job ``_side``, which opens it and so carries the report's
    head (``_sweep_blocks``, ``_sweep_outcomes``).  The reports are byte for
    byte those of one process, and an error is the one the lowest failing
    instance raises, with its class and message (for a split instance, the
    one ``certify_inequality`` raises).  With one CPU (``_cpus``: also where
    the os module has no fork or no sched_getaffinity, and while
    ``linalg._jacobi`` is a caller's wrapper, which then sees every solve),
    every instance is certified here.  A caller who replaces a ``RECIPES``
    entry and wants it to see every instance wraps ``linalg._jacobi`` too,
    or narrows this process to one CPU.
    """
    _row(inequality_id)
    seed = _checked_seed(seed)
    count = _integer(count, "count")
    if count < 1:
        raise BadRangeError(f"count must be >= 1, got {count}")
    n = None if n is None else _integer(n, "n")
    if n is not None and n < 1:
        raise BadRangeError(f"n must be >= 1, got {n}")
    if mode is not None and mode not in (MODE_GENERAL, MODE_COMMUTING):
        raise BadRangeError(f"mode must be None, 'general' or 'commuting', got {mode!r}")
    overrides = param_overrides or {}
    if not isinstance(overrides, dict):
        raise BadRangeError(f"param_overrides must be a dict, got {overrides!r}")
    pinnable = _pinnable(inequality_id)
    ignored = sorted(set(overrides) - set(pinnable))
    if ignored:
        raise BadRangeError(
            f"{inequality_id} does not draw {', '.join(ignored)}, so it cannot be pinned; "
            f"pinnable: {', '.join(pinnable) or 'none'}"
        )
    pins = {name: _real(value, f"pinned {name}") for name, value in overrides.items()}
    for name, value in pins.items():
        if not math.isfinite(value):
            raise BadRangeError(f"pinned {name} must be finite, got {value}")

    started = time.perf_counter()
    sweep = (inequality_id, seed, n, mode, pins)
    reports = _joined(_sweep_outcomes(sweep, _sweep_blocks(count), count))
    elapsed = time.perf_counter() - started
    violations = tuple(i for i, rep in enumerate(reports) if not rep.holds)
    return SweepResult(
        inequality_id=inequality_id,
        seed=seed,
        count=count,
        reports=tuple(reports),
        violation_indices=violations,
        elapsed_seconds=elapsed,
    )
