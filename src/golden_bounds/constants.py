"""Scalar constants entering the reverse spectral inequalities.

Three families: the Specht ratio, the generalized Kantorovich constant, and
the exponential difference factor that reverses the mean comparison for
ordered pairs. Each evaluator picks an explicit branch (direct formula,
series around a removable point, or analytic limit) and can report which
one fired.  A value, or a power inside one, that leaves double range is a
BadRangeError naming it, from the range gate ``errors._in_range``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import BadRangeError, EmptySequenceError, NonPositiveError, _in_range, _real, _reals

BRANCH_DIRECT = "direct"
BRANCH_SERIES = "series"
BRANCH_LIMIT = "limit"

SPECHT_SERIES_WINDOW = 1e-6
KANTOROVICH_LIMIT_WINDOW = 1e-8

_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ConstantEval:
    """One constant evaluation with the branch that produced it."""

    name: str
    arguments: tuple[float, ...]
    value: float
    branch: str

    def __post_init__(self):
        if not self.value > 0.0:
            raise NonPositiveError(f"{self.name}{self.arguments} evaluated to {self.value}")
        if self.branch not in (BRANCH_DIRECT, BRANCH_SERIES, BRANCH_LIMIT):
            raise BadRangeError(f"unknown branch {self.branch!r}")


def _require_finite(name: str, *arguments: float) -> None:
    if not all(math.isfinite(x) for x in arguments):
        raise BadRangeError(f"{name} needs finite arguments, got {arguments}")


def _specht_eval(t: float) -> tuple[float, str]:
    _require_finite("Specht ratio", t)
    if not t > 0.0:
        raise NonPositiveError(f"Specht ratio needs t > 0, got {t}")
    u = math.log(t)
    if abs(t - 1.0) < SPECHT_SERIES_WINDOW:
        # S(e^u) = 1 + u^2/8 + O(u^4); the quartic term is < 1e-26 here
        return 1.0 + u * u / 8.0, BRANCH_SERIES
    direct = _in_range(
        lambda: (t - 1.0) * math.exp(u / (t - 1.0)) / (math.e * u), "Specht ratio S({})", t
    )
    return direct, BRANCH_DIRECT


def specht(t: float) -> float:
    """Specht ratio S(t) = (t-1) t^{1/(t-1)} / (e log t), S(1) = 1.

    Symmetric under t -> 1/t and >= 1 with equality only at t = 1; it is the
    sharp constant in the reverse arithmetic-geometric mean inequality.
    A non-finite t, or a t whose S(t) leaves double range, raises
    BadRangeError.
    """
    return _specht_eval(_real(t, "t"))[0]


def _specht_p_root_eval(t: float, p: float) -> tuple[float, str]:
    _require_finite("Specht p-root", t, p)
    if not t > 0.0:
        raise NonPositiveError(f"Specht ratio needs t > 0, got {t}")
    if not p > 0.0:
        raise NonPositiveError(f"exponent p must be positive, got {p}")
    ratio, branch = _specht_eval(_in_range(lambda: t**p, "t^p = {:g}^{:g}", t, p))
    return _in_range(lambda: ratio ** (1.0 / p), "Specht p-root S({}^{})^(1/{})", t, p, p), branch


def specht_p_root(t: float, p: float) -> float:
    """S(t^p)^(1/p); tends to 1 as p -> 0."""
    return _specht_p_root_eval(_real(t, "t"), _real(p, "p"))[0]


def _kantorovich_eval(w: float, alpha: float) -> tuple[float, str]:
    _require_finite("Kantorovich constant", w, alpha)
    if not w > 0.0:
        raise NonPositiveError(f"Kantorovich constant needs w > 0, got {w}")
    if abs(w - 1.0) < KANTOROVICH_LIMIT_WINDOW:
        # K(w, .) is pinched between 2 w^{1/4}/(w^{1/2}+1) and 1, both
        # 1 + O((w-1)^2), so the limit value is exact to ~1e-17 here
        return 1.0, BRANCH_LIMIT
    near_zero = abs(alpha) < KANTOROVICH_LIMIT_WINDOW
    near_one = abs(alpha - 1.0) < KANTOROVICH_LIMIT_WINDOW
    if near_zero or near_one:
        # first-order expansion at the removable endpoints; K(w, a) is
        # symmetric under a -> 1-a, with slope c(w) = 1 - L + log L at a=0
        ell = math.log(w) / (w - 1.0)
        slope = 1.0 - ell + math.log(ell)
        beta = alpha if near_zero else 1.0 - alpha
        return 1.0 + beta * slope, BRANCH_LIMIT
    # K(w, a) = K(1/w, a); evaluating at w >= 1 keeps w^a - w from cancelling
    u = abs(math.log(w))
    what = "Kantorovich constant K({}, {})"
    return _in_range(lambda: _kantorovich_direct(u, alpha), what, w, alpha), BRANCH_DIRECT


def _kantorovich_direct(u: float, alpha: float) -> float:
    """K(e^u, alpha) by its closed form, for u = |log w|."""
    if u > _LOG_DOUBLE_MAX:
        # w < 1/DBL_MAX, where e^u overflows: the same formula with the
        # powers of e^u divided out of each factor, so only e^{-u} remains
        em1 = math.expm1((alpha - 1.0) * u)
        prefactor = em1 / ((alpha - 1.0) * -math.expm1(-u))
        base = (1.0 - alpha) / alpha * math.expm1(-alpha * u) / em1
        tail = math.exp(alpha * (alpha - 1.0) * u)
        return prefactor * math.pow(base, alpha) * tail
    w_minus_1 = math.expm1(u)
    wa_minus_1 = math.expm1(alpha * u)
    wa_minus_w = wa_minus_1 - w_minus_1
    prefactor = wa_minus_w / ((alpha - 1.0) * w_minus_1)
    base = (alpha - 1.0) / alpha * wa_minus_1 / wa_minus_w
    return prefactor * math.pow(base, alpha)


def kantorovich(w: float, alpha: float) -> float:
    """Generalized Kantorovich constant K(w, alpha).

    K(w, a) = ((w^a - w)/((a-1)(w-1))) * (((a-1)/a) (w^a - 1)/(w^a - w))^a
    with the removable points w = 1 and a in {0, 1} evaluated by their
    limits. K(w, a) <= 1 for a in [0, 1] and K(w, 2) = (1+w)^2/(4w).
    A non-finite w or alpha, or a (w, alpha) whose K leaves double range,
    raises BadRangeError.
    """
    return _kantorovich_eval(_real(w, "w"), _real(alpha, "alpha"))[0]


def kantorovich_lower_bound(w: float) -> float:
    """2 w^{1/4} / (w^{1/2} + 1), the floor of K(w, .) on alpha in [0, 1]."""
    w = _real(w, "w")
    _require_finite("Kantorovich lower bound", w)
    if not w > 0.0:
        raise NonPositiveError(f"lower bound needs w > 0, got {w}")
    return 2.0 * w**0.25 / (math.sqrt(w) + 1.0)


def _check_decreasing_positive(values, name: str) -> list[float]:
    """``values`` as floats, checked numbers, nonempty (EmptySequenceError),
    positive (NonPositiveError), finite and strictly decreasing (BadRangeError)."""
    seq = _reals(values, name)
    if not seq:
        raise EmptySequenceError(f"{name} must be nonempty")
    if any(not v > 0.0 for v in seq):
        raise NonPositiveError(f"{name} must be positive, got {seq}")
    if any(math.isinf(v) for v in seq):
        raise BadRangeError(f"{name} must be finite, got {seq}")
    if any(later >= earlier for earlier, later in zip(seq, seq[1:])):
        raise BadRangeError(f"{name} must be strictly decreasing, got {seq}")
    return seq


def kantorovich_limit_root(w: float, alpha: float, p_sequence) -> list[float]:
    """K(w^p, alpha)^(-1/p) along a decreasing positive sequence of p.

    The values tend to 1 as p -> 0, which is what collapses the reverse
    bound's constant in the small-exponent limit.
    """
    w, alpha = _real(w, "w"), _real(alpha, "alpha")
    ps = _check_decreasing_positive(p_sequence, "p_sequence")
    if w <= 0.0:  # a NaN goes on to kantorovich's finiteness check
        raise NonPositiveError(f"Kantorovich constant needs w > 0, got {w}")
    what = "Kantorovich limit root at w={}, alpha={}"
    return [_in_range(lambda: kantorovich(w**p, alpha) ** (-1.0 / p), what, w, alpha) for p in ps]


def fm_factor(h: float, alpha: float, scale: float) -> float:
    """exp(scale * alpha (1-alpha) (1 - 1/h)^2), the exponential remainder.

    The scale argument absorbs the exponent bookkeeping of the different
    statements (r for the low-power form, 1/p for the rooted forms).
    """
    h, alpha, scale = _real(h, "h"), _real(alpha, "alpha"), _real(scale, "scale")
    _require_finite("fm_factor", h, alpha, scale)
    if h < 1.0:
        raise BadRangeError(f"fm_factor needs h >= 1, got {h}")
    if not 0.0 <= alpha <= 1.0:
        raise BadRangeError(f"fm_factor needs alpha in [0, 1], got {alpha}")
    if not scale > 0.0:
        raise BadRangeError(f"fm_factor needs scale > 0, got {scale}")
    exponent = scale * alpha * (1.0 - alpha) * (1.0 - 1.0 / h) ** 2
    return _in_range(lambda: math.exp(exponent), "fm_factor({}, {}, {})", h, alpha, scale)


_EVALUATORS = {
    "specht": (_specht_eval, 1),
    "specht-p-root": (_specht_p_root_eval, 2),
    "kantorovich": (_kantorovich_eval, 2),
    "kantorovich-lower-bound": (lambda w: (kantorovich_lower_bound(w), BRANCH_DIRECT), 1),
    "fm": (lambda h, alpha, scale: (fm_factor(h, alpha, scale), BRANCH_DIRECT), 3),
}


def evaluate_constant(name: str, arguments) -> ConstantEval:
    """Evaluate a named constant and report the branch taken."""
    args = tuple(_reals(arguments, "arguments"))
    if name not in _EVALUATORS:
        raise BadRangeError(f"unknown constant {name!r}; choose from {sorted(_EVALUATORS)}")
    evaluator, arity = _EVALUATORS[name]
    if len(args) != arity:
        raise BadRangeError(f"{name} takes {arity} argument(s), got {len(args)}")
    value, branch = evaluator(*args)
    return ConstantEval(name=name, arguments=args, value=value, branch=branch)
