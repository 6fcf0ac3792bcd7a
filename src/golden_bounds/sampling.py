"""Seeded, counter-based generation of matrices satisfying order hypotheses.

Every draw is addressed by (seed, draw index, stream tag) through a Philox
counter-based generator, so outputs are bit-exact reproducible, independent of
draw order, and safely partitionable across workers.  Pair samplers construct
their hypothesis (sandwich, Olson sandwich, bounded spectrum, ordered chain);
a general-mode chain also tests its Olson middle on the exponent grid it is
given, by ``orders.olson_leq``, the certifiers' own Loewner test at each grid
exponent, to pick its perturbation size.  The certifiers re-verify the
hypothesis on every instance they are given.

Stream tags: a draw's primary eigenvalues (1), its eigenbasis (2), the
secondary operand's eigenvalues (3) and basis (4), and free parameters (5).
In commuting mode both operands of a pair use one tag-2 basis draw, so they
commute to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadRangeError, DimMismatchError, _integer, _real
from .linalg import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    _from_eigen,
    congruence,
    log_pd,
)
from .orders import _validated_grid, olson_leq

TAG_EIGENVALUES = 1
TAG_BASIS = 2
TAG_SECONDARY = 3
TAG_SECONDARY_BASIS = 4
TAG_PARAMS = 5

MODE_GENERAL = "general"
MODE_COMMUTING = "commuting"

_SEED_LIMIT = 2**64

#: Shrinking congruence-perturbation sizes tried when a perturbed ordered
#: chain must pass its Olson check; when every one fails, the exact
#: commuting construction is returned, so generation always succeeds.
_EPSILON_LADDER = (0.12, 0.05, 0.02, 0.005)


@dataclass(frozen=True)
class SamplerConfig:
    """Addressing and shape of one sampling stream.

    [lo, hi] bounds the spectra of primary draws: positive for positive
    definite targets, any reals for Hermitian targets.
    ``mode`` selects whether pair samplers share an eigenbasis (commuting) or
    draw independent bases (general).
    """

    dim: int
    seed: int
    lo: float
    hi: float
    mode: str = MODE_GENERAL

    def __post_init__(self):
        dim = _integer(self.dim, "dim")
        if dim < 1:
            raise BadRangeError(f"dim must be a positive integer, got {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        object.__setattr__(self, "lo", _real(self.lo, "lo"))
        object.__setattr__(self, "hi", _real(self.hi, "hi"))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise BadRangeError(f"spectral range must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise BadRangeError(f"spectral range is empty: [{self.lo}, {self.hi}]")
        if self.mode not in (MODE_GENERAL, MODE_COMMUTING):
            raise BadRangeError(f"mode must be 'general' or 'commuting', got {self.mode!r}")


def _checked_seed(seed) -> int:
    """``seed`` as a Python int, checked to be a 64-bit unsigned integer."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < _SEED_LIMIT:
        raise BadRangeError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def philox_generator(seed: int, index: int, tag: int) -> np.random.Generator:
    """Counter-based generator for stream (seed, index, tag).

    The 256-bit Philox counter is laid out as index * 2^128 + tag * 2^64, so
    distinct (index, tag) pairs can never collide and draws are independent
    of the order in which streams are opened.  Seed, index and tag are
    integers, Python or numpy; any other value raises BadRangeError.
    """
    seed = _checked_seed(seed)
    index, tag = _integer(index, "index"), _integer(tag, "tag")
    if index < 0 or tag < 0:
        raise BadRangeError(f"index and tag must be nonnegative, got ({index}, {tag})")
    counter = (index << 128) + (tag << 64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Gaussian matrix.

    The R-diagonal phases are divided out, which makes the QR factorization
    unique and the resulting distribution exactly Haar.
    """
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = d / np.abs(d)
    return q * phases.conj()


def random_isometry(cfg: SamplerConfig, rows: int, index: int = 0) -> np.ndarray:
    """rows x dim matrix U with U U* = I (rows of a Haar unitary)."""
    rows = _integer(rows, "rows")
    if not 1 <= rows <= cfg.dim:
        raise DimMismatchError(f"rows must lie in [1, {cfg.dim}], got {rows}")
    rng = philox_generator(cfg.seed, index, TAG_SECONDARY_BASIS)
    return haar_unitary(rng, cfg.dim)[:rows, :].copy()


def _draw_spectrum(cfg: SamplerConfig, index: int, values_tag: int) -> np.ndarray:
    rng = philox_generator(cfg.seed, index, values_tag)
    return rng.uniform(cfg.lo, cfg.hi, size=cfg.dim)


def _draw_basis(cfg: SamplerConfig, index: int, basis_tag: int) -> np.ndarray:
    rng = philox_generator(cfg.seed, index, basis_tag)
    return haar_unitary(rng, cfg.dim)


def _random_pair(cfg: SamplerConfig, index: int, positive: bool):
    """Spectra from tags 1 and 3, on one tag-2 basis draw in commuting mode
    and on the tag-2 and tag-4 bases in general mode."""
    basis = _draw_basis(cfg, index, TAG_BASIS)
    second = basis if cfg.mode == MODE_COMMUTING else _draw_basis(cfg, index, TAG_SECONDARY_BASIS)
    return tuple(
        _from_eigen(_draw_spectrum(cfg, index, values_tag), vecs, positive=positive)
        for values_tag, vecs in ((TAG_EIGENVALUES, basis), (TAG_SECONDARY, second))
    )


def _require_positive_range(cfg: SamplerConfig) -> None:
    if cfg.lo <= 0.0:
        raise BadRangeError(
            f"positive definite draws need a positive range, got [{cfg.lo}, {cfg.hi}]"
        )


def random_pd(cfg: SamplerConfig, index: int = 0) -> PositiveDefiniteMatrix:
    """V diag(u) V* with u uniform in [lo, hi] > 0 and V Haar unitary.

    This is the first operand of ``random_pd_pair``; in commuting mode the
    pair's second operand uses the same basis draw, so the two commute.
    """
    _require_positive_range(cfg)
    vals = _draw_spectrum(cfg, index, TAG_EIGENVALUES)
    return _from_eigen(vals, _draw_basis(cfg, index, TAG_BASIS), positive=True)


def random_bounded_hermitian(cfg: SamplerConfig, index: int = 0) -> HermitianMatrix:
    """Hermitian draw with spectrum inside [lo, hi] (any real bounds)."""
    vals = _draw_spectrum(cfg, index, TAG_EIGENVALUES)
    return _from_eigen(vals, _draw_basis(cfg, index, TAG_BASIS), positive=False)


def bounded_hermitian_pair(
    cfg: SamplerConfig, index: int = 0
) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Two Hermitian draws with spectra in [lo, hi]; commuting mode shares one basis draw."""
    return _random_pair(cfg, index, positive=False)


def random_pd_pair(
    cfg: SamplerConfig, index: int = 0
) -> tuple[PositiveDefiniteMatrix, PositiveDefiniteMatrix]:
    """Two positive definite draws with spectra in [lo, hi] > 0."""
    _require_positive_range(cfg)
    return _random_pair(cfg, index, positive=True)


def _ratio_reduction(m: float, M: float) -> tuple[float, float]:
    """(s, t) = (m/M, M/m): spectra in [m, M], m > 0, give s^v A^v <= B^v <= t^v A^v.
    BadRangeError if a ratio underflows to 0 or leaves double range."""
    s, t = m / M, M / m
    for value, ratio in ((s, f"m/M = {m:g}/{M:g}"), (t, f"M/m = {M:g}/{m:g}")):
        if not 0.0 < value < math.inf:
            fault = "exceeds double range" if value else "underflows to 0 in double precision"
            raise BadRangeError(f"{ratio} {fault}")
    return s, t


def _difference_reduction(m: float, M: float) -> tuple[float, float]:
    """(s, t) = (m - M, M - m): spectra in [m, M] give e^{vs} e^{vH} <= e^{vK} <= e^{vt} e^{vH}."""
    return m - M, M - m


@dataclass(frozen=True)
class SandwichSample:
    """Pair with s*A <= B <= t*A; from ``olson_sandwich_pair``, also the
    power-monotone sandwich s*A <=ols B <=ols t*A."""

    a: PositiveDefiniteMatrix
    b: PositiveDefiniteMatrix
    s: float
    t: float


def sandwich_pair(cfg: SamplerConfig, s: float, t: float, index: int = 0) -> SandwichSample:
    """Sample (A, B) with s*A <= B <= t*A for given 0 < s <= t.

    The coupling matrix C with spectrum in [s, t] is congruence-wrapped as
    B = A^{1/2} C A^{1/2}, so the sandwich holds exactly by construction.
    In commuting mode C shares A's eigenbasis and B is built spectrally.
    """
    s, t = _real(s, "s"), _real(t, "t")
    if not 0.0 < s <= t:
        raise BadRangeError(f"need 0 < s <= t, got s={s}, t={t}")
    a = random_pd(cfg, index)
    coupling_cfg = replace(cfg, lo=s, hi=t)
    coupling_vals = _draw_spectrum(coupling_cfg, index, TAG_SECONDARY)
    if cfg.mode == MODE_COMMUTING:
        basis = a.decomposition.eigenvectors
        b_vals = a.decomposition.eigenvalues * coupling_vals
        b = _from_eigen(b_vals, basis, positive=True)
    else:
        basis = _draw_basis(cfg, index, TAG_SECONDARY_BASIS)
        c = _from_eigen(coupling_vals, basis, positive=True)
        sqrt_a = a.decomposition.map_eigenvalues(np.sqrt(a.decomposition.eigenvalues))
        b = PositiveDefiniteMatrix(congruence(sqrt_a, c))
    return SandwichSample(a=a, b=b, s=s, t=t)


def olson_sandwich_pair(cfg: SamplerConfig, index: int = 0) -> SandwichSample:
    """Sample (A, B, s, t) with s*A <=ols B <=ols t*A, (s, t) = (lo/hi, hi/lo):
    general mode returns ``random_pd_pair``'s pair, whose spectra in [lo, hi]
    imply the relation, and commuting mode ``sandwich_pair``'s at s and t."""
    _require_positive_range(cfg)
    s, t = _ratio_reduction(cfg.lo, cfg.hi)
    if cfg.mode == MODE_COMMUTING:
        return sandwich_pair(cfg, s, t, index)
    a, b = random_pd_pair(cfg, index)
    return SandwichSample(a=a, b=b, s=s, t=t)


@dataclass(frozen=True)
class ExponentialOlsonSample:
    """Hermitian pair with e^s e^H <=ols e^K <=ols e^t e^H."""

    h: HermitianMatrix
    k: HermitianMatrix
    s: float
    t: float


def olson_exponential_pair(cfg: SamplerConfig, index: int = 0) -> ExponentialOlsonSample:
    """Sample Hermitian (H, K) with spectra in [m, M] = [cfg.lo, cfg.hi], so
    that e^{m-M} e^H <=ols e^K <=ols e^{M-m} e^H for any (even non-commuting)
    draw, with s = m - M and t = M - m, the difference reduction of [m, M]."""
    h, k = bounded_hermitian_pair(cfg, index)
    s, t = _difference_reduction(cfg.lo, cfg.hi)
    return ExponentialOlsonSample(h=h, k=k, s=s, t=t)


@dataclass(frozen=True)
class ChainSample:
    """Positive definite pair with m*I <= A <= B <= M*I <= I."""

    a: PositiveDefiniteMatrix
    b: PositiveDefiniteMatrix
    m: float
    M: float


def ordered_chain_pair(cfg: SamplerConfig, index: int = 0, *, grid) -> ChainSample:
    """Sample (A, B) with 0 < m*I <= A <= B <= M*I <= I.

    Commuting mode pairs sorted eigenvalue draws on a shared basis, which
    makes the whole chain — including its power-monotone (Olson) middle —
    exact.  General mode congruence-perturbs that commuting pair by
    T = I + eX: the Loewner chain survives congruence exactly.  The
    ``grid`` is checked in both modes (finite, nonempty, entries >= 1 and 1
    among them); general mode requires A^v <= B^v at every grid exponent v
    by ``orders.olson_leq``, the certifiers' own Loewner test at each
    exponent, shrinking e until every exponent passes; if none does, the
    commuting pair (e = 0) is returned, so generation always terminates.
    """
    grid = _validated_grid(grid)
    if not 0.0 < cfg.lo <= cfg.hi <= 1.0:
        raise BadRangeError(
            f"ordered chain needs 0 < lo <= hi <= 1, got [{cfg.lo}, {cfg.hi}]"
        )
    x = _draw_spectrum(cfg, index, TAG_EIGENVALUES)
    y = _draw_spectrum(cfg, index, TAG_SECONDARY)
    basis = _draw_basis(cfg, index, TAG_BASIS)
    a0 = _from_eigen(np.minimum(x, y), basis, positive=True)
    b0 = _from_eigen(np.maximum(x, y), basis, positive=True)
    exact = ChainSample(a=a0, b=b0, m=cfg.lo, M=cfg.hi)
    if cfg.mode == MODE_COMMUTING:
        return exact

    perturb_rng = philox_generator(cfg.seed, index, TAG_SECONDARY_BASIS)
    raw = perturb_rng.normal(size=(cfg.dim, cfg.dim)) + 1j * perturb_rng.normal(
        size=(cfg.dim, cfg.dim)
    )
    direction = raw / max(float(np.linalg.norm(raw, 2)), 1e-300)
    for epsilon in _EPSILON_LADDER:
        transform = np.eye(cfg.dim, dtype=np.complex128) + epsilon * direction
        a1 = PositiveDefiniteMatrix(congruence(transform, a0))
        b1 = PositiveDefiniteMatrix(congruence(transform, b0))
        scale = cfg.hi / float(b1.eigenvalues[0])
        a, b = a1 * scale, b1 * scale
        if olson_leq(a, b, grid):
            return ChainSample(a=a, b=b, m=float(a.eigenvalues[-1]), M=cfg.hi)
    return exact


@dataclass(frozen=True)
class ExponentialChainSample:
    """Hermitian pair with e^m I <=ols e^H <=ols e^K <=ols e^M I <=ols I (M <= 0)."""

    h: HermitianMatrix
    k: HermitianMatrix
    m: float
    M: float


def ordered_exponential_chain_pair(
    cfg: SamplerConfig, index: int = 0, *, grid
) -> ExponentialChainSample:
    """Sample Hermitian (H, K) with e^m I <=ols e^H <=ols e^K <=ols e^M I <=ols I.

    ``cfg.lo`` and ``cfg.hi`` hold the exponent bounds m and M <= 0.  The
    pair is built as logarithms of an ordered positive chain with spectra in
    [e^m, e^M]; the scalar ends of the chain reduce to plain Loewner bounds,
    and the e^H <=ols e^K middle is the chain sampler's: exact in commuting
    mode and checked on ``grid`` in general mode, as in ``ordered_chain_pair``.
    """
    if cfg.hi > 0.0:
        raise BadRangeError(
            f"exponential chain needs exponent bounds with M <= 0, got [{cfg.lo}, {cfg.hi}]"
        )
    pd_cfg = replace(cfg, lo=math.exp(cfg.lo), hi=math.exp(cfg.hi))
    chain = ordered_chain_pair(pd_cfg, index, grid=grid)
    return ExponentialChainSample(
        h=log_pd(chain.a),
        k=log_pd(chain.b),
        m=math.log(chain.m),
        M=math.log(chain.M),
    )
