"""Acceptance gate: the seven headline guarantees, one verdict line each."""

import math
import time

import numpy as np

from golden_bounds.certify import (
    INEQUALITY_IDS,
    compare_constants_remark,
    compare_seo_constants,
    convergence_study,
    run_instances,
    specht_fm_sign_scan,
)
from golden_bounds.constants import (
    kantorovich,
    kantorovich_limit_root,
    kantorovich_lower_bound,
    specht,
    specht_p_root,
)
from golden_bounds.linalg import (
    PositiveDefiniteMatrix,
    congruence,
    exp_h,
    frobenius_distance,
    schatten_norm,
)
from golden_bounds.means import geometric_mean, limit_probe, log_euclidean
from golden_bounds.sampling import (
    SamplerConfig,
    bounded_hermitian_pair,
    olson_exponential_pair,
    random_bounded_hermitian,
    random_pd_pair,
)

import oracles


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_remark_reproduction():
    start = time.perf_counter()
    _, _, d2 = compare_constants_remark(0.5, 0.5, 2.0)
    _, _, d8 = compare_constants_remark(0.5, 0.5, 8.0)
    elapsed = time.perf_counter() - start
    err2 = abs(d2 - (-0.0134963))
    err8 = abs(d8 - 0.0631159)
    ok = err2 <= 1e-6 and err8 <= 1e-6 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"constant-comparison differences {d2:.9f} / {d8:.9f} match the "
        f"references within 1e-6 (errors {err2:.2e}, {err8:.2e}) in {elapsed:.3f}s",
    )


def test_criterion_2_certifier_sweeps():
    total_elapsed = 0.0
    violations: list[tuple[str, tuple[int, ...]]] = []
    for inequality_id in INEQUALITY_IDS:
        result = run_instances(inequality_id, count=1000, seed=2026, tolerance=1e-9)
        total_elapsed += result.elapsed_seconds
        if not result.all_hold:
            violations.append((inequality_id, result.violation_indices[:5]))
    ok = not violations and total_elapsed < 300.0
    detail = (
        f"{len(INEQUALITY_IDS)} certifiers x 1000 instances (n cycling 2..6), "
        f"zero violations at 1e-9 relative, {total_elapsed:.1f}s total"
    )
    if violations:
        detail = f"violations in {violations}; " + detail
    _verdict(2, ok, detail)


def test_criterion_3_scalar_constant_properties():
    rng = np.random.default_rng(90210)
    ok = specht(1.0) == 1.0
    for _ in range(400):
        t = float(math.exp(rng.uniform(-5.0, 5.0)))
        if t == 1.0:
            continue
        ok = ok and abs(specht(t) - specht(1.0 / t)) <= 1e-13 * specht(t)
        ok = ok and specht(t) > 1.0
    for _ in range(1000):
        w = float(math.exp(rng.uniform(-6.0, 6.0)))
        alpha = float(rng.uniform())
        value = kantorovich(w, alpha)
        ok = ok and kantorovich_lower_bound(w) - 1e-12 <= value <= 1.0 + 1e-12
    for _ in range(200):
        w = float(math.exp(rng.uniform(-6.0, 6.0)))
        half = 2.0 * w**0.25 / (math.sqrt(w) + 1.0)
        ok = ok and abs(kantorovich(w, 0.5) - half) <= 1e-12 * half
        classic = (1.0 + w) ** 2 / (4.0 * w)
        ok = ok and abs(kantorovich(w, 2.0) - classic) <= 1e-12 * classic
    _verdict(
        3,
        ok,
        "Specht symmetry/normalization/strictness and generalized-Kantorovich "
        "bounds + closed forms hold on randomized scalar grids",
    )


def test_criterion_4_small_exponent_collapse():
    root2 = specht_p_root(2.0, 1e-6)
    root10 = specht_p_root(10.0, 1e-6)
    ok = abs(root2 - 1.0) <= 1e-4 and abs(root10 - 1.0) <= 1e-4

    powers = (1.0, 0.1, 0.01, 1e-3, 1e-4)
    kant_path = kantorovich_limit_root(math.e**2, 0.5, powers)
    ok = ok and abs(kant_path[-1] - 1.0) <= 1e-3

    cfg = SamplerConfig(4, 424242, -2.0, 2.0)
    h, k = bounded_hermitian_pair(cfg, 0)
    probe = limit_probe(h, k, 0.5, (1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5))
    target_norm = schatten_norm(log_euclidean(h, k, 0.5), 2)
    terminal_rel = probe[-1][1] / target_norm
    ok = ok and terminal_rel <= 1e-4
    _verdict(
        4,
        ok,
        f"root constants reach 1 (|S|-gap {abs(root2 - 1.0):.2e}/"
        f"{abs(root10 - 1.0):.2e}, K-gap {abs(kant_path[-1] - 1.0):.2e}) and the "
        f"mean-power limit probe hits relative distance {terminal_rel:.2e} at q=1e-5",
    )


def test_criterion_5_factor_adjusted_convergence():
    cfg = SamplerConfig(4, 515151, -0.6, 0.9)
    pair = olson_exponential_pair(cfg, 0)
    powers = (1.0, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-4)
    worst = {}
    for kind in ("specht", "kantorovich"):
        rows = convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5, powers, kind)
        worst[kind] = max(abs(row.gap) for row in rows if row.p == 1e-4)
    ok = all(gap <= 1e-3 for gap in worst.values())
    _verdict(
        5,
        ok,
        f"factor-adjusted eigenvalue gaps at p=1e-4: "
        f"specht-route {worst['specht']:.2e}, kantorovich-route "
        f"{worst['kantorovich']:.2e} (both <= 1e-3)",
    )


def test_criterion_6_spectral_and_mean_backbone():
    ok = True
    worst_recon = 0.0
    for index in range(1000):
        n = 1 + index % 8
        cfg = SamplerConfig(n, 606060, -3.0, 3.0)
        h = random_bounded_hermitian(cfg, index)
        rebuilt = h.decomposition.reconstruct()
        scale = max(h.frobenius_norm(), 1e-300)
        err = float(np.linalg.norm(rebuilt - h.matrix)) / scale
        worst_recon = max(worst_recon, err)
    ok = ok and worst_recon <= 1e-12

    worst_exp = 0.0
    for index in range(200):
        n = 2 + index % 4
        cfg = SamplerConfig(n, 616161, -1.5, 1.5)
        h = random_bounded_hermitian(cfg, index)
        via_spectrum = exp_h(h)
        via_series = oracles.taylor_expm(h.matrix)
        denom = max(float(np.linalg.norm(via_series)), 1e-300)
        err = float(np.linalg.norm(via_spectrum.matrix - via_series)) / denom
        worst_exp = max(worst_exp, err)
    ok = ok and worst_exp <= 1e-10

    worst_congruence = 0.0
    rng = np.random.default_rng(626262)
    for index in range(100):
        n = 2 + index % 4
        cfg = SamplerConfig(n, 636363, 0.4, 2.5)
        a, b = random_pd_pair(cfg, index)
        t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        t += 3.0 * np.eye(n)  # keep the transform comfortably invertible
        left = congruence(t, geometric_mean(a, b, 0.5))
        right = geometric_mean(
            PositiveDefiniteMatrix(congruence(t, a).matrix),
            PositiveDefiniteMatrix(congruence(t, b).matrix),
            0.5,
        )
        scale = max(schatten_norm(right, 2), 1e-300)
        err = frobenius_distance(left, right) / scale
        worst_congruence = max(worst_congruence, err)
    ok = ok and worst_congruence <= 1e-9

    _verdict(
        6,
        ok,
        f"spectral reconstruction {worst_recon:.2e} (<=1e-12 rel), matrix "
        f"exponential vs series {worst_exp:.2e} (<=1e-10), geometric-mean "
        f"congruence covariance {worst_congruence:.2e} (<=1e-9) on random batteries",
    )


def test_criterion_7_constant_comparison_signs():
    scan = specht_fm_sign_scan()
    ok = scan["positive"] is not None and scan["negative"] is not None
    rng = np.random.default_rng(707070)
    worst_ratio = 0.0
    for _ in range(100):
        alpha = float(rng.uniform())
        p = float(rng.uniform(1e-3, 1.0))
        m = float(rng.uniform(-1.0, 0.5))
        width = float(rng.uniform(0.0, 2.0))
        _, _, ratio = compare_seo_constants(alpha, p, m, m + width)
        worst_ratio = max(worst_ratio, ratio)
        ok = ok and ratio <= 1.0 + 1e-12
    _verdict(
        7,
        ok,
        f"grid scan found both comparison signs "
        f"(+ at {scan['positive'][:3]}, - at {scan['negative'][:3]}) and the "
        f"two-sided constant ratio stayed <= 1 (max {worst_ratio:.6f}) "
        f"over 100 random triples",
    )
