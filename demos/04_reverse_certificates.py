"""
Certifying reverse inequalities on random instances
===================================================

A certifier takes a hypothesis-carrying instance (a sandwiched, bounded, or
ordered pair), re-verifies the hypothesis, evaluates both sides of a reverse
inequality, and returns a report whose margins must all be nonnegative.  This
script runs a few certifiers by hand, inspects a report, then drives seeded
sweeps and a small-exponent convergence table.
"""

from golden_bounds import (
    INEQUALITY_IDS,
    SamplerConfig,
    certify_inequality,
    convergence_study,
    olson_exponential_pair,
    run_instances,
    sandwich_pair,
)

# One hand-built instance: B sandwiched between 0.7 A and 2.2 A, then the
# reverse mean-power comparison with the Specht factor.
cfg = SamplerConfig(4, 101, 0.5, 2.0)
sample = sandwich_pair(cfg, 0.7, 2.2, 0)
report = certify_inequality(
    "specht-power-low", sample.a, sample.b, s=0.7, t=2.2, alpha=0.5, r=0.5
)
print(f"{report.inequality_id}: holds={report.holds} "
      f"factor={report.parameters['factor']:.6f}")
print(f"  semantics={report.semantics}, entries={list(report.labels)}")
print(f"  worst relative margin = {report.worst_relative_margin:.3e}")
print()

# The exponential variant compares eigenvalues of e^{(1-a)H + aK} against the
# mean-power of e^{pH}, e^{pK}, scaled by a rooted Specht factor.
pair = olson_exponential_pair(SamplerConfig(3, 202, -0.6, 0.9), 0)
exp_report = certify_inequality(
    "gt-specht", pair.h, pair.k, s=pair.s, t=pair.t, alpha=0.5, p=1.0
)
print(f"{exp_report.inequality_id}: holds={exp_report.holds} "
      f"factor={exp_report.parameters['factor']:.6f}")
for label, l, r in zip(exp_report.labels, exp_report.lhs_values,
                       exp_report.rhs_values):
    print(f"  {label}: lhs={l:.8f}  rhs={r:.8f}")
print()

# Seeded sweeps: every inequality id runs hypothesis-valid random instances
# with dimensions cycling 2..6 and the sampler alternating commuting/general.
print("sweeps (40 instances each)")
for inequality_id in INEQUALITY_IDS[:6]:
    result = run_instances(inequality_id, count=40, seed=7)
    print(f"  {result.summary()}")
print(f"  ... {len(INEQUALITY_IDS)} ids registered in total")
print()

# As p decreases the factor-adjusted right side closes onto the left side;
# the certified inequality becomes asymptotically tight.
rows = convergence_study(pair.h, pair.k, pair.s, pair.t, 0.5,
                         (1.0, 0.1, 0.01, 1e-3, 1e-4), "specht")
print("convergence of the factor-adjusted bound (worst entry per p)")
for p in (1.0, 0.1, 0.01, 1e-3, 1e-4):
    gap = max(abs(row.gap) for row in rows if row.p == p)
    print(f"  p = {p:<8g} max relative gap = {gap:.3e}")
