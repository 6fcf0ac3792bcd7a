"""
Weighted geometric means and the small-exponent limit
=====================================================

The weighted geometric mean A #_a B is the curve of steepest interpolation
between two positive definite matrices.  This script shows its defining
properties and the limit that connects mean-powers of exponentials to the
log-Euclidean mean — the bridge the reverse trace/norm inequalities cross.
"""

import numpy as np

from golden_bounds import (
    SamplerConfig,
    bounded_hermitian_pair,
    frobenius_distance,
    geometric_mean,
    limit_probe,
    log_euclidean,
    mean_power,
    power,
    random_pd_pair,
    schatten_norm,
)

cfg = SamplerConfig(4, 21, 0.4, 2.5)
a, b = random_pd_pair(cfg, 0)

# Riccati characterization: X = A # B is the unique positive solution of
# X A^{-1} X = B.
x = geometric_mean(a, b, 0.5)
lhs = x.matrix @ power(a, -1.0).matrix @ x.matrix
print(f"Riccati defect |X A^-1 X - B| = {np.linalg.norm(lhs - b.matrix):.2e}")

# Weight symmetry: A #_a B = B #_{1-a} A.
left = geometric_mean(a, b, 0.3)
right = geometric_mean(b, a, 0.7)
print(f"weight-symmetry defect         = {frobenius_distance(left, right):.2e}")

# Congruence covariance: T* (A #_a B) T = (T* A T) #_a (T* B T).  Verified in
# the test suite; here we just display scalar homogeneity, its simplest case.
scaled = geometric_mean(a * 4.0, b * 9.0, 0.5)
print(f"homogeneity defect             = "
      f"{frobenius_distance(scaled, (x * 6.0)):.2e}")
print()

# On commuting pairs the mean is the entrywise weighted geometric mean of the
# paired spectra; no interpolation is needed.
cfg_comm = SamplerConfig(3, 33, 0.5, 2.0, "commuting")
ca, cb = random_pd_pair(cfg_comm, 0)
closed = power(ca, 0.75).matrix @ power(cb, 0.25).matrix
mean_comm = geometric_mean(ca, cb, 0.25)
print(f"commuting closed form defect   = "
      f"{np.linalg.norm(mean_comm.matrix - closed):.2e}")
print()

# The Hiai-Petz style limit: (e^{qH} #_a e^{qK})^{1/q} converges to the
# log-Euclidean mean e^{(1-a)H + aK} as q -> 0.  At q = 1 the two sides can
# be far apart; by q = 1e-5 they agree to ~1e-10 relative.
h, k = bounded_hermitian_pair(SamplerConfig(4, 55, -2.0, 2.0), 0)
target = log_euclidean(h, k, 0.5)
target_norm = schatten_norm(target, 2)
print("mean-power limit toward the log-Euclidean mean")
print(f"  {'q':>8}   abs distance   rel distance")
for q, dist in limit_probe(h, k, 0.5, (1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5)):
    print(f"  {q:>8g}   {dist:.6e}   {dist / target_norm:.6e}")

# mean_power at p = 1 is just the geometric mean of the exponentials.
mp = mean_power(h, k, 0.5, 1.0)
print(f"\nmean_power(H, K, 1/2, 1) spectrum: {np.round(mp.eigenvalues, 8)}")
