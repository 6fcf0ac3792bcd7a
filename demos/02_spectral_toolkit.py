"""
Spectral toolkit: Jacobi eigensolver, matrix functions, unitarily invariant norms
=================================================================================

Everything downstream rides on one spectral decomposition per matrix.  This
script exercises the Hermitian wrapper types, the cyclic-Jacobi eigensolver
behind them, spectral calculus (powers, exp, log), and the Ky Fan / Schatten
norm families used to state the norm inequalities.
"""

import numpy as np

from golden_bounds import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    SamplerConfig,
    congruence,
    exp_h,
    inv_sqrt_congruence,
    ky_fan_norm,
    log_pd,
    power,
    random_bounded_hermitian,
    random_pd,
    schatten_norm,
)

# A Hermitian wrapper symmetrizes tiny numerical asymmetry on construction and
# computes its eigendecomposition lazily, once.
h = HermitianMatrix(np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]]))
print(f"eigenvalues (descending): {h.eigenvalues}")
v = h.decomposition.eigenvectors
print(f"basis orthonormality defect: {np.linalg.norm(v.conj().T @ v - np.eye(2)):.2e}")
print(f"reconstruction defect:       "
      f"{np.linalg.norm(h.decomposition.reconstruct() - h.matrix):.2e}")
print()

# Spectral calculus: powers, exponential, logarithm all act on the spectrum.
a = PositiveDefiniteMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
sqrt_a = power(a, 0.5)
print(f"sqrt(A)^2 ~ A defect: "
      f"{np.linalg.norm((sqrt_a.matrix @ sqrt_a.matrix) - a.matrix):.2e}")
log_a = log_pd(a)
print(f"exp(log(A)) ~ A defect: "
      f"{np.linalg.norm(exp_h(log_a).matrix - a.matrix):.2e}")
print()

# Congruence maps X -> T* X T preserve positivity; the inverse-square-root
# congruence normalizes one argument to the identity, the move behind the
# geometric mean.
cfg = SamplerConfig(4, 7, 0.5, 2.0)
b = random_pd(cfg, 0)
normalized = inv_sqrt_congruence(b, b)
print(f"A^(-1/2) A A^(-1/2) = I defect: "
      f"{np.linalg.norm(normalized.matrix - np.eye(4)):.2e}")
t = np.array([[1.0, 2.0], [0.0, 1.0]])
print(f"congruence by a unit-triangular T keeps positivity: "
      f"min eig = {congruence(t, a).eigenvalues[-1]:.6f}")
print()

# Ky Fan norms sum the k largest singular values; Schatten norms aggregate
# all of them.  Ky Fan over all indices is the trace norm, index one is the
# operator norm.
g = random_bounded_hermitian(SamplerConfig(5, 11, -2.0, 2.0), 0)
print("norm families on a random 5x5 Hermitian")
for k in range(1, 6):
    print(f"  ky-fan-{k}:     {ky_fan_norm(g, k):.10f}")
for p in (1, 2, float('inf')):
    print(f"  schatten-{p:<4} {schatten_norm(g, p):.10f}")
print(f"  ky-fan-5 == schatten-1: "
      f"{abs(ky_fan_norm(g, 5) - schatten_norm(g, 1)) < 1e-12}")
print(f"  ky-fan-1 == schatten-inf: "
      f"{abs(ky_fan_norm(g, 1) - schatten_norm(g, float('inf'))) < 1e-12}")
