"""Exact Gaussian computations: conditional variances, determinants, nondeterminism.

The determinant of an fBm covariance factors into a chain of conditional
variances; nearest-neighbor products bound it (up to a constant the sweeps
estimate empirically); and the mixed process stays locally nondeterminate.
"""

import numpy as np

import parafbm as pf

# --- conditional variance via Schur complement --------------------------------

spec = pf.GaussianVectorSpec(np.array([0.5, 1.0]), 0.5)
print("Brownian: Var(B(1) | B(0.5)) =", pf.conditional_variance(spec, 1, (0,)))

spec = pf.GaussianVectorSpec(np.array([0.2, 0.4, 0.6, 0.8, 1.0]), 0.3)
prev = None
print("conditioning on more observations only shrinks the variance:")
for k in range(5):
    v = pf.conditional_variance(spec, 4, tuple(range(k)))
    print(f"  given {k} values: {v:.6f}")

# --- determinant = chain of conditional variances ------------------------------

det, chain = pf.detcov_chain_identity(spec)
print(f"\ndet Cov = {det:.6e}, chain product = {chain:.6e} "
      f"(rel diff {abs(det - chain) / det:.2e})")

# --- nearest-neighbor lower bound: the constant matters ------------------------

print("\ndeterminant / nearest-neighbor-product margins:")
print("  H=0.5, times (0.5, 1.0):",
      pf.verify_detcov_lower_bound(np.array([0.5, 1.0]), 0.5), " (exact equality)")
print("  H=0.8, times (0.5, 0.6):",
      round(pf.verify_detcov_lower_bound(np.array([0.5, 0.6]), 0.8), 4),
      " (below 1: smooth paths predict well)")
recs = pf.detcov_margin_sweep(500, hurst_values=(0.2, 0.5, 0.8), seed=0)
for h in (0.2, 0.5, 0.8):
    ms = [r["margin"] for r in recs if r["hurst"] == h]
    print(f"  sweep H={h}: margins in [{min(ms):.3f}, {max(ms):.3f}]")

# --- local nondeterminism of the mixed process ----------------------------------

records, inf_ratio = pf.lnd_margin_sweep(2000, hurst=0.7, alpha_p=0.35, seed=0)
print(f"\nmixed-process conditional variance / nearest-gap bracket:")
print(f"  empirical infimum over 2000 random configs: {inf_ratio:.4f} (> 0)")

print("\nconditioning only at distance >= r keeps Var >= C r^(2 alpha'):")
for k in (2, 4, 6, 8):
    r = 2.0**-k
    side = np.arange(1, 7, dtype=float)
    s = np.concatenate([0.55 - r * side, 0.55 + r * side])
    s = s[(s >= 0.1) & (s <= 1.0)]
    ratio = pf.lnd_distance_ratio(0.7, 0.35, 0.55, r, s)
    print(f"  r = 2^-{k}: Var / r^0.7 = {ratio:.4f}")
