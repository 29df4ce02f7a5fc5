"""Exact simulation of fractional Brownian motion and the mixed process.

Walks through the two samplers (circulant embedding on uniform grids, dense
Cholesky on arbitrary grids), checks the variance law Var B(t) = t^2H by
Monte Carlo, and shows CSV/JSON serialization.
"""

import io

import numpy as np

import parafbm as pf

# --- a rough path, a smooth path, and a mixed path on 1024 points ----------

grid = pf.TimeGrid.regular(1024)
rough = pf.generate_fbm_path(0.25, grid, d=1, seed=7)
smooth = pf.generate_fbm_path(0.75, grid, d=1, seed=7)
mixed = pf.generate_mixed_path(0.75, 0.25, grid, d=1, seed_pair=(7, 8))

print("same seed, different Hurst index:")
print("  H=0.25 path range:", rough.values.min(), "to", rough.values.max())
print("  H=0.75 path range:", smooth.values.min(), "to", smooth.values.max())
print("  mixed Z = B^0.75 + B^0.25 at t=1:", mixed.values[0, -1])

# --- the variance law, empirically ------------------------------------------

nrep = 3000
grid16 = pf.TimeGrid.regular(17)
for hurst in (0.2, 0.5, 0.8):
    finals = np.array([
        pf.generate_fbm_path(hurst, grid16, seed=s).values[0, -1]
        for s in range(nrep)
    ])
    print(f"H={hurst}: empirical Var B(1) = {finals.var():.4f}  (exact: 1.0)")

# --- arbitrary grids use the dense exact sampler ----------------------------

odd_grid = pf.TimeGrid(np.array([0.05, 0.3, 0.31, 0.77, 0.93]))
p = pf.generate_fbm_path(0.6, odd_grid, d=2, seed=1)
print("\nnon-uniform grid, d=2, exact covariance sampling:")
print(p.values)

# --- serialization -----------------------------------------------------------

print("\nCSV head:")
buf = io.StringIO()
pf.path_to_csv(p, buf)
print("\n".join(buf.getvalue().splitlines()[:3]))
print("\nJSON envelope keys:", sorted(pf.path_to_json(p)))
print("replayed identically:", np.array_equal(
    pf.generate_fbm_path(0.6, odd_grid, d=2, seed=1).values, p.values))
