"""Parabolic box counting: estimating graph dimensions from sampled paths.

Counts anchored boxes of time extent delta and value extent delta^H over a
ladder of scales, fits the log-log slope, and compares to the closed form.
Runs a reduced version of the dimension-formula experiment (smaller grid and
fewer seeds than the acceptance suite, so expect looser agreement).
"""

import numpy as np

import parafbm as pf

# Exactly countable control: a flat graph occupies one box per time column.
n = 4096
flat = pf.GraphCloud(times=np.linspace(0, 1, n), values=np.zeros((n, 1)))
for delta in (0.25, 0.125):
    print(f"flat graph N({delta}) =", pf.parabolic_box_count(flat, delta, 0.5))
est = pf.estimate_parabolic_dimension(flat, pf.dyadic_deltas(2, 9), 0.5)
print("flat graph exponent:", round(est.exponent, 4), " r2:", round(est.r_squared, 6))

# fBm graphs, alpha = H: the graph dimension equals dim([0,1]) = 1.
grid = pf.TimeGrid.regular(2**14)
deltas = pf.dyadic_deltas(3, 11, per_octave=2)
exps = []
for seed in range(8):
    path = pf.generate_fbm_path(0.5, grid, seed=seed)
    cloud = pf.GraphCloud.from_path(path)
    exps.append(pf.estimate_parabolic_dimension(cloud, deltas, 0.5).exponent)
print(f"\nalpha=H=0.5 graphs: median exponent {np.median(exps):.3f} (formula: 1.0)")

# Rougher paths measured with smoother boxes gain dimension.
for alpha, hurst in ((0.3, 0.6), (0.4, 0.8)):
    exps = []
    for seed in range(8):
        path = pf.generate_fbm_path(alpha, grid, seed=seed)
        cloud = pf.GraphCloud.from_path(path)
        exps.append(pf.estimate_parabolic_dimension(
            cloud, deltas, hurst, trim_octaves=0.0, max_count_fraction=0.2).exponent)
    theory = pf.theoretical_graph_dimension(alpha, hurst, 1.0, 1)
    print(f"alpha={alpha} H={hurst}: median {np.median(exps):.3f} (formula {theory})")

# Restriction to a Cantor set lowers dim_a and with it the graph dimension.
fset = pf.middle_thirds_cantor(8)
exps = []
for seed in range(8):
    path = pf.generate_fbm_path(0.3, grid, seed=seed)
    cloud = pf.GraphCloud.from_path(path).restrict(fset)
    exps.append(pf.estimate_parabolic_dimension(
        cloud, deltas, 0.6, trim_octaves=0.0, max_count_fraction=0.2).exponent)
theory = pf.theoretical_graph_dimension(0.3, 0.6, fset.theoretical_dim, 1)
print(f"middle-thirds, alpha=0.3 H=0.6: median {np.median(exps):.3f} "
      f"(formula {theory:.3f})")
