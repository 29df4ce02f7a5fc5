"""Occupation measures of drifted paths, density diagnostics, interior witnesses.

Three regimes at desk scale:
  - a square-integrable occupation density (bounded pair-count diagnostic),
  - images that fill volume: cells whose whole neighborhood is occupied,
  - sparse "fractal image" controls where no such witness appears.
"""

import numpy as np

import parafbm as pf
from parafbm.experiments import ExperimentConfig, run_experiment

# --- the L2 density diagnostic ----------------------------------------------

n = 2048
samples = pf.WeightedTimeSet(times=np.arange(n) / n, weights=np.full(n, 1.0 / n))
grid = pf.TimeGrid.regular(2**12)
radii = 2.0 ** -np.arange(3, 9)

images = []
for s in range(5):
    path = pf.generate_fbm_path(0.3, grid, d=1, seed=s)
    _, img = pf.drifted_image(path, np.zeros_like(path.values), samples)
    images.append(img)
vals = pf.l2_density_diagnostic(images, samples.weights, radii)
print("H=0.3, d=1 (occupation density exists): diagnostic stays bounded")
print("  values:", np.round(vals, 3))

vals = pf.l2_density_diagnostic([np.zeros((n, 1))], samples.weights, radii)
print("constant path (no density): values grow like 1/r")
print("  values:", np.round(vals, 1))

# --- interior witnesses -------------------------------------------------------

cfg = ExperimentConfig.from_dict({
    "kind": "theorem41",
    "seeds": 10,
    "params": {
        "cells": [
            # rough independent drift creates interior although dim(A) <= H d
            {"alpha_p": 0.6, "hurst": 0.8, "d": 1,
             "set": {"kind": "generalized-cantor", "dim": 0.7, "generation": 10},
             "epsilon": 2.0**-6, "radius_cells": 2,
             "expect": "interior", "threshold": 0.9},
            # sparse-image control: dim(A) < H d, no drift, d=2
            {"hurst": 0.4, "d": 2,
             "set": {"kind": "generalized-cantor", "dim": 0.45, "generation": 8},
             "epsilon": 2.0**-4, "radius_cells": 2,
             "expect": "no-interior", "threshold": 0.1},
        ],
        "n_samples": 2**13,
        "grid_n": 2**14,
    },
})
for row in run_experiment(cfg):
    print(f"\n{row.diagnostics['expect']} cell (dim A = "
          f"{row.diagnostics['dim_a']:.2f}): fraction of seeds with an interior "
          f"witness = {row.estimate:.2f} (pass: {row.passed})")

# --- histograms and the measure proxy ----------------------------------------

path = pf.generate_fbm_path(0.5, grid, d=2, seed=0)
w, img = pf.drifted_image(path, np.zeros_like(path.values), samples)
hist = pf.occupation_histogram(w, img, epsilon=2.0**-4)
print(f"\noccupied cells at eps=1/16: {len(hist.index)}; "
      f"measure proxy {pf.positive_measure_estimate(hist):.4f}")
interior = pf.interior_probe(hist, radius_cells=1)
print(f"cells with fully occupied radius-1 neighborhood: {len(interior)}")
