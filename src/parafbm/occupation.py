"""Occupation measures of drifted paths: histograms, density diagnostics, interior probes.

The occupation measure of Y over a weighted time set assigns each value-space
cell the total weight of the times mapped into it.  A cell whose full
l-infinity neighborhood is occupied witnesses interior at that resolution;
almost-sure statements are operationalized as the fraction of seeds showing
such a witness.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, GridMismatch, OccupancyGridTooLarge
from .estimators import pack_index_rows

__all__ = [
    "OccupationHistogram",
    "InteriorReport",
    "drifted_image",
    "occupation_histogram",
    "positive_measure_estimate",
    "l2_density_diagnostic",
    "interior_probe",
    "interior_fraction",
]

#: cap on the cells of the dense occupancy box that interior_probe erodes;
#: 2^27 cells are 128 MiB of booleans, and the eroded copy needs as much again
INTERIOR_MAX_CELLS = 2**27


@dataclass(frozen=True)
class OccupationHistogram:
    """Sparse mass assignment over a uniform grid of value-space cells.

    ``cells`` maps integer d-indices (tuples) to masses; masses are
    non-negative and sum to 1 (an empty histogram is allowed as the
    degenerate no-data case).
    """

    cell_size: float
    origin: np.ndarray
    cells: dict

    def __post_init__(self):
        if self.cell_size <= 0.0:
            raise ConfigError("cell_size must be positive")
        origin = np.atleast_1d(np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "origin", origin)
        if self.cells:
            masses = np.fromiter(self.cells.values(), dtype=float)
            if masses.min() < 0.0:
                raise ConfigError("cell masses must be non-negative")
            if abs(masses.sum() - 1.0) > 1e-9:
                raise ConfigError(f"total mass {masses.sum()} differs from 1 beyond 1e-9")

    @property
    def d(self):
        return self.origin.size

    @property
    def total_mass(self):
        return float(sum(self.cells.values()))

    def to_csv(self, file, config=None):
        """Sparse CSV to an open text file: one row per cell (indices then
        mass); config echoed in a comment."""
        if config is not None:
            file.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        w = csv.writer(file)
        w.writerow([f"i{k + 1}" for k in range(self.d)] + ["mass"])
        for idx in sorted(self.cells):
            w.writerow(list(idx) + [repr(self.cells[idx])])

    def csv_string(self, config=None):
        buf = io.StringIO()
        self.to_csv(buf, config)
        return buf.getvalue()


@dataclass(frozen=True)
class InteriorReport:
    """Cells whose full neighborhood of the given radius is occupied."""

    cell_size: float
    radius_cells: int
    interior_cells: list
    fraction_of_seeds_with_interior: float

    def to_json(self, config=None):
        doc = {
            "cell_size": self.cell_size,
            "radius_cells": self.radius_cells,
            "interior_cells": [list(c) for c in self.interior_cells],
            "fraction_of_seeds_with_interior": self.fraction_of_seeds_with_interior,
        }
        if config is not None:
            doc["config"] = config
        return doc

    def dumps(self, config=None):
        return json.dumps(self.to_json(config))


def drifted_image(path, drift_values, a_samples):
    """Evaluate path + drift at the sampled times by linear interpolation.

    ``drift_values`` must be given on the path's grid (shape (d, n)); sample
    times must lie within the grid range.  Returns (weights, values) with
    values of shape (m, d); weights pass through unchanged.
    """
    f = np.asarray(drift_values, dtype=float)
    if f.ndim == 1:
        f = f[None, :]
    if f.shape != path.values.shape:
        raise GridMismatch(
            f"drift shape {f.shape} does not match path values {path.values.shape}"
        )
    t = path.grid.times
    st = a_samples.times
    if st.min() < t[0] - 1e-12 or st.max() > t[-1] + 1e-12:
        raise GridMismatch("sample times fall outside the path grid range")
    y = path.values + f
    out = np.empty((st.size, path.d))
    for j in range(path.d):
        out[:, j] = np.interp(st, t, y[j])
    return a_samples.weights.copy(), out


def occupation_histogram(weights, values, epsilon, origin=None):
    """Bin weighted value vectors into cells of side epsilon.

    ``origin`` anchors the cell grid (default: componentwise minimum); cell
    mass is the sum of the weights of the points it receives.  Cells are
    grouped by one packed int64 key per point (``pack_index_rows``), which
    sorts as the index rows do.  Raises ConfigError for NaN or infinite
    inputs and for an empty sample without an ``origin`` (with one, it gives
    an empty histogram), and BoxIndexOverflow for a cell index of 2^62 or
    more in magnitude.
    """
    if not 0.0 < epsilon < math.inf:
        raise ConfigError("epsilon must be positive and finite")
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if w.ndim != 1 or v.shape[0] != w.size:
        raise ConfigError("weights (m,) and values (m, d) must align")
    if origin is None:
        if w.size == 0:
            raise ConfigError("the sample is empty, so there is no minimum to anchor "
                              "the cells at; pass an origin")
        origin = v.min(axis=0)
    origin = np.atleast_1d(np.asarray(origin, dtype=float))
    if not (np.isfinite(w).all() and np.isfinite(v).all() and np.isfinite(origin).all()):
        raise ConfigError("weights, values and origin must be finite")
    cells = {}
    if w.size:
        idx = np.floor((v - origin) / epsilon)
        _, first, inv = np.unique(
            pack_index_rows(list(idx.T)), return_index=True, return_inverse=True
        )
        masses = np.bincount(inv, weights=w)
        rows = idx[first].astype(np.int64)
        cells = {tuple(map(int, row)): float(m) for row, m in zip(rows, masses) if m > 0.0}
    return OccupationHistogram(cell_size=float(epsilon), origin=origin, cells=cells)


def positive_measure_estimate(hist, mass_floor=0.0):
    """Lebesgue-measure proxy: (number of cells of density >= mass_floor) * eps^d.

    A cell counts when its mass is at least mass_floor * eps^d, i.e. its
    density proxy mass/eps^d clears the floor.  Non-increasing in the floor.
    """
    if mass_floor < 0.0:
        raise ConfigError("mass_floor must be >= 0")
    cell_vol = hist.cell_size**hist.d
    threshold = mass_floor * cell_vol
    count = sum(1 for m in hist.cells.values() if m >= threshold)
    return count * cell_vol


def l2_density_diagnostic(images, weights, radii):
    """Per-radius values r^-d * mean_seeds sum_{i != j} w_i w_j 1{||Y(s_i)-Y(s_j)|| < r}.

    ``images`` is a sequence of (m, d) arrays, one per seed, evaluated at the
    same weighted times.  A bounded sequence across shrinking radii indicates
    a square-integrable occupation density; growth like r^-d indicates none.
    The diagonal is excluded (it would contribute a spurious r^-d / m term).

    The pair sums are counted by one dual-tree traversal per image over all
    radii at once (Gray & Moore, NIPS 2000; ``cKDTree.count_neighbors``),
    O(m log m) for well-spread points instead of O(m^2) per radius.  The
    traversal counts pairs at distance <= r, so it is queried at the next
    float below r, and it includes the self-pairs, whose sum of w_i^2 is
    subtracted; a radius with no other pair inside it gives exactly 0.
    Raises ConfigError for radii that are not positive, finite and strictly
    decreasing, for an iterator in place of a sequence of images, for images
    of different d or rows, and for NaN or infinite weights or values.
    """
    from scipy.spatial import cKDTree

    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ConfigError("need at least 2 radii")
    if np.any(np.diff(radii) >= 0.0):
        raise ConfigError("radii must be strictly decreasing")
    if not (np.isfinite(radii[0]) and radii[-1] > 0.0):
        raise ConfigError("radii must be positive and finite")
    w = np.asarray(weights, dtype=float)
    if not hasattr(images, "__len__"):
        raise ConfigError("images must be a sequence of arrays, not an iterator")
    ys = [np.asarray(img, dtype=float) for img in images]
    ys = [y[:, None] if y.ndim == 1 else y for y in ys]
    if not ys:
        raise ConfigError("need at least one image")
    if any(y.ndim != 2 or y.shape[0] != w.size for y in ys):
        raise ConfigError("image rows must align with weights")
    d = ys[0].shape[1]
    if any(y.shape[1] != d for y in ys):
        raise ConfigError("images must all have the same dimension d")
    if not (np.isfinite(w).all() and all(np.isfinite(y).all() for y in ys)):
        raise ConfigError("weights and image values must be finite")
    if w.size == 0:  # no pairs; count_neighbors rejects empty weight arrays
        return np.zeros(radii.size)
    below = np.nextafter(radii, 0.0)
    self_pairs = float(np.dot(w, w))
    totals = np.zeros(radii.size)
    for y in ys:
        tree = cKDTree(y)
        weighted = tree.count_neighbors(tree, below, weights=(w, w), cumulative=True)
        counts = tree.count_neighbors(tree, below, cumulative=True)
        totals += np.where(counts > w.size, weighted - self_pairs, 0.0)
    return totals / len(ys) / radii**d


def interior_probe(hist, radius_cells):
    """All cells whose closed l-infinity neighborhood of the given radius is occupied.

    Implemented as binary erosion of the occupancy grid with a cube
    structuring element of side 2*radius_cells + 1.  The grid is a dense box
    over the occupied cells' bounding box; OccupancyGridTooLarge is raised
    before allocating one of more than INTERIOR_MAX_CELLS cells.
    """
    if radius_cells < 1:
        raise ConfigError("radius_cells must be >= 1")
    if not hist.cells:
        return InteriorReport(
            cell_size=hist.cell_size,
            radius_cells=radius_cells,
            interior_cells=[],
            fraction_of_seeds_with_interior=0.0,
        )
    idx = np.array(sorted(hist.cells), dtype=np.int64)
    lo, hi = idx.min(axis=0), idx.max(axis=0)
    n_cells = math.prod(int(b) - int(a) + 1 for a, b in zip(lo, hi))
    if n_cells > INTERIOR_MAX_CELLS:
        raise OccupancyGridTooLarge(
            f"the occupancy box spans {n_cells} cells, above INTERIOR_MAX_CELLS = "
            f"{INTERIOR_MAX_CELLS}; use a coarser cell size"
        )
    grid = np.zeros(hi - lo + 1, dtype=bool)
    grid[tuple((idx - lo).T)] = True
    structure = np.ones((2 * radius_cells + 1,) * hist.d, dtype=bool)
    eroded = ndimage.binary_erosion(grid, structure=structure, border_value=0)
    cells = [tuple(map(int, row + lo)) for row in np.argwhere(eroded)]
    return InteriorReport(
        cell_size=hist.cell_size,
        radius_cells=radius_cells,
        interior_cells=sorted(cells),
        fraction_of_seeds_with_interior=1.0 if cells else 0.0,
    )


def interior_fraction(hists, radius_cells):
    """Probe an ensemble of histograms; returns (fraction of seeds with interior, reports)."""
    reports = [interior_probe(h, radius_cells) for h in hists]
    if not reports:
        raise ConfigError("need at least one histogram")
    frac = sum(r.fraction_of_seeds_with_interior for r in reports) / len(reports)
    return frac, reports
