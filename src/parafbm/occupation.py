"""Occupation measures of drifted paths: histograms, density diagnostics, interior probes.

The occupation measure of Y over a weighted time set assigns each value-space
cell the total weight of the times mapped into it.  A cell whose full
l-infinity neighborhood is occupied witnesses interior at that resolution;
almost-sure statements are operationalized as the fraction of seeds showing
such a witness.  The probe erodes the set of occupied cells itself, so its
memory follows the occupied cells, not their bounding box.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxIndexOverflow, ConfigError, GridMismatch
from .estimators import _KEY_SPAN_MAX, pack_index_rows
from .fbm import validate_count, validate_real, validate_reals

__all__ = [
    "OccupationHistogram",
    "drifted_image",
    "occupation_histogram",
    "positive_measure_estimate",
    "l2_density_diagnostic",
    "validate_radii",
    "interior_probe",
]

@dataclass(frozen=True)
class OccupationHistogram:
    """Sparse mass assignment over a uniform grid of value-space cells.

    ``index`` is a (k, d) int64 array of the occupied cells, its rows
    distinct and in increasing lexicographic order, and ``mass`` the (k,)
    array of their masses, non-negative and summing to 1 (k = 0 is allowed
    as the degenerate no-data case).  d is the size of ``origin``, at
    least 1.  Any other input raises ConfigError.
    """

    cell_size: float
    origin: np.ndarray
    index: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        validate_real(self.cell_size, "cell_size", low=0, above=True)
        origin = np.atleast_1d(validate_reals(self.origin, "origin", ndim=(0, 1)))
        index = np.asarray(self.index)
        if not (index.ndim == 2 and index.shape[1] == origin.size
                and np.issubdtype(index.dtype, np.integer)
                and np.can_cast(index.dtype, np.int64)):
            raise ConfigError(f"index must be a (k, {origin.size}) integer array, "
                              f"got {index.dtype} of shape {index.shape}")
        index = index.astype(np.int64, copy=False)
        # each row must exceed the previous one at the first column they differ in
        above, below = index[1:] > index[:-1], index[1:] < index[:-1]
        first = np.argmax(above | below, axis=1)
        if not above[np.arange(first.size), first].all():
            raise ConfigError("index rows must be distinct and in increasing "
                              "lexicographic order")
        mass = validate_reals(self.mass, "mass", low=0, min_size=0)
        if mass.shape != (index.shape[0],):
            raise ConfigError(f"mass must have shape ({index.shape[0]},), got {mass.shape}")
        if mass.size and not abs(mass.sum() - 1.0) <= 1e-9:
            raise ConfigError(f"total mass {mass.sum()} differs from 1 beyond 1e-9")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "mass", mass)

    @property
    def d(self):
        return self.origin.size

    @property
    def cells(self):
        """``{index row tuple: mass}``, built anew on each read.  Nothing in
        the package reads it; it stays until the benchmark's tracer stops
        reading it."""
        return dict(zip(map(tuple, self.index.tolist()), self.mass.tolist()))

    def to_csv(self, file, config=None):
        """Sparse CSV to an open text file: one row per cell (indices then
        mass); config echoed in a comment."""
        if config is not None:
            file.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        w = csv.writer(file)
        w.writerow([f"i{k + 1}" for k in range(self.d)] + ["mass"])
        for row, m in zip(self.index.tolist(), self.mass.tolist()):
            w.writerow(row + [repr(m)])


def drifted_image(path, drift_values, a_samples):
    """Evaluate path + drift at the sampled times by linear interpolation.

    ``drift_values`` must be given on the path's grid (shape (d, n)); sample
    times must lie within the grid range.  Returns (weights, values) with
    values of shape (m, d); weights pass through unchanged.
    """
    f = np.atleast_2d(validate_reals(drift_values, "drift_values", ndim=(1, 2), min_size=0))
    if f.shape != path.values.shape:
        raise GridMismatch(
            f"drift shape {f.shape} does not match path values {path.values.shape}"
        )
    t = path.grid.times
    st = a_samples.times
    if st.min() < t[0] - 1e-12 or st.max() > t[-1] + 1e-12:
        raise GridMismatch("sample times fall outside the path grid range")
    y = path.values + f
    # np.interp gives each point's value from that point alone, but it finds
    # each interval from the last one, so sorted query times are much faster
    order = np.argsort(st)
    st_sorted = st[order]
    out = np.empty((st.size, path.d))
    for j in range(path.d):
        out[order, j] = np.interp(st_sorted, t, y[j])
    return a_samples.weights.copy(), out


def occupation_histogram(weights, values, epsilon, origin=None):
    """Bin weighted value vectors into cells of side epsilon.

    ``origin`` anchors the cell grid (default: componentwise minimum); cell
    mass is the sum of the weights of the points it receives.  Cells are
    grouped by one packed integer key per point (``pack_index_rows``), which
    sorts as the index rows do, or past a packed span of 2^62 by the index
    rows themselves.  Raises ConfigError for NaN or infinite inputs, for
    d = 0, for an ``origin`` not of size d and for an empty sample without
    an ``origin`` (with one, it gives an empty histogram), and
    BoxIndexOverflow for a cell index of 2^62 or more in magnitude.
    """
    epsilon = validate_real(epsilon, "epsilon", low=0, above=True)
    w = validate_reals(weights, "weights", min_size=0)
    v = validate_reals(values, "values", ndim=(1, 2), min_size=0)
    v = v[:, None] if v.ndim == 1 else v
    if v.shape[0] != w.size or v.shape[1] == 0:
        raise ConfigError("weights (m,) and values (m, d) with d >= 1 must align")
    if origin is None:
        if w.size == 0:
            raise ConfigError("the sample is empty, so there is no minimum to anchor "
                              "the cells at; pass an origin")
        origin = v.min(axis=0)
    origin = np.atleast_1d(validate_reals(origin, "origin", ndim=(0, 1)))
    if origin.shape != (v.shape[1],):
        raise ConfigError(f"origin needs {v.shape[1]} entries, one per value column, "
                          f"got shape {origin.shape}")
    index, mass = np.empty((0, origin.size), dtype=np.int64), np.empty(0)
    if w.size:
        idx = np.floor((v - origin) / epsilon)
        key, _ = pack_index_rows(
            [(col.min(), col.max()) for col in idx.T],
            lambda j, out: np.copyto(out, idx[:, j], casting="unsafe"),
            np.empty(w.size, dtype=np.int64),
            np.empty(w.size, dtype=np.int64),
        )
        rows, axis = (idx, 0) if key is None else (key, None)
        _, first, inv = np.unique(rows, return_index=True, return_inverse=True, axis=axis)
        mass = np.bincount(inv.ravel(), weights=w)   # the inverse's shape varies in numpy 2.x
        kept = mass > 0.0
        index, mass = idx[first[kept]].astype(np.int64), mass[kept]
    return OccupationHistogram(cell_size=float(epsilon), origin=origin, index=index, mass=mass)


def positive_measure_estimate(hist, mass_floor=0.0):
    """Lebesgue-measure proxy: (number of cells of density >= mass_floor) * eps^d.

    A cell counts when its mass is at least mass_floor * eps^d, i.e. its
    density proxy mass/eps^d clears the floor.  Non-increasing in the floor.
    """
    mass_floor = validate_real(mass_floor, "mass_floor", low=0)
    cell_vol = hist.cell_size**hist.d
    threshold = mass_floor * cell_vol
    return int(np.count_nonzero(hist.mass >= threshold)) * cell_vol


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
    Raises ConfigError for radii that ``validate_radii`` refuses, for an
    iterator in place of a sequence of images, for images of different d or
    rows, and for NaN or infinite weights or values.
    """
    from scipy.spatial import cKDTree

    radii = validate_radii(radii)
    w = validate_reals(weights, "weights", min_size=0)
    if not hasattr(images, "__len__"):
        raise ConfigError("images must be a sequence of arrays, not an iterator")
    ys = [validate_reals(img, "images", ndim=(1, 2), min_size=0) for img in images]
    ys = [y[:, None] if y.ndim == 1 else y for y in ys]
    if not ys:
        raise ConfigError("need at least one image")
    d = ys[0].shape[1]
    if any(y.shape != (w.size, d) for y in ys):
        raise ConfigError("images must all have one row per weight and the same dimension d")
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


def validate_radii(radii):
    """Return ``radii`` as a float array if they are at least 2, positive,
    finite and strictly decreasing; otherwise raise ConfigError."""
    radii = validate_reals(radii, "radii", low=0, above=True)
    if radii.size < 2:
        raise ConfigError("need at least 2 radii")
    if np.any(np.diff(radii) >= 0.0):
        raise ConfigError("radii must be strictly decreasing")
    return radii


def interior_probe(hist, radius_cells):
    """The cells whose closed l-infinity neighborhood of the given radius is
    occupied: a (k, d) int64 array of index rows in sorted order, (0, d) if none.

    The cube of side 2 r + 1 is the Minkowski sum of one segment of 2 r + 1
    cells per axis, so eroding by it is eroding by each segment in turn
    (Serra, Image Analysis and Mathematical Morphology, 1982).  The occupied
    cells are packed into int64 keys over their bounding box padded by r
    cells on every side, where a shift of k cells along an axis adds k times
    that axis's stride.  Axis by axis, a cell is kept only if the cells at
    +-1..+-r along that axis are in the set, looked up by ``np.searchsorted``
    in the sorted keys.  Memory is O(occupied cells).  Raises ConfigError
    unless the radius is a whole number >= 1, and BoxIndexOverflow when the
    padded box holds more than 2^62 keys.
    """
    r = validate_count(radius_cells, "radius_cells")
    idx = hist.index
    if not len(idx):
        return np.empty((0, hist.d), dtype=np.int64)
    lo = idx.min(axis=0)
    dims = [int(b) - int(a) + 1 + 2 * r for a, b in zip(lo, idx.max(axis=0))]
    if math.prod(dims) > _KEY_SPAN_MAX:
        raise BoxIndexOverflow(
            f"the occupied cells padded by {r} span a box of {math.prod(dims)} "
            "cells, more than 2^62 int64 keys; use a coarser cell size"
        )
    # the rows are sorted, the keys sort as the rows do, and each erosion
    # keeps that order
    keys = np.ravel_multi_index(tuple((idx - lo + r).T), dims)
    for j in range(len(dims)):
        stride = math.prod(dims[j + 1:])
        members = keys
        for k in (*range(-r, 0), *range(1, r + 1)):
            probe = keys + k * stride
            keys = keys[members.take(np.searchsorted(members, probe), mode="clip") == probe]
    return np.column_stack(np.unravel_index(keys, dims)) - r + lo
