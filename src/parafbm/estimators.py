"""Empirical dimension estimators: parabolic box counting, energy sums, kernel scaling.

Box counting uses grids anchored at 0 on the time axis and at the cloud's
componentwise minimum on the value axes; box dimension is used as the
computable proxy for the covering dimension it estimates.  Occupied boxes
are counted by sorting one key per point (Liebovitch & Toth, Phys. Lett. A
141, 1989): each point's box indices (time, value_1, ..., value_d) are
shifted to start at 0 and packed into one integer in mixed radix, each
axis's index range being its radix, and distinct keys are counted as
adjacent differences after a 1-d sort.  Each index range is known before
any point is indexed, because floor, subtraction and division are monotone
under rounding: the extreme indices are those of the extreme coordinates.
So the key width is chosen up front: int32 when the packed span and every
raw index fit in it (sorting them takes about half as long), int64
otherwise.  When the packed span would pass 2^62 no key is packed: the
index rows themselves are sorted lexicographically and a box starts at each
row that differs from the one before.  A box index that itself reaches 2^62
in magnitude raises BoxIndexOverflow before any cast, instead of wrapping.
The sorted key also counts the boxes of every coordinate prefix: the graph
of the first k value coordinates occupies as many boxes as there are
distinct quotients of the key by the product of the radices of the axes
after v_k, and those quotients are as sorted as the key; in the sorted
rows, as many as there are changes in the first k + 1 rows.
``box_count_curves`` builds one counter per cloud, which holds the values
relative to their minimum and the work buffers every scale reuses in place,
so a packed scale allocates no point-sized temporary; one sort per scale
gives the curves of every prefix it is asked for.  The log-log regression
keeps the middle scales: the coarsest and finest octaves are biased (finite
extent, finite path resolution), and scales whose count approaches the
number of cloud points are resolution-limited and dropped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoxIndexOverflow,
    ConfigError,
    DegenerateRange,
    GammaAtBoundary,
    NumericalError,
)
from .fbm import (
    philox_stream,
    validate_count,
    validate_hurst,
    validate_integer,
    validate_real,
    validate_reals,
    validate_seed,
)
from .geometry import rho_h, validate_alpha

__all__ = [
    "GraphCloud",
    "BoxCountCurve",
    "DimensionEstimate",
    "parabolic_box_count",
    "box_count_curve",
    "box_count_curves",
    "estimate_parabolic_dimension",
    "energy_integral_mc",
    "kernel_expectation_mc",
    "validate_gamma",
    "validate_kernel_times",
    "validate_fit_scales",
    "dyadic_deltas",
]

#: above this many points energy sums switch to seeded pair subsampling
ENERGY_PAIR_CAP = 4096

#: default number of sampled pairs in the subsampling regime
ENERGY_DEFAULT_PAIRS = 10**6

#: fewest scales a log-log fit may keep after trimming
MIN_FIT_POINTS = 3

#: kernel Monte Carlo refuses gamma this close to its branch point H*d
GAMMA_BOUNDARY_MARGIN = 1e-6

#: default fit settings of ``estimate_parabolic_dimension``
DEFAULT_TRIM_OCTAVES, DEFAULT_MAX_COUNT_FRACTION = 1.0, 1.0 / 3.0

#: bound on box-index magnitudes and on the span of a packed box key
_KEY_SPAN_MAX = 2**62

#: largest int32: keys are packed in int32 when their span and every raw
#: index stay within it
_NARROW_MAX = 2**31 - 1


@dataclass(frozen=True)
class GraphCloud:
    """Finite set of (time, value-vector) points, e.g. a sampled graph.

    ``h_context`` is read by no code; it stays only because the benchmark's
    workloads pass it.
    """

    times: np.ndarray
    values: np.ndarray
    h_context: float = 0.5

    def __post_init__(self):
        t = validate_reals(self.times, "times", low=0, high=1)
        v = validate_reals(self.values, "values", ndim=(1, 2), min_size=0)
        v = v[:, None] if v.ndim == 1 else v
        if v.shape[0] != t.size or v.shape[1] == 0:
            raise ConfigError("times (n,) and values (n, d) must be aligned, with d >= 1")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.times.size

    @property
    def d(self):
        return self.values.shape[1]

    @classmethod
    def from_path(cls, path, h_context=None):
        """Graph cloud of a SamplePath; h_context defaults to its first Hurst index."""
        return cls(
            times=path.grid.times,
            values=path.values.T,
            h_context=path.hurst_components[0] if h_context is None else h_context,
        )

    def restrict(self, fset):
        """Sub-cloud of points whose times lie in the given FractalSet."""
        mask = fset.contains(self.times)
        if not mask.any():
            raise ConfigError("no cloud points fall inside the set")
        return GraphCloud(
            times=self.times[mask],
            values=self.values[mask],
            h_context=self.h_context,
        )


@dataclass(frozen=True)
class BoxCountCurve:
    """Occupied-box counts, whole numbers from 1 to 2^53, over a strictly
    decreasing ladder of scales in (0, 1]."""

    deltas: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        d = validate_reals(self.deltas, "deltas", low=0, high=1, above=True)
        c = validate_reals(self.counts, "counts", low=1, high=2**53)   # whole in a float
        if np.any(np.diff(d) >= 0.0):
            raise ConfigError("deltas must be strictly decreasing")
        if d.shape != c.shape or np.any(c != np.floor(c)):
            raise ConfigError("counts must be whole numbers, one per scale")
        object.__setattr__(self, "deltas", d)
        object.__setattr__(self, "counts", c.astype(np.int64))

    def to_csv(self, file):
        """Write the curve to an open text file as CSV with columns delta, count."""
        w = csv.writer(file)
        w.writerow(["delta", "count"])
        for delta, count in zip(self.deltas, self.counts):
            w.writerow([repr(float(delta)), int(count)])


@dataclass(frozen=True)
class DimensionEstimate:
    """Fitted scaling exponent with regression diagnostics.

    ``curve`` is the full box-count curve the fit was made on; it takes no
    part in comparisons and is left out of ``to_json``.
    """

    exponent: float
    intercept: float
    r_squared: float
    fit_range: tuple
    n_points_used: int
    curve: BoxCountCurve | None = field(default=None, compare=False, repr=False)

    def to_json(self):
        return {
            "exponent": self.exponent,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "fit_range": [self.fit_range[0], self.fit_range[1]],
            "n_points_used": self.n_points_used,
        }


def parabolic_box_count(cloud, delta, hurst, anchor_shift=0.0, *, _counter=None):
    """Number of occupied anchored boxes of time extent delta, value extent delta^H.

    The time grid is anchored at 0 (a point at t=1 belongs to the last box);
    value grids are anchored at the cloud minimum.  ``anchor_shift`` moves
    every anchor by that fraction of a cell, used to quantify anchor
    sensitivity.

    Each point's box indices are packed into one integer key and the
    distinct keys are counted after a 1-d sort (see the module docstring).
    Raises BoxIndexOverflow when a box index reaches 2^62 in magnitude
    (delta below about 2^-62, or values spanning about 2^62 value boxes),
    where an int64 cast would wrap and merge distinct boxes.
    ``box_count_curves`` passes one counter of ``cloud`` to every scale.
    """
    hurst = validate_hurst(hurst)
    delta = validate_real(delta, "delta", low=0, high=1, above=True)
    anchor_shift = validate_real(anchor_shift, "anchor_shift")
    if _counter is None:
        _counter = _BoxCounter(cloud)
    return _counter.count(delta, hurst, anchor_shift)


class _BoxCounter:
    """The scale-free part of box counting one cloud, and its work buffers.

    Holds the time extent, the values relative to their componentwise
    minimum (one contiguous row per axis) with their extents, and one float
    and two int64 buffers of one entry per point, which every scale
    overwrites in place.  ``prefixes`` lists numbers k < d of leading value
    coordinates whose graphs are counted too: each scale appends the count
    of the first k coordinates' graph to ``prefix_counts[k]``.
    """

    def __init__(self, cloud, prefixes=()):
        self.times = cloud.times
        self.t_range = np.array([cloud.times.min(), cloud.times.max()])
        origin = cloud.values.min(axis=0)
        self.rel = np.empty((cloud.d, cloud.n))
        np.subtract(cloud.values.T, origin[:, None], out=self.rel)
        # the minimum of v - origin is 0 and, by monotone rounding, its
        # maximum is max(v) - origin
        self.rel_ranges = [np.array([0.0, hi]) for hi in cloud.values.max(axis=0) - origin]
        self.work = np.empty(cloud.n)
        self.key = np.empty(cloud.n, dtype=np.int64)
        self.col = np.empty(cloud.n, dtype=np.int64)
        self.prefix_counts = {k: [] for k in prefixes}

    def count(self, delta, hurst, anchor_shift):
        side = delta**hurst
        tshift = anchor_shift * delta
        vshift = anchor_shift * side
        # the t = 1 cap is integer-valued, so capping before the floor is exact
        cap = np.ceil(1.0 / delta) - 1.0 if anchor_shift == 0.0 else None
        axes = [(self.times, self.t_range, (tshift, delta, cap))]
        axes += [(row, ext, (vshift, side, None)) for row, ext in zip(self.rel, self.rel_ranges)]
        # each index range from the coordinate extents: by monotone rounding,
        # bit for bit the extremes of the floored column
        bounds = []
        for _, ext, scale in axes:
            b = np.empty(2)
            _floor_scaled(ext, *scale, b, b)
            bounds.append((b[0], b[1]))

        def fill(j, out):
            src, _, scale = axes[j]
            _floor_scaled(src, *scale, self.work, out)

        dims = {len(self.rel), *self.prefix_counts}
        key, radices = pack_index_rows(bounds, fill, self.key, self.col)
        if key is not None:
            key.sort()
            counts = {k: self._distinct(key, math.prod(radices[k + 1:])) for k in dims}
        else:
            # the (t, v_1..v_k) box changes where any of its k + 1 sorted rows does
            rows = np.empty((len(axes), self.times.size), dtype=np.int64)
            for j, row in enumerate(rows):
                fill(j, row)
            rows = rows[:, np.lexsort(rows[::-1])]
            changes = np.logical_or.accumulate(rows[:, 1:] != rows[:, :-1], axis=0)
            counts = {k: 1 + int(np.count_nonzero(changes[k])) for k in dims}
        for k, out in self.prefix_counts.items():
            out.append(counts[k])
        return counts[len(self.rel)]

    def _distinct(self, key, divisor):
        """Number of distinct values of key // divisor in the sorted key.

        The quotients go to the int buffer, free once the key is packed,
        and the differences to the float one.
        """
        if divisor > 1:
            quotient = self.col.view(key.dtype)[: key.size]
            np.floor_divide(key, divisor, out=quotient)
            key = quotient
        differs = self.work.view(np.bool_)[: key.size - 1]
        np.not_equal(key[1:], key[:-1], out=differs)
        return 1 + int(np.count_nonzero(differs))


def _floor_scaled(src, shift, width, cap, work, out):
    """out = floor(min((src - shift) / width, cap)), computed in the float array work.

    A zero shift is skipped (x - 0.0 == x bitwise) and a cap of None means
    none; ``out`` may be an integer array, which the floor is cast into.
    """
    if shift != 0.0:
        np.subtract(src, shift, out=work)
        src = work
    np.divide(src, width, out=work)
    if cap is not None:
        np.minimum(work, cap, out=work)
    np.floor(work, out=out, casting="unsafe")


def dyadic_deltas(coarse_exp, fine_exp, per_octave=1):
    """Decreasing ladder 2^-coarse_exp .. 2^-fine_exp with per_octave scales per octave.

    The exponents are whole numbers with 0 <= coarse_exp < fine_exp, so every
    scale lies in (0, 1], per_octave is a whole number >= 1, and fine_exp
    times per_octave is an array index; anything else raises ConfigError.
    """
    coarse_exp = validate_integer(coarse_exp, "coarse_exp")
    fine_exp = validate_integer(fine_exp, "fine_exp")
    per_octave = validate_count(per_octave, "per_octave")
    if not 0 <= coarse_exp < fine_exp:
        raise ConfigError(f"need 0 <= coarse_exp < fine_exp, got {coarse_exp} and {fine_exp}")
    validate_count(fine_exp * per_octave + 1, "the ladder's index range")
    k = np.arange(coarse_exp * per_octave, fine_exp * per_octave + 1) / per_octave
    return 2.0 ** (-k)


def box_count_curve(cloud, deltas, hurst, anchor_shift=0.0):
    """Box counts over a ladder of scales (sorted to decreasing order)."""
    return box_count_curves(cloud, deltas, hurst, (cloud.d,), anchor_shift)[cloud.d]


def box_count_curves(cloud, deltas, hurst, dims, anchor_shift=0.0):
    """Box-count curves of the graphs of the cloud's first k value coordinates.

    Returns {k: BoxCountCurve} for each k in ``dims`` (whole numbers in
    1..cloud.d), each as ``box_count_curve`` gives it for the cloud of the
    first k coordinates: that cloud has the same times and, axis by axis,
    the same values and minima.  One counter of ``cloud`` serves every
    scale, and each scale is one ``parabolic_box_count`` call of ``cloud``,
    looked up as a module global, whose sort also counts the prefixes (see
    the module docstring).
    """
    dims = [validate_count(k, "k") for k in dims]
    if max(dims) > cloud.d:
        raise ConfigError(f"coordinate counts {dims} exceed the cloud's d = {cloud.d}")
    deltas = np.sort(validate_reals(deltas, "deltas", low=0, high=1, above=True))[::-1]
    counter = _BoxCounter(cloud, [k for k in dims if k < cloud.d])
    counts = {cloud.d: [
        parabolic_box_count(cloud, d, hurst, anchor_shift, _counter=counter) for d in deltas
    ]}
    counts.update(counter.prefix_counts)
    return {k: BoxCountCurve(deltas=deltas, counts=counts[k]) for k in dims}


def pack_index_rows(bounds, fill, key, col):
    """One integer key per row of integer index columns, in row order.

    ``bounds`` holds each column's index range (lo, hi) as integer-valued
    floats, and ``fill(j, out)`` writes column j into the integer array
    ``out``.  ``key`` and ``col`` are int64 work arrays of one entry per row;
    the key is returned as a view of ``key``.  Each column is shifted to
    start at 0 and appended to the key with its index range as radix, so
    equal rows get equal keys and keys sort as the rows do
    lexicographically.  The key is int32 when the packed span and every raw
    index fit in int32, and int64 otherwise.  Raises BoxIndexOverflow,
    before any index is cast, for an index of 2^62 or more in magnitude (or
    NaN).  Shared by box counting and occupation histograms.

    Returns the key and each column's radix.  When the product of the
    radices passes 2^62 the key is None and no column is filled: the caller
    sorts the rows themselves.  The key of any leading run of columns is
    the key floor-divided by the product of the radices of the columns
    after it.
    """
    for lo, hi in bounds:
        if not -_KEY_SPAN_MAX < lo <= hi < _KEY_SPAN_MAX:
            raise BoxIndexOverflow(
                f"box indices reach [{lo:.3e}, {hi:.3e}], not inside (-2^62, 2^62); "
                "the scale is too fine or the values too spread for int64 box keys"
            )
    los = [int(lo) for lo, _ in bounds]
    his = [int(hi) for _, hi in bounds]
    radices = [hi - lo + 1 for lo, hi in zip(los, his)]
    if math.prod(radices) > _KEY_SPAN_MAX:
        return None, radices
    if math.prod(radices) <= _NARROW_MAX and -_NARROW_MAX <= min(los) and max(his) <= _NARROW_MAX:
        n = key.size
        key, col = key.view(np.int32)[:n], col.view(np.int32)[:n]
    for j, (lo, radix) in enumerate(zip(los, radices)):
        dst = col if j else key
        fill(j, dst)
        np.subtract(dst, lo, out=dst)
        if j:
            np.multiply(key, radix, out=key)
            np.add(key, col, out=key)
    return key, radices


def _fit_loglog(deltas, counts):
    x = np.log(1.0 / deltas)
    y = np.log(counts.astype(float))
    sxx = np.sum((x - x.mean()) ** 2)
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / sst if sst > 0 else 1.0
    return slope, intercept, r2


def validate_fit_scales(deltas):
    """Return ``deltas`` as a float array if a fit can use them: at least 4
    scales in (0, 1] spanning at least 2 octaves; otherwise raise ConfigError."""
    deltas = validate_reals(deltas, "scales", low=0, high=1, above=True)   # 2^-1075 is 0
    if deltas.size < 4:
        raise ConfigError("need at least 4 scales")
    if deltas.max() < (4.0 - 1e-12) * deltas.min():   # a ratio could overflow
        raise ConfigError("scales must span at least 2 octaves")
    return deltas


def estimate_parabolic_dimension(
    cloud,
    deltas,
    hurst,
    trim_octaves=DEFAULT_TRIM_OCTAVES,
    max_count_fraction=DEFAULT_MAX_COUNT_FRACTION,
    anchor_shift=0.0,
    *,
    _curve=None,
):
    """Box-dimension estimate: least-squares slope of log N(delta) vs log(1/delta).

    Needs at least 4 scales spanning 2 octaves, with cloud resolution finer
    than the smallest retained scale.  By default one octave is dropped at
    each end of the ladder and scales whose count exceeds
    ``max_count_fraction`` of the cloud size are dropped as
    resolution-limited.  The raw slope is returned unclamped; the retained
    range is reported in ``fit_range``.  ``_curve``, when given, is the
    curve to fit, counted already over ``deltas`` at ``hurst`` on a cloud of
    ``cloud.n`` points (a graph-dimension job counts one cloud for the
    graphs of several of its coordinate prefixes); it takes the place of
    ``box_count_curve(cloud, deltas, hurst, anchor_shift)``.  Raises
    ConfigError unless ``trim_octaves`` is a finite number >= 0 and
    ``max_count_fraction`` a finite number > 0 (1 or more keeps every scale).
    """
    deltas = validate_fit_scales(deltas)
    trim_octaves = validate_real(trim_octaves, "trim_octaves", low=0)
    max_count_fraction = validate_real(max_count_fraction, "max_count_fraction", low=0,
                                       above=True)
    curve = box_count_curve(cloud, deltas, hurst, anchor_shift) if _curve is None else _curve
    d, c = curve.deltas, curve.counts

    keep = np.ones(d.size, dtype=bool)
    if trim_octaves > 0:
        f = 2.0**trim_octaves
        keep &= (d <= d.max() / f * (1 + 1e-12)) & (d >= d.min() * f * (1 - 1e-12))
    keep &= c <= max_count_fraction * cloud.n
    if keep.sum() < MIN_FIT_POINTS:
        raise DegenerateRange(
            f"only {int(keep.sum())} scales usable after trimming "
            f"(need {MIN_FIT_POINTS}); enlarge the cloud or coarsen the ladder"
        )
    dk, ck = d[keep], c[keep]
    if np.all(ck == ck[0]):
        raise DegenerateRange("all box counts equal over the fit range")
    slope, intercept, r2 = _fit_loglog(dk, ck)
    return DimensionEstimate(
        exponent=slope,
        intercept=intercept,
        r_squared=r2,
        fit_range=(float(dk.min()), float(dk.max())),
        n_points_used=int(dk.size),
        curve=curve,
    )


def energy_integral_mc(measure_points, values, gamma, hurst, pair_seed=0):
    """Weighted double sum of rho_H(u, v)^(-gamma/H) over distinct point pairs.

    With n <= ENERGY_PAIR_CAP all n*(n-1) ordered pairs enter and the result
    is deterministic in the points; beyond the cap, ENERGY_DEFAULT_PAIRS
    ordered pairs are subsampled with a seeded counter-based stream and
    rescaled, trading exactness for bounded cost.  ``pair_seed`` must be a
    whole, non-negative number in either regime (ConfigError otherwise).
    Two points of equal time and value lie at distance 0, where the kernel
    diverges; in either regime they raise NumericalError, naming the pair,
    before anything is summed.  Times, weights or values that are not finite
    raise ConfigError, whatever object holds the points, and a sum that is not
    finite (pairs so close that a term overflows) raises NumericalError.
    """
    hurst = validate_hurst(hurst)
    pair_seed = validate_seed(pair_seed, "pair_seed")
    gamma = validate_real(gamma, "gamma", low=0, above=True)
    times = validate_reals(measure_points.times, "times", min_size=2)
    weights = validate_reals(measure_points.weights, "weights")
    v = validate_reals(values, "values", ndim=(1, 2), min_size=0)
    v = v[:, None] if v.ndim == 1 else v
    n = times.size
    if v.shape[0] != n or weights.size != n or v.shape[1] == 0:
        raise ConfigError("values (n, d) with d >= 1 and weights (n,) must align with "
                          "the n measure points")
    # sorted lexicographically, equal points are neighbours
    pts = np.column_stack([times, v])
    order = np.lexsort(pts.T[::-1])
    same = (pts[order[1:]] == pts[order[:-1]]).all(axis=1)
    if same.any():
        k = int(np.argmax(same))
        i, j = sorted(order[k:k + 2].tolist())
        raise NumericalError(f"points {i} and {j} coincide at t={float(times[i])!r}, so their "
                             "rho_H distance is 0 and the energy sum diverges")
    q = gamma / hurst

    with np.errstate(over="ignore", divide="ignore"):   # a sum that overflows is refused below
        if n <= ENERGY_PAIR_CAP:
            energy = 0.0
            # row-chunked full double sum, diagonal excluded
            chunk = max(1, 2**22 // max(n, 1))
            for start in range(0, n, chunk):
                rows = np.arange(start, min(start + chunk, n))
                rho = rho_h((times[rows, None], v[rows, None, :]), (times, v), hurst)
                rho[rows - start, rows] = np.inf
                energy += float(np.sum(weights[rows, None] * weights[None, :] * rho**-q))
        else:
            rng = philox_stream(pair_seed, (3,))
            got = 0
            acc = 0.0
            while got < ENERGY_DEFAULT_PAIRS:
                m = min(ENERGY_DEFAULT_PAIRS - got, 2**20)
                ii = rng.integers(0, n, size=m)
                jj = rng.integers(0, n, size=m)
                ok = ii != jj
                ii, jj = ii[ok], jj[ok]
                rho = rho_h((times[ii], v[ii]), (times[jj], v[jj]), hurst)
                acc += float(np.sum(weights[ii] * weights[jj] * rho**-q))
                got += int(ok.sum())
            # mean over sampled ordered pairs, rescaled to all n*(n-1) of them
            energy = acc / got * n * (n - 1)
    if not math.isfinite(energy):
        raise NumericalError(f"the energy sum is {energy}: some pair of points lies too "
                             "close for its rho_H^(-gamma/H) term to be a finite float")
    return energy


def validate_gamma(gamma, hurst, d):
    """Refuse, with GammaAtBoundary, a gamma within ``GAMMA_BOUNDARY_MARGIN`` of H*d,
    and with ConfigError one that is not a finite number.

    The decay in t of the kernel expectation switches branch at gamma = H*d.
    """
    gamma = validate_real(gamma, "gamma")
    if abs(gamma - hurst * d) < GAMMA_BOUNDARY_MARGIN:
        raise GammaAtBoundary(
            f"gamma={gamma} within {GAMMA_BOUNDARY_MARGIN} of H*d={hurst * d}"
        )


def validate_kernel_times(t):
    """The kernel Monte Carlo's times as a float array if each lies in (0, 1], else ConfigError."""
    return validate_reals(t, "t", low=0, high=1, above=True)


def kernel_expectation_mc(t, alpha, hurst, gamma, d, n, seed=0):
    """Monte Carlo mean of (max(t^H, t^alpha * ||N||_inf))^(-gamma/H).

    t is one time in (0, 1], N a d-dimensional standard normal (d a whole number
    >= 1) and alpha <= H (AlphaExceedsH otherwise); gamma at the branch point H*d
    is refused by ``validate_gamma``.
    """
    alpha, hurst = validate_alpha(alpha, hurst)
    t = validate_real(t, "t", low=0, high=1, above=True)
    d = validate_count(d, "d")
    validate_gamma(gamma, hurst, d)
    n = validate_count(n, "n")
    rng = philox_stream(seed, (4,))
    total = 0.0
    remaining = n
    while remaining > 0:
        m = min(remaining, 2**20)
        z = rng.standard_normal((m, d))
        sup = np.max(np.abs(z), axis=1)
        total += float(np.sum(np.maximum(t**hurst, t**alpha * sup) ** (-gamma / hurst)))
        remaining -= m
    return total / n
