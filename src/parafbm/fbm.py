"""Exact simulation of fractional Brownian motion and the mixed process B^H + B^a'.

The grid picks one of two exact samplers: circulant embedding of the
stationary increment sequence on a uniform grid with two or more increments
(Dietrich & Newsam, SIAM J. Sci. Comput. 18 (1997); practical up to ~2^20
points), and dense Cholesky factorization of the increment covariance on
any other grid (n <= 4096).  The embedding of n increments is a real
symmetric 2n-circulant, so both its eigenvalues and each sample come from
real-output FFTs of the n+1 non-redundant coefficients rather than complex
transforms of all 2n.  In exact arithmetic its eigenvalues are nonnegative
for every H in (0, 1) (Craigmile, J. Time Ser. Anal. 24 (2003)); one below
the rounding clamp raises CovarianceNotPSD, with no fallback to Cholesky.
Each grid's square roots of the eigenvalues 0..n, the only ones a draw
reads, are memoised (n+1 values).  A sampler keeps two arrays of path size,
which every coordinate's draw reuses: its 2n normals, into which the inverse
FFT is written, and the half spectrum.
Increments are simulated and summed, which conditions much better than
factoring the path covariance directly.

``fbm_covariance`` is the one statement of the path covariance kernel; it
broadcasts, so matrices, stacks and the mixed kernel are spelled with it.
The increment covariance the Cholesky sampler factors is the kernel's one
restatement, expanded over the gaps of the grid.

Randomness is counter-based (Philox) with one stream per
(seed, process tag, coordinate), so d-dimensional paths are reproducible
and independent of generation order.
"""

from __future__ import annotations

import csv
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CovarianceNotPSD

__all__ = [
    "validate_hurst",
    "validate_integer",
    "validate_seed",
    "validate_count",
    "validate_real",
    "validate_reals",
    "philox_stream",
    "TimeGrid",
    "SamplePath",
    "fbm_covariance",
    "generate_fbm_path",
    "generate_mixed_path",
    "path_to_csv",
    "path_to_json",
    "path_from_json",
]

#: largest grid for the dense Cholesky sampler; beyond this use a uniform grid
MAX_CHOLESKY_N = 4096

#: relative magnitude of negative circulant eigenvalues that is clamped to 0
CIRCULANT_CLAMP_TOL = 1e-8

#: total bytes of memoised circulant spectral roots (n+1 per grid of n
#: increments); one 2^20-point grid needs 8 MiB, so this keeps two such grids
#: or many small ones
CIRCULANT_CACHE_BYTES = 16 * 2**20

_UNIFORM_RTOL = 1e-9

#: the largest array length, so the largest count a run can use
_ARRAY_LENGTH_MAX = int(np.iinfo(np.intp).max)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def validate_hurst(value, name="hurst"):
    """Return a Hurst index in the open interval (0, 1) as float.

    Strings ("0.5"), bools and other non-numbers raise ConfigError.
    """
    if isinstance(value, (bool, np.bool_)) or not (
            isinstance(value, numbers.Real) and 0.0 < value < 1.0):
        raise ConfigError(f"{name} must be a number in (0, 1), got {value!r}")
    return float(value)


def validate_integer(value, name):
    """Return a whole number (an integer, or a float with no fractional part) as int.

    Bools, fractional or non-finite numbers and non-numbers raise ConfigError
    rather than being truncated by ``int``.
    """
    if type(value) is int:
        return value
    if not isinstance(value, (bool, np.bool_)):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def validate_seed(value, name="seed"):
    """Return a whole, non-negative seed as int; anything else raises ConfigError."""
    seed = validate_integer(value, name)
    if seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def validate_count(value, name):
    """Return a whole number from 1 to the largest array length as int;
    anything else raises ConfigError."""
    count = validate_integer(value, name)
    if count < 1:
        raise ConfigError(f"{name} must be >= 1, got {count}")
    if count > _ARRAY_LENGTH_MAX:
        raise ConfigError(f"{name} must be at most {_ARRAY_LENGTH_MAX}, the largest array "
                          f"length, got {value!r}")
    return count


def validate_real(value, name, low=-math.inf, high=math.inf, above=False):
    """Return a finite real number in [low, high], or (low, high] if ``above``, as float.

    Bools (JSON true is not 1), strings, None, NaN, infinities and integers
    too large for a float raise ConfigError.
    """
    try:
        finite = not isinstance(value, (bool, np.bool_)) and isinstance(
            value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if not (value > low if above else value >= low) or value > high:
        rules = [f"{'>' if above else '>='} {low}"] if low > -math.inf else []
        rules += [f"<= {high}"] if high < math.inf else []
        raise ConfigError(f"{name} must be {' and '.join(rules)}, got {value!r}")
    return float(value)


def validate_reals(value, name, low=-math.inf, high=math.inf, above=False, ndim=(1,),
                   min_size=1):
    """Return a float64 array (the value itself if it is one) of ``min_size`` or
    more finite real numbers in [low, high], or (low, high] if ``above``, whose
    number of dimensions is in ``ndim``; its min and max are its two passes.

    Anything else raises ConfigError naming ``name``: bools (in a list of
    numbers too), strings (numeric ones too), None and other objects, integers
    too large for a float, complex numbers, ragged nesting, NaN and infinities.
    """
    try:
        arr = np.asarray(value)
        # numpy reads a bool in a list of numbers as 0 or 1
        real = arr.dtype.kind in "iuf" and (isinstance(value, np.ndarray) or not any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat))
    except (ValueError, TypeError, OverflowError):   # ragged nesting, among others
        real = False
    if not (real and arr.ndim in ndim and arr.size >= min_size):
        shown = " ".join(f"{value!r:.80}".split())   # on one line, as the CLI prints it
        raise ConfigError(f"{name} must be a {' or '.join(map(str, ndim))}-d array of "
                          f"{min_size} or more real numbers, got {shown}")
    arr = arr.astype(np.float64, copy=False)
    # a NaN is the min and the max; an empty array has min inf and max -inf
    lo, hi = float(arr.min(initial=math.inf)), float(arr.max(initial=-math.inf))
    if not (-math.inf < lo and hi < math.inf and (lo > low if above else lo >= low)
            and hi <= high):
        rule = "be finite numbers" if low == -math.inf and high == math.inf else (
            f"lie in {'(' if above or low == -math.inf else '['}{low!r}, {high!r}"
            f"{']' if high < math.inf else ')'}")
        got = "a NaN" if math.isnan(lo) else f"entries from {lo!r} to {hi!r}"
        raise ConfigError(f"{name} must {rule}, got {got}")
    return arr


def philox_stream(seed, spawn_key):
    """Counter-based Philox generator for one seed and spawn key.

    The spawn key names the consumer, so streams of one seed are independent:
    fBm (process tag, coordinate), natural measure (2,), energy pairs (3,),
    kernel MC (4,), Gaussian sweeps (5, sweep).  The seed goes through
    :func:`validate_seed`, so 0.7 or -1 raises rather than being truncated.
    """
    ss = np.random.SeedSequence(entropy=validate_seed(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times in [0, 1].

    ``uniform`` is true when all gaps (including the implicit gap from 0 to
    the first time) are equal, which enables the circulant-embedding sampler.
    """

    times: np.ndarray
    uniform: bool = field(init=False)

    def __post_init__(self):
        t = validate_reals(self.times, "times", low=0, high=1)
        steps = np.diff(t)
        if np.any(steps <= 0.0):
            raise ConfigError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        gaps = steps if t[0] == 0.0 else np.concatenate([t[:1], steps])
        uniform = gaps.size == 0 or bool(
            np.allclose(gaps, gaps[0], rtol=_UNIFORM_RTOL, atol=1e-15)
        )
        object.__setattr__(self, "uniform", uniform)

    def __len__(self):
        return self.times.size

    @classmethod
    def regular(cls, n):
        """Uniform n-point grid of [0, 1]: linspace(0, 1, n), so n = 1 gives [0]."""
        return cls(np.linspace(0.0, 1.0, validate_count(n, "n")))

    @property
    def positive_times(self):
        return self.times[1:] if self.times[0] == 0.0 else self.times

    def spec(self):
        """JSON-serializable description of the grid.

        A uniform grid that its (n, t0, t1) rebuild bit for bit is written
        in that compact form; every other grid lists its times.
        """
        t = self.times
        if self.uniform and t.size >= 2:
            n, t0, t1 = int(t.size), float(t[0]), float(t[-1])
            if np.array_equal(_uniform_times(n, t0, t1), t):
                return {"kind": "uniform", "n": n, "t0": t0, "t1": t1}
        return {"kind": "explicit", "times": t.tolist()}


def _uniform_times(n, t0, t1):
    """The times of a uniform grid spec: linspace from 0, else k * t1 / n."""
    return np.linspace(t0, t1, n) if t0 == 0.0 else np.arange(1, n + 1) * (t1 / n)


@dataclass(frozen=True)
class SamplePath:
    """A d-coordinate sample path on a time grid.

    ``values`` has shape (d, n); ``hurst_components`` holds one Hurst index
    for plain fBm, two (H, alpha') for the mixed process; ``seed`` is the
    integer seed (or pair) the path is a deterministic function of.
    """

    grid: TimeGrid
    values: np.ndarray
    hurst_components: tuple
    seed: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != len(self.grid):
            raise ConfigError(
                f"values shape {v.shape} does not match grid length {len(self.grid)}"
            )
        # any() is true for NaN as well as for a nonzero value; -0.0 passes
        if self.grid.times[0] == 0.0 and v[:, 0].any():
            raise ConfigError("path value at t=0 must be 0 in every coordinate")
        object.__setattr__(self, "values", v)

    @property
    def d(self):
        return self.values.shape[0]


def fbm_covariance(s, t, hurst):
    """Covariance of one fBm coordinate: (|t|^2H + |s|^2H - |t-s|^2H) / 2.

    The package's one statement of the kernel.  Accepts scalars or
    broadcasting arrays and is symmetric in (s, t): the matrix over times
    ``t`` is ``fbm_covariance(t[:, None], t, hurst)``, the (k, n, n) stack
    over the rows of a (k, n) array is ``fbm_covariance(t[:, :, None],
    t[:, None, :], hurst)``, each of its matrices bit for bit the one its row
    alone gives, and the mixed process B^H + B^a' has the sum of the kernels
    at H and a'.
    """
    h2 = 2.0 * validate_hurst(hurst)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = 0.5 * (np.abs(t) ** h2 + np.abs(s) ** h2 - np.abs(t - s) ** h2)
    return out if out.ndim else float(out)


def _increment_covariance(tpos, hurst):
    """Covariance of increments over consecutive gaps of (0, t_1, ..., t_n).

    The kernel's |t|^2H terms cancel in the difference, leaving four gap
    powers, each a shifted block of one (n+1)^2 matrix of gap powers;
    factoring this rather than the path covariance is what keeps the
    Cholesky sampler well conditioned.
    """
    p = np.concatenate([[0.0], tpos])
    # Cov(B(p_i+1)-B(p_i), B(p_j+1)-B(p_j)) from the one matrix of gap powers
    g = np.abs(p[:, None] - p[None, :]) ** (2.0 * hurst)
    return 0.5 * (g[1:, :-1] + g[:-1, 1:] - g[1:, 1:] - g[:-1, :-1])


_circulant_cache = OrderedDict()   # (n, hurst, gap) -> read-only spectral root, LRU order
_circulant_cache_lock = threading.Lock()


def _fgn_autocovariance(n, hurst, gap):
    """fGn autocovariance at lags 0..n for the gap ``gap``, built in place.

    ½((k+1)^2H - 2 k^2H + |k-1|^2H) gap^2H, by the same operations in the
    same order as the one-expression form, in three (n+1) arrays rather
    than the expression's temporaries.
    """
    h2 = 2.0 * hurst
    k = np.arange(n + 1, dtype=float)
    acov = k + 1
    acov **= h2
    lag = k - 1
    np.abs(lag, out=lag)
    lag **= h2
    k **= h2
    k *= 2.0
    acov -= k
    acov += lag
    acov *= 0.5
    acov *= gap**h2
    return acov


def _fgn_circulant_eigenvalues(n, hurst, gap):
    """The 2n eigenvalues of the circulant embedding of the fGn covariance.

    Raises CovarianceNotPSD when a negative eigenvalue exceeds the clamp
    tolerance; small negatives (roundoff) are clamped to zero in place.
    Not memoised: the sampler keeps only :func:`_fgn_circulant_root`.
    """
    # the circulant's first row is acov[0..n] followed by acov[n-1..1], the
    # Hermitian extension of acov, so its real spectrum is hfft(acov, 2n)
    lam = np.fft.hfft(_fgn_autocovariance(n, hurst, gap), 2 * n)
    floor = -CIRCULANT_CLAMP_TOL * lam.max()
    if lam.min() < floor:
        raise CovarianceNotPSD(
            f"circulant embedding has eigenvalue {lam.min():.3e} below "
            f"tolerance {floor:.3e} (n={n}, H={hurst})"
        )
    return np.maximum(lam, 0.0, out=lam)


def _fgn_circulant_root(n, hurst, gap):
    """sqrt of the clamped eigenvalues 0..n, the spectral scale of each draw.

    The other n-1 eigenvalues mirror these and no draw reads them, so the
    root is kept as a compact (n+1) copy that does not hold the 2n spectrum
    alive.  Results are memoised per (n, hurst, gap) as read-only arrays,
    least recently used first out, within CIRCULANT_CACHE_BYTES in total;
    failures are not memoised, so each call for a bad grid raises afresh.
    """
    key = (int(n), float(hurst), float(gap))
    with _circulant_cache_lock:
        root = _circulant_cache.get(key)
        if root is not None:
            _circulant_cache.move_to_end(key)
            return root
    root = np.sqrt(_fgn_circulant_eigenvalues(n, hurst, gap)[:n + 1])
    root.flags.writeable = False
    if root.nbytes <= CIRCULANT_CACHE_BYTES:
        with _circulant_cache_lock:
            _circulant_cache[key] = root
            total = sum(a.nbytes for a in _circulant_cache.values())
            while total > CIRCULANT_CACHE_BYTES:
                total -= _circulant_cache.popitem(last=False)[1].nbytes
    return root


def _circulant_sampler(root):
    """rng -> one exact fGn sample of length n, from the spectral root (n+1).

    The 2n normals fill the non-redundant half of a Hermitian spectrum:
    z[0] at frequency 0, z[1] at frequency n, and (z[k+1] + i z[n+k]) / sqrt 2
    at frequency k for 0 < k < n.  Scaled by the root of the eigenvalues,
    its orthonormal Hermitian transform hfft is real and stationary with the
    fGn covariance; it is computed as the real inverse FFT (irfft) of the
    conjugate half spectrum, written over the spent normals, whose first n
    entries are the sample.  Every draw reuses the sampler's two arrays of
    path size, z and the half spectrum, so a sample is valid only until the
    next draw.
    """
    n = root.size - 1
    m2 = 2 * n
    z = np.empty(m2)
    half = np.empty(n + 1, dtype=complex)
    re, im = half.real, half.imag

    def draw(rng):
        rng.standard_normal(out=z)
        # filled in place, scaled by the reciprocal: numpy divides a complex by
        # a real as a product with 1/c, so this is the complex expression bit
        # for bit
        re[0], re[n], im[0], im[n] = z[0], z[1], 0.0, 0.0
        np.multiply(z[2:n + 1], _INV_SQRT2, out=re[1:n])
        np.multiply(z[n + 1:m2], -_INV_SQRT2, out=im[1:n])
        np.multiply(re, root, out=re)
        np.multiply(im, root, out=im)
        return np.fft.irfft(half, m2, norm="ortho", out=z)[:n]

    return draw


def _cholesky_sampler(tpos, hurst):
    """rng -> exact increments over the gaps of (0, tpos), from one dense factor."""
    cov = _increment_covariance(tpos, hurst)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise CovarianceNotPSD(
            f"increment covariance failed Cholesky factorization "
            f"(n={tpos.size}, H={hurst})"
        ) from exc
    return lambda rng: chol @ rng.standard_normal(tpos.size)


def _increment_sampler(hurst, grid):
    """rng -> exact increments for one Hurst index on ``grid``.

    A uniform grid with two or more increments uses circulant embedding;
    any other grid uses the dense Cholesky factor, up to MAX_CHOLESKY_N
    points.  The spectral root or the factor is computed once here and
    shared by every coordinate the sampler draws; a circulant sample is
    valid only until the sampler's next draw.
    """
    tpos = grid.positive_times
    n = tpos.size
    if grid.uniform and n > 1:
        # uniform grids have constant gap equal to the first positive time
        return _circulant_sampler(_fgn_circulant_root(n, hurst, tpos[0]))
    if n > MAX_CHOLESKY_N:
        raise ConfigError(
            f"dense Cholesky sampler is capped at n={MAX_CHOLESKY_N}; "
            "use a uniform grid for larger n"
        )
    return _cholesky_sampler(tpos, hurst)


def _sample_path(grid, d, hursts, seeds, tags):
    """SamplePath summing independent fBm components coordinatewise.

    Component k has Hurst index ``hursts[k]`` and validated seed
    ``seeds[k]``; its coordinate j is the cumulative sum of its increments
    from the stream (seeds[k], (tags[k], j)).  The first component is summed
    into the row in place and the others are added to it, so a sum of
    components is bit for bit the sum of their separate paths.  A time 0 in
    the grid keeps the value 0.
    """
    if not isinstance(grid, TimeGrid):
        grid = TimeGrid(grid)
    d = validate_count(d, "d")
    samplers = [_increment_sampler(h, grid) for h in hursts]
    (first, seed0, tag0), *others = zip(samplers, seeds, tags)
    values = np.zeros((d, len(grid)))
    rows = values[:, len(grid) - len(grid.positive_times):]
    # each coordinate's increments are summed before its sampler draws again
    for j, row in enumerate(rows):
        first(philox_stream(seed0, (tag0, j))).cumsum(out=row)
        for sample, seed, tag in others:
            inc = sample(philox_stream(seed, (tag, j)))
            row += inc.cumsum(out=inc)
    return SamplePath(grid=grid, values=values, hurst_components=hursts, seed=seeds)


def generate_fbm_path(hurst, grid, d=1, seed=0, _tag=0):
    """Exact d-dimensional fBm sample on ``grid``.

    Each coordinate is an independent centered Gaussian vector with the exact
    fBm covariance, a deterministic function of (hurst, grid, d, seed).
    The grid picks the sampler: circulant embedding on a uniform grid with
    two or more increments, the dense Cholesky factor on any other grid.

    Raises ConfigError when ``d`` or ``seed`` is not a whole number (a bool
    or 0.7 is refused, not truncated) or ``seed`` is negative, or when a
    non-uniform grid has more than MAX_CHOLESKY_N points.  Raises
    CovarianceNotPSD when the embedding or the factorization fails beyond
    tolerance, which signals a grid or precision problem; a rejected
    embedding is not retried with Cholesky.
    """
    return _sample_path(grid, d, (validate_hurst(hurst),), (validate_seed(seed),), (_tag,))


def generate_mixed_path(hurst, alpha_p, grid, d=1, seed_pair=(0, 1)):
    """Exact sample of Z = B^H + B^a' with independent component streams.

    The two components use disjoint stream tags, so they are independent
    even when the two seeds coincide.  The values are bit for bit the sum
    of ``generate_fbm_path(hurst, ..., seed=s1)`` (tag 0) and of
    ``generate_fbm_path(alpha_p, ..., seed=s2, _tag=1)``.
    """
    s1, s2 = seed_pair
    hursts = (validate_hurst(hurst), validate_hurst(alpha_p, "alpha_p"))
    return _sample_path(grid, d, hursts, (validate_seed(s1), validate_seed(s2)), (0, 1))


def path_to_csv(path, file):
    """Write a SamplePath to an open text file as CSV with columns t, x1, ..., xd."""
    writer = csv.writer(file)
    writer.writerow(["t"] + [f"x{j + 1}" for j in range(path.d)])
    for i, t in enumerate(path.grid.times):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in path.values[:, i]])


def path_to_json(path):
    """JSON envelope for a SamplePath: Hurst indices, seed, grid spec and values."""
    comp = path.hurst_components
    return {
        "hurst": comp[0],
        "alpha_p": comp[1] if len(comp) > 1 else None,
        "seed": list(path.seed),
        "grid": path.grid.spec(),
        "values": path.values.tolist(),
    }


def _entry(doc, *keys):
    """``doc[keys[0]][keys[1]]...``; ConfigError names a key that is missing."""
    for i, key in enumerate(keys):
        if not isinstance(doc, dict) or key not in doc:
            raise ConfigError(f"the path envelope lacks the key {'.'.join(keys[:i + 1])!r}")
        doc = doc[key]
    return doc


def path_from_json(doc):
    """Rebuild a SamplePath from the envelope of :func:`path_to_json`; a missing key or a
    value of the wrong type, shape or range (a NaN value too) raises ConfigError naming it."""
    values = validate_reals(_entry(doc, "values"), "values", ndim=(2,))
    if _entry(doc, "grid", "kind") == "uniform":
        n = validate_count(_entry(doc, "grid", "n"), "grid.n")
        if n != values.shape[1]:   # refused before n times are made
            raise ConfigError(f"grid.n = {n} does not match the {values.shape[1]} values")
        times = _uniform_times(n, *(validate_real(_entry(doc, "grid", k), f"grid.{k}", low=0,
                                                  high=1) for k in ("t0", "t1")))
    else:
        times = validate_reals(_entry(doc, "grid", "times"), "grid.times", low=0, high=1)
    keys = ("hurst",) if doc.get("alpha_p") is None else ("hurst", "alpha_p")
    seeds = _entry(doc, "seed")
    if not isinstance(seeds, list):
        raise ConfigError(f"seed must be a list of seeds, got {seeds!r}")
    return SamplePath(grid=TimeGrid(times), values=values,
                      hurst_components=tuple(validate_hurst(_entry(doc, k), k) for k in keys),
                      seed=tuple(validate_seed(s) for s in seeds))
