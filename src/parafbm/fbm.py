"""Exact simulation of fractional Brownian motion and the mixed process B^H + B^a'.

Two exact samplers are provided: dense Cholesky factorization of the
increment covariance for arbitrary grids (n <= 4096 by default) and
circulant embedding of the stationary increment sequence for uniform grids
(Dietrich & Newsam, SIAM J. Sci. Comput. 18 (1997); practical up to ~2^20
points).  The embedding of n increments is a real symmetric 2n-circulant,
so both its eigenvalues and each sample come from real-output FFTs of the
n+1 non-redundant coefficients rather than complex transforms of all 2n.
Increments are simulated and summed, which conditions much better than
factoring the path covariance directly.

Randomness is counter-based (Philox) with one stream per
(seed, process tag, coordinate), so d-dimensional paths are reproducible
and independent of generation order.
"""

from __future__ import annotations

import csv
import io
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
    "philox_stream",
    "TimeGrid",
    "SamplePath",
    "fbm_covariance",
    "mixed_covariance",
    "build_covariance_matrix",
    "build_mixed_covariance_matrix",
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

#: total bytes of memoised circulant eigenvalue arrays; one 2^20-point grid
#: needs 16 MiB, so this keeps two such grids or many small ones
CIRCULANT_CACHE_BYTES = 32 * 2**20

_UNIFORM_RTOL = 1e-9

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def validate_hurst(value, name="hurst"):
    """Check a Hurst index lies in the open interval (0, 1) and return it as float."""
    h = float(value)
    if not 0.0 < h < 1.0:
        raise ConfigError(f"{name} must lie in (0, 1), got {value}")
    return h


def validate_integer(value, name):
    """Return a whole number (an integer, or a float with no fractional part) as int.

    Bools, fractional or non-finite numbers and non-numbers raise ConfigError
    rather than being truncated by ``int``.
    """
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
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ConfigError("times must be a non-empty 1-d array")
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ConfigError("times must lie in [0, 1]")
        if np.any(np.diff(t) <= 0.0):
            raise ConfigError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        gaps = np.diff(t) if t[0] == 0.0 else np.diff(np.concatenate([[0.0], t]))
        uniform = gaps.size == 0 or bool(
            np.allclose(gaps, gaps[0], rtol=_UNIFORM_RTOL, atol=1e-15)
        )
        object.__setattr__(self, "uniform", uniform)

    def __len__(self):
        return self.times.size

    @classmethod
    def regular(cls, n, include_zero=True):
        """Uniform n-point grid of [0, 1]; with ``include_zero`` the grid is linspace(0,1,n)."""
        if n < 1:
            raise ConfigError("n must be >= 1")
        if include_zero:
            if n == 1:
                return cls(np.array([0.0]))
            return cls(np.linspace(0.0, 1.0, n))
        return cls(np.arange(1, n + 1) / n)

    @property
    def positive_times(self):
        return self.times[1:] if self.times[0] == 0.0 else self.times

    def spec(self):
        """JSON-serializable description of the grid."""
        t = self.times
        if self.uniform and t.size >= 2:
            return {
                "kind": "uniform",
                "n": int(t.size),
                "t0": float(t[0]),
                "t1": float(t[-1]),
            }
        return {"kind": "explicit", "times": t.tolist()}


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
        if self.grid.times[0] == 0.0 and not np.all(v[:, 0] == 0.0):
            raise ConfigError("path value at t=0 must be 0 in every coordinate")
        object.__setattr__(self, "values", v)

    @property
    def d(self):
        return self.values.shape[0]


def fbm_covariance(s, t, hurst):
    """Covariance of one fBm coordinate: (|t|^2H + |s|^2H - |t-s|^2H) / 2.

    Accepts scalars or broadcasting arrays; symmetric in (s, t).
    """
    h2 = 2.0 * validate_hurst(hurst)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = 0.5 * (np.abs(t) ** h2 + np.abs(s) ** h2 - np.abs(t - s) ** h2)
    return out if out.ndim else float(out)


def mixed_covariance(s, t, hurst, alpha_p):
    """Covariance of one coordinate of Z = B^H + B^a' (independent components)."""
    return fbm_covariance(s, t, hurst) + fbm_covariance(s, t, alpha_p)


def build_covariance_matrix(times, hurst):
    """Exact fBm covariance matrix over ``times``; symmetric positive semidefinite."""
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise ConfigError("times must be non-empty")
    return fbm_covariance(t[:, None], t[None, :], hurst)


def build_mixed_covariance_matrix(times, hurst, alpha_p):
    """Covariance matrix of the mixed process Z over ``times``."""
    return build_covariance_matrix(times, hurst) + build_covariance_matrix(
        times, alpha_p
    )


def _increment_covariance(tpos, hurst):
    """Covariance of increments over consecutive gaps of (0, t_1, ..., t_n)."""
    h2 = 2.0 * hurst
    lo = np.concatenate([[0.0], tpos[:-1]])
    hi = tpos
    # Cov(B(hi_i)-B(lo_i), B(hi_j)-B(lo_j)) expanded through the fBm covariance
    a = np.abs(hi[:, None] - lo[None, :]) ** h2
    b = np.abs(lo[:, None] - hi[None, :]) ** h2
    c = np.abs(hi[:, None] - hi[None, :]) ** h2
    d = np.abs(lo[:, None] - lo[None, :]) ** h2
    return 0.5 * (a + b - c - d)


_circulant_cache = OrderedDict()   # (n, hurst, gap) -> read-only eigenvalues, LRU order
_circulant_cache_lock = threading.Lock()


def _fgn_circulant_eigenvalues(n, hurst, gap):
    """Eigenvalues of the 2n-circulant embedding of the fGn covariance.

    Raises CovarianceNotPSD when a negative eigenvalue exceeds the clamp
    tolerance; small negatives (roundoff) are clamped to zero.  Results are
    memoised per (n, hurst, gap) as read-only arrays, least recently used
    first out, within CIRCULANT_CACHE_BYTES in total; failures are not
    memoised, so each call for a bad grid raises afresh.
    """
    key = (int(n), float(hurst), float(gap))
    with _circulant_cache_lock:
        lam = _circulant_cache.get(key)
        if lam is not None:
            _circulant_cache.move_to_end(key)
            return lam
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    acov = 0.5 * ((k + 1) ** h2 - 2.0 * k**h2 + np.abs(k - 1) ** h2) * gap**h2
    # the circulant's first row is acov[0..n] followed by acov[n-1..1], the
    # Hermitian extension of acov, so its real spectrum is hfft(acov, 2n)
    lam = np.fft.hfft(acov, 2 * n)
    floor = -CIRCULANT_CLAMP_TOL * lam.max()
    if lam.min() < floor:
        raise CovarianceNotPSD(
            f"circulant embedding has eigenvalue {lam.min():.3e} below "
            f"tolerance {floor:.3e} (n={n}, H={hurst})"
        )
    lam = np.maximum(lam, 0.0)
    lam.flags.writeable = False
    if lam.nbytes <= CIRCULANT_CACHE_BYTES:
        with _circulant_cache_lock:
            _circulant_cache[key] = lam
            total = sum(a.nbytes for a in _circulant_cache.values())
            while total > CIRCULANT_CACHE_BYTES:
                total -= _circulant_cache.popitem(last=False)[1].nbytes
    return lam


def _sample_fgn_circulant(lam, rng):
    """One exact fGn sample of length n from precomputed embedding eigenvalues.

    The 2n normals fill the non-redundant half of a Hermitian spectrum:
    z[0] at frequency 0, z[1] at frequency n, and (z[k+1] + i z[n+k]) / sqrt 2
    at frequency k for 0 < k < n.  Scaled by sqrt(lam), its orthonormal
    Hermitian transform hfft is real and stationary with the fGn covariance;
    it is computed as the real inverse FFT (irfft) of the conjugate half
    spectrum, and its first n entries are the sample.
    """
    m2 = lam.size            # 2n
    n = m2 // 2
    z = rng.standard_normal(m2)
    half = np.empty(n + 1, dtype=complex)
    re, im = half.real, half.imag
    # filled in place, scaled by the reciprocal: numpy divides a complex by a
    # real as a product with 1/c, so this is the complex expression bit for bit
    re[0], re[n], im[0], im[n] = z[0], z[1], 0.0, 0.0
    np.multiply(z[2:n + 1], _INV_SQRT2, out=re[1:n])
    np.multiply(z[n + 1:m2], -_INV_SQRT2, out=im[1:n])
    root = np.sqrt(lam[:n + 1], out=z[:n + 1])   # z is spent: reuse its memory
    re *= root
    im *= root
    return np.fft.irfft(half, m2, norm="ortho")[:n]


def _sample_increments_cholesky(tpos, hurst, rng):
    cov = _increment_covariance(tpos, hurst)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise CovarianceNotPSD(
            f"increment covariance failed Cholesky factorization "
            f"(n={tpos.size}, H={hurst})"
        ) from exc
    return chol @ rng.standard_normal(tpos.size)


def generate_fbm_path(hurst, grid, d=1, seed=0, method="auto", _tag=0):
    """Exact d-dimensional fBm sample on ``grid``.

    Each coordinate is an independent centered Gaussian vector with the exact
    fBm covariance, a deterministic function of (hurst, grid, d, seed).
    ``method`` is "auto" (circulant embedding on uniform grids, Cholesky
    otherwise), "cholesky", or "circulant".

    Raises ConfigError when ``d`` or ``seed`` is not a whole number (a bool
    or 0.7 is refused, not truncated) or ``seed`` is negative, and CovarianceNotPSD when
    factorization/embedding fails beyond tolerance, which signals a grid or
    precision problem.
    """
    hurst = validate_hurst(hurst)
    if not isinstance(grid, TimeGrid):
        grid = TimeGrid(np.asarray(grid, dtype=float))
    d = validate_integer(d, "d")
    if d < 1:
        raise ConfigError("d must be >= 1")
    seed = validate_seed(seed)
    tpos = grid.positive_times
    n = tpos.size
    has_zero = grid.times[0] == 0.0

    if method == "auto":
        method = "circulant" if grid.uniform and n > 1 else "cholesky"
    if method == "circulant" and not grid.uniform:
        raise ConfigError("circulant embedding requires a uniform grid")
    if method not in ("cholesky", "circulant"):
        raise ConfigError(f"unknown method {method!r}")

    lam = None
    if method == "circulant":
        try:
            # uniform grids have constant gap equal to the first positive time
            lam = _fgn_circulant_eigenvalues(n, hurst, tpos[0])
        except CovarianceNotPSD:
            if n <= MAX_CHOLESKY_N:
                method = "cholesky"
            else:
                raise
    if method == "cholesky" and n > MAX_CHOLESKY_N:
        raise ConfigError(
            f"dense Cholesky sampler is capped at n={MAX_CHOLESKY_N}; "
            "use a uniform grid for larger n"
        )

    values = np.zeros((d, len(grid)))
    col0 = 1 if has_zero else 0
    for j in range(d):
        rng = philox_stream(seed, (_tag, j))
        if method == "circulant":
            inc = _sample_fgn_circulant(lam, rng)
        else:
            inc = _sample_increments_cholesky(tpos, hurst, rng)
        values[j, col0:] = np.cumsum(inc)
    return SamplePath(grid=grid, values=values, hurst_components=(hurst,), seed=(seed,))


def generate_mixed_path(hurst, alpha_p, grid, d=1, seed_pair=(0, 1), method="auto"):
    """Exact sample of Z = B^H + B^a' with independent component streams.

    The two components use disjoint stream tags, so they are independent
    even when the two seeds coincide.
    """
    hurst = validate_hurst(hurst)
    alpha_p = validate_hurst(alpha_p, "alpha_p")
    s1, s2 = seed_pair
    p1 = generate_fbm_path(hurst, grid, d=d, seed=s1, method=method, _tag=0)
    p2 = generate_fbm_path(alpha_p, grid, d=d, seed=s2, method=method, _tag=1)
    return SamplePath(
        grid=p1.grid,
        values=p1.values + p2.values,
        hurst_components=(hurst, alpha_p),
        seed=p1.seed + p2.seed,
    )


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


def path_from_json(doc):
    """Rebuild a SamplePath from the envelope produced by :func:`path_to_json`."""
    gspec = doc["grid"]
    if gspec["kind"] == "uniform":
        n, t0, t1 = gspec["n"], gspec["t0"], gspec["t1"]
        times = np.linspace(t0, t1, n) if t0 == 0.0 else np.arange(1, n + 1) * (t1 / n)
        grid = TimeGrid(times)
    else:
        grid = TimeGrid(np.asarray(gspec["times"], dtype=float))
    comps = (doc["hurst"],) if doc.get("alpha_p") is None else (doc["hurst"], doc["alpha_p"])
    return SamplePath(
        grid=grid,
        values=np.asarray(doc["values"], dtype=float),
        hurst_components=comps,
        seed=tuple(doc["seed"]),
    )


def path_csv_string(path):
    """CSV serialization as a string (convenience for tests and small outputs)."""
    buf = io.StringIO()
    path_to_csv(path, buf)
    return buf.getvalue()
