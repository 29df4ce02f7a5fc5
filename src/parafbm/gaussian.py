"""Exact finite-dimensional Gaussian computations for fBm and the mixed process.

Conditional variances go through an eigenvalue-based Schur complement with a
relative singularity tolerance of 1e-12 * trace: fBm covariance matrices on
fine grids are notoriously ill-conditioned and silent noise should become an
error instead.  The local-nondeterminism constants of the mixed process are
non-constructive, so its sweeps report empirical infima of ratios rather than
asserting any value.  The fBm predecessor chain is not of that kind: for
increasing times each factor Var(B(t_k) | B(t_1..t_{k-1})) lies between
kappa_H (t_k - t_{k-1})^2H and (t_k - t_{k-1})^2H with an explicit kappa_H,
see verify_detcov_lower_bound.

Every covariance here is ``fbm.fbm_covariance`` over the last axis of a
time array: one matrix for a spec, one stack per size for the sweeps, and
the sum of the kernels at H and alpha' for the mixed process.  Each
computation has one stacked kernel; a per-config function runs it on a
stack of one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularConditioning
from .fbm import (
    fbm_covariance,
    philox_stream,
    validate_count,
    validate_hurst,
    validate_integer,
    validate_real,
    validate_reals,
)

__all__ = [
    "GaussianVectorSpec",
    "conditional_variance",
    "detcov_chain_identity",
    "verify_detcov_lower_bound",
    "lnd_margin",
    "detcov_margin_sweep",
    "lnd_margin_sweep",
    "lnd_distance_ratio",
]

SINGULARITY_RTOL = 1e-12


def _covariance(times, hurst, alpha_p=None):
    """Covariance over the last axis of ``times``: a matrix for a 1-d array,
    a stack for a 2-d one; the mixed kernel when ``alpha_p`` is given."""
    s, t = times[..., :, None], times[..., None, :]
    cov = fbm_covariance(s, t, hurst)
    return cov if alpha_p is None else cov + fbm_covariance(s, t, alpha_p)


@dataclass(frozen=True)
class GaussianVectorSpec:
    """Centered Gaussian vector sampled from an fBm or mixed kernel at fixed times.

    The kernel is the mixed one of indices (H, alpha_p) when ``alpha_p`` is
    given, fBm's otherwise: ``GaussianVectorSpec(times, H)`` for fBm,
    ``GaussianVectorSpec(times, H, alpha_p)`` for B^H + B^a'.
    """

    times: np.ndarray
    hurst: float
    alpha_p: float | None = None
    covariance: np.ndarray = field(init=False)

    def __post_init__(self):
        t = validate_reals(self.times, "times", low=0, high=1, above=True)
        hurst = validate_hurst(self.hurst)
        alpha_p = None if self.alpha_p is None else validate_hurst(self.alpha_p, "alpha_p")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "hurst", hurst)
        object.__setattr__(self, "alpha_p", alpha_p)
        object.__setattr__(self, "covariance", _covariance(t, hurst, alpha_p))

    def __len__(self):
        return self.times.size


def _conditional_variances(cov):
    """Var(X_0 | X_1..X_m), floored at 0, for each matrix of a (k, m+1, m+1) stack.

    The conditioning blocks are diagonalised by one eigh over the stack;
    raises SingularConditioning when a block's smallest eigenvalue is at most
    SINGULARITY_RTOL times its trace.  With m = 0 this is Var(X_0).
    """
    if cov.shape[1] == 1:
        return cov[:, 0, 0].tolist()
    block = cov[:, 1:, 1:]
    w, v = np.linalg.eigh(block)
    tol = SINGULARITY_RTOL * np.trace(block, axis1=1, axis2=2)
    # a strided view of the cross vectors takes another BLAS path and changes the last bit
    cross = np.ascontiguousarray(cov[:, 1:, 0])
    out = []
    for var, c, wk, vk, tk in zip(cov[:, 0, 0], cross, w, v, tol):
        if wk.min() <= tk:
            raise SingularConditioning(f"conditioning block is singular beyond tolerance "
                                       f"(min eig {wk.min():.3e}, tol {tk:.3e})")
        out.append(max(float(var - c @ (vk @ ((vk.T @ c) / wk))), 0.0))
    return out


def conditional_variance(spec, target, given=()):
    """Var of coordinate ``target`` given the coordinates in ``given`` (Schur complement).

    Lies between 0 and the unconditional variance; raises
    SingularConditioning when the given-block is numerically singular, and
    ConfigError unless target and ``given`` are distinct indices in range.
    """
    n = len(spec)
    target = validate_integer(target, "target")
    try:
        given = tuple(validate_integer(g, "given") for g in given)
    except TypeError as exc:
        raise ConfigError(f"given must be a sequence of indices, got {given!r}") from exc
    if not 0 <= target < n or any(not 0 <= g < n for g in given):
        raise ConfigError("indices out of range")
    if len({target, *given}) != 1 + len(given):
        raise ConfigError(f"target and given must be distinct indices, got {target}, {given}")
    idx = [target, *given]
    return _conditional_variances(spec.covariance[np.ix_(idx, idx)][None])[0]


def detcov_chain_identity(spec):
    """Two routes to det Cov: direct determinant vs product of conditional variances.

    Returns (det, chain_product); they agree to ~1e-8 relative for
    well-conditioned inputs.
    """
    det = float(np.linalg.det(spec.covariance))
    chain = 1.0
    for k in range(len(spec)):
        chain *= conditional_variance(spec, k, range(k))
    return det, chain


def _nearest_prior_bound(times, h2):
    """prod_j (min_{i<j} |t_j - t_i|)^h2 with t_0 = 0, over a list of floats."""
    bound, prior = 1.0, [0.0]
    for tj in times:
        bound *= min(abs(tj - ti) for ti in prior) ** h2
        prior.append(tj)
    return bound


def _detcov_margins(times, hurst):
    """verify_detcov_lower_bound's margin for each row of a (k, n) stack of
    times, with one determinant over the stack of covariances."""
    dets = np.linalg.det(_covariance(times, hurst))
    if np.any(dets <= 0.0):
        raise SingularConditioning("covariance determinant is not positive")
    return [det / _nearest_prior_bound(row, 2.0 * hurst)
            for row, det in zip(times.tolist(), dets.tolist())]


def verify_detcov_lower_bound(times, hurst):
    """Ratio det Cov / prod_j (min_{i<j} |t_j - t_i|)^2H with t_0 = 0.

    Returns the margin for reporting.  For increasing times t_1 < ... < t_n
    the nearest prior time is the predecessor, and by the chain identity the
    margin is prod_{k=2..n} Var(B(t_k) | B(t_1..t_{k-1})) / (t_k - t_{k-1})^2H,
    so that

        kappa_H^(n-1) <= margin <= 1,
        kappa_H = Gamma(2H) sin(pi H) / Gamma(H + 1/2)^2,

    with equality at H = 1/2 (kappa = 1; ~0.774 at H = 0.2, ~0.652 at
    H = 0.8).  Each factor is at most 1 because B(t_{k-1}) is one admissible
    linear predictor of B(t_k).  It is at least kappa_H because, in the
    Mandelbrot-Van Ness representation B(t) = c_H int ((t-s)_+^(H-1/2) -
    (-s)_+^(H-1/2)) dW(s), the past values are measurable with respect to
    the noise W up to t_{k-1}, and conditioning on that noise leaves
    c_H^2 (t_k - t_{k-1})^2H / (2H) = kappa_H (t_k - t_{k-1})^2H.  For
    H != 1/2 the margin therefore falls below 1, and the constant-free
    product bound fails.
    """
    t = validate_reals(times, "times", low=0, high=1, above=True)
    if np.unique(t).size != t.size:
        raise ConfigError("times must be distinct and in (0, 1]")
    return _detcov_margins(t[None], validate_hurst(hurst))[0]


def _lnd_ratios(points, hurst, alpha_p):
    """lnd_margin's ratio for each row (u, t_1..t_n) of a (k, n+1) stack."""
    cvars = _conditional_variances(_covariance(points, hurst, alpha_p))
    ratios = []
    for (u, *times), cvar in zip(points.tolist(), cvars):
        gap = min(abs(u - t) for t in [0.0, *times])
        ratios.append(cvar / (gap ** (2.0 * alpha_p) + gap ** (2.0 * hurst)))
    return ratios


def lnd_margin(spec, u):
    """Local-nondeterminism ratio for the mixed process.

    ratio = Var(Z0(u) | Z0(t_1), ..., Z0(t_n)) divided by
    min_k |u - t_k|^(2 alpha') + min_k |u - t_k|^(2H), with t_0 = 0 included
    in the minima, the t_k the times of ``spec``.  Positive whenever the
    conditioning block is regular.
    """
    if spec.alpha_p is None:
        raise ConfigError("lnd_margin needs a mixed-kernel spec")
    u = validate_real(u, "u", low=0, high=1, above=True)
    if np.any(np.abs(spec.times - u) < 1e-15):
        raise ConfigError("u must differ from all conditioning times")
    return _lnd_ratios(np.concatenate([[u], spec.times])[None], spec.hurst, spec.alpha_p)[0]


def lnd_distance_ratio(hurst, alpha_p, t, r, conditioning_times):
    """Ratio Var(Z0(t) | Z0(s), |s - t| >= r) / r^(2 alpha').

    Times closer to t than r are rejected; bounded below by a positive
    constant uniformly in r for fixed working interval.
    """
    hurst = validate_hurst(hurst)
    alpha_p = validate_hurst(alpha_p, "alpha_p")
    s = validate_reals(conditioning_times, "conditioning_times", low=0, high=1, above=True,
                       min_size=0)
    r = validate_real(r, "r", low=0, above=True)
    t = validate_real(t, "t", low=r, high=1)
    if np.any(np.abs(s - t) < r):
        raise ConfigError("conditioning times must be at distance >= r from t")
    full = GaussianVectorSpec(np.concatenate([[t], s]), hurst, alpha_p)
    return conditional_variance(full, 0, range(1, len(full))) / r ** (2.0 * alpha_p)


#: json.dumps(doc, sort_keys=True) builds an encoder per call; one serves all
_HASH_ENCODER = json.JSONEncoder(sort_keys=True)


def _config_hash(doc):
    return hashlib.sha256(_HASH_ENCODER.encode(doc).encode()).hexdigest()[:16]


def _validate_sweep(n_configs, max_points, interval, min_gap, extra=0):
    """(n_configs, max_points, lo, hi) of a sweep, or ConfigError.

    Each config draws at most max_points + extra sorted times from (lo, hi)
    and redraws until consecutive ones are at least ``min_gap`` apart, which
    can only succeed when hi - lo > (max_points + extra - 1) * min_gap.
    """
    n_configs = validate_count(n_configs, "n_configs")
    max_points = validate_count(max_points, "max_points")
    try:
        lo, hi = interval
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"interval must be a pair of numbers, got {interval!r}") from exc
    lo = validate_real(lo, "the interval's lo", low=0, above=True)
    hi = validate_real(hi, "the interval's hi", low=lo, high=1, above=True)
    if not hi - lo > (max_points + extra - 1) * min_gap:
        raise ConfigError(
            f"{max_points + extra} times at least {min_gap} apart do not fit "
            f"in the interval ({lo}, {hi})"
        )
    return n_configs, max_points, lo, hi


def _sorted_draw(rng, size, lo, hi, min_gap):
    """``size`` sorted uniform draws from (lo, hi) as floats, redrawn until
    consecutive ones are at least ``min_gap`` apart."""
    while True:
        t = np.sort(rng.uniform(lo, hi, size=size)).tolist()
        if all(b - a >= min_gap for a, b in zip(t, t[1:])):
            return t


def _stacks(rows, sizes):
    """Per size n in ``sizes``: the indices of the rows of that size and the
    (k, n) stack of their first n entries."""
    for n in np.unique(sizes).tolist():
        idx = np.flatnonzero(sizes == n)
        yield n, idx.tolist(), rows[idx, :n]


def detcov_margin_sweep(n_configs, hurst_values=(0.2, 0.5, 0.8), max_points=5, seed=0):
    """Randomized sweep of verify_detcov_lower_bound margins.

    Returns one record per configuration: dict with config hash, H, the
    number of times n, and the margin.  The times are sorted, so every
    margin obeys kappa_H^(n-1) <= margin <= 1 (see verify_detcov_lower_bound).

    Every config is drawn first, in the order of the per-config loop; the
    configs of one H and one n then go through verify_detcov_lower_bound's
    kernel as one stack.  Raises ConfigError unless ``n_configs`` and
    ``max_points`` are whole numbers >= 1 and ``hurst_values`` is a
    non-empty sequence of numbers in (0, 1).
    """
    n_configs, max_points, lo, hi = _validate_sweep(n_configs, max_points, (0.01, 1.0), 1e-4)
    hursts = [validate_hurst(h, "hurst_values")
              for h in validate_reals(hurst_values, "hurst_values").tolist()]
    rng = philox_stream(seed, (5, 0))
    times = np.empty((len(hursts) * n_configs, max_points))
    sizes = np.empty(len(times), dtype=int)
    for i in range(len(times)):
        n = sizes[i] = int(rng.integers(1, max_points + 1))
        # the min gap keeps the determinant ratio numerically trustworthy
        times[i, :n] = _sorted_draw(rng, n, lo, hi, 1e-4)
    records = [None] * len(times)
    for base, h in zip(range(0, len(times), n_configs), hursts):
        block = slice(base, base + n_configs)
        for n, idx, stack in _stacks(times[block], sizes[block]):
            for i, t, margin in zip(idx, stack.tolist(), _detcov_margins(stack, h)):
                records[base + i] = {
                    "config": _config_hash({"H": h, "times": t}),
                    "hurst": h,
                    "n": n,
                    "margin": margin,
                }
    return records


def lnd_margin_sweep(
    n_configs,
    hurst=0.7,
    alpha_p=0.35,
    interval=(0.1, 1.0),
    max_points=6,
    seed=0,
):
    """Randomized sweep of lnd_margin ratios on a working interval.

    Returns the records and their empirical infimum, the reported stand-in
    for the non-constructive constant.

    Every config (u and n conditioning times, all 1e-5 apart in
    ``interval``) is drawn first, in the order of the per-config loop; the
    configs of one n then go through lnd_margin's kernel as one stack.
    Raises ConfigError unless ``n_configs`` and ``max_points`` are
    whole numbers >= 1, 0 < lo < hi <= 1 and hi - lo > max_points * 1e-5.
    """
    n_configs, max_points, lo, hi = _validate_sweep(
        n_configs, max_points, interval, 1e-5, extra=1)
    hurst = validate_hurst(hurst)
    alpha_p = validate_hurst(alpha_p, "alpha_p")
    rng = philox_stream(seed, (5, 1))
    points = np.empty((n_configs, max_points + 1))   # u, then the conditioning times
    sizes = np.empty(n_configs, dtype=int)
    for i in range(n_configs):
        n = int(rng.integers(1, max_points + 1))
        t = _sorted_draw(rng, n + 1, lo, hi, 1e-5)
        u = t.pop(int(rng.integers(0, n + 1)))
        points[i, :n + 1] = [u, *t]
        sizes[i] = n + 1
    records = [None] * n_configs
    for size, idx, stack in _stacks(points, sizes):
        for i, (u, *times), ratio in zip(idx, stack.tolist(), _lnd_ratios(stack, hurst, alpha_p)):
            records[i] = {
                "config": _config_hash({"H": hurst, "a": alpha_p, "u": u, "times": times}),
                "u": u,
                "n": size - 1,
                "ratio": ratio,
            }
    return records, min(r["ratio"] for r in records)
