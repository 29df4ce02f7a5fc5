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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import AlphaExceedsH, ConfigError, SingularConditioning
from .fbm import (
    build_covariance_matrix,
    build_mixed_covariance_matrix,
    philox_stream,
    validate_hurst,
    validate_integer,
)

__all__ = [
    "GaussianVectorSpec",
    "conditional_variance",
    "detcov_chain_identity",
    "verify_detcov_lower_bound",
    "lnd_margin",
    "mixed_increment_variance",
    "detcov_margin_sweep",
    "lnd_margin_sweep",
    "lnd_distance_ratio",
]

SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True)
class GaussianVectorSpec:
    """Centered Gaussian vector sampled from an fBm or mixed kernel at fixed times."""

    times: np.ndarray
    kind: str                      # "fbm" or "mixed"
    hurst: float
    alpha_p: float | None = None
    covariance: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ConfigError("times must be a non-empty 1-d array")
        if t.min() <= 0.0 or t.max() > 1.0:
            raise ConfigError("times must lie in (0, 1]")
        validate_hurst(self.hurst)
        object.__setattr__(self, "times", t)
        if self.kind == "fbm":
            cov = build_covariance_matrix(t, self.hurst)
        elif self.kind == "mixed":
            if self.alpha_p is None:
                raise ConfigError("mixed kernel needs alpha_p")
            validate_hurst(self.alpha_p, "alpha_p")
            cov = build_mixed_covariance_matrix(t, self.hurst, self.alpha_p)
        else:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        object.__setattr__(self, "covariance", cov)

    @classmethod
    def fbm(cls, times, hurst):
        return cls(times=times, kind="fbm", hurst=hurst)

    @classmethod
    def mixed(cls, times, hurst, alpha_p):
        return cls(times=times, kind="mixed", hurst=hurst, alpha_p=alpha_p)

    def __len__(self):
        return self.times.size


def _schur_conditional_variance(cov, target, given):
    if len(given) == 0:
        return float(cov[target, target])
    g = np.asarray(given, dtype=int)
    block = cov[np.ix_(g, g)]
    cross = cov[g, target]
    w, v = np.linalg.eigh(block)
    tol = SINGULARITY_RTOL * float(np.trace(block))
    if w.min() <= tol:
        raise SingularConditioning(
            f"conditioning block is singular beyond tolerance "
            f"(min eig {w.min():.3e}, tol {tol:.3e})"
        )
    solved = v @ ((v.T @ cross) / w)
    return max(float(cov[target, target] - cross @ solved), 0.0)


def conditional_variance(spec, target, given=()):
    """Var of coordinate ``target`` given the coordinates in ``given`` (Schur complement).

    Lies between 0 and the unconditional variance; raises
    SingularConditioning when the given-block is numerically singular.
    """
    n = len(spec)
    given = tuple(given)
    if not 0 <= target < n or any(not 0 <= g < n for g in given):
        raise ConfigError("indices out of range")
    if target in given:
        raise ConfigError("target must not be in the conditioning set")
    return _schur_conditional_variance(spec.covariance, target, given)


def detcov_chain_identity(spec):
    """Two routes to det Cov: direct determinant vs product of conditional variances.

    Returns (det, chain_product); they agree to ~1e-8 relative for
    well-conditioned inputs.
    """
    cov = spec.covariance
    det = float(np.linalg.det(cov))
    chain = float(cov[0, 0])
    for k in range(1, len(spec)):
        chain *= _schur_conditional_variance(cov, k, tuple(range(k)))
    return det, chain


def _nearest_prior_bound(times, h2):
    bound = 1.0
    for j, tj in enumerate(times):
        prior = np.concatenate([[0.0], times[:j]])
        bound *= float(np.min(np.abs(tj - prior)) ** h2)
    return bound


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
    hurst = validate_hurst(hurst)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ConfigError("times must be a non-empty 1-d array")
    if np.unique(t).size != t.size or t.min() <= 0.0 or t.max() > 1.0:
        raise ConfigError("times must be distinct and in (0, 1]")
    cov = build_covariance_matrix(t, hurst)
    det = float(np.linalg.det(cov))
    if det <= 0.0:
        raise SingularConditioning("covariance determinant is not positive")
    return det / _nearest_prior_bound(t, 2.0 * hurst)


def lnd_margin(spec, u, conditioning_times=None):
    """Local-nondeterminism ratio for the mixed process.

    ratio = Var(Z0(u) | Z0(t_1), ..., Z0(t_n)) divided by
    min_k |u - t_k|^(2 alpha') + min_k |u - t_k|^(2H), with t_0 = 0 included
    in the minima.  Positive whenever the conditioning block is regular.
    """
    if spec.kind != "mixed":
        raise ConfigError("lnd_margin needs a mixed-kernel spec")
    times = spec.times if conditioning_times is None else np.asarray(
        conditioning_times, dtype=float
    )
    if not 0.0 < u <= 1.0:
        raise ConfigError("u must lie in (0, 1]")
    if np.any(np.abs(times - u) < 1e-15):
        raise ConfigError("u must differ from all conditioning times")
    if times.size == 0:
        # conditioning on nothing: Var(Z0(u)) over the t0=0 bracket
        cvar = u ** (2.0 * spec.hurst) + u ** (2.0 * spec.alpha_p)
    else:
        full = GaussianVectorSpec.mixed(
            np.concatenate([[u], times]), spec.hurst, spec.alpha_p
        )
        cvar = _schur_conditional_variance(
            full.covariance, 0, tuple(range(1, len(full)))
        )
    gaps = np.abs(u - np.concatenate([[0.0], times]))
    bracket = float(np.min(gaps) ** (2.0 * spec.alpha_p) + np.min(gaps) ** (2.0 * spec.hurst))
    return cvar / bracket


def lnd_distance_ratio(hurst, alpha_p, t, r, conditioning_times):
    """Ratio Var(Z0(t) | Z0(s), |s - t| >= r) / r^(2 alpha').

    Times closer to t than r are rejected; bounded below by a positive
    constant uniformly in r for fixed working interval.
    """
    validate_hurst(hurst)
    validate_hurst(alpha_p, "alpha_p")
    s = np.asarray(conditioning_times, dtype=float)
    if not 0.0 < r <= t:
        raise ConfigError("need 0 < r <= t")
    if np.any(np.abs(s - t) < r):
        raise ConfigError("conditioning times must be at distance >= r from t")
    full = GaussianVectorSpec.mixed(np.concatenate([[t], s]), hurst, alpha_p)
    cvar = _schur_conditional_variance(full.covariance, 0, tuple(range(1, len(full))))
    return cvar / r ** (2.0 * alpha_p)


def mixed_increment_variance(s, t, hurst, alpha_p):
    """Variance of Z0(t) - Z0(s): |t-s|^2H + |t-s|^2a'.

    For alpha' <= H and |t - s| <= 1 this lies between |t-s|^2a' and
    2 |t-s|^2a'.
    """
    hurst = validate_hurst(hurst)
    alpha_p = validate_hurst(alpha_p, "alpha_p")
    if alpha_p > hurst:
        raise AlphaExceedsH(f"alpha'={alpha_p} exceeds H={hurst}")
    gap = abs(float(t) - float(s))
    return gap ** (2.0 * hurst) + gap ** (2.0 * alpha_p)


def _config_hash(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _validate_n_configs(n_configs):
    n_configs = validate_integer(n_configs, "n_configs")
    if n_configs < 1:
        raise ConfigError(f"n_configs must be >= 1, got {n_configs}")
    return n_configs


def detcov_margin_sweep(n_configs, hurst_values=(0.2, 0.5, 0.8), max_points=5, seed=0):
    """Randomized sweep of verify_detcov_lower_bound margins.

    Yields one record per configuration: dict with config hash, H, the
    number of times n, and the margin.  The times are sorted, so every
    margin obeys kappa_H^(n-1) <= margin <= 1 (see verify_detcov_lower_bound).
    """
    n_configs = _validate_n_configs(n_configs)
    rng = philox_stream(seed, (5, 0))
    records = []
    for h in hurst_values:
        for _ in range(n_configs):
            n = int(rng.integers(1, max_points + 1))
            # min gap keeps the determinant ratio numerically trustworthy
            t = np.sort(rng.uniform(0.01, 1.0, size=n))
            while np.any(np.diff(t) < 1e-4):
                t = np.sort(rng.uniform(0.01, 1.0, size=n))
            margin = verify_detcov_lower_bound(t, h)
            records.append(
                {
                    "config": _config_hash({"H": h, "times": t.tolist()}),
                    "hurst": h,
                    "n": n,
                    "margin": margin,
                }
            )
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
    """
    n_configs = _validate_n_configs(n_configs)
    rng = philox_stream(seed, (5, 1))
    lo, hi = interval
    records = []
    for _ in range(n_configs):
        n = int(rng.integers(1, max_points + 1))
        pts = np.sort(rng.uniform(lo, hi, size=n + 1))
        while np.any(np.diff(pts) < 1e-5):
            pts = np.sort(rng.uniform(lo, hi, size=n + 1))
        pick = int(rng.integers(0, n + 1))
        u = pts[pick]
        times = np.delete(pts, pick)
        spec = GaussianVectorSpec.mixed(times, hurst, alpha_p)
        ratio = lnd_margin(spec, u)
        records.append(
            {
                "config": _config_hash(
                    {"H": hurst, "a": alpha_p, "u": u, "times": times.tolist()}
                ),
                "u": float(u),
                "n": n,
                "ratio": ratio,
            }
        )
    inf_ratio = min(r["ratio"] for r in records)
    return records, inf_ratio
