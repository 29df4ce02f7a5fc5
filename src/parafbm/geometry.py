"""Anisotropic space-time metric and closed-form dimension bounds.

These pure functions are the oracles the empirical estimators are compared
against, so domain violations raise rather than clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphaExceedsH, ConfigError, HOrderViolation
from .fbm import validate_hurst

__all__ = [
    "ParabolicBox",
    "rho_h",
    "theoretical_graph_dimension",
    "comparison_bounds",
    "holder_graph_bounds",
    "psi_dim_from_metric_dim",
    "metric_dim_from_psi_dim",
]


@dataclass(frozen=True)
class ParabolicBox:
    """Box [a, a+delta] x prod_j [b_j, b_j + delta^H]: time extent delta, space extent delta^H."""

    a: float
    delta: float
    b: np.ndarray
    hurst: float

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError("delta must lie in (0, 1]")
        validate_hurst(self.hurst)
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))

    def contains(self, point):
        t, x = point
        x = np.atleast_1d(np.asarray(x, dtype=float))
        side = self.delta**self.hurst
        return bool(
            self.a <= t <= self.a + self.delta
            and np.all(x >= self.b)
            and np.all(x <= self.b + side)
        )


def rho_h(u, v, hurst):
    """Space-time distance max(|s-t|^H, ||x-y||_inf).

    A metric for every H in (0, 1): |.|^H is a metric on the line and the
    max of metrics is a metric.
    """
    hurst = validate_hurst(hurst)
    s, x = u
    t, y = v
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(max(abs(s - t) ** hurst, np.max(np.abs(x - y))))


def theoretical_graph_dimension(alpha, hurst, dim_a, d):
    """Parabolic dimension of an alpha-fBm graph over a set of dimension dim_a.

    Equals min((H/alpha) * dim_a, dim_a + d*(H - alpha)); requires
    alpha <= H.  Always >= dim_a, strictly so when alpha < H and dim_a > 0.
    """
    alpha = validate_hurst(alpha, "alpha")
    hurst = validate_hurst(hurst)
    if alpha > hurst:
        raise AlphaExceedsH(f"alpha={alpha} exceeds H={hurst}")
    if not 0.0 <= dim_a <= 1.0:
        raise ConfigError("dim_a must lie in [0, 1]")
    if d < 1:
        raise ConfigError("d must be >= 1")
    return min((hurst / alpha) * dim_a, dim_a + d * (hurst - alpha))


def comparison_bounds(dim_psi_h, hurst, hurst_prime, d):
    """Bracket the parabolic dimension at H' from its value at H < H'.

    Returns (lower, upper) with
    lower = max(v, (H'/H) v + 1 - H'/H) and
    upper = min((H'/H) v, v + (H'-H) d) for v = dim_psi_h.
    """
    hurst = validate_hurst(hurst)
    hurst_prime = validate_hurst(hurst_prime, "hurst_prime")
    if hurst >= hurst_prime:
        raise HOrderViolation(f"need H < H', got H={hurst}, H'={hurst_prime}")
    if dim_psi_h < 0.0:
        raise ConfigError("dim_psi_h must be non-negative")
    if d < 1:
        raise ConfigError("d must be >= 1")
    ratio = hurst_prime / hurst
    lower = max(dim_psi_h, ratio * dim_psi_h + 1.0 - ratio)
    upper = min(ratio * dim_psi_h, dim_psi_h + (hurst_prime - hurst) * d)
    return lower, upper


def holder_graph_bounds(alpha, hurst, dim_a, d):
    """Dimension bounds for the graph of an alpha-Holder function over a set.

    lower = dim_a always; upper = min((H/alpha) dim_a, dim_a + (H-alpha) d).
    With alpha = H the two coincide and the graph dimension equals dim_a.
    """
    upper = theoretical_graph_dimension(alpha, hurst, dim_a, d)
    return float(dim_a), upper


def psi_dim_from_metric_dim(dim_rho, hurst):
    """Convert a rho_H-metric dimension to the parabolic dimension (multiply by H)."""
    if dim_rho < 0.0:
        raise ConfigError("dim_rho must be non-negative")
    return validate_hurst(hurst) * dim_rho


def metric_dim_from_psi_dim(dim_psi, hurst):
    """Inverse conversion: parabolic dimension to rho_H-metric dimension (divide by H)."""
    if dim_psi < 0.0:
        raise ConfigError("dim_psi must be non-negative")
    return dim_psi / validate_hurst(hurst)
