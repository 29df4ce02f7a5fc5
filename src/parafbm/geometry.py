"""Anisotropic space-time metric and closed-form dimension bounds.

These pure functions are the oracles the empirical estimators are compared
against, so domain violations raise rather than clamp.
"""

from __future__ import annotations

import numpy as np

from .errors import AlphaExceedsH, HOrderViolation
from .fbm import validate_count, validate_hurst, validate_real

__all__ = [
    "rho_h",
    "validate_alpha",
    "validate_hurst_order",
    "theoretical_graph_dimension",
    "comparison_bounds",
    "holder_graph_bounds",
    "psi_dim_from_metric_dim",
    "metric_dim_from_psi_dim",
]


def rho_h(u, v, hurst):
    """Space-time distance max(|s-t|^H, ||x-y||_inf) between u = (s, x), v = (t, y).

    A metric for every H in (0, 1): |.|^H is a metric on the line and the
    max of metrics is a metric.  It broadcasts: the times may be arrays and
    the values arrays of vectors, normed over their last axis, and the
    distances come back as an array.  Two points give a float, bit for bit
    the entry an array of pairs gives them.
    """
    hurst = validate_hurst(hurst)
    (s, x), (t, y) = u, v
    gap = np.abs(np.subtract(s, t, dtype=float))
    # the power of an array, never of a scalar, whose pow rounds differently
    dt = (np.atleast_1d(gap) ** hurst).reshape(gap.shape)
    dx = np.max(np.abs(np.atleast_1d(np.subtract(x, y, dtype=float))), axis=-1)
    rho = np.maximum(dt, dx)
    return rho if rho.ndim else float(rho)


def validate_alpha(alpha, hurst):
    """Return alpha and H, each in (0, 1), with alpha <= H (AlphaExceedsH otherwise)."""
    alpha = validate_hurst(alpha, "alpha")
    hurst = validate_hurst(hurst)
    if alpha > hurst:
        raise AlphaExceedsH(f"alpha={alpha} exceeds H={hurst}")
    return alpha, hurst


def validate_hurst_order(hurst, hurst_prime):
    """Return H and H', each in (0, 1), with H < H' (HOrderViolation otherwise)."""
    hurst = validate_hurst(hurst)
    hurst_prime = validate_hurst(hurst_prime, "hurst_prime")
    if hurst >= hurst_prime:
        raise HOrderViolation(f"need H < H', got H={hurst}, H'={hurst_prime}")
    return hurst, hurst_prime


def theoretical_graph_dimension(alpha, hurst, dim_a, d):
    """Parabolic dimension of an alpha-fBm graph over a set of dimension dim_a.

    Equals min((H/alpha) * dim_a, dim_a + d*(H - alpha)); requires
    alpha <= H and a whole d >= 1.  Always >= dim_a, strictly so when
    alpha < H and dim_a > 0.
    """
    alpha, hurst = validate_alpha(alpha, hurst)
    dim_a = validate_real(dim_a, "dim_a", low=0, high=1)
    d = validate_count(d, "d")
    return min((hurst / alpha) * dim_a, dim_a + d * (hurst - alpha))


def comparison_bounds(dim_psi_h, hurst, hurst_prime, d):
    """Bracket the parabolic dimension at H' from its value at H < H'.

    Returns (lower, upper) with
    lower = max(v, (H'/H) v + 1 - H'/H) and
    upper = min((H'/H) v, v + (H'-H) d) for v = dim_psi_h; d is a whole
    number >= 1.
    """
    hurst, hurst_prime = validate_hurst_order(hurst, hurst_prime)
    dim_psi_h = validate_real(dim_psi_h, "dim_psi_h", low=0)
    d = validate_count(d, "d")
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
    dim_rho = validate_real(dim_rho, "dim_rho", low=0)
    return validate_hurst(hurst) * dim_rho


def metric_dim_from_psi_dim(dim_psi, hurst):
    """Inverse conversion: parabolic dimension to rho_H-metric dimension (divide by H)."""
    dim_psi = validate_real(dim_psi, "dim_psi", low=0)
    return dim_psi / validate_hurst(hurst)
