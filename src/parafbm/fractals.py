"""Self-similar subsets of [0, 1] with known Hausdorff dimension.

Sets are represented extensionally at a finite generation as a union of
disjoint closed intervals.  The generation-k self-similar ("natural")
measure stands in for the non-constructive Frostman measures: for these
sets it obeys the same mass scaling bound with exponent equal to the
theoretical dimension, which is all downstream estimators rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, GenerationTooLarge, InvalidRatio
from .fbm import (philox_stream, validate_count, validate_hurst, validate_integer, validate_real,
                  validate_reals)

__all__ = [
    "FractalSet",
    "WeightedTimeSet",
    "full_interval",
    "middle_thirds_cantor",
    "generalized_cantor",
    "cantor_with_dimension",
    "sample_natural_measure",
]

#: refuse constructions with more interval records than this
MAX_INTERVALS = 2**20

#: slack of ``FractalSet.contains`` at each interval end
CONTAINS_TOL = 1e-12


@dataclass(frozen=True)
class FractalSet:
    """Finite union of disjoint closed subintervals of [0, 1].

    kind is one of "full-interval", "middle-thirds", "generalized-cantor";
    ``params`` carries (m, r) for the generalized construction.
    """

    intervals: np.ndarray  # shape (m, 2), columns [left, right]
    generation: int
    theoretical_dim: float
    kind: str
    params: tuple = ()

    def __post_init__(self):
        iv = validate_reals(self.intervals, "intervals", low=0, high=1, ndim=(2,))
        if iv.shape[1] != 2 or np.any(iv[:, 0] > iv[:, 1]) or np.any(iv[1:, 0] <= iv[:-1, 1]):
            raise ConfigError("intervals must be (m, 2) rows [left, right], sorted and "
                              f"pairwise disjoint, with left <= right; got shape {iv.shape}")
        validate_real(self.theoretical_dim, "theoretical_dim", low=0, high=1)
        object.__setattr__(self, "intervals", iv)

    def contains(self, t):
        """Boolean mask: which of the given times lie in the set (closed intervals)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        starts = self.intervals[:, 0]
        ends = self.intervals[:, 1]
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)
        return (t >= starts[idx] - CONTAINS_TOL) & (t <= ends[idx] + CONTAINS_TOL)


def full_interval():
    """The whole of [0, 1]; dimension 1."""
    return FractalSet(
        intervals=np.array([[0.0, 1.0]]),
        generation=0,
        theoretical_dim=1.0,
        kind="full-interval",
    )


def _cantor_intervals(m, r, k):
    iv = np.array([[0.0, 1.0]])
    for _ in range(k):
        length = iv[:, 1] - iv[:, 0]
        # m children of relative length r, equally spaced, flush with both ends
        step = (1.0 - m * r) / (m - 1) + r
        starts = (iv[:, 0, None] + np.arange(m) * step * length[:, None]).ravel()
        lengths = np.repeat(length, m) * r
        iv = np.column_stack([starts, starts + lengths])
    return iv


def generalized_cantor(m, r, k):
    """Cantor-type set: m branches of ratio r per generation, dimension ln m / ln(1/r).

    m is a whole number >= 2, r a number > 0 with m r < 1 (InvalidRatio
    otherwise) and the generation k a whole number >= 0; anything else
    raises ConfigError.
    """
    m = validate_count(m, "m")
    r = validate_real(r, "r", low=0, above=True)
    k = validate_integer(k, "generation")
    if m < 2:
        raise ConfigError(f"m must be >= 2, got {m}")
    if m * r >= 1.0:
        raise InvalidRatio(f"need m*r < 1 for disjoint children, got m*r = {m * r}")
    if k < 0:
        raise ConfigError(f"generation must be >= 0, got {k}")
    # m >= 2, so a k past log2 of the cap is too large; refused before m**k,
    # which takes minutes for k = 10^8
    if k > MAX_INTERVALS.bit_length() - 1 or m**k > MAX_INTERVALS:
        raise GenerationTooLarge(f"{m}^{k} intervals exceed the cap of {MAX_INTERVALS}")
    return FractalSet(
        intervals=_cantor_intervals(m, r, k),
        generation=k,
        theoretical_dim=math.log(m) / math.log(1.0 / r),
        kind="generalized-cantor",
        params=(m, r),
    )


def middle_thirds_cantor(k):
    """Classical middle-thirds construction at generation k; dimension ln 2 / ln 3."""
    return replace(generalized_cantor(2, 1.0 / 3.0, k), kind="middle-thirds")


def cantor_with_dimension(dim, k, m=2):
    """Generalized Cantor set of m branches with prescribed dimension: r solves
    ln m / ln(1/r) = dim, a number in (0, 1)."""
    dim = validate_hurst(dim, "dim")
    m = validate_count(m, "m")   # small enough for m ** (-1 / dim)
    return generalized_cantor(m, m ** (-1.0 / dim), k)


@dataclass(frozen=True)
class WeightedTimeSet:
    """Times in [0, 1] with non-negative weights summing to 1."""

    times: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = validate_reals(self.times, "times", low=0, high=1)
        w = validate_reals(self.weights, "weights", low=0)
        if t.shape != w.shape or not abs(w.sum() - 1.0) <= 1e-12:
            raise ConfigError("times and weights must have equal length, the weights summing to 1")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.times.size


def sample_natural_measure(fset, n, seed=0):
    """Draw n points from the generation-k self-similar measure of ``fset``.

    Intervals at generation k carry equal mass; the draw is uniform within
    the chosen interval.  Weights are 1/n each.  An n or seed that is not a
    whole number (256.0 counts as 256), or a negative seed, raises ConfigError.
    """
    n = validate_count(n, "n")
    rng = philox_stream(seed, (2,))
    iv = fset.intervals
    idx = rng.integers(0, iv.shape[0], size=n)
    u = rng.random(n)
    times = iv[idx, 0] + u * (iv[idx, 1] - iv[idx, 0])
    return WeightedTimeSet(times=times, weights=np.full(n, 1.0 / n))
