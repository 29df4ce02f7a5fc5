"""The parabolic scaling law, exact in binary, as a property of the fast paths.

The metric rho_H is built for the scaling (t, x) -> (c t, c^H x).  At
H = 1/2 with c = 1/4 every scaled time, value and scale is a power-of-two
multiple of the original, so on dyadic data each quotient a fast path forms
is the same float and its results must agree bit for bit.  These checks use
no oracle: the law itself is the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafbm.estimators import GraphCloud, energy_integral_mc, parabolic_box_count
from parafbm.fractals import WeightedTimeSet
from parafbm.occupation import l2_density_diagnostic, occupation_histogram


@st.composite
def dyadic_points(draw, min_n=1, max_n=64, distinct=False):
    """n points in d = 1..3: times k / 2^12 in [0, 1), values k / 2^6 in [-64, 64];
    with ``distinct`` no two share a time, so no two coincide."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(min_n, max_n))
    times = draw(st.lists(st.integers(0, 2**12 - 1), min_size=n, max_size=n, unique=distinct))
    values = draw(st.lists(st.integers(-2**12, 2**12), min_size=n * d, max_size=n * d))
    return np.array(times) / 2**12, np.reshape(values, (n, d)) / 2**6


@settings(max_examples=60, deadline=None)
@given(points=dyadic_points(), j=st.integers(0, 12))
def test_box_count_is_invariant_under_parabolic_scaling(points, j):
    # times stay below 1, so the cap that puts t = 1 in the last box never binds
    t, x = points
    delta = 2.0**-j
    count = parabolic_box_count(GraphCloud(t, x), delta, 0.5)
    assert parabolic_box_count(GraphCloud(t / 4, x / 2), delta / 4, 0.5) == count


@settings(max_examples=60, deadline=None)
@given(points=dyadic_points(), eps=st.integers(1, 2**8))
def test_histogram_is_invariant_under_doubled_values_and_cell(points, eps):
    _, x = points
    w = np.full(len(x), 1.0 / len(x))
    h = occupation_histogram(w, x, eps / 2**6)
    h2 = occupation_histogram(w, 2 * x, 2 * eps / 2**6)
    assert np.array_equal(h2.index, h.index)
    assert np.array_equal(h2.mass.view(np.uint64), h.mass.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(points=dyadic_points(min_n=2, max_n=32, distinct=True))
def test_energy_scales_by_4_under_parabolic_scaling(points):
    # rho_H halves under (t/4, x/2) at H = 1/2, so at gamma = 1 each rho^(-2) term is 4x
    t, x = points
    w = WeightedTimeSet(t, np.full(len(t), 1.0 / len(t)))
    scaled = WeightedTimeSet(t / 4, w.weights)
    energy = energy_integral_mc(w, x, gamma=1.0, hurst=0.5)
    assert energy_integral_mc(scaled, x / 2, gamma=1.0, hurst=0.5) == pytest.approx(
        4 * energy, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(points=dyadic_points(), exps=st.lists(st.integers(-6, 8), min_size=2, max_size=6,
                                             unique=True))
def test_l2_diagnostic_scales_by_2_to_minus_d_under_doubling(points, exps):
    # doubling images and radii keeps every pair count, and r^-d gains 2^-d
    _, x = points
    w = np.full(len(x), 1.0 / len(x))
    radii = 2.0 ** -np.sort(exps)
    values = l2_density_diagnostic([x], w, radii)
    doubled = l2_density_diagnostic([2 * x], w, 2 * radii)
    want = values * 2.0 ** -x.shape[1]
    assert np.array_equal(doubled.view(np.uint64), want.view(np.uint64))
