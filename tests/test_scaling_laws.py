"""The parabolic scaling law, exact in binary, as a property of the fast paths.

The metric rho_H is built for the scaling (t, x) -> (c t, c^H x).  At
H = 1/2 with c = 1/4 every scaled time, value and scale is a power-of-two
multiple of the original, so on dyadic data each quotient a fast path forms
is the same float and its results must agree bit for bit.  These checks use
no oracle: the law itself is the reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parafbm.estimators import GraphCloud, parabolic_box_count
from parafbm.occupation import occupation_histogram


@st.composite
def dyadic_points(draw, max_n=64):
    """n points in d = 1..3: times k / 2^12 in [0, 1), values k / 2^6 in [-64, 64]."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    times = draw(st.lists(st.integers(0, 2**12 - 1), min_size=n, max_size=n))
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
