import math

import numpy as np
import pytest

from parafbm.errors import ConfigError, GenerationTooLarge, InvalidRatio
from parafbm.fractals import (
    FractalSet,
    WeightedTimeSet,
    cantor_with_dimension,
    full_interval,
    generalized_cantor,
    middle_thirds_cantor,
    sample_natural_measure,
)


class TestMiddleThirds:
    def test_generation_zero(self):
        c = middle_thirds_cantor(0)
        np.testing.assert_allclose(c.intervals, [[0.0, 1.0]])

    def test_generation_one(self):
        c = middle_thirds_cantor(1)
        np.testing.assert_allclose(c.intervals, [[0, 1 / 3], [2 / 3, 1]], atol=1e-15)

    def test_dimension_value(self):
        assert middle_thirds_cantor(3).theoretical_dim == pytest.approx(0.63093, abs=1e-5)

    def test_counts_and_lengths(self):
        for k in range(0, 10):
            c = middle_thirds_cantor(k)
            assert c.intervals.shape[0] == 2**k
            lengths = c.intervals[:, 1] - c.intervals[:, 0]
            np.testing.assert_allclose(lengths, 3.0**-k, rtol=1e-12)

    def test_generation_cap(self):
        with pytest.raises(GenerationTooLarge):
            middle_thirds_cantor(25)


class TestGeneralizedCantor:
    def test_matches_middle_thirds(self):
        # the same set bit for bit, apart from its kind
        for k in range(13):
            a = generalized_cantor(2, 1 / 3, k)
            b = middle_thirds_cantor(k)
            assert a.intervals.tobytes() == b.intervals.tobytes()
            assert (a.generation, a.theoretical_dim, a.params) == (
                b.generation, b.theoretical_dim, b.params)
            assert (a.kind, b.kind) == ("generalized-cantor", "middle-thirds")

    def test_half_dimension(self):
        c = generalized_cantor(2, 0.25, 1)
        np.testing.assert_allclose(c.intervals, [[0, 0.25], [0.75, 1.0]])
        assert c.theoretical_dim == pytest.approx(0.5)

    def test_three_branch(self):
        c = generalized_cantor(3, 0.2, 2)
        assert c.intervals.shape[0] == 9
        lengths = c.intervals[:, 1] - c.intervals[:, 0]
        np.testing.assert_allclose(lengths, 1 / 25, rtol=1e-12)
        assert c.theoretical_dim == pytest.approx(math.log(3) / math.log(5), abs=1e-12)

    def test_invalid_ratio(self):
        with pytest.raises(InvalidRatio):
            generalized_cantor(2, 0.5, 1)
        with pytest.raises(InvalidRatio):
            generalized_cantor(4, 0.3, 1)

    def test_disjoint_and_contained_up_to_k12(self):
        for m, r in ((2, 1 / 3), (2, 0.25), (3, 0.2)):
            for k in range(0, 13):
                if m**k > 2**20:
                    break
                c = generalized_cantor(m, r, k)
                iv = c.intervals
                assert iv.min() >= 0.0 and iv.max() <= 1.0
                assert np.all(iv[1:, 0] > iv[:-1, 1])

    def test_dimension_monotone_in_m_and_r(self):
        ms = [2, 3, 4, 5]
        rs = [0.05, 0.1, 0.15, 0.19]
        dims = np.array([
            [generalized_cantor(m, r, 0).theoretical_dim for r in rs] for m in ms
        ])
        assert np.all(np.diff(dims, axis=0) > 0)   # increasing in m
        assert np.all(np.diff(dims, axis=1) > 0)   # increasing in r


class TestCantorWithDimension:
    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("dim", [0.2, 0.5, 0.9])
    def test_dimension_and_branches(self, dim, m):
        c = cantor_with_dimension(dim, 2, m)
        assert c.params[0] == m and c.intervals.shape == (m**2, 2)
        assert c.theoretical_dim == pytest.approx(dim, rel=1e-12)

    def test_two_branches_by_default(self):
        a, b = cantor_with_dimension(0.7, 3), generalized_cantor(2, 2 ** (-1 / 0.7), 3)
        assert a.intervals.tobytes() == b.intervals.tobytes() and a.params == b.params

    @pytest.mark.parametrize("dim", [0.0, 1.0, -0.5])
    def test_dimension_outside_unit_interval_rejected(self, dim):
        with pytest.raises(ConfigError, match=r"dim must be a number in \(0, 1\)"):
            cantor_with_dimension(dim, 2, 3)


class TestNaturalMeasure:
    def test_full_interval_equal_weights(self):
        pts = sample_natural_measure(full_interval(), 4, seed=0)
        np.testing.assert_allclose(pts.weights, 0.25)

    def test_containment(self):
        c = middle_thirds_cantor(6)
        pts = sample_natural_measure(c, 2000, seed=1)
        assert np.all(c.contains(pts.times))

    def test_generation_one_frequencies(self):
        # each child interval carries mass 1/2; 3 SE binomial check
        c = middle_thirds_cantor(1)
        n = 10**4
        pts = sample_natural_measure(c, n, seed=2)
        frac_left = np.mean(pts.times <= 1 / 3)
        se = 0.5 / np.sqrt(n)
        assert abs(frac_left - 0.5) <= 3 * se

    def test_reproducible(self):
        c = generalized_cantor(3, 0.2, 4)
        a = sample_natural_measure(c, 100, seed=9)
        b = sample_natural_measure(c, 100, seed=9)
        np.testing.assert_array_equal(a.times, b.times)


class TestWeightedTimeSet:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WeightedTimeSet(times=np.array([0.5]), weights=np.array([0.5]))
        with pytest.raises(ConfigError):
            WeightedTimeSet(times=np.array([1.5]), weights=np.array([1.0]))

    @pytest.mark.parametrize("times, weights", [([0.2, np.nan], [0.5, 0.5]),
                                                ([0.2, 0.4], [np.nan, 0.5])])
    def test_nan_rejected(self, times, weights):
        # a NaN fails every comparison; it must not pass the range checks
        with pytest.raises(ConfigError):
            WeightedTimeSet(times=np.array(times), weights=np.array(weights))


def test_fractal_set_rejects_nan_interval():
    with pytest.raises(ConfigError, match=r"intervals must lie in \[0, 1\]"):
        FractalSet(intervals=[[0.1, np.nan]], generation=0, theoretical_dim=1.0,
                   kind="full-interval")
