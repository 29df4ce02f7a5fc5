import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    line_l2_value,
    naive_has_interior,
    naive_histogram,
    naive_pair_counts,
    naive_pair_sums,
)
import parafbm
from parafbm.errors import BoxIndexOverflow, ConfigError, GridMismatch
from parafbm.fbm import TimeGrid, generate_fbm_path
from parafbm.fractals import WeightedTimeSet, full_interval, sample_natural_measure
from parafbm.occupation import (
    OccupationHistogram,
    drifted_image,
    interior_probe,
    l2_density_diagnostic,
    occupation_histogram,
    positive_measure_estimate,
)


def uniform_samples(n):
    return WeightedTimeSet(times=np.arange(n) / n, weights=np.full(n, 1.0 / n))


class TestDriftedImage:
    def test_zero_drift_is_path(self):
        g = TimeGrid.regular(101)
        p = generate_fbm_path(0.5, g, d=2, seed=0)
        samples = WeightedTimeSet(times=g.times[::10], weights=np.full(11, 1 / 11))
        w, img = drifted_image(p, np.zeros_like(p.values), samples)
        np.testing.assert_allclose(img, p.values[:, ::10].T, atol=1e-12)
        np.testing.assert_array_equal(w, samples.weights)

    def test_zero_path_linear_drift(self):
        g = TimeGrid.regular(64)
        p = generate_fbm_path(0.5, g, d=1, seed=0)
        zero_path = type(p)(
            grid=g, values=np.zeros_like(p.values),
            hurst_components=p.hurst_components, seed=p.seed,
        )
        samples = uniform_samples(50)
        _, img = drifted_image(zero_path, g.times[None, :], samples)
        np.testing.assert_allclose(img[:, 0], samples.times, atol=1e-12)

    def test_weights_pass_through(self):
        g = TimeGrid.regular(16)
        p = generate_fbm_path(0.3, g, seed=1)
        rng = np.random.default_rng(0)
        w = rng.uniform(0.5, 1.5, 20)
        w /= w.sum()
        samples = WeightedTimeSet(times=np.sort(rng.uniform(0, 1, 20)), weights=w)
        got_w, _ = drifted_image(p, np.zeros_like(p.values), samples)
        np.testing.assert_array_equal(got_w, w)

    @pytest.mark.parametrize("grid", [TimeGrid.regular(257),
                                      TimeGrid(np.arange(1, 65) / 64)])
    def test_equals_direct_interp_at_unsorted_times(self, grid):
        p = generate_fbm_path(0.4, grid, d=2, seed=3)
        rng = np.random.default_rng(2)
        drift = rng.normal(size=p.values.shape)
        t = grid.times
        # unsorted, with repeats and the grid's own end points and knots
        times = np.concatenate([rng.uniform(t[0], t[-1], 500), t[[0, -1, 5, 5]], t[::7]])
        rng.shuffle(times)
        samples = WeightedTimeSet(times=times, weights=np.full(times.size, 1.0 / times.size))
        _, img = drifted_image(p, drift, samples)
        want = np.stack([np.interp(times, t, p.values[j] + drift[j]) for j in range(2)], axis=1)
        assert np.array_equal(img, want)

    def test_grid_mismatch(self):
        g = TimeGrid.regular(16)
        p = generate_fbm_path(0.3, g, seed=1)
        with pytest.raises(GridMismatch):
            drifted_image(p, np.zeros((1, 8)), uniform_samples(4))

    def test_sample_beyond_grid_rejected(self):
        p = generate_fbm_path(0.3, TimeGrid([0.25, 0.5]), seed=1)
        samples = WeightedTimeSet(times=np.array([0.25, 0.75]), weights=np.array([0.5, 0.5]))
        with pytest.raises(GridMismatch, match="outside the path grid range"):
            drifted_image(p, np.zeros_like(p.values), samples)

    def test_samples_at_the_range_tolerance_read_the_end_values(self):
        # each sample lies exactly 1e-12 outside the grid, which is accepted
        p = generate_fbm_path(0.3, TimeGrid([0.25, 0.5]), d=2, seed=1)
        samples = WeightedTimeSet(times=np.array([0.25 - 1e-12, 0.5 + 1e-12]),
                                  weights=np.array([0.5, 0.5]))
        _, img = drifted_image(p, np.zeros_like(p.values), samples)
        assert np.array_equal(img, p.values.T)


class TestHistogram:
    def test_single_cell(self):
        w = np.full(7, 1 / 7)
        v = np.tile([[0.3, -0.2]], (7, 1))
        h = occupation_histogram(w, v, 0.1)
        assert h.index.shape == (1, 2) and h.index.dtype == np.int64
        assert h.mass.sum() == pytest.approx(1.0)

    def test_line_two_cells(self):
        n = 1000
        h = occupation_histogram(np.full(n, 1 / n), np.arange(n) / n, 0.5)
        assert h.index.tolist() == [[0], [1]]
        np.testing.assert_allclose(h.mass, [0.5, 0.5])

    def test_mass_conservation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(5, 500))
            w = rng.uniform(0, 1, n)
            w /= w.sum()
            v = rng.normal(0, 1, (n, int(rng.integers(1, 4))))
            h = occupation_histogram(w, v, float(rng.uniform(0.05, 1.0)))
            assert abs(h.mass.sum() - 1.0) <= 1e-9

    def test_dyadic_refinement_nesting(self):
        rng = np.random.default_rng(3)
        n = 400
        w = np.full(n, 1 / n)
        v = rng.normal(0, 1, (n, 2))
        origin = v.min(axis=0)
        coarse = occupation_histogram(w, v, 0.5, origin=origin)
        fine = occupation_histogram(w, v, 0.25, origin=origin)
        parents = (fine.index // 2).tolist()
        coarse_mass = dict(zip(map(tuple, coarse.index.tolist()), coarse.mass))
        for parent, mass in zip(parents, fine.mass):
            assert mass <= coarse_mass[tuple(parent)] + 1e-12

    def test_csv_with_config(self):
        h = occupation_histogram(np.array([1.0]), np.array([[0.0, 0.0]]), 0.5)
        buf = io.StringIO()
        h.to_csv(buf, config={"epsilon": 0.5})
        text = buf.getvalue()
        assert text.startswith("# config:")
        assert "i1,i2,mass" in text.splitlines()[1]

    def test_index_overflow_raises(self):
        with pytest.raises(BoxIndexOverflow):
            occupation_histogram(np.full(3, 1 / 3), [[0.0], [1e300], [2e300]], 1.0)

    def test_empty_sample_needs_origin(self):
        with pytest.raises(ConfigError, match="empty"):
            occupation_histogram(np.zeros(0), np.zeros((0, 2)), 0.1)
        h = occupation_histogram(np.zeros(0), np.zeros((0, 2)), 0.1, origin=[0.0, 1.0])
        assert h.index.shape == (0, 2) and h.index.dtype == np.int64
        assert h.mass.shape == (0,)
        assert h.d == 2

    @pytest.mark.parametrize("weights, values", [
        ([1 / 3] * 3, [[0.0], [np.nan], [2.0]]),
        ([1 / 3] * 3, [[0.0], [np.inf], [2.0]]),
        ([np.inf, 0.0, 0.0], [[0.0], [1.0], [2.0]]),
        ([np.nan, 0.5, 0.5], [[0.0], [1.0], [2.0]]),
    ])
    def test_nonfinite_rejected(self, weights, values):
        with pytest.raises(ConfigError):
            occupation_histogram(np.array(weights), np.array(values), 1.0)

    @pytest.mark.parametrize("values, origin", [
        (np.zeros((3, 0)), None),            # d = 0
        (np.zeros((3, 2)), [0.0]),            # an origin of the wrong size
        (np.zeros((3, 2)), [0.0, 0.0, 0.0]),
    ])
    def test_values_and_origin_must_agree_on_d(self, values, origin):
        with pytest.raises(ConfigError):
            occupation_histogram(np.full(3, 1 / 3), values, 1.0, origin=origin)

    def test_cells_view_is_the_arrays_as_a_dict(self):
        # the benchmark's tracer reads this view
        rng = np.random.default_rng(8)
        h = occupation_histogram(np.full(500, 1 / 500), rng.normal(0, 1, (500, 2)), 0.3)
        assert h.cells == {tuple(r): m for r, m in zip(h.index.tolist(), h.mass.tolist())}
        assert list(h.cells) == sorted(h.cells)


class TestHistogramValidation:
    """Malformed histograms are refused when they are constructed."""

    @pytest.mark.parametrize("kwargs", [
        # 1-wide rows with an origin of size 2
        dict(origin=np.zeros(2), index=np.array([[0]]), mass=[1.0]),
        # a float index, which a cast to int64 would truncate
        dict(index=np.array([[0.7]]), mass=[1.0]),
        dict(index=np.array([[True]]), mass=[1.0]),
        dict(index=np.array([0, 1]), mass=[0.5, 0.5]),       # not 2-D
        dict(index=np.array([[2**63]], dtype=np.uint64), mass=[1.0]),
        dict(origin=np.zeros(0), index=np.zeros((0, 0), dtype=np.int64), mass=[]),
        dict(origin=[np.nan], index=np.array([[0]]), mass=[1.0]),
        dict(index=np.array([[0], [0]]), mass=[0.5, 0.5]),   # duplicate rows
        dict(index=np.array([[1], [0]]), mass=[0.5, 0.5]),   # unsorted rows
        dict(origin=np.zeros(2), index=np.array([[0, 1], [0, 0]]), mass=[0.5, 0.5]),
        dict(origin=np.zeros(2), index=np.array([[1, 0], [0, 5]]), mass=[0.5, 0.5]),
        dict(index=np.array([[0], [1]]), mass=[1.0]),        # mass not (k,)
        dict(index=np.array([[0], [1]]), mass=[1.5, -0.5]),  # a negative mass
        dict(index=np.array([[0], [1]]), mass=[0.5, np.nan]),
        dict(index=np.array([[0], [1]]), mass=[0.5, 0.4]),   # not summing to 1
        dict(cell_size=np.nan),
        dict(cell_size=0.0),
        dict(cell_size=np.inf),
    ])
    def test_malformed_input_raises(self, kwargs):
        args = dict(cell_size=0.1, origin=np.zeros(1), index=np.array([[0]]), mass=[1.0])
        with pytest.raises(ConfigError):
            OccupationHistogram(**{**args, **kwargs})

    def test_well_formed_input_is_kept(self):
        h = OccupationHistogram(cell_size=0.1, origin=[0.0, 1.0],
                                index=np.array([[0, 5], [1, -3], [1, 0]], dtype=np.int32),
                                mass=[0.25, 0.25, 0.5])
        assert h.index.dtype == np.int64 and h.index.tolist() == [[0, 5], [1, -3], [1, 0]]
        assert h.mass.dtype == float and h.d == 2


@st.composite
def weighted_values(draw):
    """Weighted value vectors in d = 1..3 with repeated points and a value spread.

    At the widest spread cell indices stay below 2^51 at every epsilon drawn,
    but a d >= 2 sample's packed span passes 2^62, so its cells are grouped
    by the index rows, not by a key.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    spread = draw(st.sampled_from([1e-3, 1.0, 1e3, 2.0**40]))
    value = st.floats(-1.0, 1.0).map(lambda x: x * spread)
    values = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=10))
    values += [values[i] for i in repeats]
    counts = draw(st.lists(st.integers(0, 5), min_size=len(values), max_size=len(values))
                  .filter(lambda c: sum(c) > 0))
    w = np.array(counts, dtype=float) / sum(counts)
    return w, np.array(values)


class TestHistogramProperties:
    """Packed-key histograms against the dict oracle, duplicates included."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=weighted_values(),
        epsilon=st.sampled_from([1.0, 0.5, 1.0 / 3.0, 0.1, 2.0**-6, 2.0**-10]),
        shift=st.sampled_from([None, 0.0, 0.3, -2.5]),
    )
    def test_cells_match_oracle(self, data, epsilon, shift):
        w, v = data
        origin = None if shift is None else v.min(axis=0) - shift
        h = occupation_histogram(w, v, epsilon, origin=origin)
        want = naive_histogram(w.tolist(), v.tolist(), epsilon,
                               v.min(axis=0).tolist() if origin is None else origin.tolist())
        assert h.index.dtype == np.int64 and h.index.shape == (len(want), v.shape[1])
        assert h.index.tolist() == [list(c) for c in sorted(want)]
        assert h.mass.tolist() == [want[c] for c in sorted(want)]


class TestPositiveMeasure:
    def test_single_cell_floor_below_one(self):
        h = occupation_histogram(np.array([1.0]), np.array([[0.0]]), 0.25)
        assert positive_measure_estimate(h, 1.0) == pytest.approx(0.25)

    def test_zero_floor_counts_all(self):
        n = 100
        h = occupation_histogram(np.full(n, 1 / n), np.arange(n)[:, None] / n, 0.125)
        assert positive_measure_estimate(h, 0.0) == pytest.approx(
            len(h.index) * 0.125
        )

    def test_line_measure_converges_to_one(self):
        n = 20_000
        v = np.arange(n) / n
        w = np.full(n, 1 / n)
        ests = [
            positive_measure_estimate(occupation_histogram(w, v, eps), 0.0)
            for eps in (0.1, 0.01, 0.001)
        ]
        assert abs(ests[-1] - 1.0) <= 0.01
        assert abs(ests[-1] - 1.0) <= abs(ests[0] - 1.0) + 1e-12

    def test_nonincreasing_in_floor(self):
        rng = np.random.default_rng(4)
        n = 300
        w = rng.uniform(0, 1, n)
        w /= w.sum()
        h = occupation_histogram(w, rng.normal(0, 1, (n, 2)), 0.3)
        floors = [0.0, 0.5, 1.0, 2.0, 5.0]
        vals = [positive_measure_estimate(h, f) for f in floors]
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("floor", [-0.1, np.nan])
    def test_floor_must_be_non_negative(self, floor):
        # a NaN floor gave 0.0
        h = occupation_histogram(np.array([1.0]), np.array([[0.0]]), 0.25)
        with pytest.raises(ConfigError, match="mass_floor must be (>= 0|a finite number)"):
            positive_measure_estimate(h, floor)


class TestL2Diagnostic:
    def test_constant_path_diverges_like_r_minus_d(self):
        n = 500
        w = np.full(n, 1 / n)
        radii = 2.0 ** -np.arange(2, 9)
        vals = l2_density_diagnostic([np.zeros((n, 2))], w, radii)
        slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        assert slope == pytest.approx(-2.0, abs=1e-6)

    def test_deterministic_line_closed_form_grid(self):
        n = 4096
        w = np.full(n, 1 / n)
        y = np.arange(n) / n
        radii = 2.0 ** -np.arange(2, 7)
        vals = l2_density_diagnostic([y], w, radii)
        for r, v in zip(radii, vals):
            assert v == pytest.approx(line_l2_value(r), abs=4.0 / (n * r))

    def test_deterministic_line_closed_form_sampled(self):
        pts = sample_natural_measure(full_interval(), 4096, seed=5)
        radii = 2.0 ** -np.arange(2, 6)
        vals = l2_density_diagnostic([pts.times], pts.weights, radii)
        for r, v in zip(radii, vals):
            assert v == pytest.approx(line_l2_value(r), rel=0.1)

    def test_fbm_bounded_when_hd_below_one(self):
        # H = 0.3, d = 1: occupation density exists; values stay bounded
        g = TimeGrid.regular(2**12)
        samples = uniform_samples(1500)
        images = []
        for s in range(6):
            p = generate_fbm_path(0.3, g, seed=s)
            _, img = drifted_image(p, np.zeros_like(p.values), samples)
            images.append(img)
        radii = 2.0 ** -np.arange(3, 9)
        vals = l2_density_diagnostic(images, samples.weights, radii)
        assert vals.max() / vals.min() <= 3.0

    def test_radii_validation(self):
        with pytest.raises(ConfigError):
            l2_density_diagnostic([np.zeros((5, 1))], np.full(5, 0.2), np.array([0.5]))

    def test_strict_radius_and_exact_zero(self):
        # unit spacing: r = 1 is a tie and must not count; r = 0.5 has no pair
        vals = l2_density_diagnostic([np.arange(5.0)], np.full(5, 0.25), [3.0, 1.0, 0.5])
        assert vals[0] == 14 * 0.0625 / 3.0
        assert vals[1] == 0.0 and vals[2] == 0.0
        assert not np.signbit(vals[1:]).any()

    def test_no_pair_inside_is_exact_zero_with_random_weights(self):
        # the self-pair sum is summed in two orders; no residue may survive
        w = np.random.default_rng(8).random(1000)
        for y in (np.arange(1000.0), np.outer(np.arange(1000.0), [0.6, 0.8])):
            vals = l2_density_diagnostic([y], w, [1.5, 0.75, 0.5])
            assert vals[0] > 0.0
            assert vals[1] == 0.0 and vals[2] == 0.0
            assert not np.signbit(vals[1:]).any()

    def test_fewer_than_two_points_give_zeros(self):
        for m in (0, 1):
            vals = l2_density_diagnostic([np.zeros((m, 2))], np.ones(m), [0.5, 0.25])
            np.testing.assert_array_equal(vals, [0.0, 0.0])

    def test_seed_mean(self):
        w = np.full(4, 0.25)
        a, b = np.zeros((4, 2)), np.arange(8.0).reshape(4, 2)
        radii = np.array([1.0, 0.5])
        both = l2_density_diagnostic([a, b], w, radii)
        np.testing.assert_array_equal(
            both, (l2_density_diagnostic([a], w, radii) + l2_density_diagnostic([b], w, radii)) / 2
        )

    @pytest.mark.parametrize("images, radii", [
        ([np.zeros((5, 1))], [0.5, -1.0]),
        ([np.zeros((5, 1))], [0.5, 0.0]),
        ([np.zeros((5, 1))], [np.nan, 0.5]),
        ([np.zeros((5, 1))], [np.inf, 0.5]),
        ([np.zeros((5, 1))], [0.5, np.nan, 0.1]),
        ((np.zeros((5, 1)) for _ in range(2)), [0.5, 0.25]),
        ([], [0.5, 0.25]),
        ([np.zeros((5, 1)), np.zeros((5, 2))], [0.5, 0.25]),
        ([np.zeros((4, 1))], [0.5, 0.25]),
        ([np.zeros((5, 2, 1))], [0.5, 0.25]),
        ([np.array([[0.0], [np.nan], [1.0], [2.0], [3.0]])], [0.5, 0.25]),
        ([np.array([[0.0], [np.inf], [1.0], [2.0], [3.0]])], [0.5, 0.25]),
    ])
    def test_bad_inputs_rejected(self, images, radii):
        with pytest.raises(ConfigError):
            l2_density_diagnostic(images, np.full(5, 0.2), radii)

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ConfigError):
            l2_density_diagnostic([np.zeros((3, 1))], np.array([0.5, np.nan, 0.5]), [0.5, 0.25])


@st.composite
def lattice_points(draw):
    """Points of spacing 1/4 in d = 1..3 with repeats; radii k/8 hit exact ties."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    coord = st.integers(-4, 4).map(lambda k: k / 4)
    points = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=6))
    points += [points[i] for i in repeats]
    ks = draw(st.lists(st.integers(1, 24), min_size=2, max_size=5, unique=True))
    return points, np.array(sorted(ks, reverse=True)) / 8


class TestPairSumProperties:
    """Dual-tree pair sums against the pure-Python double loop."""

    @settings(max_examples=300, deadline=None)
    @given(case=lattice_points(), data=st.data())
    def test_dyadic_weights_bit_equal(self, case, data):
        points, radii = case
        w = np.array(data.draw(st.lists(st.integers(0, 16), min_size=len(points),
                                        max_size=len(points)))) / 16
        d = len(points[0])
        got = l2_density_diagnostic([np.array(points)], w, radii)
        want = np.array(naive_pair_sums(points, w.tolist(), radii.tolist())) / radii**d
        np.testing.assert_array_equal(got, want)
        none_inside = np.array(naive_pair_counts(points, radii.tolist())) == 0
        assert np.all(got[none_inside] == 0.0)
        assert not np.signbit(got[none_inside]).any()

    @settings(max_examples=300, deadline=None)
    @given(case=lattice_points(), data=st.data())
    def test_random_weights_close(self, case, data):
        points, radii = case
        w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(points),
                                        max_size=len(points))))
        d = len(points[0])
        got = l2_density_diagnostic([np.array(points)], w, radii)
        want = np.array(naive_pair_sums(points, w.tolist(), radii.tolist())) / radii**d
        # the self-pairs are summed and then subtracted, so rounding scales with them
        scale = want + float(np.dot(w, w)) / radii**d
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        none_inside = np.array(naive_pair_counts(points, radii.tolist())) == 0
        assert np.all(got[none_inside] == 0.0)
        assert not np.signbit(got[none_inside]).any()


@st.composite
def occupied_images(draw):
    """Points in a small lattice box in d = 1..3, with duplicates.

    The cells are scattered at random, all in one cell, or the whole box
    with a few holes, so that every radius up to 3 (2 in d = 3) meets both
    outcomes; or they are the holed box plus scattered cells 2^20 away along
    every axis, a vanishing part of their bounding box.
    """
    d = draw(st.integers(1, 3))
    side = {1: 9, 2: 7, 3: 5}[d]
    cell = st.lists(st.integers(0, side - 1), min_size=d, max_size=d)
    kind = draw(st.sampled_from(["scattered", "single", "holed box", "far apart"]))
    if kind == "scattered":
        cells = draw(st.lists(cell, min_size=1, max_size=2 * side**d))
    elif kind == "single":
        cells = [draw(cell)] * draw(st.integers(1, 4))
    else:
        holes = draw(st.lists(cell, max_size=3).map(lambda c: set(map(tuple, c))))
        cells = [list(c) for c in np.ndindex(*([side] * d)) if c not in holes] or [[0] * d]
    if kind == "far apart":
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d))
        far = draw(st.lists(cell, min_size=1, max_size=side**d))
        cells += [[c + s * 2**20 for c, s in zip(row, signs)] for row in far]
    repeats = draw(st.lists(st.integers(0, len(cells) - 1), max_size=8))
    cells += [cells[i] for i in repeats]
    offset = st.sampled_from([0.0, 0.25, 0.5, 0.75])
    values = [[c + draw(offset) for c in row] for row in cells]
    return np.full(len(values), 1.0 / len(values)), np.array(values, dtype=float)


class TestInteriorProperties:
    """Sparse erosion of the occupied cells against a dict-and-scan oracle."""

    @settings(max_examples=300, deadline=None)
    @given(image=occupied_images(), radius=st.integers(0, 3))
    def test_interior_matches_oracle(self, image, radius):
        w, v = image
        origin = np.zeros(v.shape[1])
        h = occupation_histogram(w, v, 1.0, origin=origin)
        if radius == 0:
            with pytest.raises(ConfigError):
                interior_probe(h, radius)
            return
        cells = interior_probe(h, radius)
        want = naive_has_interior(w.tolist(), v.tolist(), 1.0, origin.tolist(), radius)
        assert cells.dtype == np.int64 and cells.shape == (len(want), v.shape[1])
        assert cells.tolist() == [list(c) for c in want]


class TestInteriorProbe:
    def full_grid_hist(self, k, d):
        index = np.array(list(np.ndindex(*([k] * d))))
        return OccupationHistogram(cell_size=0.1, origin=np.zeros(d), index=index,
                                   mass=np.full(k**d, 1.0 / k**d))

    def hist(self, *rows):
        return OccupationHistogram(cell_size=0.1, origin=np.zeros(len(rows[0])),
                                   index=np.array(rows), mass=np.full(len(rows), 1 / len(rows)))

    def test_full_grid_strict_interior(self):
        h = self.full_grid_hist(5, 2)
        cells = interior_probe(h, 1)
        assert cells.shape == (9, 2)
        assert cells.tolist() == [[i, j] for i in range(1, 4) for j in range(1, 4)]

    def test_empty_histogram(self):
        h = OccupationHistogram(cell_size=0.1, origin=np.zeros(2),
                                index=np.empty((0, 2), dtype=np.int64), mass=[])
        cells = interior_probe(h, 1)
        assert cells.dtype == np.int64 and cells.shape == (0, 2)

    def test_single_cell_none(self):
        assert interior_probe(self.hist((0,)), 1).shape == (0, 1)

    @pytest.mark.parametrize("radius", [1.5, "1", True, 0, -2])
    def test_radius_must_be_a_whole_number_at_least_one(self, radius):
        with pytest.raises(ConfigError, match="radius_cells must be"):
            interior_probe(self.full_grid_hist(5, 2), radius)

    def test_whole_float_radius_is_that_radius(self):
        h = self.full_grid_hist(5, 2)
        assert np.array_equal(interior_probe(h, 1.0), interior_probe(h, 1))

    def test_radius_monotone(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(0, 1, (4000, 2))
        h = occupation_histogram(np.full(4000, 1 / 4000), pts, 0.25)
        r1 = set(map(tuple, interior_probe(h, 1).tolist()))
        r2 = set(map(tuple, interior_probe(h, 2).tolist()))
        r3 = set(map(tuple, interior_probe(h, 3).tolist()))
        assert r3 <= r2 <= r1

    def test_reported_cells_have_occupied_neighborhoods(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0, 1, (3000, 2))
        h = occupation_histogram(np.full(3000, 1 / 3000), pts, 0.3)
        cells = interior_probe(h, 2)
        assert len(cells)  # dense enough cloud to have witnesses
        occupied = set(map(tuple, h.index.tolist()))
        for cell in cells.tolist():
            for di in range(-2, 3):
                for dj in range(-2, 3):
                    assert (cell[0] + di, cell[1] + dj) in occupied

    def test_two_far_cells_have_no_interior(self):
        # two far cells span a 2^14 x 2^14 box, but only the two cells are probed
        h = self.hist((0, 0), (2**14 - 1, 2**14 - 1))
        assert interior_probe(h, 1).shape == (0, 2)

    def test_padded_box_past_2_62_keys_raises(self):
        # cells 0 and 2^62 - 3 padded by one cell each way fill exactly 2^62 keys
        assert interior_probe(self.hist((0,), (2**62 - 3,)), 1).shape == (0, 1)
        with pytest.raises(BoxIndexOverflow):
            interior_probe(self.hist((0,), (2**62 - 2,)), 1)
        with pytest.raises(BoxIndexOverflow):
            interior_probe(self.hist((0, 0), (2**31, 2**31)), 1)


def test_import_loads_no_scipy():
    # erosion needs no scipy.ndimage, and l2_density_diagnostic imports
    # scipy.spatial when it is called
    code = "import sys, parafbm; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(parafbm.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "[]"
