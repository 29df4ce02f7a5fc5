import dataclasses
import io
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    kernel_expectation_quad,
    naive_box_keys,
    naive_energy_sum,
    naive_parabolic_box_count,
    takagi_values,
)
from parafbm import estimators
from parafbm.errors import (
    AlphaExceedsH,
    BoxIndexOverflow,
    ConfigError,
    DegenerateRange,
    GammaAtBoundary,
    NumericalError,
)
from parafbm.estimators import (
    GraphCloud,
    box_count_curve,
    box_count_curves,
    dyadic_deltas,
    energy_integral_mc,
    estimate_parabolic_dimension,
    kernel_expectation_mc,
    pack_index_rows,
    parabolic_box_count,
)
from parafbm.fbm import TimeGrid, generate_fbm_path
from parafbm.fractals import WeightedTimeSet, middle_thirds_cantor


def flat_cloud(n=1024, d=1):
    t = np.linspace(0, 1, n)
    return GraphCloud(times=t, values=np.zeros((n, d)))


class TestBoxCount:
    def test_single_point(self):
        c = GraphCloud(times=np.array([0.37]), values=np.array([[0.2, -0.4]]))
        assert parabolic_box_count(c, 0.25, 0.5) == 1

    def test_two_separated_points(self):
        c = GraphCloud(times=np.array([0.1, 0.9]), values=np.array([[0.0], [5.0]]))
        assert parabolic_box_count(c, 0.25, 0.5) == 2

    def test_flat_graph_time_axis_only(self):
        c = flat_cloud()
        for h in (0.2, 0.5, 0.8):
            assert parabolic_box_count(c, 0.25, h) == 4

    def test_flat_graph_exact_law(self):
        c = flat_cloud(n=4096)
        for k in range(1, 9):
            assert parabolic_box_count(c, 2.0**-k, 0.4) == 2**k

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 200))
            d = int(rng.integers(1, 3))
            t = np.sort(rng.uniform(0, 1, n))
            v = rng.normal(0, 1, (n, d))
            c = GraphCloud(times=t, values=v)
            delta = float(rng.choice([0.5, 0.25, 0.125, 0.0625]))
            h = float(rng.uniform(0.1, 0.9))
            assert parabolic_box_count(c, delta, h) == naive_parabolic_box_count(
                t.tolist(), v.tolist(), delta, h
            )

    def test_counts_nondecreasing_dyadic(self):
        g = TimeGrid.regular(2**12)
        for seed in range(3):
            p = generate_fbm_path(0.4, g, d=1, seed=seed)
            c = GraphCloud.from_path(p, h_context=0.6)
            counts = [parabolic_box_count(c, 2.0**-k, 0.6) for k in range(1, 11)]
            assert np.all(np.diff(counts) >= 0)

    def test_halving_growth_cap(self):
        # N(delta/2) <= 4^(d+1) N(delta)
        g = TimeGrid.regular(2**12)
        for d in (1, 2):
            p = generate_fbm_path(0.3, g, d=d, seed=5)
            c = GraphCloud.from_path(p, h_context=0.5)
            counts = [parabolic_box_count(c, 2.0**-k, 0.5) for k in range(1, 11)]
            cap = 4.0 ** (d + 1)
            for a, b in zip(counts, counts[1:]):
                assert b <= cap * a

    def test_count_upper_bound(self):
        g = TimeGrid.regular(512)
        p = generate_fbm_path(0.5, g, d=1, seed=1)
        c = GraphCloud.from_path(p)
        for delta in (0.5, 0.125):
            n = parabolic_box_count(c, delta, 0.5)
            vrange = np.ptp(c.values[:, 0])
            bound = np.ceil(1 / delta) * (vrange / delta**0.5 + 1)
            assert 1 <= n <= min(c.n, bound)

    def test_delta_validation(self):
        with pytest.raises(ConfigError):
            parabolic_box_count(flat_cloud(), 0.0, 0.5)
        with pytest.raises(ConfigError):
            parabolic_box_count(flat_cloud(), 1.5, 0.5)

    def test_nonfinite_cloud_rejected(self):
        for t, v in (([0.1, np.nan], [0.0, 1.0]), ([0.1, 0.2], [0.0, np.inf]),
                     ([0.1, 0.2], [[0.0, -np.inf], [1.0, 2.0]]), ([np.inf], [0.0])):
            with pytest.raises(ConfigError):
                GraphCloud(times=np.array(t), values=np.array(v))

    def test_cloud_needs_a_value_column(self):
        with pytest.raises(ConfigError, match="d >= 1"):
            GraphCloud(times=np.array([0.1, 0.2]), values=np.zeros((2, 0)))

    def test_index_overflow_raises(self):
        # the int64 cast of 4e300 would wrap and merge two of the three boxes
        c = GraphCloud(times=np.array([0.1, 0.11, 0.12]), values=np.array([0.0, 1e300, 2e300]))
        with pytest.raises(BoxIndexOverflow):
            parabolic_box_count(c, 0.25, 0.5)
        with pytest.raises(BoxIndexOverflow):
            box_count_curve(c, [0.5, 0.25], 0.5)
        # time indices past 2^62 (infinite at 1e-310): finer than int64 keys resolve
        c = GraphCloud(times=np.array([0.1, 0.9]), values=np.array([0.0, 1.0]))
        for delta in (2.0**-70, 1e-310):
            with pytest.raises(BoxIndexOverflow), np.errstate(over="ignore"):
                parabolic_box_count(c, delta, 0.5)

    @pytest.mark.parametrize("top", [1.2 * 2.0**59, 1.9 * 2.0**60])
    def test_wide_spread_counted_from_sorted_rows(self, top):
        # value indices reach 2 top at delta 1/4: four time boxes times that
        # range passes 2^62, so no key is packed and the index rows are sorted
        t = [0.1, 0.9, 0.1, 0.9, 0.5, 0.6, 0.1]
        v = [[0.0], [top], [top / 2], [3.0], [top], [top], [3.0]]
        c = GraphCloud(times=np.array(t), values=np.array(v))
        for delta in (0.25, 0.5):
            assert parabolic_box_count(c, delta, 0.5) == naive_parabolic_box_count(
                t, v, delta, 0.5
            )

    def test_row_sort_prevents_wrapped_key_collision(self):
        # value indices span r = 2^62 - 2^40 + 1 over five time boxes; a key
        # packed in int64 would wrap mod 2^64 and put (time box 0, value 0)
        # and (time box 4, value 2^42 - 4) on one key
        t = [0.01, 0.07, 0.13, 0.19, 0.26, 0.01]
        v = [[0.0], [0.0], [0.0], [0.0], [2.0**40 - 1], [2.0**60 - 2.0**38]]
        c = GraphCloud(times=np.array(t), values=np.array(v))
        assert parabolic_box_count(c, 1 / 16, 0.5) == 6
        assert naive_parabolic_box_count(t, v, 1 / 16, 0.5) == 6


@st.composite
def clouds(draw):
    """Random cloud with repeated points, times at 0 and 1, and a value spread.

    Times spread over [0, 1] or cluster within 2^-36 of 1/2; together with
    the widest spreads and finest scales drawn, counts go through int32
    keys, int64 keys (wide spans, or raw time indices past int32 with a
    span of a few boxes), sorted index rows (spans past 2^62) and
    BoxIndexOverflow.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        time = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    else:
        time = st.floats(0.5, 0.5 + 2.0**-36)
    spread = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e12, 2.0**57]))
    value = st.floats(-1.0, 1.0).map(lambda x: x * spread)
    points = draw(st.lists(st.tuples(time, st.lists(value, min_size=d, max_size=d)),
                           min_size=n, max_size=n))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=10))
    points += [points[i] for i in repeats]
    return [p[0] for p in points], [p[1] for p in points]


class TestBoxCountProperties:
    """Packed-key counts against the pure-Python oracle on random clouds."""

    @settings(max_examples=300, deadline=None)
    @given(
        cloud=clouds(),
        deltas=st.lists(st.sampled_from([1.0, 0.5, 1.0 / 3.0, 0.25, 0.1, 2.0**-6, 2.0**-10,
                                         2.0**-40]),
                        min_size=1, max_size=4, unique=True),
        hurst=st.floats(0.05, 0.95),
        anchor_shift=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, -0.25, -0.5]),
                               st.floats(-1.0, 1.0)),
    )
    def test_counts_match_oracle(self, cloud, deltas, hurst, anchor_shift):
        t, v = cloud
        c = GraphCloud(times=np.array(t), values=np.array(v))
        want = []
        for delta in sorted(deltas, reverse=True):
            boxes = naive_box_keys(t, v, delta, hurst, anchor_shift)
            if max(abs(i) for box in boxes for i in box) >= 2**62:
                with pytest.raises(BoxIndexOverflow):
                    parabolic_box_count(c, delta, hurst, anchor_shift)
                with pytest.raises(BoxIndexOverflow):
                    box_count_curve(c, deltas, hurst, anchor_shift)
                return
            assert parabolic_box_count(c, delta, hurst, anchor_shift) == len(boxes)
            want.append(len(boxes))
        # one counter over the whole curve gives the counts of standalone calls
        assert box_count_curve(c, deltas, hurst, anchor_shift).counts.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(
        cloud=clouds(),
        deltas=st.lists(st.one_of(st.sampled_from([1.0, 0.25, 2.0**-10, 2.0**-40]),
                                  st.floats(1e-4, 1.0)),
                        min_size=1, max_size=3, unique=True),
        hurst=st.floats(0.05, 0.95),
        anchor_shift=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    )
    def test_prefix_counts_match_oracle(self, cloud, deltas, hurst, anchor_shift):
        # every coordinate prefix's curve, read from the sorts of the full
        # key or rows, against the oracle on the first k coordinates; the
        # clouds reach int32 keys, int64 keys, sorted rows and BoxIndexOverflow
        t, v = cloud
        c = GraphCloud(times=np.array(t), values=np.array(v))
        dims = range(1, c.d + 1)
        ladder = sorted(deltas, reverse=True)
        if any(max(abs(i) for box in naive_box_keys(t, v, delta, hurst, anchor_shift)
                   for i in box) >= 2**62 for delta in ladder):
            with pytest.raises(BoxIndexOverflow):
                box_count_curves(c, deltas, hurst, dims, anchor_shift)
            return
        curves = box_count_curves(c, deltas, hurst, dims, anchor_shift)
        for k in dims:
            head = [row[:k] for row in v]
            assert curves[k].deltas.tolist() == ladder
            assert curves[k].counts.tolist() == [
                naive_parabolic_box_count(t, head, delta, hurst, anchor_shift)
                for delta in ladder
            ]

    def test_prefixes_counted_from_sorted_rows_past_2_62(self):
        # d = 3 at delta 1/16, H 1/2: about 2^4 time boxes, 2^10 boxes on
        # each of v_1 and v_2 and 2^44 on v_3, a packed span of about 2^68,
        # so every prefix is counted from the one sort of the index rows
        rng = np.random.default_rng(5)
        n = 300
        t = rng.uniform(0.0, 1.0, n)
        v = np.column_stack([rng.uniform(0.0, 2.0**8, n), rng.uniform(0.0, 2.0**8, n),
                             rng.uniform(0.0, 2.0**42, n)])
        v[::7, :2] = v[1::7, :2][: v[::7].shape[0]]   # repeated (v_1, v_2) pairs
        t[::5] = t[1::5][: t[::5].size]               # and repeated times
        c = GraphCloud(times=t, values=v)
        curves = box_count_curves(c, [1 / 16], 0.5, (1, 2, 3))
        for k in (1, 2, 3):
            want = naive_parabolic_box_count(t.tolist(), v[:, :k].tolist(), 1 / 16, 0.5)
            assert curves[k].counts.tolist() == [want]
        # points share boxes, more of them in shorter prefixes
        assert curves[1].counts[0] < curves[2].counts[0] < curves[3].counts[0] == n

    def test_curves_of_prefixes_equal_curves_of_prefix_clouds(self):
        g = TimeGrid.regular(2**10)
        path = generate_fbm_path(0.4, g, d=3, seed=2)
        cloud = GraphCloud.from_path(path).restrict(middle_thirds_cantor(3))
        deltas = dyadic_deltas(1, 8, 2)
        curves = box_count_curves(cloud, deltas, 0.6, (1, 3, 2), anchor_shift=0.3)
        assert list(curves) == [1, 3, 2]
        for k in (1, 2, 3):
            alone = box_count_curve(GraphCloud(cloud.times, cloud.values[:, :k]), deltas,
                                    0.6, anchor_shift=0.3)
            assert curves[k].counts.tolist() == alone.counts.tolist()
            assert curves[k].deltas.tolist() == alone.deltas.tolist()

    @pytest.mark.parametrize("dims", [(0,), (1, 3), (1.5,), ()])
    def test_prefix_counts_need_whole_counts_up_to_d(self, dims):
        with pytest.raises(ConfigError):
            box_count_curves(flat_cloud(d=2), [0.5, 0.25], 0.5, dims)

    def test_raw_time_index_past_int32_with_narrow_span(self):
        # at 2^-40 the three times fall in boxes 2^39, 2^39 + 4 and 2^39 + 8:
        # a span of 9 boxes, but raw indices that an int32 cast would break
        t = [0.5, 0.5 + 2.0**-38, 0.5 + 2.0**-37]
        c = GraphCloud(times=np.array(t), values=np.zeros(3))
        for shift in (0.0, 0.25):
            assert parabolic_box_count(c, 2.0**-40, 0.5, shift) == 3
            assert naive_parabolic_box_count(t, [[0.0]] * 3, 2.0**-40, 0.5, shift) == 3


def _pack(columns):
    """The key of the rows of ``columns``, or None, for which no column is filled."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].size
    filled = []

    def fill(j, out):
        filled.append(j)
        np.copyto(out, cols[j], casting="unsafe")

    key, _ = pack_index_rows([(c.min(), c.max()) for c in cols], fill,
                             np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
    assert filled == ([] if key is None else list(range(len(cols))))
    return key


class TestPackIndexRows:
    @pytest.mark.parametrize("columns, width", [
        ([[0, 5, 3, 5], [-2, 7, 7, 7]], np.int32),
        ([[2**31 - 1, 2**31 - 3], [-(2**31 - 1), -(2**31 - 2)]], np.int32),  # raw limits
        ([[2**31, 2**31 + 1]], np.int64),            # span 2, raw index past int32
        ([[0, 2**31 - 2, 7]], np.int32),             # span 2^31 - 1
        ([[0, 2**31 - 1, 7]], np.int64),             # span 2^31
        ([[2**39, 2**39 + 2, 2**39]], np.int64),     # span 3, raw index past int32
        ([[0, 1, 0], [0, 2**16, 5], [0, 2**14, 1]], np.int64),  # product of radices
        ([[0, 2**61, 3], [-(2**61), 0, 2**61]], None),          # span past 2^62
    ])
    def test_width_and_order(self, columns, width):
        key = _pack(columns)
        if width is None:
            assert key is None
            return
        assert key.dtype == width
        rows = list(zip(*columns))
        for i in range(len(rows)):
            for j in range(len(rows)):
                assert (rows[i] < rows[j]) == (key[i] < key[j])
                assert (rows[i] == rows[j]) == (key[i] == key[j])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_keys_sort_as_rows(self, data):
        # column ranges from a few boxes to 2^61, raw indices inside and past
        # int32: int32 keys, int64 keys and spans past 2^62 (no key) are all
        # drawn, and a wrapped key would break the order
        n = data.draw(st.integers(1, 30))
        columns = []
        for _ in range(data.draw(st.integers(1, 4))):
            base = data.draw(st.one_of(st.sampled_from([0, 2**31 - 4, -(2**31) + 1, 2**39]),
                                       st.integers(-(2**61), 0)))
            width = data.draw(st.sampled_from([1, 5, 2**16, 2**31 - 1, 2**40, 2**61]))
            offsets = st.integers(0, width - 1)
            columns.append([float(base + o) for o in data.draw(
                st.lists(offsets, min_size=n, max_size=n))])
        key = _pack(columns)
        spans = [int(max(c)) - int(min(c)) + 1 for c in columns]
        assert (key is None) == (math.prod(spans) > 2**62)
        if key is None:
            return
        rows = [tuple(int(x) for x in row) for row in zip(*columns)]
        for i in range(n):
            for j in range(n):
                assert (rows[i] < rows[j]) == (key[i] < key[j])
                assert (rows[i] == rows[j]) == (key[i] == key[j])

    def test_overflow_checked_before_any_cast(self):
        def fill(j, out):
            raise AssertionError("a column was cast")

        for bounds in ([(0.0, 2.0**62)], [(-(2.0**62), 0.0)], [(0.0, np.nan)]):
            with pytest.raises(BoxIndexOverflow):
                pack_index_rows(bounds, fill, np.empty(1, np.int64), np.empty(1, np.int64))


class TestTakagiGraph:
    """A second route for the counter at full size: the graph of the
    Takagi-Landsberg function, whose columns the intermediate value theorem
    counts without sorting anything."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_oracle_matches_an_mpmath_sum(self, alpha):
        import mpmath

        m = 10
        values = takagi_values(alpha, m)
        with mpmath.workdps(40):
            for k in (0, 1, 3, 341, 512, 777, 1023, 1024):
                x = mpmath.mpf(k) / 2**m
                # terms past n = m - 1 are summed too: they must vanish
                want = mpmath.fsum(mpmath.mpf(2) ** (-alpha * n) * abs(y - mpmath.nint(y))
                                   for n in range(m + 20) for y in [2**n * x])
                assert abs(values[k] - want) < 1e-14

    @pytest.mark.parametrize("alpha, hurst, scales", [(0.3, 0.6, 3), (0.5, 0.5, 15),
                                                      (0.4, 0.8, 4)])
    def test_counts_equal_the_intermediate_value_count(self, alpha, hurst, scales):
        # where a box is at least twice as tall as the largest step, the
        # points of a time column fill every box between their extremes, so
        # the column holds floor((max - v0) / h) - floor((min - v0) / h) + 1
        m = 16
        t = np.arange(2**m + 1) / 2**m
        v = takagi_values(alpha, m)
        step = np.abs(np.diff(v)).max()
        curve = box_count_curve(GraphCloud(t, v), dyadic_deltas(4, 12, 2), hurst)
        checked = 0
        for delta, count in zip(curve.deltas, curve.counts):
            h = delta**hurst
            if h < 2 * step:
                continue
            column = np.minimum(np.floor(t / delta), np.ceil(1 / delta) - 1)
            starts = np.flatnonzero(np.diff(column, prepend=-1.0))
            lo = np.floor((np.minimum.reduceat(v, starts) - v.min()) / h)
            hi = np.floor((np.maximum.reduceat(v, starts) - v.min()) / h)
            assert count == np.sum(hi - lo + 1)
            checked += 1
        assert checked == scales


def test_scales_call_the_module_global_with_the_cloud_first(monkeypatch):
    # perfbench traces box counting by wrapping estimators.parabolic_box_count
    # and reads each call's point count from its first argument
    calls = []
    real = estimators.parabolic_box_count

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "parabolic_box_count", counting)
    cloud = flat_cloud(n=512)
    deltas = dyadic_deltas(2, 8)
    estimate_parabolic_dimension(cloud, deltas, 0.5)
    assert len(calls) == deltas.size
    assert all(arg is cloud for arg in calls)


def test_prefix_curves_count_each_scale_once(monkeypatch):
    # the prefixes are read from the sort of the full key: still one
    # parabolic_box_count call of the cloud per scale
    calls = []
    real = estimators.parabolic_box_count

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "parabolic_box_count", counting)
    cloud = flat_cloud(n=512, d=2)
    deltas = dyadic_deltas(2, 8)
    box_count_curves(cloud, deltas, 0.5, (1, 2))
    assert len(calls) == deltas.size
    assert all(arg is cloud for arg in calls)


class TestDimensionEstimate:
    def test_flat_graph_every_h(self):
        c = flat_cloud(n=4096)
        for h in (0.1, 0.3, 0.5, 0.7, 0.9):
            est = estimate_parabolic_dimension(c, dyadic_deltas(2, 8), h)
            assert est.exponent == pytest.approx(1.0, abs=0.02)
            assert est.r_squared >= 0.999

    def test_line_graph(self):
        # 1-Lipschitz f(t) = t against the brute-force oracle and slope ~ 1
        n = 4096
        t = np.linspace(0, 1, n)
        c = GraphCloud(times=t, values=t.copy())
        deltas = dyadic_deltas(2, 8)
        for delta in deltas:
            assert parabolic_box_count(c, delta, 0.5) == naive_parabolic_box_count(
                t.tolist(), [[x] for x in t], delta, 0.5
            )
        est = estimate_parabolic_dimension(c, deltas, 0.5)
        assert est.exponent == pytest.approx(1.0, abs=0.05)

    def test_fbm_graph_alpha_equals_h(self):
        # graph dimension equals dim(A) = 1 when alpha = H; median of 10 seeds
        g = TimeGrid.regular(2**13)
        exps = []
        for s in range(10):
            p = generate_fbm_path(0.5, g, seed=s)
            cloud = GraphCloud.from_path(p, h_context=0.5)
            est = estimate_parabolic_dimension(cloud, dyadic_deltas(3, 10), 0.5)
            exps.append(est.exponent)
        assert np.median(exps) == pytest.approx(1.0, abs=0.1)

    def test_fit_range_recorded(self):
        c = flat_cloud(n=4096)
        deltas = dyadic_deltas(2, 8)
        est = estimate_parabolic_dimension(c, deltas, 0.5)
        assert est.fit_range[0] >= deltas.min()
        assert est.fit_range[1] <= deltas.max()
        assert est.n_points_used <= deltas.size - 2

    def test_default_trim_keeps_both_window_ends(self):
        # one octave off each end of 2^-2 .. 2^-8 leaves 2^-3 .. 2^-7; the
        # window's ends are ladder scales, and both are fitted
        est = estimate_parabolic_dimension(flat_cloud(n=4096), dyadic_deltas(2, 8), 0.5)
        assert est.fit_range == (2.0**-7, 2.0**-3)
        assert est.n_points_used == 5

    def test_count_guard_keeps_a_count_equal_to_its_cap(self):
        # counts 2, 4, .., 64 of 64 points; 16 is exactly 0.25 * 64 and is kept
        cloud = GraphCloud(np.linspace(0, 1, 64), np.zeros(64))
        est = estimate_parabolic_dimension(cloud, dyadic_deltas(1, 6), 0.5, trim_octaves=0.0,
                                           max_count_fraction=0.25)
        assert est.curve.counts.tolist() == [2, 4, 8, 16, 32, 64]
        assert est.n_points_used == 4
        assert est.fit_range == (0.0625, 0.5)

    def test_carries_the_fitted_curve(self):
        c = flat_cloud(n=4096)
        deltas = dyadic_deltas(2, 8)
        est = estimate_parabolic_dimension(c, deltas, 0.5)
        want = box_count_curve(c, deltas, 0.5)
        assert est.curve.deltas.tolist() == want.deltas.tolist()
        assert est.curve.counts.tolist() == want.counts.tolist()
        # the curve takes no part in equality or in the JSON form
        assert est == dataclasses.replace(est, curve=None)
        assert "curve" not in est.to_json()

    def test_degenerate_single_point_cloud(self):
        c = GraphCloud(times=np.array([0.5]), values=np.array([[0.0]]))
        with pytest.raises(DegenerateRange):
            estimate_parabolic_dimension(c, dyadic_deltas(1, 8), 0.5)

    def test_degenerate_equal_counts(self):
        # a tight two-point cluster occupies one box at every usable scale
        c = GraphCloud(times=np.array([0.5, 0.5000001]),
                       values=np.array([[0.0], [0.0]]))
        with pytest.raises(DegenerateRange):
            estimate_parabolic_dimension(
                c, dyadic_deltas(1, 6), 0.5,
                trim_octaves=0, max_count_fraction=1.0,
            )

    def test_too_few_scales(self):
        with pytest.raises(ConfigError):
            estimate_parabolic_dimension(flat_cloud(), np.array([0.5, 0.25, 0.2]), 0.5)

    @pytest.mark.parametrize("key, value", [
        ("trim_octaves", np.nan), ("trim_octaves", np.inf),
        ("max_count_fraction", np.nan), ("max_count_fraction", 0.0),
        ("trim_octaves", None), ("max_count_fraction", None), ("max_count_fraction", "0.5"),
    ])
    def test_trim_and_count_fraction_checked(self, key, value):
        # a NaN trim skipped the trim; the rest raised DegenerateRange, a
        # numerical failure, for a config fault; None (which once meant no
        # count guard) and strings raised TypeError
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            estimate_parabolic_dimension(flat_cloud(), dyadic_deltas(1, 6), 0.5,
                                         **{key: value})

    def test_narrow_span(self):
        with pytest.raises(ConfigError):
            estimate_parabolic_dimension(
                flat_cloud(), np.array([0.5, 0.45, 0.4, 0.35]), 0.5
            )

    def test_raw_slope_not_clamped(self):
        # a two-point-in-time cloud with huge value spread can exceed 1 + H*d
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0, 1, 2000))
        v = rng.normal(0, 1, (2000, 2)) * 50
        c = GraphCloud(times=t, values=v)
        est = estimate_parabolic_dimension(
            c, dyadic_deltas(1, 5), 0.2, max_count_fraction=1.0, trim_octaves=0
        )
        assert est.exponent > 0  # no exception, raw value returned

    def test_curve_csv(self):
        curve = box_count_curve(flat_cloud(), dyadic_deltas(1, 4), 0.5)
        buf = io.StringIO()
        curve.to_csv(buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "delta,count"
        assert len(text.splitlines()) == 5


class TestEnergy:
    def test_two_point_example(self):
        pts = WeightedTimeSet(times=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]))
        vals = np.zeros((2, 1))
        for gamma in (0.3, 1.0, 2.5):
            assert energy_integral_mc(pts, vals, gamma, 0.5) == pytest.approx(0.5)

    def test_monotone_in_gamma_when_close(self):
        rng = np.random.default_rng(13)
        n = 40
        t = np.sort(rng.uniform(0, 1, n))
        v = rng.normal(0, 0.01, (n, 1))    # all pairwise distances < 1
        pts = WeightedTimeSet(times=t, weights=np.full(n, 1 / n))
        gammas = [0.2, 0.5, 1.0, 1.5]
        es = [energy_integral_mc(pts, v, g, 0.5) for g in gammas]
        assert np.all(np.diff(es) > 0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(14)
        n = 60
        t = np.sort(rng.uniform(0, 1, n))
        v = rng.normal(0, 1, (n, 2))
        w = rng.uniform(0.5, 1.5, n)
        w /= w.sum()
        pts = WeightedTimeSet(times=t, weights=w)
        got = energy_integral_mc(pts, v, 0.7, 0.4)
        want = naive_energy_sum(t.tolist(), v.tolist(), w.tolist(), 0.7, 0.4)
        assert got == pytest.approx(want, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        n = 50
        t = np.sort(rng.uniform(0, 1, n))
        v = rng.normal(0, 1, (n, 1))
        w = np.full(n, 1 / n)
        perm = rng.permutation(n)
        a = energy_integral_mc(WeightedTimeSet(times=t, weights=w), v, 0.9, 0.5)
        b = energy_integral_mc(
            WeightedTimeSet(times=t[perm], weights=w), v[perm], 0.9, 0.5
        )
        assert a == pytest.approx(b, rel=1e-9)

    def test_growth_separates_gamma_regimes(self):
        # below the graph dimension the sum stabilizes in n; above it grows
        def median_energy(gamma, n):
            g = TimeGrid.regular(n)
            pts = WeightedTimeSet(times=g.times, weights=np.full(n, 1.0 / n))
            return np.median([
                energy_integral_mc(
                    pts, generate_fbm_path(0.5, g, seed=s).values[0], gamma, 0.5
                )
                for s in range(3)
            ])

        sizes = (512, 1024, 2048)
        below = [median_energy(0.5, n) for n in sizes]
        above = [median_energy(1.7, n) for n in sizes]
        below_ratios = np.array(below[1:]) / np.array(below[:-1])
        above_ratios = np.array(above[1:]) / np.array(above[:-1])
        assert np.all(below_ratios < 1.25)
        assert np.all(above_ratios > 1.4)

    def test_chunked_merge_matches_whole_matrix(self):
        # n large enough that the row-chunked sum spans several chunks;
        # compare against a one-shot full-matrix evaluation
        rng = np.random.default_rng(17)
        n = 2500
        t = np.sort(rng.uniform(0, 1, n))
        v = rng.normal(0, 1, (n, 1))
        w = np.full(n, 1 / n)
        pts = WeightedTimeSet(times=t, weights=w)
        got = energy_integral_mc(pts, v, 0.8, 0.5)
        rho = np.maximum(
            np.abs(t[:, None] - t[None, :]) ** 0.5,
            np.abs(v[:, 0][:, None] - v[:, 0][None, :]),
        )
        np.fill_diagonal(rho, np.inf)
        want = float(np.sum(w[:, None] * w[None, :] * rho ** (-0.8 / 0.5)))
        assert got == pytest.approx(want, rel=1e-9)

    def test_subsampled_regime_close_to_exact(self, monkeypatch):
        rng = np.random.default_rng(16)
        n = 300
        t = np.sort(rng.uniform(0, 1, n))
        v = rng.normal(0, 1, (n, 1))
        pts = WeightedTimeSet(times=t, weights=np.full(n, 1 / n))
        exact = energy_integral_mc(pts, v, 0.5, 0.5)
        monkeypatch.setattr(estimators, "ENERGY_PAIR_CAP", 100)
        monkeypatch.setattr(estimators, "ENERGY_DEFAULT_PAIRS", 200_000)
        sub = energy_integral_mc(pts, v, 0.5, 0.5)
        assert sub == pytest.approx(exact, rel=0.05)

    def test_subsampled_value_is_pinned(self):
        # one point past the cap: the seeded pair mean is rescaled to all
        # n*(n-1) ordered pairs (the exact sum is 1.21976...)
        rng = np.random.default_rng(19)
        n = estimators.ENERGY_PAIR_CAP + 1
        t = np.sort(rng.uniform(0, 1, n))
        v = rng.normal(0, 1, (n, 1))
        pts = WeightedTimeSet(times=t, weights=np.full(n, 1 / n))
        got = energy_integral_mc(pts, v, 0.5, 0.5, pair_seed=3)
        assert got == pytest.approx(1.2195768990358642, rel=1e-12)

    @pytest.mark.parametrize("cap", [None, 100])
    def test_coincident_points_raise_naming_the_pair(self, monkeypatch, cap):
        # two points at rho_H distance 0 make the sum diverge; it printed
        # Infinity after a divide-by-zero warning
        if cap is not None:   # the subsampled regime
            monkeypatch.setattr(estimators, "ENERGY_PAIR_CAP", cap)
        rng = np.random.default_rng(18)
        n = 300
        t = rng.uniform(0, 1, n)
        v = rng.normal(0, 1, (n, 2))
        t[250], v[250] = t[40], v[40]
        pts = WeightedTimeSet(times=t, weights=np.full(n, 1 / n))
        with pytest.raises(NumericalError, match="points 40 and 250 coincide"):
            energy_integral_mc(pts, v, 0.5, 0.5)
        v[250, 1] = np.nextafter(v[250, 1], np.inf)   # distinct again, by one ulp
        assert np.isfinite(energy_integral_mc(pts, v, 0.5, 0.5))

    @pytest.mark.parametrize("where", ["times", "weights", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_raise_config_error(self, where, bad):
        # a NaN value gave a NaN energy; the points' own check is bypassed here
        t, w, v = np.array([0.2, 0.5, 0.9]), np.full(3, 1 / 3), np.array([[0.1], [0.4], [0.3]])
        {"times": t, "weights": w, "values": v[:, 0]}[where][1] = bad
        pts = types.SimpleNamespace(times=t, weights=w)
        # weights are bounded below by 0, so their message states that range
        with pytest.raises(ConfigError, match=f"^{where} must (be finite numbers|lie in)"):
            energy_integral_mc(pts, v, 0.5, 0.5)

    @pytest.mark.parametrize("cap", [None, 2])
    def test_overflowing_sum_raises_numerical_error(self, monkeypatch, cap):
        # two distinct points 5e-324 apart made a term, so the sum, infinite
        if cap is not None:   # the subsampled regime
            monkeypatch.setattr(estimators, "ENERGY_PAIR_CAP", cap)
            monkeypatch.setattr(estimators, "ENERGY_DEFAULT_PAIRS", 1000)
        pts = WeightedTimeSet(times=np.array([0.1, 0.1, 0.3]), weights=np.full(3, 1 / 3))
        v = np.array([[0.0], [5e-324], [0.7]])
        with pytest.raises(NumericalError, match="the energy sum is inf"):
            energy_integral_mc(pts, v, 1.0, 0.5)

    def test_needs_two_points(self):
        pts = WeightedTimeSet(times=np.array([0.5]), weights=np.array([1.0]))
        with pytest.raises(ConfigError):
            energy_integral_mc(pts, np.zeros((1, 1)), 0.5, 0.5)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0])
    def test_gamma_positive_and_finite(self, gamma):
        # NaN and inf gave a NaN and an infinite energy
        pts = WeightedTimeSet(times=np.array([0.25, 0.75]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ConfigError, match="gamma must be (> 0|a finite number)"):
            energy_integral_mc(pts, np.zeros((2, 1)), gamma, 0.5)


class TestKernelExpectation:
    def test_bounded_by_one_at_t_one(self):
        val = kernel_expectation_mc(1.0, 0.5, 0.5, 0.4, 1, 20_000, seed=0)
        assert val <= 1.0

    def test_boundary_rejected(self):
        with pytest.raises(GammaAtBoundary):
            kernel_expectation_mc(0.5, 0.3, 0.6, 0.6, 1, 100)
        # a NaN gamma gave a NaN mean
        with pytest.raises(ConfigError, match="gamma must be a finite number"):
            kernel_expectation_mc(0.5, 0.3, 0.6, np.nan, 1, 100)

    @pytest.mark.parametrize("d", [1.5, True, 0])
    def test_d_must_be_a_whole_number(self, d):
        # 1.5 and True raised TypeError from the normal draw, 0 a ValueError
        with pytest.raises(ConfigError, match="^d must be"):
            kernel_expectation_mc(0.5, 0.3, 0.5, 0.4, d, 100)

    def test_alpha_above_h_rejected(self):
        with pytest.raises(AlphaExceedsH, match="alpha=0.5 exceeds H=0.4"):
            kernel_expectation_mc(0.5, 0.5, 0.4, 0.3, 1, 100)

    @pytest.mark.parametrize("alpha, hurst, gamma, d", [
        (0.85, 0.9, 0.36, 2),   # gamma < Hd
        (0.2, 0.8, 3.0, 1),     # gamma > Hd
        (0.3, 0.5, 2.0, 3),     # gamma > Hd
    ])
    def test_agrees_with_quadrature(self, alpha, hurst, gamma, d):
        # the squared kernel is the kernel at 2 gamma, so the quadrature also
        # gives the Monte Carlo's standard error
        n = 100_000
        for i, t in enumerate((1.0, 2.0**-3, 2.0**-8)):
            exact = kernel_expectation_quad(t, alpha, hurst, gamma, d)
            second = kernel_expectation_quad(t, alpha, hurst, 2.0 * gamma, d)
            stderr = np.sqrt(max(second - exact**2, 0.0) / n)
            got = kernel_expectation_mc(t, alpha, hurst, gamma, d, n, seed=i)
            assert abs(got - exact) <= 4.0 * stderr + 1e-12 * exact

    def test_quadrature_at_alpha_equal_h(self):
        # alpha = H: the max is t^H max(1, S), a check on the oracle's split
        t, h, gamma = 0.25, 0.5, 0.7
        rng = np.random.default_rng(0)
        s = np.max(np.abs(rng.standard_normal((400_000, 2))), axis=1)
        mc = np.mean((t**h * np.maximum(1.0, s)) ** (-gamma / h))
        assert kernel_expectation_quad(t, h, h, gamma, 2) == pytest.approx(mc, rel=2e-3)

    def test_deterministic_in_seed(self):
        a = kernel_expectation_mc(0.25, 0.3, 0.6, 0.4, 2, 10_000, seed=3)
        b = kernel_expectation_mc(0.25, 0.3, 0.6, 0.4, 2, 10_000, seed=3)
        assert a == b

    def test_scaling_branches_small(self):
        # loose module-level check; the tight version runs in acceptance
        ks = np.arange(1, 9)
        ts = 2.0**-ks

        def slope(alpha, hurst, gamma, d):
            vals = [
                kernel_expectation_mc(t, alpha, hurst, gamma, d, 200_000, seed=i)
                for i, t in enumerate(ts)
            ]
            return np.polyfit(np.log(ts), np.log(vals), 1)[0]

        s1 = slope(0.85, 0.9, 0.36, 2)          # gamma < Hd
        assert s1 == pytest.approx(-0.36 * 0.85 / 0.9, rel=0.08)
        s2 = slope(0.2, 0.8, 3.0, 1)            # gamma > Hd
        assert s2 == pytest.approx(1 * (0.8 - 0.2) - 3.0, rel=0.08)


class TestGraphCloud:
    def test_restrict_to_cantor(self):
        g = TimeGrid.regular(2**10)
        p = generate_fbm_path(0.5, g, seed=0)
        cloud = GraphCloud.from_path(p)
        fset = middle_thirds_cantor(4)
        sub = cloud.restrict(fset)
        assert 0 < sub.n < cloud.n
        assert np.all(fset.contains(sub.times))

    def test_restrict_to_a_set_holding_no_point(self):
        cloud = GraphCloud(times=np.array([0.4, 0.5, 0.6]), values=np.zeros((3, 1)))
        with pytest.raises(ConfigError, match="no cloud points fall inside the set"):
            cloud.restrict(middle_thirds_cantor(1))

    def test_times_outside_unit_interval(self):
        with pytest.raises(ConfigError):
            GraphCloud(times=np.array([0.5, 1.5]), values=np.zeros((2, 1)))
