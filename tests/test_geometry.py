import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafbm.errors import AlphaExceedsH, ConfigError, HOrderViolation
from parafbm.geometry import (
    comparison_bounds,
    holder_graph_bounds,
    metric_dim_from_psi_dim,
    psi_dim_from_metric_dim,
    rho_h,
    theoretical_graph_dimension,
)


class TestRhoH:
    def test_identity(self):
        p = (0.3, np.array([0.1, -0.2]))
        assert rho_h(p, p, 0.5) == 0.0

    def test_unit_time_gap(self):
        for h in (0.2, 0.5, 0.9):
            assert rho_h((0.0, np.zeros(1)), (1.0, np.zeros(1)), h) == pytest.approx(1.0)

    def test_spec_example(self):
        u = (0.0, np.array([0.0, 0.0]))
        v = (0.25, np.array([0.6, 0.1]))
        assert rho_h(u, v, 0.5) == pytest.approx(0.6)

    def test_metric_axioms_random_triples(self):
        # 10^5 triples per H: symmetry, positivity, triangle inequality
        rng = np.random.default_rng(3)
        n = 10**5
        for h in (0.2, 0.5, 0.8):
            t = rng.uniform(0, 1, (3, n))
            x = rng.uniform(-2, 2, (3, n, 2))
            def dist(i, j):
                return rho_h((t[i], x[i]), (t[j], x[j]), h)
            dab, dba = dist(0, 1), dist(1, 0)
            dbc, dac = dist(1, 2), dist(0, 2)
            assert np.array_equal(dab, dba)
            assert np.all(dab >= 0)
            assert np.all(dac <= dab + dbc + 1e-12)


    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 3),
           hurst=st.one_of(st.just(0.5), st.floats(0.01, 0.99)))
    def test_array_entries_are_the_two_point_values(self, data, n, d, hurst):
        times = st.lists(st.floats(-1.0, 2.0), min_size=n, max_size=n)
        values = st.lists(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d),
                          min_size=n, max_size=n)
        s, t = np.array(data.draw(times)), np.array(data.draw(times))
        x, y = np.array(data.draw(values)), np.array(data.draw(values))
        got = rho_h((s, x), (t, y), hurst)
        assert got.shape == (n,)
        for i in range(n):
            one = rho_h((s[i], x[i]), (t[i], y[i]), hurst)
            assert type(one) is float
            assert np.float64(one).tobytes() == got[i].tobytes()

    def test_broadcasts_over_a_pair_matrix(self):
        rng = np.random.default_rng(4)
        t, x = rng.uniform(0, 1, 30), rng.normal(0, 1, (30, 2))
        m = rho_h((t[:, None], x[:, None, :]), (t, x), 0.3)
        assert m.shape == (30, 30)
        assert m[4, 17] == rho_h((t[4], x[4]), (t[17], x[17]), 0.3)


class TestGraphDimensionFormula:
    def test_alpha_equals_h(self):
        for dim_a in (0.0, 0.4, 1.0):
            assert theoretical_graph_dimension(0.5, 0.5, dim_a, 1) == pytest.approx(dim_a)

    def test_full_interval_example(self):
        assert theoretical_graph_dimension(0.3, 0.6, 1.0, 1) == pytest.approx(1.3)

    def test_cantor_like_example(self):
        v = theoretical_graph_dimension(0.3, 0.6, 0.4, 1)
        assert v == pytest.approx(0.7)
        assert v > 0.6  # exceeds Hd since dim_a exceeds alpha*d

    def test_error_on_alpha_above_h(self):
        with pytest.raises(AlphaExceedsH):
            theoretical_graph_dimension(0.7, 0.6, 0.5, 1)

    def test_lower_bound_and_strictness(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            h = rng.uniform(0.05, 0.95)
            a = rng.uniform(0.04, h)
            dim_a = rng.uniform(0.0, 1.0)
            d = int(rng.integers(1, 4))
            v = theoretical_graph_dimension(a, h, dim_a, d)
            assert v >= dim_a - 1e-12
            if a < h and dim_a > 1e-9:
                assert v > dim_a

    def test_monotonicity_grid(self):
        dims = np.linspace(0.0, 1.0, 11)
        hs = np.linspace(0.3, 0.9, 7)
        alphas = np.linspace(0.1, 0.3, 5)
        for d in (1, 2):
            for a in alphas:
                for h in hs:
                    vals = [theoretical_graph_dimension(a, h, x, d) for x in dims]
                    assert np.all(np.diff(vals) >= -1e-12)   # nondecreasing in dim_a
            for a in alphas:
                for x in dims:
                    vals = [theoretical_graph_dimension(a, h, x, d) for h in hs]
                    assert np.all(np.diff(vals) >= -1e-12)   # nondecreasing in H
            for h in hs:
                for x in dims:
                    vals = [theoretical_graph_dimension(a, h, x, d) for a in alphas]
                    assert np.all(np.diff(vals) <= 1e-12)    # nonincreasing in alpha


class TestComparisonBounds:
    def test_example(self):
        lo, up = comparison_bounds(1.3, 0.5, 0.75, 2)
        assert lo == pytest.approx(1.45)
        assert up == pytest.approx(1.8)

    def test_lower_equals_input_below_one(self):
        for v in (0.0, 0.4, 1.0):
            lo, _ = comparison_bounds(v, 0.4, 0.7, 1)
            assert lo == pytest.approx(v)

    def test_order_violation(self):
        with pytest.raises(HOrderViolation):
            comparison_bounds(1.0, 0.7, 0.7, 1)
        with pytest.raises(HOrderViolation):
            comparison_bounds(1.0, 0.8, 0.7, 1)

    def test_lower_le_upper_on_grid(self):
        # exhaustive feasibility grid: 0 <= v <= 1 + H d
        hs = np.linspace(0.1, 0.85, 12)
        for d in (1, 2, 3):
            for h in hs:
                for hp in np.linspace(h + 0.05, 0.95, 8):
                    for v in np.linspace(0.0, 1.0 + h * d, 15):
                        lo, up = comparison_bounds(v, h, hp, d)
                        assert lo <= up + 1e-9

    def test_brackets_graph_dimension_formula(self):
        # consistency with the exact formula across alpha <= H < H'
        for d in (1, 2):
            for dim_a in (0.3, 0.63, 1.0):
                for a in (0.2, 0.35, 0.5):
                    for h in (0.5, 0.6, 0.7):
                        if a > h:
                            continue
                        for hp in (0.75, 0.85, 0.95):
                            v_h = theoretical_graph_dimension(a, h, dim_a, d)
                            v_hp = theoretical_graph_dimension(a, hp, dim_a, d)
                            lo, up = comparison_bounds(v_h, h, hp, d)
                            assert lo - 1e-9 <= v_hp <= up + 1e-9


class TestHolderBounds:
    def test_alpha_equals_h_collapses(self):
        lo, up = holder_graph_bounds(0.5, 0.5, 0.7, 2)
        assert lo == up == pytest.approx(0.7)

    def test_example(self):
        lo, up = holder_graph_bounds(0.25, 0.5, 0.5, 2)
        assert (lo, up) == (pytest.approx(0.5), pytest.approx(1.0))

    def test_upper_matches_graph_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            h = rng.uniform(0.1, 0.9)
            a = rng.uniform(0.05, h)
            dim_a = rng.uniform(0, 1)
            d = int(rng.integers(1, 4))
            _, up = holder_graph_bounds(a, h, dim_a, d)
            assert up == pytest.approx(theoretical_graph_dimension(a, h, dim_a, d))

    def test_lower_le_upper(self):
        lo, up = holder_graph_bounds(0.3, 0.8, 0.4, 3)
        assert lo <= up


class TestDimConversions:
    def test_forward(self):
        assert psi_dim_from_metric_dim(3.0, 0.5) == pytest.approx(1.5)

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            v = rng.uniform(0, 4)
            h = rng.uniform(0.05, 0.95)
            assert metric_dim_from_psi_dim(psi_dim_from_metric_dim(v, h), h) == pytest.approx(
                v, abs=1e-12
            )

    def test_threshold_equivalence(self):
        # psi-dim > H d exactly when metric dim > d
        rng = np.random.default_rng(7)
        for _ in range(1000):
            h = rng.uniform(0.05, 0.95)
            d = int(rng.integers(1, 4))
            dim_rho = rng.uniform(0, 2 * d)
            assert (psi_dim_from_metric_dim(dim_rho, h) > h * d) == (dim_rho > d)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            psi_dim_from_metric_dim(-0.1, 0.5)
