import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complex_half_spectrum_fgn,
    four_power_increment_covariance,
    full_complex_fgn_eigenvalues,
    full_complex_fgn_path,
    mixed_increment_variance,
    mp_increment_covariance,
    naive_fgn_path,
    one_expression_fgn_autocovariance,
)
from parafbm import estimators, fbm
from parafbm.errors import ConfigError, CovarianceNotPSD
from parafbm.estimators import energy_integral_mc, kernel_expectation_mc
from parafbm.fbm import (
    TimeGrid,
    fbm_covariance,
    generate_fbm_path,
    generate_mixed_path,
    path_from_json,
    path_to_csv,
    path_to_json,
)
from parafbm.fractals import WeightedTimeSet, middle_thirds_cantor, sample_natural_measure
from parafbm.gaussian import detcov_margin_sweep, lnd_margin_sweep


class TestCovarianceFormulas:
    def test_variance_at_one(self):
        assert fbm_covariance(1.0, 1.0, 0.5) == 1.0

    def test_zero_time(self):
        for h in (0.2, 0.5, 0.8):
            assert fbm_covariance(0.0, 0.7, h) == 0.0

    def test_brownian_quarter(self):
        assert fbm_covariance(0.25, 0.75, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s, t = rng.uniform(0, 1, 2)
            h = rng.uniform(0.05, 0.95)
            assert fbm_covariance(s, t, h) == pytest.approx(
                fbm_covariance(t, s, h), rel=1e-15
            )

    def test_mixed_is_sum(self):
        def mixed_kernel(s, t, hurst, alpha_p):
            return fbm_covariance(s, t, hurst) + fbm_covariance(s, t, alpha_p)

        assert mixed_kernel(1.0, 1.0, 0.5, 0.3) == pytest.approx(2.0)
        assert mixed_kernel(0.0, 0.4, 0.7, 0.2) == 0.0
        assert mixed_kernel(0.5, 1.0, 0.5, 0.25) == pytest.approx(1.0)

    def test_hurst_validation(self):
        with pytest.raises(ConfigError):
            fbm_covariance(0.5, 0.5, 1.0)
        with pytest.raises(ConfigError):
            fbm_covariance(0.5, 0.5, 0.0)

    @pytest.mark.parametrize("value", ["x", "0.5", True, np.True_, None, [0.5]])
    def test_non_number_hurst_is_a_config_error(self, value):
        with pytest.raises(ConfigError, match="alpha_p must be a number in"):
            fbm.validate_hurst(value, "alpha_p")

    def test_numpy_hurst_accepted(self):
        assert fbm.validate_hurst(np.float32(0.5)) == 0.5
        assert fbm.validate_hurst(np.float64(0.25)) == 0.25


class TestCovarianceMatrix:
    def test_single_time(self):
        t = np.array([0.7])
        m = fbm_covariance(t[:, None], t, 0.3)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(0.7**0.6)

    def test_brownian_two_times(self):
        t = np.array([0.5, 1.0])
        m = fbm_covariance(t[:, None], t, 0.5)
        np.testing.assert_allclose(m, [[0.5, 0.5], [0.5, 1.0]], atol=1e-15)

    def test_entries_match_formula_and_psd(self):
        # spec-level sweep runs in acceptance; a smaller version here
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            t = np.sort(rng.uniform(0.0, 1.0, n))
            h = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
            m = fbm_covariance(t[:, None], t, h)
            i, j = rng.integers(0, n, 2)
            assert m[i, j] == pytest.approx(fbm_covariance(t[i], t[j], h), rel=1e-14)
            assert np.allclose(m, m.T)
            eig = np.linalg.eigvalsh(m)
            assert eig.min() >= -1e-10 * np.trace(m)


class TestIncrementCovariance:
    """The Cholesky sampler's increment covariance against a 50-digit oracle.

    As in criterion 1 the error is taken relative to the largest of the
    four gap powers each entry combines: differences of nearby gaps cancel,
    where no float64 evaluation meets a result-relative bound.
    """

    @staticmethod
    def _worst_scale_relative(tpos, h, entries):
        m = fbm._increment_covariance(tpos, h)
        worst = 0.0
        for i, j in entries:
            want, scale = mp_increment_covariance(tpos, h, i, j)
            worst = max(worst, float(abs(m[i, j] - want) / scale))
        return worst

    def test_random_grids(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 65))
            tpos = np.sort(rng.uniform(0.0, 1.0, n))
            h = float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
            entries = rng.integers(0, n, size=(min(n, 12), 2)).tolist()
            worst = max(worst, self._worst_scale_relative(tpos, h, entries))
        assert worst <= 1e-14

    def test_gap_power_matrix_matches_four_matrices_byte_for_byte(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 129))
            tpos = np.sort(rng.uniform(0.0, 1.0, n))
            h = float(rng.uniform(0.05, 0.95))
            got = fbm._increment_covariance(tpos, h)
            assert got.tobytes() == four_power_increment_covariance(tpos, h).tobytes()

    def test_four_matrices_byte_for_byte_at_the_cap(self):
        n = fbm.MAX_CHOLESKY_N
        tpos = np.sort(np.random.default_rng(2).uniform(0.0, 1.0, n))
        got = fbm._increment_covariance(tpos, 0.6)
        for start in range(0, n, 512):
            rows = slice(start, start + 512)
            want = four_power_increment_covariance(tpos, 0.6, rows)
            assert got[rows].tobytes() == want.tobytes()

    def test_longest_lags_of_a_fine_grid(self):
        # the longest lags cancel most; a quarter of MAX_CHOLESKY_N keeps the
        # four dense power arrays near 8 MiB each
        n = fbm.MAX_CHOLESKY_N // 4
        tpos = np.linspace(0.0, 1.0, n + 1)[1:]
        entries = [(0, n - 1), (n - 1, 0), (0, n - 2), (1, n - 1), (n - 1, n - 1), (0, 0)]
        assert self._worst_scale_relative(tpos, 0.6, entries) <= 1e-14


class TestValidateCount:
    @pytest.mark.parametrize("value", [1.5, True, "2", None, float("inf")])
    def test_non_whole_numbers_rejected(self, value):
        with pytest.raises(ConfigError, match="n must be an integer"):
            fbm.validate_count(value, "n")

    @pytest.mark.parametrize("value", [0, -3, 0.0])
    def test_below_one_rejected_with_the_value(self, value):
        with pytest.raises(ConfigError, match=f"^n must be >= 1, got {int(value)}$"):
            fbm.validate_count(value, "n")

    def test_whole_numbers_returned_as_int(self):
        assert [fbm.validate_count(v, "n") for v in (1, 3.0, np.int64(7))] == [1, 3, 7]
        assert type(fbm.validate_count(np.int64(7), "n")) is int

    @pytest.mark.parametrize("value", [2**63, 10**400, 1e300])
    def test_above_the_largest_array_length_rejected(self, value):
        with pytest.raises(ConfigError, match="^n must be at most 9223372036854775807, the "
                                              "largest array length"):
            fbm.validate_count(value, "n")


class TestValidateReal:
    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, float("nan"),
                                       float("inf"), -float("inf"), 10**400, [0.5]])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(ConfigError, match="^x must be a finite number, got "):
            fbm.validate_real(value, "x")

    @pytest.mark.parametrize("value, kwargs, message", [
        (-1, dict(low=0), "x must be >= 0, got -1"),
        (0.0, dict(low=0, above=True), "x must be > 0, got 0.0"),
        (1.5, dict(low=0, high=1), "x must be >= 0 and <= 1, got 1.5"),
        (2, dict(high=1), "x must be <= 1, got 2"),
    ])
    def test_out_of_range_rejected_with_the_rule(self, value, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            fbm.validate_real(value, "x", **kwargs)

    def test_numbers_returned_as_float(self):
        values = [fbm.validate_real(v, "x", low=0, high=1) for v in (0, 1, np.float32(0.5), 0.25)]
        assert values == [0.0, 1.0, 0.5, 0.25] and all(type(v) is float for v in values)


class TestTimeGrid:
    def test_regular_uniform(self):
        g = TimeGrid.regular(16)
        assert g.uniform and len(g) == 16 and g.times[0] == 0.0

    def test_no_zero_uniform(self):
        g = TimeGrid(np.arange(1, 9) / 8)
        assert g.uniform and g.times[0] == pytest.approx(1 / 8)

    def test_nonuniform_first_gap(self):
        # equal internal gaps but a different implicit gap from 0
        g = TimeGrid(np.array([0.5, 0.75, 1.0]))
        assert not g.uniform

    def test_nonuniform_with_zero(self):
        g = TimeGrid(np.array([0.0, 0.5, 0.75, 1.0]))
        assert not g.uniform

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeGrid(np.array([0.3, 0.2]))
        with pytest.raises(ConfigError):
            TimeGrid(np.array([0.3, 1.2]))
        with pytest.raises(ConfigError):
            TimeGrid(np.array([]))

    def test_nan_time_rejected(self):
        # a NaN fails every comparison; it must not pass the range checks
        with pytest.raises(ConfigError, match="must lie in"):
            TimeGrid(np.array([0.1, np.nan, 0.5]))


class TestGeneration:
    def test_starts_at_zero(self):
        g = TimeGrid.regular(32)
        for h in (0.2, 0.5, 0.8):
            p = generate_fbm_path(h, g, d=3, seed=5)
            assert np.all(p.values[:, 0] == 0.0)

    def test_deterministic_replay(self):
        g = TimeGrid.regular(64)
        a = generate_fbm_path(0.3, g, d=2, seed=11)
        b = generate_fbm_path(0.3, g, d=2, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_path(self):
        g = TimeGrid.regular(64)
        a = generate_fbm_path(0.3, g, d=1, seed=11)
        b = generate_fbm_path(0.3, g, d=1, seed=12)
        assert not np.array_equal(a.values, b.values)

    def test_methods_agree_in_law_variance(self):
        # both samplers reproduce Var B(t) = t^2H within 3 SE over 3000 seeds:
        # circulant embedding on the uniform grid, Cholesky on the squared one
        nrep = 3000
        for h in (0.2, 0.8):
            for g in (TimeGrid.regular(9), TimeGrid(np.linspace(0.0, 1.0, 9) ** 2)):
                finals = np.array([
                    generate_fbm_path(h, g, seed=s).values[0]
                    for s in range(nrep)
                ])
                emp = (finals**2).mean(axis=0)[1:]
                theo = g.times[1:] ** (2 * h)
                se = theo * np.sqrt(2.0 / nrep)
                assert np.all(np.abs(emp - theo) <= 3 * se)

    def test_brownian_increment_independence(self):
        # disjoint-interval increments uncorrelated for H = 1/2, within 3 SE
        g = TimeGrid.regular(5)   # 0, .25, .5, .75, 1
        nrep = 4000
        vals = np.array([generate_fbm_path(0.5, g, seed=s).values[0] for s in range(nrep)])
        inc1 = vals[:, 1] - vals[:, 0]
        inc2 = vals[:, 3] - vals[:, 2]
        corr = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(nrep)

    def test_arbitrary_grid_cholesky(self):
        g = TimeGrid(np.array([0.13, 0.55, 0.56, 0.99]))
        nrep = 4000
        vals = np.array([generate_fbm_path(0.7, g, seed=s).values[0] for s in range(nrep)])
        emp = np.cov(vals.T, bias=True)
        theo = fbm_covariance(g.times[:, None], g.times, 0.7)
        assert np.max(np.abs(emp - theo)) <= 3 * theo.max() * np.sqrt(2.0 / nrep)

    def test_mixed_increment_variance_mc(self):
        g = TimeGrid.regular(5)
        h, ap = 0.6, 0.3
        nrep = 4000
        vals = np.array([
            generate_mixed_path(h, ap, g, seed_pair=(2 * s, 2 * s + 1)).values[0]
            for s in range(nrep)
        ])
        inc = vals[:, 2] - vals[:, 1]
        theo = mixed_increment_variance(g.times[1], g.times[2], h, ap)
        se = theo * np.sqrt(2.0 / nrep)
        assert abs((inc**2).mean() - theo) <= 3 * se

    def test_mixed_starts_at_zero(self):
        g = TimeGrid.regular(16)
        z = generate_mixed_path(0.7, 0.3, g, d=2, seed_pair=(1, 2))
        assert np.all(z.values[:, 0] == 0.0)

    def test_extreme_hurst_indices(self):
        g = TimeGrid.regular(256)
        for h in (0.02, 0.98):
            p = generate_fbm_path(h, g, seed=0)
            assert np.isfinite(p.values).all()

    def test_nonzero_start_value_rejected(self):
        from parafbm.fbm import SamplePath
        g = TimeGrid.regular(4)
        with pytest.raises(ConfigError):
            SamplePath(grid=g, values=np.ones((1, 4)),
                       hurst_components=(0.5,), seed=(0,))

    @pytest.mark.parametrize("first", [np.nan, 1e-300, -np.inf])
    def test_start_value_nan_or_nonzero_rejected(self, first):
        from parafbm.fbm import SamplePath
        values = np.zeros((2, 4))
        values[1, 0] = first
        with pytest.raises(ConfigError):
            SamplePath(grid=TimeGrid.regular(4), values=values,
                       hurst_components=(0.5,), seed=(0,))

    def test_negative_zero_start_accepted(self):
        from parafbm.fbm import SamplePath
        values = np.zeros((1, 4))
        values[0, 0] = -0.0
        SamplePath(grid=TimeGrid.regular(4), values=values, hurst_components=(0.5,), seed=(0,))

    def test_values_not_matching_the_grid_rejected(self):
        from parafbm.fbm import SamplePath
        with pytest.raises(ConfigError, match="does not match grid length 4"):
            SamplePath(grid=TimeGrid.regular(4), values=np.zeros((1, 3)),
                       hurst_components=(0.5,), seed=(0,))

    @pytest.mark.parametrize("values", [[[0.0, np.nan]], [[0.0, np.inf]], [["0", "0.5"]],
                                        [[0.0, True]], np.zeros((1, 2), dtype=bool)],
                             ids=["nan", "inf", "string", "bool-in-list", "bool-array"])
    def test_values_not_finite_reals_rejected(self, values):
        from parafbm.fbm import SamplePath
        with pytest.raises(ConfigError, match="values must"):
            SamplePath(grid=TimeGrid.regular(2), values=values,
                       hurst_components=(0.5,), seed=(0,))

    def test_cholesky_failure_raises_not_psd(self, monkeypatch):
        # no grid tried makes the factorization fail, so the covariance is made indefinite
        monkeypatch.setattr(fbm, "_increment_covariance", lambda tpos, hurst: -np.eye(tpos.size))
        with pytest.raises(CovarianceNotPSD, match="failed Cholesky factorization"):
            generate_fbm_path(0.5, TimeGrid([0.25, 0.5, 1.0]))

    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.0, 17), np.array([0.25, 0.5, 1.0])],
                             ids=["uniform", "cholesky"])
    def test_array_grid_gives_the_time_grid_path(self, times):
        from_array = generate_fbm_path(0.4, times, d=2, seed=3)
        from_grid = generate_fbm_path(0.4, TimeGrid(times), d=2, seed=3)
        assert from_array.values.tobytes() == from_grid.values.tobytes()
        assert from_array.grid.times.tobytes() == from_grid.grid.times.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        hurst=st.floats(0.05, 0.95),
        alpha_p=st.floats(0.05, 0.95),
        grid=st.sampled_from(["zero", "no-zero", "explicit", "single"]),
        n=st.integers(2, 40),
        d=st.integers(1, 3),
        seeds=st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)),
    )
    def test_mixed_is_sum_of_tagged_components(self, hurst, alpha_p, grid, n, d, seeds):
        g = {
            "zero": lambda: TimeGrid.regular(n),
            "no-zero": lambda: TimeGrid(np.arange(1, n + 1) / n),
            "explicit": lambda: TimeGrid(np.sort(np.random.default_rng(n).uniform(
                0.01, 1.0, n))),
            "single": lambda: TimeGrid(np.array([0.0, 0.4])),
        }[grid]()
        got = generate_mixed_path(hurst, alpha_p, g, d=d, seed_pair=seeds)
        p0 = generate_fbm_path(hurst, g, d=d, seed=seeds[0], _tag=0)
        p1 = generate_fbm_path(alpha_p, g, d=d, seed=seeds[1], _tag=1)
        assert got.values.tobytes() == (p0.values + p1.values).tobytes()
        assert got.seed == seeds and got.hurst_components == (hurst, alpha_p)

    def test_mixed_equal_hurst_doubles_variance(self):
        g = TimeGrid.regular(3)
        nrep = 4000
        finals = np.array([
            generate_mixed_path(0.5, 0.5, g, seed_pair=(s, s)).values[0, -1]
            for s in range(nrep)
        ])
        se = 2.0 * np.sqrt(2.0 / nrep)
        assert abs((finals**2).mean() - 2.0) <= 3 * se

    def test_coordinate_streams_order_independent(self):
        # coordinate j draws from its own stream: same values whether the
        # path is generated with d=1 or d=3
        g = TimeGrid.regular(128)
        solo = generate_fbm_path(0.4, g, d=1, seed=9)
        multi = generate_fbm_path(0.4, g, d=3, seed=9)
        assert np.array_equal(solo.values[0], multi.values[0])

    def test_cholesky_cap(self):
        g = TimeGrid(np.sort(np.random.default_rng(0).uniform(0, 1, 5000)))
        with pytest.raises(ConfigError):
            generate_fbm_path(0.5, g)

    @pytest.mark.parametrize("kwargs", [
        {"seed": 0.7}, {"seed": 2.5}, {"seed": True}, {"seed": "3"}, {"seed": float("nan")},
        {"d": 1.5}, {"d": True}, {"d": "2"},
    ])
    def test_non_integral_seed_or_d_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            generate_fbm_path(0.5, TimeGrid.regular(16), **kwargs)

    def test_whole_number_seed_and_d_accepted(self):
        g = TimeGrid.regular(16)
        want = generate_fbm_path(0.5, g, d=2, seed=2)
        for seed, d in ((2.0, 2.0), (np.int64(2), np.int32(2)), (np.float64(2.0), 2)):
            got = generate_fbm_path(0.5, g, d=d, seed=seed)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.seed == (2,) and type(got.seed[0]) is int
        mixed = generate_mixed_path(0.3, 0.6, g, seed_pair=(4.0, np.int64(5)))
        assert mixed.seed == (4, 5)
        with pytest.raises(ConfigError):
            generate_mixed_path(0.3, 0.6, g, seed_pair=(4, 5.5))


class TestHalfSpectrumSampler:
    """The half-spectrum real-FFT sampler against two independent routes."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 48),
        hurst=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**63),
        tag=st.integers(0, 5),
        coord=st.integers(0, 2),
    )
    def test_matches_pure_python_dft(self, n, hurst, seed, tag, coord):
        # a uniform grid with two or more increments is drawn by circulant embedding
        g = TimeGrid(np.arange(1, n + 1) / n)
        got = generate_fbm_path(hurst, g, d=coord + 1, seed=seed, _tag=tag).values[coord]
        want = np.array(naive_fgn_path(hurst, n, seed, tag, coord))
        assert np.all(np.abs(got - want) <= 1e-12 + 1e-9 * np.abs(want))

    @pytest.mark.parametrize("n", [2**12, 2**16 - 1])
    @pytest.mark.parametrize("hurst", [0.05, 0.1, 0.3, 0.5, 0.7, 0.95])
    def test_matches_full_complex_route(self, n, hurst):
        # the routes round the eigenvalues differently, and the zero-frequency
        # eigenvalue is the smallest: at H = 0.05 and 2^16 - 1 points it is
        # 2.4e-6 of the largest, so its square root, which sets the path's
        # linear trend, magnifies that rounding; 1e-11 bounds it there
        tol = 1e-11 if (hurst, n) == (0.05, 2**16 - 1) else 1e-12
        g = TimeGrid(np.arange(1, n + 1) / n)
        for seed, tag in ((0, 0), (7, 1)):
            got = generate_fbm_path(hurst, g, d=2, seed=seed, _tag=tag).values
            for coord in (0, 1):
                want = full_complex_fgn_path(hurst, n, seed, tag, coord)
                assert np.abs(got[coord] - want).max() <= tol * np.abs(want).max()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([1, 2, 3, 16, 17, 100, 4095]), st.integers(1, 300)),
        hurst=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**63),
    )
    def test_spectrum_assembly_bit_equal_to_complex_expression(self, n, hurst, seed):
        root = fbm._fgn_circulant_root(n, hurst, 1.0 / n)
        z, half = np.empty(2 * n), np.empty(n + 1, dtype=complex)
        # another stream draws into the workspace first, as in a path of d >= 2
        fbm._circulant_increments(root, fbm.philox_stream(seed, (0, 1)), z, half)
        got = fbm._circulant_increments(root, fbm.philox_stream(seed, (0, 0)), z, half)
        lam = fbm._fgn_circulant_eigenvalues(n, hurst, 1.0 / n)
        z = fbm.philox_stream(seed, (0, 0)).standard_normal(2 * n)
        want = complex_half_spectrum_fgn(lam, z)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_spectrum_assembly_bit_equal_at_2_16(self):
        n = 2**16 - 1
        for hurst in (0.05, 0.5, 0.95):
            root = fbm._fgn_circulant_root(n, hurst, 1.0 / n)
            got = fbm._circulant_increments(root, fbm.philox_stream(3, (0, 0)),
                                            np.empty(2 * n), np.empty(n + 1, dtype=complex))
            lam = fbm._fgn_circulant_eigenvalues(n, hurst, 1.0 / n)
            z = fbm.philox_stream(3, (0, 0)).standard_normal(2 * n)
            want = complex_half_spectrum_fgn(lam, z)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_one_workspace_per_path(self):
        # a 2^16-point mixed path keeps its values (0.5 MiB) and one workspace
        # of 2n normals and n+1 complex coefficients (1 MiB each); a workspace
        # per component would peak at 4.5 MiB.  The first call memoises the
        # spectral roots, which the traced call then only reads.
        g = TimeGrid.regular(2**16)
        generate_mixed_path(0.8, 0.6, g, d=1, seed_pair=(0, 1))
        # under -X tracemalloc tracing is already on: reset its peak and leave it on
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            generate_mixed_path(0.8, 0.6, g, d=1, seed_pair=(0, 1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 2.6 * 2**20

    def test_eigenvalues_match_full_complex_fft(self):
        for n, hurst in ((1, 0.3), (2, 0.7), (47, 0.05), (2**12, 0.95)):
            want = full_complex_fgn_eigenvalues(hurst, n)
            got = fbm._fgn_circulant_eigenvalues(n, hurst, 1.0 / n)
            assert got.shape == (2 * n,)
            assert np.abs(got - want).max() <= 1e-14 * want.max()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([4095, 2**16 - 1]), st.integers(1, 300)),
        hurst=st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.01, 0.99)),
    )
    def test_root_and_autocovariance_bit_equal_to_one_expression(self, n, hurst):
        # h2 = 0.5, 1 and 1.5 take numpy's fast scalar-power routes, which
        # the in-place ** must take as the expression's ** does
        want_acov = one_expression_fgn_autocovariance(n, hurst, 1.0 / n)
        got_acov = fbm._fgn_autocovariance(n, hurst, 1.0 / n)
        assert np.array_equal(got_acov.view(np.uint64), want_acov.view(np.uint64))
        lam = np.fft.hfft(want_acov, 2 * n)
        want_root = np.sqrt(np.maximum(lam[:n + 1], 0.0))
        got_root = fbm._fgn_circulant_root(n, hurst, 1.0 / n)
        assert np.array_equal(got_root.view(np.uint64), want_root.view(np.uint64))


class TestSerialization:
    def test_csv_columns(self):
        p = generate_fbm_path(0.5, TimeGrid.regular(4), d=2, seed=3)
        buf = io.StringIO()
        path_to_csv(p, buf)
        text = buf.getvalue()
        lines = text.strip().splitlines()
        assert lines[0] == "t,x1,x2"
        assert len(lines) == 5

    def test_json_roundtrip(self):
        p = generate_mixed_path(0.7, 0.4, TimeGrid.regular(6), d=2, seed_pair=(1, 9))
        doc = json.loads(json.dumps(path_to_json(p)))
        q = path_from_json(doc)
        np.testing.assert_allclose(q.values, p.values)
        np.testing.assert_allclose(q.grid.times, p.grid.times)
        assert q.hurst_components == p.hurst_components
        assert q.seed == (1, 9)

    @staticmethod
    def _round_trip_times(times):
        g = TimeGrid(times)
        p = fbm.SamplePath(grid=g, values=np.sin(7.0 * g.times)[None, :],
                           hurst_components=(0.5,), seed=(0,))
        q = path_from_json(json.loads(json.dumps(path_to_json(p))))
        assert q.values.tobytes() == p.values.tobytes()
        return g.spec()["kind"], q.grid.times.tobytes() == g.times.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 2000), top=st.sampled_from([1.0, 0.75, 0.5, 0.3, 0.1]),
           form=st.sampled_from(["linspace-0", "k/n", "linspace-gap"]))
    def test_uniform_grid_round_trip_is_exact(self, n, top, form):
        times = {"linspace-0": np.linspace(0.0, top, n),
                 "k/n": np.arange(1, n + 1) / n * top,
                 "linspace-gap": np.linspace(top / n, top, n)}[form]
        kind, exact = self._round_trip_times(times)
        assert exact
        if form == "linspace-0":
            assert kind == "uniform"   # so TimeGrid.regular keeps its compact spec

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200, unique=True))
    def test_explicit_grid_round_trip_is_exact(self, times):
        _, exact = self._round_trip_times(np.sort(times))
        assert exact

    def test_envelope_fields(self):
        p = generate_fbm_path(0.25, TimeGrid.regular(4), seed=2)
        doc = path_to_json(p)
        assert doc["hurst"] == 0.25
        assert doc["alpha_p"] is None
        assert doc["seed"] == [2]
        assert doc["grid"]["kind"] == "uniform"


@pytest.fixture
def empty_eigen_cache():
    fbm._circulant_cache.clear()
    yield fbm._circulant_cache
    fbm._circulant_cache.clear()


class TestEigenvalueCache:
    def test_cold_and_warm_paths_identical(self, empty_eigen_cache):
        for n, d in ((16, 1), (2**12, 2)):
            g = TimeGrid.regular(n)
            empty_eigen_cache.clear()
            cold = generate_fbm_path(0.3, g, d=d, seed=4)
            assert len(empty_eigen_cache) == 1
            warm = generate_fbm_path(0.3, g, d=d, seed=4)
            assert warm.values.tobytes() == cold.values.tobytes()

    def test_cached_arrays_read_only(self, empty_eigen_cache):
        root = fbm._fgn_circulant_root(64, 0.7, 1.0 / 64)
        assert fbm._fgn_circulant_root(64, 0.7, 1.0 / 64) is root
        assert not root.flags.writeable
        with pytest.raises(ValueError):
            root[0] = 1.0

    def test_cached_root_is_a_compact_copy(self, empty_eigen_cache):
        # a view of the 2n spectrum would keep all of it alive in the memo
        n = 2**10
        root = fbm._fgn_circulant_root(n, 0.4, 1.0 / n)
        assert root.shape == (n + 1,) and root.base is None
        assert root.nbytes == sum(a.nbytes for a in empty_eigen_cache.values())

    def test_not_psd_raises_on_every_call(self, empty_eigen_cache, monkeypatch):
        # a negative tolerance puts the clamp floor above every eigenvalue,
        # so the embedding is rejected as it would be for an indefinite one
        monkeypatch.setattr(fbm, "CIRCULANT_CLAMP_TOL", -2.0)
        for _ in range(2):
            with pytest.raises(CovarianceNotPSD):
                generate_fbm_path(0.6, TimeGrid.regular(64))
            assert len(empty_eigen_cache) == 0

    def test_embedding_accepted_at_every_hurst(self, empty_eigen_cache):
        # a rejected embedding fails the draw: none may be rejected up to
        # MAX_CHOLESKY_N increments, at every H on a 0.01 grid and at both ends
        hursts = [k / 100 for k in range(1, 100)] + [1e-6, 1 - 1e-6]
        for n in (2, 3, 16, 17, 255, 1000, 4095, 4096):
            for h in hursts:
                lam = fbm._fgn_circulant_eigenvalues(n, h, 1.0 / n)
                assert lam.shape == (2 * n,) and lam.min() >= 0.0

    def test_byte_total_stays_within_bound(self, empty_eigen_cache):
        # 2^16-point grids hold 0.5 MiB each, so 40 of them overflow the bound
        n = 2**16
        for h in np.linspace(0.05, 0.95, 40):
            fbm._fgn_circulant_root(n, float(h), 1.0 / n)
            total = sum(a.nbytes for a in empty_eigen_cache.values())
            assert total <= fbm.CIRCULANT_CACHE_BYTES
        assert (n, 0.95, 1.0 / n) in empty_eigen_cache
        assert (n, 0.05, 1.0 / n) not in empty_eigen_cache

    def test_array_above_bound_not_cached(self, empty_eigen_cache, monkeypatch):
        monkeypatch.setattr(fbm, "CIRCULANT_CACHE_BYTES", 1000)
        small = fbm._fgn_circulant_root(8, 0.4, 0.125)
        fbm._fgn_circulant_root(128, 0.4, 1.0 / 128)
        assert list(empty_eigen_cache.values()) == [small]


def _natural_measure(seed):
    return sample_natural_measure(middle_thirds_cantor(4), 64, seed=seed).times.tobytes()


def _energy_pairs(seed):
    t = np.linspace(0.0, 1.0, 40)
    pts = WeightedTimeSet(times=t, weights=np.full(40, 1 / 40))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "ENERGY_PAIR_CAP", 10)
        mp.setattr(estimators, "ENERGY_DEFAULT_PAIRS", 500)
        val = energy_integral_mc(pts, np.sqrt(t)[:, None], 0.5, 0.5, pair_seed=seed)
    return np.float64(val).tobytes()


def _kernel_mc(seed):
    return np.float64(kernel_expectation_mc(0.25, 0.3, 0.6, 0.4, 2, 1000, seed=seed)).tobytes()


def _detcov_sweep(seed):
    return json.dumps(detcov_margin_sweep(4, seed=seed)).encode()


def _lnd_sweep(seed):
    return json.dumps(lnd_margin_sweep(4, seed=seed)).encode()


_SEEDED = [_natural_measure, _energy_pairs, _kernel_mc, _detcov_sweep, _lnd_sweep]


class TestSeededStreams:
    """Every Philox consumer reads its seed whole and non-negative."""

    @pytest.mark.parametrize("draw", _SEEDED, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [0.7, 3.5, -1, True, "3", None])
    def test_bad_seed_rejected(self, draw, seed):
        with pytest.raises(ConfigError):
            draw(seed)

    @pytest.mark.parametrize("draw", _SEEDED, ids=lambda f: f.__name__)
    def test_whole_float_seed_is_that_seed(self, draw):
        assert draw(3.0) == draw(3) == draw(np.int64(3))
        assert draw(3) != draw(0)

    def test_stream_matches_seed_sequence(self):
        ss = np.random.SeedSequence(entropy=11, spawn_key=(5, 1))
        want = np.random.Generator(np.random.Philox(ss)).standard_normal(8)
        got = fbm.philox_stream(11.0, (5, 1)).standard_normal(8)
        assert np.array_equal(got, want)
