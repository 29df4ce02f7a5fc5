import json
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    detcov_sweep_by_config,
    lnd_sweep_by_config,
    mixed_increment_variance,
    mvn_kappa,
    mvn_kappa_quadrature,
    naive_conditional_variance,
)
from parafbm.errors import AlphaExceedsH, ConfigError, SingularConditioning
from parafbm.fbm import fbm_covariance
from parafbm.gaussian import (
    GaussianVectorSpec,
    conditional_variance,
    detcov_chain_identity,
    detcov_margin_sweep,
    lnd_distance_ratio,
    lnd_margin,
    lnd_margin_sweep,
    verify_detcov_lower_bound,
)


class TestConditionalVariance:
    def test_empty_conditioning(self):
        spec = GaussianVectorSpec(np.array([0.7]), 0.4)
        assert conditional_variance(spec, 0, ()) == pytest.approx(0.7**0.8)

    def test_brownian_example(self):
        spec = GaussianVectorSpec(np.array([0.5, 1.0]), 0.5)
        assert conditional_variance(spec, 1, (0,)) == pytest.approx(0.5)

    def test_rough_example(self):
        spec = GaussianVectorSpec(np.array([0.5, 1.0]), 0.25)
        want = 1.0 - 0.5**2 / 0.5**0.5
        assert conditional_variance(spec, 1, (0,)) == pytest.approx(want, abs=1e-10)

    def test_bounded_by_unconditional(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            t = np.sort(rng.uniform(0.05, 1.0, n))
            if np.any(np.diff(t) < 1e-3):
                continue
            h = float(rng.uniform(0.15, 0.85))
            spec = GaussianVectorSpec(t, h)
            target = int(rng.integers(0, n))
            given = tuple(i for i in range(n) if i != target)
            v = conditional_variance(spec, target, given)
            assert 0.0 <= v <= spec.covariance[target, target] + 1e-12

    def test_matches_naive_solver(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            t = np.sort(rng.uniform(0.1, 1.0, n))
            if np.any(np.diff(t) < 5e-3):
                continue
            h = float(rng.uniform(0.2, 0.8))
            spec = GaussianVectorSpec(t, h)
            got = conditional_variance(spec, n - 1, tuple(range(n - 1)))
            want = naive_conditional_variance(
                spec.covariance.tolist(), n - 1, list(range(n - 1))
            )
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_nonincreasing_in_conditioning_set(self):
        t = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        spec = GaussianVectorSpec(t, 0.35)
        prev = np.inf
        for k in range(5):
            v = conditional_variance(spec, 4, tuple(range(k)))
            assert v <= prev + 1e-14
            prev = v

    def test_singular_conditioning(self):
        t = np.array([0.5, 0.5 + 1e-13, 1.0])
        spec = GaussianVectorSpec(t, 0.5)
        with pytest.raises(SingularConditioning):
            conditional_variance(spec, 2, (0, 1))

    def test_index_validation(self):
        spec = GaussianVectorSpec(np.array([0.5, 1.0]), 0.5)
        with pytest.raises(ConfigError):
            conditional_variance(spec, 0, (0,))


class TestDetcovChain:
    def test_single_time(self):
        spec = GaussianVectorSpec(np.array([0.6]), 0.3)
        det, chain = detcov_chain_identity(spec)
        assert det == pytest.approx(0.6**0.6)
        assert chain == pytest.approx(0.6**0.6)

    def test_brownian_pair(self):
        spec = GaussianVectorSpec(np.array([0.5, 1.0]), 0.5)
        det, chain = detcov_chain_identity(spec)
        assert det == pytest.approx(0.25)
        assert chain == pytest.approx(0.25)

    def test_two_routes_agree_random(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 9))
            t = np.sort(rng.uniform(0.05, 1.0, n))
            if np.any(np.diff(t) < 1e-2):
                continue
            h = float(rng.uniform(0.15, 0.85))
            det, chain = detcov_chain_identity(GaussianVectorSpec(t, h))
            assert det == pytest.approx(chain, rel=1e-8)
            checked += 1

    def test_mixed_kernel_route(self):
        t = np.array([0.25, 0.5, 0.75])
        det, chain = detcov_chain_identity(GaussianVectorSpec(t, 0.7, 0.3))
        assert det == pytest.approx(chain, rel=1e-8)


class TestDetcovLowerBound:
    def test_single_time_margin_one(self):
        assert verify_detcov_lower_bound(np.array([0.77]), 0.3) == pytest.approx(1.0)

    @pytest.mark.parametrize("times", [[0.2, 0.2], [0.0, 0.5], [0.2, 1.5], [0.2, np.nan]])
    def test_times_distinct_and_in_unit_interval(self, times):
        # [0.2, nan] gave a NaN margin
        with pytest.raises(ConfigError, match=r"times must (be distinct and in|lie in) \(0, 1\]"):
            verify_detcov_lower_bound(np.array(times), 0.5)

    def test_brownian_independent_increments(self):
        assert verify_detcov_lower_bound(np.array([0.5, 1.0]), 0.5) == pytest.approx(1.0)

    def test_brownian_sorted_margin_always_one(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            t = np.sort(rng.uniform(0.02, 1.0, n))
            if n > 1 and np.any(np.diff(t) < 1e-4):
                continue
            assert verify_detcov_lower_bound(t, 0.5) == pytest.approx(1.0, rel=1e-9)

    def test_margin_positive_and_reported(self):
        # The constant-free product bound does not hold pointwise for H != 1/2
        # (two sorted times already violate it); the sweep reports the
        # empirical infimum, which stays well away from zero.
        recs = detcov_margin_sweep(300, hurst_values=(0.2, 0.8), seed=0)
        margins = np.array([r["margin"] for r in recs])
        assert margins.min() > 0.05
        assert np.any(margins < 1.0)

    def test_h08_two_point_counterexample(self):
        m = verify_detcov_lower_bound(np.array([0.5, 0.6]), 0.8)
        assert m < 1.0  # documented deviation from the idealized bound


class TestChainConstant:
    """kappa_H <= Var(B(t_k) | B(t_1..t_{k-1})) / (t_k - t_{k-1})^2H <= 1."""

    @pytest.mark.parametrize("h", [0.15, 0.2, 0.5, 0.8, 0.85])
    def test_closed_form_matches_kernel_quadrature(self, h):
        assert abs(mvn_kappa(h) - mvn_kappa_quadrature(h)) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        h=st.floats(0.15, 0.85),
        t1=st.floats(0.02, 0.1),
        gaps=st.lists(st.floats(0.02, 0.17), min_size=1, max_size=5),
    )
    def test_chain_factors_within_kappa_and_one(self, h, t1, gaps):
        t = t1 + np.concatenate([[0.0], np.cumsum(gaps)])
        cov = fbm_covariance(t[:, None], t, h).tolist()
        kappa = mvn_kappa(h)
        product = 1.0  # Var(B(t_1)) / (t_1 - 0)^2H
        for k in range(1, t.size):
            ratio = naive_conditional_variance(cov, k, list(range(k))) / (
                t[k] - t[k - 1]
            ) ** (2 * h)
            assert kappa - 1e-9 <= ratio <= 1.0 + 1e-9
            product *= ratio
        # the margin is the product of these ratios
        assert verify_detcov_lower_bound(t, h) == pytest.approx(product, rel=1e-8)


class TestLndMargin:
    def test_equal_hurst_reduces_to_fbm(self):
        # alpha' = H: Z is sqrt(2) B^H in law; ratio must stay positive
        times = np.array([0.3, 0.8])
        spec = GaussianVectorSpec(times, 0.6, 0.6)
        r = lnd_margin(spec, 0.55)
        assert r > 0
        # cross-check against the fbm kernel: Cov_Z = 2 Cov_fbm
        full = np.array([0.55, 0.3, 0.8])
        fbm_cov = fbm_covariance(full[:, None], full, 0.6)
        from parafbm.gaussian import _schur_conditional_variance
        cv = 2.0 * _schur_conditional_variance(fbm_cov, 0, (1, 2))
        gap = min(0.55, 0.25)
        assert r == pytest.approx(cv / (2 * gap**1.2), rel=1e-10)

    @pytest.mark.parametrize("n_configs", [0, -1, 1.5, True])
    def test_sweeps_need_whole_positive_count(self, n_configs):
        with pytest.raises(ConfigError, match="n_configs"):
            detcov_margin_sweep(n_configs)
        with pytest.raises(ConfigError, match="n_configs"):
            lnd_margin_sweep(n_configs)

    def test_sweep_inf_positive(self):
        recs, inf_ratio = lnd_margin_sweep(500, hurst=0.7, alpha_p=0.35, seed=1)
        assert len(recs) == 500
        assert inf_ratio > 0.0

    def test_distance_ratio_bounded_below(self):
        # conditioning sets at distance >= r: ratio / r^(2 alpha') stays positive
        t = 0.55
        for k in range(2, 9):
            r = 2.0**-k
            side = np.arange(1, 6)
            s = np.concatenate([t - r * side, t + r * side])
            s = s[(s >= 0.1) & (s <= 1.0)]
            ratio = lnd_distance_ratio(0.7, 0.35, t, r, s)
            assert ratio > 0.01

    def test_rejects_near_times(self):
        with pytest.raises(ConfigError):
            lnd_distance_ratio(0.7, 0.35, 0.5, 0.1, np.array([0.55]))


class TestBatchedSweeps:
    """Stacked sweeps against the per-config public route, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_configs=st.integers(1, 40),
        max_points=st.integers(1, 8),
        hurst_values=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
    )
    def test_detcov_records_equal_per_config_route(self, seed, n_configs, max_points,
                                                   hurst_values):
        got = detcov_margin_sweep(n_configs, hurst_values, max_points, seed)
        want = detcov_sweep_by_config(n_configs, hurst_values, max_points, seed)
        assert json.dumps(got) == json.dumps(want)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_configs=st.integers(1, 40),
        max_points=st.integers(1, 8),
        hurst=st.floats(0.1, 0.95),
        alpha_frac=st.floats(0.1, 1.0),
        lo=st.floats(0.01, 0.7),
        width=st.floats(0.05, 1.0),
    )
    def test_lnd_records_equal_per_config_route(self, seed, n_configs, max_points, hurst,
                                                alpha_frac, lo, width):
        interval = (lo, min(lo + width, 1.0))
        args = (n_configs, hurst, hurst * alpha_frac, interval, max_points, seed)
        got = lnd_margin_sweep(*args)
        want = lnd_sweep_by_config(*args)
        assert json.dumps(got) == json.dumps(want)

    def test_acceptance_sweeps_equal_per_config_route(self):
        assert json.dumps(detcov_margin_sweep(334, seed=3)) == json.dumps(
            detcov_sweep_by_config(334, (0.2, 0.5, 0.8), 5, 3))
        assert json.dumps(lnd_margin_sweep(1000, seed=3)) == json.dumps(
            lnd_sweep_by_config(1000, 0.7, 0.35, (0.1, 1.0), 6, 3))

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 6),
        n=st.integers(1, 12),
        h=st.floats(0.02, 0.98),
        seed=st.integers(0, 2**32),
    )
    def test_stacked_covariance_equals_one_config_route(self, k, n, h, seed):
        times = np.random.default_rng(seed).uniform(0.0, 1.0, size=(k, n))
        stack = fbm_covariance(times[:, :, None], times[:, None, :], h)
        assert stack.shape == (k, n, n)
        for row, cov in zip(times, stack):
            assert cov.tobytes() == fbm_covariance(row[:, None], row, h).tobytes()
            assert cov.tobytes() == cov.T.tobytes()


def _raises_promptly(call, seconds=5):
    """ConfigError from ``call`` within ``seconds``; a hang fails the test."""
    def hang(signum, frame):
        raise AssertionError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        with pytest.raises(ConfigError):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestSweepArguments:
    @pytest.mark.parametrize("max_points", [0, -2, 2.5, True, "3", None])
    def test_max_points_must_be_whole_and_positive(self, max_points):
        _raises_promptly(lambda: detcov_margin_sweep(3, max_points=max_points))
        _raises_promptly(lambda: lnd_margin_sweep(3, max_points=max_points))

    @pytest.mark.parametrize("interval", [
        (0.5, 0.5),        # the min-gap redraw could never succeed
        (1.0, 0.1), (0.0, 0.5), (-0.2, 0.5), (0.1, 1.5), (float("nan"), 0.5),
        (0.2, 0.2 + 5e-5),  # 7 times 1e-5 apart need more than 6e-5
        (0.1,), "ab", None,
    ])
    def test_lnd_interval_must_fit_the_points(self, interval):
        _raises_promptly(lambda: lnd_margin_sweep(3, interval=interval))

    def test_narrow_interval_that_fits_is_accepted(self):
        recs, _ = lnd_margin_sweep(5, interval=(0.3, 0.31), max_points=2, seed=1)
        assert all(0.3 <= r["u"] <= 0.31 for r in recs)

    def test_whole_float_max_points_is_that_count(self):
        assert detcov_margin_sweep(7, max_points=3.0) == detcov_margin_sweep(7, max_points=3)

    def test_detcov_hurst_values_validated(self):
        _raises_promptly(lambda: detcov_margin_sweep(3, hurst_values=(0.5, 1.2)))

    def test_max_points_too_large_for_the_detcov_range(self):
        _raises_promptly(lambda: detcov_margin_sweep(3, max_points=10**4))


class TestMixedIncrementVariance:
    def test_zero_gap(self):
        assert mixed_increment_variance(0.4, 0.4, 0.6, 0.3) == 0.0

    def test_unit_gap_attains_upper(self):
        assert mixed_increment_variance(0.0, 1.0, 0.6, 0.3) == pytest.approx(2.0)

    def test_spec_arithmetic(self):
        v = mixed_increment_variance(0.25, 0.75, 0.6, 0.3)
        assert v == pytest.approx(0.5**1.2 + 0.5**0.6, abs=1e-12)
        assert 0.5**0.6 <= v <= 2 * 0.5**0.6

    def test_bracketing_property(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            h = rng.uniform(0.1, 0.9)
            ap = rng.uniform(0.05, h)
            s, t = np.sort(rng.uniform(0, 1, 2))
            v = mixed_increment_variance(s, t, h, ap)
            gap = t - s
            assert gap ** (2 * ap) - 1e-15 <= v <= 2 * gap ** (2 * ap) + 1e-15

    def test_alpha_order(self):
        with pytest.raises(AlphaExceedsH):
            mixed_increment_variance(0.1, 0.2, 0.3, 0.5)

    def test_matches_covariance_route(self):
        h, ap = 0.7, 0.25
        s, t = 0.3, 0.85

        def mixed_kernel(a, b):
            return fbm_covariance(a, b, h) + fbm_covariance(a, b, ap)

        via_cov = mixed_kernel(t, t) + mixed_kernel(s, s) - 2 * mixed_kernel(s, t)
        assert mixed_increment_variance(s, t, h, ap) == pytest.approx(via_cov, rel=1e-12)


def test_spec_requires_positive_times():
    with pytest.raises(ConfigError):
        GaussianVectorSpec(np.array([0.0, 0.5]), 0.5)
    # a NaN time gave a NaN covariance, so NaN variances and ratios downstream
    with pytest.raises(ConfigError, match="times must lie in"):
        GaussianVectorSpec(np.array([0.2, np.nan]), 0.5)
    with pytest.raises(ConfigError, match="times must lie in"):
        lnd_distance_ratio(0.7, 0.35, 0.5, 0.1, np.array([0.2, np.nan]))


def test_kernel_follows_alpha_p():
    t = np.array([0.3, 0.8])
    assert GaussianVectorSpec(t, 0.5).alpha_p is None
    # the mixed kernel is the sum of the fBm kernels at H and alpha'
    assert GaussianVectorSpec(t, 0.5, 0.3).covariance.tobytes() == (
        GaussianVectorSpec(t, 0.5).covariance + GaussianVectorSpec(t, 0.3).covariance
    ).tobytes()
    with pytest.raises(ConfigError, match="alpha_p must be a number"):
        GaussianVectorSpec(t, 0.5, "0.3")
    with pytest.raises(ConfigError, match="needs a mixed-kernel spec"):
        lnd_margin(GaussianVectorSpec(t, 0.5), 0.5)
