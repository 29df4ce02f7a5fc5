import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mvn_kappa, mvn_kappa_quadrature, naive_conditional_variance
from parafbm.errors import AlphaExceedsH, ConfigError, SingularConditioning
from parafbm.fbm import build_covariance_matrix
from parafbm.gaussian import (
    GaussianVectorSpec,
    conditional_variance,
    detcov_chain_identity,
    detcov_margin_sweep,
    lnd_distance_ratio,
    lnd_margin,
    lnd_margin_sweep,
    mixed_increment_variance,
    verify_detcov_lower_bound,
)


class TestConditionalVariance:
    def test_empty_conditioning(self):
        spec = GaussianVectorSpec.fbm(np.array([0.7]), 0.4)
        assert conditional_variance(spec, 0, ()) == pytest.approx(0.7**0.8)

    def test_brownian_example(self):
        spec = GaussianVectorSpec.fbm(np.array([0.5, 1.0]), 0.5)
        assert conditional_variance(spec, 1, (0,)) == pytest.approx(0.5)

    def test_rough_example(self):
        spec = GaussianVectorSpec.fbm(np.array([0.5, 1.0]), 0.25)
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
            spec = GaussianVectorSpec.fbm(t, h)
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
            spec = GaussianVectorSpec.fbm(t, h)
            got = conditional_variance(spec, n - 1, tuple(range(n - 1)))
            want = naive_conditional_variance(
                spec.covariance.tolist(), n - 1, list(range(n - 1))
            )
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_nonincreasing_in_conditioning_set(self):
        t = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        spec = GaussianVectorSpec.fbm(t, 0.35)
        prev = np.inf
        for k in range(5):
            v = conditional_variance(spec, 4, tuple(range(k)))
            assert v <= prev + 1e-14
            prev = v

    def test_singular_conditioning(self):
        t = np.array([0.5, 0.5 + 1e-13, 1.0])
        spec = GaussianVectorSpec.fbm(t, 0.5)
        with pytest.raises(SingularConditioning):
            conditional_variance(spec, 2, (0, 1))

    def test_index_validation(self):
        spec = GaussianVectorSpec.fbm(np.array([0.5, 1.0]), 0.5)
        with pytest.raises(ConfigError):
            conditional_variance(spec, 0, (0,))


class TestDetcovChain:
    def test_single_time(self):
        spec = GaussianVectorSpec.fbm(np.array([0.6]), 0.3)
        det, chain = detcov_chain_identity(spec)
        assert det == pytest.approx(0.6**0.6)
        assert chain == pytest.approx(0.6**0.6)

    def test_brownian_pair(self):
        spec = GaussianVectorSpec.fbm(np.array([0.5, 1.0]), 0.5)
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
            det, chain = detcov_chain_identity(GaussianVectorSpec.fbm(t, h))
            assert det == pytest.approx(chain, rel=1e-8)
            checked += 1

    def test_mixed_kernel_route(self):
        t = np.array([0.25, 0.5, 0.75])
        det, chain = detcov_chain_identity(GaussianVectorSpec.mixed(t, 0.7, 0.3))
        assert det == pytest.approx(chain, rel=1e-8)


class TestDetcovLowerBound:
    def test_single_time_margin_one(self):
        assert verify_detcov_lower_bound(np.array([0.77]), 0.3) == pytest.approx(1.0)

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
        cov = build_covariance_matrix(t, h).tolist()
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
    def test_no_conditioning_ratio_one(self):
        spec = GaussianVectorSpec.mixed(np.array([0.9]), 0.7, 0.35)
        r = lnd_margin(spec, 0.5, conditioning_times=np.array([]))
        assert r == pytest.approx(1.0)

    def test_equal_hurst_reduces_to_fbm(self):
        # alpha' = H: Z is sqrt(2) B^H in law; ratio must stay positive
        times = np.array([0.3, 0.8])
        spec = GaussianVectorSpec.mixed(times, 0.6, 0.6)
        r = lnd_margin(spec, 0.55)
        assert r > 0
        # cross-check against the fbm kernel: Cov_Z = 2 Cov_fbm
        fbm_cov = build_covariance_matrix(np.array([0.55, 0.3, 0.8]), 0.6)
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
        from parafbm.fbm import mixed_covariance
        via_cov = (
            mixed_covariance(t, t, h, ap)
            + mixed_covariance(s, s, h, ap)
            - 2 * mixed_covariance(s, t, h, ap)
        )
        assert mixed_increment_variance(s, t, h, ap) == pytest.approx(via_cov, rel=1e-12)


def test_spec_requires_positive_times():
    with pytest.raises(ConfigError):
        GaussianVectorSpec.fbm(np.array([0.0, 0.5]), 0.5)
