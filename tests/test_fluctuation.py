from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import stepscan as ss

SQRT8 = math.sqrt(8.0)


def annual(values, label=""):
    return ss.TimeSeries(values, ss.PeriodIndex(2000), label=label)


class TestResiduals:
    def test_recursive_examples(self):
        np.testing.assert_array_equal(
            ss.recursive_residuals(annual([1, 1, 1])), [0.0, 0.0])
        np.testing.assert_array_equal(ss.recursive_residuals(annual([0, 2])), [2.0])
        # growing means 1 then 2
        np.testing.assert_array_equal(ss.recursive_residuals(annual([1, 3, 5])), [2.0, 3.0])

    def test_ols_examples(self):
        np.testing.assert_array_equal(ss.ols_residuals(annual([1, 2, 3])), [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(ss.ols_residuals(annual([7, 7, 7])), np.zeros(3))
        np.testing.assert_array_equal(ss.ols_residuals(annual([0, 0, 6])), [-2.0, -2.0, 4.0])

    def test_insufficient_data(self):
        with pytest.raises(ss.DataError):
            ss.recursive_residuals(annual([1.0]))

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40))
    def test_ols_residuals_sum_to_zero(self, values):
        assert abs(ss.ols_residuals(annual(values)).sum()) < 1e-9


class TestVariance:
    def test_plain_matches_numpy(self):
        v = np.array([1.0, 4.0, 2.0, 8.0, 5.0])
        est = ss.plain_variance(annual(v))
        assert est.value == pytest.approx(np.var(v, ddof=1), rel=1e-14)
        assert est.kind == "plain"

    def test_zero_lag_degenerates_to_gamma0(self):
        v = np.array([1.0, 4.0, 2.0, 8.0, 5.0])
        est = ss.long_run_variance(annual(v), bandwidth=0)
        x = v - v.mean()
        assert est.value == pytest.approx(float(x @ x / 5), rel=1e-14)

    def test_iid_long_run_variance_near_one(self):
        s, _ = ss.make_step_signal([0.0], [10000], noise="gaussian", sigma=1.0, seed=4)
        est = ss.long_run_variance(s, "auto")
        assert est.value == pytest.approx(1.0, abs=0.1)
        assert est.kernel == "bartlett"

    def test_ar1_long_run_variance(self):
        # omega^2 = sigma^2 / (1 - rho)^2 = 4 for rho = 0.5
        s, _ = ss.make_step_signal([0.0], [20000], noise="ar1", rho=0.5, sigma=1.0, seed=3)
        est = ss.long_run_variance(s, "auto")
        assert est.value == pytest.approx(4.0, abs=0.5)

    def test_auto_bandwidth_formula(self):
        from stepscan.fluctuation import auto_bandwidth
        assert auto_bandwidth(100) == 4
        assert auto_bandwidth(20000) == int(4 * (200.0) ** (2 / 9))

    def test_bandwidth_bounds(self):
        with pytest.raises(ValueError):
            ss.long_run_variance(annual([1, 2, 3, 4.0]), bandwidth=3)

    def test_variance_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ss.VarianceEstimate(-1.0)

    def test_long_run_variance_needs_four_observations(self):
        with pytest.raises(ss.DataError, match="at least four"):
            ss.long_run_variance(annual([1.0, 2.0, 3.0]))

    def test_constant_series_is_clamped_to_zero(self):
        est = ss.long_run_variance(annual([2.0] * 10), bandwidth=2)
        assert est.value == 0.0
        assert est.clamped
        # a zero scale over zero residuals still yields the zero path
        p = ss.build_process(annual([2.0] * 10), "ols_cusum", est)
        np.testing.assert_array_equal(p.path, np.zeros(11))


class TestProcesses:
    def test_constant_series_gives_zero_path(self):
        p = ss.build_process(annual([5.0] * 6), "ols_cusum")
        np.testing.assert_array_equal(p.path, np.zeros(7))

    def test_ols_path_pinned_at_zero(self):
        rng = np.random.default_rng(5)
        p = ss.build_process(annual(rng.normal(2, 3, 40)), "ols_cusum")
        assert p.path[0] == 0.0
        assert p.path[-1] == 0.0
        assert p.path.size == 41

    def test_rec_path_has_t_minus_one_increments(self):
        p = ss.build_process(annual([1.0, 2.0, 4.0, 1.0]), "rec_cusum")
        assert p.path.size == 4  # origin plus T - 1 increments
        assert p.path[0] == 0.0

    def test_hand_computed_minimum(self):
        y = annual([0, 0, 0, 0, 1, 1, 1, 1.0])
        p = ss.build_process(y, "ols_cusum")
        sigma = math.sqrt(2.0 / 7.0)
        assert p.path[4] == pytest.approx(-(4 * 0.5) / (sigma * SQRT8), rel=1e-12)
        assert np.argmin(p.path) == 4

    def test_zero_scale_with_nonzero_residuals_is_an_error(self):
        with pytest.raises(ss.DataError, match="degenerate"):
            ss.build_process(annual([1.0, 2.0, 3.0]), "ols_cusum",
                             ss.VarianceEstimate(0.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ss.build_process(annual([1.0, 2.0]), "mosum")

    def test_residuals_need_two_observations(self):
        with pytest.raises(ss.DataError, match="at least two"):
            ss.ols_residuals(annual([1.0]))

    @settings(max_examples=80)
    @given(st.lists(st.integers(-20, 20), min_size=5, max_size=40),
           st.integers(-5, 5), st.sampled_from([-3, -1, 2, 5]),
           st.sampled_from(["ols_cusum", "rec_cusum"]),
           st.sampled_from([ss.plain_variance, ss.long_run_variance]))
    def test_statistic_invariant_under_affine_maps(self, raw, a, c, kind, variance):
        y = np.asarray(raw, dtype=float)
        if np.ptp(y) == 0:
            return
        s1 = annual(y)
        s2 = annual(a + c * y)
        t1 = ss.sup_abs_test(ss.build_process(s1, kind, variance(s1)), 0.05)
        t2 = ss.sup_abs_test(ss.build_process(s2, kind, variance(s2)), 0.05)
        assert t1.statistic == pytest.approx(t2.statistic, rel=1e-9)
        assert t1.p_value == pytest.approx(t2.p_value, rel=1e-9)


class TestMosum:
    def test_constant_series_zero_path(self):
        p = ss.mosum_process(annual([3.0] * 10), 0.4)
        np.testing.assert_array_equal(p.path, np.zeros(7))

    def test_full_window_is_the_residual_sum(self):
        rng = np.random.default_rng(6)
        p = ss.mosum_process(annual(rng.normal(size=12)), 1.0)
        assert p.path.size == 1
        assert abs(p.path[0]) < 1e-12

    def test_step_maximum_straddles_an_offcentre_step(self):
        # step after position 6 of 8; window h = 4
        y = annual([0, 0, 0, 0, 0, 0, 1, 1.0])
        p = ss.mosum_process(y, 0.5)
        sigma = math.sqrt((6 * 0.0625 + 2 * 0.5625) / 7.0)
        assert np.abs(p.path).max() == pytest.approx(1.0 / (sigma * SQRT8), rel=1e-12)
        assert abs(p.path[4]) == pytest.approx(np.abs(p.path).max(), rel=1e-12)

    def test_window_too_small(self):
        with pytest.raises(ss.DataError):
            ss.mosum_process(annual([1.0] * 10), 0.1)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="must be in \\(0, 1\\]"):
            ss.mosum_process(annual([1.0] * 10), fraction)


class TestBoundaryMath:
    def test_kolmogorov_series_matches_oracle(self):
        for x in (0.3, 0.7, 1.2238, 1.3581, 2.0, 3.0):
            assert ss.brownian_bridge_sup_pvalue(x) == pytest.approx(
                float(scipy.special.kolmogorov(x)), abs=1e-10)

    def test_frozen_quantile_examples(self):
        assert ss.brownian_bridge_sup_pvalue(1.3581) == pytest.approx(0.0500, abs=1e-4)
        assert ss.brownian_bridge_sup_pvalue(1.2238) == pytest.approx(0.1000, abs=1e-4)

    def test_p_of_zero_is_one(self):
        assert ss.brownian_bridge_sup_pvalue(0.0) == 1.0

    @given(st.floats(min_value=0.01, max_value=4.0), st.floats(min_value=0.01, max_value=4.0))
    def test_pvalue_monotone_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert ss.brownian_bridge_sup_pvalue(lo) >= ss.brownian_bridge_sup_pvalue(hi)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5])
    def test_quantile_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match="must be in \\(0, 1\\)"):
            ss.brownian_bridge_sup_quantile(level)

    def test_crossing_probability_of_zero_is_one(self):
        assert ss.brownian_motion_crossing_probability(0.0) == 1.0

    @pytest.mark.parametrize("lam", [-0.0, -1e-300, -0.5, -5.0, -math.inf])
    def test_crossing_probability_below_zero_is_one(self, lam):
        # 1 - Phi(3 lam) >= 1/2 and the other term is >= 0, so the clip gives 1
        assert ss.brownian_motion_crossing_probability(lam) == 1.0

    def test_quantile_inverts_pvalue(self):
        for level in (0.01, 0.05, 0.10, 0.25):
            c = ss.brownian_bridge_sup_quantile(level)
            assert ss.brownian_bridge_sup_pvalue(c) == pytest.approx(level, rel=1e-6)

    @pytest.mark.parametrize("level,c", [
        (0.01, 1.6276236115189504), (0.05, 1.3580986393225225),
        (0.10, 1.2238478702170825), (1e-11, 3.6070474909193013),
    ])
    def test_pinned_quantiles(self, level, c):
        assert ss.brownian_bridge_sup_quantile(level) == c

    @pytest.mark.parametrize("level", [1.9e-12, 1e-13, 1e-20, 1e-100])
    def test_quantile_below_the_truncated_series_floor(self, level):
        # the series drops terms under 1e-12, so the p-value jumps from
        # 2e-12 to 0 and bisection would stop at the jump, near 3.7169
        with pytest.raises(ValueError, match="below the smallest solvable one, 2e-12"):
            ss.brownian_bridge_sup_quantile(level)

    @pytest.mark.parametrize("level,lam", [(0.01, 1.143), (0.05, 0.948), (0.10, 0.850)])
    def test_rec_cusum_boundary_constant_is_the_classical_one(self, level, lam):
        # the root of the crossing probability, rounded as in the tables
        p = ss.build_process(annual([1.0, 5.0, 2.0, 4.0]), "rec_cusum")
        assert ss.sup_abs_test(p, level).upper[0] == lam

    def test_crossing_probability_against_normal_cdf_oracle(self):
        for lam in (0.5, 0.85, 1.2):
            phi = scipy.stats.norm.cdf
            expected = 2 * (1 - phi(3 * lam) + math.exp(-4 * lam**2) * phi(lam))
            assert ss.brownian_motion_crossing_probability(lam) == pytest.approx(
                float(expected), rel=1e-12)


class TestSupAbsTest:
    def test_zero_path_gives_p_one(self):
        res = ss.sup_abs_test(ss.build_process(annual([2.0] * 8), "ols_cusum"), 0.05)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.crossed

    def test_crossed_iff_p_below_level(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = rng.normal(size=60)
            if rng.random() < 0.5:
                y[30:] += rng.normal(0, 2)
            for kind in ("ols_cusum", "rec_cusum"):
                res = ss.sup_abs_test(ss.build_process(annual(y), kind), 0.05)
                assert res.crossed == (res.p_value < 0.05)

    def test_rec_cusum_level_below_the_bisection_bracket(self):
        # the boundary constant would saturate at the bracket's end, 10
        p = ss.build_process(annual([1.0, 5.0, 2.0, 4.0]), "rec_cusum")
        with pytest.raises(ValueError, match="below the smallest solvable one, 3.83e-174"):
            ss.sup_abs_test(p, level=1e-200)

    def test_mosum_requires_critical_value(self):
        p = ss.mosum_process(annual([1.0, 5.0, 2.0, 4.0, 3.0, 0.0]), 0.5)
        with pytest.raises(ss.UnsupportedError):
            ss.sup_abs_test(p, 0.05)
        res = ss.sup_abs_test(p, 0.05, critical=1000.0)
        assert res.p_value is None
        assert not res.crossed

    def test_upper_boundary_follows_the_path_times(self):
        s = annual([1.0, 5.0, 2.0, 4.0, 3.0, 0.0])
        t = np.arange(7) / 6
        ols = ss.sup_abs_test(ss.build_process(s, "ols_cusum"), 0.05)
        np.testing.assert_array_equal(ols.upper, [ss.brownian_bridge_sup_quantile(0.05)] * 7)
        rec = ss.sup_abs_test(ss.build_process(s, "rec_cusum"), 0.01)
        np.testing.assert_array_equal(rec.upper, 1.143 * (1.0 + 2.0 * t[:6]))
        p = ss.mosum_process(s, 0.5)
        mosum = ss.sup_abs_test(p, 0.05, critical=3)
        np.testing.assert_array_equal(mosum.upper, [3.0] * p.path.size)
        # the boundary array stays out of equality and hashing
        assert ols == ss.sup_abs_test(ss.build_process(s, "ols_cusum"), 0.05)
        assert hash(ols) == hash(ss.sup_abs_test(ss.build_process(s, "ols_cusum"), 0.05))

    def test_unknown_process_kind(self):
        p = ss.FluctuationProcess(path=np.zeros(3), kind="cusum_of_squares", nobs=2)
        with pytest.raises(ss.UnsupportedError, match="'cusum_of_squares'"):
            ss.sup_abs_test(p)

    def test_level_domain(self):
        p = ss.build_process(annual([1.0, 2.0, 3.0]), "ols_cusum")
        with pytest.raises(ValueError):
            ss.sup_abs_test(p, level=0.7)

    def test_null_size_calibration_smoke(self):
        # the full 2000-replication run lives in the acceptance suite
        rng = np.random.default_rng(8)
        rejections = 0
        for _ in range(200):
            res = ss.sup_abs_test(
                ss.build_process(annual(rng.standard_normal(500)), "ols_cusum"), 0.05)
            rejections += res.crossed
        assert 0.01 <= rejections / 200 <= 0.10
