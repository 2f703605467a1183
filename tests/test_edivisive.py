from __future__ import annotations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import stepscan as ss
from stepscan.edivisive import best_split, permutation_test


class TestEnergyDivergence:
    def test_identical_multisets_are_indistinguishable(self):
        x = np.array([1.0, 2.0, 5.0, 2.0])
        assert abs(ss.energy_divergence(x, x.copy(), 1.0)) <= 1e-12
        assert abs(ss.energy_divergence(x, x.copy(), 2.0)) <= 1e-12

    def test_hand_computed_example(self):
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 1.0])
        assert ss.energy_divergence(x, y, 2.0) == pytest.approx(2.0, rel=1e-14)
        assert ss.sample_divergence(x, y, 2.0) == pytest.approx(2.0, rel=1e-14)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=15),
           st.lists(st.floats(-10, 10), min_size=2, max_size=15))
    def test_alpha_two_is_twice_squared_mean_difference(self, xs, ys):
        x, y = np.asarray(xs), np.asarray(ys)
        expected = 2.0 * (x.mean() - y.mean()) ** 2
        assert ss.energy_divergence(x, y, 2.0) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @settings(max_examples=60)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=12),
           st.lists(st.floats(-5, 5), min_size=1, max_size=12),
           st.sampled_from([0.5, 1.0, 1.5]))
    def test_nonnegative_for_alpha_below_two(self, xs, ys, alpha):
        assert ss.energy_divergence(np.asarray(xs), np.asarray(ys), alpha) >= -1e-12

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ss.DataError):
            ss.energy_divergence(np.array([]), np.array([1.0]), 1.0)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            ss.energy_divergence(np.array([1.0]), np.array([2.0]), 2.5)


class TestBestSplit:
    def test_noiseless_step_found_exactly(self):
        v = np.repeat([0.0, 4.0], [12, 8])
        for min_size in (2, 4, 8):
            b, q = best_split(v, ss.EdivConfig(min_size=min_size, alpha=2.0))
            assert b == 12
        b1, _ = best_split(v, ss.EdivConfig(min_size=4, alpha=1.0))
        assert b1 == 12

    def test_constant_segment_divergence_is_tiny(self):
        b, q = best_split(np.full(20, 3.3), ss.EdivConfig(min_size=4, alpha=1.0))
        assert q <= 1e-12

    def test_too_short_signals_no_split(self):
        assert best_split(np.arange(5.0), ss.EdivConfig(min_size=3)) is None

    def test_alpha_one_and_two_usually_agree_on_mean_shifts(self):
        agree = 0
        for seed in range(50):
            rng = np.random.default_rng([29, seed])
            v = np.concatenate([rng.normal(0, 1, 30), rng.normal(1.5, 1, 30)])
            b1, _ = best_split(v, ss.EdivConfig(min_size=5, alpha=1.0))
            b2, _ = best_split(v, ss.EdivConfig(min_size=5, alpha=2.0))
            agree += b1 == b2
        assert agree >= 45

    def test_min_size_respected(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=30)
        b, _ = best_split(v, ss.EdivConfig(min_size=10, alpha=1.0))
        assert 10 <= b <= 20


class TestPermutationTest:
    def test_constant_segment_gives_p_one(self):
        cfg = ss.EdivConfig(min_size=3, alpha=2.0, num_permutations=99, seed=1)
        v = np.full(12, 7.0)
        b, _ = best_split(v, cfg)
        assert permutation_test(v, b, cfg) == 1.0

    def test_huge_step_gives_minimal_p(self):
        cfg = ss.EdivConfig(min_size=5, alpha=2.0, num_permutations=199, seed=2)
        v = np.repeat([0.0, 50.0], [20, 20]) + np.random.default_rng(3).normal(0, 0.1, 40)
        b, _ = best_split(v, cfg)
        assert permutation_test(v, b, cfg) == pytest.approx(1 / 200)

    def test_deterministic_in_seed(self):
        cfg = ss.EdivConfig(min_size=5, alpha=1.0, num_permutations=49, seed=9)
        rng = np.random.default_rng(4)
        v = rng.normal(size=40)
        b, _ = best_split(v, cfg)
        assert permutation_test(v, b, cfg, seed_key=3) == permutation_test(v, b, cfg, seed_key=3)

    def test_null_pvalues_approximately_uniform(self):
        cfg = ss.EdivConfig(min_size=5, alpha=2.0, num_permutations=99, seed=11)
        ps = []
        for rep in range(200):
            rng = np.random.default_rng([13, rep])
            v = rng.standard_normal(60)
            b, _ = best_split(v, cfg)
            ps.append(permutation_test(v, b, cfg, seed_key=rep))
        ks = scipy.stats.kstest(ps, "uniform").statistic
        assert ks < 0.1


class TestEDivisive:
    def test_constant_series_has_no_breaks(self):
        sig, _ = ss.make_step_signal([1.5], [40], sigma=0.0)
        seg = ss.e_divisive(sig, ss.EdivConfig(min_size=5))
        assert seg.breaks == ()

    def test_noiseless_two_steps_exact(self):
        sig, breaks = ss.make_step_signal([0, 4, 1], [20, 20, 20], sigma=0.0)
        seg = ss.e_divisive(sig, ss.EdivConfig(min_size=5, alpha=2.0, seed=0))
        assert seg.breaks == breaks
        # acceptance order follows divergence size: the larger 0->4 move first
        assert seg.criterion_trace is not None
        assert all(p <= 0.05 for _, p in seg.criterion_trace)

    def test_deterministic_given_seed(self):
        sig, _ = ss.make_step_signal([0, 2], [30, 30], sigma=1.0, seed=6)
        cfg = ss.EdivConfig(min_size=8, alpha=2.0, seed=21)
        a = ss.e_divisive(sig, cfg)
        b = ss.e_divisive(sig, cfg)
        assert a.breaks == b.breaks
        assert a.criterion_trace == b.criterion_trace

    def test_breaks_invariant_under_affine_maps(self):
        sig, _ = ss.make_step_signal([0, 2, -1], [25, 25, 25], sigma=0.5, seed=7)
        moved = sig.with_values(3.0 - 4.0 * sig.values)
        cfg = ss.EdivConfig(min_size=8, alpha=1.0, seed=5)
        assert ss.e_divisive(sig, cfg).breaks == ss.e_divisive(moved, cfg).breaks

    def test_max_breaks_cap(self):
        sig, _ = ss.make_step_signal([0, 3, 0, 3], [15, 15, 15, 15], sigma=0.0)
        seg = ss.e_divisive(sig, ss.EdivConfig(min_size=5, alpha=2.0, max_breaks=2))
        assert seg.num_breaks == 2

    def test_min_size_respected_by_all_segments(self):
        rng = np.random.default_rng(8)
        sig = ss.TimeSeries(np.concatenate([rng.normal(0, 1, 40), rng.normal(4, 1, 40)]),
                            ss.PeriodIndex(1900))
        seg = ss.e_divisive(sig, ss.EdivConfig(min_size=10, alpha=2.0))
        edges = (0,) + seg.breaks + (80,)
        assert all(b - a >= 10 for a, b in zip(edges, edges[1:]))

    def test_negative_max_breaks_rejected(self):
        with pytest.raises(ValueError, match="max_breaks"):
            ss.EdivConfig(max_breaks=-1)

    def test_too_short_series(self):
        with pytest.raises(ss.DataError):
            ss.e_divisive(ss.TimeSeries([1.0, 2.0], ss.PeriodIndex(1900)),
                          ss.EdivConfig(min_size=2))
