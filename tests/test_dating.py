from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import awkward_values, brute_force_breaks

import stepscan as ss
import stepscan.dating as dating
from stepscan.dating import _suffix_costs, bic_value
from stepscan.series import _span_rss


def annual(values):
    return ss.TimeSeries(values, ss.PeriodIndex(1900))


class TestRssTriangle:
    def test_constant_series_all_zero(self):
        s = annual([4.0] * 6)
        for i in range(1, 7):
            for j in range(i, 7):
                assert _span_rss(s, i, j) == 0.0

    def test_hand_computed_value(self):
        s = annual([0, 0, 3, 3.0])
        assert _span_rss(s, 1, 4) == pytest.approx(9.0, rel=1e-14)
        assert _span_rss(s, 1, 2) == 0.0
        assert _span_rss(s, 2, 3) == pytest.approx(4.5, rel=1e-14)

    def test_full_span_equals_scaled_variance(self):
        rng = np.random.default_rng(0)
        v = rng.normal(3, 2, 50)
        assert _span_rss(annual(v), 1, 50) == pytest.approx(50 * np.var(v), rel=1e-12)

    def test_cumulants_match_direct_summation(self):
        rng = np.random.default_rng(1)
        v = rng.normal(0, 5, 80)
        s = annual(v)
        for i, j in [(1, 10), (5, 30), (40, 80), (7, 7), (13, 26)]:
            seg = v[i - 1 : j]
            direct = float(((seg - seg.mean()) ** 2).sum())
            assert _span_rss(s, i, j) == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_rows_equal_scalar_queries(self):
        rng = np.random.default_rng(2)
        v = np.concatenate([rng.normal(size=30), np.full(10, 7.0)]) * 1e3
        s = annual(v)
        for i in range(1, 41):
            scalars = np.array([_span_rss(s, i, j) for j in range(i, 41)])
            np.testing.assert_array_equal(_span_rss(s, i, np.arange(i, 41)), scalars)
            # broadcast over starts with a fixed end, as the DP's last layer
            tails = np.array([_span_rss(s, a, i) for a in range(1, i + 1)])
            np.testing.assert_array_equal(_span_rss(s, np.arange(1, i + 1), i), tails)

    def test_min_len_validation(self):
        with pytest.raises(ValueError):
            ss.build_rss_triangle(annual([1.0, 2.0]), 3)


class TestOptimalBreaks:
    def test_no_breaks_is_the_full_span(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=30)
        tri = ss.build_rss_triangle(annual(v), 5)
        seg = ss.optimal_breaks(tri, 0)
        assert seg.breaks == ()
        assert seg.criterion_trace == ()
        assert seg.rss_total == pytest.approx(_span_rss(tri.series, 1, 30), rel=1e-14)

    def test_noiseless_step(self):
        sig, _ = ss.make_step_signal([0, 5], [50, 50], sigma=0.0)
        tri = ss.build_rss_triangle(sig, 5)
        seg = ss.optimal_breaks(tri, 1)
        assert seg.breaks == (50,)
        assert seg.rss_total == 0.0

    def test_infeasible_combination(self):
        tri = ss.build_rss_triangle(annual(np.arange(10.0)), 4)
        with pytest.raises(ValueError):
            ss.optimal_breaks(tri, 2)

    def test_over_budget_raises_before_the_table_is_built(self):
        # (11999 + 2) * (12000 + 2) * 8 bytes, over the 1 GiB budget
        tri = ss.build_rss_triangle(annual(np.arange(12000.0)), 1)
        with mock.patch.object(dating, "_suffix_costs", side_effect=AssertionError("ran")):
            with pytest.raises(ss.DataError, match="1,152,288,016-byte"):
                ss.optimal_breaks(tri, 11999)

    def test_negative_break_count(self):
        tri = ss.build_rss_triangle(annual(np.arange(10.0)), 4)
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            ss.optimal_breaks(tri, -1)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_sweeps_only_the_layers_the_backtrack_reads(self, m):
        # the backtrack reads D[1..m]; m = 0 still needs a table with row 1
        tri = ss.build_rss_triangle(annual(np.random.default_rng(5).normal(size=40)), 3)
        with mock.patch.object(dating, "_suffix_costs", wraps=dating._suffix_costs) as spy:
            seg = ss.optimal_breaks(tri, m)
        assert spy.call_args.args[1] == max(m, 1)
        assert len(seg.breaks) == m
        rows = slice(1, m + 1)
        assert np.array_equal(_suffix_costs(tri, max(m, 1))[rows], _suffix_costs(tri, m + 1)[rows])

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            n = int(rng.integers(8, 20))
            v = np.round(rng.normal(0, 2, n), 3)
            min_len = int(rng.integers(1, 4))
            m = int(rng.integers(0, 4))
            if (m + 1) * min_len > n:
                continue
            tri = ss.build_rss_triangle(annual(v), min_len)
            seg = ss.optimal_breaks(tri, m)
            # exact against enumeration over the same rss primitive
            s = tri.series
            exact = brute_force_breaks(v, m, min_len, rss=lambda i, j: float(_span_rss(s, i, j)))
            assert seg.rss_total == exact[0]
            assert seg.breaks == exact[1]
            # and to rounding against a fully independent rss
            approx = brute_force_breaks(v, m, min_len)
            assert seg.rss_total == pytest.approx(approx[0], rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rss_monotone_in_m(self, data):
        # with min_len 1 any segment of an optimum can take one more break
        n = data.draw(st.integers(12, 30))
        v = data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
        tri = ss.build_rss_triangle(annual(v), 1)
        rss = [ss.optimal_breaks(tri, m).rss_total for m in range(5)]
        assert all(a >= b - 1e-12 for a, b in zip(rss, rss[1:]))

    def test_one_more_break_can_raise_rss_when_no_segment_splits(self):
        # every segment of the 3-break optimum has length 3 < 2 * min_len
        v = np.array([0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1], dtype=float)
        tri = ss.build_rss_triangle(annual(v), 2)
        three, four = ss.optimal_breaks(tri, 3), ss.optimal_breaks(tri, 4)
        assert (three.breaks, four.breaks) == ((3, 6, 9), (2, 4, 6, 9))
        assert three.rss_total == pytest.approx(4 / 3)
        assert four.rss_total == pytest.approx(5 / 3)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=12, max_size=28),
           st.integers(-3, 3), st.sampled_from([-2, 1, 3]))
    def test_breaks_invariant_under_affine_maps(self, raw, a, c):
        v = np.asarray(raw, dtype=float)
        tri1 = ss.build_rss_triangle(annual(v), 3)
        tri2 = ss.build_rss_triangle(annual(a + c * v), 3)
        s1 = ss.optimal_breaks(tri1, 2)
        s2 = ss.optimal_breaks(tri2, 2)
        assert s1.breaks == s2.breaks
        assert s2.rss_total == pytest.approx(c * c * s1.rss_total, rel=1e-9, abs=1e-9)


def layer_outer_suffix_costs(tri, jmax):
    """Reference Bellman table: layer j outside, start a inside.

    Each (j, a) cell recomputes its RSS row from the cumulants.
    """
    s, n, h = tri.series, tri.n, tri.min_len
    D = np.full((jmax + 1, n + 2), np.inf)
    D[1, 1 : n - h + 2] = _span_rss(s, np.arange(1, n - h + 2), n)
    for j in range(2, jmax + 1):
        b_hi = n - (j - 1) * h
        for a in range(1, n - j * h + 2):
            b_lo = a + h - 1
            vals = _span_rss(s, a, np.arange(b_lo, b_hi + 1)) + D[j - 1, b_lo + 1 : b_hi + 2]
            D[j, a] = vals.min()
    return D


class TestSuffixCosts:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_identical_to_layer_outer_loop(self, data):
        n = data.draw(st.integers(2, 60))
        level = st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False))
        runs = data.draw(st.lists(st.tuples(level, st.integers(1, 12)), min_size=1))
        v = np.array([x for x, k in runs for _ in range(k)] * n)[:n]
        if data.draw(st.booleans()):
            v = v + data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
        v = v * data.draw(st.sampled_from([1.0, 1e-6, 1e6]))
        h = data.draw(st.integers(1, max(1, n // 3)))
        jmax = data.draw(st.integers(1, n // h))
        tri = ss.build_rss_triangle(annual(v), h)
        assert np.array_equal(_suffix_costs(tri, jmax), layer_outer_suffix_costs(tri, jmax))


def six_regimes(n, seed, offset=0.0):
    """The long-series benchmark shape: six equal regimes, shifts of 2 sigma or more."""
    means = np.array([0.0, 2.0, -1.0, 1.5, -0.5, 2.5]) + offset
    lengths = [n // 6] * 5 + [n - 5 * (n // 6)]
    return ss.make_step_signal(means, lengths, seed=seed)[0]


def assert_each_path_is_dense(tri, jmax, prunes):
    """_suffix_costs equals the dense reference bit for bit as the block
    rule splits the layers, with every layer pruning (_SHORT_BLOCKS at 0;
    then _prune runs exactly when `prunes`) and with every layer reading
    its block's rectangle (then _prune never runs)."""
    ref = layer_outer_suffix_costs(tri, jmax)
    for blocks, called in ((dating._SHORT_BLOCKS, None), (0, prunes), (tri.n + 1, False)):
        with mock.patch.object(dating, "_SHORT_BLOCKS", blocks), \
                mock.patch.object(dating, "_prune", wraps=dating._prune) as spy:
            assert np.array_equal(_suffix_costs(tri, jmax), ref)
        assert called is None or spy.called == called


class TestPrunedSuffixCosts:
    """The pruned kernel against the dense layer-outer reference, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bit_identical_under_offsets_and_block_sizes(self, data):
        n = data.draw(st.integers(2, 90))
        v = data.draw(awkward_values(n)) + data.draw(st.sampled_from([0.0, 1e4, 1e6]))
        h = data.draw(st.integers(1, max(1, n // 3)))
        jmax = data.draw(st.integers(1, n // h))
        tri = ss.build_rss_triangle(annual(v), h)
        starts = data.draw(st.sampled_from([1, 3, 64]))
        with mock.patch.object(dating, "_BLOCK_STARTS", starts):
            # a pruning layer calls _prune in every block but the lowest
            assert_each_path_is_dense(tri, jmax, jmax >= 2 and n - 2 * h + 1 > starts)

    @pytest.mark.parametrize("n, h", [(300, 10), (600, 30), (1000, 100)])
    @pytest.mark.parametrize("offset", [1e5, 1e6, 3e6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_where_the_snap_binds(self, n, h, offset, seed):
        # at these offsets _span_rss snaps long spans to 0, so a margin
        # without the snap term, or spans taken as never snapped, prune winners;
        # h < _BLOCK_STARTS reads the previous layer inside the same block,
        # h > _BLOCK_STARTS only in blocks already swept
        s = six_regimes(n, seed, offset)
        for values in (s.values, np.round(s.values)):
            tri = ss.build_rss_triangle(annual(values), h)
            assert_each_path_is_dense(tri, 9, True)

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_when_squares_underflow(self, seed):
        # at this scale y^2 is subnormal and its rounding is absolute, not
        # relative to the values; the margin's floor has to cover it
        v = np.random.default_rng(seed).normal(size=60) * 1e-162
        for h in (5, 9):
            tri = ss.build_rss_triangle(annual(v), h)
            with mock.patch.object(dating, "_BLOCK_STARTS", 3):
                assert_each_path_is_dense(tri, 4, True)

    def test_evaluates_under_2_5_percent_of_the_dense_cells(self, monkeypatch):
        # each block's new-candidate triangle is evaluated once for all layers
        tri = ss.build_rss_triangle(six_regimes(4000, 0), 200)
        cells = {"pruned": 0, "dense": 0}

        def counting(key, inner):
            def wrapped(s, i, j):
                out = inner(s, i, j)
                cells[key] += np.size(out)
                return out
            return wrapped

        monkeypatch.setattr(dating, "_span_rss", counting("pruned", dating._span_rss))
        monkeypatch.setattr(sys.modules[__name__], "_span_rss", counting("dense", _span_rss))
        assert np.array_equal(_suffix_costs(tri, 9), layer_outer_suffix_costs(tri, 9))
        assert cells["pruned"] < 0.025 * cells["dense"], cells

    def test_table_over_budget_is_a_data_error(self):
        tri = ss.build_rss_triangle(annual(np.arange(12000.0)), 1)
        with pytest.raises(ss.DataError, match="--max-breaks"):
            ss.select_breaks_bic(tri, 11999)


class TestBicSelection:
    def test_noise_only_prefers_zero_breaks(self):
        zero = 0
        for seed in range(200):
            rng = np.random.default_rng([7, seed])
            tri = ss.build_rss_triangle(annual(rng.standard_normal(200)), 15)
            zero += ss.select_breaks_bic(tri, 3).num_breaks == 0
        assert zero >= 180

    def test_noiseless_two_steps_recovered(self):
        sig, breaks = ss.make_step_signal([0, 4, 1], [30, 30, 30], sigma=0.0)
        tri = ss.build_rss_triangle(sig, 10)
        seg = ss.select_breaks_bic(tri, 4)
        assert seg.breaks == breaks

    def test_trace_recomputes_exactly(self):
        rng = np.random.default_rng(9)
        v = np.concatenate([rng.normal(0, 1, 60), rng.normal(3, 1, 60)])
        tri = ss.build_rss_triangle(annual(v), 10)
        seg = ss.select_breaks_bic(tri, 4)
        assert seg.criterion_trace is not None
        for m, stored in seg.criterion_trace:
            rss_m = ss.optimal_breaks(tri, int(m)).rss_total
            assert stored == bic_value(120, rss_m, int(m))

    def test_ties_go_to_smaller_m(self):
        sig, _ = ss.make_step_signal([0, 5], [20, 20], sigma=0.0)
        tri = ss.build_rss_triangle(sig, 5)
        # every m >= 1 reaches RSS 0 and BIC -inf; the smallest wins
        seg = ss.select_breaks_bic(tri, 3)
        assert seg.num_breaks == 1

    @pytest.mark.parametrize("scale", [1e-160, 1e-162])
    def test_rss_whose_ratio_to_n_underflows_counts_as_zero(self, scale):
        # at 1e-162 some fits keep a subnormal RSS whose ratio to n is 0,
        # which math.log rejects; it must rank with RSS 0, not raise
        v = np.repeat([0.0, 3.0], 1000) + np.random.default_rng(0).standard_normal(2000)
        tri = ss.build_rss_triangle(annual(v * scale), 100)
        assert ss.select_breaks_bic(tri, 3).breaks == (1000,)
        assert bic_value(2000, 5e-324, 1) == -np.inf

    def test_infeasible_max_m(self):
        tri = ss.build_rss_triangle(annual(np.arange(20.0)), 6)
        with pytest.raises(ValueError):
            ss.select_breaks_bic(tri, 4)


class TestFittedStep:
    def test_zero_breaks_gives_grand_mean(self):
        s = annual([1.0, 2.0, 3.0, 6.0])
        tri = ss.build_rss_triangle(s, 1)
        fit = ss.fitted_step(s, ss.optimal_breaks(tri, 0))
        np.testing.assert_allclose(fit.values, 3.0)

    def test_noiseless_step_reproduced_exactly(self):
        sig, _ = ss.make_step_signal([0, 5], [30, 30], sigma=0.0)
        tri = ss.build_rss_triangle(sig, 5)
        fit = ss.fitted_step(sig, ss.optimal_breaks(tri, 1))
        np.testing.assert_array_equal(fit.values, sig.values)

    def test_length_mismatch(self):
        s = annual([1.0, 2.0, 3.0, 6.0])
        seg = ss.segmentation_from_breaks(annual([1.0, 2.0]), [], min_len=1)
        with pytest.raises(ValueError):
            ss.fitted_step(s, seg)
