from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import os
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, assert_no_child, awkward_values, second_thread, split_work

import stepscan as ss
import stepscan.wbs
from stepscan.cli import main
from stepscan.wbs import _best_per_interval, _draw_intervals, _median, mad_scale


def all_pairs_scan(cum, starts, ends, los, his):
    """Reference scan: every (interval, split) pair materialized at once.

    Ties go to the smallest b, then the smallest interval start.
    Returns (b, stat, start).
    """
    lens = his - los + 1
    ids = np.repeat(np.arange(starts.size), lens)
    offsets = np.cumsum(lens) - lens
    b = np.arange(int(lens.sum())) - offsets[ids] + los[ids]
    s = starts[ids]
    e = ends[ids]
    n = e - s + 1
    nl = b - s + 1
    nr = e - b
    left = cum[b] - cum[s - 1]
    right = cum[e] - cum[b]
    x = np.sqrt(nl * nr / n) * (left / nl - right / nr)
    absx = np.abs(x)
    vmax = float(absx.max())
    tied = np.flatnonzero(absx == vmax)
    pick = tied[np.lexsort((s[tied], b[tied]))[0]]
    return int(b[pick]), vmax, int(s[pick])


def all_pairs_wbs_segment(series, cfg):
    """Reference WBS: each recursion step rescans every interval inside it."""
    v = series.values
    n = series.n
    rng = np.random.default_rng(cfg.seed)
    starts, ends = _draw_intervals(n, cfg.num_intervals, cfg.min_len, rng)
    threshold = cfg.threshold_constant * mad_scale(v) * math.sqrt(2.0 * math.log(n))
    eps = float(np.finfo(float).eps)
    threshold = max(threshold, 4.0 * eps * n ** 1.5 * float(np.max(np.abs(v))))
    cum = np.concatenate(([0.0], np.cumsum(v)))
    found = []
    stack = [(1, n)]
    while stack:
        lo, hi = stack.pop()
        cand_lo = lo + cfg.min_len - 1
        cand_hi = hi - cfg.min_len
        if cand_lo > cand_hi:
            continue
        inside = (starts >= lo) & (ends <= hi)
        seg_s = np.concatenate((starts[inside], [lo]))
        seg_e = np.concatenate((ends[inside], [hi]))
        los = np.maximum(seg_s, cand_lo)
        his = np.minimum(seg_e - 1, cand_hi)
        ok = los <= his
        if not np.any(ok):
            continue
        b, stat, _ = all_pairs_scan(cum, seg_s[ok], seg_e[ok], los[ok], his[ok])
        if stat > threshold:
            found.append((b, stat))
            stack.append((b + 1, hi))
            stack.append((lo, b))
    if cfg.max_breaks is not None and len(found) > cfg.max_breaks:
        found.sort(key=lambda t: (-t[1], t[0]))
        found = found[: cfg.max_breaks]
    found.sort(key=lambda t: t[0])
    return ss.segmentation_from_breaks(
        series, [b for b, _ in found], min_len=cfg.min_len,
        trace=[(float(b), stat) for b, stat in found],
    )


# block sizes (cells) that put one row in a block and cut rows into column
# chunks, and the production one; the recursion test enumerates up to
# ~40k pairs, too many for size 1
BLOCKS = st.sampled_from([1, 5, 64, stepscan.wbs._BLOCK_CELLS])
COARSER_BLOCKS = st.sampled_from([7, 64, stepscan.wbs._BLOCK_CELLS])


def span_cusum(cum, s, e):
    """Best split of the span [s..e] over all its splits: one-interval kernel call."""
    b, stat = _best_per_interval(cum, np.array([s]), np.array([e]),
                                 np.array([s]), np.array([e - 1]))
    return int(b[0]), float(stat[0])


def cumulants(values):
    return ss.TimeSeries(values, ss.PeriodIndex(1900)).cumulants[0]


class TestIntervalCusum:
    def test_constant_segment_is_flat(self):
        b, stat = span_cusum(cumulants(np.full(10, 2.5)), 1, 10)
        assert stat == 0.0

    def test_hand_computed_example(self):
        b, stat = span_cusum(cumulants([0.0, 0.0, 1.0, 1.0]), 1, 4)
        assert (b, stat) == (2, pytest.approx(1.0, rel=1e-14))

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_symmetric_segment_splits_at_midpoint(self, a, b):
        if abs(a - b) < 1e-6:
            return
        split, stat = span_cusum(cumulants([a, a, b, b]), 1, 4)
        assert split == 2
        assert stat > 0

    def test_subinterval_indices_are_one_based(self):
        y = np.array([9.0, 0.0, 0.0, 1.0, 1.0, 9.0])
        b, stat = span_cusum(cumulants(y), 2, 5)
        assert b == 3
        assert stat == pytest.approx(1.0, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_all_pairs_scan_on_random_spans(self, data):
        n = data.draw(st.integers(2, 80))
        v = data.draw(awkward_values(n))
        s = data.draw(st.integers(1, n - 1))
        e = data.draw(st.integers(s + 1, n))
        cum = np.concatenate(([0.0], np.cumsum(v)))
        span = [np.array([x]) for x in (s, e, s, e - 1)]
        want = all_pairs_scan(cum, *span)[:2]
        with mock.patch.object(stepscan.wbs, "_BLOCK_CELLS", data.draw(BLOCKS)):
            assert span_cusum(cum, s, e) == want


class TestBestPerInterval:
    @staticmethod
    def draw_rows(data):
        """(cum, [starts, ends, los, his]) of up to 20 intervals over awkward values."""
        n = data.draw(st.integers(2, 60))
        cum = np.concatenate(([0.0], np.cumsum(data.draw(awkward_values(n)))))
        rows = []
        for _ in range(data.draw(st.integers(1, 20))):
            s = data.draw(st.integers(1, n - 1))
            e = data.draw(st.integers(s + 1, n))
            lo, hi = sorted(data.draw(st.lists(st.integers(s, e - 1), min_size=2, max_size=2)))
            rows.append((s, e, lo, hi))
        return cum, [np.array(c) for c in zip(*rows)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_each_interval_matches_all_pairs_scan(self, data):
        cum, cols = self.draw_rows(data)
        rows = range(cols[0].size)
        # every row twice, shuffled: equal widths in any input order
        perm = np.array(data.draw(st.permutations(range(2 * len(rows)))))
        shuffled = [np.tile(c, 2)[perm] for c in cols]
        with mock.patch.object(stepscan.wbs, "_BLOCK_CELLS", data.draw(BLOCKS)):
            best_b, best_stat = _best_per_interval(cum, *cols)
            shuffled_b, shuffled_stat = _best_per_interval(cum, *shuffled)
        for i in rows:
            b, stat, _ = all_pairs_scan(cum, *(c[i : i + 1] for c in cols))
            assert (best_b[i], best_stat[i]) == (b, stat)
        assert np.array_equal(shuffled_b, np.tile(best_b, 2)[perm])
        assert np.array_equal(shuffled_stat, np.tile(best_stat, 2)[perm])

    @staticmethod
    def run_case(case):
        """(cum, columns, block cells) for one run-boundary case on n = 120.

        Rounded noise makes equal statistics within a row, so the tie rule
        is exercised too.
        """
        rng = np.random.default_rng(5)
        n = 120
        cum = np.concatenate(([0.0], np.cumsum(np.round(rng.normal(0, 2, n)))))
        s = rng.integers(1, n - 40, 24)
        e = s + rng.integers(1, 40, 24)
        lo = s + (e - s) // 4
        hi = e - 1 - (e - s) // 5
        if case == "shuffled duplicates":
            perm = rng.permutation(48)
            return cum, [np.tile(c, 2)[perm] for c in (s, e, lo, hi)], 64
        order = np.argsort(hi - lo, kind="stable")
        cols = [c[order] for c in (s, e, lo, hi)]
        # 64 cells hold rows of several widths in one block; 5 cells are
        # narrower than most rows, which then run in column chunks
        return cum, cols, 64 if case == "mixed widths" else 5

    @pytest.mark.parametrize("run_rows", [1, 2, 5])
    @pytest.mark.parametrize("case", ["shuffled duplicates", "mixed widths", "wide rows"])
    def test_runs_of_any_length_change_no_bit(self, case, run_rows):
        cum, cols, cells = self.run_case(case)
        default_b, default_stat = _best_per_interval(cum, *cols)
        with (mock.patch.object(stepscan.wbs, "_BLOCK_CELLS", cells),
              mock.patch.object(stepscan.wbs, "_RUN_ROWS", run_rows)):
            best_b, best_stat = _best_per_interval(cum, *cols)
        assert np.array_equal(best_b, default_b)
        assert best_stat.tobytes() == default_stat.tobytes()
        for i in range(cols[0].size):
            b, stat, _ = all_pairs_scan(cum, *(c[i : i + 1] for c in cols))
            assert (best_b[i], best_stat[i]) == (b, stat)



# split_scan(cpus, per_process=1, fork_error=None): scans of per_process cells
# per process or more split over cpus usable CPUs; yields the spy on os.fork
split_scan = functools.partial(split_work, stepscan.wbs, "_FORK_CELLS")


class NumpyWithSqrt:
    """numpy for stepscan.wbs, with np.sqrt replaced."""

    def __init__(self, sqrt):
        self.sqrt = sqrt

    def __getattr__(self, name):
        return getattr(np, name)


def failing_sqrt(where):
    """np.sqrt for stepscan.wbs that raises in the "parent" or in every child.

    When the parent fails, each child sleeps 30 s before it fails too, so a
    child that is not killed shows in the time the call takes.
    """
    parent = os.getpid()

    def sqrt(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(30 if where == "parent" else 0)
            raise RuntimeError("a child's share failed")
        if where == "parent":
            raise RuntimeError("the parent's share failed")
        return np.sqrt(*args, **kwargs)

    return mock.patch.object(stepscan.wbs, "np", NumpyWithSqrt(sqrt))


class TestSplitScan:
    @staticmethod
    def assert_matches_all_pairs_scan(cum, cols, best_b, best_stat):
        for i in range(cols[0].size):
            b, stat, _ = all_pairs_scan(cum, *(c[i : i + 1] for c in cols))
            assert (best_b[i], best_stat[i]) == (b, stat)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_split_equals_one_process_on_awkward_values(self, data):
        cum, cols = TestBestPerInterval.draw_rows(data)
        cpus = data.draw(st.sampled_from([2, 3]))
        with (mock.patch.object(stepscan.wbs, "_BLOCK_CELLS", data.draw(BLOCKS)),
              mock.patch.object(stepscan.wbs, "_RUN_ROWS", data.draw(st.sampled_from([1, 2])))):
            want_b, want_stat = _best_per_interval(cum, *cols)
            with split_scan(cpus):
                best_b, best_stat = _best_per_interval(cum, *cols)
        assert_no_child()
        assert best_b.tobytes() == want_b.tobytes()
        assert best_stat.tobytes() == want_stat.tobytes()
        self.assert_matches_all_pairs_scan(cum, cols, best_b, best_stat)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("run_rows", [1, 2, 5])
    @pytest.mark.parametrize("case", ["shuffled duplicates", "mixed widths", "wide rows"])
    def test_split_changes_no_bit(self, case, run_rows, cpus):
        cum, cols, cells = TestBestPerInterval.run_case(case)
        with (mock.patch.object(stepscan.wbs, "_BLOCK_CELLS", cells),
              mock.patch.object(stepscan.wbs, "_RUN_ROWS", run_rows)):
            want_b, want_stat = _best_per_interval(cum, *cols)
            with split_scan(cpus) as fork:
                best_b, best_stat = _best_per_interval(cum, *cols)
        assert fork.call_count == cpus - 1
        assert_no_child()
        assert best_b.tobytes() == want_b.tobytes()
        assert best_stat.tobytes() == want_stat.tobytes()
        self.assert_matches_all_pairs_scan(cum, cols, best_b, best_stat)

    def test_segmentation_is_bit_identical_when_every_scan_splits(self):
        sig, _ = ss.make_step_signal([0, 2, -1, 1, 3, 0], [500] * 6, sigma=1.0, seed=6)
        cfg = ss.WbsConfig(num_intervals=300, seed=1)
        with split_scan(2) as fork:
            got = ss.wbs_segment(sig, cfg)
        assert fork.call_count == 12  # the full scan and 11 rescans
        assert_no_child()
        want = all_pairs_wbs_segment(sig, cfg)
        assert (got.breaks, got.criterion_trace) == (want.breaks, want.criterion_trace)

    @pytest.mark.parametrize("case,forks", [
        ("two CPUs", 1), ("at the threshold", 1), ("three CPUs, the second fork fails", 2),
        ("second thread", 0), ("one CPU", 0), ("below the threshold", 0),
    ])
    def test_when_the_scan_forks(self, case, forks):
        # os.fork raises here (at three CPUs, the second time), so a scan
        # that tries to split kills any child started and scans every run itself
        cum, cols, _ = TestBestPerInterval.run_case("mixed widths")
        cells = int((cols[3] - cols[2] + 1).sum())
        want_b, want_stat = _best_per_interval(cum, *cols)
        fork_cells = {"at the threshold": cells // 2, "below the threshold": cells // 2 + 1}
        cpus = {"one CPU": 1, "three CPUs, the second fork fails": 3}.get(case, 2)
        with (second_thread() if case == "second thread" else contextlib.nullcontext(),
              split_scan(cpus, fork_cells.get(case, 1),
                         [mock.DEFAULT, OSError("fork failed")] if cpus == 3
                         else OSError("fork failed")) as fork):
            best_b, best_stat = _best_per_interval(cum, *cols)
        assert fork.call_count == forks
        assert_no_child()
        assert best_b.tobytes() == want_b.tobytes()
        assert best_stat.tobytes() == want_stat.tobytes()

    def test_a_failed_child_raises(self):
        cum, cols, _ = TestBestPerInterval.run_case("wide rows")
        with (mock.patch.object(stepscan.wbs, "_RUN_ROWS", 1),
              split_scan(3) as fork, failing_sqrt("child")):
            with pytest.raises(ChildProcessError, match="^2 of 2 WBS scan processes failed:"
                               " RuntimeError: a child's share failed$"):
                _best_per_interval(cum, *cols)
        assert fork.call_count == 2
        assert_no_child()

    def test_a_failed_parent_kills_its_children(self):
        cum, cols, _ = TestBestPerInterval.run_case("wide rows")
        started = time.monotonic()
        with (mock.patch.object(stepscan.wbs, "_RUN_ROWS", 1),
              split_scan(3) as fork, failing_sqrt("parent")):
            with pytest.raises(RuntimeError, match="the parent's share failed"):
                _best_per_interval(cum, *cols)
        assert fork.call_count == 2
        assert time.monotonic() - started < 15  # the children were killed, not awaited
        assert_no_child()

    def test_cli_exits_1_on_a_failed_child(self, capsys):
        with split_scan(2), failing_sqrt("child"):
            code = main(["segment", "--method", "wbs", str(FIXTURES / "nile.csv")])
        assert code == 1
        assert capsys.readouterr().err == ("stepscan: 1 of 1 WBS scan processes failed:"
                                           " RuntimeError: a child's share failed\n")
        assert_no_child()


class TestIntervalSampling:
    @settings(max_examples=30)
    @given(st.integers(8, 200), st.integers(0, 400), st.integers(2, 5), st.integers(0, 10))
    def test_draws_are_admissible_and_distinct(self, n, count, min_len, seed):
        if n < 2 * min_len:
            return
        rng = np.random.default_rng(seed)
        starts, ends = _draw_intervals(n, count, min_len, rng)
        assert starts.size == ends.size
        assert np.all(starts >= 1)
        assert np.all(ends <= n)
        assert np.all(ends - starts + 1 >= 2 * min_len)
        pairs = set(zip(starts.tolist(), ends.tolist()))
        assert len(pairs) == starts.size

    def test_requesting_more_than_exist_enumerates_all(self):
        for n, min_len in ((10, 2), (31, 3)):
            # every interval [s..e] of length >= 2*min_len inside 1..n
            expected = {(s, e) for s in range(1, n + 1)
                        for e in range(s + 2 * min_len - 1, n + 1)}
            for count in (len(expected), len(expected) + 1, 10_000):
                for seed in (0, 1, 7):
                    rng = np.random.default_rng(seed)
                    starts, ends = _draw_intervals(n, count, min_len, rng)
                    assert starts.size == len(expected)
                    assert set(zip(starts.tolist(), ends.tolist())) == expected

    def test_draws_come_in_scan_order(self):
        # Nile's shape: 4,753 admissible intervals, so 5,000 draws them all
        for count, size in ((5000, 4753), (300, 300)):
            starts, ends = _draw_intervals(100, count, 2, np.random.default_rng(1))
            pairs = list(zip(starts.tolist(), ends.tolist()))
            assert len(pairs) == size
            assert pairs == sorted(pairs, key=lambda p: (p[1] - p[0], p[0]))

    @pytest.mark.parametrize("n,min_len,count,seed", [
        (100, 2, 5000, 1),  # Nile's shape: all 4,753 intervals
        (100, 2, 300, 0),
        (100, 2, 0, 3),
        (10, 2, 5000, 0),
        (31, 3, 351, 7),
        (600, 2, 100_000, 4),  # over 1/50 of all: numpy shuffles every rank
        (5000, 40, 5000, 2),
    ])
    def test_returns_the_ordered_draw_stable_sorted_by_width(self, n, min_len, count, seed):
        # reference: rank r is the r-th (start, end) pair in lexicographic
        # order; decode the same ranks in that order, then sort by width
        # keeping that order among equal widths
        span = 2 * min_len
        before = list(itertools.accumulate((n - span + 2 - s for s in range(1, n - span + 2)),
                                           initial=0))  # pairs with a smaller start
        ranks = np.random.default_rng(seed).choice(before[-1], min(count, before[-1]), replace=False)
        pairs = []
        for r in sorted(ranks.tolist()):
            s = bisect.bisect_right(before, r)
            pairs.append((s, s + span - 1 + r - before[s - 1]))
        want = sorted(pairs, key=lambda p: p[1] - p[0])
        starts, ends = _draw_intervals(n, count, min_len, np.random.default_rng(seed))
        assert list(zip(starts.tolist(), ends.tolist())) == want
        assert starts.dtype == ends.dtype == np.dtype(int)

    def test_over_budget_raises_before_drawing(self):
        # Nile's shape under a 100,000-byte budget: 72 bytes for each of the
        # 4,753 intervals drawn plus 8 for each one the draw would shuffle
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with mock.patch.object(stepscan.series, "_BUDGET_BYTES", 100_000):
            with pytest.raises(ss.DataError, match="380,240-byte working set for 4,753 intervals"):
                _draw_intervals(100, 5000, 2, rng)
        assert rng.bit_generator.state == state


# Sizes 0-3 and up to 300, odd and even, drawn from a few levels (ties)
# that are small integers, rounded or wide-ranging, with optional noise,
# at scale 1 or 2**+-1000, then mixed with signed zeros, subnormals and
# 2**+-1000 unscaled. No sum or difference that mad_scale takes overflows.
MEDIAN_LEVELS = st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-1e3, 1e3).map(lambda x: round(x, 1)),
                          st.floats(-1e6, 1e6))
MEDIAN_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 2.0**1000, -2.0**-1000]


@st.composite
def median_inputs(draw):
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 300)))
    levels = np.array(draw(st.lists(MEDIAN_LEVELS, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = levels[rng.integers(0, levels.size, n)]
    if draw(st.booleans()):
        v += rng.standard_normal(n)
    v *= draw(st.sampled_from([1.0, 2.0**-1000, 2.0**1000]))
    edges = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    v[edges] = rng.choice(MEDIAN_EDGES, int(edges.sum()))
    return v


def bits(x):
    """The bytes of a float64, with every NaN alike."""
    return "nan" if math.isnan(x) else np.float64(x).tobytes()


class TestMadScale:
    @settings(max_examples=300, deadline=None)
    @given(median_inputs(), st.booleans())
    @example(np.array([-0.0]), False)
    @example(np.array([1.0, -0.0, -0.0, 2.0]), False)  # numpy's mean sums from +0.0
    def test_medians_are_numpys_bit_for_bit(self, v, with_nan):
        if with_nan and v.size:
            v[v.size // 3] = np.nan
        if v.size:
            assert bits(_median(v)) == bits(np.median(v))
        got = mad_scale(v)
        with mock.patch.object(stepscan.wbs, "_median", np.median):
            assert bits(got) == bits(mad_scale(v))
        assert math.isnan(got) == (with_nan and v.size > 1)

    def test_gaussian_noise_level_recovered(self):
        rng = np.random.default_rng(3)
        v = rng.normal(0, 2.0, 5000)
        assert mad_scale(v) == pytest.approx(2.0, rel=0.1)

    def test_step_signal_without_noise_is_zero(self):
        v = np.repeat([0.0, 5.0], 50)
        assert mad_scale(v) == 0.0

    def test_single_value_is_zero(self):
        assert mad_scale(np.array([3.0])) == 0.0


class TestWbsSegment:
    def test_noiseless_step_any_seed(self):
        sig, _ = ss.make_step_signal([0, 5], [50, 50], sigma=0.0)
        for seed in (0, 1, 99):
            seg = ss.wbs_segment(sig, ss.WbsConfig(seed=seed))
            assert seg.breaks == (50,)

    def test_constant_series_has_no_breaks(self):
        sig, _ = ss.make_step_signal([2.0], [60], sigma=0.0)
        assert ss.wbs_segment(sig).breaks == ()

    def test_deterministic_given_config(self):
        sig, _ = ss.make_step_signal([0, 3, 0], [40, 40, 40], sigma=1.0, seed=5)
        cfg = ss.WbsConfig(seed=42)
        a = ss.wbs_segment(sig, cfg)
        b = ss.wbs_segment(sig, cfg)
        assert a.breaks == b.breaks
        assert a.criterion_trace == b.criterion_trace
        assert a.segment_means == b.segment_means

    def test_benchmark_localization(self):
        hits = 0
        for seed in range(30):
            sig, _ = ss.make_step_signal([0, 3, 0], [40, 40, 40], sigma=1.0, seed=seed)
            seg = ss.wbs_segment(sig, ss.WbsConfig(seed=seed))
            bs = seg.breaks
            hits += (bs and min(abs(b - 40) for b in bs) <= 3
                     and min(abs(b - 80) for b in bs) <= 3)
        assert hits >= 28

    def test_raising_threshold_weakly_decreases_breaks(self):
        sig, _ = ss.make_step_signal([0, 2, 0, 3], [30, 30, 30, 30], sigma=1.0, seed=8)
        counts = [ss.wbs_segment(sig, ss.WbsConfig(seed=1, threshold_constant=c)).num_breaks
                  for c in (0.8, 1.0, 1.3, 1.8, 2.5, 4.0)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_cap_keeps_the_strongest_breaks(self):
        sig, _ = ss.make_step_signal([0, 2, 0, 3], [30, 30, 30, 30], sigma=0.8, seed=9)
        full = ss.wbs_segment(sig, ss.WbsConfig(seed=2))
        capped = ss.wbs_segment(sig, ss.WbsConfig(seed=2, max_breaks=2))
        assert capped.num_breaks <= 2
        assert set(capped.breaks) <= set(full.breaks)
        full_stats = dict(full.criterion_trace)
        kept = sorted((full_stats[float(b)] for b in capped.breaks), reverse=True)
        dropped = [s for b, s in full_stats.items() if b not in capped.breaks]
        assert all(k >= d for k in kept for d in dropped)

    def test_breaks_respect_min_len(self):
        rng = np.random.default_rng(11)
        sig = ss.TimeSeries(rng.normal(size=200), ss.PeriodIndex(1900))
        seg = ss.wbs_segment(sig, ss.WbsConfig(seed=3, threshold_constant=0.4, min_len=9))
        edges = (0,) + seg.breaks + (200,)
        assert all(b - a >= 9 for a, b in zip(edges, edges[1:]))

    def test_invariance_under_affine_maps(self):
        sig, _ = ss.make_step_signal([0, 3, 0], [40, 40, 40], sigma=1.0, seed=13)
        moved = sig.with_values(5.0 - 2.0 * sig.values)
        a = ss.wbs_segment(sig, ss.WbsConfig(seed=4))
        b = ss.wbs_segment(moved, ss.WbsConfig(seed=4))
        assert a.breaks == b.breaks

    def test_zero_intervals_degenerates_to_binary_segmentation(self):
        sig, _ = ss.make_step_signal([0, 5, 10], [30, 30, 30], sigma=0.0)
        seg = ss.wbs_segment(sig, ss.WbsConfig(num_intervals=0, seed=0))
        assert seg.breaks == (30, 60)

    @pytest.mark.parametrize("min_len", [2, 5, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_intervals_equals_all_pairs_recursion(self, seed, min_len):
        # no draw at all: only the segments themselves are scanned
        sig, _ = ss.make_step_signal([0.0, 3.0, -1.0, 2.0], [40, 25, 30, 45], seed=seed)
        cfg = ss.WbsConfig(num_intervals=0, min_len=min_len, seed=seed)
        got = ss.wbs_segment(sig, cfg)
        want = all_pairs_wbs_segment(sig, cfg)
        assert got.num_breaks > 0
        assert got.breaks == want.breaks
        assert got.criterion_trace == want.criterion_trace
        assert got.segment_means == want.segment_means

    def test_too_short_series(self):
        with pytest.raises(ss.DataError):
            ss.wbs_segment(ss.TimeSeries([1.0, 2.0, 3.0], ss.PeriodIndex(1900)),
                           ss.WbsConfig(min_len=2))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_identical_to_all_pairs_recursion(self, data):
        n = data.draw(st.integers(6, 60))
        series = ss.TimeSeries(data.draw(awkward_values(n)), ss.PeriodIndex(1900))
        cfg = ss.WbsConfig(
            # 10**6 enumerates every admissible interval
            num_intervals=data.draw(st.one_of(st.integers(0, 40), st.just(10**6))),
            threshold_constant=data.draw(st.sampled_from([0.2, 0.6, 1.3])),
            max_breaks=data.draw(st.one_of(st.none(), st.integers(0, 4))),
            seed=data.draw(st.integers(0, 3)),
            min_len=data.draw(st.integers(2, n // 3)),
        )
        with mock.patch.object(stepscan.wbs, "_BLOCK_CELLS", data.draw(COARSER_BLOCKS)):
            got = ss.wbs_segment(series, cfg)
        want = all_pairs_wbs_segment(series, cfg)
        assert got.breaks == want.breaks
        assert got.criterion_trace == want.criterion_trace
        assert got.segment_means == want.segment_means

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_interval_order_is_immaterial(self, data):
        # the scan reads width-sorted intervals fastest; the draw's order,
        # reversed or shuffled, must not change any output
        n = data.draw(st.integers(6, 60))
        series = ss.TimeSeries(data.draw(awkward_values(n)), ss.PeriodIndex(1900))
        cfg = ss.WbsConfig(
            num_intervals=data.draw(st.one_of(st.integers(0, 40), st.just(10**6))),
            threshold_constant=data.draw(st.sampled_from([0.2, 0.6, 1.3])),
            seed=data.draw(st.integers(0, 3)),
            min_len=data.draw(st.integers(2, n // 3)),
        )

        def reversed_draw(*args):
            starts, ends = _draw_intervals(*args)
            return starts[::-1], ends[::-1]

        def shuffled_draw(*args):
            starts, ends = _draw_intervals(*args)
            perm = np.array(data.draw(st.permutations(range(starts.size))), dtype=int)
            return starts[perm], ends[perm]

        with mock.patch.object(stepscan.wbs, "_BLOCK_CELLS", data.draw(COARSER_BLOCKS)):
            want = ss.wbs_segment(series, cfg)
            for draw in (reversed_draw, shuffled_draw):
                with mock.patch.object(stepscan.wbs, "_draw_intervals", draw):
                    got = ss.wbs_segment(series, cfg)
                assert got.breaks == want.breaks
                assert got.criterion_trace == want.criterion_trace
                assert got.segment_means == want.segment_means

    def test_ties_across_intervals_go_to_the_smallest_split(self):
        # two drawn intervals tie at b=2 and b=4; splitting at 4 first
        # would record a different statistic for 4
        sig = ss.TimeSeries([2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 1.0, 2.0], ss.PeriodIndex(1900))
        cfg = ss.WbsConfig(num_intervals=5, threshold_constant=0.3, seed=1)
        seg = ss.wbs_segment(sig, cfg)
        assert seg.criterion_trace == all_pairs_wbs_segment(sig, cfg).criterion_trace
        assert seg.criterion_trace == ((2.0, 1.5), (4.0, 3 ** 0.5))

    def test_intervals_clipped_by_the_margin_are_rescanned(self):
        # an interval ending one short of the right margin would otherwise
        # offer its cached split at b=5, leaving a 1-point last segment
        sig = ss.TimeSeries([-0.3, 0.4, 1.0, -0.1, 1.4, -0.7], ss.PeriodIndex(1900))
        cfg = ss.WbsConfig(num_intervals=10**6, threshold_constant=0.3, seed=2)
        seg = ss.wbs_segment(sig, cfg)
        want = all_pairs_wbs_segment(sig, cfg)
        assert (seg.breaks, seg.criterion_trace) == (want.breaks, want.criterion_trace)

    def test_bit_identical_to_all_pairs_recursion_on_a_long_series(self):
        sig, _ = ss.make_step_signal([0, 2, -1, 1, 3, 0], [500] * 6, sigma=1.0, seed=6)
        for cfg in (ss.WbsConfig(num_intervals=300, seed=1),
                    ss.WbsConfig(num_intervals=300, seed=2, min_len=40,
                                 threshold_constant=0.5)):
            got = ss.wbs_segment(sig, cfg)
            want = all_pairs_wbs_segment(sig, cfg)
            assert got.breaks == want.breaks
            assert got.criterion_trace == want.criterion_trace
            assert got.segment_means == want.segment_means

    def test_peak_memory_does_not_grow_with_pairs(self):
        # about 4 million (interval, split) pairs; the all-pairs scan
        # needed about 300 MB here; cache-sized blocks keep it near 2 MB
        sig, _ = ss.make_step_signal([0, 2, -1, 1], [1500] * 4, sigma=1.0, seed=2)
        tracemalloc.start()
        try:
            seg = ss.wbs_segment(sig, ss.WbsConfig(num_intervals=2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seg.num_breaks == 3
        assert peak < 4 << 20

    def test_peak_memory_does_not_grow_with_row_width(self):
        # rows up to 60,000 splits wide, well past one _BLOCK_CELLS block:
        # the scan takes them in column chunks and traces a 3.4 MiB peak; a
        # scan taking each wide row as one block traced 5.5-5.6 MiB (at least
        # 25 more bytes per column), so the bound sits between the two
        sig, _ = ss.make_step_signal([0, 2, -1, 1], [15_000] * 4, sigma=1.0, seed=2)
        tracemalloc.start()
        try:
            seg = ss.wbs_segment(sig, ss.WbsConfig(num_intervals=200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seg.breaks == (15_000, 30_000, 45_000)
        assert peak < 4.5 * 2**20

    def test_interval_bytes_bound_the_traced_peak(self):
        # about 100,000 intervals over n = 600, more than 1/50 of all, so the
        # draw shuffles every distinct interval; the peak stays within the
        # plan the budget check makes, plus the scan's block buffers
        sig, _ = ss.make_step_signal([0, 2, -1], [200] * 3, sigma=1.0, seed=4)
        check = mock.patch.object(stepscan.wbs, "_check_budget",
                                  wraps=stepscan.wbs._check_budget)
        with check as budget:
            tracemalloc.start()
            try:
                seg = ss.wbs_segment(sig, ss.WbsConfig(num_intervals=100_000))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        planned = budget.call_args.args[0]
        assert planned > stepscan.wbs._INTERVAL_BYTES * 100_000  # the shuffle is planned
        assert seg.num_breaks == 2
        assert peak <= planned + 5 * 8 * stepscan.wbs._BLOCK_CELLS


class TestWbsConfig:
    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_constant_must_be_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="threshold_constant"):
            ss.WbsConfig(threshold_constant=c)

    @pytest.mark.parametrize("m", [-1, -2])
    def test_negative_max_breaks_rejected(self, m):
        with pytest.raises(ValueError, match="max_breaks"):
            ss.WbsConfig(max_breaks=m)

    def test_min_len_below_two_rejected(self):
        with pytest.raises(ValueError, match="min_len must be at least 2"):
            ss.WbsConfig(min_len=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            ss.WbsConfig(seed=-1)

    def test_zero_max_breaks_keeps_no_break(self):
        sig, _ = ss.make_step_signal([0, 5], [30, 30], sigma=0.0)
        assert ss.wbs_segment(sig, ss.WbsConfig(max_breaks=0)).breaks == ()
