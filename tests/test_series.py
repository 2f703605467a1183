from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from conftest import REPO, assert_no_child, running
from hypothesis import given, settings
from hypothesis import strategies as st

import stepscan as ss
from stepscan.series import _NOTE_BYTES, _fork_shares, segmentation_from_breaks


def annual(values, label=""):
    return ss.TimeSeries(values, ss.PeriodIndex(2000), label=label)


class TestTimeSeries:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ss.DataError):
            annual([])
        with pytest.raises(ss.DataError, match="position 2"):
            annual([1.0, float("nan")])
        with pytest.raises(ss.DataError):
            annual([1.0, float("inf")])

    def test_rejects_values_whose_sum_of_squares_overflows(self):
        with pytest.raises(ss.DataError, match="sum of squares of 20 values"):
            annual([1e308, -1e308] * 10)
        with pytest.raises(ss.DataError, match="too large"):
            annual([1e153] * 20)  # 4 n sum(y^2) = 1.6e310
        assert annual([1e152] * 20).n == 20  # 1.6e308 still fits

    def test_values_are_immutable(self):
        s = annual([1.0, 2.0, 4.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0
        # the cumulants are built once and shared by every caller
        cum, cumsq = s.cumulants
        assert s.cumulants[0] is cum
        np.testing.assert_array_equal(cum, [0.0, 1.0, 3.0, 7.0])
        np.testing.assert_array_equal(cumsq, [0.0, 1.0, 5.0, 21.0])
        for arr in (cum, cumsq):
            with pytest.raises(ValueError):
                arr[1] = 0.0

    def test_date_index_must_match_length(self):
        import datetime as dt
        with pytest.raises(ss.DataError):
            ss.TimeSeries([1.0, 2.0], ss.DateIndex((dt.date(2020, 1, 1),)))
        with pytest.raises(ss.DataError, match="strictly increasing"):
            ss.DateIndex((dt.date(2020, 1, 2), dt.date(2020, 1, 1)))

    def test_period_arithmetic_is_exact(self):
        idx = ss.PeriodIndex(1947, 1, 4)
        assert idx.stamp(1) == (1947, 1)
        assert idx.stamp(5) == (1948, 1)
        assert idx.label(108) == "1973Q4"
        assert idx.position(1973, 4) == 108
        assert idx.date(2).isoformat() == "1947-04-01"

    @pytest.mark.parametrize("freq", [1, 4, 12])
    def test_every_month_maps_to_the_period_holding_it(self, freq):
        idx = ss.PeriodIndex(1990, 1, freq)
        for i in range(1, 30):
            first = idx.date(i)
            for month in range(first.month, first.month + 12 // freq):
                held = ss.PeriodIndex.containing(first.replace(month=month, day=15), freq)
                assert held == idx.shifted(i - 1)

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(ss.DataError, match="one-dimensional"):
            annual([[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("kwargs,message", [
        ({"freq": 2}, "frequency must be one of"),
        ({"freq": 4, "start_sub": 5}, "start_sub must be in 1..4"),
        ({"freq": 12, "start_sub": 0}, "start_sub must be in 1..12"),
    ])
    def test_period_index_checks_its_fields(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ss.PeriodIndex(1990, **kwargs)

    def test_monthly_label(self):
        idx = ss.PeriodIndex(1990, 1, 12)
        assert idx.label(3) == "1990-03"
        assert idx.label(13) == "1991-01"


class TestLogTransform:
    def test_exact_logs(self):
        s = annual([1.0, math.e, math.e**2])
        out = ss.log_transform(s)
        np.testing.assert_allclose(out.values, [0.0, 1.0, 2.0], atol=1e-12)

    def test_ones_go_to_zeros(self):
        np.testing.assert_array_equal(ss.log_transform(annual([1.0, 1.0, 1.0])).values,
                                      [0.0, 0.0, 0.0])

    def test_nonpositive_names_the_position(self):
        with pytest.raises(ss.DataError, match="position 2"):
            ss.log_transform(annual([1.0, -3.0, 2.0]))

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=30))
    def test_strictly_monotone_elementwise(self, values):
        out = ss.log_transform(annual(values)).values
        order = np.argsort(values, kind="stable")
        assert np.array_equal(np.argsort(out, kind="stable"), order)


class TestDeflate:
    def test_trivial_example(self):
        nominal = ss.TimeSeries([2.0, 4.0], ss.PeriodIndex(2000, 1, 4))
        deflator = ss.TimeSeries([1.0, 2.0], ss.PeriodIndex(2000, 1, 4))
        out = ss.deflate(nominal, deflator)
        np.testing.assert_allclose(out.values, [2.0, 2.0])

    def test_self_deflation_is_constant_at_base_value(self):
        s = ss.TimeSeries([3.0, 6.0, 9.0], ss.PeriodIndex(2001, 1, 4))
        out = ss.deflate(s, s)
        np.testing.assert_allclose(out.values, [3.0, 3.0, 3.0])

    def test_base_year_uses_the_annual_mean(self):
        nominal = ss.TimeSeries(np.ones(8), ss.PeriodIndex(2000, 1, 4))
        deflator = ss.TimeSeries([1, 1, 1, 1, 2, 2, 2, 2.0], ss.PeriodIndex(2000, 1, 4))
        out = ss.deflate(nominal, deflator, base=2001)
        np.testing.assert_allclose(out.values[:4], 2.0)
        np.testing.assert_allclose(out.values[4:], 1.0)

    def test_missing_periods_are_listed(self):
        nominal = ss.TimeSeries(np.ones(6), ss.PeriodIndex(2000, 1, 4))
        deflator = ss.TimeSeries(np.ones(4), ss.PeriodIndex(2000, 1, 4))
        with pytest.raises(ss.AlignmentError, match="2001Q2"):
            ss.deflate(nominal, deflator)

    def test_frequency_mismatch(self):
        nominal = ss.TimeSeries([1.0, 1.0], ss.PeriodIndex(2000, 1, 4))
        deflator = ss.TimeSeries([1.0, 1.0], ss.PeriodIndex(2000, 1, 12))
        with pytest.raises(ss.AlignmentError):
            ss.deflate(nominal, deflator)

    def test_needs_regular_calendars(self):
        import datetime as dt
        daily = ss.TimeSeries([1.0, 2.0], ss.DateIndex((dt.date(2020, 1, 1),
                                                         dt.date(2020, 1, 2))))
        with pytest.raises(ss.AlignmentError, match="regular calendar"):
            ss.deflate(daily, daily)

    def test_base_year_must_be_covered(self):
        nominal = ss.TimeSeries(np.ones(4), ss.PeriodIndex(2000, 1, 4))
        deflator = ss.TimeSeries(np.ones(6), ss.PeriodIndex(2000, 1, 4))
        with pytest.raises(ss.AlignmentError, match="base year 2001 not fully covered"):
            ss.deflate(nominal, deflator, base=2001)

    @pytest.mark.parametrize("deflator,base", [
        ([1.0, 0.0, 1.0, 1.0], None),
        ([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0], 2001),
    ])
    def test_deflator_must_be_positive(self, deflator, base):
        nominal = ss.TimeSeries(np.ones(4), ss.PeriodIndex(2000, 1, 4))
        with pytest.raises(ss.DataError, match="strictly positive"):
            ss.deflate(nominal, ss.TimeSeries(deflator, ss.PeriodIndex(2000, 1, 4)), base=base)

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=2, max_size=20))
    def test_deflating_by_itself_is_flat(self, values):
        s = ss.TimeSeries(values, ss.PeriodIndex(1900, 1, 12))
        out = ss.deflate(s, s)
        np.testing.assert_allclose(out.values, values[0], rtol=1e-12)


class TestReturns:
    def test_log_return_example(self):
        out = ss.returns(annual([1.0, math.e]), "log_return")
        np.testing.assert_allclose(out.values, [1.0], atol=1e-15)
        assert out.n == 1

    def test_abs_log_return_removes_sign(self):
        out = ss.returns(annual([math.e, 1.0]), "abs_log_return")
        np.testing.assert_allclose(out.values, [1.0], atol=1e-15)

    def test_constant_series_gives_zeros(self):
        out = ss.returns(annual([2.5] * 5), "log_return")
        np.testing.assert_array_equal(out.values, np.zeros(4))

    def test_index_advances_one_period(self):
        s = ss.TimeSeries([1.0, 2.0, 3.0], ss.PeriodIndex(2000, 4, 4))
        out = ss.returns(s)
        assert out.period_label(1) == "2001Q1"

    def test_kind_is_checked(self):
        with pytest.raises(ValueError):
            ss.returns(annual([1.0, 2.0]), "simple")

    def test_needs_two_observations(self):
        with pytest.raises(ss.DataError):
            ss.returns(annual([1.0]))


class TestFitAr1:
    def test_white_noise_rho_near_zero(self):
        s, _ = ss.make_step_signal([0.0], [5000], noise="gaussian", sigma=1.0, seed=1)
        _, rho = ss.fit_ar1(s)
        assert abs(rho) < 3 / math.sqrt(5000)

    def test_recovers_rho(self):
        s, _ = ss.make_step_signal([0.0], [5000], noise="ar1", rho=0.8, sigma=1.0, seed=2)
        _, rho = ss.fit_ar1(s)
        assert rho == pytest.approx(0.8, abs=0.05)

    def test_degenerate_regressor(self):
        with pytest.raises(ss.DataError, match="zero variance"):
            ss.fit_ar1(annual([1.0, 1.0, 1.0, 5.0][:3]))

    def test_needs_three_observations(self):
        with pytest.raises(ss.DataError):
            ss.fit_ar1(annual([1.0, 2.0]))


class TestSegmentation:
    def test_partition_bookkeeping(self):
        seg = segmentation_from_breaks(annual([0, 0, 3, 3.0]), [2], min_len=2)
        assert seg.segment_means == (0.0, 3.0)
        assert seg.rss_total == 0.0
        assert seg.num_breaks == 1

    def test_short_segment_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            ss.Segmentation(n=10, breaks=(1,), segment_means=(0.0, 0.0),
                            rss_total=0.0, min_len=3)

    def test_unsorted_breaks_rejected(self):
        with pytest.raises(ValueError):
            ss.Segmentation(n=10, breaks=(6, 3), segment_means=(0.0,) * 3,
                            rss_total=0.0, min_len=2)

    def test_one_mean_per_segment(self):
        with pytest.raises(ValueError, match="one mean per segment"):
            ss.Segmentation(n=10, breaks=(5,), segment_means=(0.0,),
                            rss_total=0.0, min_len=2)

    @settings(max_examples=50)
    @given(st.data())
    def test_recompute_matches_stored_fields(self, data):
        n = data.draw(st.integers(8, 40))
        values = data.draw(st.lists(
            st.floats(min_value=-50, max_value=50), min_size=n, max_size=n))
        k = data.draw(st.integers(0, 2))
        candidates = sorted(data.draw(
            st.sets(st.integers(2, n - 2), min_size=k, max_size=k)))
        if any(b - a < 2 for a, b in zip([0] + candidates, candidates + [n])):
            candidates = []
        seg = segmentation_from_breaks(annual(values), candidates, min_len=2)
        v = np.asarray(values)
        edges = [0, *candidates, n]
        pieces = [v[a:b] for a, b in zip(edges, edges[1:])]
        for piece, mean in zip(pieces, seg.segment_means, strict=True):
            assert math.isclose(mean, piece.mean(), rel_tol=1e-10, abs_tol=1e-12)
        rss = sum(float(((piece - piece.mean()) ** 2).sum()) for piece in pieces)
        assert math.isclose(seg.rss_total, rss, rel_tol=1e-10, abs_tol=1e-9)


def run_shares(share, procs):
    return _fork_shares(share, procs, lambda k: 8 * k, "test")


# Runs a split WBS scan, e-divisive permutation test or DP sweep over 2
# mocked CPUs whose child takes BATCH_S per run, batch or block, and prints
# the child's pid. "edivisive-run" is an e-divisive run whose parent stalls
# after its first test, while its child waits for the next.
ORPHAN_SCRIPT = """
import os, sys, time
from unittest import mock
import numpy as np
import stepscan as ss, stepscan.dating, stepscan.edivisive, stepscan.wbs

method, batch_s = sys.argv[1], float(sys.argv[2])
parent, fork = os.getpid(), os.fork

def forking():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

def slow(inner):
    def call(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(batch_s)
        return inner(*args, **kwargs)
    return call

class SlowSqrt:  # numpy for the WBS scan, which takes one sqrt per run of one interval
    sqrt = staticmethod(slow(np.sqrt))
    def __getattr__(self, name):
        return getattr(np, name)

with (mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}),
      mock.patch.object(os, "fork", forking)):
    if method == "wbs":
        cum = np.concatenate(([0.0], np.cumsum(np.random.default_rng(0).normal(size=400))))
        starts = np.arange(1, 201)
        with (mock.patch.object(stepscan.wbs, "_FORK_CELLS", 1),
              mock.patch.object(stepscan.wbs, "_RUN_ROWS", 1),
              mock.patch.object(stepscan.wbs, "np", SlowSqrt())):
            stepscan.wbs._best_per_interval(cum, starts, starts + 199, starts, starts + 198)
    elif method == "dp":  # 2000 values, h = 100: the child steps layers 5-8 through 89 blocks
        v = np.repeat([0.0, 3.0, 1.0], [700, 600, 700]) + np.random.default_rng(0).normal(size=2000)
        with (mock.patch.object(stepscan.dating, "_FORK_STARTS", 1),
              mock.patch.object(stepscan.dating, "_BLOCK_STARTS", 16),
              mock.patch.object(stepscan.dating._Block, "__init__",
                                slow(stepscan.dating._Block.__init__))):
            ss.select_breaks_bic(ss.build_rss_triangle(ss.TimeSeries(v, ss.PeriodIndex(1)), 100), 8)
    elif method == "edivisive-run":
        best, calls = stepscan.edivisive.best_split, []

        def stalling(*args):
            calls.append(args)
            if len(calls) > 1:  # the first test is over
                time.sleep(30)
            return best(*args)

        sig, _ = ss.make_step_signal([0, 3, 0], [20, 20, 20], sigma=0.1, seed=1)
        with (mock.patch.object(stepscan.edivisive, "_FORK_PAIRS", 1),
              mock.patch.object(stepscan.edivisive, "best_split", stalling)):
            ss.e_divisive(sig, ss.EdivConfig(min_size=5))
    else:
        with (mock.patch.object(stepscan.edivisive, "_FORK_PAIRS", 1),
              mock.patch.object(stepscan.edivisive, "_BATCH_CELLS", 40),
              mock.patch.object(stepscan.edivisive, "_permutations",
                                slow(stepscan.edivisive._permutations))):
            stepscan.edivisive.permutation_test(np.random.default_rng(4).normal(size=40), 20,
                                                ss.EdivConfig(min_size=5, num_permutations=199))
"""


def kill_and_time(method, batch_s, wait_s):
    """Seconds that the child of ORPHAN_SCRIPT outlives its parent, SIGKILLed
    wait_s after the fork (10 if the child lives on)."""
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT, method, str(batch_s)],
                            stdout=subprocess.PIPE, text=True, cwd=str(REPO))
    child = None
    try:
        child = int(proc.stdout.readline())
        time.sleep(wait_s)
        assert running(child)
        proc.kill()
        proc.wait(timeout=10)
        killed = time.monotonic()
        while running(child) and time.monotonic() - killed < 10:
            time.sleep(0.01)
        return time.monotonic() - killed
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        if child and running(child):
            os.kill(child, signal.SIGKILL)


class TestForkShares:
    """How series._fork_shares runs the shares of a split job, and how it ends."""

    def test_shares_write_into_one_buffer(self):
        def share(p, procs, buf):
            np.frombuffer(buf, np.int64)[p] = 10 * procs + p

        assert np.frombuffer(run_shares(share, 3), np.int64).tolist() == [30, 31, 32]
        assert_no_child()

    @pytest.mark.parametrize("how,why", [
        ("raises", "RuntimeError: share 1 failed"),
        ("is killed", "killed by signal 9"),
        ("exits", "exit code 3"),
        ("raises at length", "RuntimeError: " + "x" * (_NOTE_BYTES - len("RuntimeError: "))),
    ])
    def test_a_failed_child_says_why(self, how, why):
        def share(p, procs, buf):
            if p != 1:
                return
            if how == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "exits":
                os._exit(3)
            raise RuntimeError("x" * 1000 if how == "raises at length" else "share 1 failed")

        with pytest.raises(ChildProcessError, match=f"^1 of 2 test processes failed: {why}$"):
            run_shares(share, 3)
        assert_no_child()

    def test_a_failed_fork_runs_the_whole_job_in_one_process(self):
        # a child that is not killed shows in the time the call takes
        calls = []

        def share(p, procs, buf):
            calls.append((p, procs))
            if p:
                time.sleep(30)
            np.frombuffer(buf, np.int64)[p] = 7

        started = time.monotonic()
        with mock.patch.object(os, "fork", wraps=os.fork,
                               side_effect=[mock.DEFAULT, OSError("fork failed")]) as fork:
            buf = run_shares(share, 3)
        assert fork.call_count == 2
        assert time.monotonic() - started < 15
        assert calls == [(0, 1)]
        assert np.frombuffer(buf, np.int64).tolist() == [7]
        assert_no_child()

    @pytest.mark.parametrize("method", ["wbs", "edivisive", "dp"])
    def test_a_child_outlives_its_killed_parent_by_one_batch_at_most(self, method):
        # unchecked, the child would compute its 100 batches (89 DP blocks) for 20 s
        # more; the DP parent has stepped all its blocks by then and waits in the reap
        assert kill_and_time(method, 0.2, 0.6) < 0.2 + 1.0

    def test_a_child_waiting_between_tests_ends_with_its_killed_parent(self):
        # the parent stalls for 30 s after the run's first test; its death
        # closes the child's command pipe
        assert kill_and_time("edivisive-run", 0.0, 1.0) < 1.0
