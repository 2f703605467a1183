from __future__ import annotations

import contextlib
import functools
import importlib
import os
import signal
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FIXTURES, REPO, assert_no_child, awkward_values, brute_force_breaks,
                      one_process, split_work)

import stepscan as ss
import stepscan.dating as dating
from stepscan.cli import main
from stepscan.dating import _suffix_costs, bic_value
from stepscan.series import _EPS, _span_rss


def annual(values):
    return ss.TimeSeries(values, ss.PeriodIndex(1900))


def reference_span_rss(s, i, j):
    """_span_rss as one expression, each step a full-size temporary."""
    cum, cumsq = s.cumulants
    ssum = cum[j] - cum[i - 1]
    qsum = cumsq[j] - cumsq[i - 1]
    lens = j - i + 1
    raw = qsum - ssum * ssum / lens
    return np.where(raw <= 16.0 * _EPS * lens * qsum, 0.0, raw)


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

    @pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 2.0 ** -500)])
    def test_bit_identical_to_one_expression(self, offset, scale):
        rng = np.random.default_rng(3)
        v = np.concatenate([rng.normal(size=40), np.full(30, 2.5), rng.normal(size=40)])
        s = annual(v * scale + offset)
        cases = [(1, 110), (41, 70), (45, 60), (np.int64(7), np.int64(7)),  # 41..70 is constant
                 (np.arange(1, 100), 105), (3, np.arange(3, 111)),
                 (np.arange(1, 41)[:, None], np.arange(40, 111))]
        for i, j in cases:
            got, ref = _span_rss(s, i, j), reference_span_rss(s, i, j)
            assert type(got) is type(ref) is np.ndarray  # 0-d for scalar i and j
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_rectangle_peak_under_3_5_outputs(self):
        # the size of a short DP block's widest rectangle, 96 starts by
        # 672 candidates
        s = annual(np.random.default_rng(4).normal(size=800))
        s.cumulants
        tracemalloc.start()
        try:
            out = _span_rss(s, np.arange(1, 97)[:, None], np.arange(100, 772))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (96, 672)
        assert peak <= 3.5 * out.nbytes

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
        # the backtrack reads D[1..m] past start h, which only layers
        # below the top one fill; m = 0 reads nothing but needs row 1
        tri = ss.build_rss_triangle(annual(np.random.default_rng(5).normal(size=40)), 3)
        with mock.patch.object(dating, "_suffix_costs", wraps=dating._suffix_costs) as spy:
            seg = ss.optimal_breaks(tri, m)
        assert spy.call_args.args[1] == m + 1
        assert len(seg.breaks) == m
        rows = slice(1, m + 1)
        assert np.array_equal(_suffix_costs(tri, m + 1)[rows], _suffix_costs(tri, m + 2)[rows])

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

    Each (j, a) cell recomputes its RSS row from the cumulants. Every
    layer is computed in full; then the cells that _suffix_costs leaves
    +inf, because neither BIC nor the backtrack reads them, are blanked:
    starts 2..h of every layer and every start but 1 of the top layer.
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
    D[1:, 2 : h + 1] = np.inf
    D[jmax, 2:] = np.inf
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
            assert_each_path_is_dense(tri, jmax, jmax >= 3 and n - 3 * h + 1 > starts)

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
        # each block's new-candidate triangle is evaluated once for all layers,
        # counted in one process (a split sweep steps some layers out of sight)
        tri = ss.build_rss_triangle(six_regimes(4000, 0), 200)
        one_process(monkeypatch, dating, "_FORK_STARTS")
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


class TestReadCellsOnly:
    """_suffix_costs fills D[j, 1] for every layer and the starts above h
    below the top layer, the only cells BIC and the backtrack read."""

    @pytest.mark.parametrize("s, h, jmax", [
        (six_regimes(2000, 0), 100, 9),  # layers 2..8 prune
        (six_regimes(600, 1), 30, 12),   # every layer is short
        (six_regimes(90, 2), 7, 12),
    ], ids=["pruning", "short", "short h < 8"])
    def test_dead_cells_stay_inf(self, s, h, jmax):
        tri = ss.build_rss_triangle(s, h)
        n = tri.n
        D = _suffix_costs(tri, jmax)
        assert np.isinf(D[1:, 2 : h + 1]).all() and np.isinf(D[jmax, 2:]).all()
        assert np.isfinite(D[1:, 1]).all()
        for j in range(1, jmax):  # every start above h up to layer j's last
            assert np.isfinite(D[j, h + 1 : n - j * h + 2]).all()
            assert np.isinf(D[j, n - j * h + 2 :]).all()

    @pytest.mark.parametrize("blocks", [None, 0], ids=["default", "every layer prunes"])
    def test_never_reads_a_span_from_starts_2_to_h(self, monkeypatch, blocks):
        tri = ss.build_rss_triangle(six_regimes(600, 0), 30)
        starts = []
        inner = dating._span_rss

        def recording(s, i, j):
            starts.extend(np.unique(i).tolist())
            return inner(s, i, j)

        monkeypatch.setattr(dating, "_span_rss", recording)
        if blocks is not None:
            monkeypatch.setattr(dating, "_SHORT_BLOCKS", blocks)
        _suffix_costs(tri, 9)
        counts = np.bincount(starts, minlength=tri.n + 1)
        assert counts[1] == 1  # the row that fills every layer's start 1
        assert not counts[2:31].any()
        assert counts[31:542].all()  # layer 2 sweeps 31..541

    @pytest.mark.parametrize("jmax", [1, 2, 3, 9])
    def test_the_top_layer_is_never_stepped(self, monkeypatch, jmax):
        stepped = set()
        inner = dating._Layer.step

        def recording(self, s, blk, k, before, prev, out, plan):
            stepped.add((out.ctypes.data - out.base.ctypes.data) // out.base.strides[0])
            inner(self, s, blk, k, before, prev, out, plan)

        monkeypatch.setattr(dating._Layer, "step", recording)
        monkeypatch.setattr(dating, "_SHORT_BLOCKS", 0)
        _suffix_costs(ss.build_rss_triangle(six_regimes(600, 0), 30), jmax)
        assert stepped == set(range(2, jmax))

    @pytest.mark.parametrize("n, h, max_m, starts", [
        (14, 5, 1, None),  # an empty sweep: layer 2's last start n - 2h + 1 <= h
        (15, 5, 2, None),  # layer 2 sweeps one start, h + 1
        (12, 4, 1, None),  # jmax = 2: no layer is swept
        (13, 1, 6, None),
        (19, 2, 5, 1),
        (19, 2, 5, 3),
        (19, 2, 5, 64),
    ])
    def test_bic_and_optimal_breaks_equal_exhaustive_search(self, n, h, max_m, starts):
        v = np.round(np.random.default_rng(n + h).normal(0, 2, n), 1)
        s = annual(v)
        exact = [brute_force_breaks(v, m, h, rss=lambda i, j: float(_span_rss(s, i, j)))
                 for m in range(max_m + 1)]
        bic = [bic_value(n, total, m) for m, (total, _) in enumerate(exact)]
        best = min(range(max_m + 1), key=lambda m: (bic[m], m))
        for blocks in (dating._SHORT_BLOCKS, 0):  # short layers, then pruning ones
            with mock.patch.object(dating, "_SHORT_BLOCKS", blocks), \
                    mock.patch.object(dating, "_BLOCK_STARTS", starts or dating._BLOCK_STARTS):
                tri = ss.build_rss_triangle(s, h)
                seg = ss.select_breaks_bic(tri, max_m)
                assert [b for _, b in seg.criterion_trace] == bic
                assert seg.breaks == exact[best][1]
                for m, (total, breaks) in enumerate(exact):
                    seg = ss.optimal_breaks(tri, m)
                    assert (seg.rss_total, seg.breaks) == (total, breaks)


# split_sweep(cpus, per_process=1, fork_error=None): sweeps of per_process
# starts per process or more split over cpus usable CPUs; yields the spy on os.fork
split_sweep = functools.partial(split_work, dating, "_FORK_STARTS")


@pytest.fixture(scope="class", params=[2, 3], ids=["2 CPUs", "3 CPUs"])
def split_sweeps(request):
    """Every sweep of two layers or more in the class runs as a pipeline of
    2 or 3 processes (at 3, the middle one both reads and writes)."""
    with split_sweep(request.param) as fork:
        yield
    assert fork.call_count > 0
    assert_no_child()


@pytest.mark.usefixtures("split_sweeps")
class TestPrunedSuffixCostsSplit(TestPrunedSuffixCosts):
    """TestPrunedSuffixCosts with the layers stepped across processes."""


@pytest.mark.usefixtures("split_sweeps")
class TestReadCellsOnlySplit(TestReadCellsOnly):
    """TestReadCellsOnly with the layers stepped across processes."""

    # it records the layers stepped in this process only
    test_the_top_layer_is_never_stepped = None


@pytest.mark.parametrize("cpus", [2, 3])
def test_06_exhaustive_search_holds_split(cpus):
    with split_sweep(cpus) as fork:
        importlib.import_module("test_acceptance").test_06_dp_matches_exhaustive_search()
    assert fork.call_count > 0
    assert_no_child()


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError, rather than hang, if the block runs longer;
    the processes it forked are then killed and reaped."""
    def expire(signum, frame):
        with open(f"/proc/self/task/{os.getpid()}/children") as f:
            children = [int(pid) for pid in f.read().split()]
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def failing_layer(layer, how, after=3):
    """_Layer.step that fails at its `after`-th step of layer `layer`, which
    raises in the parent and raises or is SIGKILLed in a child."""
    parent, calls = os.getpid(), [0]
    step = dating._Layer.step

    def stepping(self, s, blk, k, before, prev, out, plan):
        if (out.ctypes.data - out.base.ctypes.data) // out.base.strides[0] == layer:
            calls[0] += 1
            if calls[0] == after and how == "is killed" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            if calls[0] == after:
                raise RuntimeError(f"layer {layer} failed")
        step(self, s, blk, k, before, prev, out, plan)

    return mock.patch.object(dating._Layer, "step", stepping)


class TestSplitSweep:
    """How a sweep split into a pipeline of processes ends.

    On six regimes of n = 2000 with min_len 100 and jmax 9, layers 2..8
    sweep 1,701 down to 1,101 starts, and all prune. Two processes step
    layers 2-4 and 5-8; three step 2-3, 4-5 and 6-8.
    """

    tri = ss.build_rss_triangle(six_regimes(2000, 0), 100)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_d_is_bit_identical(self, cpus):
        want = layer_outer_suffix_costs(self.tri, 9)
        with split_sweep(cpus) as fork:
            got = _suffix_costs(self.tri, 9)
        assert fork.call_count == cpus - 1
        assert_no_child()
        assert got.tobytes() == want.tobytes()

    def test_the_nile_and_oil_dps_never_fork(self, nile, wti_log_real):
        # 134 and 2,422 swept starts, under two processes' worth
        with split_sweep(3, dating._FORK_STARTS) as fork:
            assert ss.select_breaks_bic(ss.build_rss_triangle(nile, 15), 5).breaks == (28,)
            seg = ss.select_breaks_bic(ss.build_rss_triangle(wti_log_real, 10), 15)
        assert seg.breaks == (60, 108, 131, 144, 156, 185, 201, 211, 230, 242)
        assert fork.call_count == 0

    def test_benchmark_jobs_split_with_the_same_breaks(self, monkeypatch, tmp_path):
        # the dp-long jobs sweep 9,807, 19,607 and 39,207 starts: each splits in two
        monkeypatch.syspath_prepend(str(REPO / "bench"))
        jobs = importlib.import_module("workloads").build("dp-long", 0, str(tmp_path))
        with split_sweep(2, dating._FORK_STARTS) as fork:
            got = [job.run() for job in jobs]
        assert fork.call_count == 3
        assert_no_child()
        with monkeypatch.context() as mp:
            one_process(mp, dating, "_FORK_STARTS")
            want = [job.run() for job in jobs]
        assert [(s.breaks, s.criterion_trace) for s in got] == [
            (s.breaks, s.criterion_trace) for s in want]

    @pytest.mark.parametrize("cpus,layer,how,why", [
        (2, 6, "is killed", "1 of 1 dynamic program processes failed: killed by signal 9"),
        (2, 6, "raises", "1 of 1 dynamic program processes failed: RuntimeError: layer 6 failed"),
        # the last process reads EOF and fails too
        (3, 4, "is killed", "2 of 2 dynamic program processes failed: killed by signal 9"),
        # the middle process ends when its writes find no reader
        (3, 7, "raises", "1 of 2 dynamic program processes failed: RuntimeError: layer 7 failed"),
    ])
    def test_a_failed_child_raises_and_ends_the_pipeline(self, cpus, layer, how, why):
        with deadline(60), split_sweep(cpus) as fork, failing_layer(layer, how):
            with pytest.raises(ChildProcessError, match=f"^{why}$"):
                _suffix_costs(self.tri, 9)
        assert fork.call_count == cpus - 1
        assert_no_child()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_failed_parent_kills_its_consumers(self, cpus):
        # the consumers wait for bytes the parent never writes; only a kill ends them
        with deadline(60), split_sweep(cpus) as fork, failing_layer(2, "raises"):
            with pytest.raises(RuntimeError, match="^layer 2 failed$"):
                _suffix_costs(self.tri, 9)
        assert fork.call_count == cpus - 1
        assert_no_child()

    def test_a_failed_fork_runs_the_whole_sweep_in_one_process(self):
        # run as leftover shares, the pipeline would leave its parent waiting for ever
        want = layer_outer_suffix_costs(self.tri, 9)
        with deadline(60), split_sweep(3, 1, [mock.DEFAULT, OSError("fork failed")]) as fork:
            got = _suffix_costs(self.tri, 9)
        assert fork.call_count == 2
        assert_no_child()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_cli_exits_1_on_a_failed_child(self, cpus, capsys):
        # every child is SIGKILLed as it builds its first block, or reads EOF first
        parent, build = os.getpid(), dating._Block.__init__

        def building(self, *args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            build(self, *args)

        with (deadline(60), split_sweep(cpus),
              mock.patch.object(dating._Block, "__init__", building)):
            code = main(["segment", "--method", "dp", "--min-seg", "5", "--max-breaks", "8",
                         str(FIXTURES / "nile.csv")])
        assert code == 1
        assert capsys.readouterr().err == (f"stepscan: {cpus - 1} of {cpus - 1} dynamic program"
                                           " processes failed: killed by signal 9\n")
        assert_no_child()


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
