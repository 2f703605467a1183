"""Exact work counts of the DP, WBS and e-divisive kernels on fixed inputs.

Counts do not depend on the host, so they catch a kernel that does more
work where timings are too noisy to. They are taken by wrapping the
module function each kernel calls for its work. A change that moves a
count re-pins it here and says why in CHANGES.md, as for the digests.
"""

from __future__ import annotations

import importlib
import os
import tracemalloc

import numpy as np
import pytest
from conftest import FIXTURES, REPO, one_process

import stepscan as ss
import stepscan.dating as dating
import stepscan.edivisive as edivisive
import stepscan.wbs as wbs

SIX_MEANS = [0.0, 2.0, -1.0, 1.5, -0.5, 2.5]


def annual(values):
    return ss.TimeSeries(values, ss.PeriodIndex(1900))


def six_steps(n, offset=0.0, **kw):
    lengths = [n // 6] * 5 + [n - 5 * (n // 6)]
    return ss.make_step_signal(np.add(SIX_MEANS, offset), lengths, seed=0, **kw)[0]


@pytest.mark.parametrize("s,span_rss_values", [
    (annual(np.full(2000, 3.0)), 174_354),
    (six_steps(2000, sigma=0.0), 610_083),
    (six_steps(2000, offset=1e6), 2_352_900),
    (annual(np.cumsum(np.random.default_rng(0).standard_normal(2000))), 451_455),
    (annual(np.round(0.4 * np.random.default_rng(0).standard_normal(2000) + 10)), 267_072),
], ids=["constant", "noiseless six steps", "six regimes at +1e6", "random walk", "rounded noise"])
def test_dp_span_rss_values(monkeypatch, s, span_rss_values):
    one_dp_process(monkeypatch)
    # n = 2000, min_len 100, layers up to 9. Layers 2..8 sweep their
    # starts above 100; layer 9 and every layer's start 1 come from one
    # row of 1,901 values. Each block of nb starts builds a full
    # rectangle, nb (nb - 1) / 2 cells below its diagonal (masked to +inf)
    # more than its triangle of new candidates: layer 2's 1,701 swept
    # starts (101..1801) are 17 blocks of 96 and one of 69, so each count
    # is 17 * 4,560 + 2,346 = 79,866 above the triangle-only count
    # (94,488 / 530,217 / 2,273,034 / 371,589 / 187,206)
    tri = ss.build_rss_triangle(s, 100)
    count = 0
    inner = dating._span_rss

    def counting(s, i, j):
        nonlocal count
        out = inner(s, i, j)
        count += np.size(out)
        return out

    monkeypatch.setattr(dating, "_span_rss", counting)
    dating._suffix_costs(tri, 9)
    assert count == span_rss_values


def one_dp_process(monkeypatch):
    """A split sweep would step some layers out of the counters' sight."""
    one_process(monkeypatch, dating, "_FORK_STARTS")


def counting_plans(monkeypatch):
    """A list that gains one entry per dating._Plan.build call."""
    calls = []
    build = dating._Plan.build

    def building(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(dating._Plan, "build", staticmethod(building))
    return calls


def test_dp_oil_reads_rectangles_and_never_prunes(monkeypatch, wti_log_real):
    # the fixtures chain (n = 267), min_len 10, up to 15 breaks: layer 2
    # has 248 starts, so every layer fits in 7 blocks and reads every
    # candidate; the count includes the backtrack's rows. It sweeps its
    # 238 starts above 10 (11..248), 2 blocks of 96 and one of 46, whose
    # rectangles hold 2 * 4,560 + 1,035 = 10,155 cells below their
    # diagonals: 29,551 + 10,155; with no pruning layer, no pruning plan
    # is built
    one_dp_process(monkeypatch)
    cells, pruned = 0, 0
    inner, prune = dating._span_rss, dating._prune
    plans = counting_plans(monkeypatch)

    def counting(s, i, j):
        nonlocal cells
        out = inner(s, i, j)
        cells += np.size(out)
        return out

    def pruning(*args):
        nonlocal pruned
        pruned += 1
        return prune(*args)

    monkeypatch.setattr(dating, "_span_rss", counting)
    monkeypatch.setattr(dating, "_prune", pruning)
    seg = ss.select_breaks_bic(ss.build_rss_triangle(wti_log_real, 10), 15)
    assert seg.breaks == (60, 108, 131, 144, 156, 185, 201, 211, 230, 242)
    assert (cells, pruned, len(plans)) == (39_706, 0, 0)


def test_dp_short_sweep_peak(monkeypatch):
    # layer 2 has 7 * 96 = 672 starts, so no layer prunes; it sweeps the
    # 662 above 10, and the lowest block builds the widest rectangle, 86
    # starts by 662 candidates (its 86 new ones and the 576 after them);
    # with _span_rss's temporaries the sweep holds under 6 arrays of
    # 96 by 672 beyond the cost table
    one_dp_process(monkeypatch)
    tri = ss.build_rss_triangle(annual(np.random.default_rng(0).standard_normal(691)), 10)
    tri.series.cumulants
    tracemalloc.start()
    try:
        D = dating._suffix_costs(tri, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= D.nbytes + 8 * (6 * 96 * 672)


@pytest.mark.parametrize("s,layer_peaks", [
    (annual(np.full(2000, 3.0)), [1632, 1532, 1432, 1332, 1232, 1132, 1032]),
    (six_steps(2000, sigma=0.0), [192, 147, 198, 197, 204, 204, 204]),
    (six_steps(2000, offset=1e6), [1632, 1532, 1432, 1332, 1232, 1132, 1032]),
    (annual(np.cumsum(np.random.default_rng(0).standard_normal(2000))),
     [101, 56, 51, 47, 40, 34, 38]),
    (annual(np.round(0.4 * np.random.default_rng(0).standard_normal(2000) + 10)),
     [15, 17, 14, 15, 14, 12, 14]),
    (six_steps(2000), [38, 20, 10, 13, 11, 9, 9]),
], ids=["constant", "noiseless six steps", "six regimes at +1e6", "random walk",
        "rounded noise", "six regimes"])
def test_dp_peak_live_set(monkeypatch, s, layer_peaks):
    # n = 2000, min_len 100; the largest live set that each of layers
    # 2..8 carries after a block (the top layer, 9, is never stepped; the
    # constant and +1e6 inputs reach theirs through the stop rule: every
    # start but the lowest block's, 1,701 - 69 = 1,632 on layer 2)
    one_dp_process(monkeypatch)
    peaks = {}
    inner = dating._Layer.step

    def recording(self, *args):
        inner(self, *args)
        peaks[self] = max(peaks.get(self, 0), self.live.size)

    monkeypatch.setattr(dating._Layer, "step", recording)
    plans = counting_plans(monkeypatch)
    dating._suffix_costs(ss.build_rss_triangle(s, 100), 9)
    assert list(peaks.values()) == layer_peaks
    assert len(plans) == 1


@pytest.mark.parametrize("s,breaks,full_scan,rescans", [
    (ss.read_csv(str(FIXTURES / "nile.csv")), (28, 45), 166_355, 257),
    (six_steps(1200, sigma=0.0), (200, 400, 600, 800, 1000), 1_987_029, 6_673),
], ids=["nile", "noiseless six steps"])
def test_wbs_cells(monkeypatch, s, breaks, full_scan, rescans):
    # default WbsConfig; cells are (interval, split) pairs, the first call's
    # from the full scan and the later calls' from the recursion's rescans:
    # each segment and the intervals whose best split its margins exclude
    # (on Nile only the segments)
    cells = []
    inner = wbs._best_per_interval

    def counting(cum, starts, ends, los, his):
        cells.append(int((his - los + 1).sum()))
        return inner(cum, starts, ends, los, his)

    monkeypatch.setattr(wbs, "_best_per_interval", counting)
    assert ss.wbs_segment(s).breaks == breaks
    assert (cells[0], sum(cells[1:])) == (full_scan, rescans)


@pytest.fixture(scope="module")
def wbs_long_jobs(tmp_path_factory):
    """The three seed-0 jobs of the benchmark's wbs-long workload, by id."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO / "bench"))
        workloads = importlib.import_module("workloads")
        return {job.id: job for job in workloads.build("wbs-long", 0,
                                                       str(tmp_path_factory.mktemp("wbs")))}


@pytest.mark.parametrize("job_id,breaks,full_scan,rescans", [
    ("wbs-2000", (333, 666, 999, 1331, 1665), 3_389_648, 7_632),
    ("wbs-5000", (833, 1666, 2499, 3333, 4165), 8_376_767, 19_963),
    ("wbs-10000", (1666, 3333, 4998, 6664, 8331), 16_820_087, 39_962),
], ids=["wbs-2000", "wbs-5000", "wbs-10000"])
def test_wbs_long_cells_and_peak(monkeypatch, wbs_long_jobs, job_id, breaks, full_scan,
                                 rescans):
    # 5,000 intervals; cells are counted as in test_wbs_cells, over 11
    # rescans each. The scan's buffers are fixed (2 MB at most), so the
    # traced peak stays near the draw's 72 bytes per interval
    cells = []
    inner = wbs._best_per_interval

    def counting(cum, starts, ends, los, his):
        cells.append(int((his - los + 1).sum()))
        return inner(cum, starts, ends, los, his)

    monkeypatch.setattr(wbs, "_best_per_interval", counting)
    tracemalloc.start()
    try:
        seg = wbs_long_jobs[job_id].run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seg.breaks == breaks
    assert (cells[0], len(cells) - 1, sum(cells[1:])) == (full_scan, 11, rescans)
    assert peak <= 1.5 * 2**20


def test_wbs_10000_peak_in_one_process(monkeypatch, wbs_long_jobs):
    # tracemalloc sees only its own process, and with several usable CPUs
    # the full scans above run in forked ones too; kept in one process, the
    # whole scan is traced and stays under the same bound
    def fork():
        raise AssertionError("the scan forked")

    monkeypatch.setattr(wbs, "_FORK_CELLS", 1 << 62)
    monkeypatch.setattr(os, "fork", fork)
    tracemalloc.start()
    try:
        seg = wbs_long_jobs["wbs-10000"].run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seg.breaks == (1666, 3333, 4998, 6664, 8331)
    assert peak <= 1.5 * 2**20


@pytest.mark.parametrize("s,cfg,breaks,tested,rows,batches,identity", [
    (ss.read_csv(str(FIXTURES / "nile.csv")), ss.EdivConfig(min_size=15, alpha=2.0, seed=0),
     (28,), [100, 72], 398, 3, 4),
    (ss.make_step_signal([0, 3, 0, 3], [100] * 4, seed=0)[0],
     ss.EdivConfig(min_size=30, alpha=1.0, seed=0, max_breaks=3),
     (100, 200, 300), [400, 300, 200], 597, 12, 10),
], ids=["nile", "four levels"])
def test_edivisive_replicates(monkeypatch, s, cfg, breaks, tested, rows, batches, identity):
    # tested: the segment length of each permutation test; rows: replicates
    # drawn over all tests, in `batches` calls of _permutations, each scored
    # by one kernel call with perms; identity: kernel calls that scan the
    # splits of one segment (a segment too short to split is not scanned)
    drawn = []
    calls = {"identity": 0, "batch": 0}
    permutations, divergences = edivisive._permutations, edivisive._split_divergences

    def drawing(gen, n, seed, key, first, stop):
        drawn.append((n, first, stop))
        return permutations(gen, n, seed, key, first, stop)

    def scoring(values, alpha, min_size, perms=None):
        out = divergences(values, alpha, min_size, perms)
        if out is not None:
            calls["identity" if perms is None else "batch"] += 1
        return out

    def fork():
        raise AssertionError("the permutation test forked")

    # a forked child would draw and score out of these counters' sight
    monkeypatch.setattr(edivisive, "_FORK_PAIRS", 1 << 62)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(edivisive, "_permutations", drawing)
    monkeypatch.setattr(edivisive, "_split_divergences", scoring)
    assert ss.e_divisive(s, cfg).breaks == breaks
    assert [n for n, first, _ in drawn if first == 0] == tested
    assert sum(stop - first for _, first, stop in drawn) == rows
    assert (len(drawn), calls["batch"], calls["identity"]) == (batches, batches, identity)
