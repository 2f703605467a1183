"""Wild binary segmentation for mean shifts.

Weighted two-sample CUSUM statistics are evaluated on many random
subintervals; the series is split recursively at the strongest
statistic until nothing exceeds a universal threshold. Randomizing the
intervals lets short spells between nearby breaks dominate some draw,
which plain binary segmentation can miss.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .series import (_EPS, DataError, Segmentation, TimeSeries, _check_budget, _fork_shares,
                     _leave_if_orphaned, _processes, segmentation_from_breaks)

__all__ = ["WbsConfig", "wbs_segment", "mad_scale"]


@dataclass(frozen=True, kw_only=True)
class WbsConfig:
    """Tuning knobs for wild binary segmentation.

    threshold_constant scales the universal threshold
    C * sigma * sqrt(2 log T); max_breaks keeps only the strongest
    breaks when set. All randomness flows from seed. Fields are
    keyword-only, in the key order of the CLI report's config block.
    """

    num_intervals: int = 5000
    threshold_constant: float = 1.3
    max_breaks: int | None = None
    min_len: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_intervals < 0:
            raise ValueError("num_intervals must be nonnegative")
        if not (math.isfinite(self.threshold_constant) and self.threshold_constant > 0.0):
            raise ValueError(
                f"threshold_constant must be finite and positive, got {self.threshold_constant}")
        if self.min_len < 2:
            raise ValueError("min_len must be at least 2")
        if self.max_breaks is not None and self.max_breaks < 0:
            raise ValueError(f"max_breaks must be nonnegative, got {self.max_breaks}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def mad_scale(values: np.ndarray) -> float:
    """Noise-level estimate: MAD of first differences / (sqrt(2) * 0.6745).

    Differencing removes the piecewise-constant signal except at the
    breaks, which the median absorbs.
    """
    d = np.diff(np.asarray(values, dtype=float))
    if d.size == 0:
        return 0.0
    mad = float(_median(np.abs(d - _median(d))))
    return mad / (math.sqrt(2.0) * 0.6745)


def _median(x: np.ndarray) -> np.float64:
    """np.median of nonempty x, bit for bit, without its numpy.ma import."""
    p = np.partition(x, (x.size // 2 - 1, x.size // 2, -1))
    mid = p[(x.size - 1) // 2:x.size // 2 + 1]  # np.mean of it sums from +0.0
    return p[-1] if np.isnan(p[-1]) else np.add.reduce(mid) / mid.size


# Cells per block of the CUSUM scan, rows x width: its four float work
# arrays (128 KB each) and padding mask stay in a 2 MB L2 cache whatever
# the series length or the number of intervals.
_BLOCK_CELLS = 1 << 14
# Intervals per run of the CUSUM scan: a run's row constants (six floats
# each) are computed at once into one 12 KB buffer; no block crosses a run.
_RUN_ROWS = 256
# Bytes per drawn interval: starts, ends and the split-range ends of the
# full scan (24), its widths, best b and best statistic (24) and one
# temporary; the scan's own buffers are fixed. tracemalloc sees about 59
# at 200,000 intervals over n = 6000, the draw's decode near 49, its sort 41.
_INTERVAL_BYTES = 72
# Ufunc buffer during the scan (numpy's default is 8192 elements): numpy
# reads a per-row column in place only when a row is at least this long.
_UFUNC_BUFFER = 1024
# Cells per process of a split scan; a fork and reap cost as much as 0.3 M cells.
_FORK_CELLS = 1 << 21


def _best_per_interval(cum: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                       los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strongest weighted CUSUM of each interval over its candidate splits.

    cum is the series cumulative sum with a leading zero. For interval i,
    [starts[i]..ends[i]], the candidate splits b run over
    [los[i]..his[i]] (nonempty); b is the last index of the left part.
    Returns the best b (smallest on ties) and its |statistic| per
    interval. Runs of _RUN_ROWS intervals get their row constants at once
    and split into 2-D blocks of at most _BLOCK_CELLS cells, rows x the
    running-max width, read and written as slices: correct in any order,
    fastest sorted by split-range width. A narrower row repeats its last
    split in the padding past the block's narrowest row, which never wins
    the first maximum. A row wider than a block is scanned in column
    chunks, a later chunk winning only if strictly larger. On Linux with
    no other Python thread, a scan of k * _FORK_CELLS cells or more runs
    in k forked processes (at most one per usable CPU; see _fork_shares);
    process p scans runs p, p + k, ... into shared pages, so every row
    holds the same bits as in one process.
    """
    widths = his - los + 1
    widest = int(widths.max(initial=0))
    cells = min(_BLOCK_CELLS, widest * widths.size)  # no block is larger
    width = min(cells, widest)  # nor wider
    cols = np.arange(width, dtype=float)
    # row b of win is cum[b], cum[b + 1], ...; past cum[n] it reads zeros
    win = np.lib.stride_tricks.sliding_window_view(np.append(cum, np.zeros(width)), width)
    bufs = [np.empty(cells, dtype=t) for t in (bool, float, float, float)]
    consts = np.empty((6, _RUN_ROWS))
    ticks = np.arange(_RUN_ROWS + 1)

    def results(buf) -> tuple[np.ndarray, np.ndarray]:  # best b and best statistic
        return (np.ndarray(starts.size, int, buf),
                np.ndarray(starts.size, float, buf, 8 * starts.size))

    parent = os.getpid()

    def scan(share: int, procs: int, buf) -> None:  # runs share, share + procs, ...
        best_b, best_stat = results(buf)
        for r0 in range(share * _RUN_ROWS, widths.size, procs * _RUN_ROWS):
            _leave_if_orphaned(share, parent)
            run = slice(r0, r0 + _RUN_ROWS)
            ix = np.array([los[run], ends[run], his[run], starts[run] - 1])
            m = ix.shape[1]
            # left length at lo, span, left length at hi (floats, exact
            # below 2**53), then cum at e, hi and s - 1
            np.subtract(ix[:3], ix[3], out=consts[:3, :m], dtype=float)
            cum.take(ix[1:], out=consts[3:, :m])
            # rows a..t fit in one block when (t - a + 1) * reach[t] <=
            # _BLOCK_CELLS, that is when lowest[t] <= a; lowest rises strictly
            reach = np.maximum.accumulate(widths[run])
            lowest = ticks[1 : m + 1] - _BLOCK_CELLS // reach
            narrowest = np.minimum.accumulate(widths[run][::-1])[::-1]  # from row a on
            a = 0
            while a < m:
                # a row wider than a block alone, at its own width so that
                # its chunks stay inside its split range
                b = max(a + 1, int(lowest.searchsorted(a, "right")))
                rows, i, j = b - a, r0 + a, r0 + b
                w = int(widths[i] if rows == 1 else reach[b - 1])
                lo = los[i:j]
                fi, sp, tp, ce, ch, cs = consts[:, a:b, None]
                for c0 in range(0, w, _BLOCK_CELLS):
                    k = min(_BLOCK_CELLS, w - c0)
                    pad, nl, nr, x = (buf[: rows * k].reshape(rows, k) for buf in bufs)
                    y = win[lo + c0 if c0 else lo, :k]  # cum at b = lo + c0, lo + c0 + 1, ...
                    np.add(fi + c0 if c0 else fi, cols[:k], out=nl)
                    # the padding past hi repeats the split at hi; no row
                    # pads before column p
                    p = max(0, int(narrowest[a]) - c0)
                    if p < k:
                        np.greater(nl[:, p:], tp, out=pad[:, p:])
                        np.copyto(y[:, p:], ch, where=pad[:, p:])
                        np.minimum(nl[:, p:], tp, out=nl[:, p:])
                    np.subtract(sp, nl, out=nr)
                    # mean-difference form of the weighted CUSUM; identical to the
                    # two-term definition but exactly zero on constant stretches
                    np.subtract(y, cs, out=x)
                    np.divide(x, nl, out=x)
                    np.subtract(ce, y, out=y)
                    np.divide(y, nr, out=y)
                    np.subtract(x, y, out=x)
                    np.multiply(nl, nr, out=nl)
                    np.divide(nl, sp, out=y)
                    np.sqrt(y, out=y)
                    np.multiply(y, x, out=x)
                    np.abs(x, out=x)
                    arg = x.argmax(axis=1)
                    stat = x[ticks[:rows], arg]
                    if c0 == 0:
                        best_stat[i:j] = stat
                        np.add(lo, arg, out=best_b[i:j])
                    else:
                        better = stat > best_stat[i:j]
                        np.copyto(best_stat[i:j], stat, where=better)
                        np.copyto(best_b[i:j], lo + c0 + arg, where=better)
                a = b
    bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:  # each row is written by one process
        buf = _fork_shares(scan, _processes(int(widths.sum()), _FORK_CELLS),
                           lambda k: 16 * starts.size, "WBS scan")
    finally:
        np.setbufsize(bufsize)
    return results(buf)


def _draw_intervals(n: int, count: int, min_len: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """count distinct intervals [s..e] with e - s + 1 >= 2*min_len, uniform (all of
    them when count reaches their number), in scan order: by width, then by start.
    Needs n >= 2*min_len; checks their working set against the budget before drawing."""
    span = 2 * min_len
    max_start = n - span + 1
    per_start = n - span + 2 - np.arange(1, max_start + 1)  # choices of e per s
    cum = np.cumsum(per_start)
    total = int(cum[-1])
    count = min(count, total)
    # numpy's choice without replacement shuffles all `total` ranks
    # (8 bytes each) once it draws more than total / 50 of them
    planned = _INTERVAL_BYTES * count + (8 * total if count > total // 50 else 0)
    _check_budget(planned, "wild binary segmentation",
                  f"working set for {count:,} intervals over {n} observations",
                  "lower --intervals")
    ranks = rng.choice(total, size=count, replace=False)
    ranks.sort()  # sorted ranks decode faster
    s_idx = np.searchsorted(cum, ranks, side="right")
    before = np.where(s_idx > 0, cum[s_idx - 1], 0)
    starts = s_idx + 1
    ends = starts + span - 1 + (ranks - before)
    del ranks, s_idx, before  # 24 bytes per interval the sort need not hold
    # width-sorted intervals scan fastest; the recursion's pick (largest
    # statistic, then smallest b) does not depend on their order
    order = np.argsort(ends - starts, kind="stable")
    return starts[order], ends[order]


def wbs_segment(s: TimeSeries, cfg: WbsConfig = WbsConfig()) -> Segmentation:
    """Segment a series by wild binary segmentation.

    Draws cfg.num_intervals random subintervals once, then recursively
    splits at the strongest CUSUM statistic among the drawn intervals
    inside the current segment (the segment itself is always a
    candidate, so num_intervals = 0 degenerates to plain binary
    segmentation). Splitting stops when the best statistic falls at or
    below C * sigma * sqrt(2 log T). Breaks keep min_len distance from
    the edges of the segment being split; with max_breaks set, only the
    strongest breaks survive.

    Each drawn interval is scanned once, over all its splits, in
    width-sorted blocks of _BLOCK_CELLS (interval, split) cells, so
    memory does not grow with n * num_intervals. A recursion step
    reuses those results for the intervals inside its segment whose best
    split lies within the segment's min_len margins, and rescans only the
    intervals whose best split the margins exclude, plus the segment
    itself. A full scan of at least 2 * _FORK_CELLS cells splits its
    runs of intervals across the usable CPUs in forked processes.
    """
    v = s.values
    n = s.n
    if n < 2 * cfg.min_len:
        raise DataError(f"need at least {2 * cfg.min_len} observations, got {n}")
    starts, ends = _draw_intervals(n, cfg.num_intervals, cfg.min_len,
                                   np.random.default_rng(cfg.seed))
    sigma = mad_scale(v)
    threshold = cfg.threshold_constant * sigma * math.sqrt(2.0 * math.log(n))
    # Cumulative-sum rounding leaves O(n^1.5 * eps * |y|) of noise in the
    # statistic on constant stretches; never split on that.
    stat_floor = 4.0 * _EPS * n ** 1.5 * float(np.max(np.abs(v)))
    threshold = max(threshold, stat_floor)
    cum = s.cumulants[0]

    # each drawn interval's best split over its whole range [s..e-1]
    full_b, full_stat = _best_per_interval(cum, starts, ends, starts, ends - 1)
    found: list[tuple[int, float]] = []
    stack: list[tuple[int, int]] = [(1, n)]
    while stack:
        lo, hi = stack.pop()
        cand_lo = lo + cfg.min_len - 1
        cand_hi = hi - cfg.min_len
        if cand_lo > cand_hi:
            continue
        inside = (starts >= lo) & (ends <= hi)
        # over a split range that holds the full scan's first maximum,
        # that maximum is the first maximum; each cell is the same float
        # expression in either scan
        cached = inside & (full_b >= cand_lo) & (full_b <= cand_hi)
        clipped = inside & ~cached
        # the segment itself is always a candidate; an interval of length
        # >= 2 * min_len inside [lo, hi] keeps a nonempty clipped range
        seg_s = np.append(starts[clipped], lo)
        seg_e = np.append(ends[clipped], hi)
        bs, stats = _best_per_interval(cum, seg_s, seg_e, np.maximum(seg_s, cand_lo),
                                       np.minimum(seg_e - 1, cand_hi))
        bs = np.concatenate((full_b[cached], bs))
        stats = np.concatenate((full_stat[cached], stats))
        # largest statistic; ties go to the smallest b
        stat = float(stats.max())
        b = int(bs[stats == stat].min())
        if stat > threshold:
            found.append((b, stat))
            stack.append((b + 1, hi))
            stack.append((lo, b))

    if cfg.max_breaks is not None and len(found) > cfg.max_breaks:
        found.sort(key=lambda t: (-t[1], t[0]))
        found = found[: cfg.max_breaks]
    found.sort()
    return segmentation_from_breaks(s, [b for b, _ in found], min_len=cfg.min_len, trace=found)
