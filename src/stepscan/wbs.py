"""Wild binary segmentation for mean shifts.

Weighted two-sample CUSUM statistics are evaluated on many random
subintervals; the series is split recursively at the strongest
statistic until nothing exceeds a universal threshold. Randomizing the
intervals lets short spells between nearby breaks dominate some draw,
which plain binary segmentation can miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import _EPS, DataError, Segmentation, TimeSeries, _check_budget, segmentation_from_breaks

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
    mad = float(np.median(np.abs(d - np.median(d))))
    return mad / (math.sqrt(2.0) * 0.6745)


# Pairs per block of the CUSUM scan: about a dozen float arrays of this
# length are live at once, so the scan's memory stays near 6 MB whatever
# the series length or the number of intervals.
_BLOCK_PAIRS = 1 << 16
# Bytes per drawn interval: starts, ends and split ranges, plus the five
# per-interval arrays of _best_per_interval and one temporary (the draw
# itself peaks near 56).
_INTERVAL_BYTES = 72


def _best_per_interval(cum: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                       los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strongest weighted CUSUM of each interval over its candidate splits.

    cum is the series cumulative sum with a leading zero. For interval i,
    [starts[i]..ends[i]], the candidate splits b run over
    [los[i]..his[i]] (nonempty); b is the last index of the left part.
    Returns the best b (smallest on ties) and its |statistic| per
    interval. The (interval, split) pairs are laid out end to end and
    evaluated _BLOCK_PAIRS at a time; an interval cut by a block edge
    keeps its earlier part's winner unless a later one is strictly larger.
    """
    lens = his - los + 1
    stops = np.cumsum(lens)
    firsts = stops - lens
    best_b = np.zeros(starts.size, dtype=int)
    best_stat = np.full(starts.size, -np.inf)
    total = int(stops[-1]) if stops.size else 0
    for p0 in range(0, total, _BLOCK_PAIRS):
        p1 = min(p0 + _BLOCK_PAIRS, total)
        i0 = int(np.searchsorted(stops, p0, side="right"))
        i1 = int(np.searchsorted(stops, p1 - 1, side="right")) + 1
        first = np.maximum(firsts[i0:i1], p0)
        counts = np.minimum(stops[i0:i1], p1) - first
        heads = first - p0  # where each interval's pairs start in the block
        s = starts[i0:i1]
        e = ends[i0:i1]
        b = np.repeat(los[i0:i1] - firsts[i0:i1], counts) + np.arange(p0, p1)
        cum_b = cum[b]
        nl = b - np.repeat(s - 1, counts)
        nr = np.repeat(e, counts) - b
        left = cum_b - np.repeat(cum[s - 1], counts)
        right = np.repeat(cum[e], counts) - cum_b
        # mean-difference form of the weighted CUSUM; identical to the
        # two-term definition but exactly zero on constant stretches
        absx = np.abs(np.sqrt(nl * nr / np.repeat(e - s + 1, counts)) * (left / nl - right / nr))
        vmax = np.maximum.reduceat(absx, heads)
        top = np.flatnonzero(absx == np.repeat(vmax, counts))
        arg = top[np.searchsorted(top, heads)]
        better = vmax > best_stat[i0:i1]
        best_stat[i0:i1][better] = vmax[better]
        best_b[i0:i1][better] = b[arg][better]
    return best_b, best_stat


def _draw_intervals(n: int, count: int, min_len: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """count distinct intervals [s..e] with e - s + 1 >= 2*min_len, uniform;
    all of them when count reaches their number. Needs n >= 2*min_len."""
    span = 2 * min_len
    max_start = n - span + 1
    per_start = n - span + 2 - np.arange(1, max_start + 1)  # choices of e per s
    cum = np.cumsum(per_start)
    total = int(cum[-1])
    if count >= total:
        ranks = np.arange(total)
    else:
        ranks = rng.choice(total, size=count, replace=False)
    s_idx = np.searchsorted(cum, ranks, side="right")
    before = np.where(s_idx > 0, cum[s_idx - 1], 0)
    starts = s_idx + 1
    ends = starts + span - 1 + (ranks - before)
    return starts.astype(int), ends.astype(int)


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

    Each drawn interval is scanned once, over all its splits, in blocks
    of _BLOCK_PAIRS (interval, split) pairs, so memory does not grow
    with n * num_intervals. A recursion step reuses those results for
    the intervals the min_len margins of its segment leave whole, and
    rescans only the clipped intervals and the segment itself.
    """
    v = s.values
    n = s.n
    if n < 2 * cfg.min_len:
        raise DataError(f"need at least {2 * cfg.min_len} observations, got {n}")
    span_starts = n - 2 * cfg.min_len + 1
    total = span_starts * (span_starts + 1) // 2
    count = min(cfg.num_intervals, total)
    # numpy's choice without replacement shuffles all `total` ranks
    # (8 bytes each) once it draws more than total / 50 of them
    planned = _INTERVAL_BYTES * count + (8 * total if count > total // 50 else 0)
    _check_budget(planned, "wild binary segmentation",
                  f"working set for {count:,} intervals over {n} observations",
                  "lower --intervals")
    rng = np.random.default_rng(cfg.seed)
    starts, ends = _draw_intervals(n, count, cfg.min_len, rng)
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
        cached = inside & (starts >= cand_lo) & (ends <= cand_hi + 1)
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
