"""Optimal least-squares dating of multiple level shifts.

The fitted model is a step function: given m breaks, each segment gets
its sample mean and the objective is the aggregate residual sum of
squares. For a fixed m the global minimizer over all partitions with
segments of at least min_len observations is found by a Bellman
recursion over per-segment RSS values; the number of breaks is chosen
by the Bayesian Information Criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import Segmentation, TimeSeries, _span_rss, segmentation_from_breaks

__all__ = [
    "RssTriangle",
    "build_rss_triangle",
    "optimal_breaks",
    "select_breaks_bic",
    "fitted_step",
    "bic_value",
]


@dataclass(frozen=True, eq=False)
class RssTriangle:
    """A series and the minimal segment length of the partitions searched.

    rss(i, j) = sum_{k=i..j} y_k^2 - (sum y_k)^2 / (j - i + 1), clamped
    at zero against rounding, is O(1) from the series cumulants, so
    memory stays O(n).
    """

    series: TimeSeries
    min_len: int

    @property
    def n(self) -> int:
        return self.series.n


def build_rss_triangle(s: TimeSeries, min_len: int) -> RssTriangle:
    """Pair a series with the minimal segment length of its partitions."""
    if not 1 <= min_len <= s.n:
        raise ValueError(f"min_len must be in 1..{s.n}, got {min_len}")
    return RssTriangle(series=s, min_len=min_len)


def _suffix_costs(tri: RssTriangle, jmax: int) -> np.ndarray:
    """D[j, a] = minimal RSS of splitting [a..n] into j segments.

    Entries are +inf where no admissible split exists. Segment RSS
    values accumulate right to left (rss(first) + rest), which fixes the
    floating-point summation order for exact comparisons.
    """
    s, n, h = tri.series, tri.n, tri.min_len
    D = np.full((jmax + 1, n + 2), np.inf)
    last_start = n - h + 1
    D[1, 1 : last_start + 1] = _span_rss(s, np.arange(1, last_start + 1), n)
    if jmax < 2:
        return D
    # Start-outer order computes each row rss(a, a+h-1 .. n-h) once and
    # serves every layer from it. D[j-1, .] is read only at starts
    # greater than a, which are final by then.
    for a in range(n - 2 * h + 1, 0, -1):
        b_lo = a + h - 1
        row = _span_rss(s, a, np.arange(b_lo, n - h + 1))
        for j in range(2, min(jmax, (n - a + 1) // h) + 1):
            b_hi = n - (j - 1) * h
            D[j, a] = (row[: b_hi - b_lo + 1] + D[j - 1, b_lo + 1 : b_hi + 2]).min()
    return D


def _reconstruct(tri: RssTriangle, D: np.ndarray, m: int) -> list[int]:
    """Break positions for the m-break optimum, smallest lexicographic on ties."""
    s, n, h = tri.series, tri.n, tri.min_len
    breaks: list[int] = []
    a = 1
    for j in range(m + 1, 1, -1):
        b_lo = a + h - 1
        b_hi = n - (j - 1) * h
        vals = _span_rss(s, a, np.arange(b_lo, b_hi + 1)) + D[j - 1, b_lo + 1 : b_hi + 2]
        b = b_lo + int(np.argmin(vals))  # first minimum = smallest break
        breaks.append(b)
        a = b + 1
    return breaks


def optimal_breaks(tri: RssTriangle, m: int) -> Segmentation:
    """Globally RSS-minimal partition with exactly m breaks.

    Ties between partitions with equal RSS go to the lexicographically
    smallest break vector.
    """
    if m < 0:
        raise ValueError(f"number of breaks must be nonnegative, got {m}")
    if (m + 1) * tri.min_len > tri.n:
        raise ValueError(
            f"{m} breaks with min_len {tri.min_len} do not fit into {tri.n} observations"
        )
    breaks = [] if m == 0 else _reconstruct(tri, _suffix_costs(tri, m + 1), m)
    return segmentation_from_breaks(tri.series, breaks, method="dp", min_len=tri.min_len)


def bic_value(n: int, rss: float, m: int) -> float:
    """BIC of an m-break fit: n log(RSS/n) + (2m + 2) log n.

    The parameter count is m + 1 segment means, m break dates and one
    variance; additive constants are dropped since only the argmin is
    used. RSS = 0 maps to -inf so noiseless fits always win.
    """
    penalty = (2 * m + 2) * math.log(n)
    if rss <= 0.0:
        return float("-inf")
    return n * math.log(rss / n) + penalty


def select_breaks_bic(tri: RssTriangle, max_m: int) -> Segmentation:
    """Best segmentation over m = 0..max_m by BIC; ties go to smaller m.

    The returned Segmentation carries the full (m, BIC) trace.
    """
    if max_m < 0:
        raise ValueError(f"max_m must be nonnegative, got {max_m}")
    if (max_m + 1) * tri.min_len > tri.n:
        raise ValueError(
            f"max_m = {max_m} infeasible: {max_m + 1} segments of at least"
            f" {tri.min_len} observations do not fit into {tri.n}"
        )
    D = _suffix_costs(tri, max_m + 1)
    rss_by_m = D[1:, 1]  # D[m+1, 1] is the m-break optimum over the full span
    trace = [(float(m), bic_value(tri.n, float(rss_by_m[m]), m)) for m in range(max_m + 1)]
    best_m = min(range(max_m + 1), key=lambda m: (trace[m][1], m))
    breaks = [] if best_m == 0 else _reconstruct(tri, D, best_m)
    return segmentation_from_breaks(tri.series, breaks, method="dp",
                                    min_len=tri.min_len, trace=trace)


def fitted_step(s: TimeSeries, seg: Segmentation) -> TimeSeries:
    """Per-segment means replicated over each segment, for plots/reports."""
    if seg.n != s.n:
        raise ValueError(f"segmentation covers {seg.n} observations, series has {s.n}")
    out = np.empty(s.n)
    for (a, b), mean in zip(seg.bounds(), seg.segment_means):
        out[a - 1 : b] = mean
    return s.with_values(out, label=f"{s.label} (step fit)".strip())
