"""Core value types and elementwise transforms for univariate time series.

Everything here is immutable after construction and purely functional:
transforms return new :class:`TimeSeries` objects and never mutate inputs,
so all types are safe to share across threads.

Conventions used throughout the package:

* positions within a series are 1-based (position ``i`` is ``y_i``),
* a break index is the LAST position of the earlier segment, so a
  segmentation with breaks ``(b1, ..., bm)`` has segments
  ``[1..b1], [b1+1..b2], ..., [bm+1..T]``.
"""

from __future__ import annotations

import datetime as dt
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence, Union

import numpy as np

__all__ = [
    "DataError",
    "AlignmentError",
    "ParseError",
    "UnsupportedError",
    "PeriodIndex",
    "DateIndex",
    "TimeSeries",
    "Segmentation",
    "segmentation_from_breaks",
    "log_transform",
    "deflate",
    "returns",
    "fit_ar1",
]


class DataError(Exception):
    """The data cannot support the requested operation (CLI exit code 1)."""


class AlignmentError(DataError):
    """Two series do not line up period-for-period."""


class ParseError(DataError):
    """A file could not be parsed into a series."""


class UnsupportedError(Exception):
    """Explicitly unsupported option combination, never a silent fallback."""


# Largest working set a dating method plans to allocate (1 GiB).
_BUDGET_BYTES = 1 << 30


def _check_budget(planned: int, owner: str, what: str, fix: str) -> None:
    """Raise DataError, before anything is allocated, when planned bytes exceed the budget."""
    if planned > _BUDGET_BYTES:
        raise DataError(f"{owner} would need a {planned:,}-byte {what}, over its"
                        f" {_BUDGET_BYTES:,}-byte budget; {fix}")


def _fork_shares(share: Callable[[int, int, Any], None], work: int, per_process: int,
                 nbytes: Callable[[int], int], what: str) -> Any:
    """Run share(p, k, buf) for p in range(k); return buf, nbytes(k) writable bytes.

    k = min(usable CPUs, work // per_process), at least 1, on Linux with
    no other Python thread (a fork copies only the calling thread); else 1.
    Shares 1..k-1 run in forked children over a shared anonymous mapping,
    or in the parent if a fork fails. A failing parent kills its children,
    every child is reaped, and a failed child raises ChildProcessError.
    """
    procs = 1
    if sys.platform == "linux" and hasattr(os, "fork") and threading.active_count() == 1:
        procs = max(1, min(len(os.sched_getaffinity(0)), work // per_process))
    if procs > 1:
        import mmap  # here, so that a call that never splits does not load it
        buf = mmap.mmap(-1, nbytes(procs))
    else:
        buf = bytearray(nbytes(1))
    pids: list[int] = []
    try:
        for p in range(1, procs):
            try:
                pid = os.fork()
            except OSError:  # the parent runs the shares left over
                break
            if pid == 0:  # never return into the caller's code
                code = 1
                try:
                    share(p, procs, buf)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        for p in (0, *range(len(pids) + 1, procs)):
            share(p, procs, buf)
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids)
    if failed:
        raise ChildProcessError(f"{failed} of {len(pids)} {what} processes failed")
    return buf


_VALID_FREQS = (1, 4, 12)


@dataclass(frozen=True)
class PeriodIndex:
    """Regular calendar index with ``freq`` evenly spaced periods per year.

    Position ``i`` (1-based) maps to the period ``(start_year, start_sub)``
    advanced by ``i - 1`` steps; all date arithmetic is exact integer
    arithmetic on the absolute period number ``year * freq + (sub - 1)``.

    freq is periods per year: 1 annual, 4 quarterly, 12 monthly. Daily
    data uses :class:`DateIndex` with explicit dates instead.
    """

    start_year: int
    start_sub: int = 1
    freq: int = 1

    def __post_init__(self) -> None:
        if self.freq not in _VALID_FREQS:
            raise ValueError(f"frequency must be one of {_VALID_FREQS}, got {self.freq}")
        if not 1 <= self.start_sub <= self.freq:
            raise ValueError(f"start_sub must be in 1..{self.freq}, got {self.start_sub}")

    def _abs(self) -> int:
        return self.start_year * self.freq + (self.start_sub - 1)

    def stamp(self, i: int) -> tuple[int, int]:
        """(year, sub-period) of 1-based position ``i``."""
        year, sub0 = divmod(self._abs() + (i - 1), self.freq)
        return year, sub0 + 1

    def position(self, year: int, sub: int = 1) -> int:
        """1-based position of the period (year, sub); may fall outside the series."""
        return (year * self.freq + (sub - 1)) - self._abs() + 1

    def shifted(self, k: int) -> "PeriodIndex":
        """Index starting ``k`` periods later."""
        year, sub = self.stamp(1 + k)
        return PeriodIndex(year, sub, self.freq)

    def label(self, i: int) -> str:
        year, sub = self.stamp(i)
        if self.freq == 1:
            return str(year)
        if self.freq == 4:
            return f"{year}Q{sub}"
        return f"{year}-{sub:02d}"

    @classmethod
    def containing(cls, date: dt.date, freq: int) -> "PeriodIndex":
        """Index starting at the period that holds ``date``; a period spans 12 // freq months."""
        return cls(date.year, (date.month - 1) // (12 // freq) + 1, freq)

    def date(self, i: int) -> dt.date:
        """First calendar day of the period at position ``i``."""
        year, sub = self.stamp(i)
        return dt.date(year, (sub - 1) * (12 // self.freq) + 1, 1)


@dataclass(frozen=True)
class DateIndex:
    """Explicit, strictly increasing calendar dates (daily/irregular data)."""

    dates: tuple[dt.date, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise DataError(f"dates must be strictly increasing, got {a} before {b}")

    def shifted(self, k: int) -> "DateIndex":
        return DateIndex(self.dates[k:])

    def label(self, i: int) -> str:
        return self.dates[i - 1].isoformat()

    def date(self, i: int) -> dt.date:
        return self.dates[i - 1]


Index = Union[PeriodIndex, DateIndex]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered finite real observations with a time index.

    values must be finite (no missing values inside the span), small
    enough that 4 n sum(y^2) is finite, and length at least 1; a
    :class:`DateIndex` must carry one stamp per value.
    """

    values: np.ndarray
    index: Index
    label: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DataError(f"series values must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise DataError("series must contain at least one observation")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise DataError(f"non-finite value at position {bad[0] + 1}")
        # 4 n sum(y^2) bounds every cumulant product, squared CUSUM and
        # pairwise-distance total the analyses form.
        with np.errstate(over="ignore"):
            scale = 4.0 * arr.size * float(arr @ arr)
        if not math.isfinite(scale):
            raise DataError(
                f"values too large to analyse: the sum of squares of {arr.size} values"
                f" (largest magnitude {np.abs(arr).max():g}) overflows"
            )
        if isinstance(self.index, DateIndex) and len(self.index.dates) != arr.size:
            raise DataError(
                f"index has {len(self.index.dates)} stamps for {arr.size} values"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @cached_property
    def cumulants(self) -> tuple[np.ndarray, np.ndarray]:
        """(cum, cumsq): prefix sums of y and y^2 with a leading zero.

        Built once and shared by every caller, hence read-only.
        """
        v = self.values
        cum = np.concatenate(([0.0], np.cumsum(v)))
        cumsq = np.concatenate(([0.0], np.cumsum(v * v)))
        cum.flags.writeable = False
        cumsq.flags.writeable = False
        return cum, cumsq

    def period_label(self, i: int) -> str:
        """Human-readable stamp of 1-based position ``i``."""
        return self.index.label(i)

    def period_date(self, i: int) -> dt.date:
        return self.index.date(i)

    def with_values(self, values: np.ndarray, drop_first: int = 0,
                    label: str | None = None) -> "TimeSeries":
        """Same calendar (optionally advanced) with new values."""
        return TimeSeries(values, self.index.shifted(drop_first),
                          self.label if label is None else label)


def log_transform(s: TimeSeries) -> TimeSeries:
    """Elementwise natural log; requires strictly positive values."""
    bad = np.flatnonzero(s.values <= 0.0)
    if bad.size:
        i = int(bad[0]) + 1
        raise DataError(
            f"log requires positive values; got {s.values[bad[0]]} at position {i}"
            f" ({s.period_label(i)})"
        )
    return s.with_values(np.log(s.values), label=f"log({s.label})" if s.label else "log")


def deflate(nominal: TimeSeries, deflator: TimeSeries,
            base: int | None = None) -> TimeSeries:
    """Divide a nominal series by a price deflator, rescaled to a base period.

    Both series must share a regular calendar (same frequency) and the
    deflator must cover the nominal span period-for-period; the deflator
    may be longer. The deflator is rescaled so its value at ``base``
    equals 1: ``base`` is a year (the mean over that year's periods,
    e.g. ``base=2009`` for an index with base year 2009), or None for the
    first aligned period.
    """
    if not (isinstance(nominal.index, PeriodIndex) and isinstance(deflator.index, PeriodIndex)):
        raise AlignmentError("deflation requires regular calendar indexes on both series")
    if nominal.index.freq != deflator.index.freq:
        raise AlignmentError(
            f"frequency mismatch: nominal has {nominal.index.freq} periods/year,"
            f" deflator has {deflator.index.freq}"
        )
    off = deflator.index.position(*nominal.index.stamp(1))
    missing = [nominal.period_label(i) for i in range(1, nominal.n + 1)
               if not 1 <= off + i - 1 <= deflator.n]
    if missing:
        raise AlignmentError("deflator is missing periods: " + ", ".join(missing))
    aligned = deflator.values[off - 1 : off - 1 + nominal.n]

    if base is None:
        base_value = float(aligned[0])
    else:
        freq = deflator.index.freq
        positions = [deflator.index.position(int(base), q) for q in range(1, freq + 1)]
        if not all(1 <= p <= deflator.n for p in positions):
            raise AlignmentError(f"base year {base} not fully covered by the deflator")
        base_value = float(np.mean([deflator.values[p - 1] for p in positions]))

    if np.any(aligned <= 0.0) or base_value <= 0.0:
        raise DataError("deflator values must be strictly positive")
    out = nominal.values / (aligned / base_value)
    return nominal.with_values(out, label=f"{nominal.label} (real)" if nominal.label else "real")


def returns(s: TimeSeries, kind: str = "log_return") -> TimeSeries:
    """Log returns r_i = log(y_i) - log(y_{i-1}); output length T - 1.

    kind "abs_log_return" takes absolute values (volatility proxy).
    """
    if kind not in ("log_return", "abs_log_return"):
        raise ValueError(f"unknown returns kind {kind!r}")
    if s.n < 2:
        raise DataError("returns require at least two observations")
    logs = log_transform(s).values
    r = np.diff(logs)
    if kind == "abs_log_return":
        r = np.abs(r)
    tag = "abs log returns" if kind == "abs_log_return" else "log returns"
    return s.with_values(r, drop_first=1, label=f"{s.label} {tag}".strip())


def fit_ar1(s: TimeSeries) -> tuple[float, float]:
    """Least-squares fit of y_i on (1, y_{i-1}); returns (intercept, rho)."""
    if s.n < 3:
        raise DataError("AR(1) fit requires at least three observations")
    x = s.values[:-1]
    y = s.values[1:]
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0.0:
        raise DataError("degenerate AR(1) fit: lagged values have zero variance")
    rho = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - rho * xbar)
    return intercept, rho


@dataclass(frozen=True, eq=False)
class Segmentation:
    """A partition of 1..n into contiguous regimes with per-regime means.

    breaks are 1-based, each the last index of its segment; by convention
    the partition is bounded by 0 and n. segment_means has one entry per
    segment (num_breaks + 1 of them) and rss_total is the aggregate
    within-segment sum of squares.

    criterion_trace carries method-specific diagnostics as (key, value)
    pairs: (m, BIC) for the dynamic-programming search, (break, statistic)
    for wild binary segmentation, (break, p-value) for the divisive
    energy method.
    """

    n: int
    breaks: tuple[int, ...]
    segment_means: tuple[float, ...]
    rss_total: float
    min_len: int
    criterion_trace: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        bs = tuple(int(b) for b in self.breaks)
        object.__setattr__(self, "breaks", bs)
        edges = (0,) + bs + (self.n,)
        for a, b in zip(edges, edges[1:]):
            if not a < b:
                raise ValueError(f"breaks must be strictly increasing inside 1..{self.n - 1}")
            if b - a < self.min_len:
                raise ValueError(
                    f"segment ({a}, {b}] shorter than the configured minimum {self.min_len}"
                )
        if len(self.segment_means) != len(bs) + 1:
            raise ValueError("need exactly one mean per segment")

    @property
    def num_breaks(self) -> int:
        return len(self.breaks)


_EPS = float(np.finfo(float).eps)


def _span_rss(s: TimeSeries, i, j):
    """RSS of the spans [i..j] (1-based, inclusive), broadcast over i and j.

    The cumulant difference leaves O(len * eps * qsum) of noise on
    segments with no variation; anything below that scale is zero. The
    arithmetic runs in place in three arrays of the output's shape (0-d
    for scalar i and j).
    """
    cum, cumsq = s.cumulants
    raw = np.asarray(cum[j] - cum[i - 1])  # the span sum, then its RSS
    qsum = cumsq[j] - cumsq[i - 1]
    lens = np.subtract(j + 1, i, dtype=float)
    raw *= raw
    raw /= lens
    np.subtract(qsum, raw, out=raw)
    lens *= 16.0 * _EPS  # the snap bound 16 eps len qsum
    lens *= qsum
    raw[raw <= lens] = 0.0
    return raw


def segmentation_from_breaks(s: TimeSeries, breaks: Sequence[int], min_len: int,
                             trace: Sequence[tuple[float, float]] = ()) -> Segmentation:
    """Build a Segmentation with means and RSS from the series cumulants.

    Segment RSS values accumulate right to left as in the dynamic
    program, so repeated calls are bit-identical.
    """
    cum = s.cumulants[0]
    bs = tuple(int(b) for b in sorted(breaks))
    edges = np.array((0,) + bs + (s.n,))
    lens = np.diff(edges)
    rss = 0.0
    for seg_rss in _span_rss(s, edges[:-1] + 1, edges[1:])[::-1]:
        rss = seg_rss + rss
    return Segmentation(
        n=s.n,
        breaks=bs,
        segment_means=tuple(float(m) for m in (cum[edges[1:]] - cum[edges[:-1]]) / lens),
        rss_total=float(rss),
        min_len=min_len,
        criterion_trace=tuple((float(a), float(b)) for a, b in trace),
    )
