"""CSV ingestion and calendar plumbing for series files.

Reads FRED-style CSVs (header row, ISO-8601 DATE column, decimal
values), tolerates missing-value markers only at the ends of the span,
and infers the calendar (annual/quarterly/monthly/daily) from the date
spacing.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import operator
import warnings

import numpy as np

from .series import (
    DataError,
    DateIndex,
    ParseError,
    PeriodIndex,
    TimeSeries,
)

__all__ = ["read_csv", "write_csv", "monthly_to_quarterly"]

# Values that mark a missing observation.
_MISSING = frozenset({".", "NA", ""})


def _infer_frequency(dates: list[dt.date]) -> int | None:
    """Periods per year from the spacing, or None for daily/irregular."""
    months = [d.year * 12 + d.month for d in dates]
    steps = set(map(operator.sub, months[1:], months[:-1]))
    if len(steps) != 1 or len({d.day for d in dates}) != 1:
        return None
    return {12: 1, 3: 4, 1: 12}.get(steps.pop())


def read_csv(path: str) -> TimeSeries:
    """Parse a series file; interior gaps are an error, end gaps are trimmed.

    Dates come from the DATE column, matched in any case, and values from
    the first column other than DATE.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            header = [h.strip() for h in header]
            folded = [h.casefold() for h in header]
            if "date" not in folded:
                raise ParseError(f"{path}: no 'DATE' column in header {header}")
            date_col = folded.index("date")
            if len(header) < 2:
                raise ParseError(f"{path}: need at least two columns, got {header}")
            value_col = 1 if date_col == 0 else 0

            dates: list[dt.date] = []
            values: list[float | None] = []
            for lineno, row in enumerate(reader, start=2):
                if not any(map(str.strip, row)):
                    continue
                try:
                    dates.append(dt.date.fromisoformat(row[date_col].strip()))
                except (ValueError, IndexError) as exc:
                    raise ParseError(f"{path}:{lineno}: bad date {row!r}: {exc}") from None
                raw = row[value_col].strip() if value_col < len(row) else ""
                if raw in _MISSING:
                    values.append(None)
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):  # unparseable, nan, inf or 1e999
                    raise ParseError(f"{path}:{lineno}: bad value {raw!r}")
                values.append(value)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None

    lo = 0
    hi = len(values)
    while lo < hi and values[lo] is None:
        lo += 1
    while hi > lo and values[hi - 1] is None:
        hi -= 1
    dates, values = dates[lo:hi], values[lo:hi]
    if not values:
        raise DataError(f"{path}: no usable observations")
    if None in values:
        gaps = [d.isoformat() for d, v in zip(dates, values) if v is None]
        raise DataError(f"{path}: missing values inside the span at " + ", ".join(gaps))
    increasing = list(map(dt.date.__lt__, dates, dates[1:]))
    if False in increasing:
        at = dates[increasing.index(False) + 1]
        raise ParseError(f"{path}: dates not strictly increasing at {at.isoformat()}")

    freq = _infer_frequency(dates)
    index = DateIndex(tuple(dates)) if freq is None else PeriodIndex.containing(dates[0], freq)
    return TimeSeries(np.array(values), index, label=header[value_col])


def write_csv(s: TimeSeries, path: str) -> None:
    """Write a series as DATE,<label> rows; read_csv round-trips the result."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["DATE", s.label or "VALUE"])
        for i in range(1, s.n + 1):
            writer.writerow([s.period_date(i).isoformat(), repr(float(s.values[i - 1]))])


def monthly_to_quarterly(s: TimeSeries, how: str = "mean") -> TimeSeries:
    """Aggregate a monthly series to full quarters; partial quarters drop.

    how is "mean" (quarterly average) or "last" (end-of-quarter value).
    """
    if how not in ("mean", "last"):
        raise ValueError(f"unknown aggregation {how!r}")
    if not (isinstance(s.index, PeriodIndex) and s.index.freq == 12):
        raise DataError("quarterly aggregation needs a monthly series")
    year, month = s.index.stamp(1)
    lead = (3 - (month - 1) % 3) % 3  # months until the first full quarter
    usable = s.n - lead
    trail = usable % 3
    if usable < 3:
        raise DataError("no full quarter in the series")
    if lead or trail:
        warnings.warn(f"dropping {lead} leading and {trail} trailing months"
                      " outside full quarters", stacklevel=2)
    block = s.values[lead : lead + usable - trail].reshape(-1, 3)
    values = block.mean(axis=1) if how == "mean" else block[:, 2]
    return TimeSeries(values, PeriodIndex.containing(s.period_date(1 + lead), 4),
                      label=s.label)
