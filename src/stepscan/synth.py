"""Synthetic piecewise-constant benchmark signals."""

from __future__ import annotations

import datetime as dt
import math
from typing import Sequence

import numpy as np

from .series import DateIndex, TimeSeries

__all__ = ["make_step_signal"]

_START = dt.date(2000, 1, 1)
_MOST_DAYS = (dt.date.max - _START).days + 1


def _ar1_noise(n: int, rho: float, sigma: float, rng: np.random.Generator) -> np.ndarray:
    innov = rng.standard_normal(n) * sigma
    e = np.empty(n)
    # Stationary start so the marginal variance is constant from i = 0.
    e[0] = innov[0] / np.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        e[i] = rho * e[i - 1] + innov[i]
    return e


def make_step_signal(means: Sequence[float], lengths: Sequence[int],
                     noise: str = "gaussian", sigma: float = 1.0, rho: float = 0.5,
                     seed: int = 0) -> tuple[TimeSeries, tuple[int, ...]]:
    """Step signal plus noise, with its true break positions.

    means and lengths must pair up; noise is "gaussian" (i.i.d.) or
    "ar1" (innovation scale sigma, autoregression rho). The series gets
    consecutive daily dates from 2000-01-01, at most 2,921,940 of them.
    Returns (series, breaks) where breaks follow the last-index-of-segment
    convention.
    """
    if len(means) != len(lengths):
        raise ValueError(f"{len(means)} means for {len(lengths)} lengths")
    if not lengths or any(l < 1 for l in lengths):
        raise ValueError("segment lengths must be positive")
    n = int(sum(lengths))
    if n > _MOST_DAYS:
        raise ValueError(f"at most {_MOST_DAYS:,} observations fit the daily dates from"
                         f" {_START} to {dt.date.max}, got {n:,}")
    if not math.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    bad = [i for i, m in enumerate(means, 1) if not math.isfinite(m)]
    if bad:
        raise ValueError(f"means must be finite, got {means[bad[0] - 1]} at position {bad[0]}")
    if noise not in ("gaussian", "ar1"):
        raise ValueError(f"unknown noise kind {noise!r}")
    if noise == "ar1" and not -1.0 < rho < 1.0:
        raise ValueError(f"ar1 noise needs |rho| < 1, got {rho}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")

    signal = np.repeat(np.asarray(means, dtype=float), np.asarray(lengths, dtype=int))
    rng = np.random.default_rng(seed)
    if sigma == 0.0:
        e = np.zeros(n)
    elif noise == "gaussian":
        e = rng.standard_normal(n) * sigma
    else:
        e = _ar1_noise(n, rho, sigma, rng)
    first = _START.toordinal()
    dates = tuple(map(dt.date.fromordinal, range(first, first + n)))
    series = TimeSeries(signal + e, DateIndex(dates), label="synthetic")
    breaks = tuple(np.cumsum(lengths)[:-1].astype(int).tolist())
    return series, breaks
