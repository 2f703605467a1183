"""Residual-based fluctuation processes and level-stability tests.

Under the hypothesis of a constant level, scaled partial sums of
recursive residuals behave like a Brownian motion and scaled partial
sums of OLS residuals like a Brownian bridge; a level shift shows up as
excessive fluctuation of these paths. This module builds the paths
(Rec-CUSUM, OLS-CUSUM and MOSUM variants), estimates the variance used
for scaling (plain or long-run), and turns path extremes into
significance statements via boundary-crossing probabilities of the
limiting processes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .series import DataError, TimeSeries, UnsupportedError

__all__ = [
    "VarianceEstimate",
    "FluctuationProcess",
    "TestResult",
    "recursive_residuals",
    "ols_residuals",
    "plain_variance",
    "long_run_variance",
    "auto_bandwidth",
    "build_process",
    "mosum_process",
    "sup_abs_test",
    "brownian_bridge_sup_pvalue",
    "brownian_bridge_sup_quantile",
    "brownian_motion_crossing_probability",
]


@dataclass(frozen=True)
class VarianceEstimate:
    """A variance used to scale a fluctuation process.

    kind "plain" is the sample variance of the OLS residuals with
    divisor T - 1; kind "long_run" is the Bartlett-kernel estimate that
    remains consistent under serial dependence. clamped flags the floor
    applied when the long-run sum lands at or below zero.
    """

    value: float
    kind: str = "plain"
    kernel: str | None = None
    bandwidth: int | None = None
    clamped: bool = False

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError(f"variance must be nonnegative, got {self.value}")


@dataclass(frozen=True, eq=False)
class FluctuationProcess:
    """A scaled partial- or moving-sum path on [0, 1].

    path[k] sits at time t = k / nobs. OLS-CUSUM paths start and end at
    exactly zero; Rec-CUSUM paths start at zero and carry nobs - 1
    increments; MOSUM paths hold moving sums of OLS residuals over a
    window of floor(bandwidth_fraction * nobs) observations.
    """

    path: np.ndarray
    kind: str
    nobs: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.path, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "path", arr)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.path.size) / self.nobs


@dataclass(frozen=True)
class TestResult:
    """Outcome of a boundary-crossing significance check.

    p_value is None exactly for MOSUM crossing checks, where only a
    user-supplied critical value is available; for the sup tests,
    crossed is equivalent to p_value < level. upper holds the boundary
    at each time of the tested path; the lower boundary is -upper.
    """

    statistic: float
    p_value: float | None
    crossed: bool
    boundary: str
    level: float
    upper: np.ndarray = field(repr=False, compare=False)


def recursive_residuals(s: TimeSeries) -> np.ndarray:
    """One-step-ahead prediction errors from the growing-sample mean.

    e_i = y_i - mean(y_1..y_{i-1}) for i = 2..T; output length T - 1.
    """
    if s.n < 2:
        raise DataError("recursive residuals require at least two observations")
    v = s.values
    grow_means = s.cumulants[0][1:-1] / np.arange(1, s.n)
    return v[1:] - grow_means


def ols_residuals(s: TimeSeries) -> np.ndarray:
    """Deviations from the grand mean; length T, sums to zero."""
    if s.n < 2:
        raise DataError("residuals require at least two observations")
    return s.values - s.values.mean()


def plain_variance(s: TimeSeries) -> VarianceEstimate:
    """Sample variance of the OLS residuals, divisor T - 1."""
    e = ols_residuals(s)
    return VarianceEstimate(value=float(e @ e / (s.n - 1)), kind="plain")


def auto_bandwidth(n: int) -> int:
    """Default Bartlett truncation lag, floor(4 * (T/100)^(2/9))."""
    return int(4.0 * (n / 100.0) ** (2.0 / 9.0))


def long_run_variance(s: TimeSeries, bandwidth: int | str = "auto") -> VarianceEstimate:
    """Bartlett-kernel long-run variance of the demeaned series.

    omega^2 = gamma_0 + 2 * sum_{j=1..l} (1 - j/(l+1)) * gamma_j, with
    gamma_j the lag-j autocovariance using divisor T. The Bartlett
    weights make the estimate nonnegative by construction; values at or
    below 1e-12 * gamma_0 are floored there and flagged via clamped.
    """
    if s.n < 4:
        raise DataError("long-run variance requires at least four observations")
    lag = auto_bandwidth(s.n) if bandwidth == "auto" else int(bandwidth)
    if not 0 <= lag <= s.n - 2:
        raise ValueError(f"bandwidth must be in [0, {s.n - 2}], got {lag}")
    x = ols_residuals(s)
    n = s.n
    gamma0 = float(x @ x / n)
    total = gamma0
    for j in range(1, lag + 1):
        gamma_j = float(x[:-j] @ x[j:] / n)
        total += 2.0 * (1.0 - j / (lag + 1.0)) * gamma_j
    clamped = total <= 1e-12 * gamma0
    if clamped:
        total = 1e-12 * gamma0
    return VarianceEstimate(value=total, kind="long_run", kernel="bartlett",
                            bandwidth=lag, clamped=clamped)


def _scaled(sums: np.ndarray, scale: VarianceEstimate, n: int) -> np.ndarray:
    """Residual sums divided by sigma * sqrt(n)."""
    sd = math.sqrt(scale.value)
    if sd == 0.0:
        # A zero scale is only meaningful when there is nothing to scale
        # (partial sums all vanish exactly when the residuals do).
        if np.any(sums != 0.0):
            raise DataError("degenerate scale: zero variance with nonzero residuals")
        return np.zeros(sums.size)
    return sums / (sd * math.sqrt(n))


def build_process(s: TimeSeries, kind: str,
                  scale: VarianceEstimate | None = None) -> FluctuationProcess:
    """Cumulative-sum fluctuation process of recursive or OLS residuals.

    path[k] = sum of the first k residuals / (sigma * sqrt(T)), with
    path[0] = 0. scale defaults to the plain variance estimate.
    """
    if kind not in ("rec_cusum", "ols_cusum"):
        raise ValueError(f"unknown process kind {kind!r}")
    if scale is None:
        scale = plain_variance(s)
    resid = recursive_residuals(s) if kind == "rec_cusum" else ols_residuals(s)
    path = _scaled(np.concatenate(([0.0], np.cumsum(resid))), scale, s.n)
    if kind == "ols_cusum":
        path[-1] = 0.0  # residuals sum to zero by construction; pin rounding
    return FluctuationProcess(path=path, kind=kind, nobs=s.n)


def mosum_process(s: TimeSeries, bandwidth_fraction: float,
                  scale: VarianceEstimate | None = None) -> FluctuationProcess:
    """Moving sums of OLS residuals over a window of floor(h * T) points."""
    if not 0.0 < bandwidth_fraction <= 1.0:
        raise ValueError(f"bandwidth fraction must be in (0, 1], got {bandwidth_fraction}")
    h = int(bandwidth_fraction * s.n)
    if h < 2:
        raise DataError(f"MOSUM window of {h} observations is too small")
    if scale is None:
        scale = plain_variance(s)
    e = ols_residuals(s)
    cum = np.concatenate(([0.0], np.cumsum(e)))
    sums = cum[h:] - cum[:-h]
    path = _scaled(sums, scale, s.n)
    return FluctuationProcess(path=path, kind="mosum", nobs=s.n)


# Smallest term of the Brownian-bridge sup series that is still added.
_TERM_TOL = 1e-12


def brownian_bridge_sup_pvalue(x: float) -> float:
    """P(sup |B0(t)| > x) by the alternating exponential series.

    Terms are added until they drop below _TERM_TOL; the result is exact
    to that tolerance and equals 1 at x <= 0. Once the first term drops
    out it is 0, so it never lies strictly between 0 and 2 * _TERM_TOL.
    """
    if x <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100000):
        term = math.exp(-2.0 * k * k * x * x)
        if term < _TERM_TOL:
            break
        total += sign * term
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


@functools.lru_cache(maxsize=64)
def _invert(pvalue, level: float) -> float:
    """The x in (0, 10) with pvalue(x) = level, by bisection; pvalue decreases."""
    lo, hi = 1e-8, 10.0
    if pvalue(hi) > level:
        raise ValueError(f"level {level} is below the smallest solvable one, {pvalue(hi):.3g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pvalue(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brownian_bridge_sup_quantile(level: float) -> float:
    """The constant c with P(sup |B0| > c) = level, by bisection."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if level < 2 * _TERM_TOL:  # the truncated p-value jumps over it
        raise ValueError(f"level {level} is below the smallest solvable one, {2 * _TERM_TOL:.3g}")
    return _invert(brownian_bridge_sup_pvalue, level)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def brownian_motion_crossing_probability(lam: float) -> float:
    """P(standard BM leaves +/- lam*(1+2t) somewhere on [0, 1]).

    Two-sided version of the classical linear-boundary crossing formula,
    2 * (1 - Phi(3 lam) + exp(-4 lam^2) Phi(lam)), clipped to [0, 1]: 1 for lam <= 0.
    """
    one_sided = 1.0 - _norm_cdf(3.0 * lam) + math.exp(-4.0 * lam * lam) * _norm_cdf(lam)
    return min(max(2.0 * one_sided, 0.0), 1.0)


def sup_abs_test(process: FluctuationProcess, level: float = 0.05,
                 critical: float | None = None) -> TestResult:
    """Significance of the largest excursion of a fluctuation process.

    * ols_cusum: statistic max|path|, p-value from the Brownian-bridge
      sup distribution, boundary a constant at the level's quantile.
    * rec_cusum: statistic is the smallest boundary multiple touched,
      max |path_k| / (1 + 2 t_k); p-value from the analytic
      linear-boundary crossing probability. The boundary constant solves
      that probability = level, rounded to three decimals as in the
      classical tables (1.143, 0.948, 0.85 at 0.01, 0.05, 0.10).
    * mosum: no p-value is available; the verdict is a crossing check of
      max|path| against a caller-supplied critical value.
    """
    if not 0.0 < level <= 0.5:
        raise ValueError(f"level must be in (0, 0.5], got {level}")
    if critical is not None and not (math.isfinite(critical) and critical > 0.0):
        raise ValueError(f"critical must be finite and positive, got {critical}")

    if process.kind == "ols_cusum":
        stat = float(np.max(np.abs(process.path)))
        p = brownian_bridge_sup_pvalue(stat)
        bound = brownian_bridge_sup_quantile(level)
        return TestResult(statistic=stat, p_value=p, crossed=p < level,
                          boundary=f"|path| = {bound:.4f} (constant, Brownian bridge sup)",
                          level=level, upper=np.full_like(process.times, bound))

    if process.kind == "rec_cusum":
        lam_level = round(_invert(brownian_motion_crossing_probability, level), 3)
        slope = 1.0 + 2.0 * process.times
        stat = float(np.max(np.abs(process.path) / slope))
        p = brownian_motion_crossing_probability(stat)
        return TestResult(statistic=stat, p_value=p, crossed=p < level,
                          boundary=f"+/- {lam_level} * (1 + 2t) (Brownian motion crossing)",
                          level=level, upper=lam_level * slope)

    if process.kind == "mosum":
        if critical is None:
            raise UnsupportedError(
                "MOSUM significance needs a caller-supplied critical value;"
                " no p-value approximation is implemented"
            )
        stat = float(np.max(np.abs(process.path)))
        return TestResult(statistic=stat, p_value=None, crossed=stat > critical,
                          boundary=f"+/- {critical} (user-supplied constant)", level=level,
                          upper=np.full_like(process.times, float(critical)))

    raise UnsupportedError(f"no test implemented for process kind {process.kind!r}")
