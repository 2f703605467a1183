"""Metric names, units and reductions; imports nothing from stepscan.

The runner uses this module before any worker starts, so it must load in
a directory that holds only the benchmark.
"""

from __future__ import annotations

import math
import statistics

WORKLOADS = ("cli-fixtures", "dp-long", "wbs-long", "ediv-energy")

WHY = {
    "cli-fixtures": "11 README/paper CLI commands on the Nile and oil fixtures; per-call "
                    "overhead dominates; the no-change control for long-series kernels",
    "dp-long": "RSS triangle + BIC dynamic program at n=2000/4000/8000, straddling the "
               "materialized-table limit so both RSS storage paths run",
    "wbs-long": "wild binary segmentation, 5000 intervals at n=2000/5000/10000; the "
                "all-pairs CUSUM scan dominates time and peak memory",
    "ediv-energy": "e-divisive at alpha=1, R=199, n=400 and 600; the O(n^2) permutation "
                   "replicates dominate",
}

# Seed whose outputs are pinned by reference.json.
DEFAULT_SEED = 0

# Peak resident memory of one worker, measured on numpy 2.4 / Python 3.11
# plus a margin; the runner refuses to start a workload that would not fit.
EXPECTED_PEAK_BYTES = {
    "cli-fixtures": 300 << 20,
    "dp-long": 600 << 20,
    "wbs-long": 2100 << 20,
    "ediv-energy": 300 << 20,
}

# Fresh processes timed per run for setup_s: half before and half after the
# timed worker, which is one of them, so one burst of host load moves the
# median less.
SETUP_SAMPLES = 5

# Typical seconds of one hostspeed.ReferenceKernel run on the 2-core Xeon
# host where the benchmark was defined (numpy 2.4, Python 3.11). It only
# sets the scale of the gated times: each is reported as the seconds it
# would take on a host where the kernel's median time in the same run is
# this, so a phase in which the host runs everything a third slower moves
# the kernel and the work together, and the reported time much less.
REFERENCE_KERNEL_S = 0.060

# The end-to-end metrics in BENCHMARK.json, each gated by a bound.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, not gated. On the long workloads a run holds 5-25
# jobs of two or three sizes, so the per-job median is the median of a few
# mid-size jobs; on a 2-core shared host its run-to-run spread reached the
# largest allowed bound (IQR/median 0.245 on dp-long over ten seeds), while
# the median per pass stayed near 0.1 (both as measured, not rescaled).
JOB_UNITS = {
    "job_s_p50": "s",
    "job_s_tail": "s",
}

# Per-layer time metric -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "seriesio.read_s": ("seriesio.read_csv",),
    "seriesio.quarterly_s": ("seriesio.monthly_to_quarterly",),
    "series.transform_s": ("series.log_transform", "series.deflate", "series.returns"),
    "fluctuation.variance_s": ("fluctuation.plain_variance", "fluctuation.long_run_variance"),
    "fluctuation.process_s": ("fluctuation.build_process", "fluctuation.mosum_process"),
    "fluctuation.test_s": ("fluctuation.sup_abs_test",),
    "dating.triangle_s": ("dating.build_rss_triangle",),
    "dating.select_s": ("dating.select_breaks_bic",),
    "wbs.segment_s": ("wbs.wbs_segment",),
    "edivisive.segment_s": ("edivisive.e_divisive",),
    "edivisive.best_split_s": ("edivisive.best_split",),
    "edivisive.permtest_s": ("edivisive.permutation_test",),
    "series.segmentation_s": ("series.segmentation_from_breaks",),
}

# Per-layer memory metric -> span names whose tracemalloc peak it takes.
PEAK_METRICS = {
    "dating.peak_mb": ("dating.build_rss_triangle", "dating.select_breaks_bic"),
    "wbs.peak_mb": ("wbs.wbs_segment",),
    "edivisive.peak_mb": ("edivisive.e_divisive",),
}

# Work counters per pass; all are computed from call inputs and outputs.
COUNT_METRICS = {
    "cli.emit_bytes": "B",
    "seriesio.rows_read": "count",
    "dating.table_bytes": "B",
    "dating.cells": "count",
    "wbs.intervals": "count",
    "wbs.breaks": "count",
    "edivisive.tests": "count",
    "edivisive.permutations": "count",
}

LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME_METRICS},
    **{m: "MB" for m in PEAK_METRICS},
    **COUNT_METRICS,
    "edivisive.accept_ratio": "ratio",
    "synth.generate_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_CLI = "job_s_p50 and wall_s on cli-fixtures"
_EDIV = "wall_s on ediv-energy; job_s_p50 on cli-fixtures"
# The end-to-end metric each per-layer metric should move, and on which workload.
MOVES = {
    "cli.self_s": _CLI,
    "cli.emit_bytes": _CLI,
    "seriesio.read_s": _CLI,
    "seriesio.rows_read": _CLI,
    "seriesio.quarterly_s": _CLI,
    "series.transform_s": _CLI,
    "fluctuation.variance_s": _CLI,
    "fluctuation.process_s": _CLI,
    "fluctuation.test_s": _CLI,
    "dating.triangle_s": "wall_s on dp-long",
    "dating.select_s": "wall_s on dp-long",
    "dating.table_bytes": "peak_rss_mb on dp-long",
    "dating.peak_mb": "peak_rss_mb on dp-long",
    "dating.cells": "wall_s on dp-long (work count)",
    "wbs.segment_s": "wall_s on wbs-long",
    "wbs.peak_mb": "peak_rss_mb and wall_s on wbs-long (the scan is memory-bound)",
    "wbs.intervals": "wall_s on wbs-long (work count)",
    "wbs.breaks": "wall_s on wbs-long (work count)",
    "edivisive.segment_s": _EDIV,
    "edivisive.best_split_s": _EDIV,
    "edivisive.permtest_s": _EDIV,
    "edivisive.tests": _EDIV,
    "edivisive.permutations": _EDIV,
    "edivisive.accept_ratio": _EDIV,
    "edivisive.peak_mb": "peak_rss_mb on ediv-energy",
    "series.segmentation_s": "wall_s on wbs-long and ediv-energy",
    "synth.generate_s": "setup_s on dp-long, wbs-long and ediv-energy",
    "trace.wall_s": "none: traced seconds per pass",
    "trace.overhead_s": "none: traced minus untraced seconds per pass",
}

# Candidate tail percentiles, highest first. p95 is the top so that the
# chosen percentile does not flip between runs: cli-fixtures makes about
# 1000 jobs a run, right where p99 starts to have ten samples beyond it.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least 10 samples beyond it.

    Percentiles above the median use the nearest-rank rule on the sorted
    samples; when only the median qualifies, or none does, it is the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER[:-1]:
        if n * (1.0 - p / 100.0) >= 10:
            rank = max(1, math.ceil(p / 100.0 * n))
            return p, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """seconds measured while the reference kernel took kernel_s, rescaled to
    a host on which it takes REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def end_to_end(out: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics of one timed worker result, and their detail.

    setups holds (setup seconds, reference-kernel seconds) per fresh process.
    Medians are rescaled by the median kernel time measured alongside them:
    a single kernel run is too noisy to rescale a single pass.
    """
    times = [t for _, t in out["jobs"]]
    p, tail, beyond = tail_percentile(times)
    setup_raw = statistics.median(s for s, _ in setups)
    wall_raw = statistics.median(out["passes"])
    kernel = statistics.median(out["kernel_s"])
    metrics = {
        "setup_s": at_reference_speed(setup_raw, statistics.median(k for _, k in setups)),
        "wall_s": at_reference_speed(wall_raw, kernel),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    detail = {"job_s_p50": statistics.median(times), "job_s_tail": tail,
              "setup_raw_s": setup_raw, "wall_raw_s": wall_raw, "kernel_s": kernel,
              "passes": len(out["passes"]), "job_samples": len(times),
              "tail_percentile": p, "tail_beyond": beyond, "setup_samples": setups}
    return metrics, detail
