"""Which stepscan functions the traced run wraps, and the counters they feed.

Functions are wrapped under the names their callers resolve at call
time: the CLI's imported names on ``stepscan.cli``, and the library
names on the module the benchmark or stepscan itself calls them through.
Every counter derives from call inputs and outputs only, so it repeats
exactly from run to run.
"""

from __future__ import annotations

import os

import stepscan.cli
import stepscan.dating
import stepscan.edivisive
import stepscan.synth
import stepscan.wbs

from tracer import Tracer


def bellman_cells(n: int, min_len: int, max_m: int) -> int:
    """(a, b) candidates the Bellman recursion of select_breaks_bic evaluates.

    For layer j = 2..max_m+1 the start a runs over 1..A with
    A = n - j*min_len + 1, and start a tries A + 1 - a split points, so
    layer j costs A*(A+1)/2.
    """
    total = 0
    for j in range(2, max_m + 2):
        a = n - j * min_len + 1
        if a > 0:
            total += a * (a + 1) // 2
    return total


def distinct_intervals(n: int, min_len: int) -> int:
    """Intervals [s..e] with e - s + 1 >= 2*min_len inside 1..n."""
    t = n - 2 * min_len + 1
    return t * (t + 1) // 2 if t > 0 else 0


def _emit_counter(args, kwargs, code):
    argv = args[0]
    emitted = 0
    for flag in ("--out", "--plot"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                emitted += os.path.getsize(path)
    return {"cli.emit_bytes": emitted}


def _rows_counter(args, kwargs, series):
    return {"seriesio.rows_read": series.n}


def _triangle_counter(args, kwargs, tri):
    table = getattr(tri, "table", None)
    return {"dating.table_bytes": 0 if table is None else table.nbytes}


def _select_counter(args, kwargs, seg):
    tri = args[0]
    max_m = args[1] if len(args) > 1 else kwargs["max_m"]
    return {"dating.cells": bellman_cells(tri.n, tri.min_len, max_m)}


def _wbs_counter(args, kwargs, seg):
    series = args[0]
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", stepscan.wbs.WbsConfig())
    return {"wbs.intervals": min(cfg.num_intervals, distinct_intervals(series.n, cfg.min_len)),
            "wbs.breaks": seg.num_breaks}


def _ediv_counter(args, kwargs, seg):
    return {"edivisive.accepted": len(seg.criterion_trace or ())}


def _permtest_counter(args, kwargs, p):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"edivisive.tests": 1, "edivisive.permutations": cfg.num_permutations}


# (module, attribute, span name, counter)
TARGETS = [
    (stepscan.cli, "main", "cli.main", _emit_counter),
    (stepscan.cli, "read_csv", "seriesio.read_csv", _rows_counter),
    (stepscan.cli, "monthly_to_quarterly", "seriesio.monthly_to_quarterly", None),
    (stepscan.cli, "log_transform", "series.log_transform", None),
    (stepscan.cli, "deflate", "series.deflate", None),
    (stepscan.cli, "returns", "series.returns", None),
    (stepscan.cli, "plain_variance", "fluctuation.plain_variance", None),
    (stepscan.cli, "long_run_variance", "fluctuation.long_run_variance", None),
    (stepscan.cli, "build_process", "fluctuation.build_process", None),
    (stepscan.cli, "mosum_process", "fluctuation.mosum_process", None),
    (stepscan.cli, "sup_abs_test", "fluctuation.sup_abs_test", None),
    (stepscan.cli, "build_rss_triangle", "dating.build_rss_triangle", _triangle_counter),
    (stepscan.cli, "select_breaks_bic", "dating.select_breaks_bic", _select_counter),
    (stepscan.cli, "wbs_segment", "wbs.wbs_segment", _wbs_counter),
    (stepscan.cli, "e_divisive", "edivisive.e_divisive", _ediv_counter),
    (stepscan.dating, "build_rss_triangle", "dating.build_rss_triangle", _triangle_counter),
    (stepscan.dating, "select_breaks_bic", "dating.select_breaks_bic", _select_counter),
    (stepscan.wbs, "wbs_segment", "wbs.wbs_segment", _wbs_counter),
    (stepscan.wbs, "segmentation_from_breaks", "series.segmentation_from_breaks", None),
    (stepscan.edivisive, "e_divisive", "edivisive.e_divisive", _ediv_counter),
    (stepscan.edivisive, "best_split", "edivisive.best_split", None),
    (stepscan.edivisive, "permutation_test", "edivisive.permutation_test", _permtest_counter),
    (stepscan.edivisive, "segmentation_from_breaks", "series.segmentation_from_breaks", None),
    (stepscan.synth, "make_step_signal", "synth.make_step_signal", None),
]


def install(tracer: Tracer) -> Tracer:
    for module, attr, name, counter in TARGETS:
        tracer.wrap(module, attr, name, counter)
    return tracer
