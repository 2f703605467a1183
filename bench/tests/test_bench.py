"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import stepscan as ss
import stepscan.dating
import stepscan.wbs

import layers
import metrics
import run
import worker
import workloads
from hostspeed import ReferenceKernel
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TINY = {"dp-long": (60, 90), "wbs-long": (60, 90), "ediv-energy": ((80, 2),)}


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def cwd_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # CLI jobs name fixtures by relative path


def _result(out, metric_values, trace):
    return {"correct": not out["failures"], "attempted": len(out["jobs"]),
            "failed": len(out["failures"]), "metrics": metric_values, "detail": {}}


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, contract, cwd_root, tmp_path):
    jobs = workloads.build(name, 3, str(tmp_path), TINY.get(name))
    out = worker.timed(jobs, 0.0, None, ReferenceKernel())
    out["peak_rss_kb"] = 1
    values, detail = metrics.end_to_end(out, [(0.1, 0.05)])
    assert set(metrics.JOB_UNITS) <= set(detail)
    line = json.loads(run.contract_line(_result(out, values, False), False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {m: v["unit"] for m, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in contract["end_to_end"]}

    tracer = layers.install(Tracer())
    try:
        jobs = workloads.build(name, 3, str(tmp_path), TINY.get(name))
        out = worker.traced(jobs, 0.0, None, tracer)
    finally:
        tracer.uninstall()
    line = json.loads(run.contract_line(_result(out, out["per_layer"], True), True))
    assert {m: v["unit"] for m, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in contract["per_layer"]}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())


def test_contract_workloads_match_the_runner(contract):
    assert [w["name"] for w in contract["workloads"]] == list(metrics.WORKLOADS)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == metrics.WHY


def test_tampered_reference_digest_fails_the_job(tmp_path):
    jobs = workloads.build("dp-long", 0, str(tmp_path), TINY["dp-long"])
    first = worker.new_outcome()
    worker.run_pass(jobs, first)
    reference = dict(first["digests"])
    assert worker.run_pass(jobs, worker.new_outcome(), reference) >= 0.0

    reference["dp-60"] = "0" * 64
    outcome = worker.new_outcome()
    worker.run_pass(jobs, outcome, reference)
    assert [job for job, _ in outcome["failures"]] == ["dp-60"]
    assert len(outcome["jobs"]) == 2


def test_raising_job_counts_as_failed():
    def boom():
        raise ss.DataError("no data")
    outcome = worker.new_outcome()
    worker.run_pass([workloads.Job("boom", boom, lambda out: (None, ""))], outcome)
    assert outcome["failures"] == [["boom", "raised DataError: no data"]]


def test_dating_cells_hand_count():
    n, h, max_m = 60, 5, 2
    hand = 0
    for j in range(2, max_m + 2):  # the loop bounds of dating._suffix_costs
        b_hi = n - (j - 1) * h
        for a in range(1, n - j * h + 2):
            hand += len(range(a + h - 1, b_hi + 1))
    assert hand == 2407
    assert layers.bellman_cells(n, h, max_m) == hand

    series = ss.TimeSeries(np.random.default_rng(1).normal(size=n), ss.PeriodIndex(1900))
    tracer = layers.install(Tracer())
    try:
        tri = stepscan.dating.build_rss_triangle(series, h)
        stepscan.dating.select_breaks_bic(tri, max_m)
    finally:
        tracer.uninstall()
    assert tracer.counts["dating.cells"] == hand
    assert tracer.counts["dating.table_bytes"] == 8 * n * (n + 1) // 2


def test_wbs_intervals_capped_by_distinct_intervals():
    n, min_len, m = 10, 2, 5000
    hand = sum(1 for s in range(1, n + 1) for e in range(s, n + 1) if e - s + 1 >= 2 * min_len)
    assert hand == 28 < m
    starts, _ = stepscan.wbs._draw_intervals(n, m, min_len, np.random.default_rng(0))
    assert starts.size == hand

    series = ss.TimeSeries(np.r_[np.zeros(5), np.full(5, 9.0)], ss.PeriodIndex(1900))
    tracer = layers.install(Tracer())
    try:
        seg = stepscan.wbs.wbs_segment(series, ss.WbsConfig(num_intervals=m, min_len=min_len))
    finally:
        tracer.uninstall()
    assert tracer.counts["wbs.intervals"] == hand
    assert tracer.counts["wbs.breaks"] == seg.num_breaks == 1


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, "j", None], ["inner", 2.0, 5.0, 0, "j", None],
                    ["inner", 6.0, 7.0, 0, "j", None], ["leaf", 3.0, 4.0, 1, "j", None]]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_kernel_runs_between_jobs_after_enough_job_time(monkeypatch):
    monkeypatch.setattr(worker, "KERNEL_EVERY_S", 0.05)
    calls = []

    def nap():
        time.sleep(0.03)

    def kernel():
        calls.append(len(calls))
        return 1.0
    jobs = [workloads.Job(f"nap{i}", nap, lambda out: (None, "")) for i in range(4)]
    out = worker.timed(jobs, 0.0, None, kernel)
    assert len(out["passes"]) == 1
    assert out["kernel_s"] == [1.0] * 3  # before the pass, after naps 2 and 4


def test_medians_are_rescaled_by_the_median_kernel_time():
    ref = metrics.REFERENCE_KERNEL_S
    out = {"jobs": [["j", 1.0]], "passes": [1.0, 3.0, 2.0], "peak_rss_kb": 1024,
           "kernel_s": [ref, 4 * ref, 2 * ref, 2 * ref]}
    values, detail = metrics.end_to_end(out, [(0.5, 2 * ref), (0.2, ref), (0.3, 4 * ref)])
    assert values["wall_s"] == pytest.approx(1.0)  # median 2.0 s at twice the kernel time
    assert values["setup_s"] == pytest.approx(0.15)  # median 0.3 s, kernel median 2 * ref
    assert (detail["wall_raw_s"], detail["setup_raw_s"], detail["kernel_s"]) == (2.0, 0.3,
                                                                                  2 * ref)


@pytest.mark.parametrize("n, p, beyond", [(15, 50.0, 7), (40, 75.0, 10), (121, 90.0, 12),
                                          (1200, 95.0, 60)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p, beyond):
    got_p, value, got_beyond = metrics.tail_percentile([float(i) for i in range(n)])
    assert (got_p, got_beyond) == (p, beyond)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "dp-long", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "missing src/stepscan/__init__.py" in done.stderr
