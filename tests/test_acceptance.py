"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to watch
them stream). Criteria 4 and 5 run against the vendored oil-price and
deflator fixtures and carry the documented one-quarter tolerances; the
Hang Seng check at the end is optional and runs only when the user
supplies the proprietary data file as fixtures/hangseng.csv.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from conftest import FIXTURES, brute_force_breaks

import stepscan as ss
from stepscan.cli import main
from stepscan.series import _span_rss


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _quarter_distance(series: ss.TimeSeries, index: int, year: int, quarter: int) -> int:
    y, q = series.index.stamp(index)
    return abs((y * 4 + q) - (year * 4 + quarter))


def test_01_nile_level_shift_is_significant(nile):
    started = time.perf_counter()
    process = ss.build_process(nile, "ols_cusum", ss.plain_variance(nile))
    result = ss.sup_abs_test(process, level=0.05)
    elapsed = time.perf_counter() - started
    ok = result.crossed and result.p_value < 0.05 and elapsed < 0.1
    _verdict(1, "nile-ols-cusum", ok,
             f"stat={result.statistic:.4f} p={result.p_value:.2e} {elapsed * 1e3:.1f}ms")


def test_02_nile_dating_finds_1898(nile):
    tri = ss.build_rss_triangle(nile, 15)
    seg = ss.select_breaks_bic(tri, 5)
    ok = seg.num_breaks == 1 and nile.period_label(seg.breaks[0]) == "1898"
    _verdict(2, "nile-bic-dating", ok,
             f"m={seg.num_breaks} breaks={[nile.period_label(b) for b in seg.breaks]}")


def test_03_nile_ar1_parameter(nile):
    _, rho = ss.fit_ar1(nile)
    ok = abs(rho - 0.51) <= 0.02
    _verdict(3, "nile-ar1", ok, f"rho={rho:.4f}")


def test_04_wti_dp_dating(wti_log_real):
    started = time.perf_counter()
    tri = ss.build_rss_triangle(wti_log_real, 10)
    seg = ss.select_breaks_bic(tri, 15)
    elapsed = time.perf_counter() - started
    near_73q4 = any(_quarter_distance(wti_log_real, b, 1973, 4) <= 1 for b in seg.breaks)
    near_79q2 = any(_quarter_distance(wti_log_real, b, 1979, 2) <= 1 for b in seg.breaks)
    ok = (8 <= seg.num_breaks <= 10) and near_73q4 and near_79q2 and elapsed < 10.0
    _verdict(4, "wti-dp-bic", ok,
             f"m={seg.num_breaks} {[wti_log_real.period_label(b) for b in seg.breaks]}"
             f" {elapsed:.2f}s")


def test_05_wti_energy_divisive(wti_log_real):
    cfg = ss.EdivConfig(min_size=10, alpha=2.0, sig_level=0.05,
                        num_permutations=199, seed=0)
    started = time.perf_counter()
    seg = ss.e_divisive(wti_log_real, cfg)
    elapsed = time.perf_counter() - started
    near_74q1 = any(_quarter_distance(wti_log_real, b, 1974, 1) <= 1 for b in seg.breaks)
    near_79q4 = any(_quarter_distance(wti_log_real, b, 1979, 4) <= 1 for b in seg.breaks)
    ok = (8 <= seg.num_breaks <= 10) and near_74q1 and near_79q4 and elapsed < 60.0
    _verdict(5, "wti-edivisive", ok,
             f"m={seg.num_breaks} {[wti_log_real.period_label(b) for b in seg.breaks]}"
             f" {elapsed:.2f}s")


def test_06_dp_matches_exhaustive_search():
    rng = np.random.default_rng(20260806)
    checked = 0
    ok = True
    while checked < 200:
        n = int(rng.integers(6, 25))
        min_len = int(rng.integers(1, 4))
        m = int(rng.integers(0, 4))
        if (m + 1) * min_len > n:
            continue
        v = rng.normal(0, 3, n)
        s = ss.TimeSeries(v, ss.PeriodIndex(1900))
        seg = ss.optimal_breaks(ss.build_rss_triangle(s, min_len), m)
        best_rss, best_breaks = brute_force_breaks(
            v, m, min_len, rss=lambda i, j: float(_span_rss(s, i, j)))
        if seg.rss_total != best_rss or seg.breaks != best_breaks:
            ok = False
            break
        checked += 1
    _verdict(6, "dp-exactness", ok, f"{checked} instances")


def test_07_null_size_calibration():
    rng = np.random.default_rng(20260810)
    rejections = 0
    reps = 2000
    for _ in range(reps):
        s = ss.TimeSeries(rng.standard_normal(500), ss.PeriodIndex(1))
        res = ss.sup_abs_test(ss.build_process(s, "ols_cusum"), level=0.05)
        rejections += res.crossed
    rate = rejections / reps
    ok = 0.03 <= rate <= 0.07
    _verdict(7, "null-size", ok, f"rate={rate:.4f} at T=500, {reps} reps")


def test_08_noiseless_recovery_all_methods():
    rng = np.random.default_rng(77)
    min_len = 5
    failures = []
    for trial in range(25):
        k = int(rng.integers(1, 5))
        means = np.round(rng.uniform(-8, 8, k), 2)
        while np.any(np.abs(np.diff(means)) < 0.5):
            means = np.round(rng.uniform(-8, 8, k), 2)
        lengths = rng.integers(2 * min_len, 4 * min_len, k).tolist()
        sig, truth = ss.make_step_signal(means.tolist(), lengths, sigma=0.0)

        tri = ss.build_rss_triangle(sig, min_len)
        dp = ss.select_breaks_bic(tri, min(6, sig.n // min_len - 1))
        wbs = ss.wbs_segment(sig, ss.WbsConfig(seed=trial, min_len=min_len))
        ediv = ss.e_divisive(sig, ss.EdivConfig(min_size=min_len, alpha=2.0, seed=trial))
        for name, seg in (("dp", dp), ("wbs", wbs), ("edivisive", ediv)):
            if seg.breaks != truth:
                failures.append((trial, name, truth, seg.breaks))
    _verdict(8, "noiseless-recovery", not failures,
             f"25 signals x 3 methods{'; first failure ' + str(failures[0]) if failures else ''}")


def test_09_wbs_localization_benchmark():
    hits = 0
    for seed in range(100):
        sig, _ = ss.make_step_signal([0, 3, 0], [40, 40, 40],
                                     noise="gaussian", sigma=1.0, seed=seed)
        seg = ss.wbs_segment(sig, ss.WbsConfig(seed=seed))
        bs = seg.breaks
        hits += bool(bs) and min(abs(b - 40) for b in bs) <= 3 \
            and min(abs(b - 80) for b in bs) <= 3
    ok = hits >= 95
    _verdict(9, "wbs-0-3-0", ok, f"{hits}/100 seeds within +/-3")


def test_10_long_run_variance_ar1():
    s, _ = ss.make_step_signal([0.0], [20000], noise="ar1", rho=0.5, sigma=1.0, seed=3)
    est = ss.long_run_variance(s, "auto")
    ok = abs(est.value - 4.0) <= 0.125 * 4.0
    _verdict(10, "long-run-variance", ok,
             f"omega2={est.value:.3f} bandwidth={est.bandwidth}")


def _rerun_from_recorded_config(tmp_path: pathlib.Path, first_args: list[str],
                                name: str) -> bool:
    """Run once, rebuild the command from the report's config, compare bytes."""
    out1 = tmp_path / f"{name}-1.json"
    assert main(first_args + ["--out", str(out1)]) == 0
    report = json.loads(out1.read_text())
    cfg = report["config"]
    method = report["method"]
    argv = ["segment", "--method", method, report["input"]["path"],
            "--seed", str(cfg["seed"])]
    if method == "wbs":
        argv += ["--min-seg", str(cfg["min_len"]),
                 "--intervals", str(cfg["num_intervals"]),
                 "--threshold-c", str(cfg["threshold_constant"])]
        if cfg["max_breaks"] is not None:
            argv += ["--max-breaks", str(cfg["max_breaks"])]
    elif method == "edivisive":
        argv += ["--min-seg", str(cfg["min_size"]), "--alpha", str(cfg["alpha"]),
                 "--level", str(cfg["sig_level"]),
                 "--permutations", str(cfg["num_permutations"])]
    else:
        argv += ["--min-seg", str(cfg["min_len"]), "--max-breaks", str(cfg["max_breaks"])]
    out2 = tmp_path / f"{name}-2.json"
    assert main(argv + ["--out", str(out2)]) == 0
    return out1.read_bytes() == out2.read_bytes()


def test_11_reports_reproduce_byte_identically(tmp_path):
    nile_path = str(FIXTURES / "nile.csv")
    ok_wbs = _rerun_from_recorded_config(
        tmp_path, ["segment", "--method", "wbs", "--seed", "42", nile_path], "wbs")
    ok_ediv = _rerun_from_recorded_config(
        tmp_path, ["segment", "--method", "edivisive", "--min-seg", "15",
                   "--seed", "7", nile_path], "ediv")
    ok_dp = _rerun_from_recorded_config(
        tmp_path, ["segment", "--method", "dp", "--min-seg", "15",
                   "--max-breaks", "5", nile_path], "dp")
    ok = ok_wbs and ok_ediv and ok_dp
    _verdict(11, "report-determinism", ok, "wbs, edivisive, dp re-runs byte-identical")


HANGSENG = FIXTURES / "hangseng.csv"


@pytest.mark.skipif(not HANGSENG.exists(),
                    reason="optional: needs user-supplied fixtures/hangseng.csv")
def test_optional_hangseng_volatility_dating():
    prices = ss.read_csv(str(HANGSENG))
    vol = ss.returns(prices, "abs_log_return")
    tri = ss.build_rss_triangle(vol, int(0.10 * vol.n))
    seg = ss.select_breaks_bic(tri, 3)
    import datetime as dt
    target = dt.date(1997, 8, 15)
    ok = any(abs((vol.period_date(b) - target).days) <= 10 for b in seg.breaks)
    _verdict(12, "hangseng-optional", ok,
             f"breaks={[vol.period_label(b) for b in seg.breaks]}")
