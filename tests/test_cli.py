from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, REPO, running

import stepscan as ss
import stepscan.cli
from stepscan.cli import main

NILE = str(FIXTURES / "nile.csv")


def run(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None), out


def write_monthly_csv(tmp_path, n):
    """A monthly series of n rows from the year 1000, cycling through 0..6."""
    path = tmp_path / "long.csv"
    rows = ["DATE,value"] + [f"{1000 + i // 12}-{i % 12 + 1:02d}-01,{i % 7}" for i in range(n)]
    path.write_text("\n".join(rows) + "\n")
    return path


def write_constant_csv(tmp_path, n=30, value=5.0):
    path = tmp_path / "const.csv"
    rows = ["DATE,x"] + [f"{1900 + i}-01-01,{value}" for i in range(n)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestCmdTest:
    def test_nile_ols_cusum_crosses(self, tmp_path):
        code, report, _ = run(["test", "--method", "ols-cusum", "--level", "0.05", NILE],
                              tmp_path)
        assert code == 0
        assert report["results"]["crossed"] is True
        assert report["results"]["p_value"] < 0.05
        assert report["schema"] == 1
        assert report["input"]["n"] == 100

    def test_constant_input_is_clean_null(self, tmp_path):
        path = write_constant_csv(tmp_path)
        code, report, _ = run(["test", "--method", "ols-cusum", path], tmp_path)
        assert code == 0
        assert report["results"]["statistic"] == 0.0
        assert report["results"]["p_value"] == 1.0

    def test_mosum_without_critical_is_usage_error(self, capsys, tmp_path):
        code = main(["test", "--method", "mosum", NILE])
        assert code == 2
        assert "critical" in capsys.readouterr().err

    def test_mosum_with_critical(self, tmp_path):
        code, report, _ = run(["test", "--method", "mosum", "--critical", "3.0", NILE],
                              tmp_path)
        assert code == 0
        assert report["results"]["p_value"] is None
        assert isinstance(report["results"]["crossed"], bool)

    @pytest.mark.parametrize("method,recorded", [
        ("ols-cusum", None), ("rec-cusum", None), ("mosum", 3.0),
    ])
    def test_critical_recorded_only_for_mosum(self, tmp_path, method, recorded):
        # the value plays no part in a CUSUM test
        code, report, _ = run(["test", "--method", method, "--critical", "3", NILE], tmp_path)
        assert code == 0
        assert report["config"]["critical"] == recorded

    def test_long_run_variance_option(self, tmp_path):
        code, report, _ = run(["test", "--method", "ols-cusum", "--variance", "long-run",
                               NILE], tmp_path)
        assert code == 0
        assert report["results"]["variance"]["kind"] == "long_run"
        assert report["results"]["variance"]["bandwidth"] == 4

    def test_value_column_before_date(self, tmp_path):
        path = tmp_path / "swapped.csv"
        rows = ["value,DATE"] + [f"{v},{1900 + i}-01-01" for i, v in enumerate([1, 3, 2] * 4)]
        path.write_text("\n".join(rows) + "\n")
        code, report, _ = run(["test", str(path)], tmp_path)
        assert code == 0
        assert report["input"]["n"] == 12
        assert report["input"]["label"] == "value"

    def test_unknown_method_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["test", "--method", "chow", NILE])
        assert err.value.code == 2

    def test_missing_file_exits_1(self, capsys):
        assert main(["test", "--method", "ols-cusum", "no-such.csv"]) == 1

    def test_rec_cusum_takes_any_level(self, tmp_path):
        code, report, _ = run(["test", "--method", "rec-cusum", "--level", "0.2", NILE],
                              tmp_path)
        assert code == 0
        assert report["results"]["boundary"] == (
            "+/- 0.739 * (1 + 2t) (Brownian motion crossing)")

    def test_plot_csv_has_boundaries(self, tmp_path):
        plot = tmp_path / "plot.csv"
        code = main(["test", "--method", "ols-cusum", NILE,
                     "--out", str(tmp_path / "r.json"), "--plot", str(plot)])
        assert code == 0
        lines = plot.read_text().splitlines()
        assert lines[0] == "t,process,boundary_upper,boundary_lower"
        assert len(lines) == 102  # origin + 100 points + header

    def test_ols_cusum_level_below_the_quantile_floor_exits_1(self, tmp_path, capsys):
        code, report, _ = run(["test", "--method", "ols-cusum", "--level", "1e-20", NILE],
                              tmp_path)
        assert (code, report) == (1, None)
        assert "level 1e-20 is below the smallest solvable one, 2e-12" in capsys.readouterr().err


class TestCmdSegment:
    def test_nile_dp(self, tmp_path):
        code, report, _ = run(["segment", "--method", "dp", "--min-seg", "15",
                               "--max-breaks", "5", NILE], tmp_path)
        assert code == 0
        assert report["results"]["num_breaks"] == 1
        assert report["results"]["breaks"][0]["label"] == "1898"

    def test_min_seg_percentage(self, tmp_path):
        code, report, _ = run(["segment", "--method", "dp", "--min-seg", "15%",
                               "--max-breaks", "5", NILE], tmp_path)
        assert code == 0
        assert report["config"]["min_len"] == 15

    def test_wbs_zero_intervals(self, tmp_path):
        code, report, _ = run(["segment", "--method", "wbs", "--intervals", "0", NILE],
                              tmp_path)
        assert code == 0
        assert report["config"]["num_intervals"] == 0
        assert [b["label"] for b in report["results"]["breaks"]] == ["1898"]

    def test_wbs_reports_are_byte_identical(self, tmp_path):
        _, _, out1 = run(["segment", "--method", "wbs", "--seed", "42", NILE],
                         tmp_path, "a.json")
        _, _, out2 = run(["segment", "--method", "wbs", "--seed", "42", NILE],
                         tmp_path, "b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_transform_chain_in_flag_order(self, tmp_path, fixtures_dir):
        code, report, _ = run([
            "segment", "--method", "dp", "--min-seg", "10", "--max-breaks", "15",
            "--quarterly", "mean", "--deflate", str(fixtures_dir / "gdpdef.csv"),
            "--deflate-base", "2009", "--log",
            str(fixtures_dir / "oilprice_raw.csv")], tmp_path)
        assert code == 0
        assert [t[0] for t in report["input"]["transforms"]] == ["quarterly", "deflate", "log"]
        labels = [b["label"] for b in report["results"]["breaks"]]
        assert "1973Q4" in labels

    def test_returns_transform_on_daily_data(self, tmp_path):
        data = tmp_path / "prices.csv"
        main(["synth", "--means", "100", "--lengths", "60", "--sigma", "1",
              "--seed", "2", "--out", str(data)])
        code, report, _ = run(["segment", "--method", "dp", "--min-seg", "10",
                               "--max-breaks", "2", "--returns", "abs", str(data)],
                              tmp_path)
        assert code == 0
        assert report["input"]["transforms"] == [["returns", "abs"]]
        assert report["input"]["n"] == 59

    def test_plot_round_trips_through_read_csv(self, tmp_path):
        plot = tmp_path / "plot.csv"
        main(["segment", "--method", "dp", "--min-seg", "15", "--max-breaks", "3", NILE,
              "--out", str(tmp_path / "r.json"), "--plot", str(plot)])
        back = ss.read_csv(str(plot))  # "date" matches DATE
        original = ss.read_csv(NILE)
        np.testing.assert_array_equal(back.values, original.values)
        assert back.index.stamp(1) == original.index.stamp(1)

    def test_infeasible_settings_exit_1(self, capsys):
        assert main(["segment", "--method", "dp", "--min-seg", "60", "--max-breaks", "3",
                     NILE]) == 1

    @pytest.mark.parametrize("method,min_seg,resolved", [
        ("dp", "0", 0), ("dp", "0%", 0), ("dp", "-1", -1),
        ("wbs", "1", 1), ("wbs", "1%", 1), ("edivisive", "0", 0),
    ])
    def test_min_seg_below_method_floor_is_usage_error(self, capsys, method, min_seg,
                                                       resolved):
        assert main(["segment", "--method", method, "--min-seg", min_seg, NILE]) == 2
        err = capsys.readouterr().err
        assert "--min-seg" in err and f"resolves to {resolved} " in err and method in err

    @pytest.mark.parametrize("method", ["wbs", "edivisive"])
    def test_negative_max_breaks_exits_1(self, capsys, method):
        assert main(["segment", "--method", method, "--max-breaks", "-1", NILE]) == 1
        assert "max_breaks must be nonnegative" in capsys.readouterr().err

    def test_dp_negative_max_breaks_exits_1(self, capsys):
        assert main(["segment", "--method", "dp", "--max-breaks", "-1", NILE]) == 1
        assert "max_breaks must be nonnegative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["nan", "inf", "0"])
    def test_bad_threshold_c_exits_1(self, capsys, c):
        assert main(["segment", "--method", "wbs", "--threshold-c", c, NILE]) == 1
        err = capsys.readouterr().err
        assert "threshold_constant must be finite and positive" in err
        assert "Out of range" not in err

    @pytest.mark.parametrize("method,critical", [
        ("mosum", "inf"), ("mosum", "nan"), ("ols-cusum", "nan"),
    ])
    def test_non_finite_critical_exits_1(self, capsys, method, critical):
        # used to fail only at JSON emit, even where the value is unused
        assert main(["test", "--method", method, "--critical", critical, NILE]) == 1
        err = capsys.readouterr().err
        assert "critical must be finite" in err
        assert "Out of range" not in err

    @pytest.mark.parametrize("method,critical", [("mosum", "-1"), ("mosum", "0")])
    def test_non_positive_critical_exits_1(self, capsys, method, critical):
        # -1 used to pass and flip the boundary: upper -1.0, lower +1.0
        assert main(["test", "--method", method, "--critical", critical, NILE]) == 1
        err = capsys.readouterr().err
        assert f"critical must be finite and positive, got {float(critical)}" in err

    # 1e308% used to end in an OverflowError traceback
    @pytest.mark.parametrize("min_seg", ["nan%", "inf%", "abc", "1.5", "101%", "1e308%"])
    def test_malformed_min_seg_is_argparse_error(self, capsys, min_seg):
        with pytest.raises(SystemExit) as err:
            main(["segment", "--method", "dp", "--min-seg", min_seg, NILE])
        assert err.value.code == 2
        assert "--min-seg" in capsys.readouterr().err


class TestCmdCompare:
    def test_noiseless_step_agreement(self, tmp_path):
        data = tmp_path / "step.csv"
        main(["synth", "--means", "0,5", "--lengths", "30,30", "--sigma", "0",
              "--out", str(data)])
        code, report, _ = run(["compare", "--methods", "dp,edivisive", "--min-seg", "5",
                               "--max-breaks", "3", str(data)], tmp_path)
        assert code == 0
        pair = report["results"]["pairwise"][0]
        assert pair["max_nearest_distance"] == 0
        dp_breaks = report["results"]["methods"]["dp"]["breaks"]
        ed_breaks = report["results"]["methods"]["edivisive"]["breaks"]
        assert dp_breaks[0]["index"] == ed_breaks[0]["index"] == 30

    def test_one_side_without_breaks_has_no_matches(self, tmp_path):
        data = tmp_path / "step.csv"
        main(["synth", "--means", "0,5", "--lengths", "30,30", "--sigma", "0",
              "--out", str(data)])
        # one permutation gives p >= 1/2, so e-divisive accepts no break
        code, report, _ = run(["compare", "--methods", "dp,edivisive", "--min-seg", "5",
                               "--max-breaks", "3", "--permutations", "1", str(data)],
                              tmp_path)
        assert code == 0
        assert report["results"]["methods"]["dp"]["num_breaks"] == 1
        assert report["results"]["methods"]["edivisive"]["num_breaks"] == 0
        pair = report["results"]["pairwise"][0]
        assert pair["max_nearest_distance"] is None
        assert pair["matches"] == []

    @pytest.mark.parametrize("argv,code,message", [
        (["compare", "--methods", "dp,wbs", "--min-seg", "1"], 2,
         "--min-seg 1 resolves to 1 observations; method wbs needs at least 2"),
        (["compare", "--methods", "dp,edivisive", "--alpha", "2", "--permutations", "0"], 1,
         "num_permutations must be positive"),
        (["compare", "--methods", "dp,edivisive", "--permutations", "4294967297"], 1,
         "num_permutations must be at most 2**32, got 4294967297"),
        (["compare", "--methods", "dp,edivisive", "--seed", "-1"], 1,
         "seed must be nonnegative, got -1"),
        (["compare", "--methods", "dp,wbs", "--seed", "-1"], 1,
         "seed must be nonnegative, got -1"),
        (["test", "--seed", "-1"], 1, "seed must be nonnegative, got -1"),
        (["segment", "--method", "dp", "--seed", "-1"], 1, "seed must be nonnegative, got -1"),
    ], ids=["wbs-min-seg", "edivisive-permutations", "edivisive-permutations-cap",
            "edivisive-seed", "wbs-seed", "test-seed", "dp-seed"])
    def test_every_config_checked_before_any_method_runs(self, capsys, monkeypatch,
                                                         argv, code, message):
        def spy(*args, **kwargs):
            pytest.fail("a method ran before every config was checked")

        monkeypatch.setattr(stepscan.cli, "select_breaks_bic", spy)
        monkeypatch.setattr(stepscan.cli, "sup_abs_test", spy)
        assert main(argv + [NILE]) == code
        assert capsys.readouterr().err == f"stepscan: {message}\n"

    def test_infeasible_dp_max_breaks_checked_before_any_method_runs(self, capsys,
                                                                      monkeypatch):
        def spy(*args, **kwargs):
            pytest.fail("e-divisive ran before the DP's --max-breaks was checked")

        monkeypatch.setattr(stepscan.cli, "e_divisive", spy)
        assert main(["compare", "--methods", "edivisive,dp", "--max-breaks", "20",
                     NILE]) == 1
        assert "max_breaks = 20 infeasible" in capsys.readouterr().err

    def test_dp_table_over_budget_checked_before_any_method_runs(self, capsys, monkeypatch,
                                                                 tmp_path):
        def spy(*args, **kwargs):
            pytest.fail("WBS ran before the DP's table budget was checked")

        monkeypatch.setattr(stepscan.cli, "wbs_segment", spy)
        # (9999 + 2) * (20000 + 2) * 8 bytes, over the 1 GiB budget
        path = write_monthly_csv(tmp_path, 20000)
        assert main(["compare", "--methods", "wbs,dp", "--min-seg", "2",
                     "--max-breaks", "9999", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stepscan: the dynamic program would need a 1,600,320,016-byte")

    def test_same_method_twice_rejected(self, capsys):
        assert main(["compare", "--methods", "dp,dp", NILE]) == 2

    def test_needs_two_methods(self, capsys):
        assert main(["compare", "--methods", "dp", NILE]) == 2

    def test_min_seg_zero_is_usage_error(self, capsys):
        assert main(["compare", "--methods", "dp,wbs", "--min-seg", "0", NILE]) == 2
        assert "--min-seg" in capsys.readouterr().err

    @pytest.mark.parametrize("methods,message", [
        ("foo,dp", "unknown segmentation method 'foo'"),
        ("edivisive,foo", "unknown segmentation method 'foo'"),
        ("dp,dp", "method 'dp' listed twice"),
    ])
    def test_methods_checked_before_reading_input(self, capsys, methods, message):
        # a missing input would exit 1 if it were read first
        assert main(["compare", "--methods", methods, "no-such.csv"]) == 2
        assert capsys.readouterr().err == f"stepscan: {message}\n"


class TestCmdSynth:
    def test_reproducible_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["synth", "--means", "0,5", "--lengths", "20,20", "--sigma", "1",
                "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_file_lists_breaks(self, tmp_path):
        out = tmp_path / "sig.csv"
        truth = tmp_path / "truth.csv"
        main(["synth", "--means", "0,5,1", "--lengths", "10,10,10", "--sigma", "0",
              "--out", str(out), "--truth", str(truth)])
        lines = truth.read_text().splitlines()
        assert lines[0] == "break_index,break_date"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [10, 20]
        series = ss.read_csv(str(out))
        assert series.n == 30

    def test_truth_file_without_breaks_is_its_header(self, tmp_path):
        out = tmp_path / "sig.csv"
        truth = tmp_path / "truth.csv"
        assert main(["synth", "--means", "1", "--lengths", "50", "--out", str(out),
                     "--truth", str(truth)]) == 0
        assert truth.read_bytes() == b"break_index,break_date\n"
        assert ss.read_csv(str(out)).n == 50

    def test_ar1_signal_fits_back(self, tmp_path):
        out = tmp_path / "ar1.csv"
        main(["synth", "--means", "0", "--lengths", "20000", "--noise", "ar1",
              "--rho", "0.5", "--sigma", "1", "--seed", "3", "--out", str(out)])
        s = ss.read_csv(str(out))
        _, rho = ss.fit_ar1(s)
        assert rho == pytest.approx(0.5, abs=0.05)

    def test_invalid_spec_exits_2(self, capsys):
        assert main(["synth", "--means", "0,5", "--lengths", "20"]) == 2
        assert main(["synth", "--means", "0", "--lengths", "-4"]) == 2

    def test_negative_seed_exits_2_naming_it(self, capsys):
        assert main(["synth", "--means", "0,5", "--lengths", "30,30", "--seed", "-3"]) == 2
        assert capsys.readouterr().err == (
            "stepscan: invalid signal spec: seed must be nonnegative, got -3\n")

    @pytest.mark.parametrize("lengths", ["3000000", "1000000000000", "2921940,1"])
    def test_length_past_the_calendar_exits_2_with_one_line(self, capsys, lengths):
        # daily dates past 9999-12-31 used to end in an OverflowError traceback,
        # and 1e12 observations in a numpy MemoryError traceback
        assert main(["synth", "--means", ",".join(["0"] * len(lengths.split(","))),
                     "--lengths", lengths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("stepscan: invalid signal spec: at most 2,921,940 observations")

    @pytest.mark.parametrize("flag", [["--plot", "p.csv"], ["--log"], ["--deflate", "d.csv"],
                                      ["--returns", "abs"], ["--quarterly", "mean"],
                                      ["--deflate-base", "2000"]])
    def test_input_flags_are_rejected(self, capsys, monkeypatch, tmp_path, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["synth", "--means", "0,1", "--lengths", "3,3", *flag])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, name", [
        (["--means", "0,5", "--sigma", "nan"], "sigma"),
        (["--means", "0,5", "--sigma", "inf"], "sigma"),
        (["--means", "0,nan"], "means"),
    ])
    def test_non_finite_spec_exits_2_naming_it(self, capsys, flags, name):
        # used to exit 1 with "non-finite value at position ..." from TimeSeries
        assert main(["synth", "--lengths", "30,30", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stepscan: invalid signal spec: ") and name in err, err


_FUZZ_VALUES = ["0", "-1", "1", "3", "15", "0%", "10%", "nan%", "abc", "0.5", "nan", "-3",
                "-9223372036854775809"]
_DATING_FLAGS = ["--max-breaks", "--level", "--alpha", "--threshold-c", "--seed"]
_FUZZ_FLAGS = {
    "test": ["--level", "--variance", "--lrv-bandwidth", "--mosum-bandwidth", "--critical"],
    "segment": _DATING_FLAGS,
    "compare": _DATING_FLAGS,
    "synth": ["--sigma", "--rho", "--seed"],
}


@st.composite
def fuzz_argv(draw):
    """argv from a small grammar of subcommands, flags and hostile values."""
    value = st.sampled_from(_FUZZ_VALUES)
    command = draw(st.sampled_from(["test", "segment", "compare", "synth", "bogus"]))
    argv = [command]
    if command == "synth":
        # lengths past the calendar or the memory must not be built
        argv += ["--means", draw(st.sampled_from(["0", "0,5", "nan", "abc"])),
                 "--lengths", draw(st.sampled_from(["30", "30,30", "0", "-5", "abc", "3000000",
                                                    "1000000000000"]))]
    if command == "test":
        argv += ["--method", draw(st.sampled_from(["ols-cusum", "rec-cusum", "mosum"]))]
    elif command == "segment":
        argv += ["--method", draw(st.sampled_from(["dp", "wbs", "edivisive"]))]
    elif command == "compare":
        argv += ["--methods", draw(st.sampled_from(["dp,wbs", "dp,edivisive", "wbs,edivisive",
                                                    "dp,dp", "dp", "dp,x"]))]
    if command in ("segment", "compare"):
        # Small caps keep each run to milliseconds.
        argv += ["--permutations", draw(st.sampled_from(["-1", "0", "9"])),
                 "--intervals", draw(st.sampled_from(["-1", "0", "50"]))]
        min_seg = draw(st.sampled_from([None, "0", "0%", "-1", "1", "15", "10%", "nan%", "abc",
                                        "101%", "1e308%"]))
        if min_seg is not None:
            argv += ["--min-seg", min_seg]
    for flag in _FUZZ_FLAGS.get(command, []):
        if draw(st.booleans()):
            argv += [flag, draw(value)]
    if command == "synth":
        return argv
    if draw(st.booleans()):
        argv.append("--log")
    argv.append(draw(st.sampled_from([NILE, str(FIXTURES / "no-such.csv")])))
    return argv


@settings(max_examples=150, deadline=None)
@given(fuzz_argv())
def test_fuzzed_argv_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


class TestProcessLevelContract:
    def test_module_entrypoint_and_exit_codes(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "stepscan.cli", "test", "--method", "ols-cusum", NILE],
            capture_output=True, text=True, cwd=str(REPO))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["crossed"] is True
        assert "completed in" in proc.stderr

        usage = subprocess.run([sys.executable, "-m", "stepscan.cli", "frobnicate"],
                               capture_output=True, text=True, cwd=str(REPO))
        assert usage.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["--version"], ["--help"], ["test", "--help"], ["segment", "--help"],
        ["compare", "--help"], ["synth", "--help"],
    ])
    def test_version_and_help_exit_0(self, capsys, argv):
        # help strings are %-formatted only when printed
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("stepscan" if "--version" in argv else "usage:")

    def test_ctrl_c_exits_130_with_one_line_and_no_child(self, tmp_path):
        # SIGINT to the run's process group, as Ctrl-C sends it, once the run has
        # taken 1 s of CPU, deep in its first permutation test (about 10 s long).
        # On k usable CPUs the run has forked k - 1 replicate workers by then.
        path = write_monthly_csv(tmp_path, 600)
        proc = subprocess.Popen(
            [sys.executable, "-m", "stepscan.cli", "segment", "--method", "edivisive",
             "--permutations", "99999", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=str(REPO),
            start_new_session=True)
        try:
            started, cpu = time.monotonic(), 0.0
            while cpu < 1.0 and time.monotonic() - started < 30:
                time.sleep(0.05)
                with open(f"/proc/{proc.pid}/stat") as f:
                    ticks = f.read().rpartition(")")[2].split()[11:13]  # utime, stime
                cpu = sum(map(int, ticks)) / os.sysconf("SC_CLK_TCK")
            with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as f:
                children = [int(pid) for pid in f.read().split()]
            assert len(children) == len(os.sched_getaffinity(0)) - 1
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert proc.returncode == 130
        assert (out, err) == ("", "stepscan: interrupted\n")
        assert not any(running(pid) for pid in children)

    def test_oversized_csv_field_exits_1_with_one_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("DATE,value\n2000-01-01,1\n2001-01-01," + "1" * 200_000 + "\n")
        proc = subprocess.run([sys.executable, "-m", "stepscan.cli", "test", str(path)],
                              capture_output=True, text=True, cwd=str(REPO))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(f"stepscan: {path}:3: field larger than field limit")

    def test_dp_table_over_budget_exits_1_before_allocating(self, tmp_path):
        # (max_breaks + 2) * (n + 2) * 8 bytes = 1.15 GB, over the 1 GiB budget
        n = 12000
        path = write_monthly_csv(tmp_path, n)
        proc = subprocess.run(
            [sys.executable, "-m", "stepscan.cli", "segment", "--method", "dp",
             "--min-seg", "1", "--max-breaks", str(n - 1), str(path)],
            capture_output=True, text=True, cwd=str(REPO), timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert "1,152,288,016-byte" in lines[0]
        assert "--max-breaks" in lines[0] and "--min-seg" in lines[0]

    @pytest.mark.parametrize("intervals,planned", [
        # 72 bytes per drawn interval, plus 8 per distinct interval (2.0e8
        # of them) that the draw shuffles once it takes over 1/50 of them
        ("100000000", "8,799,600,024"),
        ("5000000", "1,959,600,024"),
    ])
    def test_wbs_intervals_over_budget_exit_1_before_allocating(self, tmp_path, intervals,
                                                               planned):
        # the address-space cap turns a missed check into a quick MemoryError
        n = 20000
        path = write_monthly_csv(tmp_path, n)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "stepscan.cli", "segment", "--method", "wbs",
             "--intervals", intervals, str(path)],
            capture_output=True, text=True, cwd=str(REPO), env=env, timeout=60,
            preexec_fn=cap_address_space)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert f"{planned}-byte" in lines[0] and f"{int(intervals):,} intervals" in lines[0]
        assert "--intervals" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["segment", "--method", "dp"],
        ["segment", "--method", "wbs"],
        ["segment", "--method", "edivisive", "--min-seg", "5"],
        ["test", "--method", "ols-cusum"],
    ])
    def test_overflowing_values_exit_1_with_one_line(self, tmp_path, argv):
        # finite values whose squares overflow used to end in an IndexError
        # traceback (wbs) or in RuntimeWarnings and a JSON emit error
        path = tmp_path / "huge.csv"
        rows = ["DATE,value"] + [f"{1900 + i}-01-01,{(-1) ** i * 1e308}" for i in range(20)]
        path.write_text("\n".join(rows) + "\n")
        proc = subprocess.run([sys.executable, "-m", "stepscan.cli", *argv, str(path)],
                              capture_output=True, text=True, cwd=str(REPO))
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("stepscan: values too large"), proc.stderr

    def test_non_finite_deflator_value_names_the_file_and_line(self, tmp_path, capsys):
        # the reader rejects it, so the message names the deflator file and
        # its line rather than a position in the deflated series
        lines = (FIXTURES / "gdpdef.csv").read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",nan"
        bad = tmp_path / "gdpdef.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, report, _ = run(["segment", "--method", "wbs", "--quarterly", "mean",
                               "--deflate", str(bad), str(FIXTURES / "oilprice_raw.csv")], tmp_path)
        assert (code, report) == (1, None)
        assert capsys.readouterr().err == f"stepscan: {bad}:6: bad value 'nan'\n"


_OIL_CHAIN = ["--quarterly", "mean", "--deflate", "fixtures/gdpdef.csv",
              "--deflate-base", "2009", "--log", "fixtures/oilprice_raw.csv"]

# sha256 of (JSON report, --plot CSV). A change that moves one of these
# changes output bytes on purpose and says so. Input paths are relative
# because the report records the path as given.
_GOLDEN_RUNS = {
    "test-ols-cusum": (
        ["test", "--method", "ols-cusum", "fixtures/nile.csv"],
        ("56d495f22333cac53218987af7e000de5aa4804e4ad80d364c54a6878c56918c",
         "ce0b61da95410d0366a125bfd8b250e1fac9ebd7b9f1cf99208ecc52fa843e2f")),
    "test-rec-cusum-long-run": (
        ["test", "--method", "rec-cusum", "--variance", "long-run", "fixtures/nile.csv"],
        ("5123ed6f574c71b49ae759be28db2a470037bf196aa2a42c6cb7c63b742a12bb",
         "22bc042e15ccba037c1fe6a391d3142f49724c0f69ade3f3f500c6ec9d50dee0")),
    "test-mosum": (
        ["test", "--method", "mosum", "--critical", "3", "fixtures/nile.csv"],
        ("dcabc1043dbfa8b164ff779c0a139f299f55cea7cfffdd0354721a8cea701d95",
         "c259f67327d42455b09c22af1818b35a9d43f0aeb56307cd2a6b8e37e71ca922")),
    "segment-dp": (
        ["segment", "--method", "dp", "--min-seg", "15", "--max-breaks", "5",
         "fixtures/nile.csv"],
        ("109dcb2c2d0ebaebfda9dc61fd09e6ace3cffd6f09c813014c913c103fcb8d43",
         "245cafa2e60a36511693c288a479ba7f0c3ed8f5d3e57758110a128b9d3a8798")),
    "segment-wbs": (
        ["segment", "--method", "wbs", "fixtures/nile.csv"],
        ("8ead6204192e36866921409e03b790fe8a791704d01dfd4a96b25c1a9b311703",
         "b17dab0ee88c50f281bd8634ea2af401dcc6b42a0234588c410dc7896e64273a")),
    "segment-edivisive": (
        ["segment", "--method", "edivisive", "--alpha", "2", "--min-seg", "15",
         "fixtures/nile.csv"],
        ("da33283b26831172ce5024431cf42470a7b9f1a0fe4a7699c37ccd02c82b7223",
         "245cafa2e60a36511693c288a479ba7f0c3ed8f5d3e57758110a128b9d3a8798")),
    "compare-oil": (
        ["compare", "--methods", "dp,edivisive", "--min-seg", "10", "--max-breaks", "15",
         "--alpha", "2", *_OIL_CHAIN],
        ("c8b7415896a984764b5474c91cb6aeb04a29dbd23c9297f525f47fc52cfdc520",
         "d0d6924972817b0d12dec2d8110e6403562290619e4cf85b127fc22b5d9ce177")),
}
_SYNTH = ["synth", "--means", "0,5,1", "--lengths", "10,10,10", "--seed", "3"]
# sha256 of synth's series CSV and --truth CSV
_GOLDEN_SYNTH = ("8089a429e5da0e6096783ff73ca7c6adfe16b8bc7bee3292fd3e61f1565229ce",
                 "aae8fd768ffccc1ba62d0e73cd644a3ca7970fd9a1d8d47f0bc75f940667b9e4")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """Reports, plot files and synth output keep their exact bytes."""

    @pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS))
    def test_report_and_plot_bytes(self, monkeypatch, tmp_path, capsys, name):
        argv, (report_sha, plot_sha) = _GOLDEN_RUNS[name]
        monkeypatch.chdir(REPO)
        out, plot = tmp_path / "report.json", tmp_path / "plot.csv"
        assert main([*argv, "--out", str(out), "--plot", str(plot)]) == 0
        assert (_sha256(out.read_bytes()), _sha256(plot.read_bytes())) == (report_sha, plot_sha)

    def test_synth_bytes(self, tmp_path, capsys):
        out, truth = tmp_path / "sig.csv", tmp_path / "truth.csv"
        assert main([*_SYNTH, "--out", str(out), "--truth", str(truth)]) == 0
        assert (_sha256(out.read_bytes()), _sha256(truth.read_bytes())) == _GOLDEN_SYNTH
        capsys.readouterr()
        assert main(_SYNTH) == 0
        assert _sha256(capsys.readouterr().out.encode()) == _GOLDEN_SYNTH[0]


# Calls made in one process, in order; each pair of neighbours shares options
# that must not leak from one call into the next.
_SEQUENCES = {
    "oil-chain-then-plain-nile": [
        ["segment", "--method", "dp", "--min-seg", "10", "--max-breaks", "5", *_OIL_CHAIN],
        ["segment", "--method", "dp", "fixtures/nile.csv"],
    ],
    "usage-error-then-good-call": [
        ["segment", "--method", "dp", "--log", "--max-breaks", "two", "fixtures/nile.csv"],
        ["segment", "--method", "dp", "--log", "fixtures/nile.csv"],
    ],
    "compare-then-segment": [
        ["compare", "--methods", "dp,wbs", "--min-seg", "15", "--seed", "4", "--log",
         "fixtures/nile.csv"],
        ["segment", "--method", "wbs", "fixtures/nile.csv"],
    ],
}


class TestParserReuse:
    """main() builds the parser once per process; no call sees another call's options."""

    @staticmethod
    def _call(argv, out, capsys):
        """(exit code, report bytes or None, stderr) of main(argv --out out)."""
        out.unlink(missing_ok=True)
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        err = capsys.readouterr().err
        err = err.split("stepscan: completed in")[0]  # drop the wall-clock line
        return code, (out.read_bytes() if out.exists() else None), err

    @pytest.mark.parametrize("name", sorted(_SEQUENCES))
    def test_each_call_equals_the_call_alone(self, monkeypatch, tmp_path, capsys, name):
        monkeypatch.chdir(REPO)
        out = tmp_path / "report.json"
        alone = []
        for argv in _SEQUENCES[name]:
            stepscan.cli.build_parser.cache_clear()
            alone.append(self._call(argv, out, capsys))
        stepscan.cli.build_parser.cache_clear()
        together = [self._call(argv, out, capsys) for argv in _SEQUENCES[name]]
        assert stepscan.cli.build_parser.cache_info().misses == 1
        assert together == alone
        assert [code for code, _, _ in together] in ([0, 0], [2, 0])

    def test_plain_run_after_a_transform_chain_has_none(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(REPO)
        first, second = _SEQUENCES["oil-chain-then-plain-nile"]
        out = tmp_path / "report.json"
        self._call(first, out, capsys)
        assert [t[0] for t in json.loads(out.read_text())["input"]["transforms"]] == [
            "quarterly", "deflate", "log"]
        self._call(second, out, capsys)
        assert json.loads(out.read_text())["input"]["transforms"] == []
