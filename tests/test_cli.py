from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, REPO

import stepscan as ss
from stepscan.cli import main

NILE = str(FIXTURES / "nile.csv")


def run(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None), out


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

    def test_long_run_variance_option(self, tmp_path):
        code, report, _ = run(["test", "--method", "ols-cusum", "--variance", "long-run",
                               NILE], tmp_path)
        assert code == 0
        assert report["results"]["variance"]["kind"] == "long_run"
        assert report["results"]["variance"]["bandwidth"] == 4

    def test_unknown_method_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["test", "--method", "chow", NILE])
        assert err.value.code == 2

    def test_missing_file_exits_1(self, capsys):
        assert main(["test", "--method", "ols-cusum", "no-such.csv"]) == 1

    def test_plot_csv_has_boundaries(self, tmp_path):
        plot = tmp_path / "plot.csv"
        code = main(["test", "--method", "ols-cusum", NILE,
                     "--out", str(tmp_path / "r.json"), "--plot", str(plot)])
        assert code == 0
        lines = plot.read_text().splitlines()
        assert lines[0] == "t,process,boundary_upper,boundary_lower"
        assert len(lines) == 102  # origin + 100 points + header


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
        back = ss.read_csv(str(plot), ss.CsvSpec(date_column="date", value_column="value"))
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

    @pytest.mark.parametrize("min_seg", ["nan%", "inf%", "abc", "1.5"])
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

    def test_same_method_twice_rejected(self, capsys):
        assert main(["compare", "--methods", "dp,dp", NILE]) == 2

    def test_needs_two_methods(self, capsys):
        assert main(["compare", "--methods", "dp", NILE]) == 2

    def test_min_seg_zero_is_usage_error(self, capsys):
        assert main(["compare", "--methods", "dp,wbs", "--min-seg", "0", NILE]) == 2
        assert "--min-seg" in capsys.readouterr().err


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


_FUZZ_VALUES = ["0", "-1", "1", "3", "15", "0%", "10%", "nan%", "abc", "0.5", "nan"]
_DATING_FLAGS = ["--max-breaks", "--level", "--alpha", "--threshold-c", "--seed"]
_FUZZ_FLAGS = {
    "test": ["--level", "--variance", "--lrv-bandwidth", "--mosum-bandwidth", "--critical"],
    "segment": _DATING_FLAGS,
    "compare": _DATING_FLAGS,
}


@st.composite
def fuzz_argv(draw):
    """argv from a small grammar of subcommands, flags and hostile values."""
    value = st.sampled_from(_FUZZ_VALUES)
    command = draw(st.sampled_from(["test", "segment", "compare", "bogus"]))
    argv = [command]
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
        min_seg = draw(st.sampled_from([None, "0", "0%", "-1", "1", "15", "10%", "nan%", "abc"]))
        if min_seg is not None:
            argv += ["--min-seg", min_seg]
    for flag in _FUZZ_FLAGS.get(command, []):
        if draw(st.booleans()):
            argv += [flag, draw(value)]
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

    def test_dp_table_over_budget_exits_1_before_allocating(self, tmp_path):
        # (max_breaks + 2) * (n + 2) * 8 bytes = 1.15 GB, over the 1 GiB budget
        n = 12000
        path = tmp_path / "long.csv"
        rows = ["DATE,value"] + [f"{1000 + i // 12}-{i % 12 + 1:02d}-01,{i % 7}"
                                 for i in range(n)]
        path.write_text("\n".join(rows) + "\n")
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
