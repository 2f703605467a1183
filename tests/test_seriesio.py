from __future__ import annotations

import numpy as np
import pytest

import stepscan as ss


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadCsv:
    def test_two_row_quarterly_inference(self, tmp_path):
        path = write(tmp_path, "DATE,VALUE\n1947-01-01,18.0\n1947-04-01,18.2\n")
        s = ss.read_csv(path)
        assert s.n == 2
        assert isinstance(s.index, ss.PeriodIndex)
        assert s.index.freq == 4
        assert s.period_label(1) == "1947Q1"

    def test_annual_and_monthly_inference(self, tmp_path):
        annual = ss.read_csv(write(tmp_path, "DATE,x\n1871-01-01,1\n1872-01-01,2\n1873-01-01,3\n"))
        assert annual.index.freq == 1
        monthly = ss.read_csv(write(tmp_path, "DATE,x\n1990-01-01,1\n1990-02-01,2\n1990-03-01,3\n"))
        assert monthly.index.freq == 12

    def test_irregular_dates_fall_back_to_date_index(self, tmp_path):
        s = ss.read_csv(write(tmp_path, "DATE,x\n2020-01-02,1\n2020-01-03,2\n2020-01-06,3\n"))
        assert isinstance(s.index, ss.DateIndex)
        assert s.period_label(3) == "2020-01-06"

    def test_interior_gap_is_an_error_with_the_date(self, tmp_path):
        path = write(tmp_path, "DATE,x\n2000-01-01,1\n2000-04-01,.\n2000-07-01,3\n")
        with pytest.raises(ss.DataError, match="2000-04-01"):
            ss.read_csv(path)

    def test_end_gaps_are_trimmed(self, tmp_path):
        path = write(tmp_path, "DATE,x\n2000-01-01,.\n2000-04-01,1\n2000-07-01,2\n2000-10-01,NA\n")
        s = ss.read_csv(path)
        assert s.n == 2
        assert s.period_label(1) == "2000Q2"

    def test_bad_value_reports_line_number(self, tmp_path):
        path = write(tmp_path, "DATE,x\n2000-01-01,1\n2000-02-01,oops\n")
        with pytest.raises(ss.ParseError, match=":3"):
            ss.read_csv(path)

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_reports_line_number(self, tmp_path, raw):
        path = write(tmp_path, f"DATE,x\n2000-01-01,1\n2000-02-01,{raw}\n2000-03-01,2\n")
        with pytest.raises(ss.ParseError, match=f"^{path}:3: bad value '{raw}'$"):
            ss.read_csv(path)

    def test_bad_date_reports_line_number(self, tmp_path):
        path = write(tmp_path, "DATE,x\n2000-01-01,1\nnot-a-date,2\n")
        with pytest.raises(ss.ParseError, match=":3"):
            ss.read_csv(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "when,x\n2000-01-01,1\n")
        with pytest.raises(ss.ParseError, match="DATE"):
            ss.read_csv(path)

    def test_oversized_field_names_the_line(self, tmp_path):
        path = write(tmp_path, "DATE,x\n2000-01-01,1\n2001-01-01," + "1" * 200_000 + "\n")
        with pytest.raises(ss.ParseError, match=f"^{path}:3: field larger than field limit"):
            ss.read_csv(path)

    def test_value_column_before_date(self, tmp_path):
        first = ss.read_csv(write(tmp_path, "value,DATE\n1,2000-01-01\n2,2000-04-01\n",
                                  "first.csv"))
        second = ss.read_csv(write(tmp_path, "DATE,value\n2000-01-01,1\n2000-04-01,2\n",
                                   "second.csv"))
        np.testing.assert_array_equal(first.values, second.values)
        assert first.index == second.index
        assert first.label == second.label == "value"

    @pytest.mark.parametrize("text,error,message", [
        ("", ss.ParseError, "empty file"),
        ("DATE\n2000-01-01\n", ss.ParseError, "need at least two columns"),
        ("DATE,x\n2000-01-01,.\n2001-01-01,NA\n", ss.DataError, "no usable observations"),
    ])
    def test_unreadable_files(self, tmp_path, text, error, message):
        with pytest.raises(error, match=message):
            ss.read_csv(write(tmp_path, text))

    def test_one_row_file_gets_its_date(self, tmp_path):
        s = ss.read_csv(write(tmp_path, "DATE,x\n2000-01-01,4.5\n"))
        assert s.n == 1
        assert isinstance(s.index, ss.DateIndex)
        assert s.period_label(1) == "2000-01-01"

    def test_blank_rows_are_skipped(self, tmp_path):
        s = ss.read_csv(write(tmp_path, "DATE,x\n\n2000-01-01,1\n , \n2001-01-01,2\n\n"))
        np.testing.assert_array_equal(s.values, [1.0, 2.0])
        assert s.index.freq == 1

    def test_crlf_and_bom_tolerated(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"\xef\xbb\xbfDATE,x\r\n2000-01-01,1\r\n2001-01-01,2\r\n")
        s = ss.read_csv(str(path))
        assert s.n == 2

    def test_nonincreasing_dates(self, tmp_path):
        path = write(tmp_path, "DATE,x\n2001-01-01,1\n2000-01-01,2\n")
        with pytest.raises(ss.ParseError, match="increasing"):
            ss.read_csv(path)


class TestRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        s = ss.TimeSeries(rng.normal(size=12), ss.PeriodIndex(1995, 2, 4), label="x")
        path = str(tmp_path / "rt.csv")
        ss.write_csv(s, path)
        back = ss.read_csv(path)
        np.testing.assert_array_equal(back.values, s.values)
        assert isinstance(back.index, ss.PeriodIndex)
        assert back.index.stamp(1) == s.index.stamp(1)
        assert back.index.freq == 4

    def test_daily_round_trip(self, tmp_path):
        s, _ = ss.make_step_signal([1.0, 2.0], [5, 5], sigma=0.3, seed=1)
        path = str(tmp_path / "daily.csv")
        ss.write_csv(s, path)
        back = ss.read_csv(path)
        np.testing.assert_array_equal(back.values, s.values)
        assert [back.period_date(i) for i in (1, 10)] == [s.period_date(1), s.period_date(10)]


class TestMonthlyToQuarterly:
    def test_single_quarter_mean(self):
        s = ss.TimeSeries([1.0, 2.0, 3.0], ss.PeriodIndex(2000, 1, 12))
        q = ss.monthly_to_quarterly(s)
        np.testing.assert_array_equal(q.values, [2.0])
        assert q.period_label(1) == "2000Q1"

    def test_constant_series_stays_constant(self):
        s = ss.TimeSeries(np.full(24, 7.0), ss.PeriodIndex(2000, 1, 12))
        q = ss.monthly_to_quarterly(s)
        np.testing.assert_array_equal(q.values, np.full(8, 7.0))

    def test_partial_quarters_dropped_with_warning(self):
        s = ss.TimeSeries(np.arange(14.0), ss.PeriodIndex(2000, 1, 12))
        with pytest.warns(UserWarning, match="2 trailing"):
            q = ss.monthly_to_quarterly(s)
        assert q.n == 4

    def test_misaligned_start_dropped(self):
        s = ss.TimeSeries(np.arange(13.0), ss.PeriodIndex(2000, 2, 12))
        with pytest.warns(UserWarning, match="2 leading"):
            q = ss.monthly_to_quarterly(s)
        assert q.n == 3
        assert q.period_label(1) == "2000Q2"

    def test_mean_preserves_global_mean_on_full_quarters(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=36)
        s = ss.TimeSeries(v, ss.PeriodIndex(2000, 1, 12))
        q = ss.monthly_to_quarterly(s, "mean")
        assert q.values.mean() == pytest.approx(v.mean(), rel=1e-12)

    def test_last_takes_quarter_end(self):
        s = ss.TimeSeries(np.arange(6.0), ss.PeriodIndex(2000, 1, 12))
        q = ss.monthly_to_quarterly(s, "last")
        np.testing.assert_array_equal(q.values, [2.0, 5.0])

    def test_unknown_aggregation(self):
        s = ss.TimeSeries(np.arange(6.0), ss.PeriodIndex(2000, 1, 12))
        with pytest.raises(ValueError, match="unknown aggregation 'median'"):
            ss.monthly_to_quarterly(s, "median")

    def test_no_full_quarter(self):
        s = ss.TimeSeries(np.arange(4.0), ss.PeriodIndex(2000, 2, 12))
        with pytest.raises(ss.DataError, match="no full quarter"):
            ss.monthly_to_quarterly(s)

    def test_requires_monthly_input(self):
        s = ss.TimeSeries([1.0, 2.0], ss.PeriodIndex(2000, 1, 4))
        with pytest.raises(ss.DataError):
            ss.monthly_to_quarterly(s)


class TestVendoredFixtures:
    def test_nile_fixture_shape(self, nile):
        assert nile.n == 100
        assert nile.period_label(1) == "1871"
        assert nile.period_label(100) == "1970"
        assert nile.values[0] == 1120.0

    def test_wti_pipeline_shape(self, wti_log_real):
        assert wti_log_real.n == 267
        assert wti_log_real.period_label(1) == "1947Q1"
        assert wti_log_real.period_label(267) == "2013Q3"

    def test_deflation_hand_check(self, fixtures_dir):
        oil = ss.read_csv(str(fixtures_dir / "oilprice_raw.csv"))
        q = ss.monthly_to_quarterly(oil)
        deflator = ss.read_csv(str(fixtures_dir / "gdpdef.csv"))
        real = ss.deflate(q, deflator, base=2009)
        base = np.mean([deflator.values[deflator.index.position(2009, k) - 1]
                        for k in (1, 2, 3, 4)])
        expected = q.values[0] / (deflator.values[0] / base)
        assert real.values[0] == pytest.approx(expected, rel=1e-12)
        # nominal ~1.70 in early-1947 prices is ~13-14 in 2009 dollars
        assert 10.0 < real.values[0] < 20.0
