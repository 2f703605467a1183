"""The runnable experiments in scripts/ exit 0 and print the paper's dates."""

from __future__ import annotations

import shutil
import subprocess
import sys

from conftest import REPO


def run_script(name, *args):
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_nile_analysis_dates_the_1898_shift(tmp_path):
    proc = run_script("nile_analysis.py", "--plot-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "break at 1898 (observation 28)" in proc.stdout
    assert (tmp_path / "nile_step_fit.csv").is_file()


def test_wti_dating_runs_all_three_methods():
    proc = run_script("wti_dating.py")
    assert proc.returncode == 0, proc.stderr
    for name in ("dp", "edivisive", "wbs(cap 10)"):
        assert f"\n{name}: " in proc.stdout
    assert "1973Q4" in proc.stdout


def test_rebuild_fixtures_reproduces_the_checked_in_csvs(tmp_path):
    # the script writes to fixtures/ next to its own scripts/ directory
    (tmp_path / "scripts").mkdir()
    shutil.copy(REPO / "scripts" / "rebuild_fixtures.py", tmp_path / "scripts")
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "rebuild_fixtures.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("nile.csv", "oilprice_raw.csv", "gdpdef.csv"):
        rebuilt = (tmp_path / "fixtures" / name).read_bytes()
        assert rebuilt == (REPO / "fixtures" / name).read_bytes(), name
