from __future__ import annotations

import contextlib
import itertools
import os
import pathlib
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import stepscan as ss

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

# The whole suite is reproducible run to run, property tests included.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@st.composite
def awkward_values(draw, n):
    """Constant runs of integer or wide-ranging levels, optional noise, odd scales."""
    level = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False))
    runs = draw(st.lists(st.tuples(level, st.integers(1, 12)), min_size=1))
    v = np.array([x for x, k in runs for _ in range(k)] * n)[:n]
    if draw(st.booleans()):
        v = v + draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    return v * draw(st.sampled_from([1.0, 1e-6, 1e6]))


def brute_force_breaks(values, m, min_len, rss=None):
    """Exhaustive minimum-RSS search over all admissible partitions.

    Independent oracle for the dynamic program's search: enumerates
    break tuples in lexicographic order and keeps the first minimum,
    which is exactly the DP tie rule. Segment RSS values accumulate
    right to left to mirror the DP summation order, so equal optima
    compare exactly when the same rss primitive is supplied; with the
    default direct-summation rss the totals agree to rounding only.
    """
    v = np.asarray(values, dtype=float)
    n = v.size

    if rss is None:
        def rss(i, j):  # 1-based inclusive, no cumulants
            seg = v[i - 1 : j]
            ssum = seg.sum()
            qsum = (seg * seg).sum()
            return max(qsum - ssum * ssum / seg.size, 0.0)

    best = None
    for breaks in itertools.combinations(range(1, n), m):
        edges = (0,) + breaks + (n,)
        if any(b - a < min_len for a, b in zip(edges, edges[1:])):
            continue
        total = 0.0
        for a, b in zip(reversed(edges[:-1]), reversed(edges[1:])):
            total = rss(a + 1, b) + total
        if best is None or total < best[0]:
            best = (total, breaks)
    return best


@contextlib.contextmanager
def split_work(module, constant, cpus, per_process=1, fork_error=None):
    """Work of per_process units per process or more splits over cpus usable CPUs.

    module.constant is the work one process takes; yields the spy on
    os.fork, which raises fork_error when given.
    """
    with (mock.patch.object(module, constant, per_process),
          mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))),
          mock.patch.object(os, "fork", wraps=os.fork, side_effect=fork_error) as fork):
        yield fork


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def second_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture(scope="session")
def nile() -> ss.TimeSeries:
    return ss.read_csv(str(FIXTURES / "nile.csv"))


@pytest.fixture(scope="session")
def wti_log_real() -> ss.TimeSeries:
    """Quarterly log real oil price, the dating benchmark series."""
    oil = ss.read_csv(str(FIXTURES / "oilprice_raw.csv"))
    quarterly = ss.monthly_to_quarterly(oil, how="mean")
    deflator = ss.read_csv(str(FIXTURES / "gdpdef.csv"))
    return ss.log_transform(ss.deflate(quarterly, deflator, base=2009))


@pytest.fixture()
def fixtures_dir() -> pathlib.Path:
    return FIXTURES
