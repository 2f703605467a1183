from __future__ import annotations

import numpy as np
import pytest

import stepscan as ss


def test_noiseless_step_fixture():
    s, breaks = ss.make_step_signal([0, 5], [50, 50], sigma=0.0)
    assert breaks == (50,)
    np.testing.assert_array_equal(s.values, np.repeat([0.0, 5.0], 50))


def test_reproducible_for_fixed_seed():
    a, _ = ss.make_step_signal([0, 1], [20, 20], sigma=1.0, seed=7)
    b, _ = ss.make_step_signal([0, 1], [20, 20], sigma=1.0, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    c, _ = ss.make_step_signal([0, 1], [20, 20], sigma=1.0, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_ar1_noise_autocorrelation():
    s, _ = ss.make_step_signal([0.0], [20000], noise="ar1", rho=0.5, sigma=1.0, seed=3)
    _, rho = ss.fit_ar1(s)
    assert rho == pytest.approx(0.5, abs=0.05)


def test_breaks_follow_lengths():
    _, breaks = ss.make_step_signal([1, 2, 3], [4, 6, 5], sigma=0.0)
    assert breaks == (4, 10)


def test_invalid_specs():
    with pytest.raises(ValueError):
        ss.make_step_signal([1, 2], [10], sigma=0.0)
    with pytest.raises(ValueError):
        ss.make_step_signal([1], [0], sigma=0.0)
    with pytest.raises(ValueError):
        ss.make_step_signal([1], [10], sigma=-1.0)
    with pytest.raises(ValueError):
        ss.make_step_signal([1], [10], noise="ar1", rho=1.5)
    with pytest.raises(ValueError):
        ss.make_step_signal([1], [10], noise="cauchy")


@pytest.mark.parametrize("kwargs, name", [
    ({"sigma": float("nan")}, "sigma"),
    ({"sigma": float("inf")}, "sigma"),
    ({"means": [0.0, float("nan")]}, "means"),
    ({"means": [float("-inf"), 1.0]}, "means"),
])
def test_non_finite_spec_names_its_parameter(kwargs, name):
    spec = {"means": [0.0, 5.0], "lengths": [10, 10], "sigma": 1.0, **kwargs}
    with pytest.raises(ValueError, match=name):
        ss.make_step_signal(**spec)


@pytest.mark.parametrize("lengths", [[2_921_940, 1], [3_000_000], [10 ** 12]])
def test_lengths_past_the_calendar_are_rejected_before_any_array(lengths):
    # daily dates from 2000-01-01 end at 9999-12-31, observation 2,921,940;
    # 10**12 observations would ask numpy for 7.28 TiB
    with pytest.raises(ValueError, match="at most 2,921,940 observations"):
        ss.make_step_signal([0.0] * len(lengths), lengths)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        ss.make_step_signal([0.0, 5.0], [10, 10], seed=-1)
