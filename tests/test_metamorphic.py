from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepscan as ss


@st.composite
def separated_steps(draw):
    """Unit-noise steps of at least 6 sigma over segments of 20 to 40 points."""
    k = draw(st.integers(2, 4))
    jumps = draw(st.lists(st.floats(6, 10), min_size=k - 1, max_size=k - 1))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k - 1, max_size=k - 1))
    levels = np.cumsum([0.0] + [j * s for j, s in zip(jumps, signs)])
    lengths = draw(st.lists(st.integers(20, 40), min_size=k, max_size=k))
    sig, _ = ss.make_step_signal(levels.tolist(), lengths, seed=draw(st.integers(0, 2**16)))
    return sig


def dp_fit(sig):
    return ss.select_breaks_bic(ss.build_rss_triangle(sig, 10), min(5, sig.n // 10 - 1))


def all_breaks(sig):
    dp = dp_fit(sig)
    wbs = ss.wbs_segment(sig, ss.WbsConfig(num_intervals=200, seed=1))
    ediv = ss.e_divisive(sig, ss.EdivConfig(min_size=10, alpha=1.0,
                                            num_permutations=49, seed=2))
    return dp.breaks, wbs.breaks, ediv.breaks


@settings(max_examples=25, deadline=None)
@given(separated_steps(), st.floats(0.1, 10), st.floats(-100, 100))
def test_breaks_invariant_under_positive_affine_maps(sig, c, d):
    moved = sig.with_values(c * sig.values + d)
    assert all_breaks(moved) == all_breaks(sig)


@settings(max_examples=40, deadline=None)
@given(separated_steps())
def test_dp_breaks_mirror_under_time_reversal(sig):
    fwd = dp_fit(sig)
    back = dp_fit(sig.with_values(sig.values[::-1]))
    assert back.breaks == tuple(sig.n - b for b in reversed(fwd.breaks))
    m_fwd, bic_fwd = zip(*fwd.criterion_trace)
    m_back, bic_back = zip(*back.criterion_trace)
    assert m_back == m_fwd
    assert bic_back == pytest.approx(bic_fwd, rel=1e-9)


def ediv_fit(sig, alpha):
    return ss.e_divisive(sig, ss.EdivConfig(min_size=10, alpha=alpha,
                                            num_permutations=49, seed=2))


@settings(max_examples=30, deadline=None)
@given(separated_steps(), st.integers(-400, 400))
def test_power_of_two_scaling_is_exact(sig, k):
    # multiplying by 2**k is exact for normal floats, and so is every sum,
    # square root and ratio the kernels take of the scaled values
    c = 2.0**k
    moved = sig.with_values(c * sig.values)
    dp, dp_moved = dp_fit(sig), dp_fit(moved)
    assert dp_moved.breaks == dp.breaks
    assert dp_moved.segment_means == tuple(c * m for m in dp.segment_means)
    assert dp_moved.rss_total == c * c * dp.rss_total
    cfg = ss.WbsConfig(num_intervals=200, seed=1)
    wbs, wbs_moved = ss.wbs_segment(sig, cfg), ss.wbs_segment(moved, cfg)
    assert wbs_moved.breaks == wbs.breaks
    assert wbs_moved.criterion_trace == tuple((b, c * t) for b, t in wbs.criterion_trace)
    for alpha in (1.0, 2.0):
        ediv, ediv_moved = ediv_fit(sig, alpha), ediv_fit(moved, alpha)
        assert ediv_moved.breaks == ediv.breaks
        assert ediv_moved.criterion_trace == ediv.criterion_trace
    for build in (lambda s: ss.build_process(s, "ols_cusum"),
                  lambda s: ss.build_process(s, "rec_cusum"),
                  lambda s: ss.mosum_process(s, 0.2)):
        assert build(moved).path.tobytes() == build(sig).path.tobytes()
    assert ss.long_run_variance(moved).value == c * c * ss.long_run_variance(sig).value
