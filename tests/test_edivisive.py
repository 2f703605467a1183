from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FIXTURES, REPO, assert_no_child, awkward_values, second_thread,
                      split_work)

import stepscan as ss
import stepscan.edivisive
from stepscan.cli import main
from stepscan.edivisive import (_permutations, _rank_sums, _split_divergences, best_split,
                                permutation_test)

EPS = np.finfo(float).eps


def prefix_matrix_split_divergences(values, alpha, min_size):
    """Reference at alpha < 2: Q from the (n+1)^2 prefix sum of all distances.

    The kernel e-divisive used before the blocked row sums; it also
    returns the total pairwise distance p[n, n] that the tie rule needs.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2 * min_size:
        return None
    bs = np.arange(min_size, n - min_size + 1)
    nl = bs.astype(float)
    nr = n - nl
    d = np.abs(v[:, None] - v[None, :]) ** alpha
    p = np.zeros((n + 1, n + 1))
    p[1:, 1:] = d.cumsum(axis=0).cumsum(axis=1)
    total = p[n, n]
    corner = p[bs, bs]
    edge = p[bs, n]
    between = edge - corner
    within_l = corner
    within_r = total - 2.0 * edge + corner
    energy = 2.0 * between / (nl * nr) - within_l / (nl * nl) - within_r / (nr * nr)
    return bs, nl * nr / n * energy, float(total)


@st.composite
def bumpy_values(draw, n):
    """A constant level with a few bumps: permuted copies often tie exactly."""
    v = np.full(n, draw(st.sampled_from([0.0, 0.7, -2.3])))
    for at in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        v[at] += draw(st.sampled_from([0.1, 0.3, 1.1, -0.7]))
    return v * draw(st.sampled_from([1.0, 1e-6, 1e6]))


def exact_max_q(values, alpha, min_size):
    """Largest Q over admissible splits in exact rational arithmetic (alpha 1 or 2)."""
    x = [Fraction(float(a)) for a in values]
    n = len(x)
    power = int(alpha)  # a float power would round

    def dist(u, w):
        return sum(abs(a - b) ** power for a in u for b in w)

    return max(Fraction(b * (n - b), n) * (2 * dist(x[:b], x[b:]) / (b * (n - b))
                                           - dist(x[:b], x[:b]) / b ** 2
                                           - dist(x[b:], x[b:]) / (n - b) ** 2)
               for b in range(min_size, n - min_size + 1))


# row blocks that cut short series at many places, and the production one
BLOCKS = st.sampled_from([1, 3, 7, stepscan.edivisive._BLOCK_ROWS])


def split_q(x, y, alpha):
    """Q of concat(x, y) split at b = len(x), and the total pairwise distance T."""
    v = np.concatenate((x, y)).astype(float)
    bs, q, _ = _split_divergences(v, alpha, min(len(x), len(y)))
    total = float((np.abs(v[:, None] - v[None, :]) ** alpha).sum())
    return float(q[bs == len(x)][0]), v.size * EPS * total


class TestEnergyDivergence:
    def test_identical_multisets_are_indistinguishable(self):
        x = np.array([1.0, 2.0, 5.0, 2.0])
        for alpha in (1.0, 2.0):
            q, tol = split_q(x, x.copy(), alpha)
            assert abs(q) <= tol

    def test_hand_computed_example(self):
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 1.0])
        assert split_q(x, y, 2.0)[0] == pytest.approx(2.0, rel=1e-14)
        assert split_q(x, y, 1.0)[0] == pytest.approx(2.0, rel=1e-14)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=15),
           st.lists(st.floats(-10, 10), min_size=2, max_size=15))
    def test_alpha_two_is_twice_squared_mean_difference(self, xs, ys):
        x, y = np.asarray(xs), np.asarray(ys)
        n, m = x.size, y.size
        expected = n * m / (n + m) * 2.0 * (x.mean() - y.mean()) ** 2
        assert split_q(x, y, 2.0)[0] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @settings(max_examples=60)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=12),
           st.lists(st.floats(-5, 5), min_size=1, max_size=12),
           st.sampled_from([0.5, 1.0, 1.5]))
    def test_nonnegative_for_alpha_below_two(self, xs, ys, alpha):
        q, tol = split_q(xs, ys, alpha)
        assert q >= -tol

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("v", [
        np.random.default_rng(4).normal(3.0, 2.0, 40),
        np.random.default_rng(5).integers(-9, 9, 7).astype(float),
        np.full(12, -2.5),  # its float mean is exact, so alpha = 2 also totals 0
    ], ids=["normal", "integers", "constant"])
    def test_total_is_the_ordered_pair_sum(self, v, alpha):
        total = _split_divergences(v, alpha, 2)[2]
        want = math.fsum(abs(a - b) ** alpha for a in v for b in v)
        assert total == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_alpha_domain(self):
        for alpha in (0.0, -1.0, 2.5, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                ss.EdivConfig(alpha=alpha)

    def test_permutation_count_domain(self):
        # a replicate index seeds as one uint32 word, so r < 2**32
        assert ss.EdivConfig(num_permutations=2**32).num_permutations == 2**32
        with pytest.raises(ValueError, match=r"at most 2\*\*32, got 4294967297"):
            ss.EdivConfig(num_permutations=2**32 + 1)


class TestBestSplit:
    def test_noiseless_step_found_exactly(self):
        v = np.repeat([0.0, 4.0], [12, 8])
        for min_size in (2, 4, 8):
            b, q = best_split(v, ss.EdivConfig(min_size=min_size, alpha=2.0))
            assert b == 12
        b1, _ = best_split(v, ss.EdivConfig(min_size=4, alpha=1.0))
        assert b1 == 12

    def test_constant_segment_divergence_is_tiny(self):
        b, q = best_split(np.full(20, 3.3), ss.EdivConfig(min_size=4, alpha=1.0))
        assert q <= 1e-12

    def test_too_short_signals_no_split(self):
        assert best_split(np.arange(5.0), ss.EdivConfig(min_size=3)) is None

    def test_alpha_one_and_two_usually_agree_on_mean_shifts(self):
        agree = 0
        for seed in range(50):
            rng = np.random.default_rng([29, seed])
            v = np.concatenate([rng.normal(0, 1, 30), rng.normal(1.5, 1, 30)])
            b1, _ = best_split(v, ss.EdivConfig(min_size=5, alpha=1.0))
            b2, _ = best_split(v, ss.EdivConfig(min_size=5, alpha=2.0))
            agree += b1 == b2
        assert agree >= 45

    def test_min_size_respected(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=30)
        b, _ = best_split(v, ss.EdivConfig(min_size=10, alpha=1.0))
        assert 10 <= b <= 20


class TestPermutationTest:
    def test_constant_segment_gives_p_one(self):
        cfg = ss.EdivConfig(min_size=3, alpha=2.0, num_permutations=99, seed=1)
        v = np.full(12, 7.0)
        b, _ = best_split(v, cfg)
        assert permutation_test(v, b, cfg) == 1.0

    def test_huge_step_gives_minimal_p(self):
        cfg = ss.EdivConfig(min_size=5, alpha=2.0, num_permutations=199, seed=2)
        v = np.repeat([0.0, 50.0], [20, 20]) + np.random.default_rng(3).normal(0, 0.1, 40)
        b, _ = best_split(v, cfg)
        assert permutation_test(v, b, cfg) == pytest.approx(1 / 200)

    def test_unsplittable_segment(self):
        cfg = ss.EdivConfig(min_size=5, num_permutations=9)
        with pytest.raises(ss.DataError, match="segment of 9 observations admits no split"):
            permutation_test(np.arange(9.0), 4, cfg)

    @pytest.mark.parametrize("b", [4, 16])
    def test_split_must_respect_min_size(self, b):
        cfg = ss.EdivConfig(min_size=5, num_permutations=9)
        with pytest.raises(ValueError, match=f"split {b} violates min_size 5"):
            permutation_test(np.arange(20.0), b, cfg)

    def test_deterministic_in_seed(self):
        cfg = ss.EdivConfig(min_size=5, alpha=1.0, num_permutations=49, seed=9)
        rng = np.random.default_rng(4)
        v = rng.normal(size=40)
        b, _ = best_split(v, cfg)
        assert permutation_test(v, b, cfg, seed_key=3) == permutation_test(v, b, cfg, seed_key=3)

    def test_null_pvalues_approximately_uniform(self):
        cfg = ss.EdivConfig(min_size=5, alpha=2.0, num_permutations=99, seed=11)
        ps = []
        for rep in range(200):
            rng = np.random.default_rng([13, rep])
            v = rng.standard_normal(60)
            b, _ = best_split(v, cfg)
            ps.append(permutation_test(v, b, cfg, seed_key=rep))
        ks = scipy.stats.kstest(ps, "uniform").statistic
        assert ks < 0.1


class TestReplicateStreams:
    """Replicate r of test k is default_rng([seed, k, r]).permutation(n), bit for bit.

    The batched seeding restates NumPy's SeedSequence and PCG64 seeding;
    this fails if NumPy ever changes either.
    """

    @pytest.mark.parametrize("n", [2, 31, 60, 400])
    def test_rows_equal_default_rng_permutations(self, n):
        step = max(1, stepscan.edivisive._BATCH_CELLS // n)  # rows per permutation_test batch
        ranges = [(0, 3), (step - 2, step), (step, step + 2),  # both sides of a batch edge
                  (2**32 - 3, 2**32)]  # the last replicates EdivConfig admits
        gen = np.random.Generator(np.random.PCG64(0))
        # 1 to 7 seed words, 1 or 2 key words and r: entropy rows of 3 to 10
        # words, so the hash mixes 0 to 6 columns beyond its pool of four
        for seed in [0, 1, 2**32 - 1, 2**32, 123456789012, 2**40 + 5, 2**64 + 3,
                     2**96 + 1, 2**150 + 9, 2**200]:
            for key in [0, 7, 2**33]:
                for first, stop in ranges:
                    want = np.array([np.random.default_rng([seed, key, r]).permutation(n)
                                     for r in range(first, stop)])
                    got = _permutations(gen, n, seed, key, first, stop)
                    assert got.dtype == want.dtype
                    assert got.tolist() == want.tolist(), (seed, key, first)


class TestEDivisive:
    def test_constant_series_has_no_breaks(self):
        sig, _ = ss.make_step_signal([1.5], [40], sigma=0.0)
        seg = ss.e_divisive(sig, ss.EdivConfig(min_size=5))
        assert seg.breaks == ()

    def test_noiseless_two_steps_exact(self):
        sig, breaks = ss.make_step_signal([0, 4, 1], [20, 20, 20], sigma=0.0)
        seg = ss.e_divisive(sig, ss.EdivConfig(min_size=5, alpha=2.0, seed=0))
        assert seg.breaks == breaks
        # acceptance order follows divergence size: the larger 0->4 move first
        assert seg.criterion_trace is not None
        assert all(p <= 0.05 for _, p in seg.criterion_trace)

    def test_deterministic_given_seed(self):
        sig, _ = ss.make_step_signal([0, 2], [30, 30], sigma=1.0, seed=6)
        cfg = ss.EdivConfig(min_size=8, alpha=2.0, seed=21)
        a = ss.e_divisive(sig, cfg)
        b = ss.e_divisive(sig, cfg)
        assert a.breaks == b.breaks
        assert a.criterion_trace == b.criterion_trace

    def test_breaks_invariant_under_affine_maps(self):
        sig, _ = ss.make_step_signal([0, 2, -1], [25, 25, 25], sigma=0.5, seed=7)
        moved = sig.with_values(3.0 - 4.0 * sig.values)
        cfg = ss.EdivConfig(min_size=8, alpha=1.0, seed=5)
        assert ss.e_divisive(sig, cfg).breaks == ss.e_divisive(moved, cfg).breaks

    def test_max_breaks_cap(self):
        sig, _ = ss.make_step_signal([0, 3, 0, 3], [15, 15, 15, 15], sigma=0.0)
        seg = ss.e_divisive(sig, ss.EdivConfig(min_size=5, alpha=2.0, max_breaks=2))
        assert seg.num_breaks == 2

    def test_kth_test_of_a_run_uses_seed_key_k(self):
        # the README's rule: the k-th test draws from default_rng([seed, k, r])
        sig, breaks = ss.make_step_signal([0, 3, 0, 3], [15, 15, 15, 15], sigma=0.0)
        keys = []

        def recording(values, b, cfg, seed_key=0):
            keys.append(seed_key)
            return permutation_test(values, b, cfg, seed_key=seed_key)

        with mock.patch.object(stepscan.edivisive, "permutation_test", recording):
            seg = ss.e_divisive(sig, ss.EdivConfig(min_size=5, alpha=2.0))
        assert seg.breaks == breaks
        assert keys == [0, 1, 2, 3]  # three accepted, then the one that stops the run

    def test_min_size_respected_by_all_segments(self):
        rng = np.random.default_rng(8)
        sig = ss.TimeSeries(np.concatenate([rng.normal(0, 1, 40), rng.normal(4, 1, 40)]),
                            ss.PeriodIndex(1900))
        seg = ss.e_divisive(sig, ss.EdivConfig(min_size=10, alpha=2.0))
        edges = (0,) + seg.breaks + (80,)
        assert all(b - a >= 10 for a, b in zip(edges, edges[1:]))

    def test_negative_max_breaks_rejected(self):
        with pytest.raises(ValueError, match="max_breaks"):
            ss.EdivConfig(max_breaks=-1)

    @pytest.mark.parametrize("kwargs,message", [
        ({"min_size": 1}, "min_size must be at least 2"),
        ({"sig_level": 0.0}, "sig_level must be in"),
        ({"sig_level": 1.0}, "sig_level must be in"),
        ({"seed": -1}, "seed must be nonnegative, got -1"),
    ])
    def test_config_domain(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ss.EdivConfig(**kwargs)

    def test_too_short_series(self):
        with pytest.raises(ss.DataError):
            ss.e_divisive(ss.TimeSeries([1.0, 2.0], ss.PeriodIndex(1900)),
                          ss.EdivConfig(min_size=2))


class TestBlockedKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_within_rounding_of_the_prefix_matrix(self, data):
        n = data.draw(st.integers(4, 90))
        v = data.draw(awkward_values(n))
        alpha = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
        min_size = data.draw(st.integers(2, max(2, n // 3)))
        with mock.patch.object(stepscan.edivisive, "_BLOCK_ROWS", data.draw(BLOCKS)):
            bs, q, total = _split_divergences(v, alpha, min_size)
        want_bs, want_q, want_total = prefix_matrix_split_divergences(v, alpha, min_size)
        np.testing.assert_array_equal(bs, want_bs)
        assert abs(total - want_total) <= n * EPS * want_total
        assert np.all(np.abs(q - want_q) <= n * EPS * want_total)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equal_on_small_integers_at_alpha_one(self, data):
        # every partial sum is an exact integer, so summation order is moot
        n = data.draw(st.integers(4, 90))
        v = np.array(data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)), float)
        min_size = data.draw(st.integers(2, max(2, n // 3)))
        with mock.patch.object(stepscan.edivisive, "_BLOCK_ROWS", data.draw(BLOCKS)):
            bs, q, total = _split_divergences(v, 1.0, min_size)
        _, want_q, want_total = prefix_matrix_split_divergences(v, 1.0, min_size)
        assert total == want_total
        assert q.tolist() == want_q.tolist()

    def test_peak_memory_is_a_few_row_blocks(self):
        # the (n+1)^2 prefix matrix peaked near 488 MB here
        v = np.random.default_rng(3).normal(size=4000)
        tracemalloc.start()
        try:
            _split_divergences(v, 1.0, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


class TestTieRule:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_ties_count_against_the_split(self, data):
        # values with no small-integer relation among them: Q ties
        # exactly only when a permuted copy has the same split multisets,
        # and then its float Q still depends on the order of summation
        n = data.draw(st.integers(4, 10))
        values = [math.sqrt(2), math.sqrt(3), math.pi / 3, math.e / 2, math.log(5)]
        v = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
        cfg = ss.EdivConfig(min_size=data.draw(st.integers(2, n // 2)),
                            alpha=data.draw(st.sampled_from([1.0, 2.0])),
                            num_permutations=19, seed=data.draw(st.integers(0, 3)))
        b, _ = best_split(v, cfg)
        q_obs = exact_max_q(v, cfg.alpha, cfg.min_size)
        hits = sum(exact_max_q(np.random.default_rng([cfg.seed, 0, r]).permutation(v),
                               cfg.alpha, cfg.min_size) >= q_obs
                   for r in range(cfg.num_permutations))
        assert permutation_test(v, b, cfg) == (1 + hits) / (cfg.num_permutations + 1)


def reference_best_split(values, cfg):
    """best_split on the prefix matrix."""
    out = prefix_matrix_split_divergences(values, cfg.alpha, cfg.min_size)
    if out is None:
        return None
    bs, q, _ = out
    k = int(np.argmax(q))
    return int(bs[k]), float(q[k])


def reference_permutation_test(values, b, cfg, seed_key=0):
    """permutation_test one replicate at a time on the prefix matrix, same tie rule."""
    v = np.asarray(values, dtype=float)
    bs, q, total = prefix_matrix_split_divergences(v, cfg.alpha, cfg.min_size)
    q_tie = float(q[bs == b][0]) - v.size * EPS * total
    hits = 0
    for r in range(cfg.num_permutations):
        perm = np.random.default_rng([cfg.seed, seed_key, r]).permutation(v)
        _, q_perm, _ = prefix_matrix_split_divergences(perm, cfg.alpha, cfg.min_size)
        hits += float(q_perm.max()) >= q_tie
    return (1 + hits) / (cfg.num_permutations + 1)


# position blocks that cut short series at many places, and the production one
POSITION_BLOCKS = st.sampled_from([1, 3, 7, stepscan.edivisive._BLOCK_POS])


def random_perms(data, n):
    """The identity and a few seeded permutations of range(n), one per row."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    extra = data.draw(st.integers(0, 3))
    return np.array([np.arange(n)] + [rng.permutation(n) for _ in range(extra)])


def two_lane_rank_sums(v, perms):
    """Reference _rank_sums: (count, sum) held as two float lanes per rank.

    The kernel before the pairs were packed into complex numbers; the
    packed kernel must match it bit for bit.
    """
    n = v.size
    order = np.argsort(v, kind="stable")
    xs = v[order] - v[order[n // 2]]
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    pos = np.arange(n)
    full = xs * (2 * pos - n) - 2.0 * prefix[:-1] + prefix[-1]
    ranks = np.argsort(order)[perms]
    x = xs[ranks]
    ps = np.cumsum(x, axis=1) - x
    found = np.empty(x.shape + (2,))
    seen = np.zeros(x.shape + (2,))
    at = np.arange(x.shape[0])[:, None]
    for a in range(0, n, stepscan.edivisive._BLOCK_POS):
        z = min(a + stepscan.edivisive._BLOCK_POS, n)
        kb = ranks[:, a:z]
        pairs = (kb[:, None, :] < kb[:, :, None]) & np.tri(z - a, k=-1, dtype=bool)
        block = np.stack((np.ones(kb.shape), x[:, a:z]), axis=2)
        found[:, a:z] = np.cumsum(seen, axis=1)[at, kb] + pairs.astype(float) @ block
        seen[at, kb] = block
    return x * (2.0 * found[..., 0] - pos) - 2.0 * found[..., 1] + ps, full[ranks]


class TestRankKernel:
    """The alpha = 1 rank-space row sums, several permutations per call."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bit_identical_to_the_two_lane_kernel(self, data):
        n = data.draw(st.integers(4, 300))
        v = data.draw(st.one_of(
            awkward_values(n), bumpy_values(n),
            st.lists(st.integers(-20, 20), min_size=n, max_size=n).map(lambda x: np.array(x, float)),
            st.floats(-1e6, 1e6).map(lambda c: np.full(n, c))))
        min_size = data.draw(st.integers(1, n // 2))
        perms = random_perms(data, n)
        with mock.patch.object(stepscan.edivisive, "_BLOCK_POS", data.draw(POSITION_BLOCKS)):
            got = _rank_sums(v, perms)
            want = two_lane_rank_sums(v, perms)
            q = _split_divergences(v, 1.0, min_size, perms)[1]
            with mock.patch.object(stepscan.edivisive, "_rank_sums", two_lane_rank_sums):
                want_q = _split_divergences(v, 1.0, min_size, perms)[1]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(q, want_q)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_within_rounding_of_the_prefix_matrix(self, data):
        n = data.draw(st.integers(4, 90))
        v = data.draw(st.one_of(awkward_values(n), bumpy_values(n)))
        min_size = data.draw(st.integers(2, max(2, n // 3)))
        perms = random_perms(data, n)
        with mock.patch.object(stepscan.edivisive, "_BLOCK_POS", data.draw(POSITION_BLOCKS)):
            bs, q, total = _split_divergences(v, 1.0, min_size, perms)
        assert q.shape == (len(perms), bs.size)
        for perm, q_row in zip(perms, q):
            want_bs, want_q, want_total = prefix_matrix_split_divergences(v[perm], 1.0, min_size)
            np.testing.assert_array_equal(bs, want_bs)
            assert abs(total - want_total) <= n * EPS * want_total
            assert np.all(np.abs(q_row - want_q) <= n * EPS * want_total)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equal_on_small_integers(self, data):
        # every partial sum is an exact integer, so summation order is moot
        n = data.draw(st.integers(4, 90))
        v = np.array(data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)), float)
        min_size = data.draw(st.integers(2, max(2, n // 3)))
        perms = random_perms(data, n)
        with mock.patch.object(stepscan.edivisive, "_BLOCK_POS", data.draw(POSITION_BLOCKS)):
            _, q, total = _split_divergences(v, 1.0, min_size, perms)
        for perm, q_row in zip(perms, q):
            _, want_q, want_total = prefix_matrix_split_divergences(v[perm], 1.0, min_size)
            assert total == want_total
            assert q_row.tolist() == want_q.tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_alpha_two_rows_equal_one_row_at_a_time(self, data):
        n = data.draw(st.integers(4, 90))
        v = data.draw(awkward_values(n))
        min_size = data.draw(st.integers(2, max(2, n // 3)))
        perms = random_perms(data, n)
        _, q, _ = _split_divergences(v, 2.0, min_size, perms)
        for perm, q_row in zip(perms, q):
            assert q_row.tolist() == _split_divergences(v[perm], 2.0, min_size)[1].tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_ragged_batches_give_the_reference_p_value(self, data):
        n = data.draw(st.integers(8, 60))
        v = data.draw(st.one_of(awkward_values(n), bumpy_values(n)))
        cfg = ss.EdivConfig(min_size=data.draw(st.integers(2, n // 4)),
                            alpha=data.draw(st.sampled_from([0.5, 1.0])),
                            num_permutations=23, seed=data.draw(st.integers(0, 3)))
        b, _ = best_split(v, cfg)
        rows = data.draw(st.sampled_from([2, 3, 5, 7]))  # none divides 23
        with mock.patch.object(stepscan.edivisive, "_BATCH_CELLS", rows * n):
            got = permutation_test(v, b, cfg, seed_key=5)
        assert got == reference_permutation_test(v, b, cfg, seed_key=5)

    def test_peak_memory_does_not_grow_with_the_permutation_count(self):
        # four replicates per batch at n = 4000: 6 and 18 make 2 and 5 batches;
        # one batch of all 18 would peak near 6 MB, one of 60 near 19 MB
        # tracemalloc sees only its own process, so the test is kept in one
        v = np.random.default_rng(3).normal(size=4000)
        peaks = []
        for r in (6, 18):
            tracemalloc.start()
            try:
                with one_process():
                    permutation_test(v, 2000, ss.EdivConfig(num_permutations=r))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 16 << 20
        assert peaks[1] < 1.25 * peaks[0]


class TestAgainstPrefixMatrix:
    """Outputs equal those of the old kernel, one replicate at a time, under the same tie rule."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_permutation_p_value_does_not_hinge_on_rounding(self, data):
        n = data.draw(st.integers(8, 60))
        v = data.draw(bumpy_values(n))
        cfg = ss.EdivConfig(min_size=data.draw(st.integers(2, n // 4)),
                            alpha=data.draw(st.sampled_from([0.5, 1.0, 1.5])),
                            num_permutations=49, seed=data.draw(st.integers(0, 3)))
        b, _ = best_split(v, cfg)
        with mock.patch.object(stepscan.edivisive, "_BLOCK_ROWS", data.draw(BLOCKS)), \
                mock.patch.object(stepscan.edivisive, "_BLOCK_POS", data.draw(POSITION_BLOCKS)):
            got = permutation_test(v, b, cfg)
        assert got == reference_permutation_test(v, b, cfg)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_e_divisive_equals_prefix_matrix_reference(self, data):
        n = data.draw(st.integers(20, 90))
        if data.draw(st.booleans()):
            alpha = 1.0
            v = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), float)
        else:
            alpha = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            v = np.repeat(rng.normal(0, 3, 4), n // 4 + 1)[:n] + rng.normal(size=n)
        series = ss.TimeSeries(v, ss.PeriodIndex(1900))
        cfg = ss.EdivConfig(min_size=data.draw(st.integers(2, n // 4)), alpha=alpha,
                            num_permutations=19, seed=data.draw(st.integers(0, 3)),
                            sig_level=0.1)
        with mock.patch.object(stepscan.edivisive, "_BLOCK_ROWS", data.draw(BLOCKS)), \
                mock.patch.object(stepscan.edivisive, "_BLOCK_POS", data.draw(POSITION_BLOCKS)):
            got = ss.e_divisive(series, cfg)
        with mock.patch.object(stepscan.edivisive, "best_split", reference_best_split), \
                mock.patch.object(stepscan.edivisive, "permutation_test",
                                  reference_permutation_test):
            want = ss.e_divisive(series, cfg)
        assert got.breaks == want.breaks
        assert got.criterion_trace == want.criterion_trace


# split_test(cpus, per_process=1, fork_error=None): tests of per_process
# pairs per process or more split over cpus usable CPUs; yields the spy on os.fork
split_test = functools.partial(split_work, stepscan.edivisive, "_FORK_PAIRS")


@contextlib.contextmanager
def one_process():
    """No permutation test splits, and os.fork fails the test if one tries."""
    def fork():
        raise AssertionError("the permutation test forked")

    with (mock.patch.object(stepscan.edivisive, "_FORK_PAIRS", 1 << 62),
          mock.patch.object(os, "fork", fork)):
        yield


def failing_batches(where):
    """_split_divergences that raises on a replicate batch in the "parent" or in every child.

    When the parent fails, each child sleeps 30 s before it fails too, so a
    child that is not killed shows in the time the call takes.
    """
    parent = os.getpid()
    divergences = stepscan.edivisive._split_divergences

    def scoring(values, alpha, min_size, perms=None):
        if perms is not None and os.getpid() != parent:
            time.sleep(30 if where == "parent" else 0)
            raise RuntimeError("a child's share failed")
        if perms is not None and where == "parent":
            raise RuntimeError("the parent's share failed")
        return divergences(values, alpha, min_size, perms)

    return mock.patch.object(stepscan.edivisive, "_split_divergences", scoring)


@pytest.fixture(scope="module")
def ediv_energy_jobs(tmp_path_factory):
    """The two seed-0 jobs of the benchmark's ediv-energy workload, by id."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO / "bench"))
        workloads = importlib.import_module("workloads")
        return {job.id: job for job in workloads.build("ediv-energy", 0,
                                                       str(tmp_path_factory.mktemp("ediv")))}


class TestSplitPermutationTest:
    """Replicates split across forked processes give the one-process p-value."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_split_equals_one_process(self, data):
        n = data.draw(st.integers(8, 60))
        v = data.draw(st.one_of(awkward_values(n), bumpy_values(n)))
        cfg = ss.EdivConfig(min_size=data.draw(st.integers(2, n // 4)),
                            alpha=data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                            num_permutations=data.draw(st.sampled_from([2, 5, 23])),
                            seed=data.draw(st.integers(0, 3)))
        b, _ = best_split(v, cfg)
        cpus = data.draw(st.sampled_from([2, 3]))
        rows = data.draw(st.sampled_from([1, 2, 3, 7]))  # ragged batches in every share
        with mock.patch.object(stepscan.edivisive, "_BATCH_CELLS", rows * n):
            with one_process():
                want = permutation_test(v, b, cfg, seed_key=5)
            with split_test(cpus) as fork:
                got = permutation_test(v, b, cfg, seed_key=5)
        assert fork.call_count == min(cpus, cfg.num_permutations) - 1  # no empty share
        assert_no_child()
        assert got == want
        if cfg.alpha != 2.0:
            assert got == reference_permutation_test(v, b, cfg, seed_key=5)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("case,forks", [
        ("two CPUs", 1), ("at the threshold", 1), ("three CPUs, the second fork fails", 2),
        ("second thread", 0), ("one CPU", 0), ("below the threshold", 0),
    ])
    def test_when_the_test_forks(self, case, forks, alpha):
        # os.fork raises here (at three CPUs, the second time), so a test that
        # tries to split kills any child started and scores every replicate itself
        v = np.random.default_rng(4).normal(size=40) + np.repeat([0.0, 0.7], 20)
        cfg = ss.EdivConfig(min_size=5, alpha=alpha, num_permutations=29)
        work = 29 * 40 * (1 if alpha == 2.0 else 40)  # pairs: R n^2, or R n at alpha = 2
        per_process = {"at the threshold": work // 2, "below the threshold": work // 2 + 1}
        cpus = {"one CPU": 1, "three CPUs, the second fork fails": 3}.get(case, 2)
        with one_process():
            want = permutation_test(v, 20, cfg)
        with (second_thread() if case == "second thread" else contextlib.nullcontext(),
              split_test(cpus, per_process.get(case, 1),
                         [mock.DEFAULT, OSError("fork failed")] if cpus == 3
                         else OSError("fork failed")) as fork):
            got = permutation_test(v, 20, cfg)
        assert fork.call_count == forks
        assert_no_child()
        assert got == want

    def test_a_failed_child_raises(self):
        v = np.random.default_rng(4).normal(size=40)
        with split_test(3) as fork, failing_batches("child"):
            with pytest.raises(ChildProcessError,
                               match="^2 of 2 e-divisive permutation test processes failed:"
                                     " RuntimeError: a child's share failed$"):
                permutation_test(v, 20, ss.EdivConfig(min_size=5, num_permutations=29))
        assert fork.call_count == 2
        assert_no_child()

    def test_a_failed_parent_kills_its_children(self):
        v = np.random.default_rng(4).normal(size=40)
        started = time.monotonic()
        with split_test(3) as fork, failing_batches("parent"):
            with pytest.raises(RuntimeError, match="the parent's share failed"):
                permutation_test(v, 20, ss.EdivConfig(min_size=5, num_permutations=29))
        assert fork.call_count == 2
        assert time.monotonic() - started < 15  # the children were killed, not awaited
        assert_no_child()

    def test_cli_exits_1_on_a_failed_child(self, capsys):
        with split_test(2), failing_batches("child"):
            code = main(["segment", "--method", "edivisive", str(FIXTURES / "nile.csv")])
        assert code == 1
        assert (capsys.readouterr().err
                == "stepscan: 1 of 1 e-divisive permutation test processes failed:"
                   " RuntimeError: a child's share failed\n")
        assert_no_child()

    def test_benchmark_job_splits_at_two_cpus_with_the_same_breaks(self, ediv_energy_jobs):
        # the ediv-energy n = 400 job at the production threshold: the tests
        # of its 400- and 300-long segments (31.8 M and 17.9 M pairs) split
        # in two, the one of its 200-long segment (8.0 M) does not
        job = ediv_energy_jobs["ediv-400"]
        with one_process():
            want = job.run()
        with split_test(2, stepscan.edivisive._FORK_PAIRS) as fork:
            got = job.run()
        assert fork.call_count == 2
        assert_no_child()
        assert (got.breaks, got.criterion_trace) == (want.breaks, want.criterion_trace)
