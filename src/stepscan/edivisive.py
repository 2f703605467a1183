"""Divisive segmentation by energy statistics.

Segments are split hierarchically at the point maximizing an
energy-based divergence between the two resulting subsamples, and each
candidate split must survive a within-segment permutation test before
it is accepted. With distance exponent alpha in (0, 2) the divergence
separates arbitrary distribution changes; at alpha = 2 it degenerates
to a pure mean-shift statistic (the variant used for level dating).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import _EPS, DataError, Segmentation, TimeSeries, segmentation_from_breaks

# Rows of the distance triangle summed per block at alpha other than 1 and 2.
_BLOCK_ROWS = 128
# Positions per block of the rank kernel at alpha = 1.
_BLOCK_POS = 24
# Values held by one batch of permutation replicates (rows * n).
_BATCH_CELLS = 1 << 14

# NumPy's SeedSequence hash and PCG64 seeding constants (bit_generator.pyx,
# pcg64.h); the replicate streams test pins them to default_rng.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

__all__ = [
    "EdivConfig",
    "best_split",
    "permutation_test",
    "e_divisive",
]


@dataclass(frozen=True, kw_only=True)
class EdivConfig:
    """Settings for divisive energy segmentation.

    min_size is the smallest admissible segment; alpha the distance
    exponent (alpha = 2 restricts the method to mean changes);
    num_permutations the R in the add-one permutation p-value. All
    randomness flows from seed. Fields are keyword-only, in the key
    order of the CLI report's config block.
    """

    min_size: int = 30
    alpha: float = 1.0
    sig_level: float = 0.05
    num_permutations: int = 199
    max_breaks: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_size < 2:
            raise ValueError("min_size must be at least 2")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0.0 < self.sig_level < 1.0:
            raise ValueError("sig_level must be in (0, 1)")
        if self.num_permutations < 1:
            raise ValueError("num_permutations must be positive")
        if self.num_permutations > 1 << 32:  # a replicate index is one uint32 seed word
            raise ValueError(f"num_permutations must be at most 2**32, got {self.num_permutations}")
        if self.max_breaks is not None and self.max_breaks < 0:
            raise ValueError(f"max_breaks must be nonnegative, got {self.max_breaks}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _triangle_sums(rows: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and full row sums of |x_i - x_j|^alpha for each row of rows.

    The strictly lower triangle is summed in blocks of _BLOCK_ROWS rows.
    """
    n = rows.shape[1]
    low = np.empty(rows.shape)
    col = np.zeros(rows.shape)
    for v, low_v, col_v in zip(rows, low, col):
        for a in range(0, n, _BLOCK_ROWS):
            z = min(a + _BLOCK_ROWS, n)
            d = np.abs(v[a:z, None] - v[None, :z]) ** alpha
            d[:, a:] *= np.tri(z - a, k=-1)
            low_v[a:z] = d.sum(axis=1)
            col_v[:z] += d.sum(axis=0)
    return low, low + col


def _rank_sums(v: np.ndarray, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and full row sums of |x_i - x_j| for each row x of v[perms].

    Every row holds the same values, so one stable argsort serves them
    all; centring on the median element makes constant data exact
    zeros. full[i] comes from the sorted prefix sums, and
    low[i] = x_i (2 cnt_i - i) - 2 sb_i + ps_i, with cnt_i and sb_i the
    count and sum of earlier values of lower rank and ps_i the sum of
    all earlier values. cnt and sb come from a table of the ranks seen
    so far, cumulated once per block of _BLOCK_POS positions, plus a
    dense triangle within the block: O(n^2 / B + n B) per row. A
    (cnt, sb) pair is one complex number, whose parts add apart and in
    the order of two float lanes, so the sums are unchanged bit for bit.
    The in-block triangle stays a float matmul; ranks compare as int32.
    """
    n = v.size
    order = np.argsort(v, kind="stable")
    xs = v[order] - v[order[n // 2]]
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    pos = np.arange(n)
    full = xs * (2 * pos - n) - 2.0 * prefix[:-1] + prefix[-1]
    ranks = np.argsort(order).astype(np.int32)[perms]
    x = xs[ranks]
    ps = np.cumsum(x, axis=1) - x
    found = np.empty(x.shape, complex)  # cnt + 1j sb per position
    seen = np.zeros(x.shape, complex)  # 1 + 1j value per rank seen in earlier blocks
    at = np.arange(x.shape[0])[:, None]
    for a in range(0, n, _BLOCK_POS):
        z = min(a + _BLOCK_POS, n)
        kb = ranks[:, a:z]
        pairs = (kb[:, None, :] < kb[:, :, None]) & np.tri(z - a, k=-1, dtype=bool)
        block = np.stack((np.ones(kb.shape), x[:, a:z]), axis=2)
        found[:, a:z] = (np.cumsum(seen, axis=1)[at, kb]
                         + (pairs.astype(float) @ block).view(complex)[..., 0])
        seen[at, kb] = block.view(complex)[..., 0]
    return x * (2.0 * found.real - pos) - 2.0 * found.imag + ps, full[ranks]


def _split_divergences(values: np.ndarray, alpha: float, min_size: int,
                       perms: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """Q for every admissible split of each row of values[perms].

    Requires len(values) >= 2 * min_size. Returns (bs, q, total) where
    split b puts a row's first b values left and the rest right, both
    sides at least min_size long; perms defaults to the identity and q
    has shape perms.shape[:-1] + bs.shape. total is the sum of
    |v_i - v_j|^alpha over all ordered pairs (the scale of the rounding
    error in q; it does not change under permutation).

    At alpha < 2 the within and between sums need only the row sums
    low[i] = sum_{j<i} d[i, j] and full[i] = sum_j d[i, j]: from
    _rank_sums at alpha = 1, from _triangle_sums at any other alpha.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    perms = np.arange(n) if perms is None else np.asarray(perms)
    rows = perms.reshape(-1, n)
    bs = np.arange(min_size, n - min_size + 1)
    nl = bs.astype(float)
    nr = n - nl
    if alpha == 2.0:
        # E = 2 * (mean_l - mean_r)^2; no pairwise distances needed.
        cum = np.zeros((rows.shape[0], n + 1))
        np.cumsum(v[rows], axis=1, out=cum[:, 1:])
        delta = cum[:, bs] / nl - (cum[:, n:] - cum[:, bs]) / nr
        energy = 2.0 * delta * delta
        dev = v - v.mean()  # sum of (v_i - v_j)^2 = 2n sum (v_i - mean)^2
        total = 2.0 * n * float(dev @ dev)
    else:
        low, full = _rank_sums(v, rows) if alpha == 1.0 else _triangle_sums(v[rows], alpha)
        cum_low = np.cumsum(low, axis=1)
        cum_all = np.cumsum(full, axis=1)
        totals = cum_all[:, -1:]
        corner = 2.0 * cum_low[:, bs - 1]
        edge = cum_all[:, bs - 1]
        within_r = totals - 2.0 * edge + corner
        energy = 2.0 * (edge - corner) / (nl * nr) - corner / (nl * nl) - within_r / (nr * nr)
        total = float(totals[0, 0])
    q = nl * nr / n * energy
    return bs, q.reshape(perms.shape[:-1] + bs.shape), total


def best_split(values: np.ndarray, cfg: EdivConfig) -> tuple[int, float] | None:
    """Split maximizing Q, as (b, qhat) with b 1-based within values.

    Smallest b wins ties; None signals a segment too short to split.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2 * cfg.min_size:
        return None
    bs, q, _ = _split_divergences(v, cfg.alpha, cfg.min_size)
    k = int(np.argmax(q))  # first maximum = smallest b
    return int(bs[k]), float(q[k])


def _words(x: int) -> list[int]:
    """x as little-endian uint32 words; [0] for zero (SeedSequence's coercion)."""
    out = [x & _MASK32]
    while x := x >> 32:
        out.append(x & _MASK32)
    return out


def _hasher(hc: int, mult: int):
    """SeedSequence's hashmix: xor a word with a running constant, multiply, fold."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hc
        value = value ^ hc
        hc = hc * mult & _MASK32
        value *= hc
        return value ^ (value >> 16)

    return hashmix


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """The four uint64 words SeedSequence(row) hands PCG64, for each row of uint32 entropy words.

    SeedSequence's pool of four words is mixed column by column over all
    rows at once; the uint32 arrays wrap without warning, as its C code does.
    """

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * _MIX_L - y * _MIX_R
        return out ^ (out >> 16)

    rows, width = entropy.shape
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[:, i] if i < width else np.zeros(rows, np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, width):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    draw = _hasher(_INIT_B, _MULT_B)  # generate_state(4, np.uint64), as eight uint32 words
    words = [draw(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([words[j] | words[j + 1] << 32 for j in range(0, 8, 2)], axis=1)


def _permutations(gen: np.random.Generator, n: int, seed: int, key: int,
                  first: int, stop: int) -> np.ndarray:
    """Rows default_rng([seed, key, r]).permutation(n) for r in range(first, stop).

    stop is at most 2**32, so r is one uint32 word. The seeds of all
    rows are hashed in one pass; each row then sets the state of gen's
    PCG64 and shuffles an arange, as Generator.permutation does.
    """
    head = _words(seed) + _words(key)
    entropy = np.empty((stop - first, len(head) + 1), np.uint32)
    entropy[:, :-1] = head
    entropy[:, -1] = np.arange(first, stop)
    seeds = _pcg64_seeds(entropy).tolist()
    perms = np.tile(np.arange(n), (stop - first, 1))
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(perms, seeds):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128  # pcg64_set_seed: two LCG steps from 0
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        gen.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        gen.shuffle(row)
    return perms


def permutation_test(values: np.ndarray, b: int, cfg: EdivConfig,
                     seed_key: int = 0) -> float:
    """Add-one permutation p-value for the split of values at b.

    Each replicate shuffles the segment's values with a generator
    derived from (seed, seed_key, replicate) and recomputes the maximal
    Q over admissible splits; ties with the observed Q count against the
    split. A tie is judged up to the rounding of the sums, n * eps * T
    with T the segment's total pairwise distance, so it does not hinge
    on summation order: p = (1 + #{Q*_r >= Q_obs - n eps T}) / (R + 1).
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2 * cfg.min_size:
        raise DataError(f"segment of {v.size} observations admits no split")
    bs, q, total = _split_divergences(v, cfg.alpha, cfg.min_size)
    where = np.flatnonzero(bs == b)
    if where.size == 0:
        raise ValueError(f"split {b} violates min_size {cfg.min_size}")
    q_tie = float(q[where[0]]) - v.size * _EPS * total
    hits = 0
    step = max(1, _BATCH_CELLS // v.size)
    gen = np.random.Generator(np.random.PCG64(0))  # reseeded per replicate
    for first in range(0, cfg.num_permutations, step):
        perms = _permutations(gen, v.size, cfg.seed, seed_key, first,
                              min(first + step, cfg.num_permutations))
        _, q_perm, _ = _split_divergences(v, cfg.alpha, cfg.min_size, perms)
        hits += int(np.count_nonzero(q_perm.max(axis=1) >= q_tie))
    return (1 + hits) / (cfg.num_permutations + 1)


def e_divisive(s: TimeSeries, cfg: EdivConfig = EdivConfig()) -> Segmentation:
    """Hierarchical divisive segmentation with permutation stopping.

    Repeatedly takes the (segment, split) pair with the largest Q among
    all current segments (earliest segment start on ties), tests it by
    permutation conditional on the breaks accepted so far, and accepts
    it while p <= sig_level. Stops at the first insignificant candidate,
    at max_breaks, or when nothing is splittable. The criterion trace
    records (break, p-value) pairs in time order.
    """
    v = s.values
    if s.n < 2 * cfg.min_size:
        raise DataError(f"need at least {2 * cfg.min_size} observations, got {s.n}")

    def candidate(lo: int, hi: int) -> tuple[float, int, int, int] | None:
        res = best_split(v[lo - 1 : hi], cfg)
        if res is None:
            return None
        b_rel, q = res
        return q, lo, hi, lo - 1 + b_rel

    candidates = [candidate(1, s.n)]  # n >= 2 min_size: the full span splits
    accepted: list[tuple[int, float]] = []
    while candidates:
        if cfg.max_breaks is not None and len(accepted) >= cfg.max_breaks:
            break
        q, lo, hi, b = max(candidates, key=lambda c: (c[0], -c[1]))
        # every earlier test was accepted, so this is test number len(accepted)
        p = permutation_test(v[lo - 1 : hi], b - lo + 1, cfg, seed_key=len(accepted))
        if p > cfg.sig_level:
            break
        accepted.append((b, p))
        candidates.remove((q, lo, hi, b))
        for part in ((lo, b), (b + 1, hi)):
            c = candidate(*part)
            if c is not None:
                candidates.append(c)

    accepted.sort()
    return segmentation_from_breaks(s, [b for b, _ in accepted], min_len=cfg.min_size,
                                    trace=accepted)
