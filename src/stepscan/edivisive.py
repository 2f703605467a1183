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

# Rows of the distance triangle summed per block at alpha < 2.
_BLOCK_ROWS = 128

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
        if self.max_breaks is not None and self.max_breaks < 0:
            raise ValueError(f"max_breaks must be nonnegative, got {self.max_breaks}")


def _split_divergences(values: np.ndarray, alpha: float, min_size: int,
                       ) -> tuple[np.ndarray, np.ndarray, float | None] | None:
    """Q for every admissible split of values; None when none exists.

    Returns (bs, q, total) where split b puts values[:b] left and
    values[b:] right, both sides at least min_size long, and total is
    the sum of |v_i - v_j|^alpha over all ordered pairs (the scale of
    the rounding error in q; it does not change under permutation).
    total is None at alpha = 2, whose branch forms no pairwise sums.

    At alpha < 2 the within and between sums need only two row sums of
    the strictly lower distance triangle: low[i] = sum_{j<i} d[i, j] and
    col[j] = sum_{i>j} d[i, j]. They are accumulated over blocks of
    _BLOCK_ROWS rows, so memory stays O(_BLOCK_ROWS * n).
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2 * min_size:
        return None
    bs = np.arange(min_size, n - min_size + 1)
    nl = bs.astype(float)
    nr = n - nl
    if alpha == 2.0:
        # E = 2 * (mean_l - mean_r)^2; no pairwise distances needed.
        cum = np.concatenate(([0.0], np.cumsum(v)))
        delta = cum[bs] / nl - (cum[n] - cum[bs]) / nr
        energy = 2.0 * delta * delta
        total = None
    else:
        low = np.empty(n)
        col = np.zeros(n)
        for a in range(0, n, _BLOCK_ROWS):
            z = min(a + _BLOCK_ROWS, n)
            d = np.abs(v[a:z, None] - v[None, :z]) ** alpha
            d[:, a:] *= np.tri(z - a, k=-1)
            low[a:z] = d.sum(axis=1)
            col[:z] += d.sum(axis=0)
        cum_low = np.cumsum(low)
        cum_all = np.cumsum(low + col)
        total = float(cum_all[-1])
        corner = 2.0 * cum_low[bs - 1]
        edge = cum_all[bs - 1]
        between = edge - corner
        within_l = corner
        within_r = total - 2.0 * edge + corner
        energy = 2.0 * between / (nl * nr) - within_l / (nl * nl) - within_r / (nr * nr)
    return bs, nl * nr / n * energy, total


def best_split(values: np.ndarray, cfg: EdivConfig) -> tuple[int, float] | None:
    """Split maximizing Q, as (b, qhat) with b 1-based within values.

    Smallest b wins ties; None signals a segment too short to split.
    """
    out = _split_divergences(np.asarray(values, dtype=float), cfg.alpha, cfg.min_size)
    if out is None:
        return None
    bs, q, _ = out
    k = int(np.argmax(q))  # first maximum = smallest b
    return int(bs[k]), float(q[k])


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
    out = _split_divergences(v, cfg.alpha, cfg.min_size)
    if out is None:
        raise DataError(f"segment of {v.size} observations admits no split")
    bs, q, total = out
    if total is None:  # alpha = 2: sum of (v_i - v_j)^2 = 2n sum (v_i - mean)^2
        dev = v - v.mean()
        total = 2.0 * v.size * float(dev @ dev)
    where = np.flatnonzero(bs == b)
    if where.size == 0:
        raise ValueError(f"split {b} violates min_size {cfg.min_size}")
    q_tie = float(q[where[0]]) - v.size * _EPS * total
    hits = 0
    for r in range(cfg.num_permutations):
        rng = np.random.default_rng([cfg.seed, seed_key, r])
        perm = rng.permutation(v)
        _, q_perm, _ = _split_divergences(perm, cfg.alpha, cfg.min_size)
        if float(q_perm.max()) >= q_tie:
            hits += 1
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

    candidates = [c for c in [candidate(1, s.n)] if c is not None]
    accepted: list[tuple[int, float]] = []
    tested = 0
    while candidates:
        if cfg.max_breaks is not None and len(accepted) >= cfg.max_breaks:
            break
        q, lo, hi, b = max(candidates, key=lambda c: (c[0], -c[1]))
        p = permutation_test(v[lo - 1 : hi], b - lo + 1, cfg, seed_key=tested)
        tested += 1
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
