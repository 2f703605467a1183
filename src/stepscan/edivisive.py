"""Divisive segmentation by energy statistics.

Segments are split hierarchically at the point maximizing an
energy-based divergence between the two resulting subsamples, and each
candidate split must survive a within-segment permutation test before
it is accepted. With distance exponent alpha in (0, 2) the divergence
separates arbitrary distribution changes; at alpha = 2 it degenerates
to a pure mean-shift statistic (the variant used for level dating).
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .series import (_EPS, DataError, Segmentation, TimeSeries, _fork_shares, _leave_if_orphaned,
                     _processes, _take, segmentation_from_breaks)

# Rows of the distance triangle summed per block at alpha other than 1 and 2.
_BLOCK_ROWS = 128
# Positions per block of the rank kernel at alpha = 1.
_BLOCK_POS = 24
# Values held by one batch of permutation replicates (rows * n).
_BATCH_CELLS = 1 << 14
# Work per process of a run's replicate workers, in pairs (R * n^2 below
# alpha = 2, R * n at it); a fork and reap cost about 2.4 M rank-kernel pairs.
_FORK_PAIRS = 1 << 23
# A test's command to a replicate worker: segment length, seed key, tie threshold.
_COMMAND = struct.Struct("qQd")

# NumPy's SeedSequence hash and PCG64 seeding constants (bit_generator.pyx,
# pcg64.h); the replicate streams test pins them to default_rng.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# The pool rows that each mixing round of SeedSequence's hash mixes into.
_OTHERS = [np.array([d for d in range(4) if d != src]) for src in range(4)]

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


@functools.cache
def _hash_steps(hc: int, mult: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply words of k successive SeedSequence hashmix calls
    from running constant hc, as read-only (k, 1) uint32 columns."""
    words = [hc]
    for _ in range(k):
        words.append(words[-1] * mult & _MASK32)
    col = np.array(words, np.uint32)[:, None]
    col.flags.writeable = False
    return col[:-1], col[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix: xor with the running constant, multiply by its next value, fold."""
    value = value ^ xor
    value *= mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """The four uint64 words SeedSequence(row) hands PCG64, for each row of uint32 entropy words.

    SeedSequence's pool of four words is one (4, rows) array. Its calls
    that hash the same word are stacked: the 4 initial words at once,
    each mixing round's word into the 3 others as 3 rows, each extra
    entropy column into all 4, and the 8 output words as one draw. The
    uint32 arrays wrap without warning, as its C code does.
    """
    rows, width = entropy.shape
    xor, mul = _hash_steps(_INIT_A, _MULT_A, 4 * max(4, width))
    pool = np.zeros((4, rows), np.uint32)
    pool[: min(width, 4)] = entropy.T[:4]
    pool = _hashmix(pool, xor[:4], mul[:4])
    for src, dst in enumerate(_OTHERS):
        k = 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + 3], mul[k : k + 3]))
    for src in range(4, width):
        k = 4 * src
        pool = _mix(pool, _hashmix(entropy.T[src], xor[k : k + 4], mul[k : k + 4]))
    # generate_state(4, np.uint64), as eight uint32 words
    words = _hashmix(np.concatenate((pool, pool)), *_hash_steps(_INIT_B, _MULT_B, 8))
    words = words.astype(np.uint64)
    return (words[0::2] | words[1::2] << 32).T


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
    bit_generator, shuffle = gen.bit_generator, gen.shuffle
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(perms, seeds):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128  # pcg64_set_seed: two LCG steps from 0
        pcg["state"] = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        pcg["inc"] = inc
        bit_generator.state = state
        shuffle(row)
    return perms


def permutation_test(values: np.ndarray, b: int, cfg: EdivConfig, seed_key: int = 0, *,
                     workers: Callable[[np.ndarray, int, float], int] | None = None) -> float:
    """Add-one permutation p-value for the split of values at b.

    Each replicate shuffles the segment's values with a generator
    derived from (seed, seed_key, replicate) and recomputes the maximal
    Q over admissible splits; ties with the observed Q count against the
    split. A tie is judged up to the rounding of the sums, n * eps * T
    with T the segment's total pairwise distance, so it does not hinge
    on summation order: p = (1 + #{Q*_r >= Q_obs - n eps T}) / (R + 1).

    workers, the handle that e_divisive passes to every test of its run,
    scores the replicates in the run's processes; without it the test
    forks its own for itself alone, by the same rule (see _with_workers).
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2 * cfg.min_size:
        raise DataError(f"segment of {v.size} observations admits no split")
    if not 0 <= seed_key < 1 << 64:  # sent to the workers as one uint64
        raise ValueError(f"seed_key must be in [0, 2**64), got {seed_key}")
    bs, q, total = _split_divergences(v, cfg.alpha, cfg.min_size)
    where = np.flatnonzero(bs == b)
    if where.size == 0:
        raise ValueError(f"split {b} violates min_size {cfg.min_size}")
    q_tie = float(q[where[0]]) - v.size * _EPS * total
    hits = (workers(v, seed_key, q_tie) if workers is not None
            else _with_workers(v.size, cfg, lambda own: own(v, seed_key, q_tie)))
    return (1 + hits) / (cfg.num_permutations + 1)


def _with_workers(n: int, cfg: EdivConfig, job: Callable[[Callable], Any]) -> Any:
    """job(hits), run as share 0 of one _fork_shares call whose processes score
    the replicates of every test job makes on n values or fewer.

    hits(v, seed_key, q_tie) counts the replicates of a test of v whose
    largest Q is q_tie or more. On Linux with no other Python thread, the
    run takes k = min(usable CPUs, R * min(n^2, _FORK_PAIRS) // _FORK_PAIRS)
    processes (R * n at alpha = 2; series._processes), decided once for
    the run; job and its tests never fork again. For each test, share 0
    copies v into the shared mapping and sends (len(v), seed_key, q_tie)
    down one command pipe per child. Process p scores replicates
    [p R / k, (p + 1) R / k) in batches of _BATCH_CELLS values, as one
    process does, leaves its hit count in its int64 slot and writes one
    byte to its done pipe, on which share 0 blocks. A child waits for its
    next command yield-polling (series._take), and returns at EOF: after
    the run, when share 0 closes the command pipes, or once its parent is
    gone. A row does not depend on its batch and the hits are integers,
    so every p-value is bit-identical to the one-process test's. If share
    0 finds a child gone, it returns, and the reap raises
    ChildProcessError with the child's note.
    """
    reps = cfg.num_permutations
    # pairs, counting at most _FORK_PAIRS per replicate so that no process gets none
    work = reps * min(_FORK_PAIRS, n * (1 if cfg.alpha == 2.0 else n))
    procs = _processes(work, _FORK_PAIRS)
    pipes = [(os.pipe(), os.pipe()) for _ in range(procs - 1)]  # child p's command and done pipe
    fds = [fd for pair in pipes for pipe in pair for fd in pipe]
    parent, out = os.getpid(), []
    gen = np.random.Generator(np.random.PCG64(0))  # reseeded per replicate

    def count(p: int, procs: int, v: np.ndarray, seed_key: int, q_tie: float) -> int:
        hits, step = 0, max(1, _BATCH_CELLS // v.size)
        stop = (p + 1) * reps // procs
        for first in range(p * reps // procs, stop, step):
            _leave_if_orphaned(p, parent)
            perms = _permutations(gen, v.size, cfg.seed, seed_key, first, min(first + step, stop))
            _, q_perm, _ = _split_divergences(v, cfg.alpha, cfg.min_size, perms)
            hits += int(np.count_nonzero(q_perm.max(axis=1) >= q_tie))
        return hits

    def share(p: int, procs: int, buf) -> None:
        # a child keeps its command pipe's read end and its done pipe's write end,
        # share 0 the other ends of every child's
        ends = ([pipes[p - 1][0][0], pipes[p - 1][1][1]] if p else
                [fd for cmd, done in pipes[: procs - 1] for fd in (cmd[1], done[0])])
        for fd in [fd for fd in fds if fd not in ends]:
            os.close(fd)
            fds.remove(fd)
        slots, shared = np.frombuffer(buf, np.int64, procs), np.frombuffer(buf, float, n, 8 * procs)
        if p:
            cmd, done = ends
            os.set_blocking(cmd, False)
            while True:
                try:
                    size, seed_key, q_tie = _COMMAND.unpack(_take(cmd, _COMMAND.size))
                except EOFError:  # the run is over
                    return
                slots[p] = count(p, procs, shared[:size], seed_key, q_tie)
                os.write(done, b"\0")

        def hits(v: np.ndarray, seed_key: int, q_tie: float) -> int:
            if procs > 1:
                shared[: v.size] = v
                for fd in ends[0::2]:
                    os.write(fd, _COMMAND.pack(v.size, seed_key, q_tie))
            own = count(0, procs, v, seed_key, q_tie)
            for fd in ends[1::2]:
                if not os.read(fd, 1):
                    raise EOFError
            return own + int(slots[1:].sum())

        try:
            out.append(job(hits))
        except (EOFError, BrokenPipeError):  # a child is gone, and the reap says why
            pass
        finally:
            for fd in ends[0::2]:
                os.close(fd)
                fds.remove(fd)

    try:
        _fork_shares(share, procs, lambda k: 8 * (k + n), "e-divisive permutation test")
    finally:
        for fd in fds:
            os.close(fd)
    return out[0]


def e_divisive(s: TimeSeries, cfg: EdivConfig = EdivConfig()) -> Segmentation:
    """Hierarchical divisive segmentation with permutation stopping.

    Repeatedly takes the (segment, split) pair with the largest Q among
    all current segments (earliest segment start on ties), tests it by
    permutation conditional on the breaks accepted so far, and accepts
    it while p <= sig_level. Stops at the first insignificant candidate,
    at max_breaks, or when nothing is splittable. The criterion trace
    records (break, p-value) pairs in time order. The whole selection
    runs in the caller, as share 0 of _with_workers for the full series:
    a long series forks its replicate workers once, and every test of the
    run splits over them; the breaks and p-values do not change.
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

    def select(workers) -> list[tuple[int, float]]:
        candidates = [candidate(1, s.n)]  # n >= 2 min_size: the full span splits
        accepted: list[tuple[int, float]] = []
        while candidates:
            if cfg.max_breaks is not None and len(accepted) >= cfg.max_breaks:
                break
            q, lo, hi, b = max(candidates, key=lambda c: (c[0], -c[1]))
            # every earlier test was accepted, so this is test number len(accepted)
            p = permutation_test(v[lo - 1 : hi], b - lo + 1, cfg, seed_key=len(accepted),
                                 workers=workers)
            if p > cfg.sig_level:
                break
            accepted.append((b, p))
            candidates.remove((q, lo, hi, b))
            for part in ((lo, b), (b + 1, hi)):
                c = candidate(*part)
                if c is not None:
                    candidates.append(c)
        return sorted(accepted)

    accepted = _with_workers(s.n, cfg, select)
    return segmentation_from_breaks(s, [b for b, _ in accepted], min_len=cfg.min_size,
                                    trace=accepted)
