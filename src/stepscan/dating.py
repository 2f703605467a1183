"""Optimal least-squares dating of multiple level shifts.

The fitted model is a step function: given m breaks, each segment gets
its sample mean and the objective is the aggregate residual sum of
squares. For a fixed m the global minimizer over all partitions with
segments of at least min_len observations is found by a Bellman
recursion over per-segment RSS values; the number of breaks is chosen
by the Bayesian Information Criterion.

The recursion fills only the cells that BIC and the backtrack read,
sweeping their start points right to left in blocks of _BLOCK_STARTS
and stepping every layer through a block before the next; every layer
reads one span-RSS rectangle per block. A layer with more than
_SHORT_BLOCKS blocks of starts reads only the block's new candidates
there and evaluates only the later ones that can still win: a
candidate is dropped once, as a function of the segment mean, another
candidate is below it everywhere by more than a rounding margin
(functional pruning, as in pDPA and FPOP). A shorter layer, where
pruning costs more than it saves, reads every candidate from the
rectangle. The cost table is bit-identical to evaluating every split
at every cell read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import _EPS, Segmentation, TimeSeries, _check_budget, _span_rss, segmentation_from_breaks

__all__ = [
    "RssTriangle",
    "build_rss_triangle",
    "optimal_breaks",
    "select_breaks_bic",
    "fitted_step",
    "bic_value",
]


@dataclass(frozen=True, eq=False)
class RssTriangle:
    """A series and the minimal segment length of the partitions searched.

    rss(i, j) = sum_{k=i..j} y_k^2 - (sum y_k)^2 / (j - i + 1) is O(1)
    from the series cumulants (series._span_rss, which snaps values at
    the cumulants' rounding scale to 0), so memory stays O(n).
    """

    series: TimeSeries
    min_len: int

    @property
    def n(self) -> int:
        return self.series.n


def build_rss_triangle(s: TimeSeries, min_len: int) -> RssTriangle:
    """Pair a series with the minimal segment length of its partitions."""
    _check_dp(s.n, min_len, 0)
    return RssTriangle(series=s, min_len=min_len)


def _most_breaks(n: int, min_len: int) -> int:
    """The most breaks that leave every segment at least min_len long."""
    return n // min_len - 1


def _check_dp(n: int, min_len: int, max_breaks: int) -> None:
    """Raise before allocating unless min_len, max_breaks and the cost table that
    select_breaks_bic and optimal_breaks allocate fit n."""
    if not 1 <= min_len <= n:
        raise ValueError(f"min_len must be in 1..{n}, got {min_len}")
    if max_breaks < 0:
        raise ValueError(f"max_breaks must be nonnegative, got {max_breaks}")
    if max_breaks > _most_breaks(n, min_len):
        raise ValueError(
            f"max_breaks = {max_breaks} infeasible: {max_breaks + 1} segments of at least"
            f" {min_len} observations do not fit into {n}"
        )
    _check_budget(8 * (max_breaks + 2) * (n + 2), "the dynamic program",
                  f"cost table for {max_breaks} breaks over {n} observations",
                  "lower --max-breaks or raise --min-seg")


# Starts per block of the pruned Bellman sweep.
_BLOCK_STARTS = 96
# A layer whose starts fit in this many blocks never prunes: a block of
# pruning costs about 124 numpy operations, and reading every candidate
# took 0.14-0.53 of the pruned time at 191 to 761 starts per layer on
# seven input shapes (1.46 times as long on a constant series at 1,351).
_SHORT_BLOCKS = 7
# Mean intervals are widened by this share of the largest mean magnitude
# in the domain, far more than the few-ulp rounding of their arithmetic.
_WIDEN = 2.0 ** -40


def _suffix_costs(tri: RssTriangle, jmax: int) -> np.ndarray:
    """D[j, a] = minimal RSS of splitting [a..n] into j segments.

    Entries are +inf where no admissible split exists. A cell is the
    minimum of fl(_span_rss(s, a, c - 1) + D[j - 1, c]) over the next
    starts c >= a + h. The dense loop evaluates every c; this one
    evaluates a superset of every float argmin with the same expression,
    so D is bit-identical to it at every cell filled (tests/test_dating.py
    keeps the dense loop as the reference). Filled are D[j, 1] for every
    j and, below the top layer, D[j, a] for a > h; the rest stay +inf.
    BIC reads every layer at a = 1, and the backtrack and the recursion
    read D[j - 1] only at c >= a + h > h. Layers 2..jmax - 1 are swept;
    one row of span RSS from start 1 then gives every D[j, 1], +inf past
    D[j - 1]'s last start.

    Order. The starts sweep right to left in blocks of _BLOCK_STARTS,
    laid down from layer 2's last start n - 2h + 1 to h + 1. A block builds
    once (_Block) the span RSS from its starts to its new candidates
    c = a + h and on to the first short layer's last candidate, +inf
    where c < a + h, and, if a layer prunes, the pair means of its new
    candidates; then the layers step through it in ascending j, as
    layer j reads D[j - 1] inside the block when h < _BLOCK_STARTS. The
    block holding layer j's last start n - jh + 1 is its first, and it
    uses the block's head up to that start. A short layer, one whose
    n - jh + 1 starts fit in _SHORT_BLOCKS blocks, is the sweep's dense
    step (None in layers): it evaluates every candidate at every start,
    from a prefix of the rectangle's columns. The choice depends only on
    n, h and j; layer 2 has the most starts, so the pruning plan (_Plan)
    is built only if it prunes. A pruning layer (_Layer) evaluates the
    new candidates and the previous block's best candidate at
    every start; the largest of the resulting per-start minima, U,
    bounds every cell of the block from above. Then it evaluates the
    live candidates with D[j - 1, c] < U: span RSS values are >= 0, so
    any other one costs at least U there. The live set is then pruned
    for the blocks to come.

    Pruning (pDPA, Rigaill 2015). As a function of the segment mean mu,
    candidate c costs q_c(mu) = D[j-1, c] + sum_{k<c} (y_k - mu)^2. Its
    exact value at start a is min_mu q_c(mu) - sum_{k<a} (y_k - mu)^2,
    that is D[j-1, c] + E with E = Q - S^2/L of the span [a..c-1] when
    every sum is taken from the stored cumulants, so their own summation
    error does not enter. q_c - q_c' does not depend on a. So once every
    mu in the domain (min y to max y, padded by the drift of S/L in the
    cumulants) has some candidate below q_c by more than
    tau = 2 (e_c + e_c'), c cannot be a float argmin at any later start,
    and it is dropped. For c' < c, q_c - q_c' = D_c - D_c' + R
    + L (mu - m)^2, with m, R and L the mean, RSS and length of
    y[c'..c-1]: a new candidate c' confines every later c to an interval
    of mu, and a new candidate goes when one later candidate beats it
    over its whole interval. A chain of dropped candidates ends in a live
    one whose exact value is lower by more than e_c + e_live.

    The margin e_c (u = eps/2, Q_c = cumsq[c-1] bounds every span's Q)
    bounds how far c's float value can fall below its exact value plus
    how far it can rise above it, at every start to come:
      - the arithmetic of _span_rss and of the addition: about
        16u Q_c + 2u D_c + 5u neg_c, taken as 32u Q_c + 8u D_c + 8u neg_c;
      - the snap of _span_rss to 0 below 16 eps L qsum, which lowers a
        value by up to 32u (c-1) Q_c. A block drops the term for each c
        whose span RSS at its smallest start exceeds that plus the
        rounding, as RSS grows as a decreases (a later dip from rounding
        brings the term back, which only widens the margin);
      - while it applies, a snapped E < 0 rises by |E|, at most neg_c: the
        error of E from the cumulants' sequential sums (err_s, err_q);
      - 16 times the smallest normal float, for products that underflow
        (their rounding is absolute, not relative).
    The second half of tau covers the rounding of m, R and the radii;
    interval ends move out (in, for the covering test) by _WIDEN of the
    largest mean magnitude. _reconstruct still scans every split.

    A pruning layer stops pruning at the first block where, of its
    4 _BLOCK_STARTS or more starts in earlier blocks, its live set holds
    more than half: with a +1e6 offset the snap ties most spans and
    nothing can be dropped. It stays stopped: each later block adds k
    starts to the count and k candidates to the live set, so twice the
    live set stays above it. A short layer never prunes at all.
    """
    s, n, h = tri.series, tri.n, tri.min_len
    D = np.full((jmax + 1, n + 2), np.inf)
    if jmax > 1:
        D[1, h + 1 : n - h + 2] = _span_rss(s, np.arange(h + 1, n - h + 2), n)
    layers = [_Layer() if n - j * h + 1 > _SHORT_BLOCKS * _BLOCK_STARTS else None
              for j in range(2, jmax)]
    plan = _Plan.build(s, h) if layers and layers[0] is not None else None
    # the first short layer's candidates end at layer j - 1's last start
    last = n - (layers.index(None) + 1) * h + 1 if None in layers else 0
    a_hi = n - 2 * h + 1 if layers else h
    while a_hi > h:
        a_lo = max(h + 1, a_hi - _BLOCK_STARTS + 1)
        blk = _Block(s, h, a_lo, a_hi, plan, last)
        for j, layer in enumerate(layers, start=2):
            swept = n - j * h + 2 - a_lo  # layer j's starts a_lo..n - j h + 1
            k = min(blk.nb, swept)
            if k < 1:
                break
            if layer is not None:
                layer.step(s, blk, k, swept - k, D[j - 1], D[j], plan)
            else:  # every candidate from c = a_lo + h on, +inf past D[j - 1]'s last start
                c, w = a_lo + h, swept - k + blk.nb
                D[j, a_lo : a_lo + k] = (blk.rss[:k, :w] + D[j - 1, c : c + w]).min(axis=1)
        a_hi = a_lo - 1
    row = _span_rss(s, 1, np.arange(h, n + 1))  # [1..c-1] for c = h + 1..n + 1
    D[1, 1] = row[-1]
    for j in range(2, jmax + 1):  # +inf past D[j - 1]'s last start
        D[j, 1] = (row + D[j - 1, h + 1 :]).min()
    return D


@dataclass(frozen=True)
class _Plan:
    """What every layer of one _suffix_costs call shares."""

    snap: np.ndarray       # e_c while c may still be snapped (indexed by c - 1), and
                           # the span RSS above which it never will be
    settled: np.ndarray    # e_c once c is known never to snap
    dom: np.ndarray        # [lo; hi] of the mean domain, repeated per new candidate
    wid: float             # _WIDEN times the largest |mu| of the domain
    inv_gap: np.ndarray    # 1 / (c - c') between a block's new candidates,
    not_later: np.ndarray  # and +inf where c is not later than c'

    @staticmethod
    def build(s: TimeSeries, h: int) -> "_Plan":
        cum, cumsq = s.cumulants
        y = s.values
        u = _EPS / 2
        # |cum[k] - exact sum| and |cumsq[k] - exact sum of squares|, from
        # sequential summation, with a little slack for their own rounding.
        err_s = 1.01 * u * np.cumsum(np.abs(cum))
        err_q = 2.02 * u * np.cumsum(cumsq)
        neg = 2 * err_q + 4 * float(np.abs(y).max()) * err_s + 4 * err_s * err_s / h
        pad = 2 * err_s[-1] / h
        floor = 16 * np.finfo(float).tiny  # products that underflow
        lo, hi = float(y.min()) - pad, float(y.max()) + pad
        wid = _WIDEN * max(abs(lo), abs(hi))
        ar = np.arange(_BLOCK_STARTS)
        gap = (ar - ar[:, None]).astype(float)
        return _Plan(
            snap=u * (32 * np.arange(cum.size) + 16) * cumsq + 3 * neg + floor,
            settled=u * (32 * cumsq + 8 * neg) + floor,
            dom=np.array([[lo - wid], [hi + wid]]) * np.ones(_BLOCK_STARTS),
            wid=wid,
            inv_gap=1.0 / np.maximum(gap, 1.0),
            not_later=np.where(gap > 0, 0.0, np.inf),
        )


class _Block:
    """What every layer shares at the starts a_lo..a_hi of one block.

    The new candidates c = a + h; rss, the span RSS from every start to
    every candidate c = a_lo + h + t (column t) out to the first short
    layer's last candidate, last, and +inf where c < a + h; and, only
    with a pruning plan, per pair of new candidates c' < c (rows c'), the
    mean m of y[c'..c-1] and m times its sum.
    """

    def __init__(self, s: TimeSeries, h: int, a_lo: int, a_hi: int, plan: _Plan | None, last: int):
        nb = a_hi - a_lo + 1
        self.a_lo, self.nb = a_lo, nb
        self.lowest = a_lo == h + 1  # the sweep's last block: no block to prune for
        self.starts = np.arange(a_lo, a_hi + 1)
        self.new = self.starts + h
        ends = np.arange(a_lo + h - 1, max(a_hi + h, last))
        with np.errstate(divide="ignore", invalid="ignore"):  # spans of length <= 0 when h < nb
            self.rss = _span_rss(s, self.starts[:, None], ends)
        np.copyto(self.rss[:, :nb], np.inf, where=np.tri(nb, k=-1, dtype=bool))
        if plan is not None:
            cc = s.cumulants[0][self.new - 1]
            self.sdm = cc - cc[:, None]
            self.m = self.sdm * plan.inv_gap[:nb, :nb]
            self.sdm *= self.m


class _Layer:
    """One pruning layer's sweep state, carried from block to block: the
    live candidates, their mean intervals [lo; hi], and the probe (the
    best candidate at the last block's smallest start)."""

    def __init__(self):
        self.live = np.empty(0, dtype=np.intp)
        self.ends = np.empty((2, 0))
        self.probe = None

    def step(self, s: TimeSeries, blk: _Block, k: int, before: int, prev: np.ndarray,
             out: np.ndarray, plan: _Plan) -> None:
        """Fill out at the block's first k starts from prev, with before starts in earlier blocks."""
        cum, cumsq = s.cumulants
        starts, new = blk.starts[:k], blk.new[:k]
        vals = blk.rss[:k, :blk.nb] + prev[new[0] : new[0] + blk.nb]  # +inf past prev's last start
        best = vals.min(axis=1)
        i = int(np.argmin(vals[0, :k]))  # the next probe: best candidate at a_lo
        nxt, at_lo = new[i], vals[0, i]
        del vals  # block-sized temporaries are freed once used
        if self.probe is not None:
            vals = _span_rss(s, starts, self.probe - 1) + prev[self.probe]
            np.minimum(best, vals, out=best)
            if vals[0] < at_lo:
                nxt, at_lo = self.probe, vals[0]
        row0 = blk.rss[0, :k]  # span RSS at a_lo, to learn which c never snap
        f = prev[self.live] < best.max()
        old = self.live[f]
        if old.size:
            vals = _span_rss(s, starts[:, None], old - 1)
            row0 = np.concatenate((row0, vals[0]))
            vals += prev[old]
            np.minimum(best, vals.min(axis=1), out=best)
            i = int(np.argmin(vals[0]))
            if vals[0, i] < at_lo:
                nxt = old[i]
            del vals
        out[blk.a_lo : blk.a_lo + k] = best
        self.probe = nxt
        if blk.lowest:
            return
        if before >= 4 * _BLOCK_STARTS and 2 * self.live.size > before:
            self.live = np.concatenate((new, self.live))
            return

        cand = np.concatenate((new, old))
        e = plan.snap[cand - 1]
        dc = prev[cand]
        t = 2 * (np.where(row0 > e, plan.settled[cand - 1], e) + 8 * (_EPS / 2) * dc)
        pc = dc + cumsq[cand - 1]  # D_c + Q_c: the part of q_c's constant that varies
        hull = np.concatenate((plan.dom[:, :k], self.ends[:, f]), axis=1)
        keep = _prune(cand, cum[cand - 1], pc + t, pc - t, hull, blk.m[:k, :k],
                      blk.sdm[:k, :k], plan)
        rest = ~f
        self.live = np.concatenate((cand[keep], self.live[rest]))
        self.ends = np.concatenate((hull[:, keep], self.ends[:, rest]), axis=1)


def _prune(cand: np.ndarray, cc: np.ndarray, up: np.ndarray, down: np.ndarray,
           hull: np.ndarray, m_n: np.ndarray, sdm_n: np.ndarray, plan: _Plan) -> np.ndarray:
    """Which candidates stay live; narrows their mean intervals in place.

    cand holds the block's nb new candidates, then the old ones; per
    candidate c, cc = cum[c-1], up and down = D_c + Q_c +- 2 e_c and
    hull = [lo; hi]; m_n and sdm_n are the block's pair arrays of the new
    candidates (see _Block), only read. For a pair c' < c with m the
    mean of y[c'..c-1], c is within tau of c' where
    L (mu - m)^2 <= d + tau, d = D_c' - D_c - R, and c beats c' by more
    than tau where L (mu - m)^2 < d - tau. Rows are new candidates c',
    columns the later ones.
    """
    nb, wid = m_n.shape[0], plan.wid
    inv_n = plan.inv_gap[:nb, :nb]
    later = plan.not_later[:nb, :nb]
    with np.errstate(invalid="ignore"):  # sqrt < 0: c loses everywhere, NaN drops it
        r = up[:nb, None] - down[:nb]
        r += sdm_n
        r += later
        r *= inv_n
        _narrow(hull[:, :nb], m_n, np.sqrt(r, out=r), wid)
        del r  # each pair matrix is freed once used, to keep the peak low
        # a new candidate dropped by newer ones constrains the others no
        # more than those do, so only the survivors narrow the old ones
        rows = np.flatnonzero(hull[0, :nb] <= hull[1, :nb])
        dm = down[rows, None] - up[:nb]
        dm += sdm_n[rows]
        dm -= later[rows]
        m_n = m_n[rows]
        covered = _covers(dm, inv_n[rows], m_n, hull[:, rows], wid)
        del dm, m_n
        if cand.size > nb:
            inv_o = 1.0 / (cand[nb:] - cand[rows, None])
            sdm_o = cc[nb:] - cc[rows, None]
            m_o = sdm_o * inv_o
            sdm_o *= m_o
            r = up[rows, None] - down[nb:]
            r += sdm_o
            r *= inv_o
            _narrow(hull[:, nb:], m_o, np.sqrt(r, out=r), wid)
            np.subtract(down[rows, None], up[nb:], out=r)
            r += sdm_o
            covered |= _covers(r, inv_o, m_o, hull[:, rows], wid)
    keep = hull[0] <= hull[1]
    keep[rows[covered]] = False
    return keep


def _narrow(hull: np.ndarray, m: np.ndarray, r: np.ndarray, wid: float) -> None:
    """Intersect each column's [lo; hi] with every row's [m - r, m + r], widened."""
    edge = m - r
    np.maximum(hull[0], edge.max(axis=0) - wid, out=hull[0])
    np.add(m, r, out=edge)
    np.minimum(hull[1], edge.min(axis=0) + wid, out=hull[1])


def _covers(dm: np.ndarray, inv: np.ndarray, m: np.ndarray, hull: np.ndarray,
            wid: float) -> np.ndarray:
    """Per row: some column beats it over its whole interval [lo; hi].

    dm * inv is the squared radius around m inside which the column
    wins; the radius is narrowed by wid. NaN (a negative square) never
    covers. dm is overwritten.
    """
    dm *= inv
    beat = np.sqrt(dm, out=dm)
    beat -= wid
    off = m - 0.5 * (hull[1] + hull[0])[:, None]
    beat -= np.abs(off, out=off)
    return (beat > 0.5 * (hull[1] - hull[0])[:, None]).any(axis=1)


def _reconstruct(tri: RssTriangle, D: np.ndarray, m: int) -> list[int]:
    """Break positions for the m-break optimum, smallest lexicographic on ties."""
    s, n, h = tri.series, tri.n, tri.min_len
    breaks: list[int] = []
    a = 1
    for j in range(m + 1, 1, -1):
        b_lo = a + h - 1
        b_hi = n - (j - 1) * h
        vals = _span_rss(s, a, np.arange(b_lo, b_hi + 1)) + D[j - 1, b_lo + 1 : b_hi + 2]
        b = b_lo + int(np.argmin(vals))  # first minimum = smallest break
        breaks.append(b)
        a = b + 1
    return breaks


def optimal_breaks(tri: RssTriangle, m: int) -> Segmentation:
    """Globally RSS-minimal partition with exactly m breaks.

    Ties between partitions with equal RSS go to the lexicographically
    smallest break vector.
    """
    _check_dp(tri.n, tri.min_len, m)
    breaks = _reconstruct(tri, _suffix_costs(tri, m + 1), m)
    return segmentation_from_breaks(tri.series, breaks, min_len=tri.min_len)


def bic_value(n: int, rss: float, m: int) -> float:
    """BIC of an m-break fit: n log(RSS/n) + (2m + 2) log n.

    The parameter count is m + 1 segment means, m break dates and one
    variance; additive constants are dropped since only the argmin is
    used. RSS/n = 0 (RSS 0 or an underflow) maps to -inf: noiseless fits win.
    """
    penalty = (2 * m + 2) * math.log(n)
    if rss / n <= 0.0:
        return float("-inf")
    return n * math.log(rss / n) + penalty


def select_breaks_bic(tri: RssTriangle, max_m: int) -> Segmentation:
    """Best segmentation over m = 0..max_m by BIC; ties go to smaller m.

    The returned Segmentation carries the full (m, BIC) trace.
    """
    _check_dp(tri.n, tri.min_len, max_m)
    D = _suffix_costs(tri, max_m + 1)
    rss_by_m = D[1:, 1]  # D[m+1, 1] is the m-break optimum over the full span
    trace = [(float(m), bic_value(tri.n, float(rss_by_m[m]), m)) for m in range(max_m + 1)]
    best_m = min(range(max_m + 1), key=lambda m: (trace[m][1], m))
    breaks = _reconstruct(tri, D, best_m)
    return segmentation_from_breaks(tri.series, breaks, min_len=tri.min_len, trace=trace)


def fitted_step(s: TimeSeries, seg: Segmentation) -> TimeSeries:
    """Per-segment means replicated over each segment, for plots/reports."""
    if seg.n != s.n:
        raise ValueError(f"segmentation covers {seg.n} observations, series has {s.n}")
    out = np.repeat(seg.segment_means, np.diff((0,) + seg.breaks + (seg.n,)))
    return s.with_values(out, label=f"{s.label} (step fit)".strip())
