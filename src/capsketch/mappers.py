"""Randomized mappings of input elements to output elements.

Two mappings cover the measurement modes: point (emit an outkey per replica
whose exponential draw lands below a threshold) and full-range (emit every
draw so any threshold can be applied later). The combination mode maps with
the full-range mapping and values each draw at the tail integral of its
coefficient function itself (``CombinationPipeline``).

Every replica draw is keyed by (seed, element ordinal, replica index), so a
mapping is a pure function of the element, its ordinal and the config. The
mappings take arrays of elements. The point mapping emits, once each, the
outkeys that mapping each element on its own would; given the bound of the
bottom-k counter it feeds, it draws only the (key, replica) cells whose rank
can enter that counter, and emits outkeys that leave the counter as all of
them would. The full-range mapping emits one
output per distinct (key, replica) of the call, carrying the smallest of that
pair's draws: the threshold and max-distinct statistics of the output
elements depend on each outkey's smallest draw only, so this keeps every
statistic the sketches see. Of rows that continue a key's run from an earlier
chunk it draws only the cells that can lower that minimum, so the output is
that of drawing every cell. Both reject the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, e, inf
from typing import Iterable

import numpy as np

from .core import MIN_EPSILON, ElementValidationError, RandomnessSource, _to_unit_np, base_ranks, outkey_block

__all__ = [
    "MapperConfig",
    "point_outkeys_batch",
    "full_range_batch",
    "choose_replication",
]

# Cap on draw-matrix cells per vectorized chunk (elements x replicas): half a
# megabyte per float64 matrix, so a chunk's temporaries stay in cache.
_CHUNK_CELLS = 1 << 16
# A chunk with runs of several rows is reduced with one contiguous minimum per
# run when its rows hold at least _WIDE_ROW draws and it has at most r runs,
# and with one minimum.reduceat otherwise. On 65,536-cell chunks (numpy 2.4,
# x86-64), reduceat cost about 1 ns per draw plus 8 ns per output draw, and a
# run's minimum about 3 us plus 35 ns per row. Run by run won up to about r
# runs for r in [64, 200], at every run count for r = 300 and 501 (r=501: 33
# against 87 us for one run, 359 against 602 us for 128), and at none for
# r <= 48 (r=7, one run: 348 against 63 us).
_WIDE_ROW = 64
# A draw -ln(u)/value stays finite for every u the source yields (-ln(u) is
# below 38) once value is at least this; smaller values are checked draw by draw.
_MIN_SAFE_VALUE = 1e-300
# _hash_floor's margin on -ln(u), against rounding errors below 1e-12 there.
_MARGIN = 2.0**-20


@dataclass(frozen=True)
class MapperConfig:
    """Shared mapper parameters: ``t`` applies to point mappings, ``r`` and
    ``seed`` to both."""

    r: int
    t: float | None = None
    seed: int = 0

    def __post_init__(self):
        if int(self.r) < 1:
            raise ValueError(f"replication r must be >= 1, got {self.r}")
        object.__setattr__(self, "r", int(self.r))
        if self.t is not None and (self.t < 0.0 or self.t != self.t):
            raise ValueError(f"threshold t must be >= 0, got {self.t}")

    def source(self) -> RandomnessSource:
        return RandomnessSource(self.seed)


def _checked(values) -> np.ndarray:
    """Element values as float64; like :class:`Element`, rejects any value
    that is not positive and finite."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all((values > 0.0) & (values < inf)):
        raise ElementValidationError("element values must be positive finite numbers")
    return values


def _exp_draws(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Exponential draws -ln(u)/value in place in ``u``, as log(u)/-value (the
    same bits), ``values`` broadcast; rejects a value whose draw overflows."""
    np.log(u, out=u)
    with np.errstate(over="ignore"):
        u /= -values
    tiny = values < _MIN_SAFE_VALUE
    if tiny.any() and (bad := np.isinf(u) & tiny).any():
        value = float(np.broadcast_to(values, u.shape)[bad][0])
        raise ElementValidationError(f"element value {value!r} is too small: its exponential draws overflow")
    return u


def _draws(src: RandomnessSource, ordinals: np.ndarray, values: np.ndarray, r: int) -> np.ndarray:
    """Exponential draws of every (element, replica), shape (len(values), r)."""
    return _exp_draws(src.uniform_block(ordinals, r), values[:, None])


def _hash_floor(mins: np.ndarray, vmax: float) -> np.ndarray:
    """Per replica i, a hash word below which no draw -ln(u)/v with v <= vmax
    is below B = mins[i]; that needs u > exp(-B*vmax). The floor is that of
    u = (1 - _MARGIN) * exp(-B*vmax): its -ln(u) exceeds B*vmax by _MARGIN,
    far more than the rounding of the product, exp, log and the division. A
    B*vmax above 53*ln(2), or one that overflows, lets every cell through."""
    with np.errstate(over="ignore"):
        u = np.exp(mins * -vmax)
    return (u * ((1.0 - _MARGIN) * 2.0**53)).astype(np.uint64) << np.uint64(11)


def _lower(src: RandomnessSource, mins: np.ndarray, ordinals: np.ndarray, values: np.ndarray) -> None:
    """Lower ``mins``, one run's smallest draw per replica so far, by further
    rows of the run, drawing only the cells :func:`_hash_floor` lets through:
    all of them if a value is below _MIN_SAFE_VALUE, so an overflow is rejected."""
    h = src.hash_block(ordinals, len(mins))
    floor = _hash_floor(mins, values.max()) if values.min() >= _MIN_SAFE_VALUE else 0
    rows, reps = np.divmod(np.flatnonzero(h >= floor), len(mins))  # faster than a 2-d nonzero
    np.minimum.at(mins, reps, _exp_draws(_to_unit_np(h[rows, reps]), values[rows]))


def _chunks(n: int, r: int) -> Iterable[tuple[int, int]]:
    rows = max(1, _CHUNK_CELLS // max(r, 1))
    for lo in range(0, n, rows):
        yield lo, min(n, lo + rows)


def _group(key64s: np.ndarray, values: np.ndarray, ordinals: np.ndarray):
    """(keys, values, ordinals, starts): the rows sorted by key, so that each
    key's elements are one run of rows, and the first row of each run."""
    order = np.argsort(key64s)
    skeys = key64s[order]
    starts = np.flatnonzero(np.r_[True, skeys[1:] != skeys[:-1]])
    return skeys, values[order], ordinals[order], starts


def _run_minima(src: RandomnessSource, ordinals: np.ndarray, values: np.ndarray, starts: np.ndarray, r: int) -> np.ndarray:
    """Smallest replica-i draw of each run of rows (runs begin at ``starts``),
    shape (len(starts), r), drawn a chunk of rows at a time. The rows of a run
    begun in an earlier chunk draw only the cells that can lower its minima
    (:func:`_lower`), so the minima are those of drawing every cell."""
    # A chunk whose runs are each one row is not reduced (reduceat costs far
    # more than the draws it copies); see _WIDE_ROW for the others.
    mins = np.full((len(starts), r), inf)
    for lo, hi in _chunks(len(values), r):
        g0 = int(np.searchsorted(starts, lo, side="right")) - 1
        g1 = int(np.searchsorted(starts, hi, side="left"))
        cuts = np.concatenate(([lo], starts[g0 + 1 : g1], [hi]))
        if starts[g0] < lo:  # run g0 continues from an earlier chunk
            _lower(src, mins[g0], ordinals[lo : cuts[1]], values[lo : cuts[1]])
            g0, cuts = g0 + 1, cuts[1:]
            if g0 == g1:
                continue
        lo, cuts = cuts[0], cuts - cuts[0]
        y = _draws(src, ordinals[lo:hi], values[lo:hi], r)
        runs = g1 - g0
        if runs < hi - lo and max(runs, _WIDE_ROW) <= r:
            for g, a, b in zip(range(g0, g1), cuts[:-1].tolist(), cuts[1:].tolist()):
                np.minimum.reduce(y[a:b], axis=0, out=mins[g])
            continue
        if runs < hi - lo:
            y = np.minimum.reduceat(y, cuts[:-1], axis=0)
        mins[g0:g1] = y
    return mins


def _below(ranks: np.ndarray, okeys: np.ndarray, kth: tuple[float, int]) -> np.ndarray:
    """Mask of the (rank, outkey) pairs below ``kth`` in (rank, outkey) order."""
    rank, okey = kth
    return (ranks < rank) | ((ranks == rank) & (okeys < np.uint64(okey)))


def _fire_dense(src, ordinals, values, starts, ends, r: int, t: float) -> np.ndarray:
    """Whether each cell of a block of keys fires, every row drawn at every
    replica. Cell c is replica ``c % r`` of the key whose rows are
    ``starts[c // r]`` to ``ends[c // r]``; the block's rows are contiguous."""
    lo, hi = starts[0], ends[-1]
    return _run_minima(src, ordinals[lo:hi], values[lo:hi], starts - lo, r).ravel() <= t


def _fire_gathered(src, ordinals, values, starts, ends, r: int, t: float, cells: np.ndarray) -> tuple[np.ndarray, int]:
    """Whether each of the given cells fires, its key's rows drawn at its
    replica only, and the number of draws taken; cells as for :func:`_fire_dense`."""
    keys = cells // r
    lens = ends[keys] - starts[keys]
    at = np.cumsum(lens) - lens
    rows = np.arange(int(lens.sum())) + np.repeat(starts[keys] - at, lens)
    y = _exp_draws(src.uniform_block(ordinals[rows], np.repeat(cells % r, lens)), values[rows])
    return np.logical_or.reduceat(y <= t, at), len(rows)


def point_outkeys_batch(
    key64s: np.ndarray,
    values: np.ndarray,
    cfg: MapperConfig,
    ordinals: np.ndarray,
    k: int | None = None,
    kth: tuple[float, int] | None = None,
) -> np.ndarray:
    """Vectorized point mapping; returns fired outkeys as a uint64 array.

    The (key, replica) cell fires, and emits its outkey, when some element of
    the key has an Exp(value) replica draw <= t, so each replica of an
    element fires independently with probability 1 - exp(-value * t).
    Without ``k``, every cell is drawn and each fired outkey is returned once.

    With ``k``, the call feeds a :class:`DistinctCounter` of size k and seed
    ``cfg.seed`` whose k-th smallest (base rank, outkey) is ``kth`` (None
    while it holds fewer than k entries). It returns fired outkeys, perhaps
    repeated, that hold the k smallest below ``kth`` in (rank, outkey)
    order, the only ones the counter can retain. A cell's rank depends on
    its outkey alone, so the cells below the bound are visited in rank
    order, in blocks of 2k that grow fourfold, and each block's keys are
    drawn at the block's replicas only; after each block the k-th smallest
    fired cell lowers the bound. Once the draws taken cell by cell pass a
    sixteenth of the call's n*r, the keys of the remaining cells are drawn
    densely instead. A call whose n*r cells fit one dense chunk draws them
    all at once.

    Either way every element's value is checked: rejects the values
    :func:`full_range_batch` rejects, with :class:`ElementValidationError`.
    """
    if cfg.t is None:
        raise ValueError("point mapping requires a threshold t")
    src, r, t = cfg.source(), cfg.r, cfg.t
    key64s = np.asarray(key64s, dtype=np.uint64)
    values = _checked(values)
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    if k is not None and len(values) * r <= _CHUNK_CELLS:
        # drawing one dense chunk whole costs less than ranking its cells first
        return outkey_block(key64s, r)[_draws(src, ordinals, values, r) <= t]
    tiny = values < _MIN_SAFE_VALUE
    if tiny.any():  # every element's draws are checked, also those never drawn below
        _draws(src, ordinals[tiny], values[tiny], r)
    if len(values) == 0:
        return np.empty(0, dtype=np.uint64)
    skeys, svalues, sordinals, starts = _group(key64s, values, ordinals)
    ends = np.append(starts[1:], len(values))
    budget, gathered = len(values) * r // 16, 0
    out, top_okeys, top_ranks = [], np.empty(0, dtype=np.uint64), np.empty(0)
    per = max(1, _CHUNK_CELLS // r)
    for g0 in range(0, len(starts), per):  # a block of keys with at most _CHUNK_CELLS cells
        block_of_keys = (src, sordinals, svalues, starts[g0 : g0 + per], ends[g0 : g0 + per], r, t)
        okeys = outkey_block(skeys[starts[g0 : g0 + per]], r).ravel()
        if k is None:
            out.append(okeys[_fire_dense(*block_of_keys)])
            continue
        ranks = base_ranks(okeys, cfg.seed)
        cells = np.arange(len(okeys)) if kth is None else np.flatnonzero(_below(ranks, okeys, kth))
        m = 2 * k
        while cells.size:
            if gathered > budget:  # gathering pair by pair now costs more than dense draws
                block, cells = cells, cells[:0]
                fired = block[_fire_dense(*block_of_keys)[block]]
            else:
                if m < cells.size:
                    # the m lowest-ranked cells and any that tie the m-th
                    near = ranks[cells] <= np.partition(ranks[cells], m - 1)[m - 1]
                    block, cells = cells[near], cells[~near]
                else:
                    block, cells = cells, cells[:0]
                hit, draws = _fire_gathered(*block_of_keys, block)
                fired, gathered, m = block[hit], gathered + draws, 4 * m
            top_okeys = np.concatenate([top_okeys, okeys[fired]])
            top_ranks = np.concatenate([top_ranks, ranks[fired]])
            if len(top_okeys) >= k:
                keep = np.lexsort((top_okeys, top_ranks))[:k]
                top_okeys, top_ranks = top_okeys[keep], top_ranks[keep]
                kth = (top_ranks[-1], top_okeys[-1])
                cells = cells[_below(ranks[cells], okeys[cells], kth)]
    return np.concatenate(out) if k is None else top_okeys


def full_range_batch(
    key64s: np.ndarray,
    values: np.ndarray,
    cfg: MapperConfig,
    ordinals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized full-range mapping reduced to one output per distinct (key, replica).

    Returns (outkeys, draws): for each distinct key64 of the call (ascending)
    and each replica i, the outkey of (key, i) and the smallest replica-i
    draw among the key's elements, where the per-element mapping emits every
    draw of every element. Like :class:`Element`, it rejects values that are
    not positive and finite, and it rejects values so small that a draw
    overflows, with :class:`ElementValidationError`.
    """
    src = cfg.source()
    key64s = np.asarray(key64s, dtype=np.uint64)
    values = _checked(values)
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    if len(values) == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
    skeys, svalues, sordinals, starts = _group(key64s, values, ordinals)
    mins = _run_minima(src, sordinals, svalues, starts, cfg.r)
    return outkey_block(skeys[starts], cfg.r).ravel(), mins.ravel()


def choose_replication(epsilon: float, max_over_sum: float | None = None) -> int:
    """Replication count giving a concentrated measurement at error target epsilon.

    Worst case ceil(e/(e-1) * epsilon^-2.5); callers that know the ratio
    MAX(W)/SUM(W) can shrink it, down to r=1 once SUM >= epsilon^-2.5 * MAX.
    """
    if not MIN_EPSILON <= epsilon < 1.0:
        raise ValueError(f"error target must be in [{MIN_EPSILON:g}, 1), got {epsilon}")
    worst = ceil(e / (e - 1.0) * epsilon**-2.5)
    if max_over_sum is None:
        return worst
    if not 0.0 < max_over_sum <= 1.0:
        raise ValueError(f"MAX/SUM ratio must be in (0,1], got {max_over_sum}")
    if max_over_sum <= epsilon**2.5:
        return 1
    return min(worst, max(1, ceil(e / (e - 1.0) * epsilon**-2.5 * max_over_sum)))
