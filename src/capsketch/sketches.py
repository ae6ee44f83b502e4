"""Mergeable summaries over output elements.

All three counting sketches are one bottom-k structure driven by one rank
discipline: each outkey owns a deterministic uniform u in (0,1), giving an
exponential base rank -ln(u). A sketch holds its outkeys, their base ranks
and one value per key as arrays, in the order ``to_bytes`` writes them. The
distinct counter keeps the k smallest base ranks; the max-distinct sketch
divides the base rank by the largest value seen for the key, so a key's rank
shrinks as its value grows; the all-threshold sketch keeps an entry when its
rank is among the k smallest of stored keys with a smaller-or-equal minimum
value, which answers threshold queries for every threshold at once; it
derives its threshold profile from those entries on the first query.

Updates, merges and reads all concatenate entry arrays and apply the
sketch's retention rule, so the state is a pure function of the entry set:
merge order and input sharding never change the result, and a merged sketch
is byte-identical to the single-pass sketch over the concatenated stream.
``merge`` takes any number of sketches and retains their union once. A
scalar ``update`` is a one-element ``update_batch``. ``to_bytes`` writes bare
entry records, so ``from_bytes`` takes ``k`` and ``seed`` from the caller; it
refuses with ``ParseError`` any value that no update takes.
Instances are single-writer; readers are safe between updates.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from math import inf

import numpy as np

from .core import IncompatibleSketchError, ParseError, base_ranks
from .sketchfile import ENTRY, OUTKEY, records

__all__ = [
    "DistinctCounter",
    "MaxDistinctSketch",
    "AllThresholdSketch",
    "SumCounter",
]

# Entries per step of a batch update of the distinct and max-distinct sketches.
_CHUNK_ENTRIES = 1 << 16


def _kth_estimate(k: int, kths: np.ndarray) -> np.ndarray:
    """(k-1)/(1 - e^-kth): the bottom-k distinct-count estimate at each k-th
    smallest rank, for the distinct counter and the all-threshold profile alike."""
    return (k - 1) / -np.expm1(-kths)


def _rank_cut(keys: np.ndarray, ranks: np.ndarray, k: int) -> np.ndarray:
    """Mask of the entries that can hold a place among the k smallest-ranked
    keys, where a key may repeat and ranks at its smallest entry.

    Once the m smallest entries name k distinct keys (at m = 2k when keys
    rarely repeat), the k-th of them in rank order bounds the k-th smallest
    key rank, and nothing above it matters. m grows fourfold until it does;
    when it covers the input first, every entry is kept.
    """
    m = 2 * k
    while m < len(ranks):
        low = np.argpartition(ranks, m - 1)[:m]
        low = low[np.argsort(ranks[low])]
        _, first = np.unique(keys[low], return_index=True)
        if len(first) >= k:
            return ranks <= ranks[low[np.sort(first)[k - 1]]]
        m *= 4
    return np.ones(len(ranks), dtype=bool)


def _bottom_k(okeys: np.ndarray, bases: np.ndarray, ms: np.ndarray, k: int) -> np.ndarray:
    """Indices of the entries a max-distinct sketch of size k retains, in
    (base/m, outkey) order.

    An outkey may repeat: it counts once, at its largest value m. Of those
    keys the k smallest (base/m, outkey) are kept. A distinct counter is the
    case m = 1.
    """
    ranks = bases / ms
    idx = np.flatnonzero(_rank_cut(okeys, ranks, k))
    # each key once, at its largest value: first in (key, -value) order
    idx = idx[np.lexsort((-ms[idx], okeys[idx]))]
    keys = okeys[idx]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    idx = idx[first]
    return idx[np.lexsort((okeys[idx], ranks[idx]))][:k]


def _retained_order(okeys: np.ndarray, ranks: np.ndarray, k: int) -> np.ndarray | None:
    """The (rank, outkey) order of entries given in walk order if a walk of
    size k retains every one, else None.

    It does exactly when the outkeys are distinct and each entry j >= k lies
    below D_(j-k), where D_0 > D_1 > ... are the entries' (rank, outkey) in
    descending order: past the k-th arrival each entry evicts the largest
    held, so the evictions are D_0, D_1, ... in turn, and the test puts each
    D_m in place by position m + k - 1, before its eviction.
    """
    # D_0 lies among the first k entries: an O(n) check that spares the sorts
    # to a fresh batch of n entries, which fails it with probability about 1 - k/n
    if len(okeys) > k and ranks[:k].max() < ranks.max():
        return None
    distinct = np.sort(okeys)
    if (distinct[1:] == distinct[:-1]).any():
        return None
    by_rank = np.lexsort((okeys, ranks))
    d = by_rank[::-1][: max(len(okeys) - k, 0)]  # D_0 ... D_(n-k-1)
    r, o, rd, od = ranks[k:], okeys[k:], ranks[d], okeys[d]
    return by_rank if ((r < rd) | ((r == rd) & (o < od))).all() else None


def _walk_kept(okeys: np.ndarray, ranks: np.ndarray, k: int) -> np.ndarray:
    """Positions of the entries, in walk order, that a walk of size k retains.

    One is retained when its (rank, outkey) is below the k-th smallest of
    those retained before it; a repeated outkey is never retained twice. The
    k-th smallest only falls, so the walk goes in blocks of doubling width and
    compares each block against the k-th smallest at its start in one vector
    operation; the few entries below it are then taken one by one.
    """
    heap: list[tuple[float, int]] = []  # max-heap of the k smallest (rank, okey), negated
    kept: list[int] = []
    seen: set[int] = set()
    lo, width = 0, k
    while lo < len(okeys):
        hi = min(len(okeys), lo + width)
        if len(heap) < k:
            # each outkey's first entry only, so repeats cannot stall the walk
            cand = lo + np.sort(np.unique(okeys[lo:hi], return_index=True)[1])
        else:
            top_rank, top_okey = -heap[0][0], -heap[0][1]
            r, o = ranks[lo:hi], okeys[lo:hi]
            cand = lo + np.flatnonzero((r < top_rank) | ((r == top_rank) & (o < np.uint64(top_okey))))
        for i, rank, okey in zip(cand.tolist(), ranks[cand].tolist(), okeys[cand].tolist()):
            if okey in seen:
                continue
            if len(heap) < k:
                heapq.heappush(heap, (-rank, -okey))
            elif (rank, okey) < (-heap[0][0], -heap[0][1]):
                heapq.heapreplace(heap, (-rank, -okey))
            else:
                continue
            kept.append(i)
            seen.add(okey)
        lo, width = hi, 2 * width
    return np.asarray(kept, dtype=np.intp)


def _prefix_bottom_k(okeys: np.ndarray, ys: np.ndarray, ranks: np.ndarray, k: int) -> np.ndarray:
    """Indices of the entries an all-threshold sketch of size k retains, in
    (rank, outkey) order.

    Entries are walked in (y, rank, outkey) order, and an outkey's first
    entry has its smallest y. An input that is already retained, as every
    stored sketch is, is recognised in vector operations; any other goes
    through :func:`_walk_kept`.
    """
    order = np.argsort(ys)
    s_ys = ys[order]
    if (s_ys[1:] == s_ys[:-1]).any():  # tied values: order them by (rank, outkey)
        order = np.lexsort((okeys, ranks, ys))
    s_okeys, s_ranks = okeys[order], ranks[order]
    by_rank = _retained_order(s_okeys, s_ranks, k)
    if by_rank is None:
        order = order[_walk_kept(s_okeys, s_ranks, k)]
        by_rank = np.lexsort((okeys[order], ranks[order]))
    return order[by_rank]


class _BottomK:
    """Entry arrays of a counting sketch: outkeys (``_entries``), their base
    ranks and one value per key, in the order ``to_bytes`` writes them.

    Every change concatenates entries to the stored ones and applies
    :meth:`_retain`, the sketch's retention rule.
    """

    def __init__(self, k: int, seed: int = 0):
        if int(k) < 1:
            raise ValueError(f"sketch size k must be >= 1, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        self._entries = np.empty(0, dtype=np.uint64)
        self._ranks = np.empty(0, dtype=np.float64)
        self._values = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _check(values: np.ndarray) -> None:
        """Raise ValueError on values an update rejects."""

    @classmethod
    def _stored(cls, values: np.ndarray) -> np.ndarray:
        """Values read from a file as float64; ones no update takes raise ParseError."""
        values = values.astype(np.float64)
        try:
            cls._check(values)
        except ValueError as exc:
            raise ParseError(f"stored {exc}") from None
        return values

    def _retain(self, okeys: np.ndarray, bases: np.ndarray, values: np.ndarray) -> np.ndarray:
        return _bottom_k(okeys, bases, values, self.k)

    def _add(self, okeys: np.ndarray, bases: np.ndarray, values: np.ndarray) -> None:
        """Concatenate entries to the stored ones, then retain."""
        okeys = np.concatenate([self._entries, okeys])
        bases = np.concatenate([self._ranks, bases])
        values = np.concatenate([self._values, values])
        keep = self._retain(okeys, bases, values)
        self._entries, self._ranks, self._values = okeys[keep], bases[keep], values[keep]

    def _add_batch(self, okeys: np.ndarray, values: np.ndarray) -> None:
        """Add (outkey, value) entries under the global retention rule, a
        chunk at a time: an entry above its chunk's rank cut cannot be
        retained, so only a chunk's few candidates are concatenated, and
        temporaries stay the size of a chunk."""
        for lo in range(0, len(okeys), _CHUNK_ENTRIES):
            o, v = okeys[lo : lo + _CHUNK_ENTRIES], values[lo : lo + _CHUNK_ENTRIES]
            bases = base_ranks(o, self.seed)
            cut = _rank_cut(o, bases / v, self.k)
            self._add(o[cut], bases[cut], v[cut])

    def merge(self, *others):
        """A new sketch over every input's entries, retained once. Each sketch
        class holds it as its own ``merge``, so wrapping one leaves the others."""
        for other in others:
            if type(other) is not type(self):
                raise IncompatibleSketchError(f"cannot merge {type(self).__name__} with {type(other).__name__}")
            if other.k != self.k:
                raise IncompatibleSketchError(f"sketch size mismatch: k={self.k} vs k={other.k}")
            if other.seed != self.seed:
                raise IncompatibleSketchError(f"sketch seed mismatch: {self.seed} vs {other.seed}")
        parts = (self, *others)
        out = type(self)(self.k, self.seed)
        out._add(
            np.concatenate([p._entries for p in parts]),
            np.concatenate([p._ranks for p in parts]),
            np.concatenate([p._values for p in parts]),
        )
        return out

    @classmethod
    def _read(cls, okeys: np.ndarray, values: np.ndarray, k: int, seed: int):
        """Sketch of size k and seed retaining the given entries."""
        okeys = okeys.astype(np.uint64)
        sk = cls(k, seed)
        sk._add(okeys, base_ranks(okeys, seed), cls._stored(values))
        return sk


class DistinctCounter(_BottomK):
    """Bottom-k distinct counter over outkeys.

    Exact below k entries; at and beyond k, estimates (k-1)/(1 - exp(-R_k))
    where R_k is the k-th smallest base rank, which is the classical k-minimum
    -values estimator with CV about 1/sqrt(k-2).
    """

    def update(self, outkey: int) -> None:
        self.update_batch(np.array([outkey], dtype=np.uint64))

    def update_batch(self, outkeys: np.ndarray) -> None:
        outkeys = np.asarray(outkeys, dtype=np.uint64)
        if outkeys.size == 0:
            return
        self._add_batch(outkeys, np.broadcast_to(1.0, outkeys.shape))

    def kth(self) -> tuple[float, int] | None:
        """The k-th smallest (base rank, outkey) held, which an outkey must
        lie below to be retained; None below k entries."""
        if len(self._entries) < self.k:
            return None
        return float(self._ranks[-1]), int(self._entries[-1])

    merge = _BottomK.merge

    def estimate(self) -> float:
        n = len(self._entries)
        if n < self.k:
            return float(n)
        return float(_kth_estimate(self.k, self._ranks[-1:])[0])

    def to_bytes(self) -> bytes:
        return self._entries.astype(OUTKEY).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, k: int, seed: int = 0) -> "DistinctCounter":
        okeys = records(data, OUTKEY)
        return cls._read(okeys, np.ones(len(okeys)), k, seed)


class MaxDistinctSketch(_BottomK):
    """Bottom-k sketch estimating the sum over distinct outkeys of the
    maximum value seen for the key.

    Ranks are -ln(u)/m, exponential with rate m, so a key's rank only shrinks
    as its stored maximum grows; a key evicted at a small value re-enters
    correctly if a larger value arrives later. Exact below k keys; saturated
    estimate (k-1)/R_k.
    """

    def update(self, outkey: int, value: float) -> None:
        self.update_batch(np.array([outkey], dtype=np.uint64), np.array([value], dtype=np.float64))

    def update_batch(self, outkeys: np.ndarray, values: np.ndarray) -> None:
        outkeys = np.asarray(outkeys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.float64)
        if outkeys.size == 0:
            return
        self._check(values)
        self._add_batch(outkeys, values)

    @staticmethod
    def _check(values: np.ndarray) -> None:
        if not ((values > 0.0) & (values < inf)).all():
            raise ValueError("max-distinct values must be positive and finite")

    merge = _BottomK.merge

    def estimate(self) -> float:
        if len(self._entries) < self.k:
            return float(self._values.sum())
        return (self.k - 1) / float(self._ranks[-1] / self._values[-1])

    def to_bytes(self) -> bytes:
        return np.rec.fromarrays([self._entries, self._values], dtype=ENTRY).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, k: int, seed: int = 0) -> "MaxDistinctSketch":
        rec = records(data, ENTRY)
        return cls._read(rec["outkey"], rec["value"], k, seed)


class AllThresholdSketch(_BottomK):
    """All-threshold distinct counter: one structure answering, for every t,
    how many distinct outkeys carry a value <= t.

    Each outkey stores its minimum value y; an entry is retained while its
    rank is among the k smallest ranks of stored keys with y' <= y. For any t
    the retained entries with y <= t therefore contain the k smallest-rank
    keys among all keys with minimum value <= t, so threshold queries behave
    exactly like a bottom-k counter built at that threshold. Expected size is
    O(k log(n/k)).

    The sketch is its entries: the count, the k-th smallest rank and the
    estimate at each stored y, which every query reads, are derived from them.
    """

    def update(self, outkey: int, y: float) -> None:
        self.update_batch(np.array([outkey], dtype=np.uint64), np.array([y], dtype=np.float64))

    def update_batch(self, outkeys: np.ndarray, ys: np.ndarray) -> None:
        outkeys = np.asarray(outkeys, dtype=np.uint64)
        ys = np.asarray(ys, dtype=np.float64)
        if outkeys.size == 0:
            return
        self._check(ys)
        self._add(outkeys, base_ranks(outkeys, self.seed), ys)

    @staticmethod
    def _check(ys: np.ndarray) -> None:
        if not ((ys >= 0.0) & (ys < inf)).all():
            raise ValueError("threshold values must be finite and >= 0")

    def _retain(self, okeys: np.ndarray, bases: np.ndarray, ys: np.ndarray) -> np.ndarray:
        self.__dict__.pop("_profile", None)
        return _prefix_bottom_k(okeys, ys, bases, self.k)

    @cached_property
    def _profile(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """At each distinct stored y, ascending: the number m of entries with
        y' <= y and the k-th smallest rank among them (inf while m < k).
        Last, the estimate at t for each count of distinct stored ys <= t,
        from none: 0, then m while m < k and (k-1)/(1 - e^-kth) from there
        on. Built on the first query after a change, so reads and merges that
        are only written out never build it.

        The entries are a retained set, so past the first k - 1 in y order
        the k-th smallest rank is each stored rank in turn, largest first."""
        y = np.sort(self._values)
        counts = np.arange(1, len(y) + 1)
        kths = np.full(len(y), inf)
        kths[self.k - 1 :] = self._ranks[::-1][: max(len(y) - self.k + 1, 0)]
        ests = np.arange(len(y) + 1.0)
        ests[self.k :] = _kth_estimate(self.k, kths[self.k - 1 :])
        if (y[1:] == y[:-1]).any():  # keep the last entry of each run of equal y
            at = np.flatnonzero(np.append(y[1:] != y[:-1], True))
            y, counts, kths, ests = y[at], counts[at], kths[at], ests[np.append(0, at + 1)]
        return y, counts, kths, ests

    def estimate_at(self, t: float) -> float:
        """Estimated number of distinct outkeys with minimum value <= t."""
        ys, _, _, ests = self._profile
        return float(ests[np.searchsorted(ys, t, side="right")])

    def estimate_all(self, ts: np.ndarray) -> np.ndarray:
        ys, _, _, ests = self._profile
        return ests[np.searchsorted(ys, np.asarray(ts, dtype=np.float64), side="right")]

    def breakpoints(self) -> np.ndarray:
        """Distinct stored minimum values, ascending; the estimate is a step
        function of t changing only at these points."""
        return self._profile[0].copy()

    merge = _BottomK.merge

    def to_bytes(self) -> bytes:
        return np.rec.fromarrays([self._entries, self._values], dtype=ENTRY).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, k: int, seed: int = 0) -> "AllThresholdSketch":
        rec = records(data, ENTRY)
        return cls._read(rec["outkey"], rec["value"], k, seed)


class SumCounter:
    """Exact accumulator of element values.

    Values are accumulated as exact rationals (binary floats are dyadic), so
    addition is associative and merges are byte-identical to single-pass
    accumulation regardless of how the stream was partitioned.
    """

    def __init__(self):
        self._total = Fraction(0)

    def update(self, value: float) -> None:
        self.update_batch(np.array([value], dtype=np.float64))

    def update_batch(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if not np.all((values > 0.0) & (values < inf)):
            raise ValueError("summed values must be positive and finite")
        # Each value is m * 2**(e - 53) with an integer m < 2**53; sorted
        # values keep each exponent e in one run. The m of a run are summed in
        # int64 as halves of 27 and 26 bits, which cannot overflow below 2**36
        # values, and the run sums join exactly as Python ints.
        mant, exp = np.frexp(np.sort(values))
        m = (mant * 2.0**53).astype(np.int64)
        at = np.flatnonzero(np.r_[True, exp[1:] != exp[:-1]])
        highs = np.add.reduceat(m >> 26, at).tolist()
        lows = np.add.reduceat(m & ((1 << 26) - 1), at).tolist()
        exps = (exp[at] - 53).tolist()
        total = sum(((h << 26) + lo) << (e - exps[0]) for h, lo, e in zip(highs, lows, exps))
        self._total += Fraction(total << exps[0]) if exps[0] >= 0 else Fraction(total, 1 << -exps[0])

    def merge(self, *others: "SumCounter") -> "SumCounter":
        for other in others:
            if type(other) is not SumCounter:
                raise IncompatibleSketchError(f"cannot merge SumCounter with {type(other).__name__}")
        out = SumCounter()
        out._total = sum((other._total for other in others), self._total)
        return out

    def value(self) -> float:
        """The sum as a float; inf beyond the largest float."""
        try:
            return float(self._total)
        except OverflowError:
            return inf

    def exact(self) -> Fraction:
        return self._total

    def to_bytes(self) -> bytes:
        """The exact sum as ASCII ``numerator/denominator``."""
        return str(self._total).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SumCounter":
        """The sum a ``to_bytes`` wrote; a negative one, which no update reaches, raises ParseError."""
        out = cls()
        try:
            out._total = Fraction(data.decode("ascii"))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed sum {data[:40]!r}") from None
        if out._total < 0:
            raise ParseError(f"negative sum {data[:40]!r}")
        return out
