"""Mergeable summaries over output elements.

All three counting sketches are one bottom-k structure driven by one rank
discipline: each outkey owns a deterministic uniform u in (0,1), giving an
exponential base rank -ln(u). A sketch holds its outkeys, their base ranks
and one value per key as arrays, in the order ``to_bytes`` writes them. The
distinct counter keeps the k smallest base ranks; the max-distinct sketch
divides the base rank by the largest value seen for the key, so a key's rank
shrinks as its value grows; the all-threshold sketch keeps an entry when its
rank is among the k smallest of stored keys with a smaller-or-equal minimum
value, which answers threshold queries for every threshold at once.

Updates, merges and reads all concatenate entry arrays and apply the
sketch's retention rule, so the state is a pure function of the entry set:
merge order and input sharding never change the result, and a merged sketch
is byte-identical to the single-pass sketch over the concatenated stream. A
scalar ``update`` is a one-element ``update_batch``. ``to_bytes`` writes bare
entry records, so ``from_bytes`` takes ``k`` and ``seed`` from the caller.
Instances are single-writer; readers are safe between updates.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import expm1, inf

import numpy as np

from .core import IncompatibleSketchError, ParseError, rank_uniforms
from .sketchfile import ENTRY, OUTKEY, records

__all__ = [
    "DistinctCounter",
    "MaxDistinctSketch",
    "AllThresholdSketch",
    "SumCounter",
]

# Entries per step of a batch update of the distinct and max-distinct sketches.
_CHUNK_ENTRIES = 1 << 16


def _base_ranks(outkeys: np.ndarray, seed: int) -> np.ndarray:
    return -np.log(rank_uniforms(outkeys, seed))


def _check_compatible(a, b):
    if type(a) is not type(b):
        raise IncompatibleSketchError(f"cannot merge {type(a).__name__} with {type(b).__name__}")
    if a.k != b.k:
        raise IncompatibleSketchError(f"sketch size mismatch: k={a.k} vs k={b.k}")
    if a.seed != b.seed:
        raise IncompatibleSketchError(f"sketch seed mismatch: {a.seed} vs {b.seed}")


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


def _prefix_bottom_k(okeys: np.ndarray, ys: np.ndarray, ranks: np.ndarray, k: int) -> np.ndarray:
    """Indices of the entries an all-threshold sketch of size k retains.

    Entries are taken in (y, rank, outkey) order; one is retained when its
    (rank, outkey) is below the k-th smallest of those retained before it.
    An outkey may repeat: its first entry has its smallest y, and a later
    one is never retained. The k-th smallest only falls, so the walk goes in
    blocks of doubling width and compares each block against the k-th
    smallest at its start in one vector operation; the few entries below it
    are then taken one by one.
    """
    order = np.argsort(ys)
    s_ys = ys[order]
    if (s_ys[1:] == s_ys[:-1]).any():  # tied values: order them by (rank, outkey)
        order = np.lexsort((okeys, ranks, ys))
    s_okeys, s_ranks = okeys[order], ranks[order]
    heap: list[tuple[float, int]] = []  # max-heap of the k smallest (rank, okey), negated
    kept: list[int] = []  # positions in sorted order
    seen: set[int] = set()
    lo, width = 0, k
    while lo < len(order):
        hi = min(len(order), lo + width)
        if len(heap) < k:
            # each outkey's first entry only, so repeats cannot stall the walk
            cand = lo + np.sort(np.unique(s_okeys[lo:hi], return_index=True)[1])
        else:
            top_rank, top_okey = -heap[0][0], -heap[0][1]
            r, o = s_ranks[lo:hi], s_okeys[lo:hi]
            cand = lo + np.flatnonzero((r < top_rank) | ((r == top_rank) & (o < np.uint64(top_okey))))
        for i, rank, okey in zip(cand.tolist(), s_ranks[cand].tolist(), s_okeys[cand].tolist()):
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
    return order[np.asarray(kept, dtype=np.intp)]


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
            bases = _base_ranks(o, self.seed)
            cut = _rank_cut(o, bases / v, self.k)
            self._add(o[cut], bases[cut], v[cut])

    def _merged(self, other):
        _check_compatible(self, other)
        out = type(self)(self.k, self.seed)
        out._entries, out._ranks, out._values = self._entries, self._ranks, self._values
        out._add(other._entries, other._ranks, other._values)
        return out

    @classmethod
    def _read(cls, okeys: np.ndarray, values: np.ndarray, k: int, seed: int):
        """Sketch of size k and seed retaining the given entries."""
        okeys = okeys.astype(np.uint64)
        sk = cls(k, seed)
        sk._add(okeys, _base_ranks(okeys, seed), values.astype(np.float64))
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

    def merge(self, other: "DistinctCounter") -> "DistinctCounter":
        return self._merged(other)

    def estimate(self) -> float:
        n = len(self._entries)
        if n < self.k:
            return float(n)
        return (self.k - 1) / -expm1(-float(self._ranks[-1]))

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
        if not np.all((values > 0.0) & (values < inf)):
            raise ValueError("max-distinct values must be positive and finite")
        self._add_batch(outkeys, values)

    def merge(self, other: "MaxDistinctSketch") -> "MaxDistinctSketch":
        return self._merged(other)

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
    """

    def __init__(self, k: int, seed: int = 0):
        super().__init__(k, seed)
        self._profile: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def update(self, outkey: int, y: float) -> None:
        self.update_batch(np.array([outkey], dtype=np.uint64), np.array([y], dtype=np.float64))

    def update_batch(self, outkeys: np.ndarray, ys: np.ndarray) -> None:
        outkeys = np.asarray(outkeys, dtype=np.uint64)
        ys = np.asarray(ys, dtype=np.float64)
        if outkeys.size == 0:
            return
        if not np.all((ys >= 0.0) & (ys < inf)):
            raise ValueError("threshold values must be finite and >= 0")
        self._add(outkeys, _base_ranks(outkeys, self.seed), ys)

    def _retain(self, okeys: np.ndarray, bases: np.ndarray, ys: np.ndarray) -> np.ndarray:
        keep = _prefix_bottom_k(okeys, ys, bases, self.k)
        return keep[np.lexsort((okeys[keep], bases[keep]))]

    def _add(self, okeys: np.ndarray, bases: np.ndarray, ys: np.ndarray) -> None:
        super()._add(okeys, bases, ys)
        self._profile = None

    def _build_profile(self):
        if self._profile is not None:
            return self._profile
        items = sorted(zip(self._values.tolist(), self._ranks.tolist(), self._entries.tolist()))
        ys, counts, kths = [], [], []
        heap: list[float] = []  # max-heap (negated) of the k smallest ranks so far
        for j, (y, rank, _) in enumerate(items):
            if len(heap) < self.k:
                heapq.heappush(heap, -rank)
            elif rank < -heap[0]:
                heapq.heapreplace(heap, -rank)
            count = j + 1
            kth = -heap[0] if count >= self.k else inf
            if ys and ys[-1] == y:
                counts[-1], kths[-1] = count, kth
            else:
                ys.append(y)
                counts.append(count)
                kths.append(kth)
        self._profile = (
            np.array(ys, dtype=np.float64),
            np.array(counts, dtype=np.int64),
            np.array(kths, dtype=np.float64),
        )
        return self._profile

    def estimate_at(self, t: float) -> float:
        """Estimated number of distinct outkeys with minimum value <= t."""
        ys, counts, kths = self._build_profile()
        idx = int(np.searchsorted(ys, t, side="right")) - 1
        if idx < 0:
            return 0.0
        m = int(counts[idx])
        if m < self.k:
            return float(m)
        return (self.k - 1) / -expm1(-float(kths[idx]))

    def estimate_all(self, ts: np.ndarray) -> np.ndarray:
        ys, counts, kths = self._build_profile()
        ts = np.asarray(ts, dtype=np.float64)
        if ys.size == 0:
            return np.zeros_like(ts)
        idx = np.searchsorted(ys, ts, side="right") - 1
        safe = np.maximum(idx, 0)
        m = counts[safe]
        with np.errstate(invalid="ignore"):
            est = np.where(m < self.k, m.astype(np.float64), (self.k - 1) / -np.expm1(-kths[safe]))
        return np.where(idx < 0, 0.0, est)

    def breakpoints(self) -> np.ndarray:
        """Distinct stored minimum values, ascending; the estimate is a step
        function of t changing only at these points."""
        return self._build_profile()[0].copy()

    def merge(self, other: "AllThresholdSketch") -> "AllThresholdSketch":
        return self._merged(other)

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
        # integers below 2**63 sum exactly as int64; larger ones go by exponent
        if values.max() < 2.0**63 and np.all(values == np.trunc(values)):
            self._total += int(values.astype(np.int64).sum(dtype=object))
            return
        mant, exp = np.frexp(values)
        mi = np.round(mant * 2.0**53).astype(np.int64)
        e2 = exp.astype(np.int64) - 53
        for ev in np.unique(e2):
            s = int(mi[e2 == ev].sum(dtype=object))
            ev = int(ev)
            self._total += Fraction(s << ev, 1) if ev >= 0 else Fraction(s, 1 << -ev)

    def merge(self, other: "SumCounter") -> "SumCounter":
        if type(other) is not SumCounter:
            raise IncompatibleSketchError(f"cannot merge SumCounter with {type(other).__name__}")
        out = SumCounter()
        out._total = self._total + other._total
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
        out = cls()
        try:
            out._total = Fraction(data.decode("ascii"))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed sum {data[:40]!r}") from None
        return out
