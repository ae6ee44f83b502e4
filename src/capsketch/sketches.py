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
scalar ``update`` is a one-element ``update_batch``. Instances are
single-writer; readers are safe between updates.
"""

from __future__ import annotations

import heapq
import struct
from fractions import Fraction
from math import expm1, inf

import numpy as np

from .core import IncompatibleSketchError, rank_uniforms

__all__ = [
    "DistinctCounter",
    "MaxDistinctSketch",
    "AllThresholdSketch",
    "SumCounter",
    "load_sketch",
]

_MAGIC = b"CSK1"
_VERSION = 1
_HEADER = struct.Struct("<4sBBIQI")
_TYPE_DISTINCT = 1
_TYPE_MAXDISTINCT = 2
_TYPE_ALLTHRESHOLD = 3
_TYPE_SUM = 4
# One serialized entry: the distinct counter writes outkeys only, the other
# two sketches each key's value after it.
_KEY_RECORD = np.dtype([("outkey", "<u8")])
_RECORD = np.dtype([("outkey", "<u8"), ("value", "<f8")])
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


def _pack_header(type_tag: int, k: int, seed: int, count: int) -> bytes:
    return _HEADER.pack(_MAGIC, _VERSION, type_tag, k, seed, count)


def _unpack_header(data: bytes, expect_tag: int | None = None):
    if len(data) < _HEADER.size:
        raise ValueError("truncated sketch blob")
    magic, version, tag, k, seed, count = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError(f"bad sketch magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported sketch format version {version}")
    if expect_tag is not None and tag != expect_tag:
        raise IncompatibleSketchError(f"sketch type tag {tag} does not match expected {expect_tag}")
    return tag, k, seed, count


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

    TYPE_TAG: int

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

    def _write(self, record: np.dtype) -> bytes:
        """Header, then one record per entry; a record without a value field
        leaves the value out."""
        rec = np.empty(len(self), dtype=record)
        rec["outkey"] = self._entries
        if "value" in record.names:
            rec["value"] = self._values
        return _pack_header(self.TYPE_TAG, self.k, self.seed, len(self)) + rec.tobytes()

    @classmethod
    def _read(cls, data: bytes, record: np.dtype):
        """Sketch holding the entries of a blob written by :meth:`_write`;
        records without a value field hold value 1."""
        _, k, seed, count = _unpack_header(data, cls.TYPE_TAG)
        rec = np.frombuffer(data, dtype=record, count=count, offset=_HEADER.size)
        okeys = rec["outkey"].astype(np.uint64)
        values = rec["value"].astype(np.float64) if "value" in record.names else np.ones(count)
        sk = cls(k, seed)
        sk._add(okeys, _base_ranks(okeys, seed), values)
        return sk


class DistinctCounter(_BottomK):
    """Bottom-k distinct counter over outkeys.

    Exact below k entries; at and beyond k, estimates (k-1)/(1 - exp(-R_k))
    where R_k is the k-th smallest base rank, which is the classical k-minimum
    -values estimator with CV about 1/sqrt(k-2).
    """

    TYPE_TAG = _TYPE_DISTINCT

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
        return self._write(_KEY_RECORD)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DistinctCounter":
        return cls._read(data, _KEY_RECORD)


class MaxDistinctSketch(_BottomK):
    """Bottom-k sketch estimating the sum over distinct outkeys of the
    maximum value seen for the key.

    Ranks are -ln(u)/m, exponential with rate m, so a key's rank only shrinks
    as its stored maximum grows; a key evicted at a small value re-enters
    correctly if a larger value arrives later. Exact below k keys; saturated
    estimate (k-1)/R_k.
    """

    TYPE_TAG = _TYPE_MAXDISTINCT

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
        return self._write(_RECORD)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MaxDistinctSketch":
        return cls._read(data, _RECORD)


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

    TYPE_TAG = _TYPE_ALLTHRESHOLD

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
        return self._write(_RECORD)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AllThresholdSketch":
        return cls._read(data, _RECORD)


class SumCounter:
    """Exact accumulator of element values.

    Values are accumulated as exact rationals (binary floats are dyadic), so
    addition is associative and merges are byte-identical to single-pass
    accumulation regardless of how the stream was partitioned.
    """

    TYPE_TAG = _TYPE_SUM
    k = 0
    seed = 0

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
        as_int = values.astype(np.int64)
        if np.all(as_int == values):
            self._total += int(as_int.sum(dtype=object))
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
        return float(self._total)

    def exact(self) -> Fraction:
        return self._total

    def to_bytes(self) -> bytes:
        num, den = self._total.numerator, self._total.denominator
        nb = num.to_bytes((num.bit_length() + 7) // 8 or 1, "little", signed=False)
        db = den.to_bytes((den.bit_length() + 7) // 8 or 1, "little", signed=False)
        return (
            _pack_header(self.TYPE_TAG, 0, 0, 0)
            + struct.pack("<II", len(nb), len(db))
            + nb
            + db
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SumCounter":
        _unpack_header(data, cls.TYPE_TAG)
        off = _HEADER.size
        nlen, dlen = struct.unpack_from("<II", data, off)
        off += 8
        num = int.from_bytes(data[off : off + nlen], "little")
        den = int.from_bytes(data[off + nlen : off + nlen + dlen], "little")
        out = cls()
        out._total = Fraction(num, den)
        return out


_TYPES = {
    _TYPE_DISTINCT: DistinctCounter,
    _TYPE_MAXDISTINCT: MaxDistinctSketch,
    _TYPE_ALLTHRESHOLD: AllThresholdSketch,
    _TYPE_SUM: SumCounter,
}


def load_sketch(data: bytes):
    """Deserialize any sketch blob, dispatching on its type tag."""
    tag, _, _, _ = _unpack_header(data)
    cls = _TYPES.get(tag)
    if cls is None:
        raise ValueError(f"unknown sketch type tag {tag}")
    return cls.from_bytes(data)
