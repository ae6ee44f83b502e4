"""Mergeable summaries over output elements.

All three counting sketches are bottom-k structures driven by one rank
discipline: each outkey owns a deterministic uniform u in (0,1), giving an
exponential base rank -ln(u). The distinct counter keeps the k smallest base
ranks; the max-distinct sketch divides the base rank by the largest value seen
for the key, so a key's rank shrinks as its value grows; the all-threshold
sketch keeps an entry when its rank is among the k smallest of stored keys
with a smaller-or-equal minimum value, which answers threshold queries for
every threshold at once.

Merging any of them is a pure function of the entry sets, so merge order and
input sharding never change the result: a merged sketch is byte-identical to
the single-pass sketch over the concatenated stream. Instances are
single-writer; readers are safe between updates.
"""

from __future__ import annotations

import heapq
import struct
from fractions import Fraction
from math import expm1, inf, isfinite

import numpy as np

from .core import IncompatibleSketchError, rank_uniform, rank_uniforms

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


def _base_rank(outkey: int, seed: int) -> float:
    # np.log for bit-consistency with the batch path
    return float(-np.log(rank_uniform(outkey, seed)))


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

    The 2k smallest entries usually name k distinct keys; the k-th of them
    in rank order bounds the k-th smallest key rank, and nothing above it
    matters. Otherwise every entry is kept.
    """
    if len(ranks) <= 2 * k:
        return np.ones(len(ranks), dtype=bool)
    low = np.argpartition(ranks, 2 * k - 1)[: 2 * k]
    low = low[np.argsort(ranks[low])]
    _, first = np.unique(keys[low], return_index=True)
    if len(first) < k:
        return np.ones(len(ranks), dtype=bool)
    return ranks <= ranks[low[np.sort(first)[k - 1]]]


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


class DistinctCounter:
    """Bottom-k distinct counter over outkeys.

    Exact below k entries; at and beyond k, estimates (k-1)/(1 - exp(-R_k))
    where R_k is the k-th smallest base rank, which is the classical k-minimum
    -values estimator with CV about 1/sqrt(k-2).
    """

    TYPE_TAG = _TYPE_DISTINCT

    def __init__(self, k: int, seed: int = 0):
        if int(k) < 1:
            raise ValueError(f"sketch size k must be >= 1, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        self._entries: dict[int, float] = {}
        self._max: tuple[float, int] | None = None  # (rank, outkey) threshold when full

    def __len__(self) -> int:
        return len(self._entries)

    def _recompute_max(self):
        self._max = max((r, o) for o, r in self._entries.items()) if self._entries else None

    def update(self, outkey: int) -> None:
        okey = int(outkey)
        if okey in self._entries:
            return
        rank = _base_rank(okey, self.seed)
        if len(self._entries) < self.k:
            self._entries[okey] = rank
            if len(self._entries) == self.k:
                self._recompute_max()
            return
        assert self._max is not None
        if (rank, okey) < self._max:
            del self._entries[self._max[1]]
            self._entries[okey] = rank
            self._recompute_max()

    def update_batch(self, outkeys: np.ndarray) -> None:
        outkeys = np.asarray(outkeys, dtype=np.uint64)
        if outkeys.size == 0:
            return
        new = np.unique(outkeys)
        keys = np.concatenate([np.fromiter(self._entries, dtype=np.uint64, count=len(self._entries)), new])
        keys, idx = np.unique(keys, return_index=True)
        ranks = _base_ranks(keys, self.seed)
        if len(keys) > self.k:
            order = np.lexsort((keys, ranks))[: self.k]
            keys, ranks = keys[order], ranks[order]
        self._entries = {int(o): float(r) for o, r in zip(keys, ranks)}
        self._max = None
        if len(self._entries) == self.k:
            self._recompute_max()

    def merge(self, other: "DistinctCounter") -> "DistinctCounter":
        _check_compatible(self, other)
        out = DistinctCounter(self.k, self.seed)
        combined = dict(self._entries)
        combined.update(other._entries)
        if len(combined) > self.k:
            kept = heapq.nsmallest(self.k, ((r, o) for o, r in combined.items()))
            combined = {o: r for r, o in kept}
        out._entries = combined
        if len(combined) == self.k:
            out._recompute_max()
        return out

    def estimate(self) -> float:
        n = len(self._entries)
        if n < self.k:
            return float(n)
        if self._max is None:
            self._recompute_max()
        kth = self._max[0]
        return (self.k - 1) / -expm1(-kth)

    def _canonical(self) -> list[tuple[float, int]]:
        return sorted((r, o) for o, r in self._entries.items())

    def to_bytes(self) -> bytes:
        body = b"".join(struct.pack("<Q", o) for _, o in self._canonical())
        return _pack_header(self.TYPE_TAG, self.k, self.seed, len(self._entries)) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "DistinctCounter":
        _, k, seed, count = _unpack_header(data, cls.TYPE_TAG)
        sk = cls(k, seed)
        off = _HEADER.size
        okeys = np.frombuffer(data, dtype="<u8", count=count, offset=off).astype(np.uint64)
        sk._entries = {int(o): _base_rank(int(o), seed) for o in okeys}
        if len(sk._entries) == k:
            sk._recompute_max()
        return sk


class MaxDistinctSketch:
    """Bottom-k sketch estimating the sum over distinct outkeys of the
    maximum value seen for the key.

    Ranks are -ln(u)/m, exponential with rate m, so a key's rank only shrinks
    as its stored maximum grows; a key evicted at a small value re-enters
    correctly if a larger value arrives later. Exact below k keys; saturated
    estimate (k-1)/R_k.
    """

    TYPE_TAG = _TYPE_MAXDISTINCT

    def __init__(self, k: int, seed: int = 0):
        if int(k) < 1:
            raise ValueError(f"sketch size k must be >= 1, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        self._entries: dict[int, tuple[float, float]] = {}  # okey -> (m, base rank)
        self._max: tuple[float, int] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def _rank(self, okey: int) -> float:
        m, base = self._entries[okey]
        return base / m

    def _recompute_max(self):
        self._max = max((b / m, o) for o, (m, b) in self._entries.items()) if self._entries else None

    def update(self, outkey: int, value: float) -> None:
        okey = int(outkey)
        v = float(value)
        if not (v > 0.0 and isfinite(v)):
            raise ValueError(f"max-distinct values must be positive and finite, got {value!r}")
        if okey in self._entries:
            m, base = self._entries[okey]
            if v > m:
                self._entries[okey] = (v, base)
                if self._max is not None and self._max[1] == okey:
                    self._recompute_max()
            return
        base = _base_rank(okey, self.seed)
        rank = base / v
        if len(self._entries) < self.k:
            self._entries[okey] = (v, base)
            if len(self._entries) == self.k:
                self._recompute_max()
            return
        assert self._max is not None
        if (rank, okey) < self._max:
            del self._entries[self._max[1]]
            self._entries[okey] = (v, base)
            self._recompute_max()

    def update_batch(self, outkeys: np.ndarray, values: np.ndarray) -> None:
        outkeys = np.asarray(outkeys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.float64)
        if outkeys.size == 0:
            return
        if not np.all((values > 0.0) & (values < inf)):
            raise ValueError("max-distinct values must be positive and finite")
        n = len(self._entries)
        stored = np.array(list(self._entries.values()), dtype=np.float64).reshape(n, 2)
        keys = np.concatenate([np.fromiter(self._entries, dtype=np.uint64, count=n), outkeys])
        ms = np.concatenate([stored[:, 0], values])
        bases = np.concatenate([stored[:, 1], _base_ranks(outkeys, self.seed)])
        keep = _rank_cut(keys, bases / ms, self.k)
        keys, ms, bases = keys[keep], ms[keep], bases[keep]
        # each key once, at its largest value: first in (key, -value) order
        order = np.lexsort((-ms, keys))
        keys, ms, bases = keys[order], ms[order], bases[order]
        first = np.r_[True, keys[1:] != keys[:-1]]
        keys, ms, bases = keys[first], ms[first], bases[first]
        if len(keys) > self.k:
            order = np.lexsort((keys, bases / ms))[: self.k]
            keys, ms, bases = keys[order], ms[order], bases[order]
        self._entries = dict(zip(keys.tolist(), zip(ms.tolist(), bases.tolist())))
        self._max = None
        if len(self._entries) == self.k:
            self._recompute_max()

    def merge(self, other: "MaxDistinctSketch") -> "MaxDistinctSketch":
        _check_compatible(self, other)
        out = MaxDistinctSketch(self.k, self.seed)
        combined = dict(self._entries)
        for o, (m, b) in other._entries.items():
            cur = combined.get(o)
            if cur is None or m > cur[0]:
                combined[o] = (m, b)
        if len(combined) > self.k:
            kept = heapq.nsmallest(self.k, ((b / m, o) for o, (m, b) in combined.items()))
            keep = {o for _, o in kept}
            combined = {o: mb for o, mb in combined.items() if o in keep}
        out._entries = combined
        if len(combined) == self.k:
            out._recompute_max()
        return out

    def estimate(self) -> float:
        n = len(self._entries)
        if n < self.k:
            return float(sum(m for m, _ in self._entries.values()))
        if self._max is None:
            self._recompute_max()
        return (self.k - 1) / self._max[0]

    def _canonical(self) -> list[tuple[float, int, float]]:
        return sorted((b / m, o, m) for o, (m, b) in self._entries.items())

    def to_bytes(self) -> bytes:
        body = b"".join(struct.pack("<Qd", o, m) for _, o, m in self._canonical())
        return _pack_header(self.TYPE_TAG, self.k, self.seed, len(self._entries)) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "MaxDistinctSketch":
        _, k, seed, count = _unpack_header(data, cls.TYPE_TAG)
        sk = cls(k, seed)
        off = _HEADER.size
        for _ in range(count):
            o, m = struct.unpack_from("<Qd", data, off)
            off += 16
            sk._entries[int(o)] = (float(m), _base_rank(int(o), seed))
        if len(sk._entries) == k:
            sk._recompute_max()
        return sk


class AllThresholdSketch:
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
        if int(k) < 1:
            raise ValueError(f"sketch size k must be >= 1, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        self._entries: dict[int, tuple[float, float]] = {}  # okey -> (min y, base rank)
        self._dirty = False
        self._trigger = max(4 * self.k, 64)
        self._profile: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        self._prune()
        return len(self._entries)

    def update(self, outkey: int, y: float) -> None:
        okey = int(outkey)
        yv = float(y)
        if not (yv >= 0.0 and isfinite(yv)):
            raise ValueError(f"threshold values must be finite and >= 0, got {y!r}")
        cur = self._entries.get(okey)
        if cur is None:
            self._entries[okey] = (yv, _base_rank(okey, self.seed))
        elif yv < cur[0]:
            self._entries[okey] = (yv, cur[1])
        else:
            return
        self._dirty = True
        self._profile = None
        if len(self._entries) > self._trigger:
            self._prune()

    def update_batch(self, outkeys: np.ndarray, ys: np.ndarray) -> None:
        outkeys = np.asarray(outkeys, dtype=np.uint64)
        ys = np.asarray(ys, dtype=np.float64)
        if outkeys.size == 0:
            return
        if not np.all((ys >= 0.0) & (ys < inf)):
            raise ValueError("threshold values must be finite and >= 0")
        okeys, stored_ys, ranks = self._arrays()
        self._retain(
            np.concatenate([okeys, outkeys]),
            np.concatenate([stored_ys, ys]),
            np.concatenate([ranks, _base_ranks(outkeys, self.seed)]),
        )

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored (outkeys, minimum values, base ranks) as arrays."""
        n = len(self._entries)
        okeys = np.fromiter(self._entries, dtype=np.uint64, count=n)
        yb = np.array(list(self._entries.values()), dtype=np.float64).reshape(n, 2)
        return okeys, yb[:, 0], yb[:, 1]

    def _retain(self, okeys: np.ndarray, ys: np.ndarray, ranks: np.ndarray) -> None:
        """Replace the entries by those the retention rule keeps among the
        given ones; an outkey may repeat and counts at its smallest value."""
        keep = _prefix_bottom_k(okeys, ys, ranks, self.k)
        self._entries = dict(zip(okeys[keep].tolist(), zip(ys[keep].tolist(), ranks[keep].tolist())))
        self._dirty = False
        self._profile = None
        self._trigger = max(4 * self.k, 2 * len(self._entries))

    def _prune(self) -> None:
        if self._dirty:
            self._retain(*self._arrays())

    def _build_profile(self):
        self._prune()
        if self._profile is not None:
            return self._profile
        items = sorted((y, b, o) for o, (y, b) in self._entries.items())
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
        _check_compatible(self, other)
        out = AllThresholdSketch(self.k, self.seed)
        out._retain(*(np.concatenate(parts) for parts in zip(self._arrays(), other._arrays())))
        return out

    def _canonical(self) -> list[tuple[float, int, float]]:
        self._prune()
        return sorted((b, o, y) for o, (y, b) in self._entries.items())

    def to_bytes(self) -> bytes:
        body = b"".join(struct.pack("<Qd", o, y) for _, o, y in self._canonical())
        return _pack_header(self.TYPE_TAG, self.k, self.seed, len(self._entries)) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "AllThresholdSketch":
        _, k, seed, count = _unpack_header(data, cls.TYPE_TAG)
        sk = cls(k, seed)
        off = _HEADER.size
        for _ in range(count):
            o, y = struct.unpack_from("<Qd", data, off)
            off += 16
            sk._entries[int(o)] = (float(y), _base_rank(int(o), seed))
        return sk


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
        v = float(value)
        if not (v > 0.0 and isfinite(v)):
            raise ValueError(f"summed values must be positive and finite, got {value!r}")
        self._total += Fraction(v)

    def update_batch(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
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
