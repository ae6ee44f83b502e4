"""End-to-end measurement pipelines.

Each pipeline owns the sketches for one measurement mode and the exact sum of
element values. One rule decides every estimate of the transform at t: the
sketch's estimate over the replication r answers where its distinct-output
estimate reaches 3/epsilon^2, or from the largest threshold the sketch resolves
on (a full-range sketch's largest stored draw, 0 when empty; a point sketch's
inf); below, the transform is in its linear regime and t * SUM answers.

Pipelines are single-writer; ``merge`` is pure, takes any number of
pipelines and returns a new one, merging each sketch once.
Every pipeline shares one ingest path and one file path, and a mode
supplies only its mapping and its sketch sections. ``ingest`` takes one
element as a one-element ``ingest_batch``. Given the same ordinals, batches
of any sizes leave point and full-range pipelines byte-identical, and
combination pipelines with the same sidelined keys and estimate. Every mode
rejects the same values (not positive and finite, or so small that a draw
overflows) before it changes any state, so a rejected call leaves the
pipeline as it was. A combination pipeline maps a batch once and keeps one
sidelined set and one max-distinct sketch per measured coefficient function:
one, or for a signed pipeline two (the positive and the negative part).

``to_bytes`` writes a sketch file; ``from_sections``/``from_bytes`` read one,
given t or the coefficient function, and refuse with ``ParseError`` values no
build writes: draws or values outside their sketch's domain, a negative sum,
sidelined keys that are not the distinct, (draw, outkey)-ordered set a build
or merge leaves, or an element count that does not fit the sum and the
number of entries.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import ceil, inf

import numpy as np

from .core import MIN_EPSILON, Element, ElementValidationError, IncompatibleSketchError, ParseError, hash_key
from .mappers import MapperConfig, full_range_batch, point_outkeys_batch
from .sketchfile import ENTRY, SketchFileHeader, pack, records, unpack
from .sketches import AllThresholdSketch, DistinctCounter, MaxDistinctSketch, SumCounter
from .transforms import CoefficientFunction, SignedCoefficientFunction

__all__ = [
    "PointPipeline",
    "CombinationPipeline",
    "FullRangePipeline",
    "SignedCombinationPipeline",
    "SignedEstimate",
    "signed_estimate",
]

_LOW16 = np.uint64(0xFFFF)


def _lookup(pool: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(found, index): whether each key is in the small array ``pool`` and
    where. A table over the low 16 bits rules out most keys in one gather,
    so only the few that share low bits with a pool key are searched."""
    found = np.zeros(len(keys), dtype=bool)
    index = np.zeros(len(keys), dtype=np.intp)
    if pool.size == 0:
        return found, index
    table = np.zeros(1 << 16, dtype=bool)
    table[(pool & _LOW16).astype(np.intp)] = True
    maybe = np.flatnonzero(table[(keys & _LOW16).astype(np.intp)])
    order = np.argsort(pool)
    at = order[np.minimum(np.searchsorted(pool[order], keys[maybe]), len(pool) - 1)]
    found[maybe] = pool[at] == keys[maybe]
    index[maybe] = at
    return found, index


def _smallest(keys: np.ndarray, ys: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m smallest entries in (y, key) order."""
    if len(ys) > m:
        cut = np.partition(ys, m - 1)[m - 1]
        idx = np.flatnonzero(ys <= cut)
    else:
        idx = np.arange(len(ys))
    return idx[np.lexsort((keys[idx], ys[idx]))][:m]


class _Pipeline:
    """Shared by every pipeline: the ordinals, the count and the exact sum,
    one ingest path, and one way to write and read a file of its ``MODE``.

    A mode supplies its mapping (``_outputs``; the full-range mapping unless
    it overrides it), what its sketches do with the outputs (``_take``), and
    its sketch sections (``_sketch_sections``, and ``_load_sketches``, which
    returns the most entries a loaded section holds); the sum is the last
    section of every file.

    Each pipeline class repeats ``ingest_batch = _Pipeline.ingest_batch`` in
    its own body, and the signed one also ``merge = CombinationPipeline.merge``.
    The benchmark's tracer (``perfbench/tracing.py``) wraps each class's own
    ``ingest_batch`` and ``merge`` through ``cls.__dict__``: without these
    lines it raises ``KeyError``, and with them wrapping one class leaves the
    others as they are.
    """

    def __init__(self, r: int, epsilon: float, k: int, seed: int, ordinal_base: int):
        if not MIN_EPSILON <= epsilon < 1.0:
            raise ValueError(f"error target must be in [{MIN_EPSILON:g}, 1), got {epsilon}")
        if not r >= 1:
            raise ValueError(f"replication r must be >= 1, got {r}")
        self.r = int(r)
        self.epsilon = float(epsilon)
        self.k = int(k)
        self.seed = int(seed)
        self.ordinal_base = int(ordinal_base)
        self.count = 0
        self.sum_counter = SumCounter()

    @property
    def gate(self) -> float:
        """Minimum distinct-output estimate for the sketch path: 3/epsilon^2."""
        return 3.0 * self.epsilon**-2

    def _sketch_answers(self, t, raw, resolved: float = inf):
        """Where the sketch answers the transform at thresholds ``t``, given its
        raw distinct-output estimates there: where ``raw`` reaches the gate or
        ``t`` the largest threshold the sketch resolves. Elsewhere t * SUM does."""
        return (raw >= self.gate) | (t >= resolved)

    def _transform_at(self, t: float, raw: float, resolved: float = inf) -> float:
        return raw / self.r if self._sketch_answers(t, raw, resolved) else t * self.sum_counter.value()

    @staticmethod
    def _parts(a) -> list:
        """The coefficient functions measured for ``a``: a signed function's
        positive and negative part, or ``a`` itself."""
        return [a.plus, a.minus] if isinstance(a, SignedCoefficientFunction) else [a]

    def _statistic(self, a, values: list[float]):
        """The statistic of ``a`` from its ``_parts``' values: a nonnegative
        function's one value, or the two parts' ``signed_estimate``."""
        return values[0] if len(values) == 1 else signed_estimate(*values, a, self.epsilon)

    def ingest(self, e: Element) -> None:
        e = e if isinstance(e, Element) else Element(*e)
        self.ingest_batch(np.array([hash_key(e.key)], dtype=np.uint64), np.array([e.value]))

    def ingest_batch(self, key64s: np.ndarray, values: np.ndarray) -> None:
        self._commit(*self._map(key64s, values))

    def _map(self, key64s: np.ndarray, values: np.ndarray) -> tuple:
        """The values and the mode's outputs of a batch at the next ordinals;
        changes nothing, and raises on any value the mode rejects. Ordinals
        are u64, so a batch that would pass 2**64 - 1 is rejected whole."""
        values = np.asarray(values, dtype=np.float64)
        first, n = self.ordinal_base + self.count, len(values)
        if first + n > 2**64:
            raise ElementValidationError(f"ordinal base {self.ordinal_base} plus {self.count + n} elements passes the last u64 ordinal")
        ordinals = np.arange(first, first + n, dtype=np.uint64)
        return values, *self._outputs(np.asarray(key64s, dtype=np.uint64), values, ordinals)

    def _outputs(self, key64s: np.ndarray, values: np.ndarray, ordinals: np.ndarray) -> tuple:
        """The full-range mapping's (outkey, draw) outputs, mapped once at the seed."""
        return full_range_batch(key64s, values, MapperConfig(r=self.r, seed=self.seed), ordinals)

    def _commit(self, values: np.ndarray, *outputs: np.ndarray) -> None:
        self.count += len(values)
        self._take(*outputs)
        self.sum_counter.update_batch(values)

    def _merged(self, others, *fields: str):
        """A copy of this pipeline, once ``others`` match it, at the inputs'
        smallest ordinal base with their summed count and merged sum; the caller merges its sketches."""
        for other in others:
            for name in ("MODE", *fields, "r", "epsilon", "k", "seed"):
                a, b = getattr(self, name), getattr(other, name)
                if a != b:
                    raise IncompatibleSketchError(f"pipelines differ in {name}: {a!r} vs {b!r}")
        parts = (self, *others)
        count = sum(p.count for p in parts)
        if count >= 2**64:
            raise IncompatibleSketchError(f"merged element count {count} passes the last u64 count")
        out = copy.copy(self)
        out.ordinal_base = min(p.ordinal_base for p in parts)
        out.count = count
        out.sum_counter = self.sum_counter.merge(*(p.sum_counter for p in others))
        return out

    def _header(self, statistic: str) -> SketchFileHeader:
        return SketchFileHeader(self.MODE, statistic, self.epsilon, self.r, self.k, self.seed, self.ordinal_base, self.count)

    def _sections(self) -> list[bytes]:
        return [*self._sketch_sections(), self.sum_counter.to_bytes()]

    def _load(self, sections: list[bytes], count: int) -> None:
        """Every element adds to the sum and yields at most r outkeys, so a
        file counting none holds no sum and no entry, and one counting some
        holds a positive sum and at most count * r entries in each section as read."""
        self.count = count
        self.sum_counter = SumCounter.from_bytes(sections[-1])
        entries = self._load_sketches(*sections[:-1])
        if (count == 0) != (self.sum_counter.exact() == 0) or entries > count * self.r:
            raise ParseError(f"a count of {count} elements with r={self.r}, a sum of {self.sum_counter.exact()} and {entries} entries in a section")

    def to_bytes(self, statistic: str = "") -> bytes:
        return pack(self._header(statistic), self._sections())

    @classmethod
    def from_sections(cls, h: SketchFileHeader, sections: list[bytes], *head):
        """The pipeline a file's header and sections hold; ``head`` is what
        the constructor takes before r: t, a coefficient function or nothing.
        A header of a mode other than ``MODE`` raises ParseError, since its
        sections are not this pipeline's."""
        if h.mode != cls.MODE:
            raise ParseError(f"a {h.mode} file cannot be read as a {cls.MODE} sketch (statistic {h.statistic!r})")
        out = cls(*head, h.r, h.epsilon, h.k, h.seed, h.ordinal_base)
        out._load(sections, h.count)
        return out

    @classmethod
    def from_bytes(cls, data: bytes, *head):
        """The pipeline a file of this ``MODE`` holds; ``head`` as for ``from_sections``."""
        return cls.from_sections(*unpack(data), *head)


class PointPipeline(_Pipeline):
    """Distinct-count measurement of the transform at a fixed threshold t."""

    MODE = "point"

    def __init__(self, t: float, r: int, epsilon: float, k: int, seed: int = 0, ordinal_base: int = 0):
        super().__init__(r, epsilon, k, seed, ordinal_base)
        if not t >= 0.0:
            raise ValueError(f"threshold t must be >= 0, got {t}")
        self.t = float(t)
        self.counter = DistinctCounter(k, seed)

    ingest_batch = _Pipeline.ingest_batch

    def _outputs(self, key64s: np.ndarray, values: np.ndarray, ordinals: np.ndarray) -> tuple:
        cfg = MapperConfig(r=self.r, t=self.t, seed=self.seed)
        return (point_outkeys_batch(key64s, values, cfg, ordinals, self.k, self.counter.kth()),)

    def _take(self, outkeys: np.ndarray) -> None:
        self.counter.update_batch(outkeys)

    def merge(self, *others: "PointPipeline") -> "PointPipeline":
        """Pure merge; the result keeps the smallest ordinal base, so merge
        output bytes do not depend on argument order."""
        out = self._merged(others, "t")
        out.counter = self.counter.merge(*(p.counter for p in others))
        return out

    def estimate(self) -> float:
        """Estimate of the transform at t (``_sketch_answers``)."""
        return self._transform_at(self.t, self.counter.estimate())

    def _sketch_sections(self) -> list[bytes]:
        return [self.counter.to_bytes()]

    def _load_sketches(self, entries: bytes) -> int:
        self.counter = DistinctCounter.from_bytes(entries, self.k, self.seed)
        return len(self.counter)


class CombinationPipeline(_Pipeline):
    """Max-distinct measurement of a nonnegative coefficient combination.

    Each batch is mapped once, at the pipeline's seed, to full-range (outkey,
    draw) outputs. The smallest-draw outkeys are sidelined (up to ell =
    ceil(3/epsilon^2) of them) so the integration cutoff can be chosen
    adaptively at estimation time. Every evicted key enters one max-distinct
    sketch per measured coefficient function (``_measured``; here one),
    valued at that function's tail integral of its own recorded draw; at
    estimation the sidelined keys are fed at the tail integral of the cutoff
    and the head of the function is covered by the exact sum. A file holds
    the sidelined (outkey, draw) records and then each max-distinct sketch.
    """

    MODE = "combination"

    def __init__(self, a, r: int, epsilon: float, k: int, seed: int = 0, ordinal_base: int = 0):
        super().__init__(r, epsilon, k, seed, ordinal_base)
        self.a = a
        self.ell = ceil(3.0 * self.epsilon**-2)
        self.measured = self._measured(a)
        for f in self.measured:
            if not isinstance(f, CoefficientFunction):
                raise TypeError("combination pipelines need a CoefficientFunction")
            if float(f.head(1.0)) == inf:
                raise ValueError("coefficient function must have a finite head integral")
        self.max_sketches = [MaxDistinctSketch(self.k, self.seed) for _ in self.measured]
        # the sidelined outkeys and their draws, in (draw, outkey) order
        self.sidelined_keys = np.empty(0, dtype=np.uint64)
        self.sidelined_draws = np.empty(0, dtype=np.float64)

    @staticmethod
    def _measured(a: CoefficientFunction) -> list[CoefficientFunction]:
        """The coefficient functions measured, one max-distinct sketch each."""
        return [a]

    ingest_batch = _Pipeline.ingest_batch

    def _take(self, outkeys: np.ndarray, ys: np.ndarray) -> None:
        """Sideline the ell smallest (draw, outkey) of the sidelined keys and
        the given distinct outkeys, each key at its smallest draw, and feed
        every other key to each max-distinct sketch at its draw's tail value."""
        if len(outkeys) == 0:
            return
        side_ys = self.sidelined_draws.copy()
        hit, pos = _lookup(self.sidelined_keys, outkeys)
        if hit.any():
            np.minimum.at(side_ys, pos[hit], ys[hit])
            outkeys, ys = outkeys[~hit], ys[~hit]
        keys, draws = np.concatenate([self.sidelined_keys, outkeys]), np.concatenate([side_ys, ys])
        chosen = _smallest(keys, draws, self.ell)
        self.sidelined_keys, self.sidelined_draws = keys[chosen], draws[chosen]
        if len(chosen) == len(keys):
            return
        rest = np.ones(len(keys), dtype=bool)
        rest[chosen] = False
        keys, draws = keys[rest], draws[rest]
        for f, sketch in zip(self.measured, self.max_sketches):
            vals = np.asarray(f.tail(draws), dtype=np.float64)
            keep = vals > 0.0
            if keep.any():
                sketch.update_batch(keys[keep], vals[keep])

    def merge(self, *others: "CombinationPipeline") -> "CombinationPipeline":
        """Pure merge: each max-distinct sketch merged, then the union of the
        sidelined keys, each at its smallest draw, taken once; the result
        does not depend on the order of the inputs."""
        out = self._merged(others, "a")
        out.max_sketches = [s.merge(*rest) for s, *rest in zip(self.max_sketches, *(p.max_sketches for p in others))]
        keys = np.concatenate([p.sidelined_keys for p in (self, *others)])
        draws = np.concatenate([p.sidelined_draws for p in (self, *others)])
        order = np.argsort(draws)
        at = order[np.unique(keys[order], return_index=True)[1]]  # each key at its smallest draw
        out._take(keys[at], draws[at])
        return out

    def tau(self) -> float:
        """Current adaptive cutoff: the largest sidelined draw."""
        return float(self.sidelined_draws.max()) if self.sidelined_draws.size else 0.0

    def estimate(self) -> float | SignedEstimate:
        """The statistic of each measured function's value, without mutating:
        the sidelined keys are fed at the cutoff's tail value into a copy of its
        sketch, and the head is covered by the sum."""
        tau, total, values = self.tau(), self.sum_counter.value(), []
        for f, sketch in zip(self.measured, self.max_sketches):
            fed = sketch.merge()
            v = float(f.tail(tau))
            if v > 0.0:
                fed.update_batch(self.sidelined_keys, np.full(len(self.sidelined_keys), v))
            values.append(fed.estimate() / self.r + total * float(f.head(tau)))
        return self._statistic(self.a, values)

    def _sketch_sections(self) -> list[bytes]:
        """The sidelined (outkey, draw) records, then each max-distinct sketch."""
        side = np.rec.fromarrays([self.sidelined_keys, self.sidelined_draws], dtype=ENTRY).tobytes()
        return [side, *(s.to_bytes() for s in self.max_sketches)]

    def _load_sketches(self, side: bytes, *entries: bytes) -> int:
        """A build or merge leaves distinct sidelined keys in (draw, outkey)
        order: at most ell, ell whenever a max-distinct sketch holds an entry,
        and at least one once an element is counted. Others raise ParseError."""
        rec = records(side, ENTRY)
        # sidelined draws lie where full-range ys do, in [0, inf)
        keys, draws = rec["outkey"], AllThresholdSketch._stored(rec["value"])
        self.max_sketches = [MaxDistinctSketch.from_bytes(e, self.k, self.seed) for e in entries]
        ordered = (draws[1:] > draws[:-1]) | ((draws[1:] == draws[:-1]) & (keys[1:] > keys[:-1]))
        by_key = np.sort(keys)  # sorted neighbours: about a fifth of np.unique's time at 300 keys
        if not ordered.all() or (by_key[1:] == by_key[:-1]).any():
            raise ParseError("sidelined outkeys must be distinct and in (draw, outkey) order")
        n, held = len(keys), max(len(s) for s in self.max_sketches)
        if n > self.ell or (n < self.ell and held) or (n == 0 and self.count):
            raise ParseError(f"{n} sidelined outkeys with ell={self.ell}, {held} max-distinct entries and {self.count} elements")
        self.sidelined_keys, self.sidelined_draws = keys, draws
        return max(n, held)


class FullRangePipeline(_Pipeline):
    """All-threshold measurement: one sketch answering every threshold and
    any nonnegative coefficient combination after the fact."""

    MODE = "fullrange"

    def __init__(self, r: int, epsilon: float, k: int, seed: int = 0, ordinal_base: int = 0):
        super().__init__(r, epsilon, k, seed, ordinal_base)
        self.threshold_sketch = AllThresholdSketch(k, seed)

    ingest_batch = _Pipeline.ingest_batch

    def _take(self, outkeys: np.ndarray, ys: np.ndarray) -> None:
        self.threshold_sketch.update_batch(outkeys, ys)

    def merge(self, *others: "FullRangePipeline") -> "FullRangePipeline":
        out = self._merged(others)
        out.threshold_sketch = self.threshold_sketch.merge(*(p.threshold_sketch for p in others))
        return out

    def estimate_at(self, t: float) -> float:
        """Estimate of the transform at t; from the largest stored draw on (0 if
        empty) the sketch holds all it ever will, and t * SUM grows without bound."""
        if not t >= 0.0:
            raise ValueError(f"threshold t must be >= 0, got {t}")
        bp = self.threshold_sketch.breakpoints()
        return self._transform_at(t, self.threshold_sketch.estimate_at(t), bp[-1] if bp.size else 0.0)

    def estimate_combination(self, a: CoefficientFunction | SignedCoefficientFunction) -> float | SignedEstimate:
        """The statistic of a coefficient function's integral against the
        threshold profile, or of a signed one's two parts' integrals. Point
        masses are point queries; continuous parts integrate the step profile
        in closed form through tail-integral differences, and below the first
        breakpoint where the sketch answers, t * SUM (head integral times the sum)."""
        return self._statistic(a, [self._integral(f) for f in self._parts(a)])

    def _integral(self, a: CoefficientFunction) -> float:
        total = 0.0
        for loc, mass in a.deltas:
            total += mass * self.estimate_at(loc)
        if a.parts:
            cont = CoefficientFunction(parts=a.parts)
            ys = self.threshold_sketch.breakpoints()
            if ys.size == 0:
                return total
            raw = self.threshold_sketch.estimate_all(ys)
            start = int(np.argmax(self._sketch_answers(ys, raw, ys[-1])))  # true at the largest draw
            total += self.sum_counter.value() * float(cont.head(ys[start]))
            tails = np.asarray(cont.tail(ys[start:]), dtype=np.float64)
            seg = tails.copy()
            seg[:-1] -= tails[1:]
            total += float(np.dot(raw[start:] / self.r, seg))
        return total

    def _sketch_sections(self) -> list[bytes]:
        return [self.threshold_sketch.to_bytes()]

    def _load_sketches(self, entries: bytes) -> int:
        self.threshold_sketch = AllThresholdSketch.from_bytes(entries, self.k, self.seed)
        return len(self.threshold_sketch)


@dataclass(frozen=True)
class SignedEstimate:
    """Difference estimate with its stability certificate.

    ``error_bound`` is the certified relative error limit rho * 2 * epsilon
    given component measurements each within epsilon relative error.
    """

    value: float
    raw: float
    rho: float
    error_bound: float
    clamped: bool


def signed_estimate(
    plus_value: float,
    minus_value: float,
    a: SignedCoefficientFunction,
    epsilon: float,
) -> SignedEstimate:
    """Combine component measurements of the positive and negative parts,
    each within relative error ``epsilon``.

    A negative difference is clamped to zero (the target statistic is
    nonnegative, so clamping can only reduce error); the clamp is flagged.
    """
    raw = float(plus_value) - float(minus_value)
    clamped = raw < 0.0
    return SignedEstimate(
        value=0.0 if clamped else raw,
        raw=raw,
        rho=a.rho_bound,
        error_bound=a.rho_bound * 2.0 * float(epsilon),
        clamped=clamped,
    )


class SignedCombinationPipeline(CombinationPipeline):
    """A combination pipeline measuring the positive and the negative part of
    a signed coefficient function on one mapping, with one sidelined set and
    a max-distinct sketch for each part; its estimate is their difference."""

    MODE = "signed"

    @staticmethod
    def _measured(a: SignedCoefficientFunction) -> list[CoefficientFunction]:
        if a.minus.is_empty:
            raise ValueError("signed pipeline needs a nonempty negative part; use CombinationPipeline")
        return _Pipeline._parts(a)

    ingest_batch = _Pipeline.ingest_batch
    merge = CombinationPipeline.merge
