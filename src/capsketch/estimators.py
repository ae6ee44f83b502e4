"""End-to-end measurement pipelines.

Each pipeline owns the sketches for one measurement mode and the exact sum of
element values. Estimates follow a common shape: when the sketch has seen
enough distinct output keys (at least 3/epsilon^2) its estimate divided by the
replication r is returned; below that the transform is in its linear regime
and t * SUM is the better answer.

Pipelines are single-writer; ``merge`` is pure, takes any number of
pipelines and returns a new one, merging each sketch once.
Every pipeline shares one ingest path and one file path, and a mode
supplies only its mapping and its sketch sections. ``ingest`` takes one
element as a one-element ``ingest_batch``. Given the same ordinals, batches
of any sizes leave point and full-range pipelines byte-identical, and
combination pipelines with the same sidelined keys and estimate. Every mode
rejects the same values (not positive and finite, or so small that a draw
overflows) before it changes any state, so a rejected call leaves the
pipeline as it was; a signed pipeline maps a batch for both its parts
before either takes it.

``to_bytes`` writes a sketch file; ``from_sections``/``from_bytes`` read one,
given t or the coefficient function, and refuse with ``ParseError`` values no
build writes: draws or values outside their sketch's domain, a negative sum,
signed parts with different sums, or sidelined keys that are not the distinct,
(draw, outkey)-ordered set a build or merge leaves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
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
    "soft_cap_estimate",
]

# Seed perturbation for the negative-component pipeline of a signed estimate,
# so the two measurements use independent draws.
_MINUS_SEED_FLIP = 0x5851F42D4C957F2D
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

    A mode supplies its mapping (``_outputs``) and what its sketches do with
    the outputs (``_take``), and its sketch sections (``_sketch_sections``
    and ``_load_sketches``); the sum is the last section of every file.
    """

    def __init__(self, r: int, epsilon: float, k: int, seed: int, ordinal_base: int):
        if not MIN_EPSILON <= epsilon < 1.0:
            raise ValueError(f"error target must be in [{MIN_EPSILON:g}, 1), got {epsilon}")
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
        """The full-range mapping's (outkey, draw) outputs, which full-range and combination pipelines take."""
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
        self.count = count
        self._load_sketches(*sections[:-1])
        self.sum_counter = SumCounter.from_bytes(sections[-1])

    def to_bytes(self, statistic: str = "") -> bytes:
        return pack(self._header(statistic), self._sections())

    @classmethod
    def from_sections(cls, h: SketchFileHeader, sections: list[bytes], *head):
        """The pipeline a file's header and sections hold; ``head`` is what
        the constructor takes before r: t, a coefficient function or nothing."""
        out = cls(*head, h.r, h.epsilon, h.k, h.seed, h.ordinal_base)
        out._load(sections, h.count)
        return out

    @classmethod
    def from_bytes(cls, data: bytes, *head):
        """The pipeline a file of this ``MODE`` holds; ``head`` as for ``from_sections``."""
        return cls.from_sections(*unpack(data, cls.MODE), *head)


class PointPipeline(_Pipeline):
    """Distinct-count measurement of the transform at a fixed threshold t."""

    MODE = "point"

    def __init__(self, t: float, r: int, epsilon: float, k: int, seed: int = 0, ordinal_base: int = 0):
        super().__init__(r, epsilon, k, seed, ordinal_base)
        if not t >= 0.0:
            raise ValueError(f"threshold t must be >= 0, got {t}")
        self.t = float(t)
        self.counter = DistinctCounter(k, seed)

    @classmethod
    def for_soft_cap(cls, T: float, r: int, epsilon: float, k: int, seed: int = 0, ordinal_base: int = 0):
        """Pipeline measuring the smooth-capping statistic at scale T (t = 1/T)."""
        if not T > 0.0:
            raise ValueError(f"soft cap scale T must be > 0, got {T}")
        return cls(1.0 / T, r, epsilon, k, seed, ordinal_base)

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
        """Estimate of the transform at t, falling back to t * SUM when the
        distinct-output estimate is below 3/epsilon^2."""
        d = self.counter.estimate()
        if d >= self.gate:
            return d / self.r
        return self.t * self.sum_counter.value()

    def _sketch_sections(self) -> list[bytes]:
        return [self.counter.to_bytes()]

    def _load_sketches(self, entries: bytes) -> None:
        self.counter = DistinctCounter.from_bytes(entries, self.k, self.seed)


def soft_cap_estimate(pipeline: PointPipeline, T: float) -> float:
    """Smooth-capping statistic at scale T from a pipeline built at t = 1/T."""
    if not T > 0.0:
        raise ValueError(f"soft cap scale T must be > 0, got {T}")
    if abs(pipeline.t * T - 1.0) > 1e-9:
        raise ValueError(f"pipeline threshold {pipeline.t} does not match 1/T for T={T}")
    return T * pipeline.estimate()


class CombinationPipeline(_Pipeline):
    """Max-distinct measurement of a nonnegative coefficient combination.

    Output elements carry raw draws; the smallest-draw outkeys are sidelined
    (up to ceil(3/epsilon^2) of them) so the integration cutoff can be chosen
    adaptively at estimation time. Evicted keys enter the max-distinct sketch
    valued at the tail integral of their own recorded draw; at estimation the
    sidelined keys are fed at the tail integral of the cutoff and the head of
    the coefficient function is covered by the exact sum.
    """

    MODE = "combination"

    def __init__(
        self,
        a: CoefficientFunction,
        r: int,
        epsilon: float,
        k: int,
        seed: int = 0,
        ordinal_base: int = 0,
    ):
        super().__init__(r, epsilon, k, seed, ordinal_base)
        if not isinstance(a, CoefficientFunction):
            raise TypeError("combination pipelines need a CoefficientFunction")
        if float(a.head(1.0)) == inf:
            raise ValueError("coefficient function must have a finite head integral")
        self.a = a
        self.ell = ceil(3.0 * self.epsilon**-2)
        self.max_sketch = MaxDistinctSketch(k, seed)
        # the sidelined outkeys and their draws, in (draw, outkey) order
        self.sidelined_keys = np.empty(0, dtype=np.uint64)
        self.sidelined_draws = np.empty(0, dtype=np.float64)

    ingest_batch = _Pipeline.ingest_batch

    def _take(self, outkeys: np.ndarray, ys: np.ndarray) -> None:
        """Sideline the ell smallest (draw, outkey) of the sidelined keys and
        the given distinct outkeys, each key at its smallest draw, and feed
        every other key to the max-distinct sketch at its draw's tail value."""
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
        vals = np.asarray(self.a.tail(draws[rest]), dtype=np.float64)
        keep = vals > 0.0
        if keep.any():
            self.max_sketch.update_batch(keys[rest][keep], vals[keep])

    def merge(self, *others: "CombinationPipeline") -> "CombinationPipeline":
        """Pure merge: the max-distinct sketches merged, then the union of the
        sidelined keys, each at its smallest draw, absorbed once; the result
        does not depend on the order of the inputs."""
        out = self._merged(others, "a")
        out.max_sketch = self.max_sketch.merge(*(p.max_sketch for p in others))
        keys = np.concatenate([p.sidelined_keys for p in (self, *others)])
        draws = np.concatenate([p.sidelined_draws for p in (self, *others)])
        order = np.argsort(draws)
        at = order[np.unique(keys[order], return_index=True)[1]]  # each key at its smallest draw
        out._take(keys[at], draws[at])
        return out

    def tau(self) -> float:
        """Current adaptive cutoff: the largest sidelined draw."""
        return float(self.sidelined_draws.max()) if self.sidelined_draws.size else 0.0

    def estimate(self) -> float:
        """Finalize without mutating: sideline keys are fed at the cutoff's
        tail value into a copy of the sketch, the head is covered by the sum."""
        if self.sidelined_keys.size == 0:
            return 0.0
        tau = self.tau()
        fed = self.max_sketch.merge()
        v = float(self.a.tail(tau))
        if v > 0.0:
            fed.update_batch(self.sidelined_keys, np.full(len(self.sidelined_keys), v))
        return fed.estimate() / self.r + self.sum_counter.value() * float(self.a.head(tau))

    def _sketch_sections(self) -> list[bytes]:
        """The sidelined (outkey, draw) records and the max-distinct sketch."""
        side = np.rec.fromarrays([self.sidelined_keys, self.sidelined_draws], dtype=ENTRY).tobytes()
        return [side, self.max_sketch.to_bytes()]

    def _load_sketches(self, side: bytes, entries: bytes) -> None:
        """A build or merge leaves distinct sidelined keys in (draw, outkey)
        order: at most ell, ell whenever the max-distinct sketch holds an
        entry, and at least one once an element is counted. Others raise ParseError."""
        rec = records(side, ENTRY)
        # sidelined draws lie where full-range ys do, in [0, inf)
        keys, draws = rec["outkey"], AllThresholdSketch._stored(rec["value"])
        self.max_sketch = MaxDistinctSketch.from_bytes(entries, self.k, self.seed)
        ordered = (draws[1:] > draws[:-1]) | ((draws[1:] == draws[:-1]) & (keys[1:] > keys[:-1]))
        by_key = np.sort(keys)  # sorted neighbours: about a fifth of np.unique's time at 300 keys
        if not ordered.all() or (by_key[1:] == by_key[:-1]).any():
            raise ParseError("sidelined outkeys must be distinct and in (draw, outkey) order")
        n = len(keys)
        if n > self.ell or (n < self.ell and len(self.max_sketch)) or (n == 0 and self.count):
            raise ParseError(f"{n} sidelined outkeys with ell={self.ell}, {len(self.max_sketch)} max-distinct entries and {self.count} elements")
        self.sidelined_keys, self.sidelined_draws = keys, draws


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
        """Point estimate at threshold t with the t * SUM fallback.

        Beyond the largest stored draw the sketch covers everything it will
        ever cover, so the sketch value is used there regardless of the gate
        (t * SUM grows without bound and stops being meaningful).
        """
        if not t >= 0.0:
            raise ValueError(f"threshold t must be >= 0, got {t}")
        raw = self.threshold_sketch.estimate_at(t)
        bp = self.threshold_sketch.breakpoints()
        if raw >= self.gate or (bp.size and t >= bp[-1]):
            return raw / self.r
        return t * self.sum_counter.value()

    def estimate_soft_cap(self, T: float) -> float:
        if not T > 0.0:
            raise ValueError(f"soft cap scale T must be > 0, got {T}")
        return T * self.estimate_at(1.0 / T)

    def estimate_combination(self, a: CoefficientFunction) -> float:
        """Integral of the coefficient function against the threshold profile.

        Point masses are exact point queries; continuous parts integrate the
        step-function profile in closed form through tail-integral
        differences, with the region below the fallback crossing covered by
        t * SUM (head integral times the exact sum).
        """
        total = 0.0
        for loc, mass in a.deltas:
            total += mass * self.estimate_at(loc)
        if a.parts:
            cont = CoefficientFunction(parts=a.parts)
            ys = self.threshold_sketch.breakpoints()
            if ys.size == 0:
                return total
            raw = self.threshold_sketch.estimate_all(ys)
            above = np.nonzero(raw >= self.gate)[0]
            start = int(above[0]) if above.size else len(ys) - 1
            total += self.sum_counter.value() * float(cont.head(ys[start]))
            tails = np.asarray(cont.tail(ys[start:]), dtype=np.float64)
            seg = tails.copy()
            seg[:-1] -= tails[1:]
            total += float(np.dot(raw[start:] / self.r, seg))
        return total

    def _sketch_sections(self) -> list[bytes]:
        return [self.threshold_sketch.to_bytes()]

    def _load_sketches(self, entries: bytes) -> None:
        self.threshold_sketch = AllThresholdSketch.from_bytes(entries, self.k, self.seed)


@dataclass(frozen=True)
class SignedEstimate:
    """Difference estimate with its stability certificate.

    ``error_bound`` is the certified relative error limit rho * (eps+ + eps-)
    given component measurements within eps+ and eps- relative error.
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
    eps_plus: float = 0.0,
    eps_minus: float = 0.0,
) -> SignedEstimate:
    """Combine component measurements of the positive and negative parts.

    A negative difference is clamped to zero (the target statistic is
    nonnegative, so clamping can only reduce error); the clamp is flagged.
    """
    raw = float(plus_value) - float(minus_value)
    clamped = raw < 0.0
    return SignedEstimate(
        value=0.0 if clamped else raw,
        raw=raw,
        rho=a.rho_bound,
        error_bound=a.rho_bound * (float(eps_plus) + float(eps_minus)),
        clamped=clamped,
    )


class SignedCombinationPipeline(_Pipeline):
    """Two combination pipelines measuring the positive and negative parts of
    a signed coefficient function, with independent draws."""

    MODE = "signed"

    def __init__(
        self,
        a: SignedCoefficientFunction,
        r: int,
        epsilon: float,
        k: int,
        seed: int = 0,
        ordinal_base: int = 0,
    ):
        if a.minus.is_empty:
            raise ValueError("signed pipeline needs a nonempty negative part; use CombinationPipeline")
        self.signed = a
        self.plus = CombinationPipeline(a.plus, r, epsilon, k, seed, ordinal_base)
        self.minus = CombinationPipeline(a.minus, r, epsilon, k, seed ^ _MINUS_SEED_FLIP, ordinal_base)

    @property
    def epsilon(self) -> float:
        return self.plus.epsilon

    def ingest_batch(self, key64s, values) -> None:
        """Both parts map the batch before either takes it, so a value whose
        draws overflow under one part's seed only leaves both unchanged."""
        plus, minus = self.plus._map(key64s, values), self.minus._map(key64s, values)
        self.plus._commit(*plus)
        self.minus._commit(*minus)

    def merge(self, *others: "SignedCombinationPipeline") -> "SignedCombinationPipeline":
        """Pure merge of each part; the parts check their coefficient functions."""
        out = copy.copy(self)
        out.plus = self.plus.merge(*(p.plus for p in others))
        out.minus = self.minus.merge(*(p.minus for p in others))
        return out

    def estimate(self) -> SignedEstimate:
        return signed_estimate(
            self.plus.estimate(),
            self.minus.estimate(),
            self.signed,
            eps_plus=self.plus.epsilon,
            eps_minus=self.minus.epsilon,
        )

    def _header(self, statistic: str) -> SketchFileHeader:
        """The positive part's header (the negative part's seed is derived)."""
        return replace(self.plus._header(statistic), mode=self.MODE)

    def _sections(self) -> list[bytes]:
        return self.plus._sections() + self.minus._sections()

    def _load(self, sections: list[bytes], count: int) -> None:
        self.plus._load(sections[:3], count)
        self.minus._load(sections[3:], count)
        if self.plus.sum_counter.exact() != self.minus.sum_counter.exact():
            raise ParseError("the two parts of a signed file hold different sums")
