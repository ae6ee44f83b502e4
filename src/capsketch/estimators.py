"""End-to-end measurement pipelines.

Each pipeline owns the sketches for one measurement mode and the exact sum of
element values. Estimates follow a common shape: when the sketch has seen
enough distinct output keys (at least 3/epsilon^2) its estimate divided by the
replication r is returned; below that the transform is in its linear regime
and t * SUM is the better answer.

Pipelines are single-writer; ``merge`` is pure and returns a new pipeline.
``ingest`` takes one element as a one-element ``ingest_batch``, so there is
one ingest path per mode. Given the same ordinals, batches of any sizes leave
point and full-range pipelines byte-identical, and combination pipelines with
the same sidelined keys and estimate. Every mode rejects the same values (not
positive and finite, or so small that a draw overflows) before it changes any
state, so a rejected call leaves the pipeline as it was.

``to_bytes`` writes a sketch file; ``from_bytes`` takes t or the coefficient function as arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf

import numpy as np

from .core import Element, IncompatibleSketchError, hash_key
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


def _check_field(name: str, a, b):
    if a != b:
        raise IncompatibleSketchError(f"pipelines differ in {name}: {a!r} vs {b!r}")


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


class _Ingest:
    """Element-at-a-time ingestion, as a one-element batch."""

    def ingest(self, e: Element) -> None:
        e = e if isinstance(e, Element) else Element(*e)
        self.ingest_batch(np.array([hash_key(e.key)], dtype=np.uint64), np.array([e.value]))


class _PipelineBase(_Ingest):
    """Shared ingest bookkeeping: ordinal assignment and the exact sum."""

    def __init__(self, r: int, epsilon: float, k: int, seed: int, ordinal_base: int):
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"error target must be in (0,1), got {epsilon}")
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

    def _next_ordinals(self, n: int) -> np.ndarray:
        """Ordinals of the next n elements; ``count`` advances only once they
        are mapped, so a rejected batch is not counted."""
        return np.arange(self.ordinal_base + self.count, self.ordinal_base + self.count + n, dtype=np.uint64)

    def _check_mergeable(self, other, *fields: str) -> None:
        _check_field("type", type(self).__name__, type(other).__name__)
        for name in (*fields, "r", "epsilon", "k", "seed"):
            _check_field(name, getattr(self, name), getattr(other, name))

    def _cfg(self) -> MapperConfig:
        return MapperConfig(r=self.r, seed=self.seed)

    def _header(self, mode: str, statistic: str) -> SketchFileHeader:
        return SketchFileHeader(mode, statistic, self.epsilon, self.r, self.k, self.seed, self.ordinal_base, self.count)


class PointPipeline(_PipelineBase):
    """Distinct-count measurement of the transform at a fixed threshold t."""

    def __init__(self, t: float, r: int, epsilon: float, k: int, seed: int = 0, ordinal_base: int = 0):
        super().__init__(r, epsilon, k, seed, ordinal_base)
        if not t >= 0.0:
            raise ValueError(f"threshold t must be >= 0, got {t}")
        self.t = float(t)
        self.counter = DistinctCounter(k, seed)
        self.emitted = 0

    @classmethod
    def for_soft_cap(cls, T: float, r: int, epsilon: float, k: int, seed: int = 0, ordinal_base: int = 0):
        """Pipeline measuring the smooth-capping statistic at scale T (t = 1/T)."""
        if not T > 0.0:
            raise ValueError(f"soft cap scale T must be > 0, got {T}")
        return cls(1.0 / T, r, epsilon, k, seed, ordinal_base)

    def _cfg(self) -> MapperConfig:
        return MapperConfig(r=self.r, t=self.t, seed=self.seed)

    def ingest_batch(self, key64s: np.ndarray, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        ordinals = self._next_ordinals(len(values))
        outkeys = point_outkeys_batch(np.asarray(key64s, dtype=np.uint64), values, self._cfg(), ordinals)
        self.count += len(values)
        self.emitted += len(outkeys)
        self.counter.update_batch(outkeys)
        self.sum_counter.update_batch(values)

    def merge(self, other: "PointPipeline") -> "PointPipeline":
        """Pure merge; the result keeps the smaller ordinal base, so merge
        output bytes do not depend on argument order."""
        self._check_mergeable(other, "t")
        out = PointPipeline(self.t, self.r, self.epsilon, self.k, self.seed, min(self.ordinal_base, other.ordinal_base))
        out.counter = self.counter.merge(other.counter)
        out.sum_counter = self.sum_counter.merge(other.sum_counter)
        out.count = self.count + other.count
        out.emitted = self.emitted + other.emitted
        return out

    def estimate(self) -> float:
        """Estimate of the transform at t, falling back to t * SUM when the
        distinct-output estimate is below 3/epsilon^2."""
        d = self.counter.estimate()
        if d >= self.gate:
            return d / self.r
        return self.t * self.sum_counter.value()

    def to_bytes(self, statistic: str = "") -> bytes:
        return pack(self._header("point", statistic), [self.counter.to_bytes(), self.sum_counter.to_bytes()])

    @classmethod
    def from_bytes(cls, data: bytes, t: float) -> "PointPipeline":
        h, (entries, total) = unpack(data, "point")
        out = cls(t, h.r, h.epsilon, h.k, h.seed, h.ordinal_base)
        out.counter = DistinctCounter.from_bytes(entries, h.k, h.seed)
        out.sum_counter = SumCounter.from_bytes(total)
        out.count = h.count
        return out


def soft_cap_estimate(pipeline: PointPipeline, T: float) -> float:
    """Smooth-capping statistic at scale T from a pipeline built at t = 1/T."""
    if not T > 0.0:
        raise ValueError(f"soft cap scale T must be > 0, got {T}")
    if abs(pipeline.t * T - 1.0) > 1e-9:
        raise ValueError(f"pipeline threshold {pipeline.t} does not match 1/T for T={T}")
    return T * pipeline.estimate()


class CombinationPipeline(_PipelineBase):
    """Max-distinct measurement of a nonnegative coefficient combination.

    Output elements carry raw draws; the smallest-draw outkeys are sidelined
    (up to ceil(3/epsilon^2) of them) so the integration cutoff can be chosen
    adaptively at estimation time. Evicted keys enter the max-distinct sketch
    valued at the tail integral of their own recorded draw; at estimation the
    sidelined keys are fed at the tail integral of the cutoff and the head of
    the coefficient function is covered by the exact sum.
    """

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
        self.sidelined: dict[int, float] = {}

    def _side(self) -> tuple[np.ndarray, np.ndarray]:
        """The sidelined outkeys and their draws, in (draw, outkey) order."""
        keys = np.fromiter(self.sidelined, dtype=np.uint64, count=len(self.sidelined))
        ys = np.fromiter(self.sidelined.values(), dtype=np.float64, count=len(self.sidelined))
        order = np.lexsort((keys, ys))
        return keys[order], ys[order]

    def ingest_batch(self, key64s: np.ndarray, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        ordinals = self._next_ordinals(len(values))
        outkeys, ys = full_range_batch(np.asarray(key64s, dtype=np.uint64), values, self._cfg(), ordinals)
        self.count += len(values)
        self._absorb_batch(outkeys, ys)
        self.sum_counter.update_batch(values)

    def _absorb_batch(self, outkeys: np.ndarray, ys: np.ndarray) -> None:
        """Sideline the ell smallest (draw, outkey) of the sidelined keys and
        the given distinct outkeys, each key at its smallest draw, and feed
        every other key to the max-distinct sketch at its draw's tail value."""
        if len(outkeys) == 0:
            return
        side_keys, side_ys = self._side()
        hit, pos = _lookup(side_keys, outkeys)
        if hit.any():
            np.minimum.at(side_ys, pos[hit], ys[hit])
            outkeys, ys = outkeys[~hit], ys[~hit]
        keys, draws = np.concatenate([side_keys, outkeys]), np.concatenate([side_ys, ys])
        chosen = _smallest(keys, draws, self.ell)
        self.sidelined = dict(zip(keys[chosen].tolist(), draws[chosen].tolist()))
        if len(chosen) == len(keys):
            return
        rest = np.ones(len(keys), dtype=bool)
        rest[chosen] = False
        vals = np.asarray(self.a.tail(draws[rest]), dtype=np.float64)
        keep = vals > 0.0
        if keep.any():
            self.max_sketch.update_batch(keys[rest][keep], vals[keep])

    def merge(self, other: "CombinationPipeline") -> "CombinationPipeline":
        self._check_mergeable(other)
        _check_field("coefficient function", self.a, other.a)
        out = CombinationPipeline(self.a, self.r, self.epsilon, self.k, self.seed, min(self.ordinal_base, other.ordinal_base))
        out.max_sketch = self.max_sketch.merge(other.max_sketch)
        out.sum_counter = self.sum_counter.merge(other.sum_counter)
        out.count = self.count + other.count
        out.sidelined = dict(self.sidelined)
        out._absorb_batch(*other._side())
        return out

    def tau(self) -> float:
        """Current adaptive cutoff: the largest sidelined draw."""
        if not self.sidelined:
            return 0.0
        return max(self.sidelined.values())

    def estimate(self) -> float:
        """Finalize without mutating: sideline keys are fed at the cutoff's
        tail value into a copy of the sketch, the head is covered by the sum."""
        if not self.sidelined:
            return 0.0
        tau = self.tau()
        fed = self.max_sketch.merge(MaxDistinctSketch(self.k, self.seed))
        v = float(self.a.tail(tau))
        if v > 0.0:
            fed.update_batch(self._side()[0], np.full(len(self.sidelined), v))
        return fed.estimate() / self.r + self.sum_counter.value() * float(self.a.head(tau))

    def _sections(self) -> list[bytes]:
        """The sidelined (outkey, draw) records, the max-distinct sketch and the sum."""
        side = np.rec.fromarrays(self._side(), dtype=ENTRY).tobytes()
        return [side, self.max_sketch.to_bytes(), self.sum_counter.to_bytes()]

    def _load(self, sections: list[bytes], count: int) -> None:
        side, entries, total = sections
        rec = records(side, ENTRY)
        self.sidelined = dict(zip(rec["outkey"].tolist(), rec["value"].tolist()))
        self.max_sketch = MaxDistinctSketch.from_bytes(entries, self.k, self.seed)
        self.sum_counter = SumCounter.from_bytes(total)
        self.count = count

    def to_bytes(self, statistic: str = "") -> bytes:
        return pack(self._header("combination", statistic), self._sections())

    @classmethod
    def from_bytes(cls, data: bytes, a: CoefficientFunction) -> "CombinationPipeline":
        h, sections = unpack(data, "combination")
        out = cls(a, h.r, h.epsilon, h.k, h.seed, h.ordinal_base)
        out._load(sections, h.count)
        return out


class FullRangePipeline(_PipelineBase):
    """All-threshold measurement: one sketch answering every threshold and
    any nonnegative coefficient combination after the fact."""

    def __init__(self, r: int, epsilon: float, k: int, seed: int = 0, ordinal_base: int = 0):
        super().__init__(r, epsilon, k, seed, ordinal_base)
        self.threshold_sketch = AllThresholdSketch(k, seed)

    def ingest_batch(self, key64s: np.ndarray, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        ordinals = self._next_ordinals(len(values))
        outkeys, ys = full_range_batch(np.asarray(key64s, dtype=np.uint64), values, self._cfg(), ordinals)
        self.count += len(values)
        self.threshold_sketch.update_batch(outkeys, ys)
        self.sum_counter.update_batch(values)

    def merge(self, other: "FullRangePipeline") -> "FullRangePipeline":
        self._check_mergeable(other)
        out = FullRangePipeline(self.r, self.epsilon, self.k, self.seed, min(self.ordinal_base, other.ordinal_base))
        out.threshold_sketch = self.threshold_sketch.merge(other.threshold_sketch)
        out.sum_counter = self.sum_counter.merge(other.sum_counter)
        out.count = self.count + other.count
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
            ys, _, _ = self.threshold_sketch._build_profile()
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

    def to_bytes(self, statistic: str = "") -> bytes:
        return pack(self._header("fullrange", statistic), [self.threshold_sketch.to_bytes(), self.sum_counter.to_bytes()])

    @classmethod
    def from_bytes(cls, data: bytes) -> "FullRangePipeline":
        h, (entries, total) = unpack(data, "fullrange")
        out = cls(h.r, h.epsilon, h.k, h.seed, h.ordinal_base)
        out.threshold_sketch = AllThresholdSketch.from_bytes(entries, h.k, h.seed)
        out.sum_counter = SumCounter.from_bytes(total)
        out.count = h.count
        return out


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


class SignedCombinationPipeline(_Ingest):
    """Two combination pipelines measuring the positive and negative parts of
    a signed coefficient function, with independent draws."""

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
        self.plus.ingest_batch(key64s, values)
        self.minus.ingest_batch(key64s, values)

    def merge(self, other: "SignedCombinationPipeline") -> "SignedCombinationPipeline":
        _check_field("coefficient function", self.signed, other.signed)
        out = SignedCombinationPipeline.__new__(SignedCombinationPipeline)
        out.signed = self.signed
        out.plus = self.plus.merge(other.plus)
        out.minus = self.minus.merge(other.minus)
        return out

    def estimate(self) -> SignedEstimate:
        return signed_estimate(
            self.plus.estimate(),
            self.minus.estimate(),
            self.signed,
            eps_plus=self.plus.epsilon,
            eps_minus=self.minus.epsilon,
        )

    def to_bytes(self, statistic: str = "") -> bytes:
        """Both parts' sections under the positive part's header (the negative part's seed is derived)."""
        return pack(self.plus._header("signed", statistic), self.plus._sections() + self.minus._sections())

    @classmethod
    def from_bytes(cls, data: bytes, a: SignedCoefficientFunction) -> "SignedCombinationPipeline":
        h, sections = unpack(data, "signed")
        out = cls(a, h.r, h.epsilon, h.k, h.seed, h.ordinal_base)
        out.plus._load(sections[:3], h.count)
        out.minus._load(sections[3:], h.count)
        return out
