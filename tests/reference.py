"""Reference definitions the vectorized code is checked against.

The scalar primitives (a uniform per (seed, ordinal, replica), an outkey per
(key, replica), an outkey's rank uniform and an exponential draw) are the
one-value forms of the array primitives of ``capsketch.core``, which must
match them bit for bit. The per-element mappers are the element-at-a-time
form of the paper's mappings: the batch mappers in ``capsketch.mappers`` must
emit exactly their outputs (point) or each (key, replica)'s smallest draw
(full range), and ``combination_batch`` is the combination mapping the
pipelines apply inside ``CombinationPipeline``. The sketch definitions are
brute-force forms of the retention rules, with the serialized bytes packed
entry by entry. The TSV reader takes one line at a time, as the chunked
reader of ``capsketch.cli`` must behave.
"""

from __future__ import annotations

import heapq
import struct
import sys
from dataclasses import dataclass
from math import inf

import numpy as np

from capsketch.core import (
    _DRAW_SALT,
    _GOLDEN,
    _GOLDEN2,
    _M64,
    _OUTKEY_SALT,
    _RANK_SALT,
    _TO_UNIT,
    Element,
    ElementValidationError,
    ParseError,
    RandomnessSource,
    _mix64,
    hash_key,
)
from capsketch.mappers import MapperConfig, full_range_batch
from capsketch.transforms import CoefficientFunction


def _to_unit(h: int) -> float:
    # (0, 1) exclusive on both ends so log() is always finite and nonzero: the
    # top 53 bits all ones round to 1.0, which is clamped to the float below.
    return min(((h >> 11) + 0.5) * _TO_UNIT, 1.0 - _TO_UNIT)


def uniform(src: RandomnessSource, ordinal: int, i: int) -> float:
    """The uniform of (seed, ordinal, replica i): entry (ordinal, i) of
    ``src.uniform_block``."""
    h = _mix64(_mix64(src.seed ^ _DRAW_SALT) ^ ((ordinal * _GOLDEN) & _M64))
    h = _mix64(h ^ ((i * _GOLDEN2) & _M64))
    return _to_unit(h)


def outkey_for(key64: int, i: int) -> int:
    """The 64-bit outkey of replica ``i`` of a hashed key: entry (key, i) of
    ``outkey_block``."""
    return _mix64(key64 ^ _mix64((i + _OUTKEY_SALT) & _M64))


def rank_uniform(outkey: int, seed: int) -> float:
    """The rank uniform of one outkey: an entry of ``rank_uniforms``."""
    return _to_unit(_mix64(outkey ^ _mix64((seed + _RANK_SALT) & _M64)))


def exp_draw(u: float | np.ndarray, rate: float | np.ndarray):
    """Map a uniform draw ``u`` in (0,1) to Exp(rate) via -ln(u)/rate."""
    if np.ndim(rate) == 0:
        rate = float(rate)
        if not (rate > 0.0) or rate == float("inf"):
            raise ValueError(f"exponential rate must be positive and finite, got {rate}")
        if np.ndim(u) == 0:
            # np.log, not math.log: bitwise identical to the vectorized path
            return float(-np.log(u)) / rate
    return -np.log(u) / rate


@dataclass(frozen=True)
class OutputElement:
    """An output record: 64-bit outkey plus an optional nonnegative value."""

    outkey: int
    value: float | None = None

    def __post_init__(self):
        if self.value is not None:
            v = float(self.value)
            if not (v >= 0.0) or v == inf:
                raise ValueError(f"output element value must be finite and >= 0, got {self.value!r}")
            object.__setattr__(self, "value", v)


def _validated(e: Element) -> Element:
    return e if isinstance(e, Element) else Element(*e)


def _overflow(value: float) -> ElementValidationError:
    return ElementValidationError(f"element value {value!r} is too small: its exponential draws overflow")


def map_point(e: Element, cfg: MapperConfig, ordinal: int = 0, key64: int | None = None) -> list[OutputElement]:
    """Emit the outkey of each replica whose Exp(e.value) draw is <= t.

    Each replica fires independently with probability 1 - exp(-value * t).
    """
    e = _validated(e)
    if cfg.t is None:
        raise ValueError("point mapping requires a threshold t")
    k64 = hash_key(e.key) if key64 is None else key64
    src = cfg.source()
    out = []
    for i in range(cfg.r):
        y = exp_draw(uniform(src, ordinal, i), e.value)
        if y <= cfg.t:
            out.append(OutputElement(outkey_for(k64, i)))
    return out


def _check_combination(a: CoefficientFunction | None, tau: float) -> None:
    if a is None:
        raise ValueError("combination mapping requires a coefficient function")
    if not tau >= 0.0:
        raise ValueError(f"cutoff tau must be >= 0, got {tau}")


def map_combination(
    e: Element,
    cfg: MapperConfig,
    a: CoefficientFunction | None = None,
    tau: float = 0.0,
    ordinal: int = 0,
    key64: int | None = None,
) -> list[OutputElement]:
    """Emit (outkey, tail integral of a at max(tau, draw)) per replica, when positive."""
    e = _validated(e)
    _check_combination(a, tau)
    k64 = hash_key(e.key) if key64 is None else key64
    src = cfg.source()
    out = []
    for i in range(cfg.r):
        y = exp_draw(uniform(src, ordinal, i), e.value)
        if y == inf:
            raise _overflow(e.value)
        v = float(a.tail(max(tau, y)))
        if v > 0.0:
            out.append(OutputElement(outkey_for(k64, i), v))
    return out


def map_full_range(e: Element, cfg: MapperConfig, ordinal: int = 0, key64: int | None = None) -> list[OutputElement]:
    """Emit all r replicas as (outkey, draw); thresholding later recovers any point mapping."""
    e = _validated(e)
    k64 = hash_key(e.key) if key64 is None else key64
    src = cfg.source()
    ys = [exp_draw(uniform(src, ordinal, i), e.value) for i in range(cfg.r)]
    if inf in ys:
        raise _overflow(e.value)
    return [OutputElement(outkey_for(k64, i), y) for i, y in enumerate(ys)]


def combination_batch(
    key64s: np.ndarray,
    values: np.ndarray,
    cfg: MapperConfig,
    ordinals: np.ndarray,
    a: CoefficientFunction | None,
    tau: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized combination mapping; returns (outkeys, tail values > 0).

    Built on ``full_range_batch``, so it emits one output per distinct (key,
    replica) of the call, valued at the tail integral of that pair's smallest
    draw: the largest value :func:`map_combination` gives the pair, since
    tail integrals do not increase.
    """
    _check_combination(a, tau)
    outkeys, ys = full_range_batch(key64s, values, cfg, ordinals)
    v = np.asarray(a.tail(np.maximum(tau, ys)), dtype=np.float64)
    keep = v > 0.0
    return outkeys[keep], v[keep]


def base_rank(outkey: int, seed: int) -> float:
    """Exponential base rank of one outkey; np.log, as the sketches use."""
    return float(-np.log(rank_uniform(outkey, seed)))


def bottom_k_of_maxima(pairs, k: int, seed: int) -> list[tuple[int, float]]:
    """(outkey, m) held by a max-distinct sketch of size k over (outkey,
    value) pairs, in (base/m, outkey) order: each outkey at its largest value
    m, then the k smallest (base/m, outkey). A distinct counter holds the
    same outkeys when every m is 1."""
    best: dict[int, float] = {}
    for o, m in pairs:
        best[o] = max(m, best.get(o, m))
    ranked = sorted((base_rank(o, seed) / m, o, m) for o, m in best.items())
    return [(o, m) for _, o, m in ranked[:k]]


def prefix_bottom_k(pairs, k: int, seed: int, rank=base_rank) -> list[tuple[int, float]]:
    """(outkey, y) held by an all-threshold sketch of size k over (outkey, y)
    pairs, in (rank, outkey) order: each outkey at its smallest y, kept
    when fewer than k keys before it in (y, rank, outkey) order have a
    smaller (rank, outkey). An outkey's rank is ``rank(outkey, seed)``,
    its base rank unless given."""
    low: dict[int, float] = {}
    for o, y in pairs:
        low[o] = min(y, low.get(o, y))
    walk = sorted((y, rank(o, seed), o) for o, y in low.items())
    kept = [
        (rank, o, y)
        for j, (y, rank, o) in enumerate(walk)
        if sum((r2, o2) < (rank, o) for _, r2, o2 in walk[:j]) < k
    ]
    return [(o, y) for _, o, y in sorted(kept)]


def sketch_blob(entries, entry_format: str) -> bytes:
    """Sketch bytes: each entry packed with ``entry_format``."""
    return b"".join(struct.pack(entry_format, *e) for e in entries)


def threshold_profile(ys, ranks, okeys, k: int):
    """(ys, counts, kths) of all-threshold entries walked in (y, rank,
    outkey) order: at each distinct y, the number of entries with y' <= y
    and the k-th smallest rank among them (inf below k entries)."""
    items = sorted(zip(ys, ranks, okeys))
    out_ys, counts, kths = [], [], []
    heap: list[float] = []  # max-heap (negated) of the k smallest ranks so far
    for j, (y, rank, _) in enumerate(items):
        if len(heap) < k:
            heapq.heappush(heap, -rank)
        elif rank < -heap[0]:
            heapq.heapreplace(heap, -rank)
        count = j + 1
        kth = -heap[0] if count >= k else inf
        if out_ys and out_ys[-1] == y:
            counts[-1], kths[-1] = count, kth
        else:
            out_ys.append(y)
            counts.append(count)
            kths.append(kth)
    return (
        np.array(out_ys, dtype=np.float64),
        np.array(counts, dtype=np.int64),
        np.array(kths, dtype=np.float64),
    )


def read_elements(path: str):
    """Parse TSV lines into elements; raises ParseError with the line number."""
    fh = sys.stdin.buffer if path == "-" else open(path, "rb")
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip(b"\r\n")
            if not line:
                continue
            key, _, rest = line.partition(b"\t")
            if not key:
                raise ParseError(f"line {lineno}: empty key")
            if rest:
                try:
                    value = float(rest)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad value {rest!r}") from None
            else:
                value = 1.0
            try:
                yield Element(key, value)
            except ElementValidationError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
    finally:
        if path != "-":
            fh.close()
