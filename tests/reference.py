"""Reference definitions the vectorized code is checked against.

The per-element mappers are the element-at-a-time form of the paper's
mappings: the batch mappers in ``capsketch.mappers`` must emit exactly their
outputs (point) or each (key, replica)'s smallest draw (full range and
combination). The sketch definitions are brute-force forms of the retention
rules, with the serialized bytes packed entry by entry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import inf

import numpy as np

from capsketch.core import Element, ElementValidationError, exp_draw, hash_key, outkey_for, rank_uniform
from capsketch.mappers import MapperConfig


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
        y = exp_draw(src.uniform(ordinal, i), e.value)
        if y <= cfg.t:
            out.append(OutputElement(outkey_for(k64, i)))
    return out


def map_combination(e: Element, cfg: MapperConfig, ordinal: int = 0, key64: int | None = None) -> list[OutputElement]:
    """Emit (outkey, tail integral of a at max(tau, draw)) per replica, when positive."""
    e = _validated(e)
    if cfg.a is None:
        raise ValueError("combination mapping requires a coefficient function")
    k64 = hash_key(e.key) if key64 is None else key64
    src = cfg.source()
    out = []
    for i in range(cfg.r):
        y = exp_draw(src.uniform(ordinal, i), e.value)
        if y == inf:
            raise _overflow(e.value)
        v = float(cfg.a.tail(max(cfg.tau, y)))
        if v > 0.0:
            out.append(OutputElement(outkey_for(k64, i), v))
    return out


def map_full_range(e: Element, cfg: MapperConfig, ordinal: int = 0, key64: int | None = None) -> list[OutputElement]:
    """Emit all r replicas as (outkey, draw); thresholding later recovers any point mapping."""
    e = _validated(e)
    k64 = hash_key(e.key) if key64 is None else key64
    src = cfg.source()
    ys = [exp_draw(src.uniform(ordinal, i), e.value) for i in range(cfg.r)]
    if inf in ys:
        raise _overflow(e.value)
    return [OutputElement(outkey_for(k64, i), y) for i, y in enumerate(ys)]


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


def prefix_bottom_k(pairs, k: int, seed: int) -> list[tuple[int, float]]:
    """(outkey, y) held by an all-threshold sketch of size k over (outkey, y)
    pairs, in (base rank, outkey) order: each outkey at its smallest y, kept
    when fewer than k keys before it in (y, rank, outkey) order have a
    smaller (rank, outkey)."""
    low: dict[int, float] = {}
    for o, y in pairs:
        low[o] = min(y, low.get(o, y))
    walk = sorted((y, base_rank(o, seed), o) for o, y in low.items())
    kept = [
        (rank, o, y)
        for j, (y, rank, o) in enumerate(walk)
        if sum((r2, o2) < (rank, o) for _, r2, o2 in walk[:j]) < k
    ]
    return [(o, y) for _, o, y in sorted(kept)]


def sketch_blob(entries, entry_format: str) -> bytes:
    """Sketch bytes: each entry packed with ``entry_format``."""
    return b"".join(struct.pack(entry_format, *e) for e in entries)
