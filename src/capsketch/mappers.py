"""Randomized mappings of input elements to output elements.

Three mappings cover the measurement modes: point (emit an outkey per replica
whose exponential draw lands below a threshold), combination (attach the tail
integral of a coefficient function to each draw), and full-range (emit every
draw so any threshold can be applied later).

Every replica draw is keyed by (seed, element ordinal, replica index), so a
mapping is a pure function of the element, its ordinal and the config. The
batch point mapping emits exactly the outkeys of the per-element one. The
batch full-range and combination mappings emit one output per distinct
(key, replica) of the call, carrying the smallest of that pair's draws: the
threshold and max-distinct statistics of the output elements depend on each
outkey's smallest draw only, so this keeps every statistic the sketches see.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, e, inf
from typing import Iterable

import numpy as np

from .core import (
    Element,
    ElementValidationError,
    RandomnessSource,
    exp_draw,
    hash_key,
    outkey_block,
    outkey_for,
)
from .transforms import CoefficientFunction

__all__ = [
    "OutputElement",
    "MapperConfig",
    "map_point",
    "map_point_fast",
    "map_combination",
    "map_full_range",
    "point_outkeys_batch",
    "full_range_batch",
    "combination_batch",
    "choose_replication",
]

# Cap on draw-matrix cells per vectorized chunk (elements x replicas): half a
# megabyte per float64 matrix, so a chunk's temporaries stay in cache.
_CHUNK_CELLS = 1 << 16
# A draw -ln(u)/value stays finite for every u the source yields (-ln(u) is
# below 38) once value is at least this; smaller values are checked draw by draw.
_MIN_SAFE_VALUE = 1e-300


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


@dataclass(frozen=True)
class MapperConfig:
    """Shared mapper parameters.

    ``t`` applies to point mappings, ``a`` and ``tau`` to combination
    mappings; ``r`` and ``seed`` to all of them.
    """

    r: int
    t: float | None = None
    a: CoefficientFunction | None = None
    tau: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if int(self.r) < 1:
            raise ValueError(f"replication r must be >= 1, got {self.r}")
        object.__setattr__(self, "r", int(self.r))
        if self.t is not None and (self.t < 0.0 or self.t != self.t):
            raise ValueError(f"threshold t must be >= 0, got {self.t}")
        if self.tau < 0.0:
            raise ValueError(f"cutoff tau must be >= 0, got {self.tau}")

    def source(self) -> RandomnessSource:
        return RandomnessSource(self.seed)


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


def map_point_fast(e: Element, cfg: MapperConfig, ordinal: int = 0, key64: int | None = None) -> list[OutputElement]:
    """Point mapping in time linear in the number of emitted outkeys.

    Draws the number of fired replicas from Binomial(r, 1 - exp(-value*t))
    and picks that many distinct replica indices; the output-set distribution
    is identical to :func:`map_point` (the draws are consumed differently, so
    individual outputs are not bit-coupled to it).
    """
    e = _validated(e)
    if cfg.t is None:
        raise ValueError("point mapping requires a threshold t")
    k64 = hash_key(e.key) if key64 is None else key64
    p = -np.expm1(-e.value * cfg.t) if cfg.t != inf else 1.0
    gen = np.random.default_rng(cfg.source().fast_path_seed(ordinal))
    fired = int(gen.binomial(cfg.r, p))
    if fired == 0:
        return []
    idx = gen.choice(cfg.r, size=fired, replace=False)
    return [OutputElement(outkey_for(k64, int(i))) for i in idx]


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


def _chunks(n: int, r: int) -> Iterable[tuple[int, int]]:
    rows = max(1, _CHUNK_CELLS // max(r, 1))
    for lo in range(0, n, rows):
        yield lo, min(n, lo + rows)


def point_outkeys_batch(
    key64s: np.ndarray,
    values: np.ndarray,
    cfg: MapperConfig,
    ordinals: np.ndarray,
) -> np.ndarray:
    """Vectorized point mapping; returns the emitted outkeys as a uint64 array.

    Bit-identical to mapping each element with :func:`map_point`.
    """
    if cfg.t is None:
        raise ValueError("point mapping requires a threshold t")
    src = cfg.source()
    values = np.asarray(values, dtype=np.float64)
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    out = []
    for lo, hi in _chunks(len(values), cfg.r):
        u = src.uniform_block(ordinals[lo:hi], cfg.r)
        y = -np.log(u) / values[lo:hi, None]
        mask = y <= cfg.t
        if mask.any():
            out.append(outkey_block(key64s[lo:hi], cfg.r)[mask])
    return np.concatenate(out) if out else np.empty(0, dtype=np.uint64)


def full_range_batch(
    key64s: np.ndarray,
    values: np.ndarray,
    cfg: MapperConfig,
    ordinals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized full-range mapping reduced to one output per distinct (key, replica).

    Returns (outkeys, draws): for each distinct key64 of the call (ascending)
    and each replica i, the outkey of (key, i) and the smallest replica-i
    draw among the key's elements, where :func:`map_full_range` emits every
    draw of every element. Like :class:`Element`, it rejects values that are
    not positive and finite, and like :func:`map_full_range` it rejects
    values so small that a draw overflows, with :class:`ElementValidationError`.
    """
    src = cfg.source()
    key64s = np.asarray(key64s, dtype=np.uint64)
    values = np.asarray(values, dtype=np.float64)
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    if len(values) == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
    if not np.all((values > 0.0) & (values < inf)):
        raise ElementValidationError("element values must be positive finite numbers")
    # Sorting the rows by key makes each key's elements one run of rows, and
    # a chunk's runs can be reduced with one minimum.reduceat; a run cut by a
    # chunk boundary is folded into the same output row from both sides.
    order = np.argsort(key64s)
    skeys, svalues, sordinals = key64s[order], values[order], ordinals[order]
    starts = np.flatnonzero(np.r_[True, skeys[1:] != skeys[:-1]])
    mins = np.full((len(starts), cfg.r), inf)
    for lo, hi in _chunks(len(values), cfg.r):
        # log(u)/-v is -ln(u)/v bit for bit, computed in place; overflow is
        # checked below
        y = src.uniform_block(sordinals[lo:hi], cfg.r)
        np.log(y, out=y)
        with np.errstate(over="ignore"):
            y /= -svalues[lo:hi, None]
        tiny = np.flatnonzero(svalues[lo:hi] < _MIN_SAFE_VALUE)
        bad = tiny[np.isinf(y[tiny]).any(axis=1)]
        if bad.size:
            raise _overflow(float(svalues[lo + bad[0]]))
        g0 = int(np.searchsorted(starts, lo, side="right")) - 1
        g1 = int(np.searchsorted(starts, hi, side="left"))
        cuts = np.r_[lo, starts[g0 + 1 : g1]] - lo
        np.minimum(mins[g0:g1], np.minimum.reduceat(y, cuts, axis=0), out=mins[g0:g1])
    return outkey_block(skeys[starts], cfg.r).ravel(), mins.ravel()


def combination_batch(
    key64s: np.ndarray,
    values: np.ndarray,
    cfg: MapperConfig,
    ordinals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized combination mapping; returns (outkeys, tail values > 0).

    Built on :func:`full_range_batch`, so it emits one output per distinct
    (key, replica) of the call, valued at the tail integral of that pair's
    smallest draw: the largest value :func:`map_combination` gives the pair,
    since tail integrals do not increase.
    """
    if cfg.a is None:
        raise ValueError("combination mapping requires a coefficient function")
    outkeys, ys = full_range_batch(key64s, values, cfg, ordinals)
    v = np.asarray(cfg.a.tail(np.maximum(cfg.tau, ys)), dtype=np.float64)
    keep = v > 0.0
    return outkeys[keep], v[keep]


def choose_replication(epsilon: float, max_over_sum: float | None = None) -> int:
    """Replication count giving a concentrated measurement at error target epsilon.

    Worst case ceil(e/(e-1) * epsilon^-2.5); callers that know the ratio
    MAX(W)/SUM(W) can shrink it, down to r=1 once SUM >= epsilon^-2.5 * MAX.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"error target must be in (0,1), got {epsilon}")
    worst = ceil(e / (e - 1.0) * epsilon**-2.5)
    if max_over_sum is None:
        return worst
    if not 0.0 < max_over_sum <= 1.0:
        raise ValueError(f"MAX/SUM ratio must be in (0,1], got {max_over_sum}")
    if max_over_sum <= epsilon**2.5:
        return 1
    return min(worst, max(1, ceil(e / (e - 1.0) * epsilon**-2.5 * max_over_sum)))
