"""Randomized mappings of input elements to output elements.

Two mappings cover the measurement modes: point (emit an outkey per replica
whose exponential draw lands below a threshold) and full-range (emit every
draw so any threshold can be applied later). The combination mode maps with
the full-range mapping and values each draw at the tail integral of its
coefficient function itself (``CombinationPipeline``).

Every replica draw is keyed by (seed, element ordinal, replica index), so a
mapping is a pure function of the element, its ordinal and the config. The
mappings take arrays of elements. The point mapping emits exactly the outkeys
that mapping each element on its own would. The full-range mapping emits one
output per distinct (key, replica) of the call, carrying the smallest of that
pair's draws: the threshold and max-distinct statistics of the output
elements depend on each outkey's smallest draw only, so this keeps every
statistic the sketches see. Both reject the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, e, inf
from typing import Iterable

import numpy as np

from .core import MIN_EPSILON, ElementValidationError, RandomnessSource, outkey_block

__all__ = [
    "MapperConfig",
    "point_outkeys_batch",
    "full_range_batch",
    "choose_replication",
]

# Cap on draw-matrix cells per vectorized chunk (elements x replicas): half a
# megabyte per float64 matrix, so a chunk's temporaries stay in cache.
_CHUNK_CELLS = 1 << 16
# A draw -ln(u)/value stays finite for every u the source yields (-ln(u) is
# below 38) once value is at least this; smaller values are checked draw by draw.
_MIN_SAFE_VALUE = 1e-300


@dataclass(frozen=True)
class MapperConfig:
    """Shared mapper parameters: ``t`` applies to point mappings, ``r`` and
    ``seed`` to both."""

    r: int
    t: float | None = None
    seed: int = 0

    def __post_init__(self):
        if int(self.r) < 1:
            raise ValueError(f"replication r must be >= 1, got {self.r}")
        object.__setattr__(self, "r", int(self.r))
        if self.t is not None and (self.t < 0.0 or self.t != self.t):
            raise ValueError(f"threshold t must be >= 0, got {self.t}")

    def source(self) -> RandomnessSource:
        return RandomnessSource(self.seed)


def _checked(values) -> np.ndarray:
    """Element values as float64; like :class:`Element`, rejects any value
    that is not positive and finite."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all((values > 0.0) & (values < inf)):
        raise ElementValidationError("element values must be positive finite numbers")
    return values


def _draws(src: RandomnessSource, ordinals: np.ndarray, values: np.ndarray, r: int) -> np.ndarray:
    """Exponential draws -ln(u)/value of every (element, replica), shape
    (len(values), r); rejects a value so small that a draw overflows."""
    # log(u)/-v is -ln(u)/v bit for bit, computed in place; overflow is
    # checked below
    y = src.uniform_block(ordinals, r)
    np.log(y, out=y)
    with np.errstate(over="ignore"):
        y /= -values[:, None]
    tiny = np.flatnonzero(values < _MIN_SAFE_VALUE)
    bad = tiny[np.isinf(y[tiny]).any(axis=1)]
    if bad.size:
        value = float(values[bad[0]])
        raise ElementValidationError(f"element value {value!r} is too small: its exponential draws overflow")
    return y


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

    Emits, element by element, the outkey of each replica whose Exp(value)
    draw is <= t, so each replica fires independently with probability
    1 - exp(-value * t). Rejects the values :func:`full_range_batch` rejects,
    with :class:`ElementValidationError`.
    """
    if cfg.t is None:
        raise ValueError("point mapping requires a threshold t")
    src = cfg.source()
    values = _checked(values)
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    out = []
    for lo, hi in _chunks(len(values), cfg.r):
        mask = _draws(src, ordinals[lo:hi], values[lo:hi], cfg.r) <= cfg.t
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
    draw among the key's elements, where the per-element mapping emits every
    draw of every element. Like :class:`Element`, it rejects values that are
    not positive and finite, and it rejects values so small that a draw
    overflows, with :class:`ElementValidationError`.
    """
    src = cfg.source()
    key64s = np.asarray(key64s, dtype=np.uint64)
    values = _checked(values)
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    if len(values) == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
    # Sorting the rows by key makes each key's elements one run of rows, and
    # a chunk's runs can be reduced with one minimum.reduceat; a run cut by a
    # chunk boundary is folded into the same output row from both sides.
    order = np.argsort(key64s)
    skeys, svalues, sordinals = key64s[order], values[order], ordinals[order]
    starts = np.flatnonzero(np.r_[True, skeys[1:] != skeys[:-1]])
    mins = np.full((len(starts), cfg.r), inf)
    for lo, hi in _chunks(len(values), cfg.r):
        y = _draws(src, sordinals[lo:hi], svalues[lo:hi], cfg.r)
        g0 = int(np.searchsorted(starts, lo, side="right")) - 1
        g1 = int(np.searchsorted(starts, hi, side="left"))
        cuts = np.r_[lo, starts[g0 + 1 : g1]] - lo
        np.minimum(mins[g0:g1], np.minimum.reduceat(y, cuts, axis=0), out=mins[g0:g1])
    return outkey_block(skeys[starts], cfg.r).ravel(), mins.ravel()


def choose_replication(epsilon: float, max_over_sum: float | None = None) -> int:
    """Replication count giving a concentrated measurement at error target epsilon.

    Worst case ceil(e/(e-1) * epsilon^-2.5); callers that know the ratio
    MAX(W)/SUM(W) can shrink it, down to r=1 once SUM >= epsilon^-2.5 * MAX.
    """
    if not MIN_EPSILON <= epsilon < 1.0:
        raise ValueError(f"error target must be in [{MIN_EPSILON:g}, 1), got {epsilon}")
    worst = ceil(e / (e - 1.0) * epsilon**-2.5)
    if max_over_sum is None:
        return worst
    if not 0.0 < max_over_sum <= 1.0:
        raise ValueError(f"MAX/SUM ratio must be in (0,1], got {max_over_sum}")
    if max_over_sum <= epsilon**2.5:
        return 1
    return min(worst, max(1, ceil(e / (e - 1.0) * epsilon**-2.5 * max_over_sum)))
