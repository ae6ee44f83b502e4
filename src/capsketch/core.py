"""Element model, aggregation, and the hashing/randomness primitives shared by
mappers and sketches.

Everything here is deterministic given explicit seeds: random draws are
counter-based (keyed by seed, element ordinal and replica index), never pulled
from a shared mutable generator, so runs are reproducible and element
processing can be sharded freely.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ElementValidationError",
    "IncompatibleSketchError",
    "UnsupportedStatisticError",
    "IllPosedTransformError",
    "ParseError",
    "Element",
    "FrequencyDistribution",
    "aggregate",
    "RandomnessSource",
    "exp_draw",
    "hash_key",
    "hash_keys",
    "outkey_for",
    "outkey_block",
    "rank_uniform",
    "rank_uniforms",
]


class ElementValidationError(ValueError):
    """Raised for elements with empty keys or non-positive/non-finite values."""


class IncompatibleSketchError(ValueError):
    """Raised when merging sketches built with different k, seed or type."""


class UnsupportedStatisticError(ValueError):
    """Raised for statistic descriptors outside the supported families."""


class IllPosedTransformError(ValueError):
    """Raised when a signed coefficient function has a non-positive transform."""


class ParseError(ValueError):
    """Raised for malformed input lines and sketch files."""


_M64 = (1 << 64) - 1
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN2 = 0xC2B2AE3D27D4EB4F

# Domain-separation salts: element draws, outkey derivation and sketch ranks
# must act like independent hash families.
_DRAW_SALT = 0xD1B54A32D192ED03
_OUTKEY_SALT = 0x8BB84B93962EACC9
_RANK_SALT = 0x2545F4914F6CDD1D

_NC1 = np.uint64(_C1)
_NC2 = np.uint64(_C2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TO_UNIT = 2.0**-53


def _mix64(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * _C1) & _M64
    z = ((z ^ (z >> 27)) * _C2) & _M64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _S30)) * _NC1
        z = (z ^ (z >> _S27)) * _NC2
        return z ^ (z >> _S31)


def _to_unit(h: int) -> float:
    # (0, 1) exclusive on both ends so log() is always finite.
    return ((h >> 11) + 0.5) * _TO_UNIT


def _to_unit_np(h: np.ndarray) -> np.ndarray:
    return ((h >> _S11).astype(np.float64) + 0.5) * _TO_UNIT


def hash_key(key: bytes) -> int:
    """Hash an opaque byte-string key to a 64-bit integer."""
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def hash_keys(keys: Iterable[bytes]) -> np.ndarray:
    """Vector form of :func:`hash_key`; returns a uint64 array."""
    return np.fromiter((hash_key(k) for k in keys), dtype=np.uint64)


def outkey_for(key64: int, i: int) -> int:
    """Derive the 64-bit outkey for replica ``i`` of a hashed key.

    Plays the role of a family of (nearly) injective functions indexed by the
    replica: distinct (key, i) pairs collide with probability ~2^-64.
    """
    return _mix64(key64 ^ _mix64((i + _OUTKEY_SALT) & _M64))


def outkey_block(key64s: np.ndarray, r: int) -> np.ndarray:
    """Outkeys for all replicas of all keys, shape (len(key64s), r)."""
    cols = _mix64_np((np.arange(r, dtype=np.uint64) + np.uint64(_OUTKEY_SALT)))
    return _mix64_np(key64s[:, None].astype(np.uint64) ^ cols[None, :])


def rank_uniform(outkey: int, seed: int) -> float:
    """Deterministic uniform in (0,1) attached to an outkey by a second hash."""
    return _to_unit(_mix64(outkey ^ _mix64((seed + _RANK_SALT) & _M64)))


def rank_uniforms(outkeys: np.ndarray, seed: int) -> np.ndarray:
    salt = np.uint64(_mix64((seed + _RANK_SALT) & _M64))
    return _to_unit_np(_mix64_np(outkeys.astype(np.uint64) ^ salt))


class RandomnessSource:
    """Counter-based uniform source keyed by (seed, element ordinal, replica).

    Identical triples always yield identical draws, across processes and
    platforms; distinct triples give independent-quality values. Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("seed", "_chain")

    def __init__(self, seed: int):
        self.seed = int(seed) & _M64
        self._chain = _mix64(self.seed ^ _DRAW_SALT)

    def uniform(self, ordinal: int, i: int) -> float:
        h = _mix64(self._chain ^ ((ordinal * _GOLDEN) & _M64))
        h = _mix64(h ^ ((i * _GOLDEN2) & _M64))
        return _to_unit(h)

    def uniform_block(self, ordinals: np.ndarray, r: int) -> np.ndarray:
        """Uniforms for every (ordinal, replica) pair, shape (len(ordinals), r).

        Bit-identical to calling :meth:`uniform` entry by entry.
        """
        with np.errstate(over="ignore"):
            rows = np.asarray(ordinals, dtype=np.uint64) * np.uint64(_GOLDEN)
            cols = np.arange(r, dtype=np.uint64) * np.uint64(_GOLDEN2)
            h = _mix64_np(np.uint64(self._chain) ^ rows)
            h = _mix64_np(h[:, None] ^ cols[None, :])
        return _to_unit_np(h)


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
class Element:
    """One input record: an opaque byte-string key and a positive value."""

    key: bytes
    value: float = 1.0

    def __post_init__(self):
        if not isinstance(self.key, bytes) or len(self.key) == 0:
            raise ElementValidationError(f"element key must be non-empty bytes, got {self.key!r}")
        v = float(self.value)
        if not (v > 0.0) or v != v or v == float("inf"):
            raise ElementValidationError(f"element value must be a positive finite number, got {self.value!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class FrequencyDistribution:
    """Histogram of per-key weights: weight -> number of keys with that weight."""

    entries: Mapping[float, int] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[float, int] = {}
        for w, c in self.entries.items():
            w = float(w)
            c = int(c)
            if not (w > 0.0) or w == float("inf") or w != w:
                raise ValueError(f"weights must be positive and finite, got {w}")
            if c < 1:
                raise ValueError(f"key counts must be >= 1, got {c}")
            clean[w] = clean.get(w, 0) + c
        object.__setattr__(self, "entries", clean)

    @property
    def distinct(self) -> int:
        """Number of distinct keys."""
        return sum(self.entries.values())

    @property
    def total(self) -> float:
        """Sum of all key weights."""
        return float(sum(Fraction(w) * c for w, c in self.entries.items()))

    @property
    def max_weight(self) -> float:
        return max(self.entries) if self.entries else 0.0

    @property
    def min_weight(self) -> float:
        return min(self.entries) if self.entries else 0.0

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(weights, counts) as numpy arrays, in ascending weight order."""
        ws = np.array(sorted(self.entries), dtype=np.float64)
        cs = np.array([self.entries[float(w)] for w in ws], dtype=np.float64)
        return ws, cs

    @classmethod
    def from_pairs(cls, weights: Iterable[float], counts: Iterable[int]) -> "FrequencyDistribution":
        return cls(dict(zip((float(w) for w in weights), (int(c) for c in counts))))


def aggregate(elements: Iterable[Element]) -> FrequencyDistribution:
    """Sum element values per key, then histogram the per-key weights.

    Per-key sums use exact rational arithmetic, so the result is identical for
    any permutation of the input.
    """
    sums: dict[bytes, Fraction] = {}
    for e in elements:
        if not isinstance(e, Element):
            e = Element(*e)
        sums[e.key] = sums.get(e.key, Fraction(0)) + Fraction(e.value)
    hist: dict[float, int] = {}
    for w in sums.values():
        wf = float(w)
        hist[wf] = hist.get(wf, 0) + 1
    return FrequencyDistribution(hist)
