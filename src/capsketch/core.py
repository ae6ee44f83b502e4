"""Element model, aggregation, and the hashing/randomness primitives shared by
mappers and sketches.

Everything here is deterministic given explicit seeds: random draws are
counter-based (keyed by seed, element ordinal and replica index), never pulled
from a shared mutable generator, so runs are reproducible. Shards that reuse
ordinals share their draws, so their merge is biased (and not yet refused):
give shards partition-consistent ordinals. Each primitive has one form, over
numpy arrays; the element-at-a-time definitions they are checked against live
with the tests.
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
    "MIN_EPSILON",
    "Element",
    "FrequencyDistribution",
    "aggregate",
    "RandomnessSource",
    "hash_key",
    "hash_keys",
    "outkey_block",
    "rank_uniforms",
    "base_ranks",
]


class ElementValidationError(ValueError):
    """Raised for elements with empty keys or non-positive/non-finite values,
    and for elements past the last ordinal below 2**64."""


class IncompatibleSketchError(ValueError):
    """Raised when merging sketches built with different k, seed or type."""


class UnsupportedStatisticError(ValueError):
    """Raised for statistic descriptors outside the supported families."""


class IllPosedTransformError(ValueError):
    """Raised when a signed coefficient function has a non-positive transform."""


class ParseError(ValueError):
    """Raised for malformed input lines and sketch files."""


# The smallest error target epsilon accepted anywhere: below it a size derived
# from epsilon (3/epsilon^2 outputs, epsilon^-2.5 replicas) overflows a float.
MIN_EPSILON = 1e-120

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
_UNIT_MAX = 1.0 - 2.0**-53  # the largest float below 1


def _mix64(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * _C1) & _M64
    z = ((z ^ (z >> 27)) * _C2) & _M64
    return z ^ (z >> 31)


def _xorshift(z: np.ndarray, shift: np.uint64, t: np.ndarray | None = None) -> np.ndarray:
    """``z ^= z >> shift`` in place, through the scratch array ``t``."""
    z ^= np.right_shift(z, shift, out=t)
    return z


def _mix64_np(z: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """:func:`_mix64` of every entry of ``z`` or, given ``w``, of ``z ^ w``
    broadcast. Mixes in place, in uint64 arrays the caller owns (``z`` and
    ``w``, then the block they span), with one scratch array.

    A xorshift distributes over XOR, so ``z`` and ``w`` take the first one
    apart: for a column and a row, that is two passes fewer over the block.
    """
    if w is None:
        t = np.empty_like(z)
        _xorshift(z, _S30, t)
    else:
        z = _xorshift(z, _S30) ^ _xorshift(w, _S30)
        t = np.empty_like(z)
    with np.errstate(over="ignore"):
        z *= _NC1
        _xorshift(z, _S27, t)
        z *= _NC2
    return _xorshift(z, _S31, t)


def _to_unit_np(h: np.ndarray) -> np.ndarray:
    """Uniforms (x + 0.5) * 2**-53 from the top 53 bits x of ``h``, in (0, 1)
    so log() is always finite and nonzero; shifts ``h`` in place. For
    x = 2**53 - 1 that product rounds to 1.0, so it is clamped to _UNIT_MAX."""
    h >>= _S11
    # below 2**53 the signed conversion is exact, and faster than the unsigned
    u = h.view(np.int64).astype(np.float64)
    u += 0.5
    u *= _TO_UNIT
    return np.minimum(u, _UNIT_MAX, out=u)


def hash_key(key: bytes) -> int:
    """Hash an opaque byte-string key to a 64-bit integer."""
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


_B8 = hashlib.blake2b(digest_size=8)  # never updated: hash_keys updates copies of it


def hash_keys(keys: Iterable[bytes]) -> np.ndarray:
    """Vector form of :func:`hash_key`; returns a uint64 array. Copying one
    prepared blake2b state per key gives the digest of a new hasher at about
    two thirds of its cost."""
    digests = b"".join([(h := _B8.copy()).update(k) or h.digest() for k in keys])  # update returns None
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64)


def outkey_block(key64s: np.ndarray, r: int) -> np.ndarray:
    """Outkeys for all replicas of all keys, shape (len(key64s), r).

    Plays the role of a family of (nearly) injective functions indexed by the
    replica: distinct (key, replica) pairs collide with probability ~2^-64.
    """
    cols = _mix64_np(np.arange(r, dtype=np.uint64) + np.uint64(_OUTKEY_SALT))
    return _mix64_np(key64s[:, None].astype(np.uint64), cols)


def rank_uniforms(outkeys: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic uniforms in (0, 1) attached to outkeys by a second hash,
    from :func:`_to_unit_np`: at most 1 - 2**-53, so every rank is positive."""
    salt = np.uint64(_mix64((seed + _RANK_SALT) & _M64))
    return _to_unit_np(_mix64_np(outkeys.astype(np.uint64) ^ salt))


def base_ranks(outkeys: np.ndarray, seed: int) -> np.ndarray:
    """Exponential sketch ranks -ln(u) of outkeys, u from :func:`rank_uniforms`;
    each is positive and finite."""
    u = rank_uniforms(outkeys, seed)
    np.log(u, out=u)
    return np.negative(u, out=u)


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

    def uniform_block(self, ordinals: np.ndarray, r: int | np.ndarray) -> np.ndarray:
        """Uniforms in (0, 1) for every (ordinal, replica) pair, shape
        (len(ordinals), r), from :func:`_to_unit_np`: at most 1 - 2**-53, so
        -ln(u) is positive.

        Entry (j, i) depends only on the seed, ``ordinals[j]`` and ``i``, so
        any split of the ordinals into blocks yields the same bits. When
        ``r`` is an array of replica indices instead of a count, it is
        broadcast against ``ordinals``, and each entry is the uniform of the
        (ordinal, replica) pair at its position, with the same bits.
        """
        return _to_unit_np(self.hash_block(ordinals, r))

    def hash_block(self, ordinals: np.ndarray, r: int | np.ndarray) -> np.ndarray:
        """The 64-bit words whose top 53 bits :meth:`uniform_block` turns
        into its uniforms, with its arguments and shape."""
        rows = np.asarray(ordinals, dtype=np.uint64)
        if np.ndim(r) == 0:
            rows, r = rows[:, None], np.arange(r, dtype=np.uint64)
        with np.errstate(over="ignore"):
            # products are fresh arrays, so the hashes below mix in place
            rows = rows * np.uint64(_GOLDEN)
            rows ^= np.uint64(self._chain)
            cols = np.asarray(r, dtype=np.uint64) * np.uint64(_GOLDEN2)
        return _mix64_np(_mix64_np(rows), cols)


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
