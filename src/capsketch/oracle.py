"""Exact brute-force references: direct statistic evaluation over aggregated
weights, exact measurement of materialized output elements, and the synthetic
stream generator used by the benchmark harness."""

from __future__ import annotations

import numpy as np

from .core import FrequencyDistribution
from .transforms import StatisticSpec

__all__ = [
    "exact_statistic",
    "exact_measurement",
    "zipf_ranks",
    "aggregate_ranks",
]


def exact_statistic(dist: FrequencyDistribution, spec: StatisticSpec) -> float:
    """Sum over the weight histogram of count * f(weight)."""
    ws, cs = dist.arrays()
    if ws.size == 0:
        return 0.0
    return float(np.dot(cs, np.asarray(spec.evaluate(ws), dtype=np.float64)))


def exact_measurement(outputs: tuple[np.ndarray, np.ndarray], mode: str, t: float | None = None) -> float:
    """Exact output statistic over materialized output elements, given as an
    (outkeys, values) array pair.

    ``distinct`` counts distinct outkeys, ``max_distinct`` sums the per-outkey
    maximum value, ``threshold`` counts distinct outkeys having a value <= t.
    """
    keys, vals = np.asarray(outputs[0], dtype=np.uint64), np.asarray(outputs[1], dtype=np.float64)
    if keys.size == 0:
        return 0.0
    if mode == "distinct":
        return float(len(np.unique(keys)))
    if mode == "max_distinct":
        uk, inv = np.unique(keys, return_inverse=True)
        gm = np.full(len(uk), -np.inf)
        np.maximum.at(gm, inv, vals)
        return float(gm.sum())
    if mode == "threshold":
        if t is None:
            raise ValueError("threshold measurement requires t")
        return float(len(np.unique(keys[vals <= t])))
    raise ValueError(f"unknown measurement mode {mode!r}")


def zipf_ranks(n_elements: int, alpha: float, n_keys: int = 1_000_000, seed: int = 0) -> np.ndarray:
    """Element keys drawn with probability proportional to rank^-alpha.

    Sampling is with replacement over the ranks 1..n_keys by inverse CDF over
    the precomputed cumulative weights; the key universe size is a harness
    parameter, not a property of the estimators.
    """
    if not alpha > 0.0:
        raise ValueError(f"zipf exponent must be > 0, got {alpha}")
    if n_keys < 1:
        raise ValueError("key universe must be nonempty")
    probs = np.arange(1, n_keys + 1, dtype=np.float64) ** -alpha
    cum = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    u = rng.random(int(n_elements)) * cum[-1]
    return np.searchsorted(cum, u, side="right").astype(np.int64) + 1


def aggregate_ranks(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, FrequencyDistribution]:
    """Aggregate integer-keyed value-1 elements: (unique ranks, weights, histogram)."""
    unique, counts = np.unique(np.asarray(ranks, dtype=np.int64), return_counts=True)
    ws, cs = np.unique(counts, return_counts=True)
    dist = FrequencyDistribution.from_pairs(ws.astype(np.float64), cs)
    return unique, counts.astype(np.float64), dist
