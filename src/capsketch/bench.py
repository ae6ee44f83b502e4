"""Benchmark harness: point-measurement quality on synthetic Zipf streams,
the ``capsketch bench`` command.

Feeds aggregated per-key elements through the point mapper and sketch.
Aggregation first is distribution-preserving: the minimum of the independent
per-occurrence draws for a key is exponential with the key's total weight, so
mapping one element per (key, weight) pair yields output elements with the
same joint distribution as mapping the raw stream, at a fraction of the cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import _mix64, hash_keys
from .mappers import MapperConfig, point_outkeys_batch
from .oracle import aggregate_ranks, exact_statistic, zipf_ranks
from .sketches import DistinctCounter
from .transforms import StatisticSpec

__all__ = ["BenchRow", "point_benchmark", "write_csv"]


@dataclass(frozen=True)
class BenchRow:
    alpha: float
    T: float
    r: int
    k: int
    exact_value: float
    mean_est: float
    nrmse_measurement: float
    nrmse_approx: float


def _rep_seed(base: int, cell: int, rep: int) -> int:
    return _mix64((base ^ (cell * 0x9E3779B97F4A7C15)) + rep)


def _nrmse(estimates: np.ndarray, exact: float) -> float:
    return float(np.sqrt(np.mean((estimates - exact) ** 2)) / exact)


def point_benchmark(
    alphas: Sequence[float],
    n_elements: int,
    Ts: Sequence[float],
    rs: Sequence[int],
    k: int,
    reps: int,
    seed: int = 0,
    n_keys: int = 1_000_000,
) -> list[BenchRow]:
    """Soft-capping point measurements over Zipf streams.

    For each (alpha, T, r) cell: ``reps`` independent mappings of one fixed
    dataset, reporting the exact statistic, the mean sketch estimate, and the
    normalized RMS errors of the exact measurement (distinct outkeys / r) and
    of the approximate measurement (bottom-k estimate / r).
    """
    rows: list[BenchRow] = []
    cell = 0
    for alpha in alphas:
        ranks = zipf_ranks(n_elements, alpha, n_keys=n_keys, seed=_mix64(seed ^ int(round(alpha * 1000))))
        unique, weights, dist = aggregate_ranks(ranks)
        key64s = hash_keys(b"%d" % rank for rank in unique)
        ordinals = np.arange(len(unique), dtype=np.uint64)
        for T in Ts:
            exact = exact_statistic(dist, StatisticSpec("softcap", {"T": float(T)}))
            for r in rs:
                cell += 1
                meas = np.empty(reps)
                approx = np.empty(reps)
                for rep in range(reps):
                    s = _rep_seed(seed, cell, rep)
                    cfg = MapperConfig(r=int(r), t=1.0 / T, seed=s)
                    outkeys = point_outkeys_batch(key64s, weights, cfg, ordinals)
                    meas[rep] = T * len(outkeys) / r
                    counter = DistinctCounter(k, seed=s)
                    counter.update_batch(outkeys)
                    approx[rep] = T * counter.estimate() / r
                rows.append(
                    BenchRow(
                        alpha=float(alpha),
                        T=float(T),
                        r=int(r),
                        k=int(k),
                        exact_value=exact,
                        mean_est=float(approx.mean()),
                        nrmse_measurement=_nrmse(meas, exact),
                        nrmse_approx=_nrmse(approx, exact),
                    )
                )
    return rows


def write_csv(rows: Iterable[BenchRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "T", "r", "k", "exact_value", "mean_est", "NRMSE_measurement", "NRMSE_approx"])
        for row in rows:
            w.writerow(
                [row.alpha, row.T, row.r, row.k, f"{row.exact_value:.6g}", f"{row.mean_est:.6g}", f"{row.nrmse_measurement:.6g}", f"{row.nrmse_approx:.6g}"]
            )
