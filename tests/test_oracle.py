import math

import numpy as np
import pytest

from capsketch import (
    Element,
    MapperConfig,
    MaxDistinctSketch,
    StatisticSpec,
    aggregate,
)
from capsketch.oracle import (
    aggregate_ranks,
    exact_measurement,
    exact_statistic,
    zipf_ranks,
)
from capsketch.transforms import capping_transform
from reference import map_point


def test_exact_statistic_toy(toy_dist):
    assert exact_statistic(toy_dist, StatisticSpec("distinct")) == 13.0
    assert exact_statistic(toy_dist, StatisticSpec("sum")) == 30.0
    assert exact_statistic(toy_dist, StatisticSpec("cap", {"T": 5.0})) == 25.0
    expected_sqrt = 10 * 1 + 2 * math.sqrt(5) + math.sqrt(10)
    assert exact_statistic(toy_dist, StatisticSpec("sqrt")) == pytest.approx(expected_sqrt, rel=1e-12)


def test_exact_statistic_matches_capping_reconstruction(toy_dist):
    # hard capping evaluated directly equals the one-delta decomposition
    for T in [0.5, 2.0, 5.0, 40.0]:
        spec = StatisticSpec("cap", {"T": T})
        ct = capping_transform(spec)
        ws, cs = toy_dist.arrays()
        recon = float(np.dot(cs, ct.reconstruct(ws)))
        assert exact_statistic(toy_dist, spec) == pytest.approx(recon, rel=1e-9)


def test_exact_measurement_modes():
    outs = (np.array([1, 1, 2], dtype=np.uint64), np.array([2.0, 5.0, 1.0]))
    assert exact_measurement(outs, "max_distinct") == 6.0
    assert exact_measurement(outs, "distinct") == 2.0
    assert exact_measurement(outs, "threshold", t=math.inf) == exact_measurement(outs, "distinct")
    assert exact_measurement(outs, "threshold", t=1.5) == 1.0  # only okey 2 has a value <= 1.5
    assert exact_measurement((np.empty(0, dtype=np.uint64), np.empty(0)), "distinct") == 0.0
    with pytest.raises(ValueError):
        exact_measurement(outs, "threshold")
    with pytest.raises(ValueError):
        exact_measurement(outs, "nope")


def test_exact_measurement_two_ways():
    # hash-set count versus sort-unique count on a real mapping
    els = [Element(b"k%d" % (i % 17), 1.0 + (i % 3)) for i in range(60)]
    cfg = MapperConfig(r=4, t=0.9, seed=2)
    outs = []
    for i, e in enumerate(els):
        outs.extend(map_point(e, cfg, ordinal=i))
    okeys = np.array([o.outkey for o in outs], dtype=np.uint64)
    via_set = float(len({o.outkey for o in outs}))
    keys = np.sort(okeys)
    via_sort = float(1 + int(np.sum(np.diff(keys) != 0))) if len(keys) else 0.0
    assert exact_measurement((okeys, np.zeros(len(okeys))), "distinct") == via_set == via_sort


def test_sub_k_sketch_agrees_with_exact_measurement():
    rng = np.random.default_rng(5)
    okeys = rng.integers(0, 1000, 5000).astype(np.uint64)
    vals = rng.uniform(0.5, 3.0, 5000)
    md = MaxDistinctSketch(k=10_000, seed=1)
    md.update_batch(okeys, vals)
    assert md.estimate() == pytest.approx(exact_measurement((okeys, vals), "max_distinct"), rel=1e-12)


def test_zipf_determinism_and_extremes():
    a = zipf_ranks(1000, 1.5, n_keys=10_000, seed=3)
    b = zipf_ranks(1000, 1.5, n_keys=10_000, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, zipf_ranks(1000, 1.5, n_keys=10_000, seed=4))
    # extreme skew concentrates everything on the top rank
    skewed = zipf_ranks(1000, 50.0, n_keys=100, seed=0)
    assert np.all(skewed == 1)
    with pytest.raises(ValueError):
        zipf_ranks(10, 0.0)


def test_zipf_top_rank_frequency():
    n, alpha, n_keys = 100_000, 1.5, 1_000_000
    ranks = zipf_ranks(n, alpha, n_keys=n_keys, seed=9)
    p1 = 1.0 / np.sum(np.arange(1, n_keys + 1, dtype=np.float64) ** -alpha)
    top = np.sum(ranks == 1)
    sigma = math.sqrt(n * p1 * (1 - p1))
    assert abs(top - n * p1) < 3 * sigma


def test_zipf_generate_elements():
    els = [Element(b"%d" % r, 1.0) for r in zipf_ranks(50, 1.2, n_keys=100, seed=7)]
    assert len(els) == 50
    assert all(e.value == 1.0 for e in els)
    dist = aggregate(els)
    assert dist.total == 50.0


def test_aggregate_ranks_matches_aggregate():
    ranks = zipf_ranks(5000, 1.3, n_keys=10_000, seed=2)
    unique, weights, dist = aggregate_ranks(ranks)
    slow = aggregate(Element(b"%d" % r, 1.0) for r in ranks)
    assert dist.entries == slow.entries
    assert len(unique) == dist.distinct
    assert weights.sum() == 5000
