import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from capsketch import (
    Element,
    MapperConfig,
    RandomnessSource,
    StatisticSpec,
    choose_replication,
    hash_key,
    inverse_transform,
    laplace_c,
)
from capsketch import mappers
from capsketch.core import _to_unit_np
from capsketch.mappers import _draws, _exp_draws, _hash_floor, _run_minima, full_range_batch, point_outkeys_batch
from capsketch.oracle import aggregate_ranks, exact_measurement
from reference import combination_batch, map_combination, map_full_range, map_point


def test_map_point_extremes():
    e = Element(b"x", 2.0)
    cfg_inf = MapperConfig(r=7, t=math.inf, seed=1)
    assert len(map_point(e, cfg_inf)) == 7
    cfg_zero = MapperConfig(r=7, t=0.0, seed=1)
    assert map_point(e, cfg_zero) == []


def test_map_point_emission_rate():
    # one element, many replicas: each fires with probability 1 - exp(-value*t)
    cfg = MapperConfig(r=100_000, t=1.0, seed=5)
    k64 = np.array([hash_key(b"x")], dtype=np.uint64)
    outkeys = point_outkeys_batch(k64, np.array([1.0]), cfg, np.array([0], dtype=np.uint64))
    frac = len(outkeys) / cfg.r
    assert abs(frac - (1 - 1 / math.e)) < 0.005


def test_point_batch_matches_scalar():
    cfg = MapperConfig(r=6, t=0.8, seed=9)
    els = [Element(b"k%d" % i, 0.5 + 0.3 * i) for i in range(25)]
    scalar = set()
    for i, e in enumerate(els):
        scalar.update(o.outkey for o in map_point(e, cfg, ordinal=i))
    k64 = np.array([hash_key(e.key) for e in els], dtype=np.uint64)
    vals = np.array([e.value for e in els])
    batch = point_outkeys_batch(k64, vals, cfg, np.arange(25, dtype=np.uint64))
    assert {int(x) for x in batch} == scalar


def test_point_fired_count_is_binomial():
    # replicas fire independently, so |output| is Binomial(r, p); compare
    # empirically with a two-sample chi-square
    value, t, r, trials = 2.0, 0.5, 20, 100_000
    cfg = MapperConfig(r=r, t=t, seed=31)
    u = cfg.source().uniform_block(np.arange(trials, dtype=np.uint64), r)
    sizes_direct = (-np.log(u) / value <= t).sum(axis=1)
    gen = np.random.default_rng(77)
    sizes_binomial = gen.binomial(r, -math.expm1(-value * t), size=trials)
    bins = np.arange(r + 2)
    h1 = np.histogram(sizes_direct, bins=bins)[0]
    h2 = np.histogram(sizes_binomial, bins=bins)[0]
    keep = (h1 + h2) >= 10
    res = stats.chi2_contingency(np.stack([h1[keep], h2[keep]]))
    assert res.pvalue > 1e-3


def test_map_combination_soft_cap_reduces_to_point():
    # soft-cap coefficient: delta of mass T at 1/T; with shared draws the
    # emitted outkeys equal the point mapping at t=1/T and values equal T
    T = 3.0
    a = inverse_transform(StatisticSpec("softcap", {"T": T}))
    cfg_c = MapperConfig(r=20, seed=4)
    cfg_p = MapperConfig(r=20, t=1.0 / T, seed=4)
    e = Element(b"y", 1.7)
    combo = map_combination(e, cfg_c, a, tau=0.0, ordinal=2)
    point = map_point(e, cfg_p, ordinal=2)
    assert [o.outkey for o in combo] == [o.outkey for o in point]
    assert all(o.value == T for o in combo)


def test_map_combination_values_and_cutoff():
    a = inverse_transform("sqrt")
    cfg = MapperConfig(r=50, seed=8)
    e = Element(b"z", 0.9)
    outs = map_combination(e, cfg, a, tau=0.0, ordinal=0)
    assert len(outs) == 50  # sqrt tail is positive everywhere
    draws = {o.outkey: o.value for o in map_full_range(e, cfg, ordinal=0)}
    for o in outs:
        assert o.value == pytest.approx(float(a.tail(draws[o.outkey])), rel=1e-12)
    # a large cutoff clamps every emitted value to tail(tau)
    outs_tau = map_combination(e, cfg, a, tau=100.0, ordinal=0)
    assert all(o.value == float(a.tail(100.0)) for o in outs_tau)


def test_map_full_range_basics():
    cfg = MapperConfig(r=9, seed=6)
    e = Element(b"w", 2.5)
    outs = map_full_range(e, cfg, ordinal=1)
    assert len(outs) == 9
    assert all(o.value > 0 for o in outs)
    # thresholding recovers the point mapping with shared draws
    for t in [0.05, 0.4, 2.0]:
        point = {o.outkey for o in map_point(e, MapperConfig(r=9, t=t, seed=6), ordinal=1)}
        assert {o.outkey for o in outs if o.value <= t} == point


def test_full_range_min_draw_distribution():
    # minimum draw over elements sharing a key is exponential in the total weight
    values = [0.5, 1.0, 1.5]
    total = sum(values)
    mins = np.empty(10_000)
    for trial in range(10_000):
        cfg = MapperConfig(r=1, seed=trial)
        ys = [map_full_range(Element(b"same", v), cfg, ordinal=j)[0].value for j, v in enumerate(values)]
        mins[trial] = min(ys)
    res = stats.kstest(mins, "expon", args=(0.0, 1.0 / total))
    assert res.pvalue > 1e-3


def test_point_monotone_in_threshold():
    e = Element(b"m", 1.1)
    prev: set = set()
    for t in [0.01, 0.1, 0.5, 2.0, 10.0]:
        cur = {o.outkey for o in map_point(e, MapperConfig(r=40, t=t, seed=3), ordinal=5)}
        assert prev <= cur
        prev = cur


def test_point_unbiasedness_and_chernoff(toy_dist, toy_elements):
    t, r, seeds = 1.0, 4, 2000
    target = laplace_c(toy_dist, t)
    k64 = np.array([hash_key(e.key) for e in toy_elements], dtype=np.uint64)
    vals = np.array([e.value for e in toy_elements])
    ords = np.arange(len(toy_elements), dtype=np.uint64)
    ms = np.empty(seeds)
    for s in range(seeds):
        cfg = MapperConfig(r=r, t=t, seed=s)
        ms[s] = len(point_outkeys_batch(k64, vals, cfg, ords)) / r
    se = ms.std(ddof=1) / math.sqrt(seeds)
    assert abs(ms.mean() - target) < 4 * se
    # concentration: deviations of half the mean are rarer than the
    # exponential bound 2 exp(-r d^2 L / 3)
    delta = 0.5
    bound = 2 * math.exp(-r * delta**2 * target / 3)
    freq = np.mean(np.abs(ms - target) / target >= delta)
    assert freq <= bound


def test_combination_coupling_with_threshold_counts():
    # for a discrete coefficient, the max-distinct statistic equals the
    # mass-weighted threshold counts under shared draws
    a = inverse_transform(StatisticSpec("softcap", {"T": 2.0}))  # delta at 0.5
    a2 = a
    rng = np.random.default_rng(2)
    ranks = rng.integers(1, 40, 300)
    unique, weights, _ = aggregate_ranks(ranks)
    k64 = np.array([hash_key(b"%d" % u) for u in unique], dtype=np.uint64)
    ords = np.arange(len(unique), dtype=np.uint64)
    cfg = MapperConfig(r=5, seed=21)
    okc, vc = combination_batch(k64, weights, cfg, ords, a2, tau=0.0)
    md = exact_measurement((okc, vc), "max_distinct")
    okf, yf = full_range_batch(k64, weights, cfg, ords)
    expected = sum(mass * exact_measurement((okf, yf), "threshold", t=loc) for loc, mass in a2.deltas)
    assert md == pytest.approx(expected, rel=1e-12)


def test_choose_replication():
    assert choose_replication(0.1) == math.ceil(math.e / (math.e - 1) * 0.1**-2.5)
    assert choose_replication(0.1) == 501
    assert choose_replication(0.1, max_over_sum=0.1**2.5) == 1
    assert choose_replication(0.1, max_over_sum=1e-3) == 1
    assert 1 <= choose_replication(0.1, max_over_sum=0.5) <= 501
    with pytest.raises(ValueError):
        choose_replication(0.0)
    with pytest.raises(ValueError):
        choose_replication(0.1, max_over_sum=1.5)


def test_mapper_config_validation():
    with pytest.raises(ValueError):
        MapperConfig(r=0)
    with pytest.raises(ValueError):
        MapperConfig(r=1, t=-1.0)
    with pytest.raises(ValueError):
        combination_batch(np.zeros(1, dtype=np.uint64), np.ones(1), MapperConfig(r=1), np.zeros(1, dtype=np.uint64), inverse_transform("sqrt"), tau=-0.1)
    with pytest.raises(ValueError):
        map_point(Element(b"x", 1.0), MapperConfig(r=1, seed=0))  # missing t
    with pytest.raises(ValueError):
        map_combination(Element(b"x", 1.0), MapperConfig(r=1, seed=0))  # missing a


@st.composite
def runs_of_rows(draw):
    """(r, rows, run starts): rows of one row each, a few long runs, or any."""
    r = draw(st.integers(1, 600))
    n = draw(st.integers(1, max(1, 40_000 // r)))
    shape = draw(st.sampled_from(["one row each", "few long", "any"]))
    if shape == "one row each":
        return r, n, list(range(n))
    cuts = draw(st.sets(st.integers(1, max(1, n - 1)), max_size=3 if shape == "few long" else 200))
    return r, n, sorted({0} | {c for c in cuts if c < n})


def _values(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed % 2**32)
    if kind == "wide":  # log-uniform over 1e-6 to 1e6
        return 10.0 ** rng.uniform(-6.0, 6.0, n)
    vals = rng.uniform(0.1, 5.0, n)
    if kind == "tiny":  # below _MIN_SAFE_VALUE, yet no draw overflows
        vals[::7] = 5e-301
    return vals


def _edge_cut(rows: int, n: int, into: int) -> list[int]:
    """Run starts that put every chunk edge ``into`` rows inside a run."""
    return [0, *range(rows + into, n, rows)]


@settings(max_examples=120, deadline=None)
@given(
    case=runs_of_rows(),
    chunk_cells=st.sampled_from([1, 61, 4096, 1 << 16]),
    seed=st.integers(0, 2**64 - 1),
    kind=st.sampled_from(["uniform", "wide", "tiny"]),
)
@example(case=(501, 300, [0]), chunk_cells=1 << 16, seed=1, kind="uniform")  # one run over three chunks, run by run
@example(case=(600, 109, [0, 50, 51, 52, 100]), chunk_cells=1 << 16, seed=2, kind="uniform")  # a few runs in one chunk
@example(case=(64, 1025, [0, 500, 1023]), chunk_cells=1 << 16, seed=3, kind="uniform")  # the narrowest rows reduced run by run
@example(case=(7, 9400, [0, 4000]), chunk_cells=1 << 16, seed=4, kind="uniform")  # long runs of narrow rows: reduceat
@example(case=(501, 131, list(range(131))), chunk_cells=1 << 16, seed=5, kind="uniform")  # one row each: no reduction
@example(case=(501, 400, [0]), chunk_cells=1 << 16, seed=6, kind="wide")  # pruned chunks, values 1e-6 to 1e6
@example(case=(501, 200, [0, 131]), chunk_cells=1 << 16, seed=7, kind="uniform")  # a continuing chunk of one row
@example(case=(501, 400, [0, 300]), chunk_cells=1 << 16, seed=8, kind="tiny")  # continuing rows drawn in full
@example(case=(7, 400, _edge_cut(8, 400, 3)), chunk_cells=61, seed=9, kind="wide")  # a run cut at every chunk edge
@example(case=(501, 100, _edge_cut(8, 100, 1)), chunk_cells=4096, seed=10, kind="wide")  # ...continuing for one row
@example(case=(50, 2000, _edge_cut(81, 2000, 40)), chunk_cells=4096, seed=11, kind="uniform")  # ...at r=50
def test_run_minima_equals_each_runs_minimum(case, chunk_cells, seed, kind):
    """Every reduction route, with and without pruning, gives each run's
    smallest draw per replica, bit for bit, also for runs cut by chunk edges."""
    r, n, starts = case
    src = RandomnessSource(seed)
    ords = np.arange(n, dtype=np.uint64) + np.uint64(seed % 2**40)
    vals = _values(kind, n, seed)
    starts = np.array(starts, dtype=np.intp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mappers, "_CHUNK_CELLS", chunk_cells)
        got = _run_minima(src, ords, vals, starts, r)
    y = _draws(src, ords, vals, r)
    want = np.stack([y[a:b].min(axis=0) for a, b in zip(starts, np.append(starts[1:], n))])
    assert got.tobytes() == want.tobytes()


def _skipped(src, mins, ords, vals):
    """The cells the skip rule leaves undrawn, after checking that each one's
    draw, as drawing every cell computes it, is at least its replica's minimum."""
    skipped = src.hash_block(ords, len(mins)) < _hash_floor(mins, vals.max())
    assert (_draws(src, ords, vals, len(mins)) >= mins)[skipped].all()
    return skipped


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_skip_rule_at_its_edges(seed):
    r, src, rng = 501, RandomnessSource(seed), np.random.default_rng(seed)
    ords = np.arange(400, dtype=np.uint64) + np.uint64(1000 * seed)
    early, late = ords[:100], ords[100:]
    # values from 1e-6 to 1e6 (vmax/vmin = 1e12), minima from the first rows
    wide = 10.0 ** rng.uniform(-6.0, 6.0, 400)
    wide[[100, 101]] = 1e-6, 1e6
    assert _skipped(src, _draws(src, early, wide[:100], r).min(axis=0), late, wide[100:]).mean() > 0.5
    # subnormal minima, from values near the largest float
    huge = rng.uniform(1e307, np.finfo(float).max, 400)
    mins = _draws(src, early, huge[:100], r).min(axis=0)
    assert (mins < np.finfo(float).tiny).all()
    assert _skipped(src, mins, late, huge[100:]).mean() > 0.5
    # subnormal B*vmax: nearly every cell is skipped
    assert _skipped(src, np.full(r, 1e-315), late, np.ones(300)).mean() > 0.99
    # B*vmax overflows: no cell is skipped
    assert not _skipped(src, np.full(r, 1e10), late, np.full(300, 1e300)).any()


def test_largest_skipped_words_draw_at_least_the_minimum():
    # for minima and largest values over the whole float range, the hash
    # words just below the floor, whose draws at vmax are the smallest any
    # skipped cell can have, still draw at least the minimum
    rng = np.random.default_rng(0)
    mins = 10.0 ** rng.uniform(-323.0, 300.0, 200_000)
    vmax = 10.0 ** rng.uniform(-300.0, 308.0, 200_000)
    words = _hash_floor(mins, vmax) >> np.uint64(11)
    for below in (1, 2, 1000):
        some = words >= below
        skipped = ((words[some] - np.uint64(below)) << np.uint64(11)) | np.uint64(2047)
        assert (_exp_draws(_to_unit_np(skipped), vmax[some]) >= mins[some]).all()
