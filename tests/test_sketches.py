import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsketch import (
    AllThresholdSketch,
    CombinationPipeline,
    DistinctCounter,
    IncompatibleSketchError,
    MaxDistinctSketch,
    ParseError,
    SumCounter,
    sketches,
)
from capsketch.core import base_ranks
from capsketch.sketchfile import ENTRY, OUTKEY, pack, records, unpack
from capsketch.transforms import inverse_transform, parse_statistic
from reference import base_rank as _base_rank
from reference import bottom_k_of_maxima, prefix_bottom_k, sketch_blob, threshold_profile


def test_distinct_exact_mode():
    dc = DistinctCounter(k=100, seed=0)
    for i in range(5):
        dc.update(i)
        dc.update(i)  # duplicates ignored
    assert dc.estimate() == 5.0


def test_distinct_merge_bit_exact():
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 500, 2000).astype(np.uint64)
    whole = DistinctCounter(k=64, seed=3)
    whole.update_batch(keys)
    a = DistinctCounter(k=64, seed=3)
    b = DistinctCounter(k=64, seed=3)
    a.update_batch(keys[:700])
    b.update_batch(keys[700:])
    merged = a.merge(b)
    assert merged.to_bytes() == whole.to_bytes()
    assert merged.estimate() == whole.estimate()


def test_distinct_estimator_accuracy():
    n, k, trials = 10_000, 100, 200
    ests = np.empty(trials)
    for s in range(trials):
        dc = DistinctCounter(k=k, seed=s)
        dc.update_batch(np.arange(n, dtype=np.uint64) + np.uint64(s * n))
        ests[s] = dc.estimate()
    se = ests.std(ddof=1) / math.sqrt(trials)
    assert abs(ests.mean() - n) < 3 * se
    assert ests.std(ddof=1) < 1.5 * n / math.sqrt(k - 2)


def test_max_distinct_exact_mode():
    md = MaxDistinctSketch(k=10, seed=0)
    md.update(1, 3.0)
    md.update(1, 7.0)
    md.update(2, 2.0)
    assert md.estimate() == 9.0


def test_max_distinct_all_ones_reduces_to_distinct():
    keys = np.arange(50, dtype=np.uint64)
    md = MaxDistinctSketch(k=100, seed=5)
    md.update_batch(keys, np.ones(50))
    dc = DistinctCounter(k=100, seed=5)
    dc.update_batch(keys)
    assert md.estimate() == dc.estimate() == 50.0
    # at saturation the two estimators agree to a few percent
    keys = np.arange(5000, dtype=np.uint64)
    md = MaxDistinctSketch(k=100, seed=5)
    md.update_batch(keys, np.ones(5000))
    dc = DistinctCounter(k=100, seed=5)
    dc.update_batch(keys)
    assert md.estimate() == pytest.approx(dc.estimate(), rel=0.05)


def test_max_distinct_accuracy():
    n, k, trials = 10_000, 100, 200
    rng = np.random.default_rng(0)
    vals = rng.uniform(1, 2, n)
    truth = vals.sum()
    ests = np.empty(trials)
    for s in range(trials):
        md = MaxDistinctSketch(k=k, seed=s)
        md.update_batch(np.arange(n, dtype=np.uint64), vals)
        ests[s] = md.estimate()
    sigma = truth / math.sqrt(k - 2)
    assert abs(ests.mean() - truth) < 3 * sigma / math.sqrt(trials)


def test_max_distinct_monotone_in_value():
    md = MaxDistinctSketch(k=4, seed=2)
    for i in range(30):
        md.update(i, 1.0 + (i % 3))
    before = md.estimate()
    md.update(7, 50.0)
    assert md.estimate() >= before
    with pytest.raises(ValueError):
        md.update(1, 0.0)


def test_max_distinct_reentry_after_eviction():
    # a key evicted at a small value must re-enter when its value grows
    md = MaxDistinctSketch(k=3, seed=11)
    ranks = {o: _base_rank(o, 11) for o in range(10)}
    md.update(9, 0.001)  # huge rank, will be evicted once 3 better keys exist
    for o in range(3):
        md.update(o, 10.0)
    assert 9 not in md._entries
    md.update(9, 1e6)  # now its rank is tiny
    assert 9 in md._entries
    # content equals the bottom-k of the final value map
    final = {o: 10.0 for o in range(3)}
    final[9] = 1e6
    expect = sorted(((ranks[o] / m, o) for o, m in final.items()))[:3]
    assert set(md._entries) == {o for _, o in expect}


def test_all_threshold_staircase():
    # 100 keys at draw 1, 10k keys at draw 2; with k=100 the t=1 estimate
    # averages 100 and t=2 averages 10100 (its CV is about 1/sqrt(k-2))
    k, trials = 100, 300
    est1 = np.empty(trials)
    est2 = np.empty(trials)
    for s in range(trials):
        at = AllThresholdSketch(k=k, seed=s)
        keys = np.arange(10_100, dtype=np.uint64)
        ys = np.where(keys < 100, 1.0, 2.0)
        at.update_batch(keys, ys)
        assert at.estimate_at(0.5) == 0.0
        est1[s] = at.estimate_at(1.0)
        est2[s] = at.estimate_at(2.0)
    se1 = est1.std(ddof=1) / math.sqrt(trials)
    assert abs(est1.mean() - 100.0) < 4 * max(se1, 1e-9)
    se2 = est2.std(ddof=1) / math.sqrt(trials)
    assert abs(est2.mean() - 10_100.0) < 4 * se2


def test_distinct_counter_and_profile_share_the_kth_estimate():
    # the same outkeys in a distinct counter and, at y = 0, in an all-threshold
    # sketch give the same bits: both estimate (k-1)/(1 - e^-kth) one way
    rng = np.random.default_rng(14)
    for _ in range(2000):
        k = int(rng.integers(1, 40))
        okeys = rng.integers(0, 2**63, int(rng.integers(1, 4 * k + 2))).astype(np.uint64)
        seed = int(rng.integers(0, 2**32))
        dc, at = DistinctCounter(k, seed), AllThresholdSketch(k, seed)
        dc.update_batch(okeys)
        at.update_batch(okeys, np.zeros(len(okeys)))
        assert dc.estimate() == at.estimate_at(0.0), (k, seed)


def test_all_threshold_matches_brute_force():
    # independent re-implementation of the retention rule and estimator
    def brute(entries, k, seed, t):
        sel = [(y, o) for o, y in entries.items() if y <= t]
        if len(sel) < k:
            return float(len(sel))
        ranks = sorted(_base_rank(o, seed) for _, o in sel)
        return (k - 1) / -math.expm1(-ranks[k - 1])

    rng = np.random.default_rng(4)
    k, seed = 8, 3
    at = AllThresholdSketch(k=k, seed=seed)
    full: dict[int, float] = {}
    for _ in range(600):
        o = int(rng.integers(0, 150))
        y = float(rng.exponential())
        at.update(o, y)
        if full.get(o, math.inf) > y:
            full[o] = y
    for t in np.linspace(0.0, 6.0, 80):
        assert at.estimate_at(float(t)) == brute(full, k, seed, float(t))
    # expected size stays near k log(n/k)
    assert len(at) <= 12 * k


def test_all_threshold_monotone_and_limits():
    rng = np.random.default_rng(9)
    at = AllThresholdSketch(k=16, seed=7)
    keys = rng.integers(0, 4000, 20_000).astype(np.uint64)
    ys = rng.exponential(size=20_000)
    at.update_batch(keys, ys)
    ts = np.linspace(0.0, ys.max() * 1.1, 500)
    ests = at.estimate_all(ts)
    assert np.all(np.diff(ests) >= -1e-9)
    assert at.estimate_at(0.0) == 0.0
    # far above every draw the answer equals a plain distinct counter
    dc = DistinctCounter(k=16, seed=7)
    dc.update_batch(keys)
    assert at.estimate_at(math.inf) == dc.estimate()


def test_all_threshold_queries_between_updates_see_every_update():
    # the profile is built on the first query after a change, so a query
    # between updates must not leave a stale one behind
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 500, 3000).astype(np.uint64)
    ys = rng.exponential(size=3000)
    ts = np.linspace(0.0, 4.0, 50)
    live = AllThresholdSketch(k=8, seed=2)
    for hi in range(600, 3001, 600):
        live.update_batch(keys[hi - 600 : hi], ys[hi - 600 : hi])
        fresh = AllThresholdSketch(k=8, seed=2)
        fresh.update_batch(keys[:hi], ys[:hi])
        assert live.estimate_all(ts).tolist() == fresh.estimate_all(ts).tolist()
        assert live.breakpoints().tolist() == fresh.breakpoints().tolist()


def test_all_threshold_merge_bit_exact():
    rng = np.random.default_rng(12)
    keys = rng.integers(0, 900, 5000).astype(np.uint64)
    ys = rng.exponential(size=5000)
    whole = AllThresholdSketch(k=20, seed=1)
    whole.update_batch(keys, ys)
    a = AllThresholdSketch(k=20, seed=1)
    b = AllThresholdSketch(k=20, seed=1)
    a.update_batch(keys[:2200], ys[:2200])
    b.update_batch(keys[2200:], ys[2200:])
    assert a.merge(b).to_bytes() == whole.to_bytes()


def test_sum_counter(toy_elements):
    sc = SumCounter()
    for e in toy_elements:
        sc.update(e.value)
    assert sc.value() == 30.0
    assert SumCounter().value() == 0.0
    a, b = SumCounter(), SumCounter()
    a.update(12.0)
    b.update(18.0)
    assert a.merge(b).value() == 30.0
    with pytest.raises(ValueError):
        sc.update(0.0)
    with pytest.raises(ValueError):
        sc.update(float("inf"))


def test_sum_counter_exact_and_partition_independent():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.001, 7.0, 501)
    whole = SumCounter()
    whole.update_batch(vals)
    scalar = SumCounter()
    for v in vals:
        scalar.update(float(v))
    assert whole.exact() == scalar.exact()
    assert whole.to_bytes() == scalar.to_bytes()
    parts = SumCounter()
    for chunk in np.array_split(vals, 7):
        part = SumCounter()
        part.update_batch(chunk)
        parts = parts.merge(part)
    assert parts.to_bytes() == whole.to_bytes()
    # exact rational total, independent of float summation order
    from fractions import Fraction

    assert whole.exact() == sum(Fraction(float(v)) for v in vals)


@settings(max_examples=60, deadline=None)
@given(
    mixed=st.lists(st.floats(min_value=5e-324, max_value=1.7976931348623157e308), max_size=200),
    bulk=st.sampled_from(["none", "unit", "near 2**53"]),
    cut=st.integers(0, 9000),
)
def test_sum_counter_equals_exact_rational_sum(mixed, bulk, cut):
    # 8,192 values of one exponent near 2**53 overflow an int64 sum of their
    # 53-bit mantissas; mixed exponents span subnormals to the largest float
    from fractions import Fraction

    values = np.array(mixed, dtype=np.float64)
    if bulk == "unit":
        values = np.r_[values, np.ones(8192)]
    elif bulk == "near 2**53":
        values = np.r_[values, 2.0**53 - np.arange(1.0, 8193.0)]
    whole = SumCounter()
    whole.update_batch(values)
    assert whole.exact() == sum(map(Fraction, values.tolist()), Fraction(0))
    a, b = SumCounter(), SumCounter()
    a.update_batch(values[:cut])
    b.update_batch(values[cut:])
    assert a.merge(b).to_bytes() == whole.to_bytes()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=0, max_size=120), st.integers(0, 2**32))
def test_merge_algebra(keys, seed):
    keys = np.asarray(keys, dtype=np.uint64)
    third = max(1, len(keys) // 3) if len(keys) else 1
    chunks = [keys[:third], keys[third : 2 * third], keys[2 * third :]]
    sks = []
    for c in chunks:
        sk = DistinctCounter(k=8, seed=seed)
        sk.update_batch(c)
        sks.append(sk)
    abc = sks[0].merge(sks[1]).merge(sks[2])
    acb = sks[0].merge(sks[2]).merge(sks[1])
    bca = sks[1].merge(sks[2]).merge(sks[0])
    assert abc.to_bytes() == acb.to_bytes() == bca.to_bytes()
    # idempotent on overlapping content
    assert abc.merge(abc).to_bytes() == abc.to_bytes()


def test_serialization_round_trips():
    rng = np.random.default_rng(6)
    keys = rng.integers(0, 300, 1500).astype(np.uint64)
    vals = rng.uniform(0.1, 4.0, 1500)

    dc = DistinctCounter(k=32, seed=2)
    dc.update_batch(keys)
    md = MaxDistinctSketch(k=32, seed=2)
    md.update_batch(keys, vals)
    at = AllThresholdSketch(k=12, seed=2)
    at.update_batch(keys, vals)
    sc = SumCounter()
    sc.update_batch(vals)
    backs = [type(sk).from_bytes(sk.to_bytes(), sk.k, sk.seed) for sk in (dc, md, at)]
    backs.append(SumCounter.from_bytes(sc.to_bytes()))
    for sk, back in zip((dc, md, at, sc), backs):
        assert back.to_bytes() == sk.to_bytes()
        assert type(back) is type(sk)
    assert backs[0].estimate() == dc.estimate()
    assert backs[1].estimate() == md.estimate()
    assert backs[2].estimate_at(1.0) == at.estimate_at(1.0)
    assert backs[3].exact() == sc.exact()


def test_incompatible_merges():
    a = DistinctCounter(k=8, seed=1)
    with pytest.raises(IncompatibleSketchError, match="k="):
        a.merge(DistinctCounter(k=16, seed=1))
    with pytest.raises(IncompatibleSketchError, match="seed"):
        a.merge(DistinctCounter(k=8, seed=2))
    with pytest.raises(IncompatibleSketchError):
        a.merge(MaxDistinctSketch(k=8, seed=1))
    with pytest.raises(IncompatibleSketchError):
        SumCounter().merge(a)


def test_bad_blobs():
    # entry records carry no type: the file header's mode tells sketches apart
    # (tests/test_sketch_file.py reads files of one mode as another)
    with pytest.raises(ParseError):
        DistinctCounter.from_bytes(b"garbage", 4)
    with pytest.raises(ParseError):
        MaxDistinctSketch.from_bytes(bytes(24), 4)
    for bad in (b"", b"1/0", b"\xff", b"0.5/x"):
        with pytest.raises(ParseError):
            SumCounter.from_bytes(bad)


definition_entries = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])),
    min_size=0,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(
    entries=definition_entries,
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    chunk=st.integers(1, 130),
    data=st.data(),
)
def test_sketches_equal_their_definitions(entries, k, seed, chunk, data):
    # update_batch over arbitrary splits (each split in update chunks of any
    # size) and merges over arbitrary partitions hold exactly the entries of
    # the brute-force retention rules
    n = len(entries)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    parts = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=int)
    keys = np.array([o for o, _ in entries], dtype=np.uint64)
    ys = np.array([y for _, y in entries], dtype=np.float64)
    pairs = list(zip(keys.tolist(), ys.tolist()))
    maxima = [(o, y + 0.25) for o, y in pairs]
    cases = [
        (
            lambda: DistinctCounter(k, seed),
            lambda sk, sel: sk.update_batch(keys[sel]),
            sketch_blob([(o,) for o, _ in bottom_k_of_maxima([(o, 1.0) for o, _ in pairs], k, seed)], "<Q"),
        ),
        (
            lambda: MaxDistinctSketch(k, seed),
            lambda sk, sel: sk.update_batch(keys[sel], ys[sel] + 0.25),
            sketch_blob(bottom_k_of_maxima(maxima, k, seed), "<Qd"),
        ),
        (
            lambda: AllThresholdSketch(k, seed),
            lambda sk, sel: sk.update_batch(keys[sel], ys[sel]),
            sketch_blob(prefix_bottom_k(pairs, k, seed), "<Qd"),
        ),
    ]
    for make, feed, expected in cases:
        split = make()
        with mock.patch.object(sketches, "_CHUNK_ENTRIES", chunk):
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                feed(split, slice(lo, hi))
        shards = []
        for p in range(4):
            shards.append(make())
            feed(shards[-1], parts == p)
        merged = shards[0].merge(shards[1]).merge(shards[2].merge(shards[3]))
        assert split.to_bytes() == expected
        assert merged.to_bytes() == expected


def _fold(items, data):
    """The pairwise merges of ``items`` in an order and grouping drawn by hypothesis."""
    items = list(items)
    while len(items) > 1:
        a = items.pop(data.draw(st.integers(0, len(items) - 1)))
        b = items.pop(data.draw(st.integers(0, len(items) - 1)))
        items.append(a.merge(b))
    return items[0]


@settings(max_examples=60, deadline=None)
@given(entries=definition_entries, k=st.integers(1, 6), seed=st.integers(0, 2**32), n_parts=st.integers(1, 8), data=st.data())
def test_one_merge_of_many_equals_every_fold(entries, k, seed, n_parts, data):
    # merge(*others) retains the union of 1-8 parts once; it holds the bytes
    # of every pairwise fold and of the single sketch over all entries
    n = len(entries)
    owner = np.array(data.draw(st.lists(st.integers(0, n_parts - 1), min_size=n, max_size=n)), dtype=int)
    keys = np.array([o for o, _ in entries], dtype=np.uint64)
    ys = np.array([y for _, y in entries], dtype=np.float64)
    cases = [
        (lambda: DistinctCounter(k, seed), lambda sk, sel: sk.update_batch(keys[sel])),
        (lambda: MaxDistinctSketch(k, seed), lambda sk, sel: sk.update_batch(keys[sel], ys[sel] + 0.25)),
        (lambda: AllThresholdSketch(k, seed), lambda sk, sel: sk.update_batch(keys[sel], ys[sel])),
        (SumCounter, lambda sk, sel: sk.update_batch(ys[sel] + 0.25)),
    ]
    for make, feed in cases:
        whole = make()
        feed(whole, slice(None))
        parts = []
        for p in range(n_parts):
            parts.append(make())
            feed(parts[-1], owner == p)
        one = parts[0].merge(*parts[1:])
        assert type(one) is type(whole)
        assert one.to_bytes() == whole.to_bytes()
        assert _fold(parts, data).to_bytes() == one.to_bytes()


@settings(max_examples=60, deadline=None)
@given(entries=definition_entries, k=st.integers(1, 6), seed=st.integers(0, 2**32), data=st.data())
def test_threshold_profile_equals_its_definition(entries, k, seed, data):
    # the profile derived from the stored entries, after updates, a merge, a
    # read and a read of the records shuffled, equals the heap walk over the
    # stored entries in (y, rank, outkey) order
    keys = np.array([o for o, _ in entries], dtype=np.uint64)
    ys = np.array([y for _, y in entries], dtype=np.float64)
    cut = data.draw(st.integers(0, len(entries)))
    a, b = AllThresholdSketch(k, seed), AllThresholdSketch(k, seed)
    a.update_batch(keys[:cut], ys[:cut])
    b.update_batch(keys[cut:], ys[cut:])
    merged = a.merge(b)
    shuffled = records(merged.to_bytes(), ENTRY)[data.draw(st.permutations(range(len(merged))))]
    back = AllThresholdSketch.from_bytes(shuffled.tobytes(), k, seed)
    for got, want in zip(back._profile, merged._profile):
        assert got.tobytes() == want.tobytes()
    for sk in (a, b, merged, AllThresholdSketch.from_bytes(merged.to_bytes(), k, seed), back):
        expected = threshold_profile(sk._values.tolist(), sk._ranks.tolist(), sk._entries.tolist(), k)
        for got, want in zip(sk._profile[:3], expected):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _tied_rank(outkey: int, seed: int) -> float:
    """A rank per outkey that many outkeys share, for (rank, outkey) ties."""
    return float((outkey * 7 + seed) % 4)


def _walk_spy():
    return mock.patch.object(sketches, "_walk_kept", wraps=sketches._walk_kept)


def _assert_kept(pairs, k, seed, rank):
    """``_prefix_bottom_k`` over (outkey, y) pairs keeps the entries that
    ``reference.prefix_bottom_k`` holds, in its (rank, outkey) order."""
    okeys = np.array([o for o, _ in pairs], dtype=np.uint64)
    ys = np.array([y for _, y in pairs], dtype=np.float64)
    ranks = np.array([rank(o, seed) for o, _ in pairs], dtype=np.float64)
    ranked = sketches._prefix_bottom_k(okeys, ys, ranks, k)
    assert list(zip(okeys[ranked].tolist(), ys[ranked].tolist())) == prefix_bottom_k(pairs, k, seed, rank)
    return ranked


retention_entries = st.lists(
    st.tuples(st.integers(0, 60), st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0)),
    min_size=1,
    max_size=80,
)


@settings(max_examples=100, deadline=None)
@given(entries=retention_entries, k=st.integers(1, 8), seed=st.integers(0, 2**32), tied=st.booleans(), data=st.data())
def test_retained_set_is_kept_whole_without_the_walk(entries, k, seed, tied, data):
    # a retention's output, in any order, is recognised in vector operations:
    # every entry is kept, in (rank, outkey) order
    rank = _tied_rank if tied else _base_rank
    kept = data.draw(st.permutations(prefix_bottom_k(entries, k, seed, rank)))
    with _walk_spy() as walk_kept:
        ranked = _assert_kept(kept, k, seed, rank)
    assert walk_kept.call_count == 0
    assert sorted(ranked.tolist()) == list(range(len(kept)))


@settings(max_examples=150, deadline=None)
@given(
    entries=retention_entries,
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32),
    tied=st.booleans(),
    mutation=st.sampled_from(["repeat", "swap", "extra"]),
    data=st.data(),
)
def test_near_retained_sets_equal_their_definition(entries, k, seed, tied, mutation, data):
    # a retained set one step from retained: a repeated outkey at a larger y
    # (its largest rank stays among its first k entries, the O(n) check
    # passes and the test fails), two entries with their ys swapped, or one
    # extra entry; with ranks that tie across outkeys or not
    rank = _tied_rank if tied else _base_rank
    pairs = prefix_bottom_k(entries, k, seed, rank)
    if mutation == "repeat":
        o, y = pairs[data.draw(st.integers(0, len(pairs) - 1))]
        pairs.append((o, y + data.draw(st.sampled_from([0.25, 1.0, 5.0]))))
    elif mutation == "swap" and len(pairs) >= 2:
        i, j = data.draw(st.lists(st.integers(0, len(pairs) - 1), min_size=2, max_size=2, unique=True))
        (oi, yi), (oj, yj) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (oi, yj), (oj, yi)
    elif mutation == "extra":
        pairs.append(data.draw(retention_entries)[0])
    _assert_kept(data.draw(st.permutations(pairs)), k, seed, rank)


def test_stored_sketch_loads_without_the_walk():
    # every stored all-threshold sketch is a retained set, so reading it never
    # runs the per-entry walk; a silent fallback would pass every byte test
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 2**63, 20_000).astype(np.uint64)
    ys = rng.exponential(size=20_000)
    a, b = AllThresholdSketch(50, 3), AllThresholdSketch(50, 3)
    a.update_batch(keys[:10_000], ys[:10_000])
    b.update_batch(keys[10_000:], ys[10_000:])
    assert len(a) > 2 * a.k
    # nor the distinctness sort and the lexsort: a stored section is in
    # (rank, outkey) order, the inverse of its walk order
    sort = mock.patch.object(np, "sort", wraps=np.sort)
    lexsort = mock.patch.object(np, "lexsort", wraps=np.lexsort)
    with _walk_spy() as walk_kept, sort as sort, lexsort as lexsort:
        back = AllThresholdSketch.from_bytes(a.to_bytes(), 50, 3)
        assert walk_kept.call_count == sort.call_count == lexsort.call_count == 0
        # the same retained set in another order: the spies see the sorts
        AllThresholdSketch.from_bytes(records(a.to_bytes(), ENTRY)[::-1].tobytes(), 50, 3)
        assert walk_kept.call_count == 0 and sort.call_count > 0 and lexsort.call_count > 0
        a.merge(b)  # different shards still walk: the spy sees the loop
        assert walk_kept.call_count == 1
    assert back.to_bytes() == a.to_bytes()
    for got, want in zip(back._profile, a._profile):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [DistinctCounter, MaxDistinctSketch])
def test_stored_bottom_k_sketch_loads_without_the_rank_cut(kind):
    # a stored distinct-counter or max-distinct section is already what the
    # retention rule returns, so reading it never runs the rank cut; a silent
    # fallback would pass every byte test
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 2**63, 5_000).astype(np.uint64)
    sk = kind(50, 3)
    if kind is DistinctCounter:
        sk.update_batch(keys)
    else:
        sk.update_batch(keys, rng.uniform(0.25, 4.0, 5_000))
    assert len(sk) == sk.k
    stored = records(sk.to_bytes(), OUTKEY if kind is DistinctCounter else ENTRY)
    with mock.patch.object(sketches, "_rank_cut", wraps=sketches._rank_cut) as rank_cut:
        back = kind.from_bytes(stored.tobytes(), 50, 3)
        assert rank_cut.call_count == 0
        reversed_back = kind.from_bytes(stored[::-1].tobytes(), 50, 3)
        assert rank_cut.call_count == 1  # another order: the spy sees the general path
    assert back.to_bytes() == reversed_back.to_bytes() == sk.to_bytes()


def test_max_distinct_read_keeps_a_repeated_outkey_once():
    # outkey 5 stored at two values has two ranks, so its records can stand in
    # strictly ascending (rank, outkey) order; a read keeps it once, at its
    # larger value, directly and inside a combination file
    seed = next(s for s in range(100) if _base_rank(5, s) < _base_rank(9, s) / 1.5)
    pairs = [(5, 2.0), (5, 1.0), (9, 1.5)]
    assert np.all(np.diff([_base_rank(o, seed) / v for o, v in pairs]) > 0)
    assert bottom_k_of_maxima(pairs, 3, seed) == [(5, 2.0), (9, 1.5)]
    want = sketch_blob([(5, 2.0), (9, 1.5)], "<Qd")
    assert MaxDistinctSketch.from_bytes(sketch_blob(pairs, "<Qd"), 3, seed).to_bytes() == want
    a = inverse_transform(parse_statistic("sqrt"))
    pipe = CombinationPipeline(a, r=3, epsilon=0.5, k=8, seed=seed)
    pipe.ingest_batch(np.arange(300, dtype=np.uint64) % 50, np.arange(300) % 3 + 1.0)
    header, sections = unpack(pipe.to_bytes("sqrt"))
    sections[1] = sketch_blob(pairs, "<Qd")
    assert CombinationPipeline.from_bytes(pack(header, sections), a).max_sketches[0].to_bytes() == want


@settings(max_examples=80, deadline=None)
@given(entries=definition_entries, k=st.integers(1, 8), seed=st.integers(0, 2**32), other=st.sampled_from([0.5, 2.0]), data=st.data())
def test_reads_equal_the_general_retention_path(entries, k, seed, other, data):
    # a stored sketch's records, a permutation of them, and them with one
    # outkey repeated at another value, put in (rank, outkey) order, each read
    # as the general retention path (no order taken as given) reads them
    keys = np.array([o for o, _ in entries], dtype=np.uint64)
    ys = np.array([y for _, y in entries], dtype=np.float64)
    kinds = [
        (DistinctCounter(k, seed), lambda sk: sk.update_batch(keys), None),
        (MaxDistinctSketch(k, seed), lambda sk: sk.update_batch(keys, ys + 0.25), lambda v: v * other),
        (AllThresholdSketch(k, seed), lambda sk: sk.update_batch(keys, ys), lambda v: v + other),
    ]
    for sk, feed, another in kinds:
        feed(sk)
        stored = records(sk.to_bytes(), OUTKEY if another is None else ENTRY)
        reads = [stored, stored[data.draw(st.permutations(range(len(stored))))]]
        if len(stored):
            i = data.draw(st.integers(0, len(stored) - 1))
            repeat = stored[i : i + 1].copy()
            if another is not None:
                repeat["value"] = another(repeat["value"])
            rec = np.concatenate([stored, repeat])
            okeys = rec if another is None else rec["outkey"]
            ranks = base_ranks(okeys, seed) / (rec["value"] if isinstance(sk, MaxDistinctSketch) else 1.0)
            reads.append(rec[np.lexsort((okeys, ranks))])
        for rec in reads:
            got = type(sk).from_bytes(rec.tobytes(), k, seed)
            with mock.patch.object(sketches, "_ascending", return_value=False):
                want = type(sk).from_bytes(rec.tobytes(), k, seed)
            assert got.to_bytes() == want.to_bytes()
            assert got._ranks.tobytes() == want._ranks.tobytes()
