"""Batch ingestion over repeated keys against element-at-a-time ingestion,
and the input checks the two paths share."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsketch import (
    AllThresholdSketch,
    CombinationPipeline,
    DistinctCounter,
    Element,
    ElementValidationError,
    FullRangePipeline,
    MaxDistinctSketch,
    PointPipeline,
    SignedCombinationPipeline,
    SumCounter,
)
from capsketch import estimators, mappers
from capsketch.cli import main
from capsketch.core import base_ranks, hash_key, hash_keys, outkey_block
from capsketch.estimators import _lookup, _smallest
from capsketch.mappers import MapperConfig, full_range_batch, point_outkeys_batch
from capsketch.oracle import zipf_ranks
from capsketch.sketchfile import unpack
from capsketch.transforms import inverse_transform, measured_function, parse_statistic
from reference import map_full_range, map_point
from test_estimators import _hash_elements, sidelined


def zipf_elements(n, alpha, seed):
    """Elements with Zipf-skewed keys (many repeats) and float values."""
    ranks = zipf_ranks(n, alpha, n_keys=5_000, seed=seed)
    values = np.random.default_rng(seed).uniform(0.25, 4.0, n)
    return [Element(b"k%d" % r, float(v)) for r, v in zip(ranks.tolist(), values.tolist())]


def ingest_both(make, els, sizes):
    """(per-element pipeline, batch pipeline fed in calls of the given sizes)."""
    single, batched = make(), make()
    for e in els:
        single.ingest(e)
    k64 = np.array([hash_key(e.key) for e in els], dtype=np.uint64)
    vals = np.array([e.value for e in els])
    bounds = np.cumsum([0, *sizes])
    assert bounds[-1] == len(els)
    for lo, hi in zip(bounds, bounds[1:]):
        batched.ingest_batch(k64[lo:hi], vals[lo:hi])
    return single, batched


# Calls of uneven sizes; with 61 cells per chunk at r=7, each call spans
# several mapper chunks, and runs of one key's rows straddle chunk edges.
SIZES = [1, 37, 250, 112]
STREAMS = [(400, 1.5, 3), (400, 2.5, 4)]


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(mappers, "_CHUNK_CELLS", 61)


@pytest.mark.parametrize("n,alpha,seed", STREAMS)
def test_full_range_batch_repeated_keys_bytes(small_chunks, n, alpha, seed):
    els = zipf_elements(n, alpha, seed)
    single, batched = ingest_both(lambda: FullRangePipeline(r=7, epsilon=0.3, k=16, seed=seed), els, SIZES)
    assert batched.to_bytes() == single.to_bytes()


@pytest.mark.parametrize("n,alpha,seed", STREAMS)
def test_combination_batch_repeated_keys(small_chunks, n, alpha, seed):
    els = zipf_elements(n, alpha, seed)
    a = inverse_transform(parse_statistic("sqrt"))
    single, batched = ingest_both(lambda: CombinationPipeline(a, r=7, epsilon=0.3, k=16, seed=seed), els, SIZES)
    assert sidelined(batched) == sidelined(single)
    assert batched.estimate() == single.estimate()


@pytest.mark.parametrize("n,alpha,seed", STREAMS)
def test_signed_batch_repeated_keys(small_chunks, n, alpha, seed):
    els = zipf_elements(n, alpha, seed)
    a = measured_function(parse_statistic("capT=5"))
    single, batched = ingest_both(lambda: SignedCombinationPipeline(a, r=7, epsilon=0.3, k=16, seed=seed), els, SIZES)
    assert sidelined(batched) == sidelined(single)
    assert batched.estimate() == single.estimate()


def test_signed_pipeline_is_two_combination_measurements_of_one_mapping(small_chunks, monkeypatch):
    # over uneven batches, and merged from two shards at partition-consistent
    # bases, a signed file holds the sidelined and max-distinct sections of
    # the combination pipelines of its two parts at its seed, its raw estimate
    # is the difference of theirs, and it maps each batch once
    real, calls = estimators.full_range_batch, []

    def counted(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(estimators, "full_range_batch", counted)
    els = zipf_elements(400, 1.5, 3)
    k64, vals = _hash_elements(els)
    a = measured_function(parse_statistic("capT=5"))

    def built(cls, f, lo, hi, sizes):
        pipeline = cls(f, r=7, epsilon=0.3, k=16, seed=5, ordinal_base=lo)
        bounds = lo + np.cumsum([0, *sizes])
        assert bounds[-1] == hi
        for b_lo, b_hi in zip(bounds, bounds[1:]):
            pipeline.ingest_batch(k64[b_lo:b_hi], vals[b_lo:b_hi])
        return pipeline

    def whole(cls, f):
        return built(cls, f, 0, 400, SIZES)

    def merged(cls, f):
        return built(cls, f, 0, 150, [60, 90]).merge(built(cls, f, 150, 400, [13, 237]))

    for make, batches in ((whole, SIZES), (merged, [60, 90, 13, 237])):
        calls.clear()
        signed = make(SignedCombinationPipeline, a)
        assert calls == batches  # one mapping per ingest_batch
        plus, minus = make(CombinationPipeline, a.plus), make(CombinationPipeline, a.minus)
        _, (side, plus_entries, minus_entries, total) = unpack(signed.to_bytes())
        assert unpack(plus.to_bytes())[1] == [side, plus_entries, total]
        assert unpack(minus.to_bytes())[1] == [side, minus_entries, total]
        assert signed.estimate().raw == plus.estimate() - minus.estimate()


def test_signed_batch_is_summed_once(monkeypatch):
    # the two parts share one count and one sum: each ingest_batch adds the
    # batch to the sum once, and after any batch split the sum section of
    # the file holds one SumCounter over every value
    real, calls = SumCounter.update_batch, []

    def counted(self, values):
        calls.append(len(values))
        real(self, values)

    monkeypatch.setattr(SumCounter, "update_batch", counted)
    a = measured_function(parse_statistic("capT=5"))
    rng = np.random.default_rng(11)
    for seed in range(6):
        n = int(rng.integers(1, 300))
        k64 = hash_keys(b"k%d" % i for i in rng.integers(0, 60, n))
        values = rng.uniform(0.25, 4.0, n)
        cuts = sorted(rng.integers(0, n + 1, int(rng.integers(0, 5))).tolist())
        pipeline = SignedCombinationPipeline(a, r=3, epsilon=0.5, k=8, seed=seed)
        calls.clear()
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            pipeline.ingest_batch(k64[lo:hi], values[lo:hi])
        assert calls == np.diff([0, *cuts, n]).tolist()
        whole = SumCounter()
        real(whole, values)
        _, sections = unpack(pipeline.to_bytes())
        assert len(sections) == 4 and sections[3] == whole.to_bytes()


@pytest.mark.parametrize("chunk_cells", [96 * 40, 1 << 16])
@pytest.mark.parametrize("mode", ["fullrange", "combination"])
def test_batches_of_few_long_runs_equal_single_ingest(monkeypatch, chunk_cells, mode):
    # three keys at r=96: each mapper chunk of a batch holds at most three
    # runs of rows 96 draws wide, so it is reduced run by run; with 40 rows
    # per chunk, runs also straddle chunk edges
    r = 96
    assert mappers._WIDE_ROW <= r
    monkeypatch.setattr(mappers, "_CHUNK_CELLS", chunk_cells)
    values = np.random.default_rng(8).uniform(0.25, 4.0, 300)
    els = [Element(b"k%d" % (i % 3), float(v)) for i, v in enumerate(values)]
    if mode == "fullrange":
        make = lambda: FullRangePipeline(r=r, epsilon=0.3, k=16, seed=2)
    else:
        a = inverse_transform(parse_statistic("sqrt"))
        make = lambda: CombinationPipeline(a, r=r, epsilon=0.3, k=16, seed=2)
    single, batched = ingest_both(make, els, [1, 37, 250, 12])
    assert batched.to_bytes() == single.to_bytes()


def test_full_range_batch_one_minimum_per_key_replica(small_chunks):
    els = zipf_elements(300, 2.0, 5)
    cfg = MapperConfig(r=5, seed=9)
    expected: dict[int, float] = {}
    for i, e in enumerate(els):
        for out in map_full_range(e, cfg, ordinal=i):
            expected[out.outkey] = min(out.value, expected.get(out.outkey, np.inf))
    k64 = np.array([hash_key(e.key) for e in els], dtype=np.uint64)
    vals = np.array([e.value for e in els])
    okeys, ys = full_range_batch(k64, vals, cfg, np.arange(len(els), dtype=np.uint64))
    assert len(okeys) == len(set(okeys.tolist())) == len(expected)
    assert dict(zip(okeys.tolist(), ys.tolist())) == expected


# ---------------------------------------------------------------------------
# point mapping: rank-first against every cell drawn


@settings(max_examples=80, deadline=None)
@given(
    stream=st.lists(st.tuples(st.integers(0, 12), st.sampled_from([0.05, 0.3, 1.0, 2.5, 40.0])), max_size=60),
    cuts=st.lists(st.integers(0, 60), max_size=4),
    r=st.integers(1, 64),
    k=st.integers(1, 32),
    t=st.sampled_from([0.0, 1e-6, 0.2, 3.0, np.inf]),
    prefill=st.lists(st.integers(0, 2**64 - 1), max_size=80),
    chunk_cells=st.sampled_from([1, 61, 1 << 16]),
)
def test_rank_first_point_ingest_equals_dense_mapping(stream, cuts, r, k, t, prefill, chunk_cells):
    """A point pipeline's sketch equals the sketch of every fired outkey,
    byte for byte, over any split into batches, also from a full start."""
    k64 = np.array([hash_key(b"k%d" % key) for key, _ in stream], dtype=np.uint64)
    vals = np.array([v for _, v in stream])
    cfg = MapperConfig(r=r, t=t, seed=5)
    pipe = PointPipeline(t, r=r, epsilon=0.3, k=k, seed=5)
    pipe.counter.update_batch(np.array(prefill, dtype=np.uint64))
    dense = DistinctCounter(k, 5)
    dense.update_batch(np.array(prefill, dtype=np.uint64))
    bounds = [0, *sorted(min(c, len(stream)) for c in cuts), len(stream)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mappers, "_CHUNK_CELLS", chunk_cells)
        for lo, hi in zip(bounds, bounds[1:]):
            pipe.ingest_batch(k64[lo:hi], vals[lo:hi])
            ords = np.arange(lo, hi, dtype=np.uint64)
            dense.update_batch(point_outkeys_batch(k64[lo:hi], vals[lo:hi], cfg, ords))
    assert pipe.counter.to_bytes() == dense.to_bytes()


@pytest.mark.parametrize("t", [0.05, 0.6, 4.0])
def test_point_batch_emits_each_fired_outkey_once(small_chunks, t):
    els = zipf_elements(300, 2.0, 6)
    cfg = MapperConfig(r=5, t=t, seed=9)
    emitted = [o.outkey for i, e in enumerate(els) for o in map_point(e, cfg, ordinal=i)]
    assert len(emitted) > len(set(emitted))  # repeated keys fire one outkey more than once
    k64 = np.array([hash_key(e.key) for e in els], dtype=np.uint64)
    vals = np.array([e.value for e in els])
    batch = point_outkeys_batch(k64, vals, cfg, np.arange(len(els), dtype=np.uint64))
    assert sorted(batch.tolist()) == sorted(set(emitted))


def test_subnormal_value_rejected_under_a_full_point_sketch(monkeypatch):
    monkeypatch.setattr(mappers, "_CHUNK_CELLS", 1)  # so that batches are mapped rank-first
    pipeline = PointPipeline(5.0, r=3, epsilon=0.3, k=8)
    pipeline.ingest_batch(hash_keys(b"w%d" % i for i in range(200)), np.ones(200))
    rank, _ = pipeline.counter.kth()
    # a key none of whose cells ranks below the k-th, so none of them is drawn
    k64 = hash_keys(b"t%d" % i for i in range(100))
    above = (base_ranks(outkey_block(k64, 3), 0) > rank).all(axis=1)
    assert above.any()
    before, count = pipeline.to_bytes(), pipeline.count
    with pytest.raises(ElementValidationError, match="overflow"):
        pipeline.ingest_batch(np.array([hash_key(b"w1"), k64[above][0]], dtype=np.uint64), np.array([1.0, 1e-310]))
    assert pipeline.count == count
    assert pipeline.to_bytes() == before


# ---------------------------------------------------------------------------
# sketches: batch updates equal scalar updates, ties and repeats included

entry_lists = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(entries=entry_lists, k=st.integers(1, 6), cut=st.integers(0, 120))
def test_all_threshold_batch_equals_scalar_with_ties(entries, k, cut):
    keys = np.array([o for o, _ in entries], dtype=np.uint64)
    ys = np.array([y for _, y in entries])
    scalar, batched = AllThresholdSketch(k, 3), AllThresholdSketch(k, 3)
    for o, y in entries:
        scalar.update(o, y)
    batched.update_batch(keys[:cut], ys[:cut])
    batched.update_batch(keys[cut:], ys[cut:])
    assert batched.to_bytes() == scalar.to_bytes()


@settings(max_examples=60, deadline=None)
@given(entries=entry_lists, k=st.integers(1, 6), cut=st.integers(0, 120))
def test_max_distinct_batch_equals_scalar(entries, k, cut):
    keys = np.array([o for o, _ in entries], dtype=np.uint64)
    vals = np.array([y + 0.25 for _, y in entries])
    scalar, batched = MaxDistinctSketch(k, 3), MaxDistinctSketch(k, 3)
    for o, v in zip(keys.tolist(), vals.tolist()):
        scalar.update(o, v)
    batched.update_batch(keys[:cut], vals[:cut])
    batched.update_batch(keys[cut:], vals[cut:])
    assert batched.to_bytes() == scalar.to_bytes()


def test_sketch_batches_reject_what_scalar_updates_reject():
    keys = np.array([1, 2], dtype=np.uint64)
    for bad in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError):
            AllThresholdSketch(4).update_batch(keys, np.array([0.5, bad]))
        with pytest.raises(ValueError):
            AllThresholdSketch(4).update(2, bad)
    for bad in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError):
            MaxDistinctSketch(4).update_batch(keys, np.array([0.5, bad]))
        with pytest.raises(ValueError):
            MaxDistinctSketch(4).update(2, bad)


@settings(max_examples=60, deadline=None)
@given(entries=entry_lists, m=st.integers(1, 30))
def test_smallest_breaks_ties_by_key(entries, m):
    keys = np.array([o for o, _ in entries], dtype=np.uint64)
    ys = np.array([y for _, y in entries])
    assert _smallest(keys, ys, m).tolist() == np.lexsort((keys, ys))[:m].tolist()


@settings(max_examples=60, deadline=None)
@given(pool=st.sets(st.integers(0, 2**64 - 1), max_size=20), extra=st.lists(st.integers(0, 2**64 - 1), max_size=20))
def test_lookup_finds_pool_members(pool, extra):
    pool_arr = np.array(sorted(pool, reverse=True), dtype=np.uint64)
    # keys sharing the low 16 bits of a pool key but not the key itself
    near = [(p ^ (1 << 40)) for p in pool]
    keys = np.array([*pool, *extra, *near], dtype=np.uint64)
    found, index = _lookup(pool_arr, keys)
    assert found.tolist() == [k in pool for k in keys.tolist()]
    assert (pool_arr[index[found]] == keys[found]).all()


# ---------------------------------------------------------------------------
# values whose exponential draws overflow

SUBNORMAL = 1e-320
# its draws overflow under some seeds and ordinals and not under others
ONE_PART = 1e-308


def _pipelines(ordinal_base=0, seed=0, r=3):
    a = inverse_transform(parse_statistic("sqrt"))
    signed = measured_function(parse_statistic("capT=5"))
    return [
        FullRangePipeline(r=r, epsilon=0.3, k=8, seed=seed, ordinal_base=ordinal_base),
        CombinationPipeline(a, r=r, epsilon=0.3, k=8, seed=seed, ordinal_base=ordinal_base),
        SignedCombinationPipeline(signed, r=r, epsilon=0.3, k=8, seed=seed, ordinal_base=ordinal_base),
    ]


@pytest.mark.parametrize("index", range(3))
def test_subnormal_value_rejected_element_at_a_time(index):
    pipeline = _pipelines()[index]
    pipeline.ingest(Element(b"a", 1.0))
    with pytest.raises(ElementValidationError, match="overflow"):
        pipeline.ingest(Element(b"b", SUBNORMAL))


@pytest.mark.parametrize("index", range(3))
def test_subnormal_value_rejected_in_batches(index):
    pipeline = _pipelines()[index]
    k64 = np.array([hash_key(b"a"), hash_key(b"b")], dtype=np.uint64)
    with pytest.raises(ElementValidationError, match="overflow"):
        pipeline.ingest_batch(k64, np.array([1.0, SUBNORMAL]))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_batch_rejects_values_elements_reject(bad):
    with pytest.raises(ElementValidationError):
        Element(b"b", bad)
    k64 = np.array([hash_key(b"a"), hash_key(b"b")], dtype=np.uint64)
    with pytest.raises(ElementValidationError):
        FullRangePipeline(r=3, epsilon=0.3, k=8).ingest_batch(k64, np.array([1.0, bad]))


def _all_pipelines(ordinal_base=0, seed=0):
    point = PointPipeline(1 / 5.0, r=3, epsilon=0.3, k=8, seed=seed, ordinal_base=ordinal_base)
    return [point, *_pipelines(ordinal_base, seed)]


def _overflows(seed: int, ordinal: int, value: float) -> bool:
    """Whether some of a value's three draws at an ordinal overflow under a
    seed; the key does not enter the draws."""
    cfg = MapperConfig(r=3, seed=seed)
    try:
        full_range_batch(np.zeros(1, dtype=np.uint64), np.array([value]), cfg, np.array([ordinal], dtype=np.uint64))
    except ElementValidationError:
        return True
    return False


def _seed_rejecting_one_part() -> int:
    """The first seed whose one mapping rejects ONE_PART at ordinals 1 and 2;
    every pipeline, the signed one included, maps a batch once at its seed."""
    return next(seed for seed in range(1000) if all(_overflows(seed, o, ONE_PART) for o in (1, 2)))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan, SUBNORMAL, ONE_PART])
@pytest.mark.parametrize("index", range(4))
def test_rejected_values_leave_pipeline_unchanged(index, bad):
    # the element "b" gets ordinal 2 in the batch and 1 on its own
    pipeline = _all_pipelines(seed=_seed_rejecting_one_part() if bad == ONE_PART else 0)[index]
    pipeline.ingest(Element(b"a", 1.0))
    before = pipeline.to_bytes()
    k64 = np.array([hash_key(b"c"), hash_key(b"b")], dtype=np.uint64)
    with pytest.raises(ElementValidationError):
        pipeline.ingest_batch(k64, np.array([1.0, bad]))
    assert pipeline.to_bytes() == before
    with pytest.raises(ElementValidationError):
        pipeline.ingest((b"b", bad))
    assert pipeline.to_bytes() == before


@pytest.mark.parametrize("bad", [SUBNORMAL, ONE_PART])
@pytest.mark.parametrize("index", range(3))
def test_overflow_in_a_pruned_chunk_is_rejected(index, bad):
    # one key's 400 rows span four chunks at r=501, and the bad value sits in
    # a chunk whose rows continue the run, where only cells that can lower
    # its minima are drawn; ONE_PART's draws overflow only in cells that
    # cannot, so its rows must be drawn in full
    pipeline = _pipelines(r=501)[index]
    pipeline.ingest(Element(b"a", 1.0))
    before = pipeline.to_bytes()
    vals = np.random.default_rng(index).uniform(0.25, 4.0, 400)
    vals[300] = bad
    k64 = np.full(400, hash_key(b"b"), dtype=np.uint64)
    assert np.flatnonzero(mappers._group(k64, vals, np.arange(400))[1] == bad)[0] >= 2 * (mappers._CHUNK_CELLS // 501)
    with pytest.raises(ElementValidationError, match=rf"^element value {bad!r} is too small: its exponential draws overflow$"):
        pipeline.ingest_batch(k64, vals)
    assert pipeline.to_bytes() == before


@pytest.mark.parametrize("index", range(4))
def test_ordinals_past_u64_leave_pipeline_unchanged(index):
    # from base 2**64 - 2 two elements get the last two u64 ordinals
    pipeline = _all_pipelines(ordinal_base=2**64 - 2)[index]
    pipeline.ingest(Element(b"a", 1.0))
    before = pipeline.to_bytes()
    k64 = np.array([hash_key(b"c"), hash_key(b"b")], dtype=np.uint64)
    with pytest.raises(ElementValidationError, match="ordinal"):
        pipeline.ingest_batch(k64, np.array([1.0, 2.0]))
    assert pipeline.to_bytes() == before
    pipeline.ingest_batch(k64[:1], np.array([1.0]))
    before = pipeline.to_bytes()
    with pytest.raises(ElementValidationError, match="ordinal"):
        pipeline.ingest(Element(b"b", 2.0))
    assert pipeline.to_bytes() == before


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_sum_counter_batch_rejects_what_elements_reject(bad):
    counter = SumCounter()
    with pytest.raises(ValueError):
        counter.update_batch(np.array([1.0, bad]))
    assert counter.exact() == 0


@pytest.mark.parametrize(
    "mode,stat", [("point", "softcapT=5"), ("fullrange", "softcapT=5"), ("combination", "sqrt"), ("combination", "capT=5")]
)
def test_cli_subnormal_value_exit_code(tmp_path, capsys, mode, stat):
    tsv = tmp_path / "tiny.tsv"
    tsv.write_text("a\t1.0\nb\t1e-320\nc\t2\n")
    out = tmp_path / "s.fsk"
    assert main(["build", str(tsv), "--mode", mode, "--stat", stat, "--r", "3", "-o", str(out)]) == 2
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()
