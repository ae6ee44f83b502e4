import functools
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from capsketch import (
    CoefficientFunction,
    CombinationPipeline,
    Element,
    FrequencyDistribution,
    FullRangePipeline,
    IllPosedTransformError,
    IncompatibleSketchError,
    MapperConfig,
    ParseError,
    PointPipeline,
    SignedCoefficientFunction,
    SignedCombinationPipeline,
    StatisticSpec,
    cap1_approximation,
    capping_transform,
    hash_key,
    inverse_transform,
    laplace_c,
    lift_cap1_to_f,
    measured_function,
    signed_estimate,
    THREE_POINT_STABLE,
)
from capsketch.oracle import exact_measurement
from capsketch.sketchfile import unpack
from reference import combination_batch


def _hash_elements(els):
    k64 = np.array([hash_key(e.key) for e in els], dtype=np.uint64)
    vals = np.array([e.value for e in els], dtype=np.float64)
    return k64, vals


def _random_elements(rng, n, n_keys, lo=0.5, hi=2.0):
    return [
        Element(b"k%d" % int(rng.integers(0, n_keys)), float(rng.uniform(lo, hi)))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# point pipeline


def test_point_empty_input():
    p = PointPipeline(t=0.5, r=3, epsilon=0.1, k=16, seed=0)
    assert p.estimate() == 0.0


def test_point_fallback_branch():
    # distinct estimate below 3/eps^2 returns exactly t * SUM
    p = PointPipeline(t=0.25, r=1, epsilon=0.1, k=64, seed=0)
    for e in [Element(b"a", 2.0), Element(b"b", 3.0)]:
        p.ingest(e)
    assert p.counter.estimate() < p.gate
    assert p.estimate() == 0.25 * 5.0


def test_point_exact_regime(toy_elements):
    # at a huge threshold every replica fires, so with exact counting the
    # estimate equals the number of distinct keys exactly
    p = PointPipeline(t=1e3, r=50, epsilon=0.15, k=10_000, seed=1)
    k64, vals = _hash_elements(toy_elements)
    p.ingest_batch(k64, vals)
    assert p.counter.estimate() == 13 * 50
    assert p.estimate() == 13.0


@pytest.mark.parametrize("n", [0, 3])
def test_point_at_inf_equals_full_range_at_inf(n):
    # at t = inf every replica fires and the full-range sketch holds every
    # draw, so both answer from the sketch: 0 when empty, the distinct keys
    # otherwise (t * SUM would be inf * 0, or inf)
    k64, vals = _hash_elements([Element(b"k%d" % i, 1.0) for i in range(n)])
    p = PointPipeline(math.inf, r=1, epsilon=0.1, k=100, seed=0)
    fr = FullRangePipeline(r=1, epsilon=0.1, k=100, seed=0)
    for pipe in (p, fr):
        pipe.ingest_batch(k64, vals)
    assert p.estimate() == fr.estimate_at(math.inf) == float(n)


def test_point_scalar_batch_equivalence(toy_elements):
    a = PointPipeline(t=1.0, r=7, epsilon=0.5, k=32, seed=9)
    for e in toy_elements:
        a.ingest(e)
    b = PointPipeline(t=1.0, r=7, epsilon=0.5, k=32, seed=9)
    k64, vals = _hash_elements(toy_elements)
    b.ingest_batch(k64, vals)
    assert a.to_bytes() == b.to_bytes()
    assert a.estimate() == b.estimate()


def test_point_merge_requires_matching_config(toy_elements):
    a = PointPipeline(t=1.0, r=7, epsilon=0.5, k=32, seed=9)
    with pytest.raises(IncompatibleSketchError, match="t"):
        a.merge(PointPipeline(t=2.0, r=7, epsilon=0.5, k=32, seed=9))
    with pytest.raises(IncompatibleSketchError, match="seed"):
        a.merge(PointPipeline(t=1.0, r=7, epsilon=0.5, k=32, seed=8))


def test_point_merge_equals_single_pass(toy_elements):
    full = PointPipeline(t=0.7, r=5, epsilon=0.4, k=64, seed=2)
    for e in toy_elements:
        full.ingest(e)
    a = PointPipeline(t=0.7, r=5, epsilon=0.4, k=64, seed=2, ordinal_base=0)
    b = PointPipeline(t=0.7, r=5, epsilon=0.4, k=64, seed=2, ordinal_base=6)
    for e in toy_elements[:6]:
        a.ingest(e)
    for e in toy_elements[6:]:
        b.ingest(e)
    merged = a.merge(b)
    assert merged.counter.to_bytes() == full.counter.to_bytes()
    assert merged.estimate() == full.estimate()


def test_merged_count_past_the_last_u64_is_refused():
    # a file header stores the count as u64; the merge refuses what it cannot store
    a, b = FullRangePipeline(r=3, epsilon=0.5, k=8), FullRangePipeline(r=3, epsilon=0.5, k=8)
    a.count, b.count = 2**64 - 2, 1
    assert a.merge(b).count == 2**64 - 1
    with pytest.raises(IncompatibleSketchError, match=str(2**64)):
        a.merge(b, b)


@pytest.mark.xfail(strict=True, reason="shards at the same ordinal base share their draws")
def test_merge_of_shards_at_one_ordinal_base_is_unbiased():
    # Two shards each hold key x once, both at the default ordinal base 0.
    # The union holds x at weight 2, so the transform at t=0.5 is 1 - e^-1;
    # identical draws make the merge measure weight 1 (1 - e^-0.5, 0.393).
    estimates = []
    for seed in range(200):
        a, b = (PointPipeline(t=0.5, r=400, epsilon=0.5, k=1000, seed=seed) for _ in range(2))
        a.ingest(Element(b"x", 1.0))
        b.ingest(Element(b"x", 1.0))
        estimates.append(a.merge(b).estimate())
    # each estimate has a standard deviation of about 0.024, their mean 0.0017
    assert np.mean(estimates) == pytest.approx(1.0 - math.exp(-1.0), abs=0.01)


def test_soft_cap_estimate_wiring(toy_dist, toy_elements):
    T = 2.0
    p = PointPipeline(1 / T, r=80, epsilon=0.3, k=5000, seed=4)
    k64, vals = _hash_elements(toy_elements)
    p.ingest_batch(k64, vals)
    truth = T * laplace_c(toy_dist, 1 / T)
    assert T * p.estimate() == pytest.approx(truth, rel=0.15)


def test_soft_cap_huge_scale_returns_sum(toy_elements):
    # T so large that 1/T is far below the relevant range: the fallback
    # returns t * SUM and the statistic is T * t * SUM = SUM
    T = float(2**40)
    p = PointPipeline(1 / T, r=1, epsilon=0.1, k=64, seed=0)
    for e in toy_elements:
        p.ingest(e)
    assert T * p.estimate() == 30.0


# ---------------------------------------------------------------------------
# combination pipeline


def sidelined(p):
    """The sidelined keys and draws of a combination pipeline, in its (draw, outkey) order."""
    return p.sidelined_keys.tolist(), p.sidelined_draws.tolist()


def test_combination_degenerate_all_sidelined():
    a = inverse_transform("sqrt")
    p = CombinationPipeline(a, r=2, epsilon=0.5, k=64, seed=3)  # ell = 12
    els = [Element(b"a", 1.0), Element(b"b", 2.0)]
    for e in els:
        p.ingest(e)
    assert len(p.sidelined_keys) == 4  # 2 elements x r=2 outkeys, all sidelined
    tau = p.tau()
    assert tau == p.sidelined_draws.max()
    expected = len(p.sidelined_keys) * float(a.tail(tau)) / 2 + 3.0 * float(a.head(tau))
    assert p.estimate() == pytest.approx(expected, rel=1e-12)


def test_combination_empty():
    p = CombinationPipeline(inverse_transform("sqrt"), r=2, epsilon=0.5, k=16, seed=0)
    assert p.estimate() == 0.0


def test_combination_rejects_divergent_head():
    bad = inverse_transform(StatisticSpec("softcap", {"T": 1.0}))  # fine
    CombinationPipeline(bad, r=1, epsilon=0.5, k=8, seed=0)
    with pytest.raises(TypeError):
        CombinationPipeline("sqrt", r=1, epsilon=0.5, k=8, seed=0)
    divergent = CoefficientFunction(deltas=((0.25, math.inf),))
    with pytest.raises(ValueError, match="finite head"):
        CombinationPipeline(divergent, r=1, epsilon=0.5, k=8, seed=0)
    # a signed pipeline checks each of its parts, and needs a negative one
    tp = cap1_approximation(**THREE_POINT_STABLE)
    with pytest.raises(TypeError):
        SignedCombinationPipeline(SimpleNamespace(plus="sqrt", minus=tp.minus), r=1, epsilon=0.5, k=8, seed=0)
    # a divergent part is refused where the signed function is made
    with pytest.raises(IllPosedTransformError):
        SignedCoefficientFunction(divergent, tp.minus)
    soft = SignedCoefficientFunction(CoefficientFunction(deltas=((1.0, 1.0),)), CoefficientFunction())
    with pytest.raises(ValueError, match="negative part"):
        SignedCombinationPipeline(soft, r=1, epsilon=0.5, k=8, seed=0)


def test_combination_fixed_cutoff_unbiased():
    # exact-count measurement at a fixed cutoff: the mean over seeds matches
    # the tail integral of the coefficient against the transform (quadrature)
    weights = np.concatenate([np.ones(900), np.full(90, 5.0), np.full(10, 20.0)])
    dist = FrequencyDistribution.from_pairs([1.0, 5.0, 20.0], [900, 90, 10])
    a = inverse_transform("sqrt")
    (fam,) = a.parts
    tau = 0.05
    # E[tail(max(tau, y))] per key is the tail integral of the coefficient
    # against 1 - exp(-w t); summing over keys gives the transform integral
    target, _ = integrate.quad(
        lambda t: fam.density(t) * laplace_c(dist, t), tau, np.inf, limit=600
    )
    k64 = np.array([hash_key(b"%d" % i) for i in range(1000)], dtype=np.uint64)
    ords = np.arange(1000, dtype=np.uint64)
    r, seeds = 2, 400
    ms = np.empty(seeds)
    for s in range(seeds):
        cfg = MapperConfig(r=r, seed=s)
        ok, vv = combination_batch(k64, weights, cfg, ords, a, tau=tau)
        ms[s] = exact_measurement((ok, vv), "max_distinct") / r
    se = ms.std(ddof=1) / math.sqrt(seeds)
    assert abs(ms.mean() - target) < 4 * se


@pytest.mark.parametrize("signed", [False, True])
def test_one_merge_of_many_combination_shards(signed):
    # one merge of 4 shards keeps the fold's and the single pass's sidelined
    # keys and estimate, and its bytes do not depend on the order of its inputs
    if signed:
        a, cls = cap1_approximation(**THREE_POINT_STABLE), SignedCombinationPipeline
    else:
        a, cls = inverse_transform(StatisticSpec("moment", {"p": 0.5})), CombinationPipeline
    els = _random_elements(np.random.default_rng(8), 400, 70)
    k64, vals = _hash_elements(els)
    single = cls(a, r=3, epsilon=0.35, k=32, seed=5)
    single.ingest_batch(k64, vals)
    cuts = [0, 90, 200, 260, 400]
    shards = []
    for lo, hi in zip(cuts, cuts[1:]):
        shards.append(cls(a, r=3, epsilon=0.35, k=32, seed=5, ordinal_base=lo))
        shards[-1].ingest_batch(k64[lo:hi], vals[lo:hi])
    one = shards[0].merge(*shards[1:])
    fold = functools.reduce(lambda x, y: x.merge(y), shards)
    assert len(one.max_sketches) == (2 if signed else 1)
    assert sidelined(one) == sidelined(fold) == sidelined(single)
    assert (one.count, one.ordinal_base) == (400, 0)
    assert one.estimate() == fold.estimate() == single.estimate()
    blob = one.to_bytes()
    for order in itertools.permutations(shards):
        assert order[0].merge(*order[1:]).to_bytes() == blob


def test_combination_merge_and_batch_equivalence():
    rng = np.random.default_rng(8)
    els = _random_elements(rng, 400, 70)
    a = inverse_transform(StatisticSpec("moment", {"p": 0.5}))
    single = CombinationPipeline(a, r=3, epsilon=0.35, k=32, seed=5)
    for e in els:
        single.ingest(e)
    left = CombinationPipeline(a, r=3, epsilon=0.35, k=32, seed=5, ordinal_base=0)
    right = CombinationPipeline(a, r=3, epsilon=0.35, k=32, seed=5, ordinal_base=150)
    for e in els[:150]:
        left.ingest(e)
    for e in els[150:]:
        right.ingest(e)
    merged = left.merge(right)
    assert sidelined(merged) == sidelined(single)
    assert merged.estimate() == single.estimate()
    twin = CombinationPipeline(a, r=3, epsilon=0.35, k=32, seed=5)
    k64, vals = _hash_elements(els)
    twin.ingest_batch(k64, vals)
    assert sidelined(twin) == sidelined(single)
    assert twin.estimate() == single.estimate()


def test_combination_estimate_is_repeatable():
    rng = np.random.default_rng(3)
    els = _random_elements(rng, 100, 30)
    p = CombinationPipeline(inverse_transform("log1p"), r=2, epsilon=0.4, k=16, seed=1)
    for e in els:
        p.ingest(e)
    first = p.estimate()
    assert p.estimate() == first  # finalize never mutates
    p.ingest(Element(b"new", 1.0))
    assert p.count == 101


def test_combination_accuracy_sqrt():
    rng = np.random.default_rng(10)
    els = _random_elements(rng, 3000, 300, lo=0.5, hi=4.0)
    from capsketch import aggregate
    from capsketch.oracle import exact_statistic

    truth = exact_statistic(aggregate(els), StatisticSpec("sqrt"))
    p = CombinationPipeline(inverse_transform("sqrt"), r=20, epsilon=0.1, k=100_000, seed=6)
    k64, vals = _hash_elements(els)
    p.ingest_batch(k64, vals)
    assert p.estimate() == pytest.approx(truth, rel=0.1)


# ---------------------------------------------------------------------------
# full-range pipeline


def test_full_range_point_coupling(toy_elements):
    fr = FullRangePipeline(r=5, epsilon=0.9, k=16, seed=11)
    for e in toy_elements:
        fr.ingest(e)
    for t in [0.05, 0.3, 1.0, 5.0, 100.0]:
        pp = PointPipeline(t=t, r=5, epsilon=0.9, k=16, seed=11)
        for e in toy_elements:
            pp.ingest(e)
        assert fr.estimate_at(t) == pp.estimate()


def test_full_range_exact_above_all_draws():
    els = [Element(b"k%d" % i, 1.0) for i in range(9)]
    fr = FullRangePipeline(r=2, epsilon=0.1, k=64, seed=3)
    for e in els:
        fr.ingest(e)
    # unsaturated sketch, threshold above every draw: exact count / r
    assert fr.estimate_at(math.inf) == 9.0
    assert fr.estimate_at(0.0) == 0.0


def test_full_range_combination_delta_equals_threshold_query(toy_elements):
    fr = FullRangePipeline(r=4, epsilon=0.6, k=32, seed=7)
    k64, vals = _hash_elements(toy_elements)
    fr.ingest_batch(k64, vals)
    T = 2.0
    a = inverse_transform(StatisticSpec("softcap", {"T": T}))
    # the route of `capsketch estimate --stat softcapT=T`
    assert fr.estimate_combination(a) == T * fr.estimate_at(1.0 / T)


def test_full_range_combination_continuous_matches_direct_integration():
    rng = np.random.default_rng(13)
    els = _random_elements(rng, 500, 120)
    fr = FullRangePipeline(r=3, epsilon=0.2, k=100_000, seed=2)
    k64, vals = _hash_elements(els)
    fr.ingest_batch(k64, vals)
    a = inverse_transform("sqrt")
    got = fr.estimate_combination(a)
    # reference: integrate the step profile by brute force between breakpoints,
    # applying the same fallback rule
    ys = fr.threshold_sketch.breakpoints()
    raw = fr.threshold_sketch.estimate_all(ys)
    start = int(np.nonzero(raw >= fr.gate)[0][0])
    ref = fr.sum_counter.value() * float(a.head(ys[start]))
    for j in range(start, len(ys)):
        hi = ys[j + 1] if j + 1 < len(ys) else math.inf
        seg, _ = integrate.quad(a.parts[0].density, ys[j], hi, limit=400)
        ref += raw[j] / fr.r * seg
    assert got == pytest.approx(ref, rel=1e-7)


def test_full_range_merge(toy_elements):
    full = FullRangePipeline(r=3, epsilon=0.4, k=16, seed=5)
    for e in toy_elements:
        full.ingest(e)
    a = FullRangePipeline(r=3, epsilon=0.4, k=16, seed=5, ordinal_base=0)
    b = FullRangePipeline(r=3, epsilon=0.4, k=16, seed=5, ordinal_base=4)
    for e in toy_elements[:4]:
        a.ingest(e)
    for e in toy_elements[4:]:
        b.ingest(e)
    merged = a.merge(b)
    assert merged.to_bytes() == full.to_bytes()


# ---------------------------------------------------------------------------
# signed estimation


def test_signed_estimate_passthrough_and_clamp():
    nonneg = SignedCoefficientFunction(CoefficientFunction(deltas=((1.0, 1.0),)), CoefficientFunction())
    est = signed_estimate(5.0, 0.0, nonneg, 0.1)
    assert est.value == 5.0 and est.rho == 1.0 and not est.clamped
    assert est.error_bound == pytest.approx(0.2)
    tp = cap1_approximation(**THREE_POINT_STABLE)
    est = signed_estimate(1.0, 2.5, tp, 0.1)
    assert est.clamped and est.value == 0.0 and est.raw == -1.5
    assert est.error_bound == pytest.approx(tp.rho_bound * 0.2)


def test_signed_exact_measurement_cap1(toy_dist):
    # exact component measurements: the error is the approximation error alone
    tp = cap1_approximation(**THREE_POINT_STABLE)
    ws, cs = toy_dist.arrays()
    plus = float(np.dot(cs, tp.plus.lapm(ws)))
    minus = float(np.dot(cs, tp.minus.lapm(ws)))
    est = signed_estimate(plus, minus, tp, 0.0)
    truth = float(np.dot(cs, np.minimum(1.0, ws)))
    assert truth == 13.0
    assert abs(est.value - truth) / truth <= 0.14


def test_signed_exact_measurement_lifted_cap5(toy_dist):
    tp = cap1_approximation(**THREE_POINT_STABLE)
    lifted = lift_cap1_to_f(capping_transform(StatisticSpec("cap", {"T": 5.0})), tp)
    ws, cs = toy_dist.arrays()
    plus = float(np.dot(cs, lifted.plus.lapm(ws)))
    minus = float(np.dot(cs, lifted.minus.lapm(ws)))
    est = signed_estimate(plus, minus, lifted, 0.0)
    truth = float(np.dot(cs, np.minimum(5.0, ws)))
    assert truth == 25.0
    assert abs(est.value - truth) / truth <= 0.14


def test_signed_pipeline_certificate_holds():
    rng = np.random.default_rng(21)
    els = _random_elements(rng, 1500, 200, lo=0.2, hi=3.0)
    tp = cap1_approximation(**THREE_POINT_STABLE)
    pipe = SignedCombinationPipeline(tp, r=10, epsilon=0.2, k=50_000, seed=3)
    k64, vals = _hash_elements(els)
    pipe.ingest_batch(k64, vals)
    est = pipe.estimate()
    # exact component values over the aggregated weights
    from capsketch import aggregate

    ws, cs = aggregate(els).arrays()
    f_plus = float(np.dot(cs, tp.plus.lapm(ws)))
    f_minus = float(np.dot(cs, tp.minus.lapm(ws)))
    f_signed = f_plus - f_minus
    # each part's estimate is that of a combination pipeline of the part alone
    parts = [CombinationPipeline(f, r=10, epsilon=0.2, k=50_000, seed=3) for f in (tp.plus, tp.minus)]
    for part in parts:
        part.ingest_batch(k64, vals)
    plus, minus = (part.estimate() for part in parts)
    assert est.raw == plus - minus
    eps_p = abs(plus - f_plus) / f_plus
    eps_m = abs(minus - f_minus) / f_minus
    assert abs(est.value - f_signed) / f_signed <= tp.rho_bound * (eps_p + eps_m) + 1e-9


def test_signed_pipeline_round_trip_and_merge():
    rng = np.random.default_rng(30)
    els = _random_elements(rng, 200, 50)
    tp = cap1_approximation(**THREE_POINT_STABLE)
    pipe = SignedCombinationPipeline(tp, r=2, epsilon=0.4, k=32, seed=3)
    k64, vals = _hash_elements(els)
    pipe.ingest_batch(k64, vals)
    blob = pipe.to_bytes()
    back = SignedCombinationPipeline.from_bytes(blob, tp)
    assert back.to_bytes() == blob
    assert back.estimate() == pipe.estimate()

    left = SignedCombinationPipeline(tp, r=2, epsilon=0.4, k=32, seed=3, ordinal_base=0)
    right = SignedCombinationPipeline(tp, r=2, epsilon=0.4, k=32, seed=3, ordinal_base=120)
    left.ingest_batch(k64[:120], vals[:120])
    right.ingest_batch(k64[120:], vals[120:])
    assert left.merge(right).estimate() == pipe.estimate()


def test_rebuilt_signed_function_carries_its_own_certificate():
    # a signed function made from the parts of capT=5's measured function is
    # that function, certificate included: rho 2.5, error bound 2.5 * 2 * 0.1
    a = measured_function("capT=5")
    rebuilt = SignedCoefficientFunction(a.plus, a.minus)
    assert rebuilt == a
    assert rebuilt.rho_bound == 2.5
    with pytest.raises(TypeError):
        SignedCoefficientFunction(a.plus, a.minus, 1.0)
    els = _random_elements(np.random.default_rng(4), 300, 60)
    k64, vals = _hash_elements(els)
    estimates = []
    for f in (a, rebuilt):
        pipe = SignedCombinationPipeline(f, r=2, epsilon=0.1, k=32, seed=1)
        pipe.ingest_batch(k64, vals)
        estimates.append(pipe.estimate())
    assert estimates[0] == estimates[1]
    assert estimates[1].rho == a.rho_bound
    assert estimates[1].error_bound == pytest.approx(a.rho_bound * 0.2)


@pytest.mark.parametrize("r", [0, -1, 0.5])
def test_every_pipeline_refuses_replication_below_one(r):
    for make in (
        lambda: PointPipeline(1.0, r=r, epsilon=0.5, k=8),
        lambda: CombinationPipeline(inverse_transform("sqrt"), r=r, epsilon=0.5, k=8),
        lambda: SignedCombinationPipeline(cap1_approximation(**THREE_POINT_STABLE), r=r, epsilon=0.5, k=8),
        lambda: FullRangePipeline(r=r, epsilon=0.5, k=8),
    ):
        with pytest.raises(ValueError, match="replication r"):
            make()


@pytest.mark.parametrize("k", [1, 0])
def test_every_pipeline_refuses_sketch_size_below_two(k):
    # every bottom-k estimate is (k-1)/..., which reads 0 at k = 1
    for make in (
        lambda: PointPipeline(1.0, r=3, epsilon=0.5, k=k),
        lambda: CombinationPipeline(inverse_transform("sqrt"), r=3, epsilon=0.5, k=k),
        lambda: SignedCombinationPipeline(cap1_approximation(**THREE_POINT_STABLE), r=3, epsilon=0.5, k=k),
        lambda: FullRangePipeline(r=3, epsilon=0.5, k=k),
    ):
        with pytest.raises(ValueError, match="sketch size k"):
            make()


def test_pipeline_serialization_round_trips(toy_elements):
    k64, vals = _hash_elements(toy_elements)
    p = PointPipeline(t=0.5, r=3, epsilon=0.2, k=32, seed=1)
    p.ingest_batch(k64, vals)
    assert PointPipeline.from_bytes(p.to_bytes(), p.t).to_bytes() == p.to_bytes()
    a = inverse_transform("log1p")
    c = CombinationPipeline(a, r=3, epsilon=0.4, k=32, seed=1)
    c.ingest_batch(k64, vals)
    assert CombinationPipeline.from_bytes(c.to_bytes(), a).to_bytes() == c.to_bytes()
    f = FullRangePipeline(r=3, epsilon=0.4, k=32, seed=1)
    f.ingest_batch(k64, vals)
    back = FullRangePipeline.from_bytes(f.to_bytes())
    assert back.to_bytes() == f.to_bytes()
    assert back.estimate_at(1.0) == f.estimate_at(1.0)


def test_counted_file_without_sidelined_keys_is_refused():
    # too few elements to fill the max-distinct sketch, so only the element
    # count shows that an empty sidelined section was never written
    a = inverse_transform("sqrt")
    pipe = CombinationPipeline(a, r=1, epsilon=0.5, k=8)
    pipe.ingest(Element(b"x", 2.0))
    header, sections = unpack(pipe.to_bytes())
    assert len(pipe.max_sketches[0]) == 0 and header.count == 1
    with pytest.raises(ParseError, match="sidelined"):
        CombinationPipeline.from_sections(header, [b"", *sections[1:]], a)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    signed=st.booleans(),
    epsilon=st.sampled_from([0.5, 0.7, 0.9]),
    r=st.integers(1, 5),
    k=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_written_combination_file_reads_back(data, signed, epsilon, r, k, seed):
    # shards built over random batch splits at consistent ordinal bases, and
    # their one-call merge, pass the read checks and write the same bytes
    # back; ell = ceil(3/epsilon^2) is at most 12, so the max-distinct sketch fills
    if signed:
        cls, a = SignedCombinationPipeline, cap1_approximation(**THREE_POINT_STABLE)
    else:
        cls, a = CombinationPipeline, inverse_transform("sqrt")
    rows = data.draw(st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0.25, 1.0, 3.5, 40.0])), max_size=150))
    k64 = np.array([hash_key(b"k%d" % key) for key, _ in rows], dtype=np.uint64)
    vals = np.array([value for _, value in rows], dtype=np.float64)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    shards = []
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        pipe = cls(a, r, epsilon, k, seed, ordinal_base=lo)
        splits = sorted(data.draw(st.lists(st.integers(lo, hi), max_size=4)))
        for b_lo, b_hi in zip([lo, *splits], [*splits, hi]):
            pipe.ingest_batch(k64[b_lo:b_hi], vals[b_lo:b_hi])
        shards.append(pipe)
    for pipe in (*shards, shards[0].merge(*shards[1:])):
        blob = pipe.to_bytes()
        assert cls.from_bytes(blob, a).to_bytes() == blob
