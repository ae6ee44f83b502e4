import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from capsketch import (
    Element,
    ElementValidationError,
    RandomnessSource,
    aggregate,
    hash_key,
    hash_keys,
)
from capsketch.core import _C1, _C2, _DRAW_SALT, _GOLDEN, _M64, _RANK_SALT, _mix64, base_ranks, outkey_block, rank_uniforms
from reference import exp_draw, outkey_for, rank_uniform, uniform


def test_element_validation():
    Element(b"k", 1.5)
    with pytest.raises(ElementValidationError):
        Element(b"", 1.0)
    with pytest.raises(ElementValidationError):
        Element(b"k", 0.0)
    with pytest.raises(ElementValidationError):
        Element(b"k", -2.0)
    with pytest.raises(ElementValidationError):
        Element(b"k", float("nan"))
    with pytest.raises(ElementValidationError):
        Element(b"k", float("inf"))


def test_aggregate_basic():
    dist = aggregate([Element(b"a", 1), Element(b"a", 1), Element(b"b", 5)])
    assert dist.entries == {2.0: 1, 5.0: 1}


def test_aggregate_empty():
    dist = aggregate([])
    assert dist.distinct == 0
    assert dist.total == 0.0


def test_aggregate_toy(toy_elements):
    dist = aggregate(toy_elements)
    assert dist.distinct == 13
    assert dist.total == 30.0
    assert dist.max_weight == 10.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([b"a", b"b", b"c", b"d"]), st.floats(0.01, 10.0)),
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_aggregate_order_invariant(pairs, rnd):
    els = [Element(k, v) for k, v in pairs]
    shuffled = list(els)
    rnd.shuffle(shuffled)
    assert aggregate(els).entries == aggregate(shuffled).entries


def test_exp_draw_values():
    assert exp_draw(1 / math.e, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert exp_draw(1 / math.e, 2.0) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        exp_draw(0.5, 0.0)
    with pytest.raises(ValueError):
        exp_draw(0.5, -1.0)
    with pytest.raises(ValueError):
        exp_draw(0.5, float("inf"))
    with pytest.raises(ValueError):
        exp_draw(0.5, float("nan"))


def test_exp_draw_monte_carlo_mean():
    src = RandomnessSource(123)
    u = src.uniform_block(np.arange(1_000_000, dtype=np.uint64), 1)[:, 0]
    draws = exp_draw(u, 5.0)
    # Exp(5) has mean 0.2 and sd 0.2; the sample mean sd is 0.2/1000
    assert abs(draws.mean() - 0.2) < 3 * 0.2 / 1000


def test_exp_draw_kolmogorov_smirnov():
    src = RandomnessSource(7)
    u = src.uniform_block(np.arange(100_000, dtype=np.uint64), 1)[:, 0]
    draws = exp_draw(u, 2.5)
    res = stats.kstest(draws, "expon", args=(0.0, 1 / 2.5))
    assert res.pvalue > 1e-3


def test_randomness_determinism():
    a = RandomnessSource(42)
    b = RandomnessSource(42)
    assert uniform(a, 5, 3) == uniform(b, 5, 3)
    assert uniform(a, 5, 3) != uniform(a, 5, 4)
    assert uniform(a, 5, 3) != uniform(a, 6, 3)
    assert uniform(RandomnessSource(43), 5, 3) != uniform(a, 5, 3)


def test_uniform_block_matches_scalar():
    src = RandomnessSource(99)
    ords = np.array([0, 1, 17, 2**40], dtype=np.uint64)
    block = src.uniform_block(ords, 4)
    for row, o in enumerate(ords):
        for i in range(4):
            assert block[row, i] == uniform(src, int(o), i)
    assert np.all(block > 0.0) and np.all(block < 1.0)
    # an array of replica indices pairs with the ordinals by broadcasting
    pairs = src.uniform_block(ords, np.array([3, 0, 2, 1], dtype=np.uint64))
    assert pairs.tolist() == [block[0, 3], block[1, 0], block[2, 2], block[3, 1]]


def test_hash_and_outkeys():
    assert hash_key(b"abc") == hash_key(b"abc")
    assert hash_key(b"abc") != hash_key(b"abd")
    keys = [b"k%d" % i for i in range(100)]
    k64 = hash_keys(keys)
    assert len(set(int(x) for x in k64)) == 100
    block = outkey_block(k64, 5)
    for row in range(100):
        for i in range(5):
            assert int(block[row, i]) == outkey_for(int(k64[row]), i)
    # replicas of one key and same replica of different keys never collide here
    assert len({int(x) for x in block.ravel()}) == 500


def test_rank_uniform_consistency():
    oks = np.array([1, 2, 3, 2**63], dtype=np.uint64)
    vec = rank_uniforms(oks, seed=11)
    for o, u in zip(oks, vec):
        assert rank_uniform(int(o), 11) == u
    assert np.all(vec > 0) and np.all(vec < 1)
    assert not np.allclose(vec, rank_uniforms(oks, seed=12))


def _unmix64(z: int) -> int:
    """The inverse of :func:`_mix64`: each xorshift and odd product undone."""

    def unshift(z, s):
        out = z
        for _ in range(64 // s):
            out = z ^ (out >> s)
        return out

    z = unshift(z, 31)
    z = unshift((z * pow(_C2, -1, 1 << 64)) & _M64, 27)
    return unshift((z * pow(_C1, -1, 1 << 64)) & _M64, 30)


def test_top_hash_gives_a_uniform_below_one():
    # a hash whose top 53 bits are all ones rounds to u = 1.0, whose draw and
    # rank -ln(u) would be -0.0; it is clamped to the largest float below 1
    top, below_one = _M64, 1.0 - 2.0**-53
    assert _mix64(_unmix64(top)) == top
    seed = 7
    src = RandomnessSource(seed)
    # replica 0 mixes in nothing, so entry (ordinal, 0) is mix(mix(ordinal * GOLDEN ^ chain))
    ordinal = ((_unmix64(_unmix64(top)) ^ _mix64(seed ^ _DRAW_SALT)) * pow(_GOLDEN, -1, 1 << 64)) & _M64
    block = src.uniform_block(np.array([ordinal, 1], dtype=np.uint64), 2)
    assert block[0, 0] == below_one == uniform(src, ordinal, 0)
    assert block[1].tolist() == [uniform(src, 1, 0), uniform(src, 1, 1)]
    outkey = _unmix64(top) ^ _mix64((seed + _RANK_SALT) & _M64)
    oks = np.array([outkey, 3], dtype=np.uint64)
    u = rank_uniforms(oks, seed)
    assert u[0] == below_one == rank_uniform(outkey, seed)
    ranks = base_ranks(oks, seed)
    assert ranks[0] == -np.log(below_one) > 0.0 and not np.signbit(ranks).any()
    assert np.all(-np.log(block) > 0.0)


def _word_inputs():
    """The same 64-bit words as a uint64 array, a uint64 view of int64 words
    and a non-contiguous slice of a wider array."""
    words = np.array([0, 1, 17, 2**40, 2**63, 2**64 - 1, 12345678901234567, 2**32 + 5], dtype=np.uint64)
    wide = np.zeros((len(words), 3), dtype=np.uint64)
    wide[:, 1] = words
    return {
        "uint64": words.copy(),
        "int64 view": words.view(np.int64).copy().view(np.uint64),
        "strided": wide[:, 1],
    }


@pytest.mark.parametrize("form", ["uint64", "int64 view", "strided"])
def test_primitives_leave_their_inputs_unchanged(form):
    # the hashes mix fresh arrays in place: never an array the caller passed
    words = _word_inputs()["uint64"]
    x = _word_inputs()[form]
    reps = _word_inputs()[form] % np.uint64(7)
    before = (x.tobytes(), reps.tobytes())
    src = RandomnessSource(5)
    got = [
        outkey_block(x, 6),
        rank_uniforms(x, 3),
        base_ranks(x, 3),
        src.uniform_block(x, 4),
        src.uniform_block(x, reps),
    ]
    assert (x.tobytes(), reps.tobytes()) == before
    reps_want = words % np.uint64(7)
    want = [
        outkey_block(words, 6),
        rank_uniforms(words, 3),
        base_ranks(words, 3),
        src.uniform_block(words, 4),
        src.uniform_block(words, reps_want),
    ]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert got[4].tolist() == [uniform(src, int(o), int(i)) for o, i in zip(words, reps_want)]
