"""Property tests: lineage index invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lineage import (
    NO_MATCH,
    GrowableRidIndex,
    RidArray,
    RidIndex,
    compose,
    invert_rid_array,
    invert_rid_index,
)
from repro.lineage.indexes import stable_group_order

#: Group counts on both sides of the uint8 radix of
#: ``stable_group_order`` (<= 2**8) and of 16- and 32-bit ids, which a
#: narrowing that truncated would merge; past 2**8 ids pack with their
#: rids (see :func:`test_packed_key_boundaries` for the key widths).
BOUNDARY_GROUPS = [1, 2, 255, 256, 257, 65_535, 65_536, 65_537, 2**32, 2**32 + 1]

group_ids = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.sampled_from(BOUNDARY_GROUPS[2:8]),
    st.integers(min_value=13, max_value=200_000),
).flatmap(
    lambda g: st.tuples(
        st.just(g),
        st.lists(st.integers(min_value=0, max_value=g - 1), min_size=0, max_size=80),
    )
)

ID_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


@st.composite
def dense_ids(draw):
    """``(ids, num_groups)`` with ids in ``[0, num_groups)`` of any integer
    dtype.  Ids come from a small pool so ties are common, and the pool
    is seeded with values sharing their low 16 bits, which a kernel
    that dropped the ids' high bits would tie."""
    dtype = draw(st.sampled_from(ID_DTYPES))
    limit = int(np.iinfo(dtype).max) + 1
    g = min(
        draw(st.one_of(st.sampled_from(BOUNDARY_GROUPS), st.integers(1, 2**34))),
        limit,
    )
    pool = draw(st.lists(st.integers(0, g - 1), min_size=1, max_size=6))
    pool += [
        v % 65_536 + k * 65_536
        for v in pool[:2]
        for k in (1, 3, 70_000)
        if v % 65_536 + k * 65_536 < g
    ]
    ids = draw(st.lists(st.sampled_from(pool), max_size=150))
    return np.asarray(ids, dtype=dtype), g


@given(dense_ids())
@settings(max_examples=300)
def test_stable_group_order_equals_stable_argsort(data):
    ids, g = data
    order = stable_group_order(ids, g)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.argsort(ids, kind="stable"))


def _packed_case(n: int, g: int, seed: int) -> np.ndarray:
    """``n`` ids below ``g``, tied often, with ``g - 1`` at the last rid so
    the largest packed key ``(g - 1) << bits(n - 1) | n - 1`` occurs."""
    rng = np.random.default_rng(seed)
    pool = np.unique(np.append(rng.integers(0, g, 5, dtype=np.int64), [0, g - 1]))
    ids = rng.choice(pool, n)
    ids[-1] = g - 1
    return ids


@pytest.mark.parametrize(
    "n, g, packed_bits",
    [
        (2**19, 2**13, 32),  # bits(n-1) = 19: uint32 keys
        (2**19, 2**13 + 1, 33),  # one bit more: int64 keys
        (2**19 + 1, 2**12, 32),  # bits(n-1) = 20
        (2**19 + 1, 2**12 + 1, 33),
        (2**10, 2**53, 63),  # the widest int64 key
        (2**10, 2**53 + 1, 64),  # past it: the plain stable argsort
        (2**10 + 1, 2**52, 63),
        (2**10 + 1, 2**52 + 1, 64),
    ],
)
def test_packed_key_boundaries(n, g, packed_bits):
    """Both sides of a packed key of 32 bits (uint32 -> int64) and of 63
    bits (int64 -> the plain stable argsort): a key packed one bit too
    narrow wraps, so the order would differ from the stable argsort's."""
    assert (n - 1).bit_length() + (g - 1).bit_length() == packed_bits
    for seed in range(2):
        ids = _packed_case(n, g, seed)
        order = stable_group_order(ids, g)
        assert order.dtype == np.intp
        assert np.array_equal(order, np.argsort(ids, kind="stable"))
        sorted_ids = np.sort(ids)  # a sorted key skips the sort
        assert np.array_equal(stable_group_order(sorted_ids, g), np.arange(n))


def test_stable_group_order_edges():
    empty = np.empty(0, dtype=np.int64)
    for g in (0, 1, 300, 70_000, 2**33):
        assert stable_group_order(empty, g).size == 0
    single = np.zeros(7, dtype=np.int64)
    for g in (1, 300, 70_000, 2**33):
        assert stable_group_order(single, g).tolist() == list(range(7))


@given(group_ids)
@settings(max_examples=120)
def test_from_group_ids_partitions_rows(data):
    g, ids = data
    ids = np.asarray(ids, dtype=np.int64)
    idx = RidIndex.from_group_ids(ids, g) if ids.size else RidIndex.empty(g)
    # Invariant I2: buckets are disjoint and complete.
    all_rids = np.sort(idx.lookup_many(np.arange(g))) if g else np.empty(0)
    assert np.array_equal(all_rids, np.arange(ids.size))
    assert np.array_equal(idx.counts(), np.bincount(ids, minlength=g))
    for key in np.unique(ids):  # every other bucket is empty (counts above)
        bucket = idx.lookup(int(key))
        assert (ids[bucket] == key).all()
        assert (np.diff(bucket) > 0).all()  # members in rid order


@given(group_ids)
@settings(max_examples=120)
def test_inversion_roundtrip(data):
    g, ids = data
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return
    idx = RidIndex.from_group_ids(ids, g)
    inv = invert_rid_index(idx, ids.size)
    # Invariant I1: o in forward(b) iff b in backward(o).
    for key in np.unique(ids):  # every other bucket is empty
        for rid in idx.lookup(int(key)):
            assert key in inv.lookup(int(rid)).tolist()
    for rid in range(ids.size):
        for key in inv.lookup(rid):
            assert rid in idx.lookup(int(key)).tolist()


@given(
    st.lists(st.integers(min_value=-1, max_value=9), min_size=1, max_size=50)
)
@settings(max_examples=120)
def test_rid_array_inversion_consistency(values):
    arr = RidArray(np.asarray(values, dtype=np.int64))
    inv = invert_rid_array(arr, 10)
    for key, value in enumerate(values):
        if value == NO_MATCH:
            continue
        assert key in inv.lookup(value).tolist()
    total = sum(inv.lookup(k).size for k in range(10))
    assert total == arr.num_edges


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30),
    st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6),
)
@settings(max_examples=120)
def test_compose_equals_pointwise_expansion(na, a_ids, b_vals):
    """compose(a, b) must equal chasing a then b bucket by bucket."""
    a_ids = np.asarray(a_ids, dtype=np.int64) % na  # keep ids in [0, na)
    a = RidIndex.from_group_ids(a_ids, na)  # na keys -> rows of a_ids
    b = RidArray(np.asarray(b_vals, dtype=np.int64))  # 6 keys -> [0, 5)
    # restrict a's values to b's key domain
    if a_ids.size > 0 and a.num_edges:
        a = RidIndex(a.offsets, a.values % 6)
    out = compose(a, b)
    for key in range(na):
        expected = b.lookup_many(a.lookup(key))
        assert np.array_equal(out.lookup(key), expected)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=100),
        ),
        max_size=200,
    )
)
@settings(max_examples=80)
def test_growable_index_equals_dict_model(pairs):
    model = {}
    growable = GrowableRidIndex(8)
    for key, rid in pairs:
        growable.append(key, rid)
        model.setdefault(key, []).append(rid)
    idx = growable.finalize()
    for key in range(8):
        assert idx.lookup(key).tolist() == model.get(key, [])
