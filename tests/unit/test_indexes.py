"""Lineage index representations: rid arrays, rid indexes, composition."""

import numpy as np
import pytest

from repro.errors import LineageError
from repro.lineage import (
    NO_MATCH,
    GrowableRidIndex,
    RidArray,
    RidIndex,
    compose,
    invert_rid_array,
    invert_rid_index,
)


class TestRidArray:
    def test_identity(self):
        arr = RidArray.identity(4)
        assert arr.lookup_many([0, 3]).tolist() == [0, 3]

    def test_no_match_dropped_in_lookup(self):
        arr = RidArray(np.array([5, NO_MATCH, 7]))
        assert arr.lookup_many([0, 1, 2]).tolist() == [5, 7]
        assert arr.lookup(1).size == 0

    def test_num_edges_excludes_no_match(self):
        arr = RidArray(np.array([NO_MATCH, 1, NO_MATCH]))
        assert arr.num_edges == 1

    def test_out_of_range_lookup(self):
        arr = RidArray.identity(3)
        with pytest.raises(LineageError):
            arr.lookup(3)
        with pytest.raises(LineageError):
            arr.lookup_many([-1])

    def test_as_csr_consistency(self):
        arr = RidArray(np.array([4, NO_MATCH, 6]))
        offsets, values = arr.as_csr()
        assert offsets.tolist() == [0, 1, 1, 2]
        assert values.tolist() == [4, 6]

    def test_counts(self):
        arr = RidArray(np.array([4, NO_MATCH]))
        assert arr.counts().tolist() == [1, 0]

    def test_equality(self):
        assert RidArray.identity(3) == RidArray(np.arange(3))
        assert RidArray.identity(3) != RidArray.identity(4)


class TestRidIndex:
    def test_from_buckets(self):
        idx = RidIndex.from_buckets([np.array([1, 2]), np.array([]), np.array([5])])
        assert idx.lookup(0).tolist() == [1, 2]
        assert idx.lookup(1).tolist() == []
        assert idx.lookup(2).tolist() == [5]
        assert idx.num_edges == 3

    def test_from_group_ids_orders_within_group(self):
        ids = np.array([1, 0, 1, 0, 1])
        idx = RidIndex.from_group_ids(ids, 2)
        assert idx.lookup(0).tolist() == [1, 3]
        assert idx.lookup(1).tolist() == [0, 2, 4]

    @pytest.mark.parametrize("bad_id", [2, 257, 65_537, -1])
    def test_from_group_ids_rejects_ids_before_narrowing(self, bad_id):
        # Each bad id would wrap into a valid group once narrowed to
        # uint8/uint16; the count must reject it first.
        with pytest.raises(LineageError, match="group id"):
            RidIndex.from_group_ids(np.array([0, 1, bad_id, 1]), 2)

    def test_lookup_many_concatenates_bags(self):
        idx = RidIndex.from_buckets([np.array([1]), np.array([2, 3])])
        assert idx.lookup_many([1, 0, 1]).tolist() == [2, 3, 1, 2, 3]

    def test_lookup_many_vectorized_matches_loop(self, rng):
        ids = rng.integers(0, 50, 500)
        idx = RidIndex.from_group_ids(ids, 50)
        keys = rng.integers(0, 50, 40)
        expected = np.concatenate([idx.lookup(int(k)) for k in keys])
        assert np.array_equal(idx.lookup_many(keys), expected)

    def test_csr_validation(self):
        with pytest.raises(LineageError):
            RidIndex(np.array([0, 2]), np.array([1]))

    def test_empty(self):
        idx = RidIndex.empty(3)
        assert idx.num_keys == 3 and idx.num_edges == 0
        assert idx.lookup_many([0, 1, 2]).size == 0

    def test_out_of_range(self):
        idx = RidIndex.empty(2)
        with pytest.raises(LineageError):
            idx.lookup(2)
        with pytest.raises(LineageError):
            idx.lookup_many([5])

    def test_memory_accounting(self):
        idx = RidIndex.from_buckets([np.arange(10)])
        assert idx.memory_bytes() == idx.offsets.nbytes + idx.values.nbytes


class TestGrowableRidIndex:
    def test_append_and_finalize(self):
        g = GrowableRidIndex(3)
        g.append(2, 7)
        g.append(0, 1)
        g.append(2, 8)
        idx = g.finalize()
        assert idx.lookup(2).tolist() == [7, 8]
        assert idx.lookup(1).tolist() == []

    def test_untouched_buckets_cost_nothing(self):
        g = GrowableRidIndex(1000)
        g.append(0, 1)
        assert g.total_resizes == 0

    def test_capacities_prevent_resizes(self):
        caps = np.full(2, 100, dtype=np.int64)
        g = GrowableRidIndex(2, capacities=caps)
        for i in range(100):
            g.extend(0, np.array([i]))
        assert g.total_resizes == 0

    def test_without_capacities_resizes_happen(self):
        g = GrowableRidIndex(1)
        for i in range(100):
            g.append(0, i)
        assert g.total_resizes > 0

    def test_ensure_key_extends_directory(self):
        g = GrowableRidIndex(0)
        g.append(5, 1)
        assert len(g) == 6


class TestInversion:
    def test_invert_rid_array(self):
        arr = RidArray(np.array([1, 0, 1, NO_MATCH]))
        inv = invert_rid_array(arr, 2)
        assert inv.lookup(0).tolist() == [1]
        assert inv.lookup(1).tolist() == [0, 2]

    def test_invert_rid_array_codomain_check(self):
        with pytest.raises(LineageError):
            invert_rid_array(RidArray(np.array([5])), 2)

    def test_invert_rid_index(self):
        idx = RidIndex.from_buckets([np.array([0, 1]), np.array([1])])
        inv = invert_rid_index(idx, 2)
        assert inv.lookup(0).tolist() == [0]
        assert inv.lookup(1).tolist() == [0, 1]

    def test_double_inversion_roundtrip(self, rng):
        ids = rng.integers(0, 10, 100)
        idx = RidIndex.from_group_ids(ids, 10)
        back = invert_rid_index(invert_rid_index(idx, 100), 10)
        for k in range(10):
            assert np.array_equal(np.sort(back.lookup(k)), np.sort(idx.lookup(k)))


class TestCompose:
    def test_array_array(self):
        first = RidArray(np.array([2, NO_MATCH, 0]))
        second = RidArray(np.array([10, 11, 12]))
        out = compose(first, second)
        assert isinstance(out, RidArray)
        assert out.values.tolist() == [12, NO_MATCH, 10]

    def test_array_index(self):
        first = RidArray(np.array([1, 0]))
        second = RidIndex.from_buckets([np.array([7]), np.array([8, 9])])
        out = compose(first, second)
        assert out.lookup(0).tolist() == [8, 9]
        assert out.lookup(1).tolist() == [7]

    def test_index_array(self):
        first = RidIndex.from_buckets([np.array([0, 1])])
        second = RidArray(np.array([5, 6]))
        out = compose(first, second)
        assert out.lookup(0).tolist() == [5, 6]

    def test_index_index_multiplies_bags(self):
        first = RidIndex.from_buckets([np.array([0, 0])])
        second = RidIndex.from_buckets([np.array([3, 4])])
        out = compose(first, second)
        assert out.lookup(0).tolist() == [3, 4, 3, 4]

    def test_compose_empty(self):
        first = RidIndex.empty(2)
        second = RidIndex.from_buckets([np.array([1])])
        out = compose(first, second)
        assert out.num_edges == 0

    def test_compose_associativity(self, rng):
        # a: 5 keys -> values in [0, 10); b: 10 keys -> values in [0, 7);
        # c: 7 keys -> values in [0, 4).
        a = RidIndex.from_group_ids(rng.integers(0, 5, 10), 5)
        b = RidIndex.from_group_ids(rng.integers(0, 10, 7), 10)
        c = RidArray(rng.integers(0, 4, 7))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        for k in range(a.num_keys):
            assert np.array_equal(left.lookup(k), right.lookup(k))


class TestIsPartitioned:
    """The disjointness property the multi-brush per-bar decomposition
    relies on: every source rid in at most one bucket."""

    def test_from_group_ids_is_partition_by_construction(self):
        index = RidIndex.from_group_ids(np.array([1, 0, 1, 2, 0]), 3)
        assert index.is_partitioned()

    def test_disjoint_buckets(self):
        index = RidIndex.from_buckets(
            [np.array([5, 1]), np.array([3]), np.array([0, 2])]
        )
        assert index.is_partitioned()

    def test_overlapping_buckets(self):
        index = RidIndex.from_buckets([np.array([0, 1]), np.array([1, 2])])
        assert not index.is_partitioned()

    def test_duplicate_within_one_bucket(self):
        index = RidIndex.from_buckets([np.array([4, 4])])
        assert not index.is_partitioned()

    def test_empty_index(self):
        assert RidIndex.empty(3).is_partitioned()

    def test_result_is_cached(self):
        index = RidIndex.from_buckets([np.array([0]), np.array([1])])
        assert index.is_partitioned()
        assert index._partitioned is True

    def test_sparse_rids_fall_back_to_unique(self):
        # Span far beyond 4x the edge count: exercises the np.unique arm.
        index = RidIndex.from_buckets(
            [np.array([0]), np.array([10_000_000])]
        )
        assert index.is_partitioned()
        dup = RidIndex.from_buckets(
            [np.array([10_000_000]), np.array([10_000_000])]
        )
        assert not dup.is_partitioned()

    def test_rid_array_distinct_targets(self):
        arr = RidArray(np.array([3, NO_MATCH, 0, 2]))
        assert arr.is_partitioned()

    def test_rid_array_shared_target(self):
        arr = RidArray(np.array([3, 3, 0]))
        assert not arr.is_partitioned()
