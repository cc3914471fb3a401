"""Data skipping over continuous attributes (discretized partitions)."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.errors import LineageError
from repro.lineage.capture import CaptureMode
from repro.plan.logical import AggCall, GroupBy, Scan, col
from repro.workload.skipping import BinnedPartitioner, PartitionedRidIndex


@pytest.fixture
def backward(small_db):
    plan = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
    res = small_db.execute(plan, options=ExecOptions(capture=CaptureMode.INJECT))
    return res.lineage.backward_index("zipf")


class TestBinnedPartitioner:
    def test_bins_cover_domain(self, small_db):
        part = BinnedPartitioner(small_db.table("zipf"), "v", num_bins=16)
        assert part.codes.min() >= 0 and part.codes.max() < 16

    def test_bin_of_clamps(self, small_db):
        part = BinnedPartitioner(small_db.table("zipf"), "v", num_bins=8)
        assert part.bin_of(-1e9) == 0
        assert part.bin_of(1e9) == 7

    def test_bin_boundaries_monotonic(self, small_db):
        table = small_db.table("zipf")
        part = BinnedPartitioner(table, "v", num_bins=10)
        v = table.column("v")
        order = np.argsort(v)
        assert (np.diff(part.codes[order]) >= 0).all()

    def test_invalid_bins(self, small_db):
        with pytest.raises(LineageError):
            BinnedPartitioner(small_db.table("zipf"), "v", num_bins=0)

    def test_empty_table(self):
        from repro.storage import Table

        part = BinnedPartitioner(Table({"v": np.empty(0)}), "v", 4)
        assert part.num_codes == 4


class TestRangeLookup:
    def test_range_equals_filtered_bucket(self, small_db, backward):
        table = small_db.table("zipf")
        part = BinnedPartitioner(table, "v", num_bins=20)
        index = PartitionedRidIndex(backward, part)
        v = table.column("v")
        for out in range(min(backward.num_keys, 5)):
            full = backward.lookup(out)
            for lo_code, hi_code in ((0, 4), (5, 19), (7, 7)):
                got = np.sort(index.lookup_code_range(out, lo_code, hi_code))
                member_codes = part.codes[full]
                expected = np.sort(
                    full[(member_codes >= lo_code) & (member_codes <= hi_code)]
                )
                assert np.array_equal(got, expected)

    def test_full_range_equals_lookup_full(self, small_db, backward):
        part = BinnedPartitioner(small_db.table("zipf"), "v", num_bins=20)
        index = PartitionedRidIndex(backward, part)
        got = np.sort(index.lookup_code_range(0, 0, 19))
        assert np.array_equal(got, np.sort(index.lookup_full(0)))

    def test_empty_range(self, small_db, backward):
        part = BinnedPartitioner(small_db.table("zipf"), "v", num_bins=4)
        index = PartitionedRidIndex(backward, part)
        assert index.lookup_code_range(0, 3, 1).size == 0

    def test_out_of_range_rid(self, small_db, backward):
        part = BinnedPartitioner(small_db.table("zipf"), "v", num_bins=4)
        index = PartitionedRidIndex(backward, part)
        with pytest.raises(LineageError):
            index.lookup_code_range(9999, 0, 1)

    def test_slider_predicate_flow(self, small_db, backward):
        """The slider pattern: ``v < :p`` as slice + boundary filter."""
        table = small_db.table("zipf")
        part = BinnedPartitioner(table, "v", num_bins=32)
        index = PartitionedRidIndex(backward, part)
        v = table.column("v")
        threshold = 37.5
        boundary = part.bin_of(threshold)
        for out in range(3):
            inner = index.lookup_code_range(out, 0, boundary - 1)
            edge = index.lookup_code_range(out, boundary, boundary)
            got = np.sort(np.concatenate([inner, edge[v[edge] < threshold]]))
            full = backward.lookup(out)
            expected = np.sort(full[v[full] < threshold])
            assert np.array_equal(got, expected)
