"""Lineage index storage accounting and normalized-representation claims.

The paper argues Smoke's rid indexes are a *normalized* lineage graph:
group-by lineage costs O(input) rids regardless of output width, whereas
the logical approaches' denormalized relation duplicates every output row
per contributor.  These tests pin that asymmetry quantitatively.
"""

import pytest

from repro.baselines.logical import logical_capture
from repro.datagen import make_zipf_table
from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.plan.logical import AggCall, GroupBy, Scan, col

INJECT = ExecOptions(capture=CaptureMode.INJECT)


@pytest.fixture
def db():
    db = Database()
    db.create_table("zipf", make_zipf_table(10_000, 50, seed=8))
    return db


def _wide_groupby(num_aggs: int):
    aggs = [AggCall("count", None, "c")]
    for i in range(num_aggs):
        aggs.append(AggCall("sum", col("v") * float(i + 1), f"s{i}"))
    return GroupBy(Scan("zipf"), [(col("z"), "z")], aggs)


class TestNormalizedRepresentation:
    def test_backward_index_size_is_input_bound(self, db):
        res = db.execute(_wide_groupby(1), options=INJECT)
        bw = res.lineage.backward_index("zipf")
        assert bw.num_edges == 10_000

    def test_smoke_size_independent_of_output_width(self, db):
        narrow = db.execute(_wide_groupby(1), options=INJECT)
        wide = db.execute(_wide_groupby(8), options=INJECT)
        assert (
            narrow.lineage.memory_bytes() == wide.lineage.memory_bytes()
        )

    def test_denormalized_size_grows_with_output_width(self, db):
        narrow = logical_capture(db.catalog, _wide_groupby(1), "rid")
        wide = logical_capture(db.catalog, _wide_groupby(8), "rid")
        def nbytes(cap):
            return sum(
                cap.annotated.column(c).nbytes
                for c in cap.annotated.schema.names
            )
        assert nbytes(wide) > nbytes(narrow) * 2

    def test_tuple_annotation_wider_than_rid(self, db):
        rid = logical_capture(db.catalog, _wide_groupby(1), "rid")
        tup = logical_capture(db.catalog, _wide_groupby(1), "tuple")
        assert len(tup.annotated.schema) > len(rid.annotated.schema)

    def test_memory_bytes_breakdown(self, db):
        res = db.execute(_wide_groupby(1), options=INJECT)
        total = res.lineage.memory_bytes()
        bw = res.lineage.backward_index("zipf").memory_bytes()
        fw = res.lineage.forward_index("zipf").memory_bytes()
        assert total == bw + fw

    def test_pruned_direction_halves_storage(self, db):
        from repro.lineage.capture import CaptureConfig

        both = db.execute(_wide_groupby(1), options=INJECT)
        bw_only = db.execute(
            _wide_groupby(1),
            options=ExecOptions(capture=CaptureConfig.inject(forward=False)),
        )
        assert bw_only.lineage.memory_bytes() < both.lineage.memory_bytes()
