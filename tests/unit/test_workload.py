"""Workload specs, pruning, data skipping, push-downs, cubes."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.errors import WorkloadError
from repro.expr.ast import Col
from repro.lineage.capture import CaptureMode
from repro.plan.logical import AggCall, GroupBy, Scan, col
from repro.workload import (
    AggPushdownSpec,
    AttributePartitioner,
    BackwardSpec,
    FilteredBackwardSpec,
    ForwardSpec,
    LineageCube,
    PartitionedRidIndex,
    SkippingSpec,
    Workload,
    execute_with_workload,
    filter_backward_index,
    predicate_mask,
    prune_capture,
)

INJECT = ExecOptions(capture=CaptureMode.INJECT)


@pytest.fixture
def groupby_plan():
    return GroupBy(
        Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]
    )


class TestSpecs:
    def test_skipping_requires_attributes(self):
        with pytest.raises(WorkloadError):
            SkippingSpec("t", [])

    def test_agg_pushdown_requires_keys_and_aggs(self):
        with pytest.raises(WorkloadError):
            AggPushdownSpec("t", [], [AggCall("count", None, "c")])
        with pytest.raises(WorkloadError):
            AggPushdownSpec("t", ["k"], [])

    def test_needs_direction(self):
        wl = Workload([BackwardSpec("a"), ForwardSpec("b")])
        assert wl.needs_backward("a") and not wl.needs_backward("b")
        assert wl.needs_forward("b") and not wl.needs_forward("a")

    def test_agg_pushdown_implies_forward(self):
        wl = Workload(
            [AggPushdownSpec("a", ["k"], [AggCall("count", None, "c")])]
        )
        assert wl.needs_forward("a")
        assert wl.needs_backward("a")

    def test_relations(self):
        wl = Workload([BackwardSpec("a"), ForwardSpec("b")])
        assert wl.relations() == {"a", "b"}


class TestPruneCapture:
    def test_empty_workload_disables_capture(self):
        config = prune_capture(Workload([]))
        assert not config.enabled

    def test_relation_and_direction_pruning(self):
        config = prune_capture(Workload([BackwardSpec("zipf")]))
        assert config.relations == {"zipf"}
        assert config.backward and not config.forward


class TestPartitioning:
    def test_partitioner_codes(self, small_db):
        table = small_db.table("zipf")
        part = AttributePartitioner(table, ["z"])
        assert part.num_codes == len(np.unique(table.column("z")))
        combo = part.combinations()[0]
        assert part.code_of(combo) is not None
        assert part.code_of((99999,)) is None

    def test_partitioned_lookup_equals_filter(self, small_db, groupby_plan):
        table = small_db.table("zipf")
        res = small_db.execute(groupby_plan, options=INJECT)
        backward = res.lineage.backward_index("zipf")
        # Partition by a coarse bucket of v.
        bucketed = table.with_column(
            "vbucket", (table.column("v") // 25).astype(np.int64)
        )
        part = AttributePartitioner(bucketed, ["vbucket"])
        index = PartitionedRidIndex(backward, part)
        for out in range(min(5, backward.num_keys)):
            full = backward.lookup(out)
            for bucket in range(4):
                got = np.sort(index.lookup(out, (bucket,)))
                expected = np.sort(
                    full[(table.column("v")[full] // 25).astype(np.int64) == bucket]
                )
                assert np.array_equal(got, expected)

    def test_lookup_full_reassembles_bucket(self, small_db, groupby_plan):
        table = small_db.table("zipf")
        res = small_db.execute(groupby_plan, options=INJECT)
        backward = res.lineage.backward_index("zipf")
        part = AttributePartitioner(table, ["z"])
        index = PartitionedRidIndex(backward, part)
        for out in range(3):
            assert np.array_equal(
                np.sort(index.lookup_full(out)), np.sort(backward.lookup(out))
            )

    def test_out_of_range_errors(self, small_db, groupby_plan):
        res = small_db.execute(groupby_plan, options=INJECT)
        part = AttributePartitioner(small_db.table("zipf"), ["z"])
        index = PartitionedRidIndex(res.lineage.backward_index("zipf"), part)
        from repro.errors import LineageError

        with pytest.raises(LineageError):
            index.lookup_code(9999, 0)
        with pytest.raises(LineageError):
            index.lookup_code(0, 9999)


class TestSelectionPushdown:
    def test_filter_backward_index(self, small_db, groupby_plan):
        table = small_db.table("zipf")
        res = small_db.execute(groupby_plan, options=INJECT)
        backward = res.lineage.backward_index("zipf")
        mask = predicate_mask(table, Col("v") < 20.0)
        filtered = filter_backward_index(backward, mask)
        for out in range(backward.num_keys):
            full = backward.lookup(out)
            expected = full[table.column("v")[full] < 20.0]
            assert np.array_equal(filtered.lookup(out), expected)

    def test_empty_predicate_result(self, small_db, groupby_plan):
        table = small_db.table("zipf")
        res = small_db.execute(groupby_plan, options=INJECT)
        filtered = filter_backward_index(
            res.lineage.backward_index("zipf"),
            predicate_mask(table, Col("v") < -5.0),
        )
        assert filtered.num_edges == 0


class TestCube:
    def test_cube_matches_direct_aggregation(self, small_db, groupby_plan):
        table = small_db.table("zipf")
        res = small_db.execute(groupby_plan, options=INJECT)
        fw = res.lineage.forward_index("zipf").values
        bucket = (table.column("v") // 10).astype(np.int64)
        keyed = table.with_column("vbucket", bucket)
        cube = LineageCube(
            keyed, fw, len(res.table), ["vbucket"],
            [AggCall("count", None, "c"), AggCall("sum", col("v"), "s")],
        )
        for out in range(min(4, len(res.table))):
            cells = cube.lookup(out)
            members = res.lineage.backward([out], "zipf")
            for row in cells.to_rows():
                vb, c, s = row
                sel = members[bucket[members] == vb]
                assert c == sel.size
                assert s == pytest.approx(table.column("v")[sel].sum())

    def test_count_distinct_rejected(self, small_db, groupby_plan):
        res = small_db.execute(groupby_plan, options=INJECT)
        with pytest.raises(WorkloadError, match="algebraic"):
            LineageCube(
                small_db.table("zipf"),
                res.lineage.forward_index("zipf").values,
                len(res.table),
                ["z"],
                [AggCall("count_distinct", col("v"), "cd")],
            )

    def test_empty_cube(self):
        from repro.storage import Table

        base = Table({"k": np.array([], dtype=np.int64)})
        cube = LineageCube(
            base, np.array([], dtype=np.int64), 3, ["k"],
            [AggCall("count", None, "c")],
        )
        assert cube.num_cells == 0
        assert len(cube.lookup(0)) == 0


class TestExecuteWithWorkload:
    def test_consuming_entry_points(self, small_db, groupby_plan):
        wl = Workload(
            [
                BackwardSpec("zipf"),
                SkippingSpec("zipf", ("z",)),
                FilteredBackwardSpec("zipf", Col("v") < 50.0),
                AggPushdownSpec("zipf", ("z",), (AggCall("count", None, "c"),)),
            ]
        )
        opt = execute_with_workload(small_db, groupby_plan, wl)
        assert opt.capture_seconds >= opt.base_seconds
        assert opt.backward([0], "zipf").size > 0
        z0 = opt.table.column("z")[0]
        assert np.array_equal(
            np.sort(opt.skip_backward(0, "zipf", ("z",), (z0,))),
            opt.backward([0], "zipf"),
        )
        filtered = opt.filtered_backward([0], "zipf")
        v = small_db.table("zipf").column("v")
        assert (v[filtered] < 50.0).all()
        cells = opt.cube_table(0, "zipf", ("z",))
        assert len(cells) == 1

    def test_missing_artifacts_raise(self, small_db, groupby_plan):
        opt = execute_with_workload(
            small_db, groupby_plan, Workload([BackwardSpec("zipf")])
        )
        with pytest.raises(WorkloadError):
            opt.skip_backward(0, "zipf", ("z",), (1,))
        with pytest.raises(WorkloadError):
            opt.filtered_backward([0], "zipf")
        with pytest.raises(WorkloadError):
            opt.cube_table(0, "zipf", ("z",))

    def test_empty_workload_no_lineage(self, small_db, groupby_plan):
        opt = execute_with_workload(small_db, groupby_plan, Workload([]))
        assert opt.lineage is None
