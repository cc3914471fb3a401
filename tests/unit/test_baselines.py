"""Lazy, logical, and physical baselines against Smoke's answers."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.baselines import (
    LazyLineageEvaluator,
    build_logic_idx,
    logical_capture,
    physical_capture,
    PhysBdbStore,
)
from repro.errors import PlanError
from repro.lineage.capture import CaptureMode
from repro.plan.logical import (
    AggCall,
    GroupBy,
    HashJoin,
    Project,
    Scan,
    Select,
    col,
)

INJECT = ExecOptions(capture=CaptureMode.INJECT)


@pytest.fixture
def groupby_plan():
    return GroupBy(
        Select(Scan("zipf"), col("v") < 80.0),
        [(col("z"), "z")],
        [AggCall("count", None, "c"), AggCall("sum", col("v"), "s")],
    )


class TestLazy:
    def test_backward_matches_smoke(self, small_db, groupby_plan):
        smoke = small_db.execute(groupby_plan, options=INJECT)
        lazy = LazyLineageEvaluator(small_db, groupby_plan)
        for o in range(len(smoke.table)):
            assert np.array_equal(
                lazy.backward(o), smoke.backward([o], "zipf")
            )

    def test_forward_matches_smoke(self, small_db, groupby_plan):
        smoke = small_db.execute(groupby_plan, options=INJECT)
        lazy = LazyLineageEvaluator(small_db, groupby_plan)
        probe = [0, 10, 500, 1999]
        assert np.array_equal(lazy.forward(probe), smoke.forward("zipf", probe))

    def test_forward_skips_filtered_rows(self, small_db):
        plan = GroupBy(
            Select(Scan("zipf"), col("v") < -1.0),
            [(col("z"), "z")],
            [AggCall("count", None, "c")],
        )
        lazy = LazyLineageEvaluator(small_db, plan)
        assert lazy.forward([0, 1]).size == 0

    def test_backward_with_extra_predicate(self, small_db, groupby_plan):
        lazy = LazyLineageEvaluator(small_db, groupby_plan)
        rids_all = lazy.backward(0)
        rids_filtered = lazy.backward(0, extra_predicate=col("v") < 10.0)
        assert rids_filtered.size <= rids_all.size
        v = small_db.table("zipf").column("v")
        assert (v[rids_filtered] < 10.0).all()

    def test_project_root_peeled(self, small_db, groupby_plan):
        wrapped = Project(groupby_plan, [(col("z"), "z"), (col("c"), "c")])
        lazy = LazyLineageEvaluator(small_db, wrapped)
        assert lazy.backward(0).size > 0

    def test_unsupported_shape_raises(self, small_db):
        plan = HashJoin(Scan("gids"), Scan("zipf"), ("id",), ("z",), pkfk=True)
        with pytest.raises(PlanError, match="group-by"):
            LazyLineageEvaluator(small_db, plan)

    def test_consuming_query_runs_builder(self, small_db, groupby_plan):
        lazy = LazyLineageEvaluator(small_db, groupby_plan)

        def builder(row):
            return Select(
                Scan("zipf"),
                (col("z").eq(int(row["z"]))).and_(col("v") < 80.0),
            )

        out = lazy.consuming(0, builder)
        assert len(out) == lazy.output.column("c")[0]


class TestLogical:
    def test_rid_annotation_roundtrip(self, small_db, groupby_plan):
        cap = logical_capture(small_db.catalog, groupby_plan, "rid")
        smoke = small_db.execute(groupby_plan, options=INJECT)
        assert cap.output.equals(smoke.table, sort=True)
        for o in range(len(cap.output)):
            assert np.array_equal(
                cap.backward_scan(o, "zipf"), smoke.backward([o], "zipf")
            )

    def test_tuple_annotation_carries_input_columns(self, small_db, groupby_plan):
        cap = logical_capture(small_db.catalog, groupby_plan, "tuple")
        # Denormalized O' includes the input's own attributes.
        assert "v" in cap.annotated.schema
        assert "id" in cap.annotated.schema

    def test_denormalization_duplicates_output(self, small_db, groupby_plan):
        cap = logical_capture(small_db.catalog, groupby_plan, "rid")
        passing = int((small_db.table("zipf").column("v") < 80.0).sum())
        assert len(cap.annotated) == passing

    def test_logic_idx_equals_smoke_indexes(self, small_db, groupby_plan):
        cap = logical_capture(small_db.catalog, groupby_plan, "rid")
        lineage, seconds = build_logic_idx(cap, {"zipf": 2000})
        smoke = small_db.execute(groupby_plan, options=INJECT)
        assert seconds >= 0
        for o in range(len(cap.output)):
            assert np.array_equal(
                lineage.backward([o], "zipf"), smoke.backward([o], "zipf")
            )
        probe = list(range(25))
        assert np.array_equal(
            lineage.forward("zipf", probe), smoke.forward("zipf", probe)
        )

    def test_join_shape_capture(self, small_db):
        plan = HashJoin(Scan("gids"), Scan("zipf"), ("id",), ("z",), pkfk=True)
        cap = logical_capture(small_db.catalog, plan, "rid")
        smoke = small_db.execute(plan, options=INJECT)
        assert len(cap.output) == len(smoke.table)
        assert set(cap.rid_columns) == {"gids", "zipf"}
        lineage, _ = build_logic_idx(cap, {"gids": 20, "zipf": 2000})
        assert np.array_equal(
            lineage.backward([17], "gids"), smoke.backward([17], "gids")
        )

    @pytest.mark.parametrize("annotation", ["rid", "tuple"])
    def test_keyless_count_over_no_row_answers_as_the_engine(self, annotation):
        """A keyless COUNT over an empty selection is one row holding 0,
        as SQL and the engine answer it, not an empty table."""
        from repro.api import Database
        from repro.storage import Table

        db = Database()
        db.create_table("t", Table({"v": np.arange(4, dtype=np.int64)}))
        plan = GroupBy(Select(Scan("t"), col("v") >= 5), [], [AggCall("count", None, "c")])
        cap = logical_capture(db.catalog, plan, annotation)
        assert cap.output.to_rows() == db.execute(plan).table.to_rows() == [(0,)]
        assert len(cap.annotated) == 0  # no input row to pair with it

    def test_invalid_annotation_kind(self, small_db, groupby_plan):
        with pytest.raises(PlanError):
            logical_capture(small_db.catalog, groupby_plan, "hologram")


class TestPhysical:
    def test_phys_mem_builds_equivalent_indexes(self, small_db, groupby_plan):
        cap = physical_capture(small_db, groupby_plan, "zipf")
        smoke = small_db.execute(groupby_plan, options=INJECT)
        bw = cap.store.backward_index()
        for o in range(cap.output_rows):
            assert np.array_equal(
                np.sort(bw.lookup(o)), smoke.backward([o], "zipf")
            )
        fw = cap.store.forward_index()
        assert fw.num_keys == 2000

    def test_phys_bdb_cursor_matches(self, small_db, groupby_plan):
        cap = physical_capture(
            small_db, groupby_plan, "zipf", store_cls=PhysBdbStore
        )
        smoke = small_db.execute(groupby_plan, options=INJECT)
        for o in (0, 1):
            got = np.sort(np.fromiter(cap.store.backward_cursor(o), dtype=np.int64))
            assert np.array_equal(got, smoke.backward([o], "zipf"))

    def test_edge_count_matches_filtered_input(self, small_db, groupby_plan):
        cap = physical_capture(small_db, groupby_plan, "zipf")
        passing = int((small_db.table("zipf").column("v") < 80.0).sum())
        assert cap.edges == passing

    def test_timings_split(self, small_db, groupby_plan):
        cap = physical_capture(small_db, groupby_plan, "zipf")
        assert cap.seconds >= cap.base_seconds > 0
