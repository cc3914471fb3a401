"""Multi-operator plans: end-to-end composition, pruning, scan keys."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.errors import CaptureDisabledError, LineageError, PlanError
from repro.lineage.capture import CaptureConfig, CaptureMode
from repro.plan.logical import (
    AggCall,
    GroupBy,
    HashJoin,
    Scan,
    Select,
    col,
)

INJECT = ExecOptions(capture=CaptureMode.INJECT)


class TestComposition:
    def test_select_then_groupby_composes_to_base(self, small_db):
        table = small_db.table("zipf")
        plan = GroupBy(
            Select(Scan("zipf"), col("v") < 40.0),
            [(col("z"), "z")],
            [AggCall("count", None, "c")],
        )
        res = small_db.execute(plan, options=INJECT)
        for i in range(len(res.table)):
            rids = res.lineage.backward([i], "zipf")
            assert (table.column("v")[rids] < 40.0).all()
            assert (table.column("z")[rids] == res.table.column("z")[i]).all()
            assert rids.size == res.table.column("c")[i]

    def test_join_then_groupby_traces_both_relations(self, small_db):
        plan = GroupBy(
            HashJoin(Scan("gids"), Scan("zipf"), ("id",), ("z",), pkfk=True),
            [(col("id"), "id")],
            [AggCall("sum", col("v"), "s")],
        )
        res = small_db.execute(plan, options=INJECT)
        assert set(res.lineage.relations) == {"gids", "zipf"}
        gid = int(res.table.column("id")[0])
        assert res.lineage.backward([0], "gids").tolist() == [gid]
        zipf_rids = res.lineage.backward([0], "zipf")
        assert (small_db.table("zipf").column("z")[zipf_rids] == gid).all()

    def test_forward_through_join_and_groupby(self, small_db):
        plan = GroupBy(
            HashJoin(Scan("gids"), Scan("zipf"), ("id",), ("z",), pkfk=True),
            [(col("id"), "id")],
            [AggCall("count", None, "c")],
        )
        res = small_db.execute(plan, options=INJECT)
        out = res.lineage.forward("gids", [3])
        matching = np.nonzero(res.table.column("id") == 3)[0]
        assert np.array_equal(out, matching)

    def test_groupby_feeding_join(self, small_db):
        counts = GroupBy(
            Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]
        )
        plan = HashJoin(counts, Scan("zipf2"), ("z",), ("z",), pkfk=True)
        res = small_db.execute(plan, options=INJECT)
        # every zipf2 row joins the aggregate of its z value
        zipf = small_db.table("zipf")
        for out in (0, len(res.table) - 1):
            z = res.table.column("z")[out]
            rids = res.lineage.backward([out], "zipf")
            assert (zipf.column("z")[rids] == z).all()

    def test_self_join_occurrence_keys(self, small_db):
        plan = HashJoin(Scan("zipf"), Scan("zipf"), ("z",), ("z",))
        res = small_db.execute(plan, options=INJECT)
        assert res.lineage.relations == ["zipf#0", "zipf#1"]
        with pytest.raises(LineageError, match="scanned multiple times"):
            res.lineage.backward([0], "zipf")
        assert res.lineage.backward([0], "zipf#0").size == 1

    def test_defer_composes_lazily(self, small_db):
        plan = GroupBy(
            Select(Scan("zipf"), col("v") < 40.0),
            [(col("z"), "z")],
            [AggCall("count", None, "c")],
        )
        res = small_db.execute(plan, options=ExecOptions(capture=CaptureMode.DEFER))
        assert res.lineage.finalize_seconds == 0.0
        res.lineage.backward([0], "zipf")
        assert res.lineage.finalize_seconds > 0.0


class TestPruning:
    def test_relation_pruning(self, small_db):
        plan = HashJoin(Scan("gids"), Scan("zipf"), ("id",), ("z",), pkfk=True)
        config = CaptureConfig.inject(relations={"zipf"})
        res = small_db.execute(plan, options=ExecOptions(capture=config))
        assert res.lineage.relations == ["zipf"]
        with pytest.raises(CaptureDisabledError):
            res.lineage.backward([0], "gids")

    def test_direction_pruning_backward_only(self, small_db):
        plan = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
        config = CaptureConfig.inject(forward=False)
        res = small_db.execute(plan, options=ExecOptions(capture=config))
        res.lineage.backward([0], "zipf")
        with pytest.raises(CaptureDisabledError):
            res.lineage.forward("zipf", [0])

    def test_direction_pruning_forward_only(self, small_db):
        plan = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
        config = CaptureConfig.inject(backward=False)
        res = small_db.execute(plan, options=ExecOptions(capture=config))
        res.lineage.forward("zipf", [0])
        with pytest.raises(CaptureDisabledError):
            res.lineage.backward([0], "zipf")

    def test_no_capture_returns_none(self, small_db):
        res = small_db.execute(Scan("zipf"))
        assert res.lineage is None


class TestApiSurface:
    def test_backward_table_materializes_subset(self, small_db):
        plan = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
        res = small_db.execute(plan, options=INJECT)
        sub = res.backward_table([0], "zipf")
        assert len(sub) == res.table.column("c")[0]

    def test_query_without_capture_raises_on_lineage(self, small_db):
        res = small_db.execute(Scan("zipf"))
        with pytest.raises(PlanError):
            res.backward([0], "zipf")

    def test_capture_mode_shorthand(self, small_db):
        res = small_db.execute(Scan("zipf"), options=INJECT)
        assert res.lineage is not None

    def test_invalid_capture_spec(self, small_db):
        with pytest.raises(PlanError):
            small_db.execute(Scan("zipf"), options=ExecOptions(capture="yes please"))

    def test_timings_populated(self, small_db):
        res = small_db.execute(Scan("zipf"), options=INJECT)
        assert res.execute_seconds > 0
        assert res.total_seconds >= res.execute_seconds
