"""Refresh / forward propagation and the instrumentation advisor."""

import numpy as np
import pytest

from repro.api import Database, ExecOptions
from repro.datagen import make_zipf_table
from repro.errors import WorkloadError
from repro.lineage.capture import CaptureMode
from repro.lineage.refresh import AggregateRefresher, multi_backward, multi_forward
from repro.plan.logical import AggCall, GroupBy, Scan, Select, col
from repro.workload.advisor import CostModel, QueryProfile, calibrate, recommend

INJECT = ExecOptions(capture=CaptureMode.INJECT)


@pytest.fixture
def db():
    db = Database()
    db.create_table("zipf", make_zipf_table(5_000, 25, seed=31))
    return db


@pytest.fixture
def view(db):
    plan = GroupBy(
        Scan("zipf"),
        [(col("z"), "z")],
        [
            AggCall("count", None, "c"),
            AggCall("sum", col("v"), "s"),
            AggCall("avg", col("v"), "a"),
            AggCall("min", col("v"), "mn"),
            AggCall("max", col("v"), "mx"),
        ],
    )
    result = db.execute(plan, options=INJECT)
    return plan, result


class TestMultiQueries:
    def test_multi_backward(self, tpch_db):
        from repro.tpch import q3

        res = tpch_db.execute(q3(), options=INJECT)
        out = multi_backward(res.lineage, [0], ["customer", "orders", "lineitem"])
        assert set(out) == {"customer", "orders", "lineitem"}
        assert out["orders"].size == 1

    def test_multi_forward_unions(self, db, view):
        plan, result = view
        zipf = db.table("zipf")
        out = multi_forward(result.lineage, {"zipf": [0, 1, 2]})
        expected = np.unique(
            [int(result.forward("zipf", [r])[0]) for r in (0, 1, 2)]
        )
        assert np.array_equal(out, expected)

    def test_multi_forward_empty(self, view):
        _, result = view
        assert multi_forward(result.lineage, {}).size == 0


class TestRefresh:
    def _update(self, db, rids, bump):
        base = db.table("zipf")
        rows = base.take(rids)
        return rows.with_column("v", np.asarray(rows.column("v")) + bump)

    def test_refresh_matches_recompute(self, db, view):
        plan, result = view
        refresher = AggregateRefresher(db, plan, result)
        rids = np.array([0, 10, 20, 30], dtype=np.int64)
        new_rows = self._update(db, rids, bump=500.0)
        refreshed, affected = refresher.refresh(rids, new_rows)
        recomputed = db.execute(plan).table  # base table was updated
        assert refreshed.schema == recomputed.schema
        for name in refreshed.schema.names:
            a, b = refreshed.column(name), recomputed.column(name)
            if a.dtype.kind == "f":
                assert np.allclose(a, b), name
            else:
                assert np.array_equal(a, b), name

    def test_affected_outputs_are_exactly_forward(self, db, view):
        plan, result = view
        refresher = AggregateRefresher(db, plan, result)
        rids = np.array([5, 6], dtype=np.int64)
        expected = result.forward("zipf", rids)
        _, affected = refresher.refresh(rids, self._update(db, rids, 1.0))
        assert np.array_equal(affected, expected)

    def test_repeated_refreshes_accumulate(self, db, view):
        plan, result = view
        refresher = AggregateRefresher(db, plan, result)
        rids = np.array([7], dtype=np.int64)
        refresher.refresh(rids, self._update(db, rids, 10.0))
        refresher.refresh(rids, self._update(db, rids, 10.0))
        recomputed = db.execute(plan).table
        assert np.allclose(refresher.view.column("s"), recomputed.column("s"))

    def test_key_change_rejected(self, db, view):
        plan, result = view
        refresher = AggregateRefresher(db, plan, result)
        rows = db.table("zipf").take([3])
        moved = rows.with_column("z", np.asarray(rows.column("z")) + 1)
        with pytest.raises(WorkloadError, match="between groups"):
            refresher.refresh([3], moved)

    def test_unsupported_shapes_rejected(self, db):
        sel_plan = GroupBy(
            Select(Scan("zipf"), col("v") < 50.0),
            [(col("z"), "z")],
            [AggCall("count", None, "c")],
        )
        res = db.execute(sel_plan, options=INJECT)
        with pytest.raises(WorkloadError, match="base scan"):
            AggregateRefresher(db, sel_plan, res)

    def test_count_distinct_rejected(self, db):
        plan = GroupBy(
            Scan("zipf"),
            [(col("z"), "z")],
            [AggCall("count_distinct", col("v"), "cd")],
        )
        res = db.execute(plan, options=INJECT)
        with pytest.raises(WorkloadError, match="algebraic"):
            AggregateRefresher(db, plan, res)

    def test_requires_capture(self, db, view):
        plan, _ = view
        res = db.execute(plan)
        with pytest.raises(WorkloadError, match="lineage-captured"):
            AggregateRefresher(db, plan, res)

    def test_misaligned_update_rejected(self, db, view):
        plan, result = view
        refresher = AggregateRefresher(db, plan, result)
        rows = db.table("zipf").take([0, 1])
        with pytest.raises(WorkloadError, match="align"):
            refresher.refresh([0], rows)


class TestAdvisor:
    MODEL = CostModel(inline_capture_per_row=10e-9, deferred_finalize_per_row=30e-9)

    def test_immediate_lineage_prefers_inject(self):
        profile = QueryProfile(input_rows=1_000_000, expected_groups=100)
        assert recommend(profile, self.MODEL) is CaptureMode.INJECT

    def test_think_time_hides_defer_cost(self):
        profile = QueryProfile(
            input_rows=1_000_000, expected_groups=100, think_time_seconds=1.0
        )
        assert recommend(profile, self.MODEL) is CaptureMode.DEFER

    def test_unlikely_lineage_prefers_defer(self):
        profile = QueryProfile(
            input_rows=1_000_000,
            expected_groups=100,
            lineage_probability=0.1,
        )
        assert recommend(profile, self.MODEL) is CaptureMode.DEFER

    def test_calibrate_returns_positive_costs(self):
        model = calibrate(rows=20_000)
        assert model.inline_capture_per_row > 0
        assert model.deferred_finalize_per_row > 0

    def test_tie_breaks_to_inject(self):
        model = CostModel(1e-9, 1e-9)
        profile = QueryProfile(input_rows=10, expected_groups=1)
        assert recommend(profile, model) is CaptureMode.INJECT
