"""Integration: full user-level flows from SQL to consuming queries."""

import numpy as np
import pytest

from repro.api import Database, ExecOptions
from repro.datagen import make_zipf_table
from repro.lineage.capture import CaptureMode
from repro.plan.logical import AggCall, col
from repro.workload import (
    AggPushdownSpec,
    BackwardSpec,
    SkippingSpec,
    Workload,
    execute_with_workload,
)

INJECT = ExecOptions(capture=CaptureMode.INJECT)


class TestLinkedBrushingFlow:
    """The Figure 1 scenario end to end, via SQL."""

    @pytest.fixture
    def db(self):
        db = Database()
        rng = np.random.default_rng(8)
        n = 3_000
        from repro.storage import Table

        db.create_table(
            "sales",
            Table(
                {
                    "product": rng.integers(0, 15, n),
                    "price": np.round(rng.random(n) * 50, 2),
                    "profit": np.round(rng.random(n) * 10 - 2, 2),
                    "revenue": np.round(rng.random(n) * 100, 2),
                }
            ),
        )
        return db

    def test_backward_then_forward_highlights(self, db):
        v1 = db.sql(
            "SELECT product, SUM(revenue) AS rev FROM sales GROUP BY product",
            options=INJECT,
        )
        v2 = db.sql(
            "SELECT product, SUM(profit) AS prof FROM sales GROUP BY product",
            options=INJECT,
        )
        selected = [0, 2]
        shared = v1.backward(selected, "sales")
        highlighted = v2.forward("sales", shared)
        # Both views group by product, so highlighted marks are the same
        # product values as the selected marks.
        sel_products = set(v1.table.column("product")[selected].tolist())
        hil_products = set(v2.table.column("product")[highlighted].tolist())
        assert sel_products == hil_products


class TestDrillDownFlow:
    """Overview → zoom → filter over the zipf microbenchmark table."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.create_table("zipf", make_zipf_table(20_000, 50, theta=1.0, seed=6))
        return db

    def test_consuming_query_chain(self, db):
        overview = db.sql(
            "SELECT z, COUNT(*) AS c, SUM(v) AS s FROM zipf GROUP BY z",
            options=INJECT,
        )
        # Zoom: drill into the largest group.
        big = int(np.argmax(overview.table.column("c")))
        subset = overview.backward_table([big], "zipf")
        db.create_table("drill", subset, replace=True)
        detail = db.sql("SELECT COUNT(*) AS c FROM drill WHERE v < 50")
        v = subset.column("v")
        assert detail.table.column("c")[0] == int((v < 50).sum())

    @pytest.mark.parametrize("backend", ["vector", "compiled"])
    def test_sql_consuming_query_chain(self, db, backend):
        """The same drill-down, fully declarative: the zoom query's input
        relation *is* ``Lb(overview, 'zipf')`` — no manual table staging."""
        overview = db.sql(
            "SELECT z, COUNT(*) AS c, SUM(v) AS s FROM zipf GROUP BY z",
            options=INJECT.with_(name="overview"),
        )
        big = int(np.argmax(overview.table.column("c")))
        detail = db.sql(
            "SELECT COUNT(*) AS c FROM Lb(overview, 'zipf', :bars) "
            "WHERE v < 50",
            params={"bars": [big]},
            options=ExecOptions(backend=backend),
        )
        subset = overview.backward_table([big], "zipf")
        assert detail.table.column("c")[0] == int(
            (subset.column("v") < 50).sum()
        )
        # Re-aggregation over the lineage scan matches the staged route.
        regroup = db.sql(
            "SELECT z, COUNT(*) AS c FROM Lb(overview, 'zipf', :bars) "
            "GROUP BY z",
            params={"bars": [big]},
            options=ExecOptions(backend=backend),
        )
        assert regroup.table.column("c")[0] == overview.table.column("c")[big]

    def test_sql_linked_brush_chain(self, db):
        """Figure 1 as two SQL statements: Lb out of one view, Lf into the
        other."""
        v1 = db.sql(
            "SELECT z, COUNT(*) AS c FROM zipf GROUP BY z",
            options=INJECT.with_(name="v1"),
        )
        v2 = db.sql(
            "SELECT z, SUM(v) AS s FROM zipf GROUP BY z",
            options=INJECT.with_(name="v2"),
        )
        marks = [0, 3]
        shared_sql = db.sql(
            "SELECT * FROM Lb(v1, 'zipf', :marks)",
            params={"marks": marks},
            options=INJECT,
        )
        shared = shared_sql.backward(np.arange(len(shared_sql)), "zipf")
        assert np.array_equal(shared, v1.backward(marks, "zipf"))
        derived = db.sql(
            "SELECT * FROM Lf('zipf', v2, :rids)",
            params={"rids": shared},
            options=INJECT,
        )
        highlighted = derived.backward(np.arange(len(derived)), "v2")
        assert np.array_equal(highlighted, v2.forward("zipf", shared))

    def test_workload_aware_chain(self, db):
        plan = db.parse("SELECT z, COUNT(*) AS c FROM zipf GROUP BY z")
        wl = Workload(
            [
                BackwardSpec("zipf"),
                SkippingSpec("zipf", ("z",)),
                AggPushdownSpec(
                    "zipf", ("z",), (AggCall("sum", col("v"), "s"),)
                ),
            ]
        )
        opt = execute_with_workload(db, plan, wl)
        z0 = opt.table.column("z")[0]
        cube = opt.cube_table(0, "zipf", ("z",))
        zipf = db.table("zipf")
        expected = zipf.column("v")[zipf.column("z") == z0].sum()
        assert cube.column("s")[0] == pytest.approx(expected)


class TestMultiSessionConsistency:
    def test_same_seed_same_lineage(self):
        results = []
        for _ in range(2):
            db = Database()
            db.create_table("zipf", make_zipf_table(5_000, 30, seed=12))
            res = db.sql(
                "SELECT z, COUNT(*) AS c FROM zipf GROUP BY z",
                options=INJECT,
            )
            results.append(res.backward([3], "zipf"))
        assert np.array_equal(results[0], results[1])

    def test_replace_table_invalidates_nothing_existing(self):
        db = Database()
        db.create_table("zipf", make_zipf_table(1_000, 10))
        res = db.sql(
            "SELECT z, COUNT(*) AS c FROM zipf GROUP BY z",
            options=INJECT,
        )
        before = res.backward([0], "zipf").copy()
        db.create_table("zipf", make_zipf_table(500, 5, seed=99), replace=True)
        # The old result still answers from its captured indexes.
        assert np.array_equal(res.backward([0], "zipf"), before)
