"""Sort/Limit operator and SQL derived tables with lineage."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.errors import PlanError, SqlError
from repro.lineage.capture import CaptureMode
from repro.plan.logical import Scan, Sort

INJECT = ExecOptions(capture=CaptureMode.INJECT)


class TestSortOperator:
    def test_stable_ascending(self, small_db):
        plan = Sort(Scan("zipf"), [("z", False)])
        res = small_db.execute(plan)
        z = res.table.column("z")
        assert (np.diff(z) >= 0).all()
        # stability: within equal keys, original id order preserved
        ids = res.table.column("id")
        for key in np.unique(z)[:3]:
            group = ids[z == key]
            assert (np.diff(group) > 0).all()

    def test_descending(self, small_db):
        plan = Sort(Scan("zipf"), [("v", True)])
        res = small_db.execute(plan)
        assert (np.diff(res.table.column("v")) <= 0).all()

    def test_multi_key(self, small_db):
        plan = Sort(Scan("zipf"), [("z", False), ("v", True)])
        res = small_db.execute(plan)
        z, v = res.table.column("z"), res.table.column("v")
        for i in range(len(res.table) - 1):
            if z[i] == z[i + 1]:
                assert v[i] >= v[i + 1]

    def test_limit_without_keys(self, small_db):
        plan = Sort(Scan("zipf"), [], limit=7)
        res = small_db.execute(plan)
        assert len(res) == 7
        assert np.array_equal(
            res.table.column("id"), small_db.table("zipf").column("id")[:7]
        )

    def test_lineage_is_permutation(self, small_db):
        plan = Sort(Scan("zipf"), [("v", False)])
        res = small_db.execute(plan, options=INJECT)
        bw = res.lineage.backward_index("zipf")
        assert np.array_equal(np.sort(bw.values), np.arange(2000))
        # roundtrip: forward(backward(o)) == o
        for o in (0, 1000, 1999):
            src = int(bw.values[o])
            assert res.forward("zipf", [src]).tolist() == [o]

    def test_limit_cuts_forward_lineage(self, small_db):
        plan = Sort(Scan("zipf"), [("v", False)], limit=10)
        res = small_db.execute(plan, options=INJECT)
        kept = res.lineage.backward_index("zipf").values
        v = small_db.table("zipf").column("v")
        outside = int(np.argmax(v))  # max v cannot be in the 10 smallest
        assert outside not in kept
        assert res.forward("zipf", [outside]).size == 0

    def test_validation(self, small_db):
        with pytest.raises(PlanError):
            Sort(Scan("zipf"), [])
        with pytest.raises(PlanError):
            Sort(Scan("zipf"), [("z", False)], limit=-1)

    def test_compiled_backend_matches(self, small_db):
        plan = Sort(Scan("zipf"), [("z", False), ("v", True)], limit=50)
        vec = small_db.execute(plan, options=INJECT)
        comp = small_db.execute(plan, options=INJECT.with_(backend="compiled"))
        assert vec.table.to_rows() == comp.table.to_rows()
        assert np.array_equal(
            vec.lineage.backward(list(range(50)), "zipf"),
            comp.lineage.backward(list(range(50)), "zipf"),
        )


class TestSqlOrderLimit:
    def test_order_by_desc_limit(self, small_db):
        res = small_db.sql(
            "SELECT z, COUNT(*) AS c FROM zipf GROUP BY z ORDER BY c DESC LIMIT 3",
            options=INJECT,
        )
        assert len(res) == 3
        assert (np.diff(res.table.column("c")) <= 0).all()
        assert res.backward([0], "zipf").size == res.table.column("c")[0]

    def test_order_by_unknown_column(self, small_db):
        with pytest.raises(SqlError, match="unknown output column"):
            small_db.sql("SELECT z FROM zipf ORDER BY nope")

    def test_limit_requires_integer(self, small_db):
        with pytest.raises(SqlError):
            small_db.sql("SELECT z FROM zipf LIMIT 'five'")

    def test_bare_limit(self, small_db):
        res = small_db.sql("SELECT z FROM zipf LIMIT 4")
        assert len(res) == 4


class TestDerivedTables:
    def test_derived_table_requires_alias(self, small_db):
        with pytest.raises(SqlError, match="alias"):
            small_db.sql("SELECT * FROM (SELECT z FROM zipf)")

    def test_derived_table_with_filter(self, small_db):
        res = small_db.sql(
            "SELECT d.z FROM (SELECT z, COUNT(*) AS c FROM zipf GROUP BY z) d "
            "WHERE d.c > 100",
            options=INJECT,
        )
        counts = small_db.sql("SELECT z, COUNT(*) AS c FROM zipf GROUP BY z")
        expected = {
            row[0] for row in counts.table.to_rows() if row[1] > 100
        }
        assert set(res.table.column("z").tolist()) == expected

    def test_lineage_through_derived_table(self, small_db):
        res = small_db.sql(
            "SELECT d.z FROM (SELECT z, COUNT(*) AS c FROM zipf GROUP BY z) d "
            "WHERE d.c > 100",
            options=INJECT,
        )
        zipf = small_db.table("zipf")
        for o in range(len(res)):
            rids = res.backward([o], "zipf")
            assert (zipf.column("z")[rids] == res.table.column("z")[o]).all()

    def test_derived_table_in_join(self, small_db):
        res = small_db.sql(
            "SELECT agg.z, agg.c, gids.payload "
            "FROM (SELECT z, COUNT(*) AS c FROM zipf GROUP BY z) agg "
            "JOIN gids ON agg.z = gids.id",
            options=INJECT,
        )
        assert set(res.lineage.relations) == {"zipf", "gids"}
        gid = int(res.table.column("z")[0])
        assert res.backward([0], "gids").tolist() == [gid]

    def test_derived_setop(self, small_db):
        res = small_db.sql(
            "SELECT * FROM (SELECT z FROM zipf WHERE z < 2 "
            "UNION SELECT z FROM zipf2 WHERE z < 3) u"
        )
        assert set(res.table.column("z").tolist()) == {0, 1, 2}
