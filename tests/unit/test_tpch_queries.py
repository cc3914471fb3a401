"""TPC-H query plans and the Q1a/Q1b/Q1c variants."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.lineage.capture import CaptureMode
from repro.tpch import (
    q1,
    q10,
    q12,
    q1a_eager,
    q1a_lazy,
    q1b_eager,
    q1b_lazy,
    q1c_eager,
    q1c_lazy,
    q3,
)

INJECT = ExecOptions(capture=CaptureMode.INJECT)


class TestQueries:
    def test_q1_four_groups(self, tpch_db):
        res = tpch_db.execute(q1())
        assert len(res.table) == 4
        pairs = set(
            zip(
                res.table.column("l_returnflag"),
                res.table.column("l_linestatus"),
                strict=True,
            )
        )
        assert pairs == {("A", "F"), ("R", "F"), ("N", "F"), ("N", "O")}

    def test_q1_counts_sum_to_filtered_input(self, tpch_db):
        res = tpch_db.execute(q1())
        li = tpch_db.table("lineitem")
        passing = int((li.column("l_shipdate") < 19981201).sum())
        assert int(res.table.column("count_order").sum()) == passing

    def test_q1_aggregates_consistent(self, tpch_db):
        res = tpch_db.execute(q1())
        t = res.table
        for i in range(len(t)):
            assert t.column("avg_qty")[i] == pytest.approx(
                t.column("sum_qty")[i] / t.column("count_order")[i]
            )
            assert t.column("sum_charge")[i] >= t.column("sum_disc_price")[i]

    def test_q3_revenue_positive_and_grouped_by_order(self, tpch_db):
        res = tpch_db.execute(q3())
        assert (res.table.column("revenue") > 0).all()
        keys = res.table.column("l_orderkey")
        assert len(np.unique(keys)) == len(keys)

    def test_q10_joins_all_four_tables(self, tpch_db):
        res = tpch_db.execute(q10(), options=INJECT)
        assert set(res.lineage.relations) == {
            "nation", "customer", "orders", "lineitem",
        }

    def test_q10_returnflag_lineage(self, tpch_db):
        res = tpch_db.execute(q10(), options=INJECT)
        li = tpch_db.table("lineitem")
        rids = res.lineage.backward([0], "lineitem")
        assert (li.column("l_returnflag")[rids] == "R").all()

    def test_q12_two_shipmodes(self, tpch_db):
        res = tpch_db.execute(q12())
        modes = set(res.table.column("l_shipmode"))
        assert modes <= {"MAIL", "SHIP"}
        high = res.table.column("high_line_count")
        low = res.table.column("low_line_count")
        assert (high + low > 0).all()

    def test_q12_high_low_partition_lineage(self, tpch_db):
        res = tpch_db.execute(q12(), options=INJECT)
        total = res.table.column("high_line_count") + res.table.column(
            "low_line_count"
        )
        for i in range(len(res.table)):
            rids = res.lineage.backward([i], "lineitem")
            assert rids.size == total[i]


class TestVariants:
    @pytest.fixture()
    def bar0(self, tpch_db):
        res = tpch_db.execute(q1(), options=INJECT)
        flag = res.table.column("l_returnflag")[0]
        status = res.table.column("l_linestatus")[0]
        subset = res.backward_table([0], "lineitem")
        tpch_db.create_table("__test_bar0", subset, replace=True)
        return flag, status

    def test_q1a_eager_equals_lazy(self, tpch_db, bar0):
        flag, status = bar0
        eager = tpch_db.execute(q1a_eager("__test_bar0"))
        lazy = tpch_db.execute(q1a_lazy(flag, status))
        assert eager.table.equals(lazy.table, sort=True)

    def test_q1b_eager_equals_lazy(self, tpch_db, bar0):
        flag, status = bar0
        params = {"p1": "MAIL", "p2": "NONE"}
        eager = tpch_db.execute(q1b_eager("__test_bar0"), params=params)
        lazy = tpch_db.execute(q1b_lazy(flag, status), params=params)
        assert eager.table.equals(lazy.table, sort=True)

    def test_q1c_eager_equals_lazy(self, tpch_db, bar0):
        flag, status = bar0
        params = {"p1": "MAIL", "p2": "NONE"}
        filtered = tpch_db.execute(q1b_eager("__test_bar0"), params=params)
        if len(filtered) == 0:
            pytest.skip("parameter combination empty at this scale")
        year = int(filtered.table.column("ship_year")[0])
        month = int(filtered.table.column("ship_month")[0])
        # Eager Q1c over the lineage subset of that (year, month) cell.
        subset = tpch_db.table("__test_bar0")
        mask = (
            (subset.column("l_shipmode") == "MAIL")
            & (subset.column("l_shipinstruct") == "NONE")
            & (subset.column("l_shipdate") // 10000 == year)
            & ((subset.column("l_shipdate") // 100) % 100 == month)
        )
        tpch_db.create_table("__test_q1c", subset.filter(mask), replace=True)
        eager = tpch_db.execute(q1c_eager("__test_q1c"))
        lazy = tpch_db.execute(
            q1c_lazy(flag, status, "MAIL", "NONE", year, month)
        )
        # q1c_eager also groups by year/month, which are constant here.
        assert len(eager) == len(lazy)
        assert sorted(eager.table.column("l_tax").tolist()) == sorted(
            lazy.table.column("l_tax").tolist()
        )

    def test_variant_lineage_subset_respects_bar(self, tpch_db, bar0):
        flag, status = bar0
        subset = tpch_db.table("__test_bar0")
        assert (subset.column("l_returnflag") == flag).all()
        assert (subset.column("l_linestatus") == status).all()
