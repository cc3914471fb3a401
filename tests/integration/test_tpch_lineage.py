"""Integration: TPC-H lineage answers checked against brute force.

For each query the backward lineage of every output row is recomputed by
re-evaluating predicates and join chains directly with numpy (no lineage
machinery), and techniques are cross-checked against each other —
invariant I4.
"""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.baselines import build_logic_idx, logical_capture
from repro.lineage.capture import CaptureMode
from repro.tpch import q1, q3, q10, q12
from reference import reference

INJECT = ExecOptions(capture=CaptureMode.INJECT)


class TestQ1:
    @pytest.fixture(scope="class")
    def result(self, tpch_db):
        return tpch_db.execute(q1(), options=INJECT)

    def test_backward_bruteforce(self, tpch_db, result):
        li = tpch_db.table("lineitem")
        for o in range(len(result.table)):
            flag = result.table.column("l_returnflag")[o]
            status = result.table.column("l_linestatus")[o]
            expected = np.nonzero(
                (li.column("l_shipdate") < 19981201)
                & (li.column("l_returnflag") == flag)
                & (li.column("l_linestatus") == status)
            )[0]
            assert np.array_equal(result.backward([o], "lineitem"), expected)

    def test_forward_bruteforce(self, tpch_db, result):
        li = tpch_db.table("lineitem")
        rng = np.random.default_rng(1)
        for rid in rng.integers(0, li.num_rows, 20):
            rid = int(rid)
            out = result.forward("lineitem", [rid])
            if li.column("l_shipdate")[rid] >= 19981201:
                assert out.size == 0
                continue
            assert out.size == 1
            o = int(out[0])
            assert result.table.column("l_returnflag")[o] == li.column(
                "l_returnflag"
            )[rid]

    def test_logic_idx_agrees(self, tpch_db, result):
        cap = logical_capture(tpch_db.catalog, q1(), "rid")
        lineage, _ = build_logic_idx(
            cap, {"lineitem": tpch_db.table("lineitem").num_rows}
        )
        for o in range(len(result.table)):
            # Logic's group order may differ; match groups by key values.
            flag = cap.output.column("l_returnflag")[o]
            status = cap.output.column("l_linestatus")[o]
            match = np.nonzero(
                (result.table.column("l_returnflag") == flag)
                & (result.table.column("l_linestatus") == status)
            )[0]
            assert match.size == 1
            assert np.array_equal(
                lineage.backward([o], "lineitem"),
                result.backward([int(match[0])], "lineitem"),
            )

    def test_defer_and_compiled_agree(self, tpch_db, result):
        defer = tpch_db.execute(q1(), options=ExecOptions(capture=CaptureMode.DEFER))
        comp = reference(tpch_db, q1(), options=INJECT)
        for o in range(len(result.table)):
            expected = result.backward([o], "lineitem")
            assert np.array_equal(defer.backward([o], "lineitem"), expected)
            assert np.array_equal(comp.backward([o], "lineitem"), expected)


class TestQ3:
    @pytest.fixture(scope="class")
    def result(self, tpch_db):
        return tpch_db.execute(q3(), options=INJECT)

    def test_backward_lineitem_bruteforce(self, tpch_db, result):
        li = tpch_db.table("lineitem")
        for o in range(min(10, len(result.table))):
            orderkey = result.table.column("l_orderkey")[o]
            expected = np.nonzero(
                (li.column("l_orderkey") == orderkey)
                & (li.column("l_shipdate") > 19950315)
            )[0]
            assert np.array_equal(result.backward([o], "lineitem"), expected)

    def test_backward_customer_consistent_with_orders(self, tpch_db, result):
        orders = tpch_db.table("orders")
        for o in range(min(10, len(result.table))):
            order_rids = result.backward([o], "orders")
            assert order_rids.size == 1
            cust = orders.column("o_custkey")[order_rids[0]]
            cust_rids = result.backward([o], "customer")
            assert cust_rids.tolist() == [cust]

    def test_customer_segment_filter_respected(self, tpch_db, result):
        customer = tpch_db.table("customer")
        all_cust = result.lineage.backward_index("customer").values
        assert (customer.column("c_mktsegment")[all_cust] == "BUILDING").all()


class TestQ10:
    def test_nation_lineage_via_customer(self, tpch_db):
        res = tpch_db.execute(q10(), options=INJECT)
        customer = tpch_db.table("customer")
        for o in range(min(10, len(res.table))):
            cust_rids = res.backward([o], "customer")
            assert cust_rids.size == 1
            nation_key = customer.column("c_nationkey")[cust_rids[0]]
            assert res.backward([o], "nation").tolist() == [nation_key]

    def test_revenue_matches_lineage_subset(self, tpch_db):
        res = tpch_db.execute(q10(), options=INJECT)
        li = tpch_db.table("lineitem")
        for o in range(min(10, len(res.table))):
            rids = res.backward([o], "lineitem")
            revenue = (
                li.column("l_extendedprice")[rids]
                * (1 - li.column("l_discount")[rids])
            ).sum()
            assert res.table.column("revenue")[o] == pytest.approx(revenue)


class TestQ12:
    def test_counts_match_lineage_partition(self, tpch_db):
        res = tpch_db.execute(q12(), options=INJECT)
        orders = tpch_db.table("orders")
        for o in range(len(res.table)):
            order_rids = res.backward([o], "orders")
            priorities = orders.column("o_orderpriority")[order_rids]
            # backward() dedups; count via the bag index for multiplicity
            bag = res.lineage.backward_bag([o], "orders")
            bag_priorities = orders.column("o_orderpriority")[bag]
            high = sum(p in ("1-URGENT", "2-HIGH") for p in bag_priorities)
            assert res.table.column("high_line_count")[o] == high

    def test_lineitem_predicate_respected(self, tpch_db):
        res = tpch_db.execute(q12(), options=INJECT)
        li = tpch_db.table("lineitem")
        all_rids = res.lineage.backward_index("lineitem").values
        assert (li.column("l_commitdate")[all_rids] < li.column("l_receiptdate")[all_rids]).all()
        assert (li.column("l_shipdate")[all_rids] < li.column("l_commitdate")[all_rids]).all()
