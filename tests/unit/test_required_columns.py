"""The required-columns pass (:mod:`repro.plan.required`): which columns
each selection, join, sort and materialized ``Lb`` leaf gathers."""

import numpy as np
import pytest

from repro.api import Database, ExecOptions
from repro.datagen import load_tpch
from repro.exec.vector import executor as vector_executor
from repro.lineage.capture import CaptureMode
from repro.plan.logical import HashJoin, Project, Scan, Select, col, walk
from repro.plan.required import RequiredColumns, kept_names
from repro.plan.rewrite import precompute_rewrites
from repro.plan.schema import infer_schema
from repro.storage import Table
from repro.tpch import q1, q3, q10, q12
from reference import reference

INJECT = ExecOptions(capture=CaptureMode.INJECT)


@pytest.fixture(scope="module")
def tpch():
    db = Database()
    load_tpch(db, scale_factor=0.002, seed=1)
    return db


def _gathers(plan, catalog):
    """The columns each Select / HashJoin of ``plan`` keeps, pre-order
    (``None``: all of them)."""
    required = RequiredColumns(plan)
    return [
        kept_names(required.of(node), infer_schema(node, catalog).names)
        for node in walk(plan) if isinstance(node, (Select, HashJoin))
    ]


def test_tpch_gathers_keep_what_the_query_reads(tpch):
    assert _gathers(q1(), tpch.catalog) == [
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus"],
    ]
    assert _gathers(q3(), tpch.catalog) == [
        ["o_orderdate", "o_shippriority", "l_orderkey", "l_extendedprice", "l_discount"],
        ["o_orderkey", "o_orderdate", "o_shippriority"],
        ["c_custkey"],
        ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
        ["l_orderkey", "l_extendedprice", "l_discount"],
    ]
    assert _gathers(q10(), tpch.catalog) == [
        ["n_name", "c_custkey", "c_name", "c_acctbal", "c_phone", "l_extendedprice", "l_discount"],
        ["n_name", "c_custkey", "c_name", "c_acctbal", "c_phone", "o_orderkey"],
        ["n_name", "c_custkey", "c_name", "c_acctbal", "c_phone"],
        ["o_orderkey", "o_custkey"],
        ["l_orderkey", "l_extendedprice", "l_discount"],
    ]
    assert _gathers(q12(), tpch.catalog) == [
        ["o_orderpriority", "l_shipmode"],
        ["l_orderkey", "l_shipmode"],
    ]


def test_q1_selection_hands_the_group_by_only_its_columns(tpch, monkeypatch):
    outputs = []
    real = vector_executor.execute_select

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        outputs.append(out[0].schema.names)
        return out

    monkeypatch.setattr(vector_executor, "execute_select", recording)
    for options in (ExecOptions(), INJECT):
        got = tpch.prepare(q1()).run(options=options)
        ref = reference(tpch, q1(), options=options)
        # Float sums differ in their last bits between the engines.
        for mine, theirs in zip(got.table.to_rows(), ref.table.to_rows(), strict=True):
            assert mine[:2] + mine[-1:] == theirs[:2] + theirs[-1:]
            assert mine[2:-1] == pytest.approx(theirs[2:-1], rel=1e-12)
    rids = np.arange(len(got), dtype=np.int64)
    assert np.array_equal(got.backward(rids, "lineitem"), ref.backward(rids, "lineitem"))
    assert outputs == [_gathers(q1(), tpch.catalog)[0]] * 2


def _renaming_db():
    db = Database()
    db.create_table("a", Table({"k": np.array([0, 1, 1]), "x": np.array([5, 6, 7]),
                                "pad": np.array([0.5, 1.5, 2.5])}))
    db.create_table("b", Table({"x": np.array([8, 9]), "x_r": np.array([1, 2]),
                                "k": np.array([1, 0]), "tail": np.array(["p", "q"], dtype=object)}))
    return db


def test_a_renamed_right_column_keeps_the_names_it_was_renamed_past():
    """``b.x`` becomes ``x_r`` past ``a.x``, and ``b.x_r`` becomes
    ``x_r_r`` past it: reading them keeps ``x`` and ``x_r`` on both
    sides, so the narrowed inputs rename as the full ones do."""
    db = _renaming_db()
    join = HashJoin(Scan("a"), Scan("b"), ("k",), ("k",))
    plan = Project(join, [(col("x_r"), "bx"), (col("x_r_r"), "bxr")])
    required = RequiredColumns(plan)
    assert required.of(join) == {"x_r", "x_r_r"}
    assert required.of(join.left) == required.of(join.right) == {"x_r_r", "x_r", "x", "k"}
    assert kept_names(required.of(join.left), ["k", "x", "pad"]) == ["k", "x"]
    assert kept_names(required.of(join.right), ["x", "x_r", "k", "tail"]) == ["x", "x_r", "k"]
    for options in (ExecOptions(), INJECT):
        got = db.execute(plan, options=options)
        assert got.table.to_rows() == reference(db, plan, options=options).table.to_rows()
    assert db.execute(plan).table.to_rows() == [(8, 1), (8, 1), (9, 2)]


def test_select_star_keeps_every_column():
    db = _renaming_db()
    for text in ("SELECT * FROM a WHERE x > 5",
                 "SELECT * FROM (SELECT * FROM a WHERE x > 5) AS s ORDER BY pad DESC",
                 "SELECT * FROM a JOIN b ON a.k = b.k"):
        plan = db.parse(text)
        required = precompute_rewrites(plan).required
        assert all(required.of(node) is None for node in walk(plan)
                   if not isinstance(node, Scan)), text
        got = db.sql(text, options=INJECT)
        ref = reference(db, text, options=INJECT)
        assert got.table.schema == ref.table.schema
        assert got.table.to_rows() == ref.table.to_rows()


def test_a_count_over_a_join_keeps_one_column_and_every_row():
    db = _renaming_db()
    text = "SELECT COUNT(*) AS c FROM a JOIN b ON a.k = b.k"
    plan = db.parse(text)
    join = next(n for n in walk(plan) if isinstance(n, HashJoin))
    assert RequiredColumns(plan).of(join) == frozenset()
    assert kept_names(frozenset(), ["k", "x"]) == ["k"]
    assert db.sql(text).table.to_rows() == [(3,)]


def test_a_node_under_two_parents_keeps_what_either_reads():
    db = _renaming_db()
    shared = Select(Scan("a"), col("x") >= 6)
    join = HashJoin(shared, shared, ("k",), ("x",))
    plan = Project(join, [(col("pad"), "pad")])
    assert RequiredColumns(plan).of(shared) == {"pad", "k", "x"}
    assert db.execute(plan).table.to_rows() == reference(db, plan).table.to_rows()
