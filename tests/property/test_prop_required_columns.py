"""Property test: gathering only the required columns changes no answer.

The executor's selections, joins, sorts and materialized ``Lb`` leaves
gather only the columns the operators above them read
(:class:`~repro.plan.required.RequiredColumns`); the compiled reference
gathers every column.  Over generated plans — stacks of those operators
over two wide tables whose names collide, so joins rename right columns
(``x`` → ``x_r``, and ``x_r`` → ``x_r_r`` past a stored ``x_r``) — whose
root reads a strict subset of what lies below, both engines must answer
the same rows and the same lineage, capture on and off, with the rewrite
on and off.  Float columns hold NaN, -0.0 and 0.0, and may be group and
join keys.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.expr.ast import Const
from repro.lineage.capture import CaptureMode
from repro.plan.logical import (
    AggCall,
    GroupBy,
    HashJoin,
    LineageScan,
    Project,
    Scan,
    Select,
    Sort,
    col,
)
from repro.plan.schema import JOIN_RENAME_SUFFIX, infer_schema
from repro.storage import Table
from repro.storage.table import ColumnType
from reference import reference

INJECT = ExecOptions(capture=CaptureMode.INJECT)
FLOATS = [0.0, -0.0, 1.5, float("nan")]
STRINGS = ["p", "q", "r"]

row = st.tuples(
    st.integers(0, 3), st.integers(0, 9), st.sampled_from(FLOATS),
    st.sampled_from(STRINGS), st.integers(0, 9),
)
rows = st.lists(row, min_size=1, max_size=10)


def _db(a_rows, b_rows):
    def table(names, data):
        k, x, y, s, w = (list(c) for c in zip(*data)) if data else ([], [], [], [], [])
        columns = {"k": np.array(k, dtype=np.int64), "x": np.array(x, dtype=np.int64),
                   "y": np.array(y, dtype=np.float64), "s": np.array(s, dtype=object),
                   names[-1]: np.array(w, dtype=np.int64)}
        return Table({n: columns[n] for n in names})

    db = Database()
    db.create_table("a", table(["k", "x", "y", "s", "x_r"], a_rows))
    db.create_table("b", table(["s", "k", "y", "x", "z"], b_rows))
    db.sql("SELECT k, COUNT(*) AS c FROM a GROUP BY k",
           options=INJECT.with_(name="v", pin=True))
    return db


def _family(name):
    while name.endswith(JOIN_RENAME_SUFFIX):
        name = name[: -len(JOIN_RENAME_SUFFIX)]
    return name


def _predicate(data, schema):
    name = data.draw(st.sampled_from(schema.names))
    ctype = schema.type_of(name)
    if ctype is ColumnType.STR:
        if data.draw(st.booleans()):
            return col(name).isin(data.draw(st.lists(st.sampled_from(STRINGS + ["zz"]), max_size=2)))
        return col(name).ne(data.draw(st.sampled_from(STRINGS)))
    if ctype is ColumnType.FLOAT:
        return col(name) < Const(data.draw(st.sampled_from([0.0, 1.0, 2.0])))
    return col(name) >= Const(data.draw(st.integers(0, 6)))


def _plan(data, db, depth, top=False):
    """A stack of Select / Sort / HashJoin over scans of ``a`` and ``b``
    and a materialized ``Lb`` leaf over ``a``; its ``top`` gathers."""
    kinds = ["select", "sort", "join"] + ([] if top else ["scan", "lb"])
    kinds = kinds if depth else ["scan", "lb"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "scan":
        return Scan(data.draw(st.sampled_from(["a", "b"])))
    if kind == "lb":
        groups = len(db.result("v"))
        bars = data.draw(st.lists(st.integers(0, 3), max_size=3, unique=True)) if groups else []
        bars = [bar % groups for bar in bars]
        return LineageScan("v", "a", "backward", rids=Const(tuple(bars)))
    if kind in ("select", "sort"):
        child = _plan(data, db, depth - 1)
        schema = infer_schema(child, db.catalog)
        if kind == "select":
            return Select(child, _predicate(data, schema))
        keys = data.draw(st.lists(st.sampled_from(schema.names), min_size=1, max_size=2, unique=True))
        limit = data.draw(st.one_of(st.none(), st.integers(0, 6)))
        return Sort(child, [(k, data.draw(st.booleans())) for k in keys], limit)
    left, right = _plan(data, db, depth - 1), _plan(data, db, depth - 1)
    left_schema, right_schema = infer_schema(left, db.catalog), infer_schema(right, db.catalog)
    family = data.draw(st.sampled_from(["k", "y", "s"]))
    left_key = data.draw(st.sampled_from([n for n in left_schema.names if _family(n) == family]))
    right_key = data.draw(st.sampled_from([n for n in right_schema.names if _family(n) == family]))
    return HashJoin(left, right, (left_key,), (right_key,))


def _root(data, db, below):
    """A root that reads a strict subset of ``below``'s columns."""
    schema = infer_schema(below, db.catalog)
    names = schema.names
    subset = data.draw(st.lists(st.sampled_from(names), min_size=0,
                                max_size=max(len(names) - 1, 0), unique=True))
    if data.draw(st.booleans()) or not subset:
        numeric = [n for n in names if schema.type_of(n) is ColumnType.INT]
        aggs = [AggCall("count", None, "c_")]
        if numeric and data.draw(st.booleans()):
            aggs.append(AggCall("sum", col(data.draw(st.sampled_from(numeric))), "s_"))
        return GroupBy(below, [(col(n), n) for n in subset], aggs)
    return Project(below, [(col(n), n) for n in subset],
                   distinct=data.draw(st.booleans()))


def _lineage(result, db):
    """Each output row's backward rids and each input row's forward
    rids, per captured relation."""
    out = {}
    for rel in result.lineage.relations:
        base = db.table(rel.split("#")[0]).num_rows
        out[rel] = (
            [result.backward([i], rel).tolist() for i in range(len(result))],
            [result.forward(rel, [i]).tolist() for i in range(base)],
        )
    return out


@given(rows, rows, st.data())
@settings(deadline=None)
def test_narrow_gathers_answer_as_the_unpruned_reference(a_rows, b_rows, data):
    db = _db(a_rows, b_rows)
    plan = _root(data, db, _plan(data, db, depth=3, top=True))
    late = data.draw(st.booleans())
    for options in (ExecOptions(), INJECT):
        options = options.with_(late_materialize=late)
        got = db.execute(plan, options=options)
        ref = reference(db, plan, options=options)
        assert repr(got.table.to_rows()) == repr(ref.table.to_rows())
        assert got.table.schema == ref.table.schema
        if options.capture is not None:
            assert _lineage(got, db) == _lineage(ref, db)
