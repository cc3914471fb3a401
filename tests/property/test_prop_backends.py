"""Property tests: invariant I3 — vector and compiled backends agree on
randomly generated plans, tables, and lineage queries."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.plan.logical import (
    AggCall,
    GroupBy,
    HashJoin,
    Project,
    Scan,
    Select,
    SetOp,
    col,
)
from repro.storage import Table

INJECT = ExecOptions(capture=CaptureMode.INJECT)

tables = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=1,
    max_size=40,
)


def _db(rows, rows2):
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "k": np.array([r[0] for r in rows], dtype=np.int64),
                "v": np.array([r[1] for r in rows], dtype=np.int64),
            }
        ),
    )
    db.create_table(
        "u",
        Table(
            {
                "k": np.array([r[0] for r in rows2], dtype=np.int64),
                "w": np.array([r[1] for r in rows2], dtype=np.int64),
            }
        ),
    )
    return db


PLAN_BUILDERS = [
    lambda cutoff: Select(Scan("t"), col("v") >= cutoff),
    lambda cutoff: GroupBy(
        Select(Scan("t"), col("v") >= cutoff),
        [(col("k"), "k")],
        [
            AggCall("count", None, "c"),
            AggCall("sum", col("v"), "s"),
            AggCall("min", col("v"), "mn"),
            AggCall("max", col("v"), "mx"),
            AggCall("count_distinct", col("v"), "cd"),
        ],
    ),
    lambda cutoff: HashJoin(Scan("t"), Scan("u"), ("k",), ("k",)),
    lambda cutoff: GroupBy(
        HashJoin(Scan("t"), Scan("u"), ("k",), ("k",)),
        [(col("k"), "k")],
        [AggCall("count", None, "c")],
    ),
    lambda cutoff: SetOp(
        "union",
        Project(Scan("t"), [(col("k"), "k")]),
        Project(Scan("u"), [(col("k"), "k")]),
    ),
    lambda cutoff: SetOp(
        "except",
        Project(Scan("t"), [(col("k"), "k")]),
        Project(Scan("u"), [(col("k"), "k")]),
        all=True,
    ),
    lambda cutoff: Project(Scan("t"), [(col("k"), "k")], distinct=True),
]


@given(
    tables,
    tables,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=len(PLAN_BUILDERS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_backends_agree(rows, rows2, cutoff, plan_idx):
    db = _db(rows, rows2)
    plan = PLAN_BUILDERS[plan_idx](cutoff)
    vec = db.execute(plan, options=INJECT)
    comp = db.execute(plan, options=INJECT.with_(backend="compiled"))
    assert vec.table.to_rows() == comp.table.to_rows()
    if vec.lineage is None:
        return
    for rel in vec.lineage.relations:
        n = len(vec.table)
        if n:
            probes = list(range(min(n, 6)))
            assert np.array_equal(
                vec.lineage.backward(probes, rel),
                comp.lineage.backward(probes, rel),
            )
        base = db.table(rel.split("#")[0])
        if base.num_rows and rel in comp.lineage.relations:
            probes = list(range(min(base.num_rows, 6)))
            assert np.array_equal(
                vec.lineage.forward(rel, probes),
                comp.lineage.forward(rel, probes),
            )


@given(tables, st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_lineage_roundtrip_invariant(rows, cutoff):
    """Invariant I1 on the executor level: backward/forward are inverses."""
    db = _db(rows, [(0, 0)])
    plan = GroupBy(
        Select(Scan("t"), col("v") >= cutoff),
        [(col("k"), "k")],
        [AggCall("count", None, "c")],
    )
    res = db.execute(plan, options=INJECT)
    bw = res.lineage.backward_index("t")
    fw = res.lineage.forward_index("t")
    for o in range(len(res.table)):
        for rid in bw.lookup(o):
            assert o in fw.lookup_many([int(rid)]).tolist()
    for rid in range(db.table("t").num_rows):
        for o in fw.lookup_many([rid]):
            assert rid in bw.lookup(int(o)).tolist()


@given(tables, tables)
@settings(max_examples=40, deadline=None)
def test_defer_equals_inject_everywhere(rows, rows2):
    db = _db(rows, rows2)
    plan = GroupBy(
        HashJoin(Scan("t"), Scan("u"), ("k",), ("k",)),
        [(col("k"), "k")],
        [AggCall("sum", col("w"), "s")],
    )
    inject = db.execute(plan, options=INJECT)
    defer = db.execute(plan, options=ExecOptions(capture=CaptureMode.DEFER))
    assert inject.table.to_rows() == defer.table.to_rows()
    for rel in inject.lineage.relations:
        for o in range(len(inject.table)):
            assert np.array_equal(
                inject.lineage.backward([o], rel),
                defer.lineage.backward([o], rel),
            )
