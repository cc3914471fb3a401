"""Property tests: invariant I4 — every capture technique answers lineage
queries identically on random inputs (they differ only in cost)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.baselines import (
    LazyLineageEvaluator,
    build_logic_idx,
    logical_capture,
)
from repro.lineage.capture import CaptureMode
from repro.plan.logical import AggCall, GroupBy, Scan, Select, col
from repro.storage import Table

INJECT = ExecOptions(capture=CaptureMode.INJECT)

rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=1,
    max_size=60,
)


def _setup(data, cutoff):
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "k": np.array([r[0] for r in data], dtype=np.int64),
                "v": np.array([r[1] for r in data], dtype=np.int64),
            }
        ),
    )
    plan = GroupBy(
        Select(Scan("t"), col("v") >= cutoff),
        [(col("k"), "k")],
        [AggCall("count", None, "c"), AggCall("sum", col("v"), "s")],
    )
    return db, plan


@given(rows, st.integers(min_value=0, max_value=10))
@settings(max_examples=80, deadline=None)
def test_all_capture_techniques_agree(data, cutoff):
    db, plan = _setup(data, cutoff)
    smoke = db.execute(plan, options=INJECT)
    lazy = LazyLineageEvaluator(db, plan)
    cap = logical_capture(db.catalog, plan, "rid")
    logic, _ = build_logic_idx(cap, {"t": db.table("t").num_rows})
    # Logical group order can differ: align by group key value.
    smoke_keys = smoke.table.column("k").tolist()
    logic_keys = cap.output.column("k").tolist()
    for o_logic, key in enumerate(logic_keys):
        o_smoke = smoke_keys.index(key)
        expected = smoke.backward([o_smoke], "t")
        assert np.array_equal(lazy.backward(o_smoke), expected)
        assert np.array_equal(logic.backward([o_logic], "t"), expected)
        assert np.array_equal(cap.backward_scan(o_logic, "t"), expected)


@given(rows, st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_forward_agrees_between_smoke_and_lazy(data, cutoff):
    db, plan = _setup(data, cutoff)
    smoke = db.execute(plan, options=INJECT)
    lazy = LazyLineageEvaluator(db, plan)
    n = db.table("t").num_rows
    probes = list(range(min(n, 10)))
    assert np.array_equal(
        smoke.forward("t", probes), lazy.forward(probes)
    )


@given(rows, st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_logic_tuple_annotation_consistent_with_rid(data, cutoff):
    db, plan = _setup(data, cutoff)
    rid_cap = logical_capture(db.catalog, plan, "rid")
    tup_cap = logical_capture(db.catalog, plan, "tuple")
    assert len(rid_cap.annotated) == len(tup_cap.annotated)
    for o in range(len(rid_cap.output)):
        assert np.array_equal(
            rid_cap.backward_scan(o, "t"), tup_cap.backward_scan(o, "t")
        )
