"""Property tests: invariant I5 — workload optimizations never change
lineage-consuming query answers, only their cost."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.expr.ast import Col
from repro.lineage.capture import CaptureMode
from repro.plan.logical import AggCall, GroupBy, Scan, col
from repro.storage import Table
from repro.workload.pushdown import filter_backward_index, predicate_mask
from repro.workload.skipping import AttributePartitioner, PartitionedRidIndex
from repro.workload.cube import LineageCube

rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),   # group key
        st.integers(min_value=0, max_value=3),   # partition attribute
        st.integers(min_value=0, max_value=50),  # value
    ),
    min_size=1,
    max_size=60,
)


def _setup(data):
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "k": np.array([r[0] for r in data], dtype=np.int64),
                "p": np.array([r[1] for r in data], dtype=np.int64),
                "v": np.array([r[2] for r in data], dtype=np.int64),
            }
        ),
    )
    plan = GroupBy(
        Scan("t"),
        [(col("k"), "k")],
        [AggCall("count", None, "c"), AggCall("sum", col("v"), "s")],
    )
    res = db.execute(plan, options=ExecOptions(capture=CaptureMode.INJECT))
    return db, res


@given(rows, st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_skipping_partitions_each_bucket(data, pvalue):
    db, res = _setup(data)
    table = db.table("t")
    backward = res.lineage.backward_index("t")
    part = AttributePartitioner(table, ["p"])
    index = PartitionedRidIndex(backward, part)
    for out in range(backward.num_keys):
        full = backward.lookup(out)
        got = np.sort(index.lookup(out, (pvalue,)))
        expected = np.sort(full[table.column("p")[full] == pvalue])
        assert np.array_equal(got, expected)
        # All partitions together reassemble the bucket exactly.
        assert np.array_equal(
            np.sort(index.lookup_full(out)), np.sort(full)
        )


@given(rows, st.integers(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_selection_pushdown_equals_post_filter(data, cutoff):
    db, res = _setup(data)
    table = db.table("t")
    backward = res.lineage.backward_index("t")
    mask = predicate_mask(table, Col("v") < cutoff)
    filtered = filter_backward_index(backward, mask)
    for out in range(backward.num_keys):
        full = backward.lookup(out)
        expected = full[table.column("v")[full] < cutoff]
        assert np.array_equal(filtered.lookup(out), expected)


@given(rows)
@settings(max_examples=80, deadline=None)
def test_cube_cells_sum_to_group_aggregates(data):
    db, res = _setup(data)
    table = db.table("t")
    fw = res.lineage.forward_index("t").values
    cube = LineageCube(
        table, fw, len(res.table), ["p"],
        [AggCall("count", None, "c"), AggCall("sum", col("v"), "s")],
    )
    for out in range(len(res.table)):
        cells = cube.lookup(out)
        assert int(np.sum(cells.column("c"))) == res.table.column("c")[out]
        assert int(np.sum(cells.column("s"))) == res.table.column("s")[out]
