"""Property tests: chained consuming queries re-root lineage correctly.

For random tables and random drill-downs, a chained query — a registered
INJECT statement over ``Lb(overview, 't', :bars)`` — must trace backward
into the original base relation exactly as recomputing the chained
query's semantics directly against the base table does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.storage import Table

INJECT = ExecOptions(capture=CaptureMode.INJECT)

rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),   # outer group key
        st.integers(min_value=0, max_value=3),   # drill key
        st.integers(min_value=0, max_value=20),  # value
    ),
    min_size=1,
    max_size=60,
)


def _database(data) -> Database:
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "g": np.array([r[0] for r in data], dtype=np.int64),
                "d": np.array([r[1] for r in data], dtype=np.int64),
                "v": np.array([r[2] for r in data], dtype=np.int64),
            }
        ),
    )
    return db


def _overview(db):
    return db.sql(
        "SELECT g, COUNT(*) AS c FROM t GROUP BY g",
        options=INJECT.with_(name="overview"),
    )


@given(rows, st.integers(min_value=0, max_value=4))
@settings(max_examples=80, deadline=None)
def test_chain_backward_equals_direct_recomputation(data, bar_seed):
    db = _database(data)
    overview = _overview(db)
    bar = bar_seed % len(overview.table)
    drill = db.sql(
        "SELECT d, SUM(v) AS s FROM Lb(overview, 't', :bars) GROUP BY d",
        params={"bars": [bar]},
        options=INJECT,
    )
    base = db.table("t")
    g0 = overview.table.column("g")[bar]
    for out in range(len(drill.table)):
        rids = drill.backward([out], "t")
        d_val = drill.table.column("d")[out]
        expected = np.nonzero(
            (base.column("g") == g0) & (base.column("d") == d_val)
        )[0]
        assert np.array_equal(rids, expected)
        assert drill.table.column("s")[out] == base.column("v")[expected].sum()


@given(rows)
@settings(max_examples=60, deadline=None)
def test_chain_forward_covers_exactly_subset(data):
    db = _database(data)
    overview = _overview(db)
    drill = db.sql(
        "SELECT d, COUNT(*) AS c FROM Lb(overview, 't', 0) GROUP BY d",
        options=INJECT,
    )
    subset = set(overview.backward([0], "t").tolist())
    for rid in range(db.table("t").num_rows):
        image = drill.forward("t", [rid])
        if rid in subset:
            assert image.size == 1
        else:
            assert image.size == 0
