"""Property tests: randomized SQL statements over a template grammar.

Generates structurally diverse SELECT statements, binds and executes them
on the vector executor and the compiled reference, and checks (a) no
crash, (b) agreement with the reference, and
(c) lineage round-trips for captured queries — a fuzz layer above the
hand-written SQL tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.storage import Table
from reference import reference

INJECT = ExecOptions(capture=CaptureMode.INJECT)

COLUMNS = ("k", "p", "v")

predicates = st.sampled_from(
    [
        "",
        "WHERE v < 10",
        "WHERE k = 2 AND v >= 3",
        "WHERE p IN (0, 2) OR v BETWEEN 2 AND 8",
        "WHERE NOT k = 1",
    ]
)
aggregates = st.sampled_from(
    [
        "COUNT(*) AS c",
        "COUNT(*) AS c, SUM(v) AS s",
        "SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx",
        "AVG(v) AS a, COUNT(DISTINCT p) AS cd",
    ]
)
group_keys = st.sampled_from(["k", "p", "k, p"])
order_limit = st.sampled_from(["", "LIMIT 3", "ORDER BY c DESC", "ORDER BY c LIMIT 2"])

rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=20),
    ),
    min_size=1,
    max_size=50,
)


def _db(data):
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
    return db


@given(rows, predicates, aggregates, group_keys, order_limit)
@settings(max_examples=120, deadline=None)
def test_generated_sql_executes_on_both_backends(data, where, aggs, keys, tail):
    db = _db(data)
    first_key = keys.split(",")[0].strip()
    sql = (
        f"SELECT {first_key}, {aggs} FROM t {where} GROUP BY {keys} {tail}"
    ).strip()
    if "ORDER BY c" in tail and " c" not in aggs.split(",")[0]:
        sql = sql.replace("ORDER BY c", "ORDER BY " + first_key)
    vec = db.sql(sql, options=INJECT)
    comp = reference(db, sql, options=INJECT)
    assert len(vec) == len(comp)
    for a, b in zip(vec.table.to_rows(), comp.table.to_rows(), strict=True):
        for x, y in zip(a, b, strict=True):
            assert x == pytest.approx(y)
    if len(vec):
        probes = list(range(len(vec)))
        assert np.array_equal(
            vec.backward(probes, "t"), comp.backward(probes, "t")
        )


@given(rows, predicates, group_keys)
@settings(max_examples=100, deadline=None)
def test_generated_sql_lineage_partitions_filtered_input(data, where, keys):
    db = _db(data)
    sql = f"SELECT {keys.split(',')[0].strip()}, COUNT(*) AS c FROM t {where} GROUP BY {keys}"
    res = db.sql(sql, options=INJECT)
    # union of all backward buckets == rows passing WHERE
    if len(res) == 0:
        return
    all_rids = np.sort(
        np.concatenate(
            [res.lineage.backward_bag([o], "t") for o in range(len(res))]
        )
    )
    check = db.sql(f"SELECT COUNT(*) AS c FROM t {where}")
    assert all_rids.size == check.table.column("c")[0]
    assert np.array_equal(all_rids, np.unique(all_rids))  # disjoint buckets
