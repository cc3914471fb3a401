"""Property test: GROUP BY over STR keys, which the vector executor keys
by its tables' memoized dictionary codes (``Table.codes``), against the
compiled reference — answers and lineage — and against stdlib
:mod:`sqlite3` as bags of rows.

The WHERE clause makes the grouped table one selected from the stored
one, so its codes are a gather of the stored table's; each example then
replaces the stored table (rows reversed) and checks again, so a memo
that outlived its table would show.
"""

import sqlite3
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.storage import Table
from reference import reference

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", ""]),  # string key s
        st.sampled_from(["x", "yy"]),  # string key u
        st.integers(min_value=0, max_value=3),  # int key k
        st.integers(min_value=0, max_value=20),  # value v
    ),
    min_size=1,
    max_size=40,
)

KEYS = [["s"], ["s", "k"], ["k", "s"], ["s", "u"], ["u", "k", "s"]]

OPTIONS = [ExecOptions(), ExecOptions(capture=CaptureMode.INJECT)]


def _table(rows):
    return Table({
        "s": np.array([r[0] for r in rows], dtype=object),
        "u": np.array([r[1] for r in rows], dtype=object),
        "k": np.array([r[2] for r in rows], dtype=np.int64),
        "v": np.array([r[3] for r in rows], dtype=np.int64),
    })


def _sqlite(rows, keys, cut):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (s TEXT, u TEXT, k INTEGER, v INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    listed = ", ".join(keys)
    answer = conn.execute(
        f"SELECT {listed}, COUNT(*), SUM(v) FROM t WHERE v >= ? GROUP BY {listed}", (cut,)
    ).fetchall()
    conn.close()
    return Counter(answer)


def _check(db, rows, keys, cut):
    listed = ", ".join(keys)
    text = (
        f"SELECT {listed}, COUNT(*) AS c, SUM(v) AS sv FROM t WHERE v >= {cut} GROUP BY {listed}"
    )
    oracle = _sqlite(rows, keys, cut)
    for options in OPTIONS:
        vec = db.sql(text, options=options)
        comp = reference(db, text, options=options)
        got = vec.table.to_rows()
        assert got == comp.table.to_rows()
        assert Counter(got) == oracle
        if options.capture is CaptureMode.INJECT:
            outs = list(range(len(got)))
            assert np.array_equal(vec.lineage.backward(outs, "t"), comp.lineage.backward(outs, "t"))
            rids = list(range(len(rows)))
            assert np.array_equal(vec.lineage.forward("t", rids), comp.lineage.forward("t", rids))


@given(rows_strategy, st.sampled_from(KEYS), st.integers(min_value=0, max_value=12))
@settings(deadline=None)
def test_str_groupby_matches_compiled_and_sqlite(rows, keys, cut):
    db = Database()
    db.create_table("t", _table(rows))
    _check(db, rows, keys, cut)
    rows = rows[::-1]
    db.create_table("t", _table(rows), replace=True)
    _check(db, rows, keys, cut)
