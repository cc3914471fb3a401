"""Property test: the per-bar memo's answers against an oracle this repo
did not write — stdlib :mod:`sqlite3`.

Capture-off brushes over a GROUP BY view are answered from per-bar
partials merged per brush (:func:`repro.exec.late_mat._memo_tables`).
Every other suite checks that route against the repo's own interpreter;
this one runs memo-eligible ``COUNT(*) … GROUP BY``, ``WHERE … GROUP BY``,
keyless ``COUNT(*)`` (one row holding 0 over an empty input, as in SQL),
``SELECT DISTINCT`` and join statements over int, string and finite-float
keys through one :class:`~repro.api.Database` — repeated and overlapping
brushes sharing its memos, then the same bindings through
:meth:`~repro.serve.DatabaseServer.sql_batch` — and compares each answer,
as a bag of rows, with sqlite's answer to the statement written over the
base table with ``WHERE z IN (brushed values)``.
"""

import sqlite3
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.serve import DatabaseServer
from repro.storage import Table

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # view key z (the bars)
        st.integers(min_value=0, max_value=3),  # int key k (joins d)
        st.sampled_from(["a", "b", "c"]),  # string key s
        st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300]),  # finite float key f
        st.integers(min_value=0, max_value=20),  # value v
    ),
    min_size=1,
    max_size=40,
)

DIMENSION = {"k": [0, 1, 1, 3], "name": ["red", "green", "blue", "red"]}

#: (repro statement, sqlite statement with ``{bars}`` for the brushed
#: ``z`` values); ``:cut`` / ``?`` is the one other parameter.
STATEMENTS = [
    (
        "SELECT k, COUNT(*) AS c FROM Lb(pv, 't', :bars) GROUP BY k",
        "SELECT k, COUNT(*) FROM t WHERE z IN ({bars}) GROUP BY k",
    ),
    (
        "SELECT s, f, COUNT(*) AS c FROM Lb(pv, 't', :bars) WHERE v >= :cut GROUP BY s, f",
        "SELECT s, f, COUNT(*) FROM t WHERE z IN ({bars}) AND v >= ? GROUP BY s, f",
    ),
    (
        "SELECT COUNT(*) AS c, f FROM Lb(pv, 't', :bars) WHERE v < :cut GROUP BY f",
        "SELECT COUNT(*), f FROM t WHERE z IN ({bars}) AND v < ? GROUP BY f",
    ),
    (
        "SELECT COUNT(*) AS c FROM Lb(pv, 't', :bars)",
        "SELECT COUNT(*) FROM t WHERE z IN ({bars})",
    ),
    (
        "SELECT COUNT(*) AS c FROM Lb(pv, 't', :bars) WHERE v >= :cut",
        "SELECT COUNT(*) FROM t WHERE z IN ({bars}) AND v >= ?",
    ),
    (
        "SELECT DISTINCT s, k FROM Lb(pv, 't', :bars)",
        "SELECT DISTINCT s, k FROM t WHERE z IN ({bars})",
    ),
    (
        "SELECT DISTINCT f FROM Lb(pv, 't', :bars) WHERE v >= :cut",
        "SELECT DISTINCT f FROM t WHERE z IN ({bars}) AND v >= ?",
    ),
    (
        "SELECT name, COUNT(*) AS c FROM Lb(pv, 't', :bars) JOIN d ON t.k = d.k "
        "WHERE v >= :cut GROUP BY name",
        "SELECT name, COUNT(*) FROM t JOIN d ON t.k = d.k "
        "WHERE t.z IN ({bars}) AND v >= ? GROUP BY name",
    ),
]


def _databases(rows):
    """The engine's database, with the view ``pv`` registered, and the
    same tables in an in-memory sqlite database."""
    names = ("z", "k", "s", "f", "v")
    columns = {
        name: np.array([r[i] for r in rows], dtype=object if name == "s" else None)
        for i, name in enumerate(names)
    }
    db = Database()
    db.create_table("t", Table(columns))
    dimension = np.empty(len(DIMENSION["name"]), dtype=object)
    dimension[:] = DIMENSION["name"]
    db.create_table("d", Table({"k": np.array(DIMENSION["k"]), "name": dimension}))
    db.sql(
        "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
        options=ExecOptions(capture=CaptureMode.INJECT, name="pv"),
    )
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (z INTEGER, k INTEGER, s TEXT, f REAL, v INTEGER)")
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
    oracle.execute("CREATE TABLE d (k INTEGER, name TEXT)")
    dimension_rows = zip(DIMENSION["k"], DIMENSION["name"], strict=True)
    oracle.executemany("INSERT INTO d VALUES (?, ?)", dimension_rows)
    return db, oracle


def _oracle_rows(oracle, sql, z_values, cut):
    text = sql.format(bars=", ".join(str(z) for z in z_values))
    return Counter(oracle.execute(text, (cut,) if "?" in text else ()).fetchall())


@given(
    rows_strategy,
    st.integers(min_value=0, max_value=21),
    st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=5), min_size=1, max_size=4),
)
@settings(deadline=None)  # example budget governed by the profile
def test_memo_answers_match_sqlite(rows, cut, brushes):
    db, oracle = _databases(rows)
    view_z = db.result("pv").table.column("z")
    # Overlapping brushes, duplicate and unsorted bars, the first repeated.
    brushes = [[b % len(view_z) for b in bars] for bars in brushes]
    brushes += brushes[:1]
    try:
        with DatabaseServer(db, readers=1, memoize_answers=False) as server:
            for stmt, sql in STATEMENTS:
                bindings = [{"bars": bars, "cut": cut} for bars in brushes]
                expected = [
                    _oracle_rows(oracle, sql, view_z[bars].tolist(), cut) for bars in brushes
                ]
                singles = [db.sql(stmt, params=params) for params in bindings]
                batched = server.sql_batch(stmt, bindings)
                for single, batch, want in zip(singles, batched, expected, strict=True):
                    assert Counter(single.table.to_rows()) == want
                    assert Counter(batch.table.to_rows()) == want
    finally:
        oracle.close()
    # Every statement was answered from the memo, bar by bar.
    stats = db.lineage_cache.stats()
    requested = sum(len(set(bars)) for bars in brushes)
    assert stats["bar_fills"] + stats["bar_reuses"] == 2 * len(STATEMENTS) * requested
