"""Property test: ``=`` / ``<>`` / ``IN`` over STR columns against stdlib
:mod:`sqlite3`.

Over a stored table, and over a table selected from one, these
predicates read the table's dictionary codes
(:meth:`~repro.storage.table.Table.shared_codes`); over a join output
they compare objects.  Each statement below runs capture off and on
through one :class:`~repro.api.Database`, against constants and
``:params`` — strings in the dictionary, one absent from it, the empty
string and a non-ASCII one — and each answer must equal, as a bag of
rows, sqlite's answer to the same statement.
"""

import sqlite3
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.storage import Table

VALUES = ["a", "b", "", "é"]
ABSENT = "zz"
strings = st.sampled_from(VALUES + [ABSENT])

rows_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(VALUES), st.sampled_from(VALUES),
              st.integers(0, 9)),
    min_size=0,
    max_size=30,
)

DIMENSION = {"k": [0, 1, 1, 3], "name": ["a", "b", "é", "a"]}


def _in(names):
    return "(" + ", ".join("?" for _ in names) + ")"


#: (repro statement, sqlite statement builder over the drawn parameters,
#: the parameters in sqlite's positional order)
STATEMENTS = [
    ("SELECT v FROM t WHERE s = :p", lambda p: "SELECT v FROM t WHERE s = ?", ["p"]),
    ("SELECT v, u FROM t WHERE s <> :p", lambda p: "SELECT v, u FROM t WHERE s <> ?", ["p"]),
    ("SELECT v FROM t WHERE :p = u", lambda p: "SELECT v FROM t WHERE ? = u", ["p"]),
    ("SELECT v, s FROM t WHERE s IN :ps",
     lambda p: f"SELECT v, s FROM t WHERE s IN {_in(p['ps'])}", ["ps"]),
    ("SELECT v FROM t WHERE s IN ('a', 'zz') AND u <> 'b'",
     lambda p: "SELECT v FROM t WHERE s IN ('a', 'zz') AND u <> 'b'", []),
    ("SELECT v FROM t WHERE s = 'zz' OR 'é' = u",
     lambda p: "SELECT v FROM t WHERE s = 'zz' OR 'é' = u", []),
    ("SELECT v FROM t WHERE s NOT IN :ps",
     lambda p: f"SELECT v FROM t WHERE s NOT IN {_in(p['ps'])}", ["ps"]),
    ("SELECT v, s FROM (SELECT * FROM t WHERE v >= :cut) AS f WHERE s = :p",
     lambda p: "SELECT v, s FROM t WHERE v >= ? AND s = ?", ["cut", "p"]),
    ("SELECT u, COUNT(*) AS c FROM (SELECT * FROM t WHERE v < :cut) AS f "
     "WHERE s IN :ps GROUP BY u",
     lambda p: f"SELECT u, COUNT(*) FROM t WHERE v < ? AND s IN {_in(p['ps'])} GROUP BY u",
     ["cut", "ps"]),
    ("SELECT t.v, d.name FROM t JOIN d ON t.k = d.k WHERE name <> :p AND s IN :ps",
     lambda p: "SELECT t.v, d.name FROM t JOIN d ON t.k = d.k "
               f"WHERE d.name <> ? AND t.s IN {_in(p['ps'])}", ["p", "ps"]),
]


def _databases(rows):
    columns = {
        "k": np.array([r[0] for r in rows], dtype=np.int64),
        "s": np.array([r[1] for r in rows], dtype=object),
        "u": np.array([r[2] for r in rows], dtype=object),
        "v": np.array([r[3] for r in rows], dtype=np.int64),
    }
    db = Database()
    db.create_table("t", Table(columns))
    db.create_table("d", Table({"k": np.array(DIMENSION["k"], dtype=np.int64),
                                "name": np.array(DIMENSION["name"], dtype=object)}))
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (k INTEGER, s TEXT, u TEXT, v INTEGER)")
    lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    lite.execute("CREATE TABLE d (k INTEGER, name TEXT)")
    lite.executemany("INSERT INTO d VALUES (?, ?)", zip(DIMENSION["k"], DIMENSION["name"]))
    return db, lite


def _bag(rows):
    return Counter(tuple(v.item() if isinstance(v, np.generic) else v for v in row)
                   for row in rows)


@given(rows_strategy, st.data())
@settings(deadline=None)
def test_str_predicates_answer_as_sqlite(rows, data):
    db, lite = _databases(rows)
    params = {
        "p": data.draw(strings),
        "ps": data.draw(st.lists(strings, max_size=3)),
        "cut": data.draw(st.integers(0, 9)),
    }
    for statement, sqlite_text, order in STATEMENTS:
        args = []
        for name in order:
            args += params[name] if name == "ps" else [params[name]]
        expected = _bag(lite.execute(sqlite_text(params), args).fetchall())
        for options in (ExecOptions(), ExecOptions(capture=CaptureMode.INJECT)):
            got = db.sql(statement, params=params, options=options)
            assert _bag(got.table.to_rows()) == expected, statement
