"""Property: a write keeps exactly the per-bar memos it did not change.

Random ``preserve_rids`` column updates (of columns the brushes read and
of columns they do not), plain replacements and view re-registrations
interleave with brushes through a ``Session`` and through a
``DatabaseServer`` — on its current snapshot and on snapshots pinned
before earlier writes.  Every answer (or error type) equals that of a
fresh ``Database`` over the same tables and view.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CaptureMode, Database, ExecOptions, Table
from repro.errors import ReproError
from repro.serve import DatabaseServer

ROWS = 12
VIEWS = (
    "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
    "SELECT z, COUNT(*) AS c FROM t WHERE w >= 1 GROUP BY z",
)
#: Each reads ``g`` or ``w`` of ``t`` (never ``u``); the joins read ``d``.
STATEMENTS = (
    "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY g",
    "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) WHERE w >= 2 GROUP BY g",
    "SELECT DISTINCT g FROM Lb(v, 't', :bars)",
    "SELECT w FROM Lb(v, 't', :bars) WHERE w >= 2",
    "SELECT region, COUNT(*) AS c FROM Lb(v, 't', :bars) "
    "JOIN d ON t.g = d.g GROUP BY region",
    # Lb on the right: its w is the join output's w_r.
    "SELECT t.w AS w, COUNT(*) AS c FROM d JOIN Lb(v, 't', :bars) "
    "ON d.g = t.g GROUP BY t.w",
)
#: ``preserve_rids`` updates: read and unread columns of ``t``, and the
#: join leaf's columns.
COLUMNS = (("t", "g"), ("t", "w"), ("t", "u"), ("d", "region"), ("d", "w"))
INJECT = ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True)

values = st.lists(st.integers(0, 3), min_size=ROWS, max_size=ROWS)
writes = st.one_of(
    st.tuples(st.just("update"), st.sampled_from(COLUMNS), values),
    st.tuples(st.just("replace"), st.sampled_from(("t", "d")), values),
    st.tuples(st.just("register"), st.sampled_from(VIEWS)),
)
#: Per step: an optional write, then every statement brushed over one bar
#: set through one front (``which`` picks a pinned snapshot).
steps_strategy = st.lists(
    st.tuples(
        st.none() | writes,
        st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
        st.sampled_from(("session", "server", "pinned")),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=10,
)


def _t(z, g, w, u):
    return Table({name: np.asarray(v, dtype=np.int64)
                  for name, v in (("z", z), ("g", g), ("w", w), ("u", u))})


def _d(region):
    return Table({"g": np.arange(4, dtype=np.int64),
                  "region": np.asarray(region[:4], dtype=np.int64),
                  "w": np.asarray(region[4:8], dtype=np.int64)})


def _answer(run):
    """Rows of ``run()``'s table, or the type of the error it raised."""
    try:
        return run().table.to_rows()
    except ReproError as exc:
        return type(exc)


def _fresh(state):
    """A fresh ``Database`` in ``state``: ``(tables, view, captured)``,
    ``captured`` being the ``t`` the view was last registered over —
    later ``preserve_rids`` updates of ``t`` leave the view as it was."""
    tables, view, captured = state
    db = Database()
    for name, table in {**tables, "t": captured}.items():
        db.create_table(name, table)
    db.sql(view, options=INJECT)
    if tables["t"] is not captured:
        db.create_table("t", tables["t"], replace=True, preserve_rids=True)
    return db


def _write(op, state):
    """``op`` as a server write callable, and the state it leaves."""
    tables, view, captured = dict(state[0]), state[1], state[2]
    kind = op[0]
    if kind == "register":
        view = op[1]
    else:
        name = op[1][0] if kind == "update" else op[1]
        columns = tables[name].columns()
        if kind == "update":
            column = op[1][1]
            columns[column] = np.asarray(op[2][: columns[column].size], dtype=np.int64)
        else:  # every column new: other values and, for ``t``, other lineage
            columns = {c: np.roll(np.asarray(op[2], dtype=np.int64)[: a.size] + i, i)
                       for i, (c, a) in enumerate(columns.items())}
        tables[name] = Table(columns)

    # A plain replace of ``t`` stales the view's lineage: re-register it.
    register = kind == "register" or (kind == "replace" and name == "t")
    if register:
        captured = tables["t"]

    def write(db):
        if kind != "register":
            db.create_table(
                name, tables[name], replace=True, preserve_rids=kind == "update"
            )
        if register:
            db.sql(view, options=INJECT)

    return write, (tables, view, captured)


@settings(deadline=None)
@given(
    z=st.lists(st.integers(0, 2), min_size=ROWS, max_size=ROWS),
    data=st.lists(values, min_size=4, max_size=4),
    steps=steps_strategy,
)
def test_memo_answers_equal_a_fresh_database_across_writes(z, data, steps):
    t = _t(z, *data[:3])
    state = ({"t": t, "d": _d(data[3])}, VIEWS[0], t)
    db = _fresh(state)
    session = db.session()
    pinned = []  # (snapshot, state) taken before each write
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        for op, bars, front, which in steps:
            if op is not None:
                pinned.append((server.snapshot(), state))
                write, state = _write(op, state)
                server.write(write)
            params = {"bars": bars}
            if front == "session":
                run, expected = session.sql, state
            elif front == "server" or not pinned:
                run, expected = server.sql, state
            else:
                snapshot, expected = pinned[which % len(pinned)]

                def run(stmt, params, snapshot=snapshot):
                    return server.sql(stmt, params=params, snapshot=snapshot)
            reference = _fresh(expected)
            for stmt in STATEMENTS:
                got = _answer(lambda: run(stmt, params=params))
                want = _answer(lambda: reference.sql(stmt, params=params))
                assert got == want, (op, front, stmt)
