"""Property tests: prepared execution is indistinguishable from one-shot
execution — ``PreparedQuery.run()`` and ``Session.sql`` results and
captured lineage are bit-identical to the uncached raw plan
(``Database.execute(Database.parse(...))``) of the same statement and to
the compiled reference's answer, across random parameter sequences and
interleaved re-registrations of the consumed result.

This is the correctness contract of the whole prepared layer: the cached
plan, the precomputed rewrite index, and the shared
:class:`~repro.lineage.cache.LineageResolutionCache` (including its
epoch-based invalidation) must never change an answer — only when it is
computed."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.storage import Table
from reference import ENGINES, reference

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),    # group key k
        st.integers(min_value=0, max_value=30),   # value v
        st.integers(min_value=0, max_value=2),    # second dimension w
    ),
    min_size=1,
    max_size=40,
)

STATEMENTS = [
    "SELECT k, COUNT(*) AS c FROM Lb(prev, 't', :bars) GROUP BY k",
    "SELECT w, COUNT(*) AS c, SUM(v) AS s FROM Lb(prev, 't', :bars) "
    "WHERE v >= :cut GROUP BY w",
    "SELECT v FROM Lb(prev, 't', :bars) WHERE k <> :cut",
    "SELECT * FROM Lf('t', prev, :rows) WHERE c > :cut",
    "SELECT v FROM Lb(prev, 't', :bars) WHERE k IN :ks",
]

#: Per-step interaction: (statement index, rid subset, cut, re-register?).
step_strategy = st.tuples(
    st.integers(min_value=0, max_value=len(STATEMENTS) - 1),
    st.lists(st.integers(min_value=0, max_value=4), max_size=6),
    st.integers(min_value=0, max_value=31),
    st.booleans(),
)

CAPTURE = ExecOptions(capture=CaptureMode.INJECT)


def _db(rows):
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "k": np.array([r[0] for r in rows], dtype=np.int64),
                "v": np.array([r[1] for r in rows], dtype=np.int64),
                "w": np.array([r[2] for r in rows], dtype=np.int64),
            }
        ),
    )
    _register_prev(db)
    return db


def _register_prev(db):
    db.sql(
        "SELECT k, COUNT(*) AS c FROM t GROUP BY k",
        options=CAPTURE.with_(name="prev"),
    )


def _assert_same_lineage(db, got, want):
    assert (got.lineage is None) == (want.lineage is None)
    if got.lineage is None:
        return
    assert got.lineage.relations == want.lineage.relations
    out_probes = list(range(len(got)))
    for rel in got.lineage.relations:
        assert np.array_equal(
            got.backward(out_probes, rel), want.backward(out_probes, rel)
        )
        base = rel.split("#")[0]
        domain = (
            db.table(base).num_rows
            if base in db.tables()
            else len(db.result(base))
        )
        in_probes = list(range(domain))
        assert np.array_equal(
            got.forward(rel, in_probes), want.forward(rel, in_probes)
        )


@given(
    rows_strategy,
    st.lists(step_strategy, min_size=1, max_size=6),
    st.sampled_from(list(ENGINES)),  # the one-shot arm
)
@settings(max_examples=40, deadline=None)
def test_prepared_matches_one_shot(rows, steps, engine):
    db = _db(rows)
    session = db.session(options=CAPTURE)
    prepared = {}
    for stmt_idx, subset, cut, reregister in steps:
        if reregister:
            # Same statement, same schema: the prepared plan stays valid,
            # but the registry epoch advances and must invalidate every
            # memoized rid resolution for 'prev'.
            _register_prev(db)
        stmt = STATEMENTS[stmt_idx]
        prev = db.result("prev")
        domain = db.table("t").num_rows if ":rows" in stmt else len(prev)
        rids = sorted({r % max(domain, 1) for r in subset}) if domain else []
        params = {"cut": cut, "bars": rids, "rows": rids, "ks": [0, 2, 4]}
        if stmt not in prepared:
            prepared[stmt] = session.prepare(stmt)
        got = prepared[stmt].run(params)
        want = ENGINES[engine](db, db.parse(stmt), params, CAPTURE)
        assert got.table.schema == want.table.schema
        assert got.table.to_rows() == want.table.to_rows()
        _assert_same_lineage(db, got, want)


@given(rows_strategy, st.lists(step_strategy, min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_session_sql_matches_one_shot_across_backends(rows, steps):
    """Session.sql (auto-prepared, text-memoized) agrees with one-shot
    execution, and with the compiled reference, for every step of a
    random interaction sequence."""
    db = _db(rows)
    session = db.session(options=CAPTURE)
    for stmt_idx, subset, cut, reregister in steps:
        if reregister:
            _register_prev(db)
        stmt = STATEMENTS[stmt_idx]
        prev = db.result("prev")
        domain = db.table("t").num_rows if ":rows" in stmt else len(prev)
        rids = sorted({r % max(domain, 1) for r in subset}) if domain else []
        params = {"cut": cut, "bars": rids, "rows": rids, "ks": [1, 3]}
        res = session.sql(stmt, params=params)
        for want in (
            db.execute(db.parse(stmt), params=params, options=CAPTURE),
            reference(db, stmt, params, CAPTURE),
        ):
            assert res.table.to_rows() == want.table.to_rows()
            _assert_same_lineage(db, res, want)
