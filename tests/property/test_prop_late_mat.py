"""Property tests: the late-materializing pushed path is indistinguishable
from the materialize-then-scan path — identical output rows *and* identical
captured lineage — across random tables, predicates, aggregates, and rid
subsets; the materialize-then-scan side is the vector executor's or the
compiled reference's (``tests/reference.py``)."""

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

# Crossfilter-style consuming statements over the traced subset: filters,
# narrow projections, and (filtered) re-aggregations, plus HAVING.
STATEMENTS = [
    "SELECT k, COUNT(*) AS c FROM Lb(prev, 't', :bars) GROUP BY k",
    "SELECT w, COUNT(*) AS c, SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx, "
    "COUNT(DISTINCT v) AS cd FROM Lb(prev, 't', :bars) "
    "WHERE v >= :cut GROUP BY w",
    "SELECT v FROM Lb(prev, 't', :bars) WHERE k <> :cut",
    "SELECT v + k AS x FROM Lb(prev, 't', :bars) WHERE v >= :cut",
    "SELECT w, SUM(v * v) AS s2 FROM Lb(prev, 't', :bars) "
    "GROUP BY w HAVING COUNT(*) > 1",
    "SELECT COUNT(*) AS c FROM Lb(prev, 't', :bars) WHERE v >= :cut",
    "SELECT k FROM Lf('t', prev, :rows) WHERE c > :cut",
    # Predicate-only stacks: full-schema output, late-gathered.
    "SELECT * FROM Lb(prev, 't', :bars) WHERE v >= :cut",
    "SELECT * FROM Lf('t', prev, :rows) WHERE c > :cut",
]


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
    db.sql(
        "SELECT k, COUNT(*) AS c FROM t GROUP BY k",
        options=ExecOptions(capture=CaptureMode.INJECT, name="prev"),
    )
    return db


def _assert_same_lineage(db, pushed, materialized):
    assert (pushed.lineage is None) == (materialized.lineage is None)
    if pushed.lineage is None:
        return
    assert pushed.lineage.relations == materialized.lineage.relations
    out_probes = list(range(len(pushed)))
    for rel in pushed.lineage.relations:
        assert np.array_equal(
            pushed.backward(out_probes, rel),
            materialized.backward(out_probes, rel),
        )
        base = rel.split("#")[0]
        domain = (
            db.table(base).num_rows
            if base in db.tables()
            else len(db.result(base))
        )
        in_probes = list(range(domain))
        assert np.array_equal(
            pushed.forward(rel, in_probes),
            materialized.forward(rel, in_probes),
        )


@given(
    rows_strategy,
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=len(STATEMENTS) - 1),
    st.lists(st.integers(min_value=0, max_value=4), max_size=6),
    st.sampled_from(list(ENGINES)),  # the materializing arm
)
@settings(deadline=None)  # example budget governed by the profile
def test_pushed_path_matches_materialized(
    rows, cut, stmt_idx, subset, engine
):
    db = _db(rows)
    prev = db.result("prev")
    stmt = STATEMENTS[stmt_idx]
    domain = len(prev) if ":bars" in stmt else db.table("t").num_rows
    rids = sorted({r % max(domain, 1) for r in subset}) if domain else []
    params = {"cut": cut, "bars": rids, "rows": rids}

    plan = db.parse(stmt)
    # Pushed arm vs materialized arm: rows AND lineage must stay
    # bit-identical.
    pushed = db.execute(plan, params=params, options=ExecOptions(capture=CaptureMode.INJECT))
    materialized = ENGINES[engine](
        db, plan, params, ExecOptions(capture=CaptureMode.INJECT, late_materialize=False)
    )
    assert pushed.timings.get("late_mat_subtrees") == 1.0
    assert "late_mat_subtrees" not in materialized.timings
    assert pushed.table.schema == materialized.table.schema
    assert pushed.table.to_rows() == materialized.table.to_rows()
    _assert_same_lineage(db, pushed, materialized)


@given(
    rows_strategy,
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=len(STATEMENTS) - 1),
)
@settings(deadline=None)  # example budget governed by the profile
def test_backends_agree_on_pushed_path(rows, cut, stmt_idx):
    db = _db(rows)
    stmt = STATEMENTS[stmt_idx]
    params = {"cut": cut, "bars": [0], "rows": [0]}
    vec = db.sql(
        stmt, params=params, options=ExecOptions(capture=CaptureMode.INJECT)
    )
    comp = reference(db, stmt, params, ExecOptions(capture=CaptureMode.INJECT))
    assert vec.table.to_rows() == comp.table.to_rows()
    _assert_same_lineage(db, vec, comp)


# Third arm: capture-off statements through a Session answer from the
# per-bar memo (execute_pushed over a partitioned backward index) and must
# equal the materializing path in rows, dtypes and order — across keys
# with -0.0/0.0 and NaN, composite keys, duplicate / unsorted / empty /
# out-of-range bars, and several brushes sharing one memo.
MEMO_STATEMENTS = [
    "SELECT k, COUNT(*) AS c FROM Lb(prev, 't', :bars) GROUP BY k",
    "SELECT f, COUNT(*) AS c FROM Lb(prev, 't', :bars) GROUP BY f",
    "SELECT s, COUNT(*) AS c FROM Lb(prev, 't', :bars) WHERE v >= 10 GROUP BY s",
    "SELECT s, f, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
    "WHERE v >= :cut GROUP BY s, f",
    "SELECT COUNT(*) AS c, f FROM Lb(prev, 't', :bars) GROUP BY f",
    "SELECT COUNT(*) AS c FROM Lb(prev, 't', :bars) WHERE v < :cut GROUP BY k",
    "SELECT COUNT(*) AS c FROM Lb(prev, 't', :bars) WHERE v >= :cut",
    "SELECT DISTINCT f FROM Lb(prev, 't', :bars)",
    "SELECT DISTINCT s, k FROM Lb(prev, 't', :bars) WHERE v >= :cut",
    "SELECT f, s FROM Lb(prev, 't', :bars) WHERE v >= :cut",
    "SELECT v + k AS x FROM Lb(prev, 't', :bars)",
    "SELECT * FROM Lb(prev, 't', :bars) WHERE k <> 1",
]

memo_rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),  # view key z (the bars)
        st.integers(min_value=0, max_value=3),  # int key k
        st.sampled_from([0.0, -0.0, 1.5, -2.0, float("nan")]),  # float key f
        st.sampled_from(["a", "b", "c"]),  # string key s
        st.integers(min_value=0, max_value=20),  # value v
    ),
    min_size=1,
    max_size=40,
)


def _memo_db(rows):
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "z": np.array([r[0] for r in rows], dtype=np.int64),
                "k": np.array([r[1] for r in rows], dtype=np.int64),
                "f": np.array([r[2] for r in rows], dtype=np.float64),
                "s": np.array([r[3] for r in rows], dtype=object),
                "v": np.array([r[4] for r in rows], dtype=np.int64),
            }
        ),
    )
    db.sql(
        "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
        options=ExecOptions(capture=CaptureMode.INJECT, name="prev"),
    )
    return db


def _assert_identical(got, want):
    assert got.schema == want.schema
    for name in want.schema.names:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        else:
            assert a.tolist() == b.tolist()


def _outcome(run):
    try:
        return run().table, None
    except Exception as exc:  # noqa: BLE001 - both arms must fail alike
        return None, type(exc)


@given(
    memo_rows_strategy,
    st.integers(min_value=0, max_value=21),
    st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=6), min_size=1, max_size=4),
    st.booleans(),
)
@settings(deadline=None)  # example budget governed by the profile
def test_memoized_path_matches_materialized(rows, cut, brushes, out_of_range):
    db = _memo_db(rows)
    n_bars = len(db.result("prev"))
    # Duplicate, unsorted and empty brushes; optionally one bar past the end.
    brushes = [[b % n_bars for b in bars] for bars in brushes]
    if out_of_range:
        brushes[0].append(n_bars)
    session = db.session()
    memoized_bars = 0
    for stmt in MEMO_STATEMENTS:
        for bars in brushes:
            params = {"cut": cut, "bars": bars}
            memo, memo_error = _outcome(lambda p=params: session.sql(stmt, params=p))
            plain, plain_error = _outcome(
                lambda p=params: db.execute(
                    db.parse(stmt), params=p, options=ExecOptions(late_materialize=False)
                )
            )
            assert memo_error == plain_error
            if plain_error is None:
                _assert_identical(memo, plain)
                memoized_bars += len(set(bars))
    # Every answered brush went through the memo, bar by bar.
    stats = session.lineage_cache.stats()
    assert stats["bar_fills"] + stats["bar_reuses"] == memoized_bars
