"""Property tests: late materialization *through joins and DISTINCT* is
indistinguishable from the materialize-then-scan path — identical output
rows *and* identical captured lineage — across random tables, join
shapes, predicates, aggregates, and rid subsets; the materialize-then-scan
side is the vector executor's or the compiled reference's
(``tests/reference.py``).

This is the randomized plan-equivalence harness for the tree-shaped
rewrite (:mod:`repro.plan.rewrite`): every statement here contains a
``HashJoin`` or a ``DISTINCT`` over ``Lb``/``Lf`` scans — the shapes the
linear-stack suite (``test_prop_late_mat.py``) never exercises.
"""

import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.storage import Table
from reference import ENGINES, reference


fact_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),    # join/group key k
        st.integers(min_value=0, max_value=30),   # value v
        st.integers(min_value=0, max_value=2),    # second dimension w
    ),
    min_size=1,
    max_size=40,
)

# Dimension rows keyed 0..4; keys may repeat (m:n joins) or be missing
# (fact rows that match nothing — the late-gather's skip case).
dim_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),    # join key k
        st.integers(min_value=0, max_value=3),    # group g
        st.sampled_from(["red", "green", "blue"]),
    ),
    min_size=0,
    max_size=8,
)

# Join- and DISTINCT-shaped consuming statements: re-aggregations through
# a dimension join, narrow/star join projections, residual WHEREs above
# the join, DISTINCT in the rid domain, lineage sides on either side of
# the join, both-sides-lineage self joins, and derived-table plain sides.
STATEMENTS = [
    "SELECT g, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
    "JOIN d ON t.k = d.k GROUP BY g",
    "SELECT name, SUM(v) AS s, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
    "JOIN d ON t.k = d.k WHERE v >= :cut GROUP BY name",
    "SELECT * FROM Lb(prev, 't', :bars) JOIN d ON t.k = d.k",
    "SELECT v, name FROM Lb(prev, 't', :bars) JOIN d ON t.k = d.k "
    "WHERE w = 1",
    "SELECT g, COUNT(*) AS c FROM d JOIN Lb(prev, 't', :bars) "
    "ON d.k = t.k GROUP BY g",
    "SELECT g, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
    "JOIN d ON t.k = d.k GROUP BY g HAVING COUNT(*) > 1",
    "SELECT COUNT(*) AS c FROM Lb(prev, 't', :bars) JOIN d ON t.k = d.k",
    "SELECT prev.c, d.g FROM Lf('t', prev, :rows) JOIN d ON prev.k = d.k",
    "SELECT a.v AS av, b.v AS bv FROM Lb(prev, 't', :bars) AS a "
    "JOIN Lb(prev, 't', :bars) AS b ON a.k = b.k WHERE a.v >= :cut",
    "SELECT gmax, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
    "JOIN (SELECT k, MAX(g) AS gmax FROM d GROUP BY k) AS dd "
    "ON t.k = dd.k GROUP BY gmax",
    "SELECT DISTINCT k FROM Lb(prev, 't', :bars)",
    "SELECT DISTINCT w, v FROM Lb(prev, 't', :bars) WHERE v >= :cut",
    "SELECT DISTINCT * FROM Lb(prev, 't', :bars) WHERE v >= :cut",
    "SELECT DISTINCT v + k AS x FROM Lb(prev, 't', :bars)",
    "SELECT DISTINCT k FROM Lf('t', prev, :rows) WHERE c > 1",
    "SELECT DISTINCT g FROM Lb(prev, 't', :bars) "
    "JOIN d ON t.k = d.k WHERE v >= :cut",
]


def _db(rows, drows, floats=False):
    """``t`` from ``rows``, plus a float column ``f`` from each row's
    fourth field when ``floats``."""
    columns = {
        "k": np.array([r[0] for r in rows], dtype=np.int64),
        "v": np.array([r[1] for r in rows], dtype=np.int64),
        "w": np.array([r[2] for r in rows], dtype=np.int64),
    }
    if floats:
        columns["f"] = np.array([r[3] for r in rows], dtype=np.float64)
    db = Database()
    db.create_table("t", Table(columns))
    dim = np.empty(len(drows), dtype=object)
    dim[:] = [r[2] for r in drows]
    db.create_table(
        "d",
        Table(
            {
                "k": np.array([r[0] for r in drows], dtype=np.int64),
                "g": np.array([r[1] for r in drows], dtype=np.int64),
                "name": dim,
            }
        ),
    )
    db.sql(
        "SELECT k, COUNT(*) AS c FROM t GROUP BY k",
        options=ExecOptions(capture=CaptureMode.INJECT, name="prev"),
    )
    return db


def _note_plan(stmt, plan, params):
    """Record the statement, bound parameters, and the full plan tree on
    the failing example: Hypothesis prints notes (and the seed) on
    failure, so a CI log alone reproduces the exact generated plan."""
    note(f"statement: {stmt}")
    note(f"params: {params!r}")
    note("plan:\n" + plan.describe())


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
    fact_rows,
    dim_rows,
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=len(STATEMENTS) - 1),
    st.lists(st.integers(min_value=0, max_value=4), max_size=6),
    st.sampled_from(list(ENGINES)),  # the materializing arm
)
@settings(deadline=None)  # example budget governed by the profile
def test_pushed_join_distinct_matches_materialized(
    rows, drows, cut, stmt_idx, subset, engine
):
    db = _db(rows, drows)
    prev = db.result("prev")
    stmt = STATEMENTS[stmt_idx]
    domain = len(prev) if ":bars" in stmt else db.table("t").num_rows
    rids = sorted({r % max(domain, 1) for r in subset}) if domain else []
    params = {"cut": cut, "bars": rids, "rows": rids}

    plan = db.parse(stmt)
    _note_plan(stmt, plan, params)
    # Pushed arm vs materialized arm: rid-domain probes and late gathers
    # must stay bit-identical to the materialized joins.
    pushed = db.execute(plan, params=params, options=ExecOptions(capture=CaptureMode.INJECT))
    materialized = ENGINES[engine](
        db, plan, params, ExecOptions(capture=CaptureMode.INJECT, late_materialize=False)
    )
    assert pushed.timings.get("late_mat_subtrees", 0) >= 1
    assert "late_mat_subtrees" not in materialized.timings
    if " JOIN " in stmt:
        assert pushed.timings.get("late_mat_joins", 0) >= 1
    if "DISTINCT" in stmt:
        assert pushed.timings.get("late_mat_distincts") == 1.0
    assert pushed.table.schema == materialized.table.schema
    assert pushed.table.to_rows() == materialized.table.to_rows()
    _assert_same_lineage(db, pushed, materialized)


@given(
    fact_rows,
    dim_rows,
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=len(STATEMENTS) - 1),
)
@settings(deadline=None)  # example budget governed by the profile
def test_backends_agree_on_pushed_join_distinct(rows, drows, cut, stmt_idx):
    db = _db(rows, drows)
    stmt = STATEMENTS[stmt_idx]
    params = {"cut": cut, "bars": [0], "rows": [0]}
    _note_plan(stmt, db.parse(stmt), params)
    vec = db.sql(
        stmt, params=params, options=ExecOptions(capture=CaptureMode.INJECT)
    )
    comp = reference(db, stmt, params, ExecOptions(capture=CaptureMode.INJECT))
    assert vec.table.to_rows() == comp.table.to_rows()
    _assert_same_lineage(db, vec, comp)


@given(
    fact_rows,
    dim_rows,
    st.lists(st.integers(min_value=0, max_value=4), max_size=6),
    st.sampled_from(list(ENGINES)),  # the one-shot arm
)
@settings(deadline=None)  # example budget governed by the profile
def test_prepared_join_pushes_match_one_shot(rows, drows, subset, engine):
    """The precomputed RewriteIndex takes the same join/DISTINCT push
    decisions as live matching: prepared runs == raw-plan runs."""
    db = _db(rows, drows)
    rids = sorted({r % max(len(db.result("prev")), 1) for r in subset})
    stmt = (
        "SELECT g, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
        "JOIN d ON t.k = d.k GROUP BY g"
    )
    prepared = db.prepare(stmt, options=ExecOptions(capture=CaptureMode.INJECT))
    via_prepared = prepared.run(params={"bars": rids})
    one_shot = ENGINES[engine](
        db, prepared.plan, {"bars": rids}, ExecOptions(capture=CaptureMode.INJECT)
    )
    assert via_prepared.timings.get("late_mat_joins") == 1.0
    assert via_prepared.table.to_rows() == one_shot.table.to_rows()
    _assert_same_lineage(db, via_prepared, one_shot)


# Capture-off join brushes the per-bar memo answers, over a view ``pw``
# whose bars partition ``t`` by ``w``: the lineage leaf on either side of
# the hop, leaf predicates on both leaves, residual predicates, and
# GROUP BY / DISTINCT roots, over int, string and float keys (-0.0/0.0
# and NaN included).  ``d`` keeps the generated row order, so its keys
# repeat and run against key order.
MEMO_STATEMENTS = [
    "SELECT g, COUNT(*) AS c FROM Lb(pw, 't', :bars) JOIN d ON t.k = d.k GROUP BY g",
    "SELECT name, COUNT(*) AS c FROM d JOIN Lb(pw, 't', :bars) ON d.k = t.k "
    "WHERE v >= :cut GROUP BY name",
    "SELECT COUNT(*) AS c FROM (SELECT * FROM Lb(pw, 't', :bars) WHERE v >= :cut) AS s "
    "JOIN (SELECT * FROM d WHERE g >= 1) AS dd ON s.k = dd.k GROUP BY name",
    "SELECT DISTINCT name, g FROM Lb(pw, 't', :bars) JOIN d ON t.k = d.k "
    "WHERE v + g >= :cut",
    "SELECT DISTINCT v FROM (SELECT * FROM d WHERE g <> 2) AS dd "
    "JOIN Lb(pw, 't', :bars) ON dd.k = t.k",
    "SELECT COUNT(*) AS c FROM Lb(pw, 't', :bars) JOIN d ON t.k = d.k",
    "SELECT f, COUNT(*) AS c FROM Lb(pw, 't', :bars) JOIN d ON t.k = d.k GROUP BY f",
    "SELECT DISTINCT f, name FROM d JOIN Lb(pw, 't', :bars) ON d.k = t.k "
    "WHERE v >= :cut",
]

memo_fact_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),    # join key k
        st.integers(min_value=0, max_value=30),   # value v
        st.integers(min_value=0, max_value=2),    # view key w (the bars)
        st.sampled_from([0.0, -0.0, float("nan"), 1.5]),  # float key f
    ),
    min_size=1,
    max_size=40,
)


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
    memo_fact_rows,
    dim_rows,
    st.integers(min_value=0, max_value=31),
    st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=6), min_size=1, max_size=4),
    st.booleans(),
)
@settings(deadline=None)  # example budget governed by the profile
def test_memoized_join_matches_materialized(rows, drows, cut, brushes, out_of_range):
    db = _db(rows, drows, floats=True)
    db.sql(
        "SELECT w, COUNT(*) AS c FROM t GROUP BY w",
        options=ExecOptions(capture=CaptureMode.INJECT, name="pw"),
    )
    n_bars = len(db.result("pw"))
    # Duplicate, unsorted and empty brushes, the first one repeated;
    # optionally one bar past the end.
    brushes = [[b % n_bars for b in bars] for bars in brushes]
    if out_of_range:
        brushes[0].append(n_bars)
    memoized_bars = 0
    for stmt in MEMO_STATEMENTS:
        for bars in brushes + brushes[:1]:
            params = {"cut": cut, "bars": bars}
            memo, memo_error = _outcome(lambda p=params: db.sql(stmt, params=p))
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
    stats = db.lineage_cache.stats()
    assert stats["bar_fills"] + stats["bar_reuses"] == memoized_bars


# The one equi-join kernel against a pure-Python hash join: key columns
# of either side drawn from pools whose values collide across types —
# ints over a narrow and a wide range, floats with -0.0/0.0 and NaN,
# objects mixing strings with equal ints and floats — one or two columns
# per key, either side possibly empty; built on either side, from a key
# index built here or handed in (a memo entry's), and as a plan-level
# pk-fk join.  Matches must come out as the Python join's, in its order.
# The explicit examples meet NaN with NaN in a float column, which a
# sorted-values index must find equal, on every run.
_KEY_POOLS = {
    "int": (np.int64, st.integers(min_value=-2, max_value=3)),
    "wide": (np.int64, st.sampled_from([0, 1, -(10**6), 10**6])),
    "float": (np.float64, st.sampled_from([0.0, -0.0, float("nan"), 1.0, 2.5])),
    "object": (object, st.sampled_from(["a", "b", 1, 1.0, 2, float("nan")])),
}


@st.composite
def key_sides(draw):
    kind = st.sampled_from(sorted(_KEY_POOLS))
    # Mostly one kind on both sides, so equal values (NaN among them) meet.
    pair = kind.flatmap(lambda k: st.tuples(st.just(k), st.just(k) | kind))
    kinds = draw(st.lists(pair, min_size=1, max_size=2))

    def side(which):
        n = draw(st.integers(min_value=0, max_value=12))
        columns = []
        for pair in kinds:
            dtype, values = _KEY_POOLS[pair[which]]
            column = np.empty(n, dtype=dtype)
            column[:] = draw(st.lists(values, min_size=n, max_size=n))
            columns.append(column)
        return columns

    return side(0), side(1)


def _key_tuples(side, other):
    """``side``'s key tuples, each column cast to the ``np.result_type`` of
    both sides; a float compares as ``np.unique`` groups it (one NaN,
    -0.0 == 0.0), an object as a dict does."""
    columns = []
    for column, peer in zip(side, other, strict=True):
        values = column.astype(np.result_type(column.dtype, peer.dtype))
        nan = values.dtype.kind == "f"
        columns.append([None if nan and v != v else v for v in values.tolist()])
    return list(zip(*columns, strict=True))


def _python_join(left, right):
    """``(matches, left keys unique)``: the (left row, right row) pairs of
    the equi-join, right row major and left rows ascending."""
    build = {}
    for row, key in enumerate(_key_tuples(left, right)):
        build.setdefault(key, []).append(row)
    pairs = [(l, r) for r, key in enumerate(_key_tuples(right, left)) for l in build.get(key, [])]
    return pairs, len(build) == left[0].shape[0]


_NAN = float("nan")


@given(key_sides(), st.booleans(), st.booleans(), st.booleans())
@example(([np.array([_NAN, 1.0, _NAN])], [np.array([0.0, _NAN])]), True, False, False)
@example(
    ([np.array([1, 2]), np.array([_NAN, -0.0])],
     [np.array([2, 1, 1]), np.array([0.0, _NAN, _NAN])]),
    False, True, False,
)
@settings(deadline=None)  # example budget governed by the profile
def test_key_index_probe_matches_the_hash_join(sides, build_left, handed, pkfk):
    from repro.errors import PlanError
    from repro.exec.vector.join import KeyIndex, compute_matches

    left, right = sides
    note(f"left: {left!r}\nright: {right!r}")
    build, probe = (left, right) if build_left else (right, left)
    index = KeyIndex(build, [c.dtype for c in probe]) if handed else None
    want, left_unique = _python_join(left, right)
    if pkfk and not left_unique:
        with pytest.raises(PlanError):
            compute_matches(left, right, pkfk, build_left, index)
        return
    matches = compute_matches(left, right, pkfk, build_left, index)
    assert list(zip(matches.out_left.tolist(), matches.out_right.tolist(), strict=True)) == want
    assert (matches.num_left, matches.num_right) == (left[0].shape[0], right[0].shape[0])
