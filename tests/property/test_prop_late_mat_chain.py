"""Property tests: the flattened multi-join *chain* core is
indistinguishable from the materialize-then-scan path — identical output
rows *and* identical captured lineage — across Hypothesis-generated
2–4-hop chains and snowflake trees; the materialize-then-scan side is
the vector executor's or the compiled reference's
(``tests/reference.py``).

This extends the single-join harness (``test_prop_late_mat_join.py``) to
the shapes PR 4 materialized at the second hop: every generated
statement joins a lineage scan through **two or more** hash joins, so
the whole tree must execute as one pushed rid-domain core
(``late_mat_chain_hops == joins - 1``).  Generated dimensions include
m:n and missing keys, ``Lf`` leaves, both-sides-lineage chains,
derived-table hops (plain leaves run through executor recursion),
residual WHERE / HAVING, and DISTINCT roots.  Build sides are chosen
per hop from column statistics at execution time, so these tests also
pin that a swapped build (or a detected pk-fk probe) never perturbs row
order or lineage.

Runs under the shared Hypothesis profiles (``tier1`` default, the
scheduled CI job's ``--hypothesis-profile=ci-deep`` for the deep pass).
"""

import numpy as np
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.storage import Table
from reference import ENGINES, reference


# Fact rows: k links to d1 (chain), m links to e1 (snowflake branch).
fact_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # chain key k
        st.integers(min_value=0, max_value=2),   # branch key m
        st.integers(min_value=0, max_value=30),  # value v
    ),
    min_size=1,
    max_size=30,
)

# Dimension rows may repeat their key (m:n) or miss fact keys entirely.
d1_row = st.tuples(
    st.integers(min_value=0, max_value=4),   # key k (4 never in fact)
    st.integers(min_value=0, max_value=2),   # link g -> d2
    st.sampled_from(["red", "green", "blue"]),
)
d2_row = st.tuples(
    st.integers(min_value=0, max_value=3),   # key g (3 never in d1)
    st.integers(min_value=0, max_value=1),   # link h -> d3
)
d3_row = st.tuples(
    st.integers(min_value=0, max_value=2),   # key h (2 never in d2)
    st.sampled_from(["x", "y"]),
)
e1_row = st.tuples(
    st.integers(min_value=0, max_value=3),   # key m (3 never in fact)
    st.integers(min_value=0, max_value=2),   # attribute u
)
d1_rows = st.lists(d1_row, min_size=0, max_size=8)
d2_rows = st.lists(d2_row, min_size=0, max_size=6)
d3_rows = st.lists(d3_row, min_size=0, max_size=4)
e1_rows = st.lists(e1_row, min_size=0, max_size=5)


def _covering(row, keys, max_extra):
    """Dimension rows holding each of ``keys`` at least once (their other
    fields drawn by ``row``) plus up to ``max_extra`` free rows, shuffled:
    never empty, and every key the rows upstream of the dimension carry
    joins, so most brushes merge several non-empty bars."""
    keyed = st.lists(row, min_size=len(keys), max_size=len(keys)).map(
        lambda rows: [(key,) + r[1:] for key, r in zip(keys, rows, strict=True)]
    )
    free = st.lists(row, max_size=max_extra)
    return st.tuples(keyed, free).flatmap(lambda t: st.permutations(t[0] + t[1]))


def _db(rows, d1, d2, d3, e1, floats=False):
    """``t`` from ``rows``, plus a float column ``f`` from each row's
    fourth field when ``floats``; the dimensions from the others."""
    columns = {
        "k": np.array([r[0] for r in rows], dtype=np.int64),
        "m": np.array([r[1] for r in rows], dtype=np.int64),
        "v": np.array([r[2] for r in rows], dtype=np.int64),
    }
    if floats:
        columns["f"] = np.array([r[3] for r in rows], dtype=np.float64)
    db = Database()
    db.create_table("t", Table(columns))
    names = np.empty(len(d1), dtype=object)
    names[:] = [r[2] for r in d1]
    db.create_table(
        "d1",
        Table({
            "k": np.array([r[0] for r in d1], dtype=np.int64),
            "g": np.array([r[1] for r in d1], dtype=np.int64),
            "name": names,
        }),
    )
    db.create_table(
        "d2",
        Table({
            "g": np.array([r[0] for r in d2], dtype=np.int64),
            "h": np.array([r[1] for r in d2], dtype=np.int64),
        }),
    )
    labels = np.empty(len(d3), dtype=object)
    labels[:] = [r[1] for r in d3]
    db.create_table(
        "d3",
        Table({
            "h": np.array([r[0] for r in d3], dtype=np.int64),
            "label": labels,
        }),
    )
    db.create_table(
        "e1",
        Table({
            "m": np.array([r[0] for r in e1], dtype=np.int64),
            "u": np.array([r[1] for r in e1], dtype=np.int64),
        }),
    )
    db.sql(
        "SELECT k, COUNT(*) AS c FROM t GROUP BY k",
        options=ExecOptions(capture=CaptureMode.INJECT, name="prev"),
    )
    db.sql(
        "SELECT g, COUNT(*) AS gc FROM d1 GROUP BY g",
        options=ExecOptions(capture=CaptureMode.INJECT, name="prevd"),
    )
    return db


# One generated statement = leaf flavor + chain depth + optional
# snowflake branch + derived-table hop + residual WHERE + root shape.
chain_specs = st.fixed_dictionaries(
    {
        "leaf": st.sampled_from(["lb", "lf", "both"]),
        "depth": st.integers(min_value=2, max_value=3),  # joins via d1..d3
        "branch": st.booleans(),                         # + e1 (snowflake)
        "derived": st.booleans(),                        # d2 hop as subquery
        "where": st.sampled_from([None, "v", "g"]),
        "root": st.sampled_from(["agg", "agg_having", "distinct", "star"]),
    }
)


def _statement(spec):
    """Compose the SQL text for one chain spec.  The FROM item is the
    lineage leaf; every other hop joins onto it left-deep, so the plan is
    a multi-join chain (plus an optional second chain off the fact table
    — a snowflake tree)."""
    if spec["leaf"] == "lf":
        # Lf output carries prev's schema (k, c); join the chain off k.
        source = "Lf('t', prev, :rows)"
        fact_qual = "prev"
    else:
        source = "Lb(prev, 't', :bars)"
        fact_qual = "t"

    joins = []
    if spec["leaf"] == "both":
        joins.append(f"JOIN Lb(prevd, 'd1') ON {fact_qual}.k = d1.k")
    else:
        joins.append(f"JOIN d1 ON {fact_qual}.k = d1.k")
    d2_name = "d2"
    if spec["derived"]:
        d2_name = "dd"
        joins.append(
            "JOIN (SELECT g, MAX(h) AS h FROM d2 GROUP BY g) AS dd "
            "ON d1.g = dd.g"
        )
    else:
        joins.append("JOIN d2 ON d1.g = d2.g")
    if spec["depth"] >= 3:
        joins.append(f"JOIN d3 ON {d2_name}.h = d3.h")
    if spec["branch"] and spec["leaf"] != "lf":
        joins.append(f"JOIN e1 ON {fact_qual}.m = e1.m")

    where = ""
    if spec["where"] == "v" and spec["leaf"] != "lf":
        where = " WHERE v >= :cut"
    elif spec["where"] == "g":
        where = " WHERE d1.g >= 1"

    root_key = "label" if spec["depth"] >= 3 else "name"
    if spec["root"] == "agg":
        head = f"SELECT {root_key}, COUNT(*) AS c"
        tail = f" GROUP BY {root_key}"
    elif spec["root"] == "agg_having":
        head = f"SELECT {root_key}, COUNT(*) AS c"
        tail = f" GROUP BY {root_key} HAVING COUNT(*) > 1"
    elif spec["root"] == "distinct":
        head = f"SELECT DISTINCT {root_key}"
        tail = ""
    else:
        head = "SELECT *"
        tail = ""
    return f"{head} FROM {source} {' '.join(joins)}{where}{tail}"


def _note_plan(stmt, plan, params):
    """Record the statement, bound parameters, and the full plan tree on
    the failing example: Hypothesis prints notes (and the seed) on
    failure, so a CI log alone reproduces the exact generated chain."""
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
    d1_rows,
    d2_rows,
    d3_rows,
    e1_rows,
    chain_specs,
    st.integers(min_value=0, max_value=31),
    st.lists(st.integers(min_value=0, max_value=3), max_size=5),
    st.sampled_from(list(ENGINES)),  # the materializing arm
)
@settings(deadline=None)  # example budget governed by the profile
def test_pushed_chain_matches_materialized(
    rows, d1, d2, d3, e1, spec, cut, subset, engine
):
    db = _db(rows, d1, d2, d3, e1)
    stmt = _statement(spec)
    prev = db.result("prev")
    domain = len(prev) if ":bars" in stmt else db.table("t").num_rows
    rids = sorted({r % max(domain, 1) for r in subset}) if domain else []
    params = {"cut": cut, "bars": rids, "rows": rids}

    plan = db.parse(stmt)
    _note_plan(stmt, plan, params)
    # Pushed arm vs materialized arm: the flattened per-hop probes must
    # stay bit-identical to the hop-by-hop materialized joins.
    pushed = db.execute(plan, params=params, options=ExecOptions(capture=CaptureMode.INJECT))
    materialized = ENGINES[engine](
        db, plan, params, ExecOptions(capture=CaptureMode.INJECT, late_materialize=False)
    )
    num_joins = stmt.count("JOIN ")
    assert num_joins >= 2
    # The whole chain must flatten into one pushed core: exactly one join
    # core, with every hop beyond the first counted as a chain hop.
    assert pushed.timings.get("late_mat_joins") == 1.0
    assert pushed.timings.get("late_mat_chain_hops") == float(num_joins - 1)
    assert "late_mat_chain_hops" not in materialized.timings
    assert pushed.table.schema == materialized.table.schema
    assert pushed.table.to_rows() == materialized.table.to_rows()
    _assert_same_lineage(db, pushed, materialized)


@given(
    fact_rows,
    d1_rows,
    d2_rows,
    d3_rows,
    e1_rows,
    chain_specs,
    st.integers(min_value=0, max_value=31),
)
@settings(deadline=None)  # example budget governed by the profile
def test_backends_agree_on_chains(rows, d1, d2, d3, e1, spec, cut):
    db = _db(rows, d1, d2, d3, e1)
    stmt = _statement(spec)
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
    d1_rows,
    d2_rows,
    st.lists(st.integers(min_value=0, max_value=3), max_size=5),
    st.sampled_from(list(ENGINES)),  # the one-shot arm
)
@settings(deadline=None)  # example budget governed by the profile
def test_prepared_chain_pushes_match_one_shot(rows, d1, d2, subset, engine):
    """The precomputed RewriteIndex takes the same chain-flattening
    decisions as live matching: prepared runs == raw-plan runs."""
    db = _db(rows, d1, d2, [], [])
    rids = sorted({r % max(len(db.result("prev")), 1) for r in subset})
    stmt = (
        "SELECT d2.g, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
        "JOIN d1 ON t.k = d1.k JOIN d2 ON d1.g = d2.g GROUP BY d2.g"
    )
    prepared = db.prepare(stmt, options=ExecOptions(capture=CaptureMode.INJECT))
    via_prepared = prepared.run(params={"bars": rids})
    one_shot = ENGINES[engine](
        db, prepared.plan, {"bars": rids}, ExecOptions(capture=CaptureMode.INJECT)
    )
    assert via_prepared.timings.get("late_mat_chain_hops") == 1.0
    assert via_prepared.table.to_rows() == one_shot.table.to_rows()
    _assert_same_lineage(db, via_prepared, one_shot)


# Capture-off chain brushes the per-bar memo answers, over a view ``pm``
# whose bars partition ``t`` by ``m``: the lineage leaf first, in the
# middle and last in pre-order, hop predicates (a filtered derived-table
# hop), leaf predicates on lineage and plain leaves, residual predicates,
# a snowflake branch, and GROUP BY / DISTINCT roots, over int, string and
# float keys (-0.0/0.0 and NaN included).  The dimensions keep the
# generated row order, so their keys repeat and run against key order.
MEMO_STATEMENTS = [
    "SELECT label, COUNT(*) AS c FROM Lb(pm, 't', :bars) JOIN d1 ON t.k = d1.k "
    "JOIN d2 ON d1.g = d2.g JOIN d3 ON d2.h = d3.h GROUP BY label",
    "SELECT name, COUNT(*) AS c FROM d2 JOIN (SELECT * FROM d1 JOIN "
    "Lb(pm, 't', :bars) ON d1.k = t.k WHERE v >= :cut) AS s ON d2.g = s.g "
    "GROUP BY name",
    "SELECT DISTINCT h, name FROM (SELECT * FROM Lb(pm, 't', :bars) WHERE v < :cut) "
    "AS s JOIN d1 ON s.k = d1.k JOIN (SELECT * FROM d2 WHERE h >= 1) AS dd "
    "ON d1.g = dd.g",
    "SELECT v, COUNT(*) AS c FROM Lb(pm, 't', :bars) JOIN d1 ON t.k = d1.k "
    "JOIN e1 ON t.m = e1.m WHERE d1.g + u >= 1 GROUP BY v",
    "SELECT COUNT(*) AS c FROM d1 JOIN Lb(pm, 't', :bars) ON d1.k = t.k "
    "JOIN e1 ON t.m = e1.m GROUP BY u",
    "SELECT f, u, COUNT(*) AS c FROM Lb(pm, 't', :bars) JOIN d1 ON t.k = d1.k "
    "JOIN e1 ON t.m = e1.m GROUP BY f, u",
    "SELECT DISTINCT f, name FROM d1 JOIN Lb(pm, 't', :bars) ON d1.k = t.k "
    "JOIN d2 ON d1.g = d2.g",
    "SELECT f, COUNT(*) AS c FROM Lb(pm, 't', :bars) JOIN d1 ON t.k = d1.k GROUP BY f",
    "SELECT DISTINCT f FROM Lb(pm, 't', :bars) JOIN e1 ON t.m = e1.m",
    "SELECT f, label, COUNT(*) AS c FROM d1 JOIN Lb(pm, 't', :bars) ON d1.k = t.k "
    "JOIN d2 ON d1.g = d2.g JOIN d3 ON d2.h = d3.h GROUP BY f, label",
]

memo_fact_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # chain key k
        st.integers(min_value=0, max_value=5),   # view key m (the bars)
        st.integers(min_value=0, max_value=30),  # value v
        st.sampled_from([0.0, -0.0, float("nan"), 1.5]),  # float key f
    ),
    min_size=1,
    max_size=30,
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
    _covering(d1_row, range(4), 4),  # every fact k
    _covering(d2_row, range(3), 3),  # every d1.g
    _covering(d3_row, range(2), 2),  # every d2.h
    _covering(e1_row, range(6), 2),  # every fact m
    st.integers(min_value=0, max_value=31),
    st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=6), min_size=2, max_size=4),
    st.booleans(),
)
@settings(deadline=None)  # example budget governed by the profile
def test_memoized_chain_matches_materialized(
    rows, d1, d2, d3, e1, cut, brushes, out_of_range
):
    db = _db(rows, d1, d2, d3, e1, floats=True)
    db.sql(
        "SELECT m, COUNT(*) AS c FROM t GROUP BY m",
        options=ExecOptions(capture=CaptureMode.INJECT, name="pm"),
    )
    n_bars = len(db.result("pm"))
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
