"""The per-bar memo behind capture-off brushes over GROUP BY views: its
reuse is observable, and no state change ever serves a stale memo."""

import gc
import weakref

import numpy as np
import pytest

from repro import CaptureMode, Database, ExecOptions, Table
from repro.errors import (
    LineageError,
    PlanError,
    RegistryFullError,
    ReproError,
    SqlError,
)
from repro.exec.timings import LATE_MAT_ROUTE_BINDS
from repro.lineage.cache import param_fingerprint
from repro.lineage.capture import CaptureConfig
from repro.serve import DatabaseServer

INJECT = ExecOptions(capture=CaptureMode.INJECT, pin=True)
PLAIN = ExecOptions(late_materialize=False)
BRUSH = "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY g"
ROWS = "SELECT w FROM Lb(v, 't', :bars) WHERE w >= 2.0"


def _table(g, w):
    return Table({
        "z": np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.int64),
        "g": np.array(list(g), dtype=object),
        "w": np.asarray(w, dtype=np.float64),
    })


def _db():
    db = Database()
    db.create_table("t", _table("abcabcaa", np.arange(8)))
    db.sql("SELECT z, COUNT(*) AS c FROM t GROUP BY z", options=INJECT.with_(name="v"))
    return db


def _replace_t(db):
    """Update ``t`` in place: same rids, new values, no epoch bump."""
    db.create_table(
        "t", _table("bbbcccdd", np.arange(8)[::-1]), replace=True, preserve_rids=True
    )


def _plain(db, stmt, bars):
    """The reference: the raw plan, materialized and uncached."""
    plan = db.parse(stmt)
    return db.execute(plan, params={"bars": bars}, options=PLAIN).table.to_rows()


def _bar_traffic(stats):
    return stats["bar_fills"], stats["bar_reuses"]


def test_second_brush_fills_only_new_bars():
    db = _db()
    session = db.session()
    session.sql(BRUSH, params={"bars": [0, 1]})
    second = session.sql(BRUSH, params={"bars": [2, 1]})
    stats = session.lineage_cache.stats()
    assert _bar_traffic(stats) == (3, 1)
    assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
    assert second.table.to_rows() == _plain(db, BRUSH, [2, 1])


def test_server_stats_show_bar_traffic():
    with _db().serve(readers=1) as server:
        server.sql(BRUSH, params={"bars": [0]})
        server.sql(BRUSH, params={"bars": [0, 2]})
        assert _bar_traffic(server.stats()["lineage_cache"]) == (2, 1)


@pytest.mark.parametrize("stmt", [BRUSH, ROWS])
def test_view_reregistration_never_serves_a_stale_memo(stmt):
    db = _db()
    session = db.session()
    before = session.sql(stmt, params={"bars": [0]}).table.to_rows()
    db.sql("SELECT g, COUNT(*) AS c FROM t GROUP BY g", options=INJECT.with_(name="v"))
    after = session.sql(stmt, params={"bars": [0]}).table.to_rows()
    assert after == _plain(db, stmt, [0]) != before


@pytest.mark.parametrize("stmt", [BRUSH, ROWS])
def test_preserve_rids_replace_never_serves_a_stale_memo(stmt):
    db = _db()
    session = db.session()
    before = session.sql(stmt, params={"bars": [0, 1]}).table.to_rows()
    _replace_t(db)  # the view is not re-registered: every epoch stays
    after = session.sql(stmt, params={"bars": [0, 1]}).table.to_rows()
    assert after == _plain(db, stmt, [0, 1]) != before


@pytest.mark.parametrize("stmt", [BRUSH, ROWS])
def test_reader_on_older_snapshot_never_gets_a_stale_memo(stmt):
    db = _db()
    params = {"bars": [0, 2]}
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        old = server.snapshot()
        before = server.sql(stmt, params=params, snapshot=old).table.to_rows()
        server.write(_replace_t)
        for _ in range(2):  # alternate snapshots over one shared cache
            now = server.sql(stmt, params=params).table.to_rows()
            assert now == _plain(db, stmt, params["bars"]) != before
            assert server.sql(stmt, params=params, snapshot=old).table.to_rows() == before


@pytest.mark.parametrize("bars", [[3], [-1], [0, 7]])
def test_out_of_range_bar_raises_like_the_plain_path(bars):
    db = _db()
    with pytest.raises(LineageError):
        db.session().sql(BRUSH, params={"bars": bars})
    with pytest.raises(LineageError):
        _plain(db, BRUSH, bars)


def test_rid_parameter_read_elsewhere_bypasses_the_memo():
    db = _db()
    session = db.session()
    stmt = "SELECT z, COUNT(*) AS c FROM Lb(v, 't', :bars) WHERE z IN :bars GROUP BY z"
    for bars in ([0, 1], [1, 2]):
        assert session.sql(stmt, params={"bars": bars}).table.to_rows() == _plain(db, stmt, bars)
    assert _bar_traffic(session.lineage_cache.stats()) == (0, 0)


def test_negative_zero_key_comes_from_the_brushs_own_first_rid():
    db = Database()
    db.create_table("t", Table({
        "g": np.array([1, 1, 0, 0, 1, 0], dtype=np.int64),
        "k": np.array([-0.0, 2.0, 0.0, 3.0, 0.0, 5.0]),
    }))
    db.sql("SELECT g, COUNT(*) AS c FROM t GROUP BY g", options=INJECT.with_(name="v"))
    session = db.session()
    stmt = "SELECT k, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY k"
    for bars in ([0, 1], [1], [0, 1]):  # bar 1 (g=0) memoized, then merged
        memo = session.sql(stmt, params={"bars": bars}).table.column("k")
        plain = db.execute(
            db.parse(stmt), params={"bars": bars}, options=PLAIN
        ).table.column("k")
        assert np.array_equal(np.signbit(memo), np.signbit(plain))


def test_param_fingerprint_tells_equal_values_of_other_types_apart():
    fingerprints = [
        param_fingerprint({"x": v}) for v in (1, 1.0, True, 0.0, -0.0, np.array(1.0))
    ]
    assert len(set(fingerprints)) == len(fingerprints)
    assert param_fingerprint({"x": np.array([1, 2])}) == param_fingerprint(
        {"x": np.array([1, 2])}
    )


JOIN = (
    "SELECT region, COUNT(*) AS c FROM Lb(v, 't', :bars) "
    "JOIN carriers ON t.g = carriers.g GROUP BY region"
)


def _carriers(regions):
    # Keys repeat and run against key order.
    return Table({
        "g": np.array(list("caba"), dtype=object),
        "region": np.asarray(regions, dtype=np.int64),
    })


def _join_db():
    db = _db()
    db.create_table("carriers", _carriers([1, 0, 1, 2]))
    db.create_table("regions", Table({
        "region": np.array([2, 0, 1], dtype=np.int64),
        "continent": np.array([0, 1, 0], dtype=np.int64),
    }))
    # Shares t's column names: joined with Lb on its right, t.w is w_r.
    db.create_table("wt", Table({
        "g": np.array(list("abc"), dtype=object),
        "w": np.array([1.0, 2.0, 3.0]),
    }))
    return db


@pytest.mark.parametrize("preserve_rids", [False, True])
def test_replacing_a_plain_join_leaf_never_serves_a_stale_memo(preserve_rids):
    db = _join_db()
    params = {"bars": [0, 2]}

    def replace(d):  # same schema, another region mapping
        d.create_table(
            "carriers", _carriers([2, 2, 0, 1]), replace=True, preserve_rids=preserve_rids
        )

    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        old = server.snapshot()
        before = db.sql(JOIN, params=params).table.to_rows()
        assert server.sql(JOIN, params=params, snapshot=old).table.to_rows() == before
        server.write(replace)
        after = db.sql(JOIN, params=params).table.to_rows()
        assert after == _plain(db, JOIN, params["bars"]) != before
        pinned = server.sql(JOIN, params=params, snapshot=old).table.to_rows()
        assert pinned == old.sql(JOIN, params=params, options=PLAIN).table.to_rows()
        assert pinned == before
    # One memo entry per statement: each state change refills both bars.
    assert _bar_traffic(db.lineage_cache.stats()) == (6, 2)


def test_rid_parameter_read_in_a_hop_predicate_bypasses_the_memo():
    db = _join_db()
    stmt = (
        "SELECT continent, COUNT(*) AS c FROM (SELECT * FROM Lb(v, 't', :bars) "
        "JOIN carriers ON t.g = carriers.g WHERE z IN :bars) AS s "
        "JOIN regions ON s.region = regions.region GROUP BY continent"
    )
    for bars in ([0, 1], [1, 2]):
        assert db.sql(stmt, params={"bars": bars}).table.to_rows() == _plain(db, stmt, bars)
    assert _bar_traffic(db.lineage_cache.stats()) == (0, 0)


def test_join_rows_shape_and_capture_on_join_decline_the_memo():
    db = _join_db()
    rows = "SELECT w, region FROM Lb(v, 't', :bars) JOIN carriers ON t.g = carriers.g"
    for bars in ([0, 1], [1, 2]):
        assert db.sql(rows, params={"bars": bars}).table.to_rows() == _plain(db, rows, bars)
    captured = db.sql(JOIN, params={"bars": [0, 1]}, options=INJECT.with_(pin=False))
    plain = db.execute(
        db.parse(JOIN), params={"bars": [0, 1]},
        options=INJECT.with_(pin=False, late_materialize=False),
    )
    assert captured.table.to_rows() == plain.table.to_rows()
    out = list(range(len(plain)))
    assert captured.backward(out, "t").tolist() == plain.backward(out, "t").tolist()
    assert _bar_traffic(db.lineage_cache.stats()) == (0, 0)


def test_memo_answer_carries_the_interpreters_node_metadata(monkeypatch):
    """A memo answer skips every leaf, yet consumes one occurrence key per
    leaf and returns the capture-off node the chain interpreter builds."""
    from repro.exec.vector import executor

    nodes = []

    def recording(*args, **kwargs):
        table, node = execute_pushed(*args, **kwargs)
        nodes.append(node)
        return table, node

    execute_pushed = executor.execute_pushed
    monkeypatch.setattr(executor, "execute_pushed", recording)
    db = _join_db()
    # carriers is scanned twice: occurrence keys differ from table names.
    stmt = (
        "SELECT region AS continent, COUNT(*) AS c FROM carriers GROUP BY region "
        "UNION ALL SELECT continent, COUNT(*) AS c FROM Lb(v, 't', :bars) AS f "
        "JOIN carriers AS cr ON f.g = cr.g JOIN regions ON cr.region = regions.region "
        "GROUP BY continent"
    )
    params = {"bars": [0, 2]}
    db.sql(stmt, params=params)  # fills
    db.sql(stmt, params=params)  # reuses
    db.execute(db.parse(stmt), params=params)  # the interpreter, uncached
    assert _bar_traffic(db.lineage_cache.stats()) == (2, 2)
    fields = ("output_size", "backward", "forward", "names", "aliases", "base_sizes",
              "base_epochs")
    filled, reused, interpreted = (
        [getattr(node, f) for f in fields] for node in nodes
    )
    assert filled == reused == interpreted


@pytest.mark.parametrize("stmt", [BRUSH, ROWS, JOIN])
def test_fill_runs_bounded_by_rids_answer_like_one_run(stmt, monkeypatch):
    """Missing bars heavier together than ``FILL_RUN_RIDS`` fill in
    several runs (a heavier bar alone); the answers do not change."""
    from repro.exec import late_mat

    runs = []
    fill_bars = late_mat._fill_bars

    def recording(pushed, kind, part, bars, *args):
        runs.append(list(bars))
        return fill_bars(pushed, kind, part, bars, *args)

    monkeypatch.setattr(late_mat, "_fill_bars", recording)
    monkeypatch.setattr(late_mat, "FILL_RUN_RIDS", 5)
    db = _join_db()
    # Bars 0, 1 and 2 hold 3, 3 and 2 rids.
    for bars in ([2, 0, 1], [1, 2]):
        assert db.sql(stmt, params={"bars": bars}).table.to_rows() == _plain(db, stmt, bars)
    assert runs == [[0], [1, 2]]
    assert _bar_traffic(db.lineage_cache.stats()) == (3, 2)


VIEW = "SELECT z, COUNT(*) AS c FROM t GROUP BY z"
#: Same bars as VIEW, other lineage: row 0 (w = 0.0) is filtered out.
OTHER_VIEW = "SELECT z, COUNT(*) AS c FROM t WHERE w >= 1.0 GROUP BY z"
RENAMED = (
    "SELECT t.w AS w, COUNT(*) AS c FROM wt JOIN Lb(v, 't', :bars) "
    "ON wt.g = t.g GROUP BY t.w"
)
#: A column each statement reads, and one it does not.
READS = {BRUSH: ("g", "w"), ROWS: ("w", "g"), JOIN: ("g", "w"), RENAMED: ("w", None)}


def _swap(table="t", column=None, preserve_rids=True):
    """A replace of ``table`` around its column arrays, ``column`` (if
    any) swapped for a new one."""
    def write(db):
        columns = db.table(table).columns()
        if column is not None:
            columns[column] = columns[column][::-1].copy()
        db.create_table(table, Table(columns), replace=True, preserve_rids=preserve_rids)
    return write


def _write(db, column=None, view=VIEW, preserve_rids=True):
    """A refresh: ``t`` rebuilt around its column arrays, ``column`` (if
    any) swapped for a new one, then the view ``v`` re-registered."""
    _swap(column=column, preserve_rids=preserve_rids)(db)
    db.sql(view, options=INJECT.with_(name="v"))


def _fresh(db, stmt, bars, view=VIEW):
    """The answer of a fresh ``Database`` over ``db``'s tables."""
    fresh = Database()
    for name in db.tables():
        fresh.create_table(name, db.table(name))
    fresh.sql(view, options=INJECT.with_(name="v"))
    return fresh.sql(stmt, params={"bars": bars}).table.to_rows()


@pytest.mark.parametrize("stmt", [BRUSH, ROWS, JOIN])
def test_refresh_of_an_unread_column_keeps_the_memo(stmt):
    db = _join_db()
    params = {"bars": [0, 2]}
    db.sql(stmt, params=params)
    fills = db.lineage_cache.stats()["bar_fills"]
    _write(db, READS[stmt][1])
    after = db.sql(stmt, params=params).table.to_rows()
    stats = db.lineage_cache.stats()
    assert (stats["bar_fills"] - fills, stats["revalidated"]) == (0, 1)
    assert after == _fresh(db, stmt, [0, 2]) == _plain(db, stmt, [0, 2])


@pytest.mark.parametrize("stmt", [BRUSH, ROWS, JOIN, RENAMED])
@pytest.mark.parametrize("write", [
    {"column": "read"},
    {"view": OTHER_VIEW},
    {"preserve_rids": False},  # same arrays, same lineage, new epoch
], ids=["read-column", "other-lineage", "replace"])
def test_write_to_what_a_fill_reads_refills_the_memo(stmt, write):
    db = _join_db()
    params = {"bars": [0, 2]}
    db.sql(stmt, params=params)
    fills = db.lineage_cache.stats()["bar_fills"]
    if write.get("column") == "read":
        write = {"column": READS[stmt][0]}
    _write(db, **write)
    after = db.sql(stmt, params=params).table.to_rows()
    stats = db.lineage_cache.stats()
    assert (stats["bar_fills"] - fills, stats["revalidated"]) == (2, 0)
    view = write.get("view", VIEW)
    assert after == _fresh(db, stmt, [0, 2], view) == _plain(db, stmt, [0, 2])


def test_server_stats_count_revalidated_entries():
    db = _db()
    params = {"bars": [0, 1]}
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        old = server.snapshot()
        before = server.sql(BRUSH, params=params).table.to_rows()
        server.write(lambda d: _write(d, "w"))
        # The new snapshot's index is bit-equal: re-stamped, not refilled;
        # the old snapshot's index is re-stamped back.
        assert server.sql(BRUSH, params=params).table.to_rows() == before
        assert server.sql(BRUSH, params=params, snapshot=old).table.to_rows() == before
        stats = server.stats()["lineage_cache"]
    assert _bar_traffic(stats) == (2, 4)
    assert stats["revalidated"] == 2
    assert before == _fresh(db, BRUSH, [0, 1])


DISTINCT = "SELECT DISTINCT g FROM Lb(v, 't', :bars) WHERE w >= 1.0"


def test_memo_fill_and_merge_seconds_mark_memo_answers_only():
    """``late_mat_memo_{fill,merge}_s`` and ``late_mat_route_s`` appear on
    every statement the per-bar memo answers — fills, reuses, joins,
    ``sql_batch`` — and on none it declines."""
    from repro.exec.timings import LATE_MAT_MEMO_FILL, LATE_MAT_MEMO_MERGE, LATE_MAT_ROUTE

    keys = {LATE_MAT_MEMO_FILL, LATE_MAT_MEMO_MERGE, LATE_MAT_ROUTE}
    db = _join_db()
    answered = [
        db.sql(stmt, params={"bars": [0, 2]}) for stmt in (BRUSH, ROWS, JOIN, BRUSH, JOIN)
    ]
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        answered += server.sql_batch(BRUSH, [{"bars": [0]}, {"bars": [1, 2]}])
    declined = [
        db.sql(BRUSH, params={"bars": [0]}, options=INJECT.with_(pin=False)),
        db.sql("SELECT g, SUM(w) AS s FROM Lb(v, 't', :bars) GROUP BY g", params={"bars": [0]}),
        db.sql(BRUSH, params={"bars": [0]}, options=PLAIN),
    ]
    assert _bar_traffic(db.lineage_cache.stats()) == (7, 6)
    for result in answered:
        assert keys <= set(result.timings)
        assert all(result.timings[key] >= 0.0 for key in keys)
    for result in declined:
        assert not (keys | {LATE_MAT_ROUTE_BINDS}) & set(result.timings)


@pytest.mark.parametrize("stmt", [BRUSH, JOIN, DISTINCT])
def test_merging_filled_bars_encodes_no_key(stmt, monkeypatch):
    """Once its bars are filled, a brush merges their partials by key code:
    no key value is factorized again, and the answer is the plain path's."""
    from repro.exec.vector import kernels

    db = _join_db()
    db.sql(stmt, params={"bars": [0, 1, 2]})
    brushes = ([2, 0], [1], [0, 1, 2], [])
    expected = [_plain(db, stmt, bars) for bars in brushes]

    def refuse(arrays):
        raise AssertionError("a merge factorized key values")

    monkeypatch.setattr(kernels, "factorize", refuse)
    for bars, want in zip(brushes, expected, strict=True):
        assert db.sql(stmt, params={"bars": bars}).table.to_rows() == want
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        batch = server.sql_batch(stmt, [{"bars": bars} for bars in brushes])
    assert [r.table.to_rows() for r in batch] == expected


def test_batch_over_a_large_dictionary_scatters_over_its_rows(monkeypatch):
    """Bindings times a large key dictionary make a sparse slot domain:
    the merge ranks the slots first, so its scatter-min stays within the
    merged rows, and every binding answers as the plain path."""
    from repro.exec.vector import kernels

    n, bars = 40000, 8
    db = Database()
    db.create_table("t", Table({
        "z": np.arange(n, dtype=np.int64) % bars,
        "u": np.random.default_rng(3).permutation(n).astype(np.int64),
    }))
    db.sql("SELECT z, COUNT(*) AS c FROM t GROUP BY z", options=INJECT.with_(name="v"))
    stmt = "SELECT DISTINCT u FROM Lb(v, 't', :bars)"
    db.sql(stmt, params={"bars": list(range(bars))})  # a 40000-key dictionary
    brushes = [[0], [1, 2], [3], [7, 4]]
    expected = [_plain(db, stmt, b) for b in brushes]
    sizes = []
    least_per_slot = kernels.least_per_slot

    def recording(slots, keys, size):
        sizes.append(size)
        return least_per_slot(slots, keys, size)

    monkeypatch.setattr(kernels, "least_per_slot", recording)
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        batch = server.sql_batch(stmt, [{"bars": b} for b in brushes])
    assert [r.table.to_rows() for r in batch] == expected
    assert sizes == [6 * n // bars]  # the merged rows, not 4 bindings x 40000 codes


CHAIN = (
    "SELECT continent, COUNT(*) AS c FROM Lb(v, 't', :bars) JOIN carriers ON t.g = carriers.g "
    "JOIN regions ON carriers.region = regions.region GROUP BY continent"
)
#: A plain join leaf behind a filter of its own.
FILTERED = (
    "SELECT region, COUNT(*) AS c FROM Lb(v, 't', :bars) JOIN "
    "(SELECT * FROM carriers WHERE region >= 1) AS c ON t.g = c.g GROUP BY region"
)


def test_join_fills_probe_key_indexes_not_a_hash_join(monkeypatch):
    """A memo entry lowers its join core once: one key index per plain join
    leaf, built on the entry's first fill; fills of further bars build
    none, and join and chain brushes, and a batch, answer as the plain
    path."""
    from repro.exec.vector import join

    db = _join_db()
    brushes = ([0], [2, 1], [0, 1, 2])
    stmts = {JOIN: 1, CHAIN: 2, RENAMED: 1}
    expected = [[_plain(db, stmt, bars) for bars in brushes] for stmt in stmts]
    distinct = "SELECT DISTINCT region, w FROM Lb(v, 't', :bars) JOIN carriers ON t.g = carriers.g"
    batch = [[1, 0], [2]]
    expected_batch = [_plain(db, distinct, bars) for bars in batch]
    built = []

    class Counted(join.KeyIndex):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(join, "KeyIndex", Counted)
    for (stmt, leaves), want in zip(stmts.items(), expected, strict=True):
        answers = []
        for bars in brushes:
            built.clear()
            answers.append(db.sql(stmt, params={"bars": bars}).table.to_rows())
            assert len(built) == (leaves if bars == brushes[0] else 0)
        assert answers == want
    built.clear()
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        answers = server.sql_batch(distinct, [{"bars": bars} for bars in batch])
    assert [r.table.to_rows() for r in answers] == expected_batch
    assert len(built) == 1
    assert _bar_traffic(db.lineage_cache.stats()) == (12, 9)


def test_a_warm_statement_derives_no_memo_fact_again(monkeypatch):
    """What the memo reads of a statement's plan (its lineage leaf and kind,
    the core's leaves and order, the columns a fill may read) is derived
    once per bound plan: a warm statement's next run, and a batch of it,
    call none of the helpers that derive it."""
    from repro.plan import rewrite

    db = _join_db()
    stmts = (BRUSH, ROWS, JOIN, CHAIN, RENAMED)
    expected = [_plain(db, stmt, [2, 1]) for stmt in stmts]
    for stmt in stmts:
        db.sql(stmt, params={"bars": [0]})

    def refuse(*args):
        raise AssertionError("a plan fact was derived again")

    for name in ("_memo_shape", "_join_leaves", "_order_leaves", "_core_predicates", "collect_params"):
        monkeypatch.setattr(rewrite, name, refuse)
    assert [db.sql(stmt, params={"bars": [2, 1]}).table.to_rows() for stmt in stmts] == expected
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        batch = server.sql_batch(JOIN, [{"bars": [2, 1]}, {"bars": [2, 1]}])
    assert [r.table.to_rows() for r in batch] == [expected[2]] * 2


def _binds(result) -> float:
    return result.timings.get(LATE_MAT_ROUTE_BINDS, 0)


def test_a_warm_route_derives_nothing_again(monkeypatch):
    """Once its route is bound, a statement's warm runs through
    ``Database.sql``, ``PreparedQuery.run``, the server and ``sql_batch``
    re-derive none of its facts — no partition guards, occurrence keys,
    order-key strides or plain-leaf lookups — and answer as the plain path."""
    from repro.exec import late_mat
    from repro.exec.vector import executor as vector
    from repro.plan import logical

    db = _join_db()
    nested = f"SELECT region, COUNT(*) AS c FROM carriers GROUP BY region UNION ALL {JOIN}"
    stmts = (BRUSH, ROWS, JOIN, CHAIN, RENAMED, DISTINCT, nested)
    params = {"bars": [2, 1]}
    expected = [_plain(db, stmt, params["bars"]) for stmt in stmts]
    prepared = [db.prepare(stmt) for stmt in stmts]
    for stmt, statement in zip(stmts, prepared, strict=True):
        assert _binds(db.sql(stmt, params={"bars": [0]})) == 1
        assert _binds(statement.run(params={"bars": [0]})) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("a route fact was derived again")

    derived = ("resolve_scan_partition", "_order_strides", "plain_scan", "assign_source_keys")
    for module in (late_mat, logical, vector):
        for name in derived:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    warm = [db.sql(stmt, params=params) for stmt in stmts]
    warm += [statement.run(params=params) for statement in prepared]
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        warm += [server.sql(stmt, params=params) for stmt in stmts]
        for stmt in stmts:
            warm += server.sql_batch(stmt, [params, {"bars": [0]}])[:1]
    assert [r.table.to_rows() for r in warm] == expected * 4
    assert not any(_binds(r) for r in warm)


#: What a warm route may have been derived from, changed one way each.
STALE = {
    "view-bit-equal": lambda db, stmt: db.sql(VIEW, options=INJECT.with_(name="v")),
    "view-changed": lambda db, stmt: db.sql(OTHER_VIEW, options=INJECT.with_(name="v")),
    "base-replace": lambda db, stmt: _swap(preserve_rids=False)(db),
    "read-column": lambda db, stmt: _swap(column=READS[stmt][0])(db),
    "unread-column": lambda db, stmt: _swap(column=READS[stmt][1])(db),
    "plain-leaf": lambda db, stmt: _swap("carriers", "region", preserve_rids=False)(db),
    "dropped-view": lambda db, stmt: db.drop_result("v"),
}


def _same_state(db):
    """A fresh ``Database`` over ``db``'s tables, epochs and results."""
    fresh = Database()
    for name in db.tables():
        fresh.create_table(name, db.table(name))
    fresh.catalog.restore_epochs(db.catalog.epochs_snapshot())
    for name in db.results():
        fresh.register_result(name, db.result(name), pin=True)
    return fresh


def _outcome(db, stmt, params):
    """The answer's rows and route binds, or the error's type and text."""
    try:
        result = db.sql(stmt, params=params)
    except ReproError as exc:
        return type(exc), str(exc)
    return result.table.to_rows(), _binds(result)


def _rebinds_once(db, stmt, params, binds=1):
    """``stmt``'s run after a change: it answers as a fresh database over
    the same state, rebinding ``binds`` times, or raises what that one
    raises."""
    outcome = _outcome(db, stmt, params)
    fresh = _outcome(_same_state(db), stmt, params)
    if not isinstance(outcome[0], list):
        assert outcome == fresh
        return outcome
    assert (outcome[0], outcome[1]) == (fresh[0], binds)
    assert _outcome(db, stmt, params) == (outcome[0], 0)
    return outcome


@pytest.mark.parametrize("stmt", [BRUSH, ROWS, JOIN])
@pytest.mark.parametrize("change", list(STALE))
def test_each_source_of_staleness_rebinds_the_route_once(stmt, change):
    db = _join_db()
    params = {"bars": [0, 2]}
    assert _binds(db.sql(stmt, params=params)) == 1
    assert _binds(db.sql(stmt, params=params)) == 0
    STALE[change](db, stmt)
    read = change != "plain-leaf" or stmt == JOIN  # BRUSH and ROWS read no carriers
    outcome = _rebinds_once(db, stmt, params, binds=int(read))
    failed = {"base-replace": PlanError, "dropped-view": SqlError}.get(change)
    assert outcome[0] is failed if failed else isinstance(outcome[0], list)


def test_a_table_that_makes_the_relation_ambiguous_rebinds_and_raises():
    """The alias ``r`` names a scan of ``t`` and one of ``u``, whose lineage
    was not captured: ``Lb(v, 'r')`` resolves to ``t`` only while no table
    ``u`` exists."""
    db = Database()
    db.create_table("t", _table("abcabcaa", np.arange(8)))
    db.create_table("u", Table({"z": np.array([1, 2], dtype=np.int64)}))
    db.sql(
        "SELECT z, COUNT(*) AS c FROM (SELECT z FROM t AS r UNION ALL "
        "SELECT z FROM u AS r) AS s GROUP BY z",
        options=INJECT.with_(name="v", capture=CaptureConfig.inject(relations={"t"})),
    )
    u = db.table("u")
    db.drop_table("u")
    stmt, params = "SELECT g, COUNT(*) AS c FROM Lb(v, 'r', :bars) GROUP BY g", {"bars": [0, 2]}
    assert _binds(db.sql(stmt, params=params)) == 1
    assert _bar_traffic(db.lineage_cache.stats()) == (2, 0)
    db.create_table("u", u)
    outcome = _rebinds_once(db, stmt, params)
    assert outcome[0] is LineageError and "multiple base tables" in outcome[1]
    db.drop_table("u")  # the route bound without u, which no failed rebind replaced, holds again
    assert _rebinds_once(db, stmt, params, binds=0)[0] == _plain(db, stmt, params["bars"])


def test_a_refused_reregistration_leaves_the_route_bound():
    """A re-registration the byte budget refuses changes nothing: the view
    keeps its result and epoch, so its bound route stays warm."""
    db = Database(max_result_bytes=1)
    db.create_table("t", _table("abcabcaa", np.arange(8)))
    db.sql(VIEW, options=INJECT.with_(name="v"))  # pinned: exempt
    params = {"bars": [0, 2]}
    assert _binds(db.sql(BRUSH, params=params)) == 1
    view = db.result("v")
    with pytest.raises(RegistryFullError, match="'v'"):
        db.sql(OTHER_VIEW, options=INJECT.with_(name="v", pin=False))
    assert db.result("v") is view and db._results.epoch("v") == 1
    result = db.sql(BRUSH, params=params)
    assert _binds(result) == 0
    assert result.table.to_rows() == _fresh(db, BRUSH, params["bars"])


def test_a_route_keeps_no_replaced_view_alive():
    """A route holds what it was derived from by weak reference: a
    re-registered view's old result is collectable before any statement
    runs over the new one, and after."""
    db = _join_db()
    params = {"bars": [0, 2]}
    for stmt in (BRUSH, JOIN):
        db.sql(stmt, params=params)
    old = weakref.ref(db.result("v"))
    db.sql(OTHER_VIEW, options=INJECT.with_(name="v"))
    gc.collect()
    assert old() is None
    for stmt in (BRUSH, JOIN):
        assert _rebinds_once(db, stmt, params)[1] == 1
    gc.collect()
    assert old() is None


def _counting_selects(monkeypatch, pause=0.0) -> list:
    """Patch the vector ``Select`` to record each call, then sleep
    ``pause`` seconds (other threads run meanwhile)."""
    import time

    from repro.exec.vector import select

    calls = []
    execute_select = select.execute_select

    def counting(*args, **kwargs):
        calls.append(args[1])
        time.sleep(pause)
        return execute_select(*args, **kwargs)

    monkeypatch.setattr(select, "execute_select", counting)
    return calls


def test_a_plain_leaf_is_filtered_once_per_entry(monkeypatch):
    db = _join_db()
    brushes = ([0], [1], [2], [2, 0, 1])
    expected = [_plain(db, FILTERED, bars) for bars in brushes]
    calls = _counting_selects(monkeypatch)
    assert [db.sql(FILTERED, params={"bars": b}).table.to_rows() for b in brushes] == expected
    assert len(calls) == 1
    assert _bar_traffic(db.lineage_cache.stats()) == (3, 3)


def test_threads_filling_a_cold_join_entry_lower_it_once(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    db = _join_db()
    brushes = [[0], [1], [2], [0, 1], [1, 2], [2, 0], [0, 1, 2], [1]]
    expected = [_fresh(db, FILTERED, bars) for bars in brushes]
    calls = _counting_selects(monkeypatch, pause=0.05)  # a lowering the others reach
    barrier = Barrier(len(brushes))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with DatabaseServer(db, readers=1, memoize_answers=False) as server:

            def brush(bars):
                barrier.wait(timeout=10)
                return server.sql(FILTERED, params={"bars": bars}).table.to_rows()

            with ThreadPoolExecutor(len(brushes)) as pool:
                answers = list(pool.map(brush, brushes, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert answers == expected
    assert len(calls) == 1
    assert len(db.lineage_cache) == 1


def _with_pkfk(plan):
    """``plan`` with its one hash join flagged pk-fk."""
    import dataclasses

    from repro.plan.logical import HashJoin

    if isinstance(plan, HashJoin):
        return HashJoin(plan.left, plan.right, plan.left_keys, plan.right_keys, pkfk=True)
    return dataclasses.replace(plan, child=_with_pkfk(plan.child))


@pytest.mark.parametrize("stmt", [
    # regions' unique key folds into the carriers hop ...
    CHAIN,
    # ... under a WHERE over both sides' columns ...
    CHAIN.replace("GROUP BY", "WHERE continent >= 1 OR w >= 5.0 GROUP BY"),
    # ... but not across a predicate between the hops.
    "SELECT continent, COUNT(*) AS c FROM (SELECT * FROM Lb(v, 't', :bars) JOIN carriers "
    "ON t.g = carriers.g WHERE w >= 2.0) AS s JOIN regions ON s.region = regions.region "
    "GROUP BY continent",
    "SELECT DISTINCT regions.region, continent FROM regions JOIN (SELECT * FROM carriers JOIN "
    "Lb(v, 't', :bars) ON carriers.g = t.g) AS s ON regions.region = s.region",
])
def test_folded_hops_answer_and_count_as_the_interpreter(stmt):
    """A unique-keyed hop off a plain leaf folds into that leaf's hop: the
    answers, and the build sides counted per fill, are the interpreter's."""
    from repro.exec.timings import LATE_MAT_BUILD_SWAPS, LATE_MAT_PKFK_DETECTED

    db = _join_db()
    for bars in ([0], [2, 1], [0, 1, 2]):
        memo = db.sql(stmt, params={"bars": bars})
        assert memo.table.to_rows() == _plain(db, stmt, bars)
    keys = (LATE_MAT_BUILD_SWAPS, LATE_MAT_PKFK_DETECTED)
    reused = [db.sql(stmt, params={"bars": [b]}).timings for b in range(3)]
    assert not any(set(keys) & set(t) for t in reused)  # nothing ran
    db.lineage_cache.invalidate()
    for b in range(3):  # a one-bar fill runs over the rids a raw run resolves
        filled = db.sql(stmt, params={"bars": [b]}).timings
        raw = db.execute(db.parse(stmt), params={"bars": [b]}).timings
        assert [filled.get(k) for k in keys] == [raw.get(k) for k in keys]


def test_mn_hops_and_a_pkfk_violation_behave_as_the_plain_path():
    from repro.errors import PlanError

    db = _join_db()
    # carriers repeats its keys: every hop through it is m:n.
    for stmt in (JOIN, CHAIN, FILTERED):
        for bars in ([0], [1, 2], [2, 0], [0, 1, 2]):
            assert db.sql(stmt, params={"bars": bars}).table.to_rows() == _plain(db, stmt, bars)
    # A pk-fk flag over keys that repeat, on the plain side and on the
    # lineage side (each bar repeats a key of t.g).
    for stmt in (
        "SELECT region, COUNT(*) AS c FROM carriers JOIN Lb(v, 't', :bars) "
        "ON carriers.g = t.g GROUP BY region",
        JOIN,
    ):
        plan = _with_pkfk(db.parse(stmt))
        for bars in ([0], [1, 2]):
            with pytest.raises(PlanError, match="not unique"):
                db.execute(plan, params={"bars": bars}, options=PLAIN)
            with pytest.raises(PlanError, match="not unique"):
                db.prepare(plan).run(params={"bars": bars})


def test_float_and_two_column_join_keys_answer_as_the_plain_path():
    """-0.0 joins 0.0 and NaN joins NaN, as in the hash join; an int key
    joins equal floats; a two-column key matches on both."""
    db = Database()
    db.create_table("t", Table({
        "z": np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.int64),
        "f": np.array([0.0, -0.0, np.nan, 1.5, np.nan, 0.0, 2.5, -0.0]),
        "b": np.array([1, 2, 1, 2, 1, 2, 1, 2], dtype=np.int64),
    }))
    db.create_table("d", Table({
        "f": np.array([-0.0, np.nan, 1.5, 0.0]),
        "b": np.array([1, 1, 2, 2], dtype=np.int64),
        "label": np.array(list("wxyz"), dtype=object),
    }))
    db.create_table("e", Table({
        "fk": np.array([0, 2, 1], dtype=np.int64),
        "lab": np.array(list("pqr"), dtype=object),
    }))
    db.sql("SELECT z, COUNT(*) AS c FROM t GROUP BY z", options=INJECT.with_(name="v"))
    for stmt in (
        "SELECT label, COUNT(*) AS c FROM Lb(v, 't', :bars) JOIN d ON t.f = d.f GROUP BY label",
        "SELECT label, COUNT(*) AS c FROM Lb(v, 't', :bars) JOIN d "
        "ON t.f = d.f AND t.b = d.b GROUP BY label",
        "SELECT DISTINCT lab, t.f AS f FROM e JOIN Lb(v, 't', :bars) ON e.fk = t.f",
    ):
        for bars in ([0], [1, 2], [2, 0, 1]):
            assert db.sql(stmt, params={"bars": bars}).table.to_rows() == _plain(db, stmt, bars)
    assert _bar_traffic(db.lineage_cache.stats()) == (9, 9)
