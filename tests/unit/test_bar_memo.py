"""The per-bar memo behind capture-off brushes over GROUP BY views: its
reuse is observable, and no state change ever serves a stale memo."""

import numpy as np
import pytest

from repro import CaptureMode, Database, ExecOptions, Table
from repro.errors import LineageError
from repro.lineage.cache import param_fingerprint
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
