"""The compiled reference as the executor's oracle.

The product answers a lineage-consuming statement on the rid-domain
pushed path (:func:`repro.exec.late_mat.execute_pushed`) and, with
capture off, through the per-bar memo behind it.  The reference
(:func:`reference.reference`) runs neither: it materializes every
subtree, ``Lb``/``Lf`` scans included.  These tests hold both halves of
that contract on a fixed set of statement shapes — the reference never
enters the pushed code, and the product, which does, answers each shape
with the reference's rows and lineage.
"""

import inspect

import numpy as np
import pytest

from repro import CaptureMode, Database, ExecOptions, Table, api
from repro.exec import late_mat
from repro.exec.compiled import CompiledExecutor
from repro.exec.vector import executor as vector_executor
from reference import reference

INJECT = ExecOptions(capture=CaptureMode.INJECT)

#: One statement per shape the pushed path lowers: a leaf core under a
#: GROUP BY (one the per-bar memo answers, one it declines), a
#: projection, DISTINCT and a sort; join cores with the
#: lineage leaf on either side, a filtered plain leaf and a two-hop
#: chain; a core under a set operation; and a forward scan.
SHAPES = {
    "groupby": "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY g",
    "groupby_sum": "SELECT g, COUNT(*) AS c, SUM(w) AS s FROM Lb(v, 't', :bars) GROUP BY g",
    "rows": "SELECT w, g FROM Lb(v, 't', :bars) WHERE w >= 2.0",
    "distinct": "SELECT DISTINCT g FROM Lb(v, 't', :bars) WHERE w >= 1.0",
    "order_by": "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY g ORDER BY c DESC, g",
    "join": (
        "SELECT region, COUNT(*) AS c FROM Lb(v, 't', :bars) "
        "JOIN carriers ON t.g = carriers.g GROUP BY region"
    ),
    "join_lineage_right": (
        "SELECT region, COUNT(*) AS c FROM carriers JOIN Lb(v, 't', :bars) "
        "ON carriers.g = t.g WHERE w >= 1.0 GROUP BY region"
    ),
    "filtered_leaf": (
        "SELECT region, COUNT(*) AS c FROM Lb(v, 't', :bars) JOIN "
        "(SELECT * FROM carriers WHERE region >= 1) AS c ON t.g = c.g GROUP BY region"
    ),
    "chain": (
        "SELECT continent, COUNT(*) AS c FROM Lb(v, 't', :bars) "
        "JOIN carriers ON t.g = carriers.g "
        "JOIN regions ON carriers.region = regions.region GROUP BY continent"
    ),
    "union": (
        "SELECT g FROM Lb(v, 't', :bars) WHERE w >= 4.0 "
        "UNION ALL SELECT g FROM carriers WHERE region = 1"
    ),
    "forward": "SELECT z, c FROM Lf('t', v, :bars) WHERE c > 2",
}

#: Shapes the per-bar memo declines: capture off, they run the pushed
#: path raw on every brush.
RAW = {"groupby_sum", "forward"}

#: A brush session: fresh bars, a reorder of filled ones, a mix, all.
BRUSHES = ([0], [2, 1], [1, 0], [0, 1, 2])


def _db():
    db = Database()
    db.create_table("t", Table({
        "z": np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.int64),
        "g": np.array(list("abcabcaa"), dtype=object),
        "w": np.arange(8, dtype=np.float64),
    }))
    # Keys repeat and run against key order.
    db.create_table("carriers", Table({
        "g": np.array(list("caba"), dtype=object),
        "region": np.array([1, 0, 1, 2], dtype=np.int64),
    }))
    db.create_table("regions", Table({
        "region": np.array([2, 0, 1], dtype=np.int64),
        "continent": np.array([0, 1, 0], dtype=np.int64),
    }))
    db.sql(
        "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
        options=INJECT.with_(name="v", pin=True),
    )
    return db


@pytest.fixture
def pushed_calls(monkeypatch):
    """Every entry into the pushed path and its per-bar memo, in order."""
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(vector_executor, "execute_pushed")
    counted(api, "execute_pushed_batch")
    counted(late_mat, "_memo_answers")
    return calls


def _per_row_lineage(result, db):
    """Each output row's backward rids and each input row's forward rids,
    per captured relation (a base table, or the result an ``Lf`` reads)."""
    out = {}
    for rel in result.lineage.relations:
        rows = db.table(rel).num_rows if rel in db.tables() else len(db.result(rel))
        out[rel] = (
            [result.backward([i], rel).tolist() for i in range(len(result))],
            [result.forward(rel, [i]).tolist() for i in range(rows)],
        )
    return out


@pytest.mark.parametrize("shape", list(SHAPES))
def test_reference_never_enters_the_pushed_path(shape, pushed_calls):
    """The reference answers every shape, capture on and off, without one
    call into the pushed path or the memo; the product's run of the same
    statement enters it, so the two answers come from different code."""
    db = _db()
    stmt, params = SHAPES[shape], {"bars": [0, 2]}
    for options in (ExecOptions(), INJECT):
        reference(db, stmt, params, options)
    assert pushed_calls == []
    db.sql(stmt, params=params)
    assert pushed_calls


@pytest.mark.parametrize("shape", list(SHAPES))
def test_memo_session_answers_each_brush_as_the_reference(shape, pushed_calls):
    """Capture off, a session's brushes fill and reuse the per-bar memo
    (or, where it declines, run the pushed path raw); every brush answers
    with the reference's rows, in its order."""
    db = _db()
    session = db.session()
    for bars in BRUSHES:
        params = {"bars": bars}
        got = session.sql(SHAPES[shape], params=params).table.to_rows()
        assert got == reference(db, SHAPES[shape], params).table.to_rows()
    assert ("_memo_answers" in pushed_calls) == (shape not in RAW)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_pushed_capture_matches_the_reference_row_by_row(shape, pushed_calls):
    """Capture on, the pushed path captures, per output row and per base
    row, the lineage the materializing reference captures."""
    db = _db()
    stmt, params = SHAPES[shape], {"bars": [2, 0]}
    pushed = db.sql(stmt, params=params, options=INJECT)
    assert "execute_pushed" in pushed_calls
    ref = reference(db, stmt, params, INJECT)
    assert pushed.table.to_rows() == ref.table.to_rows()
    assert pushed.lineage.relations == ref.lineage.relations
    assert _per_row_lineage(pushed, db) == _per_row_lineage(ref, db)


def test_reference_takes_a_plan_a_capture_and_params_only():
    """The reference has no option of the product's: no late
    materialization, no rewrites, no lineage cache."""
    params = list(inspect.signature(CompiledExecutor.execute).parameters)
    assert params == ["self", "plan", "capture", "params"]


@pytest.mark.parametrize("stmt", [
    "SELECT f, COUNT(*) AS c FROM t GROUP BY f",
    "SELECT DISTINCT f FROM t",
    "SELECT t.i, d.k FROM t JOIN d ON t.f = d.f",
])
def test_nan_keys_group_and_join_alike_on_both_engines(stmt):
    """NaN groups, deduplicates and joins with NaN on both engines, and
    -0.0 with 0.0: a float key means the same on the oracle as on the
    product, rows and lineage alike."""
    db = Database()
    nan = float("nan")
    db.create_table("t", Table({"f": np.array([nan, 1.0, nan, -0.0, 0.0]),
                                "i": np.arange(5, dtype=np.int64)}))
    db.create_table("d", Table({"f": np.array([0.0, nan, 2.0]),
                                "k": np.arange(3, dtype=np.int64)}))
    product, ref = db.sql(stmt, options=INJECT), reference(db, stmt, options=INJECT)
    assert repr(product.table.to_rows()) == repr(ref.table.to_rows())
    assert _per_row_lineage(product, db) == _per_row_lineage(ref, db)
    expected = {
        "SELECT f, COUNT(*) AS c FROM t GROUP BY f": [(nan, 2), (1.0, 1), (-0.0, 2)],
        "SELECT DISTINCT f FROM t": [(nan,), (1.0,), (-0.0,)],
        "SELECT t.i, d.k FROM t JOIN d ON t.f = d.f": [(3, 0), (4, 0), (0, 1), (2, 1)],
    }[stmt]
    as_floats = [tuple(float(v) for v in row) for row in ref.table.to_rows()]
    assert repr(as_floats) == repr([tuple(float(v) for v in row) for row in expected])
