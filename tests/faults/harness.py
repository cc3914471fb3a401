"""Helpers for the crash/recovery fault-injection harness.

Every test here works against a *durable* database rooted in a fresh
temp directory: register views, crash at an armed failpoint (or close
cleanly), re-open the same directory, and compare lineage answers
bit-for-bit against what was acknowledged before the crash.
"""

import numpy as np

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.storage.table import Table

#: Deterministic base relation every harness database starts from.
Z = np.array([1, 2, 1, 3, 2, 1, 4, 3], dtype=np.int64)
V = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0])


def make_base_table() -> Table:
    return Table({"z": Z.copy(), "v": V.copy()})


def open_db(path, **kwargs) -> Database:
    """Open a durable database at ``path`` with the base table loaded
    (base relations are not persisted; every restart re-creates them)."""
    db = Database.open(path, **kwargs)
    if "t" not in db.catalog:
        db.create_table("t", make_base_table())
    return db


def view_statement(cut: int) -> str:
    """Statements distinct enough that mixed-up recovery would produce
    different tables/lineage (literal cutoffs, so each cut has its own
    row set and lineage bytes)."""
    return f"SELECT z, COUNT(*) AS c FROM t WHERE v < {cut * 10 + 25} GROUP BY z"


def register_view(db: Database, name: str, cut: int = 3, pin: bool = False):
    return db.sql(
        view_statement(cut),
        options=ExecOptions(capture=CaptureMode.INJECT, name=name, pin=pin),
    )


def snapshot_answers(result) -> dict:
    """Every backward/forward answer of one registered result (the
    bit-identity oracle: recovery must reproduce these exactly)."""
    answers = {"rows": result.table.to_rows()}
    for out in range(len(result.table)):
        answers[("b", out)] = result.backward([out], "t")
    for rid in range(len(Z)):
        answers[("f", rid)] = result.forward("t", [rid])
    return answers


def assert_answers_identical(result, answers: dict) -> None:
    assert result.table.to_rows() == answers["rows"]
    for out in range(len(result.table)):
        assert np.array_equal(result.backward([out], "t"), answers[("b", out)])
    for rid in range(len(Z)):
        assert np.array_equal(result.forward("t", [rid]), answers[("f", rid)])
