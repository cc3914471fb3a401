"""Reader threads on two snapshots share one prepared statement per text,
and so one bound route slot per pushed tree: each thread's answers are
its own snapshot's, however the route rebinds between them."""

import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np

from repro import CaptureMode, Database, ExecOptions, Table
from repro.exec.timings import LATE_MAT_ROUTE_BINDS
from repro.serve import DatabaseServer

THREADS = 8
ROUNDS = 20
VIEW = "SELECT z, COUNT(*) AS c FROM t GROUP BY z"
STATEMENTS = [
    "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY g",
    "SELECT w FROM Lb(v, 't', :bars) WHERE w >= 0.5",
    "SELECT DISTINCT g FROM Lb(v, 't', :bars)",
    "SELECT region, COUNT(*) AS c FROM Lb(v, 't', :bars) JOIN d ON t.g = d.g "
    "GROUP BY region",
]
BRUSHES = ([0, 3], [5, 1, 2], [7])


def _database():
    rng = np.random.default_rng(23)
    n = 2000
    db = Database()
    db.create_table("t", Table({
        "z": rng.integers(0, 8, n),
        "g": rng.integers(0, 12, n),
        "w": rng.random(n),
    }))
    db.create_table("d", Table({
        "g": np.arange(12, dtype=np.int64),
        "region": np.arange(12, dtype=np.int64) % 4,
    }))
    db.sql(VIEW, options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True))
    return db


def _refresh(db):
    """Rewrite ``t``'s ``g`` and ``w`` in place and re-register the view:
    every statement's answer changes, and every route goes stale."""
    columns = db.table("t").columns()
    columns["g"] = columns["g"][::-1].copy()
    columns["w"] = 1.0 - columns["w"]
    db.create_table("t", Table(columns), replace=True, preserve_rids=True)
    db.sql(VIEW, options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True))


def _answers(snap, run):
    return [[run(snap, stmt, {"bars": bars}) for bars in BRUSHES] for stmt in STATEMENTS]


def test_threads_on_an_old_and_the_current_snapshot_share_one_route_slot():
    db = _database()
    plain = ExecOptions(late_materialize=False)
    interval = sys.getswitchinterval()
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        old = server.snapshot()
        for stmt in STATEMENTS:  # prepared once, on the old snapshot
            server.sql(stmt, params={"bars": BRUSHES[0]}, snapshot=old)
        statements = len(db._statements)
        server.write(_refresh)
        new = server.snapshot()
        expected = {
            snap: _answers(snap, lambda s, stmt, p: s.sql(stmt, p, plain).table.to_rows())
            for snap in (old, new)
        }
        assert expected[old] != expected[new]
        barrier = Barrier(THREADS)

        def worker(i):
            snap, binds = (old, new)[i % 2], 0
            for _ in range(ROUNDS):
                barrier.wait(timeout=10)
                results = _answers(snap, lambda s, stmt, p: server.sql(stmt, p, snapshot=s))
                batches = [
                    server.sql_batch(stmt, [{"bars": b} for b in BRUSHES], snapshot=snap)
                    for stmt in STATEMENTS
                ]
                for got in (results, batches):
                    assert [[r.table.to_rows() for r in row] for row in got] == expected[snap]
                    binds += sum(r.timings.get(LATE_MAT_ROUTE_BINDS, 0) for row in got for r in row)
            return binds

        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(THREADS) as pool:
                binds = list(pool.map(worker, range(THREADS), timeout=120))
        finally:
            sys.setswitchinterval(interval)
    assert len(db._statements) == statements  # one prepared statement per text
    assert sum(binds) >= len(STATEMENTS)  # the new snapshot rebound every route
