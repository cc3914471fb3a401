"""Threads released together on statements no thread has run before:
each text is bound into one statement-memo entry, and so keys one
per-bar memo entry, however the binds interleave."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np

from repro import CaptureMode, Database, ExecOptions, Table
from repro.lineage.cache import LineageResolutionCache
from repro.serve import DatabaseServer

THREADS = 8
STATEMENTS = [
    "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY g",
    "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) WHERE w >= 0.5 GROUP BY g",
    "SELECT DISTINCT g FROM Lb(v, 't', :bars)",
    "SELECT region, COUNT(*) AS c FROM Lb(v, 't', :bars) JOIN d ON t.g = d.g "
    "GROUP BY region",
]


def _database():
    rng = np.random.default_rng(17)
    n = 2000
    db = Database()
    db.create_table("t", Table({
        "z": rng.integers(0, 16, n),
        "g": rng.integers(0, 12, n),
        "w": rng.random(n),
    }))
    db.create_table("d", Table({
        "g": np.arange(12, dtype=np.int64),
        "region": np.arange(12, dtype=np.int64) % 4,
    }))
    db.sql(
        "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
        options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
    )
    return db


def test_threads_racing_cold_statements_share_one_entry_each():
    db = _database()
    plain = ExecOptions(late_materialize=False)
    brushes = [[i % 16, (5 * i + 3) % 16] for i in range(THREADS)]
    expected = [
        [db.execute(db.parse(s), params={"bars": b}, options=plain).table.to_rows()
         for s in STATEMENTS]
        for b in brushes
    ]
    statements = len(db._statements)
    barrier = Barrier(THREADS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with DatabaseServer(db, readers=1, memoize_answers=False) as server:

            def worker(i):
                got = []
                for stmt in STATEMENTS:  # every thread meets each one cold
                    barrier.wait(timeout=10)
                    got.append(server.sql(stmt, params={"bars": brushes[i]}))
                return [result.table.to_rows() for result in got]

            with ThreadPoolExecutor(THREADS) as pool:
                answers = list(pool.map(worker, range(THREADS), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert answers == expected
    assert len(db._statements) == statements + len(STATEMENTS)
    assert len(db.lineage_cache) == len(STATEMENTS)


def test_threads_racing_a_cold_memo_key_share_one_value():
    """Racers that each build a cold key's value all get the first one
    filed: one entry, one miss, and every other lookup a hit."""
    cache = LineageResolutionCache()
    barrier = Barrier(THREADS)

    def build():
        time.sleep(0.01)  # the other racers miss meanwhile
        return object()

    def lookup(_):
        barrier.wait(timeout=10)
        return cache.get(("statement",), build, ("epoch",))

    with ThreadPoolExecutor(THREADS) as pool:
        values = list(pool.map(lookup, range(THREADS), timeout=60))
    assert len({id(v) for v in values}) == 1
    stats = cache.stats()
    assert (stats["entries"], stats["misses"], stats["hits"]) == (1, 1, THREADS - 1)
