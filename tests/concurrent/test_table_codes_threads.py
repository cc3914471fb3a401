"""Reader threads released together on a catalog table whose STR columns
no statement has grouped by or filtered on yet: each thread's GROUP BY,
or its ``=`` / ``<>`` / ``IN`` over a STR column, is the first use of the
table's dictionary codes (``Table.codes``, ``Table.shared_codes``),
however the threads interleave, and every answer equals the
single-threaded one."""

import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np

from repro import Database, ExecOptions, Table
from repro.lineage.capture import CaptureMode
from repro.serve import DatabaseServer
from repro.storage.table import dictionary_encode

THREADS = 8
STATEMENTS = [
    "SELECT k, COUNT(*) AS c FROM t WHERE w IN ('p', 'q') GROUP BY k",
    "SELECT v FROM (SELECT * FROM t WHERE v > 3) AS f WHERE w <> 'r' AND s = 's3'",
    "SELECT s, COUNT(*) AS c FROM t WHERE v >= 5 GROUP BY s",
    "SELECT u, s, SUM(v) AS sv FROM t GROUP BY u, s",
    "SELECT k, u, COUNT(*) AS c FROM t WHERE v < 15 GROUP BY k, u",
]


def _table():
    rng = np.random.default_rng(23)
    n = 4000
    return Table({
        "s": np.array([f"s{i}" for i in rng.integers(0, 40, n)], dtype=object),
        "u": np.array(["x", "y", "z", ""], dtype=object)[rng.integers(0, 4, n)],
        "w": np.array(["p", "q", "r"], dtype=object)[rng.integers(0, 3, n)],
        "k": rng.integers(0, 6, n),
        "v": rng.integers(0, 20, n),
    })


def _answers(db, options):
    return [db.sql(s, options=options).table.to_rows() for s in STATEMENTS]


def test_readers_first_use_one_tables_codes_at_a_barrier():
    single = Database()
    single.create_table("t", _table())
    options = [ExecOptions(), ExecOptions(capture=CaptureMode.INJECT)]
    expected = [_answers(single, o) for o in options]

    db = Database()
    db.create_table("t", _table())
    table = db.table("t")
    barrier = Barrier(THREADS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with DatabaseServer(db, readers=2, memoize_answers=False) as server:

            def worker(i):
                opts = options[i % 2]
                got = []
                for stmt in STATEMENTS:  # every thread meets each one cold
                    barrier.wait(timeout=10)
                    got.append(server.sql(stmt, options=opts).table.to_rows())
                return got

            with ThreadPoolExecutor(THREADS) as pool:
                answers = list(pool.map(worker, range(THREADS), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(answers):
        assert got == expected[i % 2]
    assert set(table._codes) == {"s", "u", "w"}  # memoized on the stored table
    for name in ("s", "u", "w"):
        codes, width = table.codes(name)
        assert codes.max() < width == len(set(table.column(name).tolist()))
        assert np.array_equal(codes, dictionary_encode(table.column(name))[0])
