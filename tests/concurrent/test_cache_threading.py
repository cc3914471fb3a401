"""Thread-safety hammering for the shared lineage cache of per-bar
memos, the statement memo, and the catalog's column-stats memo.

These tests assert the *contract*, not scheduling: no exceptions under
contention, bounded entry counts, and counter bookkeeping that adds up.
Wrong-answer races (stale rids, mixed epochs) are covered by the
isolation property in ``test_snapshot_isolation.py``; this file covers
the data structures themselves.
"""

import sys
import threading

import numpy as np

from repro.api import StatementMemo
from repro.lineage.cache import LineageResolutionCache, param_fingerprint
from repro.storage.catalog import Catalog
from repro.storage.table import Table

THREADS = 8
ITERATIONS = 300


def _hammer(worker, threads=THREADS):
    errors = []
    barrier = threading.Barrier(threads)

    def run(seed):
        try:
            barrier.wait(timeout=10)
            worker(seed)
        except Exception as exc:  # any exception is a failure
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
        assert not thread.is_alive(), "hammer thread did not finish"
    assert not errors, errors[:3]


class TestCacheHammer:
    def test_mixed_keys_epochs_and_invalidations(self, monkeypatch):
        """Eight threads looking up memos under random keys and epochs,
        re-stamping some and invalidating now and then: every lookup
        returns a value built for its own key, and each one counts as
        exactly one hit or one miss."""
        monkeypatch.setattr(LineageResolutionCache, "MAX_ENTRIES", 64)
        cache = LineageResolutionCache()
        statements = [f"stmt{i}" for i in range(4)]

        def worker(seed):
            rng = np.random.default_rng(seed)
            for i in range(ITERATIONS):
                key = (
                    statements[int(rng.integers(0, len(statements)))],
                    param_fingerprint({"k": rng.integers(0, 5, int(rng.integers(1, 3)))}),
                )
                epoch = int(rng.integers(0, 3))
                out = cache.memo(
                    key,
                    epoch,
                    lambda key=key: (key, object()),
                    # Vouch for entries of an even epoch: re-stamped.
                    lambda stored: stored % 2 == 0,
                )
                assert out[0] == key
                if i % 97 == 0:
                    cache.invalidate()

        _hammer(worker)
        assert len(cache) <= 64
        # Every lookup either hit or missed; invalidation never loses one.
        assert cache.hits + cache.misses == THREADS * ITERATIONS
        assert 0 < cache.revalidated <= cache.hits

    def test_lru_bound_holds_under_contention(self, monkeypatch):
        monkeypatch.setattr(LineageResolutionCache, "MAX_ENTRIES", 16)
        cache = LineageResolutionCache()

        def worker(seed):
            for i in range(ITERATIONS):
                key = ("stmt", param_fingerprint({"k": np.array([seed, i], dtype=np.int64)}))
                cache.memo(key, 0, object)
                assert len(cache) <= 16

        _hammer(worker)
        assert len(cache) <= 16


class TestStatementMemoHammer:
    def test_bound_holds_under_contention(self):
        """Eight threads binding, hitting and re-binding overlapping keys:
        no exception, the LRU bound is never exceeded, every lookup
        returns the entry bound for its own key, and the memo ends up
        holding exactly min(bound, keys touched) entries (a lost install
        or a double eviction would break the count)."""
        memo = StatementMemo()
        bound = StatementMemo.MAX_STATEMENTS
        keys = [f"select {i}" for i in range(bound + 64)]
        touched = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for i in range(ITERATIONS):
                key = keys[int(rng.integers(0, len(keys)))]
                touched.append(key)
                if i % 7 == 0:
                    entry = memo.rebind(key, lambda key=key: (key, seed))
                else:
                    entry = memo.get(key, lambda key=key: (key, seed))
                assert entry[0] == key
                assert len(memo) <= bound

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert len(memo) == min(bound, len(set(touched)))


class TestLineageDedupScratch:
    def test_concurrent_backward_never_tears(self):
        """``QueryLineage._distinct`` dedups dense batches through a
        reusable flag array; before it was locked, one thread's reset
        (``view[out] = False``) could clear another thread's freshly set
        bits, so concurrent ``backward`` calls on the same result
        returned missing (even empty) rid sets."""
        from repro.lineage.capture import QueryLineage
        from repro.lineage.indexes import RidIndex

        groups, per_group = 4, 200
        group_ids = np.repeat(np.arange(groups), per_group)
        lineage = QueryLineage(output_size=groups)
        lineage.put_backward(
            "t", RidIndex.from_group_ids(group_ids, groups)
        )
        expected = {
            g: np.flatnonzero(group_ids == g) for g in range(groups)
        }

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(ITERATIONS):
                g = int(rng.integers(0, groups))
                out = lineage.backward(np.array([g], dtype=np.int64), "t")
                assert np.array_equal(out, expected[g]), (
                    f"torn dedup for group {g}: got {out.size} rids"
                )

        _hammer(worker)


class TestCatalogStatsHammer:
    def test_stats_during_replacements(self):
        """Readers computing column stats while a writer replaces the
        table: each reader's stats must describe the exact table version
        it fetched (rows match), and the memo never crashes."""
        catalog = Catalog()

        def install(rows):
            catalog.register(
                "t",
                Table({"z": np.arange(rows, dtype=np.int64)}),
                replace=True,
            )

        install(1)
        stop = threading.Event()
        errors = []

        def writer():
            rows = 1
            try:
                while not stop.is_set():
                    rows = rows % 7 + 1
                    install(rows)
            except Exception as exc:  # any exception is a failure
                errors.append(exc)

        def reader(seed):
            for _ in range(ITERATIONS):
                table, epoch = catalog.get_versioned("t")
                stats = catalog.stats_for("t", table, epoch, "z")
                assert stats.rows == table.num_rows
                assert stats.is_unique

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        try:
            _hammer(reader, threads=4)
        finally:
            stop.set()
            writer_thread.join(timeout=30)
        assert not errors


class TestBarMemoHammer:
    def test_concurrent_brushes_share_one_memo(self):
        """Reader threads brushing overlapping bars fill and read one
        per-bar memo per statement, over one table and through a join:
        every answer equals the plain path, and the bar counters add up
        (a lost update would break the sum)."""
        from repro import CaptureMode, Database, ExecOptions
        from repro.serve import DatabaseServer

        rng = np.random.default_rng(5)
        n, bars = 4000, 40
        db = Database()
        db.create_table("t", Table({
            "z": rng.integers(0, bars, n),
            "g": rng.integers(0, 25, n),
            "w": rng.random(n),
        }))
        db.sql(
            "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
            options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
        )
        db.create_table("d", Table({
            "g": rng.permutation(np.arange(25) % 20),
            "region": rng.integers(0, 6, 25),
        }))
        stmts = [
            "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) WHERE w >= 0.25 GROUP BY g",
            "SELECT region, COUNT(*) AS c FROM Lb(v, 't', :bars) JOIN d ON t.g = d.g "
            "WHERE w >= 0.25 GROUP BY region",
        ]
        brushes = [rng.integers(0, bars, int(rng.integers(1, 9))) for _ in range(32)]
        plain = ExecOptions(late_materialize=False)
        expected = [
            [db.execute(db.parse(stmt), params={"bars": b}, options=plain).table.to_rows()
             for stmt in stmts]
            for b in brushes
        ]
        requested = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DatabaseServer(db, readers=1, memoize_answers=False) as server:

                def worker(seed):
                    order = np.random.default_rng(seed).permutation(len(brushes))
                    for i in order.tolist():
                        for stmt, want in zip(stmts, expected[i], strict=True):
                            got = server.sql(stmt, params={"bars": brushes[i]})
                            assert got.table.to_rows() == want
                            requested.append(len(set(brushes[i].tolist())))

                _hammer(worker)
                stats = server.stats()["lineage_cache"]
        finally:
            sys.setswitchinterval(interval)
        assert stats["bar_fills"] + stats["bar_reuses"] == sum(requested)
        assert stats["bar_fills"] >= len(stmts) * len({b for br in brushes for b in br.tolist()})

    def test_snapshots_across_a_refresh_share_one_memo(self):
        """Readers on snapshots from both sides of a refresh that swapped
        an unread column and re-registered the view with bit-equal
        lineage race to re-stamp one memo entry back and forth: every
        answer is right and no bar is filled again."""
        from repro import CaptureMode, Database, ExecOptions
        from repro.serve import DatabaseServer

        rng = np.random.default_rng(7)
        n, bars = 4000, 40
        view = ("SELECT z, COUNT(*) AS c FROM t GROUP BY z",
                ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True))
        db = Database()
        db.create_table("t", Table({
            "z": rng.integers(0, bars, n),
            "g": rng.integers(0, 25, n),
            "u": rng.random(n),
        }))
        db.sql(view[0], options=view[1])
        stmt = "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY g"
        brushes = [rng.integers(0, bars, int(rng.integers(1, 9))) for _ in range(16)]
        plain = ExecOptions(late_materialize=False)
        expected = [
            db.execute(db.parse(stmt), params={"bars": b}, options=plain).table.to_rows()
            for b in brushes
        ]

        def refresh(d):
            columns = d.table("t").columns()
            columns["u"] = columns["u"] + 1.0
            d.create_table("t", Table(columns), replace=True, preserve_rids=True)
            d.sql(view[0], options=view[1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DatabaseServer(db, readers=1, memoize_answers=False) as server:
                for b in brushes:  # fill every bar before the refresh
                    server.sql(stmt, params={"bars": b})
                snapshots = [server.snapshot()]
                fills = server.stats()["lineage_cache"]["bar_fills"]
                server.write(refresh)
                snapshots.append(server.snapshot())

                def worker(seed):
                    snapshot = snapshots[seed % 2]
                    order = np.random.default_rng(seed).permutation(len(brushes))
                    for i in order.tolist():
                        got = server.sql(stmt, params={"bars": brushes[i]}, snapshot=snapshot)
                        assert got.table.to_rows() == expected[i]

                _hammer(worker)
                stats = server.stats()["lineage_cache"]
        finally:
            sys.setswitchinterval(interval)
        assert stats["bar_fills"] == fills
        assert stats["revalidated"] >= 1

    def test_concurrent_fills_grow_one_key_dictionary(self):
        """Threads released together brush disjoint bars, each bar holding
        keys no other bar holds, so every fill grows the statement's key
        dictionary with keys it has not seen: every answer equals a
        fresh single-threaded database's, and each dictionary holds every
        distinct key exactly once."""
        from repro import CaptureMode, Database, ExecOptions
        from repro.serve import DatabaseServer

        rng = np.random.default_rng(13)
        n, bars = 6000, 8 * THREADS
        z = rng.integers(0, bars, n)
        columns = {
            "z": z,
            "g": z * 100 + rng.integers(0, 30, n),
            "s": np.array(
                [f"s{b}.{i}" for b, i in zip(z, rng.integers(0, 5, n), strict=True)], dtype=object
            ),
            "w": rng.random(n),
        }
        stmts = [
            "SELECT g, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY g",
            "SELECT s, COUNT(*) AS c FROM Lb(v, 't', :bars) WHERE w >= 0.25 GROUP BY s",
            "SELECT DISTINCT s, g FROM Lb(v, 't', :bars)",
        ]

        def database():
            db = Database()
            db.create_table("t", Table(columns))
            db.sql(
                "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
                options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
            )
            return db

        # Thread i owns bars i, i + THREADS, ...: single bars, then pairs
        # of its own bars, the second of each pair filled fresh.
        brushes = []
        for i in range(THREADS):
            own = rng.permutation(np.arange(i, bars, THREADS)).tolist()
            pairs = zip(own[::2], own[1::2], strict=True)
            brushes.append([[b] for b in own[::2]] + [list(p) for p in pairs])
        reference = database()
        expected = [
            [[reference.sql(stmt, params={"bars": b}).table.to_rows() for stmt in stmts]
             for b in mine]
            for mine in brushes
        ]
        db = database()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DatabaseServer(db, readers=1, memoize_answers=False) as server:

                def worker(seed):
                    for b, want in zip(brushes[seed], expected[seed], strict=True):
                        for stmt, rows in zip(stmts, want, strict=True):
                            assert server.sql(stmt, params={"bars": b}).table.to_rows() == rows

                _hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        memos = [memo for _, memo in db.lineage_cache._entries.values()]
        assert len(memos) == len(stmts)
        assert sorted(len(memo.bars) for memo in memos) == [bars] * len(stmts)
        distinct = {
            frozenset(columns["g"].tolist()),
            frozenset(columns["s"][columns["w"] >= 0.25].tolist()),
            frozenset(zip(columns["s"].tolist(), columns["g"].tolist(), strict=True)),
        }
        for memo in memos:
            keys = list(zip(*(k.tolist() for k in memo.keys), strict=True))
            if len(memo.keys) == 1:
                keys = [k for (k,) in keys]
            assert len(keys) == memo.num_codes == len(set(keys))
            assert frozenset(keys) in distinct
