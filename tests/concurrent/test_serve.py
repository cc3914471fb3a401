"""Serving-layer contracts: snapshot isolation, writer serialization,
group-committed durability, and reader/writer interleaving stress."""

import threading

import numpy as np
import pytest

from repro import (
    CaptureMode,
    Database,
    ExecOptions,
    ServingError,
    Table,
)
from repro.errors import SqlError

BRUSH = "SELECT z, SUM(w) AS s FROM Lb(v, 't', :bars) GROUP BY z"
REGISTER = "SELECT z, SUM(w) AS s FROM t GROUP BY z"


def _make_db(**kwargs):
    db = Database(**kwargs)
    db.create_table(
        "t",
        Table({
            "z": np.array([0, 0, 1, 1, 2], dtype=np.int64),
            "w": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }),
    )
    db.sql(
        REGISTER,
        options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
    )
    return db


def _bump_w(db, delta):
    t = db.table("t")
    w = t.column("w").copy()
    w += delta
    db.create_table(
        "t",
        Table({"z": t.column("z"), "w": w}),
        replace=True,
        preserve_rids=True,
    )


class TestSnapshotIsolation:
    def test_snapshot_does_not_see_later_writes(self):
        db = _make_db()
        with db.serve(readers=2) as server:
            old = server.snapshot()
            before = server.sql(BRUSH, params={"bars": [0]}, snapshot=old)
            server.write(lambda d: _bump_w(d, 100.0))
            after = server.sql(BRUSH, params={"bars": [0]})
            pinned = server.sql(BRUSH, params={"bars": [0]}, snapshot=old)
            assert before.table.column("s")[0] == 3.0
            assert pinned.table.column("s")[0] == 3.0
            assert after.table.column("s")[0] == 203.0

    def test_versions_count_applied_operations(self):
        db = _make_db()
        with db.serve(readers=1) as server:
            base = server.snapshot().version
            for _ in range(3):
                server.write(lambda d: _bump_w(d, 1.0))
            assert server.snapshot().version == base + 3

    def test_snapshot_reads_are_read_only(self):
        db = _make_db()
        with db.serve(readers=1) as server:
            with pytest.raises(ServingError, match="read-only"):
                server.sql(
                    REGISTER,
                    options=ExecOptions(name="v2"),
                )
            with pytest.raises(ServingError, match="read-only"):
                db.snapshot().sql(REGISTER, options=ExecOptions(name="v2"))

    def test_registration_goes_through_write_path(self):
        db = _make_db()
        with db.serve(readers=1) as server:
            server.sql_write(
                "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
                options=ExecOptions(capture=CaptureMode.INJECT, name="v2"),
            )
            res = server.sql(
                "SELECT z FROM Lf('t', v2, :rids)", params={"rids": [0]}
            )
            assert res.table.num_rows >= 1

    def test_snapshot_hides_evicted_stubs(self):
        db = Database(max_results=1, refresh_evicted=True)
        db.create_table(
            "t", Table({"z": np.array([0, 1], dtype=np.int64)})
        )
        opts = ExecOptions(capture=CaptureMode.INJECT)
        db.sql("SELECT z FROM t", options=opts.with_(name="first"))
        db.sql("SELECT z FROM t", options=opts.with_(name="second"))
        assert "first" in db.results()  # live registry refreshes the stub
        snap = db.snapshot()
        assert "first" not in snap.results  # snapshot readers cannot write
        with pytest.raises(SqlError, match="unknown result"):
            snap.sql("SELECT z FROM Lb(first, 't', :bars)", params={"bars": [0]})

    def test_answer_memo_shares_results_within_a_snapshot(self):
        db = _make_db()
        with db.serve(readers=2) as server:
            first = server.sql(BRUSH, params={"bars": [0]})
            second = server.sql(BRUSH, params={"bars": [0]})
            assert first is second
            server.write(lambda d: _bump_w(d, 1.0))
            third = server.sql(BRUSH, params={"bars": [0]})
            assert third is not first

    def test_prepared_plans_rebind_on_schema_drift(self):
        db = _make_db()
        with db.serve(readers=1) as server:
            assert server.sql(BRUSH, params={"bars": [0]}).table.num_rows == 1

            def reregister(d):
                d.sql(
                    "SELECT z, SUM(w) AS s, COUNT(*) AS c FROM t GROUP BY z",
                    options=ExecOptions(
                        capture=CaptureMode.INJECT, name="v", pin=True
                    ),
                )

            server.write(reregister)
            res = server.sql(BRUSH, params={"bars": [0]})
            assert res.table.column("s")[0] == 3.0


class TestWriter:
    def test_writes_apply_in_submission_order(self):
        db = _make_db()
        applied = []
        with db.serve(readers=1) as server:
            futures = [
                server.submit_write(lambda d, i=i: applied.append(i))
                for i in range(20)
            ]
            for future in futures:
                future.result()
        assert applied == list(range(20))

    def test_write_error_propagates_without_stalling(self):
        db = _make_db()
        with db.serve(readers=1) as server:
            bad = server.submit_write(lambda d: d.table("missing"))
            good = server.submit_write(lambda d: 42)
            with pytest.raises(Exception, match="missing"):
                bad.result()
            assert good.result() == 42

    def test_submit_after_close_raises(self):
        db = _make_db()
        server = db.serve(readers=1)
        server.close()
        server.close()  # idempotent
        with pytest.raises(ServingError, match="closed"):
            server.submit_write(lambda d: None)
        with pytest.raises(ServingError, match="closed"):
            server.submit_query(BRUSH, params={"bars": [0]})

    def test_burst_of_registrations_pays_one_fsync(self, tmp_path, monkeypatch):
        from repro.lineage import wal as wal_module

        db = Database.open(tmp_path / "db")
        db.create_table(
            "t", Table({"z": np.array([0, 1], dtype=np.int64)})
        )
        result = db.sql(
            "SELECT z FROM t",
            options=ExecOptions(capture=CaptureMode.INJECT),
        )
        fsyncs = []
        real_fsync = wal_module.os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            return real_fsync(fd)

        with db.serve(readers=1) as server:
            gate = threading.Event()
            started = threading.Event()

            def block(_db):
                started.set()
                gate.wait(timeout=10)

            blocker = server.submit_write(block)
            assert started.wait(timeout=10)
            # Enqueued while the writer is busy: drained as one batch.
            futures = [
                server.submit_write(
                    lambda d, i=i: d.register_result(f"r{i}", result)
                )
                for i in range(5)
            ]
            monkeypatch.setattr(wal_module.os, "fsync", counting_fsync)
            gate.set()
            for future in futures:
                future.result()
            monkeypatch.setattr(wal_module.os, "fsync", real_fsync)
            blocker.result()
        assert len(fsyncs) == 1, "5 registrations should group-commit once"
        db.close()

    def test_acknowledged_writes_survive_reopen(self, tmp_path):
        db = Database.open(tmp_path / "db")
        db.create_table("t", Table({"z": np.array([0, 1], dtype=np.int64)}))
        with db.serve(readers=1) as server:
            server.sql_write(
                "SELECT z FROM t",
                options=ExecOptions(capture=CaptureMode.INJECT, name="kept"),
            )
        db.close()
        reopened = Database.open(tmp_path / "db")
        reopened.create_table("t", Table({"z": np.array([0, 1], dtype=np.int64)}))
        assert "kept" in reopened.results()
        reopened.close()


class TestInterleavingStress:
    """Readers hammering brushes while the writer replaces the base table
    (epoch bump) and re-registers the view in one operation.  A torn
    snapshot would pair a new-epoch table with the old view and raise
    the stale-epoch PlanError; a stale cache would return a sum from the
    wrong version."""

    ROUNDS = 30
    READERS = 4

    def test_no_reader_ever_observes_a_torn_state(self):
        rng = np.random.default_rng(11)
        n = 400
        z = rng.integers(0, 4, n)
        db = Database()
        db.create_table(
            "t", Table({"z": z, "w": np.full(n, 0.0)})
        )
        db.sql(
            REGISTER,
            options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
        )
        # Bar b of v is the group at output position b — first-appearance
        # order of z, not sorted order — so map bars to z values first.
        counts = np.bincount(z, minlength=4)
        _, first_seen = np.unique(z, return_index=True)
        bar_to_z = z[np.sort(first_seen)]
        # Version k sets w == k everywhere, so a bar-b brush sums to
        # counts[bar_to_z[b]] * k: any blend of versions is detectable.
        errors = []
        observed = []
        stop = threading.Event()

        with db.serve(readers=self.READERS) as server:
            def reader(seed):
                local_rng = np.random.default_rng(seed)
                while not stop.is_set():
                    bar = int(local_rng.integers(0, 4))
                    try:
                        res = server.sql(BRUSH, params={"bars": [bar]})
                    except Exception as exc:  # any error is a failure
                        errors.append(exc)
                        return
                    s = float(res.table.column("s")[0])
                    c = int(counts[bar_to_z[bar]])
                    observed.append((bar, s))
                    if s % c != 0:
                        errors.append(
                            AssertionError(f"blended sum {s} for bar {bar}")
                        )
                        return

            threads = [
                threading.Thread(target=reader, args=(100 + i,))
                for i in range(self.READERS)
            ]
            for thread in threads:
                thread.start()

            def flip(d, k):
                t = d.table("t")
                d.create_table(
                    "t",
                    Table({"z": t.column("z"), "w": np.full(n, float(k))}),
                    replace=True,
                )
                d.sql(
                    REGISTER,
                    options=ExecOptions(
                        capture=CaptureMode.INJECT, name="v", pin=True
                    ),
                )

            for k in range(1, self.ROUNDS + 1):
                server.write(lambda d, k=k: flip(d, k))
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors[:3]
        assert observed, "readers never completed a brush"


class TestCloseRace:
    """Satellite regression: ``close()`` used to flip the closed flag and
    shut the pools down outside the submit lock, so a concurrent
    ``submit_query``/``submit_write`` could slip between the check and
    the enqueue and surface a bare ``RuntimeError`` from the dead pool
    (or enqueue a write behind the shutdown sentinel, leaving its future
    unresolved forever).  Every racing submit must either succeed or
    raise ``ServingError`` — nothing else, and nothing may hang."""

    ROUNDS = 20
    THREADS = 4

    def test_submit_vs_close_never_raises_bare_runtime_error(self):
        for _ in range(self.ROUNDS):
            db = _make_db()
            server = db.serve(readers=2)
            server.sql(BRUSH, params={"bars": [0]})  # prepare once
            unexpected = []
            futures = []
            start = threading.Barrier(self.THREADS + 1)

            def hammer(slot):
                try:
                    start.wait(timeout=10)
                    for i in range(50):
                        if slot % 2:
                            futures.append(
                                server.submit_query(BRUSH, params={"bars": [0]})
                            )
                        else:
                            futures.append(server.submit_write(lambda d: None))
                except ServingError:
                    return  # the only acceptable refusal
                except BaseException as exc:  # noqa: BLE001 - recorded
                    unexpected.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(slot,))
                for slot in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            start.wait(timeout=10)
            server.close()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive(), "hammer thread hung after close()"
            assert not unexpected, unexpected[:3]
            # Every future accepted before the close must resolve (a
            # write enqueued behind the shutdown sentinel never would).
            for future in futures:
                future.result(timeout=30)


class TestSqlBatch:
    """Multi-brush batching through the serving layer: N bindings of one
    statement answered in one coalesced pass, bit-identical to N
    independent ``sql`` calls — including on every fallback route."""

    COUNT_BRUSH = (
        "SELECT z, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY z"
    )

    def _assert_batch_matches_singles(self, server, stmt, params_list):
        singles = [server.sql(stmt, params=p) for p in params_list]
        batched = server.sql_batch(stmt, params_list)
        assert len(batched) == len(singles)
        for single, batch in zip(singles, batched):
            assert single.table.schema == batch.table.schema
            assert single.table.to_rows() == batch.table.to_rows()

    def test_batched_equals_singles_on_coalesced_path(self):
        db = _make_db()
        params_list = [
            {"bars": np.array([0, 1], dtype=np.int64)},
            {"bars": np.array([1, 2], dtype=np.int64)},
            {"bars": np.array([2], dtype=np.int64)},
            {"bars": np.empty(0, dtype=np.int64)},   # brush-clear
            {"bars": np.array([0, 0, 2], dtype=np.int64)},  # duplicates
        ]
        with db.serve(readers=2) as server:
            self._assert_batch_matches_singles(
                server, self.COUNT_BRUSH, params_list
            )

    def test_batched_equals_singles_on_fallback_statement(self):
        # SUM(w) is not COUNT(*)-only, so the batch path must fall back
        # to per-binding execution and still agree.
        db = _make_db()
        params_list = [{"bars": [0]}, {"bars": [1, 2]}]
        with db.serve(readers=2) as server:
            self._assert_batch_matches_singles(server, BRUSH, params_list)

    def test_disagreeing_shared_params_fall_back(self):
        db = _make_db()
        stmt = (
            "SELECT z, COUNT(*) AS c FROM Lb(v, 't', :bars) "
            "WHERE w >= :cut GROUP BY z"
        )
        params_list = [
            {"bars": [0, 1], "cut": 1.0},
            {"bars": [0, 1], "cut": 4.0},  # same bars, different cut
        ]
        with db.serve(readers=2) as server:
            self._assert_batch_matches_singles(server, stmt, params_list)

    def test_single_binding_and_empty_list(self):
        db = _make_db()
        with db.serve(readers=2) as server:
            assert server.sql_batch(self.COUNT_BRUSH, []) == []
            self._assert_batch_matches_singles(
                server, self.COUNT_BRUSH, [{"bars": [1]}]
            )

    def test_missing_param_raises(self):
        from repro.errors import PlanError

        db = _make_db()
        with db.serve(readers=2) as server:
            with pytest.raises(PlanError, match="bars"):
                server.sql_batch(self.COUNT_BRUSH, [{"bars": [0]}, {}])

    def test_missing_param_raises_on_every_server_path(self):
        """``server.sql``, the coalesced batch and the per-binding batch
        fallback (SUM is not batchable) share one missing-parameter
        check and raise before executing."""
        from repro.errors import PlanError

        db = _make_db()
        with db.serve(readers=2) as server:
            with pytest.raises(PlanError, match=r"missing parameter.*\['bars'\]"):
                server.sql(self.COUNT_BRUSH)
            for stmt in (self.COUNT_BRUSH, BRUSH):
                with pytest.raises(PlanError, match="missing parameter"):
                    server.sql_batch(stmt, [{}, {}])

    def test_batch_respects_pinned_snapshot(self):
        db = _make_db()
        with db.serve(readers=2) as server:
            snap = server.snapshot()
            before = server.sql_batch(
                self.COUNT_BRUSH, [{"bars": [0]}, {"bars": [1]}],
                snapshot=snap,
            )
            server.write(lambda d: _bump_w(d, 50.0))
            after = server.sql_batch(
                self.COUNT_BRUSH, [{"bars": [0]}, {"bars": [1]}],
                snapshot=snap,
            )
            for b, a in zip(before, after):
                assert b.table.to_rows() == a.table.to_rows()
