"""Serving-layer contracts: snapshot isolation, writer serialization,
group-committed durability, reader/writer interleaving stress, and the
one statement memo and rid cache a database owns for every front."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CaptureMode,
    Database,
    ExecOptions,
    RegistryFullError,
    ServingError,
    Table,
)
from repro.api import StatementMemo, normalize_statement
from repro.lineage.cache import LineageResolutionCache
from repro.serve import DatabaseServer

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

    def test_snapshot_state_has_no_mutators(self):
        db = _make_db()
        snap = db.snapshot()
        assert not hasattr(snap.catalog, "register")
        assert not hasattr(snap.catalog, "drop")
        with pytest.raises(TypeError):
            snap.results["x"] = db.result("v")
        db.drop_table("t")
        assert "t" in snap.catalog and sorted(snap.results) == ["v"]

    def test_registering_read_raises_even_when_the_answer_is_memoized(self):
        db = _make_db()
        named = ExecOptions(name="x")
        with db.serve(readers=1) as server:
            server.sql("SELECT z FROM t")  # memoizes the unnamed answer
            with pytest.raises(ServingError, match="read-only"):
                server.sql("SELECT z FROM t", options=named)
            with pytest.raises(ServingError, match="read-only"):
                server.sql_batch("SELECT z FROM t", [{}, {}], options=named)
        assert "x" not in db.results()

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

    def test_refused_registration_leaves_the_snapshot_serving(self):
        db = _make_db(max_result_bytes=1)  # v is pinned: exempt
        with db.serve(readers=1) as server:
            before = server.sql(BRUSH, params={"bars": [0]})
            with pytest.raises(RegistryFullError, match="'v2'"):
                server.sql_write(
                    REGISTER,
                    options=ExecOptions(capture=CaptureMode.INJECT, name="v2"),
                )
            snap = server.snapshot()
            assert sorted(snap.results) == ["v"]
            after = server.sql(BRUSH, params={"bars": [0]}, snapshot=snap)
            assert after.table.to_rows() == before.table.to_rows()
        assert db.results() == ["v"]

    def test_answer_memo_shares_results_within_a_snapshot(self):
        db = _make_db()
        with db.serve(readers=2) as server:
            first = server.sql(BRUSH, params={"bars": [0]})
            second = server.sql(BRUSH, params={"bars": [0]})
            assert first is second
            server.write(lambda d: _bump_w(d, 1.0))
            third = server.sql(BRUSH, params={"bars": [0]})
            assert third is not first

    def test_old_snapshot_stats_never_describe_a_preserve_rids_replacement(self):
        # preserve_rids keeps d's epoch; a reader still on the old
        # snapshot reads the old d's key stats (unique) after the
        # replace, and the live join must not trust them for the new d
        # (duplicate keys) and pick the pk-fk probe.
        db = Database()
        db.create_table("f", Table({
            "g": np.array([0, 0, 1, 1], dtype=np.int64),
            "k": np.array([0, 0, 2, 2], dtype=np.int64),
        }))
        db.create_table("d", Table({
            "k": np.array([0, 1, 2, 3], dtype=np.int64),
            "y": np.array([5, 6, 7, 8], dtype=np.int64),
        }))
        db.sql(
            "SELECT g, COUNT(*) AS c FROM f GROUP BY g",
            options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
        )
        stmt = (
            "SELECT d.y, COUNT(*) AS c FROM Lb(v, 'f', :bars) "
            "JOIN d ON f.k = d.k GROUP BY d.y"
        )
        duplicate_keys = Table({
            "k": np.array([0, 0, 2, 2], dtype=np.int64),
            "y": np.array([5, 6, 7, 8], dtype=np.int64),
        })
        with db.serve(readers=1) as server:
            old = server.snapshot()
            server.sql(stmt, params={"bars": [0, 1]}, snapshot=old)
            server.write(lambda d: d.create_table(
                "d", duplicate_keys, replace=True, preserve_rids=True
            ))
            server.sql(stmt, params={"bars": [0]}, snapshot=old)
            live = server.sql(stmt, params={"bars": [0, 1]})
        assert live.table.to_rows() == [(5, 2), (6, 2), (7, 2), (8, 2)]

    def _pinned_reader_after_drop(self, run):
        """Run ``run(server, statement, snapshot)`` for a statement the
        server has never seen, on a snapshot pinned before ``v`` was
        dropped; the answer must equal the snapshot's own one-shot read."""
        stmt = "SELECT z, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY z"
        db = _make_db()
        with db.serve(readers=1) as server:
            old = server.snapshot()
            server.write(lambda d: d.drop_result("v"))
            expected = old.sql(stmt, params={"bars": [0]}).table.to_rows()
            assert run(server, stmt, old) == expected

    def test_pinned_reader_binds_an_unseen_statement_against_its_snapshot(self):
        self._pinned_reader_after_drop(
            lambda server, stmt, snap: server.sql(
                stmt, params={"bars": [0]}, snapshot=snap
            ).table.to_rows()
        )

    def test_pinned_batch_binds_an_unseen_statement_against_its_snapshot(self):
        def run(server, stmt, snap):
            first, second = server.sql_batch(
                stmt, [{"bars": [0]}, {"bars": [1]}], snapshot=snap
            )
            assert second.table.to_rows() == snap.sql(
                stmt, params={"bars": [1]}
            ).table.to_rows()
            return first.table.to_rows()

        self._pinned_reader_after_drop(run)

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


def _assert_batch_route(server, stmt, params_list, route):
    """``sql_batch`` equals the per-binding ``sql`` loop in schema, rows,
    column dtypes and order, and took ``route`` ("coalesced" or
    "fallback") exactly once."""
    before = server.stats()
    singles = [server.sql(stmt, params=p) for p in params_list]
    batched = server.sql_batch(stmt, params_list)
    after = server.stats()
    assert len(batched) == len(singles)
    for single, batch in zip(singles, batched, strict=True):
        assert single.table.schema == batch.table.schema
        assert single.table.to_rows() == batch.table.to_rows()
        for name in single.table.schema.names:
            assert single.table.column(name).dtype == batch.table.column(name).dtype
    taken = {
        r: after[f"batch_{r}"] - before[f"batch_{r}"]
        for r in ("coalesced", "fallback")
    }
    assert taken == {r: int(r == route) for r in taken}, taken


class TestSqlBatch:
    """Multi-brush batching through the serving layer: N bindings of one
    statement answered in one coalesced pass, bit-identical to N
    independent ``sql`` calls — including on every fallback route."""

    COUNT_BRUSH = (
        "SELECT z, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY z"
    )

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
            _assert_batch_route(
                server, self.COUNT_BRUSH, params_list, "coalesced"
            )

    def test_batched_equals_singles_on_fallback_statement(self):
        # SUM(w) is not COUNT(*)-only, so the batch path must fall back
        # to per-binding execution and still agree.
        db = _make_db()
        params_list = [{"bars": [0]}, {"bars": [1, 2]}]
        with db.serve(readers=2) as server:
            _assert_batch_route(server, BRUSH, params_list, "fallback")

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
            _assert_batch_route(server, stmt, params_list, "fallback")

    def test_shared_params_equal_in_value_but_not_type_fall_back(self):
        """Bindings share a batch only when they key one per-bar memo
        (``param_fingerprint``, by type and value): ``1`` and ``1.0``
        compare equal but take the per-binding route."""
        db = _make_db()
        stmt = (
            "SELECT z, COUNT(*) AS c FROM Lb(v, 't', :bars) "
            "WHERE w >= :cut GROUP BY z"
        )
        with db.serve(readers=2) as server:
            for cuts, route in (((1, 1.0), "fallback"), ((1.0, 1.0), "coalesced")):
                params_list = [
                    {"bars": [0, 1], "cut": cuts[0]},
                    {"bars": [1, 2], "cut": cuts[1]},
                ]
                _assert_batch_route(server, stmt, params_list, route)

    def test_single_binding_and_empty_list(self):
        db = _make_db()
        with db.serve(readers=2) as server:
            assert server.sql_batch(self.COUNT_BRUSH, []) == []
            _assert_batch_route(
                server, self.COUNT_BRUSH, [{"bars": [1]}], "fallback"
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

    def test_batch_keys_come_from_each_bindings_own_first_rid(self):
        # -0.0 == 0.0 groups together; the key value shown is the one at
        # the binding's first rid of the group, exactly as `sql` shows it.
        db = Database()
        db.create_table("t", Table({
            "g": np.array([1, 1, 0, 0, 1, 0], dtype=np.int64),
            "k": np.array([-0.0, 2.0, 0.0, 3.0, 0.0, 5.0]),
        }))
        db.sql(
            "SELECT g, COUNT(*) AS c FROM t GROUP BY g",
            options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
        )
        stmt = "SELECT k, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY k"
        params_list = [{"bars": [0]}, {"bars": [1]}]
        plain = ExecOptions(late_materialize=False)
        with db.serve(readers=1) as server:
            _assert_batch_route(server, stmt, params_list, "coalesced")
            batched = server.sql_batch(stmt, params_list)
            expected = [server.sql(stmt, params=p, options=plain) for p in params_list]
        for want, batch in zip(expected, batched, strict=True):
            keys = want.table.column("k")
            assert np.array_equal(np.signbit(keys), np.signbit(batch.table.column("k")))
        assert np.signbit(batched[0].table.column("k")).tolist() == [True, False]
        assert np.signbit(batched[1].table.column("k")).tolist() == [False, False, False]

    @staticmethod
    def _make_chain_db():
        db = _make_db()
        db.create_table("d1", Table({
            "z": np.array([2, 0, 1, 0], dtype=np.int64),
            "g": np.array([1, 0, 1, 2], dtype=np.int64),
        }))
        db.create_table("d2", Table({
            "g": np.array([2, 1, 0], dtype=np.int64),
            "h": np.array(["x", "y", "x"], dtype=object),
        }))
        return db

    def test_chain_statement_coalesces(self):
        # The memo's lineage leaf sits under a two-hop chain: the batch
        # still coalesces, and each binding equals its own `sql` and the
        # materialized plan.
        db = self._make_chain_db()
        stmt = (
            "SELECT h, COUNT(*) AS c FROM Lb(v, 't', :bars) JOIN d1 ON t.z = d1.z "
            "JOIN d2 ON d1.g = d2.g WHERE w >= :cut GROUP BY h"
        )
        params_list = [
            {"bars": [2, 0], "cut": 2.0},
            {"bars": [1, 2, 1], "cut": 2.0},
            {"bars": [], "cut": 2.0},
        ]
        plain = ExecOptions(late_materialize=False)
        with db.serve(readers=1) as server:
            _assert_batch_route(server, stmt, params_list, "coalesced")
            batched = server.sql_batch(stmt, params_list)
            for params, batch in zip(params_list, batched, strict=True):
                want = server.sql(stmt, params=params, options=plain).table
                assert batch.table.schema == want.schema
                assert batch.table.to_rows() == want.to_rows()

    def test_coalesced_counters_match_sql(self):
        # A coalesced result reports the same pushed counters as a
        # per-binding `sql` run answered from the same per-bar memo.
        db = self._make_chain_db()
        stmt = (
            "SELECT DISTINCT h FROM Lb(v, 't', :bars) JOIN d1 ON t.z = d1.z "
            "JOIN d2 ON d1.g = d2.g"
        )
        keys = [
            f"late_mat_{k}" for k in ("subtrees", "joins", "distincts", "chain_hops")
        ]
        with db.serve(readers=1) as server:
            server.sql(stmt, params={"bars": [0, 1]})  # fills both bars
            single = server.sql(stmt, params={"bars": [1, 0]})
            assert {k: single.timings.get(k) for k in keys} == dict.fromkeys(keys, 1.0)
            before = server.stats()["batch_coalesced"]
            batched = server.sql_batch(stmt, [{"bars": [0]}, {"bars": [0, 1]}])
            assert server.stats()["batch_coalesced"] == before + 1
            for result in batched:
                assert {k: result.timings.get(k) for k in keys} == dict.fromkeys(keys, 1.0)

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
            for b, a in zip(before, after, strict=True):
                assert b.table.to_rows() == a.table.to_rows()


#: Bars of the two property views: ``v`` groups ``t`` by ``z`` (its
#: backward index is a partition), ``vj`` groups an m:n join of ``t`` and
#: ``s`` by ``s.y`` (a ``t`` row reaches several ``y`` bars, so it is not).
_V_BARS = 6
_VJ_BARS = 3
_SELECT_LISTS = (
    "g, COUNT(*) AS c",
    "COUNT(*) AS c, g",  # reordering bag projection
    "COUNT(*) AS c",  # key-dropping bag projection
)


@pytest.fixture(scope="module")
def batch_server():
    rng = np.random.default_rng(26)
    n = 60
    # The first rows cover every z so v's bars are 0.._V_BARS-1.
    z = np.concatenate([np.arange(_V_BARS), rng.integers(0, _V_BARS, n - _V_BARS)])
    db = Database()
    db.create_table(
        "t",
        Table({
            "z": z.astype(np.int64),
            "g": np.array(["a", "b", "c", "d"], dtype=object)[rng.integers(0, 4, n)],
            "w": np.round(rng.random(n), 2),
            "k": rng.integers(0, 3, n),
        }),
    )
    db.create_table(
        "s",
        Table({
            "k": np.array([0, 0, 1, 2, 2], dtype=np.int64),
            "y": np.array([0, 1, 2, 0, 2], dtype=np.int64),
        }),
    )
    inject = ExecOptions(capture=CaptureMode.INJECT, pin=True)
    db.sql("SELECT z, COUNT(*) AS c FROM t GROUP BY z", options=inject.with_(name="v"))
    db.sql(
        "SELECT s.y, COUNT(*) AS c FROM t JOIN s ON t.k = s.k GROUP BY s.y",
        options=inject.with_(name="vj"),
    )
    assert db.result("v").lineage.backward_index("t").is_partitioned()
    assert not db.result("vj").lineage.backward_index("t").is_partitioned()
    assert len(db.result("vj")) == _VJ_BARS
    with DatabaseServer(db, readers=1, memoize_answers=False) as server:
        yield server


@st.composite
def _batch_cases(draw):
    """A random batch: view, statement shape and per-user bar lists.
    The small bar domains make duplicates, unsorted bars, empty brushes
    and overlap between users common."""
    view = draw(st.sampled_from(["v", "vj"]))
    n_bars = _V_BARS if view == "v" else _VJ_BARS
    users = draw(
        st.lists(
            st.lists(st.integers(0, n_bars - 1), max_size=8),
            min_size=1, max_size=6,
        )
    )
    where = draw(st.booleans())
    stmt = (
        f"SELECT {draw(st.sampled_from(_SELECT_LISTS))} "
        f"FROM Lb({view}, 't', :bars)"
        + (" WHERE w >= :cut" if where else "")
        + " GROUP BY g"
    )
    shared = {"cut": draw(st.sampled_from([0.0, 0.5, 0.95, 1.5]))} if where else {}
    params_list = [{"bars": bars, **shared} for bars in users]
    coalesces = view == "v" and len(users) >= 2
    return stmt, params_list, "coalesced" if coalesces else "fallback"


class TestSqlBatchProperty:
    """Every ``sql_batch`` route equals the per-binding ``sql`` loop,
    and :meth:`DatabaseServer.stats` names the route taken: the per-bar
    pass for two or more bindings over a partitioned view, the loop for a
    single binding or a non-partitioned (m:n join) view."""

    @settings(deadline=None)
    @given(case=_batch_cases())
    def test_batch_equals_per_binding_sql(self, batch_server, case):
        stmt, params_list, route = case
        _assert_batch_route(batch_server, stmt, params_list, route)

    def test_distinct_bars_beyond_cache_capacity(self):
        # More distinct bars than the server's rid cache holds: every
        # bar's set is used straight from its resolution, so evictions
        # during the batch cannot lose one.
        n = 2600
        rng = np.random.default_rng(3)
        db = Database()
        db.create_table(
            "big",
            Table({"id": np.arange(n), "g": rng.integers(0, 5, n)}),
        )
        db.sql(
            "SELECT id, COUNT(*) AS c FROM big GROUP BY id",
            options=ExecOptions(capture=CaptureMode.INJECT, name="vb", pin=True),
        )
        stmt = "SELECT g, COUNT(*) AS c FROM Lb(vb, 'big', :bars) GROUP BY g"
        params_list = [
            {"bars": np.arange(0, 1400)},
            {"bars": np.arange(2599, 999, -1)},
            {"bars": rng.integers(0, n, 300)},
        ]
        with DatabaseServer(db, readers=1, memoize_answers=False) as server:
            capacity = LineageResolutionCache.MAX_ENTRIES
            assert n > capacity
            _assert_batch_route(server, stmt, params_list, "coalesced")
            assert server.stats()["lineage_cache"]["entries"] <= capacity


@pytest.fixture(params=["database", "session", "server"])
def front(request):
    """One read front over a fresh database: ``sql`` runs a statement,
    ``memo`` is the database's statement memo, which every front reads
    through, ``write`` applies a mutation (through the writer thread for
    the server)."""
    db = _make_db()
    if request.param == "server":
        with db.serve(readers=1) as server:
            yield SimpleNamespace(sql=server.sql, memo=db._statements, write=server.write)
    else:
        sql = db.sql if request.param == "database" else db.session().sql
        yield SimpleNamespace(sql=sql, memo=db._statements, write=lambda fn: fn(db))


class _Miss(Exception):
    pass


def _memo_entry(memo, statement):
    """The memoized entry for ``statement``, or ``None`` on a miss (the
    bind step raises, so a miss installs nothing)."""

    def miss():
        raise _Miss

    try:
        return memo.get(normalize_statement(statement), miss)
    except _Miss:
        return None


class TestStatementMemo:
    """The one statement memo behind ``Database.sql``, ``Session.sql``
    and ``DatabaseServer.sql``."""

    def test_distinct_statement_past_the_bound_evicts_least_recently_used(self, front):
        bound = StatementMemo.MAX_STATEMENTS
        texts = [f"SELECT z FROM t WHERE z = {i}" for i in range(bound + 1)]
        for text in texts[:bound]:
            front.sql(text)
        front.sql(texts[0])  # texts[1] is now the least recently used
        front.sql(texts[bound])
        assert len(front.memo) == bound
        assert _memo_entry(front.memo, texts[0]) is not None
        assert _memo_entry(front.memo, texts[bound]) is not None
        assert _memo_entry(front.memo, texts[1]) is None

    def test_stale_binding_rebind_replaces_the_entry(self, front):
        stmt = "SELECT * FROM Lf('t', v, :rows)"
        assert len(front.sql(stmt, params={"rows": [0]})) == 1
        first = _memo_entry(front.memo, stmt)
        front.write(lambda d: d.sql(
            "SELECT z FROM t",
            options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
        ))
        entries = len(front.memo)
        assert len(front.sql(stmt, params={"rows": [0]})) == 1
        second = _memo_entry(front.memo, stmt)
        assert second is not first
        assert len(front.memo) == entries  # replaced, not added
        assert front.memo.replace(normalize_statement(stmt), second, first) is first
        assert _memo_entry(front.memo, stmt) is first

    def test_same_schema_table_replacement_rebinds(self, front):
        """The binder reads data (unique build keys bind the join as
        pk-fk), so replacing a scanned table under the same schema must
        re-bind, not run the stale pk-fk plan."""
        stmt = "SELECT u.k, t.w FROM u JOIN t ON u.k = t.z"
        front.write(lambda d: d.create_table("u", Table({"k": np.array([0, 1])})))
        assert len(front.sql(stmt)) == 4
        first = _memo_entry(front.memo, stmt)
        dup = Table({"k": np.array([0, 0, 2])})
        front.write(lambda d: d.create_table("u", dup, replace=True))
        rows = sorted(front.sql(stmt).table.to_rows())
        assert rows == [(0, 1.0), (0, 1.0), (0, 2.0), (0, 2.0), (2, 5.0)]
        assert _memo_entry(front.memo, stmt) is not first

    def test_layout_and_keyword_case_variants_share_one_server_entry(self):
        db = _make_db()
        variants = [
            BRUSH,
            "select z, sum(w) as s\n  from lb(v, 't', :bars)  group by z",
            "  Select z,  SUM(w) As s FROM LB(v, 't', :bars) Group  By z ",
        ]
        entries = len(db._statements)
        with db.serve(readers=1) as server:
            snap = server.snapshot()
            answers = [
                server.sql(text, params={"bars": [0]}, snapshot=snap)
                for text in variants
            ]
            assert server.stats()["prepared"] == entries + 1
            # One answer-memo entry: every variant got the same result.
            assert all(answer is answers[0] for answer in answers)
            assert len(snap.answers) == 1


def _db_registered_by_plan():
    """``_make_db`` without a memo entry: the view registers from a raw
    plan, so the statement memo starts empty."""
    db = Database()
    db.create_table("t", _make_db().table("t"))
    db.execute(
        db.parse(REGISTER),
        options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
    )
    assert len(db._statements) == 0
    return db


class TestOneOwner:
    """The database owns the one statement memo and the one rid cache;
    ``Session`` adds only default options, and raw plans run uncached."""

    def test_session_statement_is_the_entry_database_and_server_hit(self):
        db = _db_registered_by_plan()
        db.session().sql(BRUSH, params={"bars": [0]})
        entry = _memo_entry(db._statements, BRUSH)
        assert entry is not None
        db.sql(BRUSH, params={"bars": [1]})
        with db.serve(readers=1) as server:
            server.sql(BRUSH, params={"bars": [2]})
            assert server.stats()["prepared"] == 1
        assert _memo_entry(db._statements, BRUSH) is entry

    @pytest.mark.parametrize("capturing_first", [True, False])
    def test_sessions_share_an_entry_under_their_own_options(self, capturing_first):
        db = _db_registered_by_plan()
        capturing = db.session(options=ExecOptions(capture=CaptureMode.INJECT))
        plain = db.session()
        order = (capturing, plain) if capturing_first else (plain, capturing)
        runs = {session: session.sql(BRUSH, params={"bars": [0]}) for session in order}
        assert len(db._statements) == 1  # whichever session bound it
        assert runs[capturing].lineage is not None
        assert runs[plain].lineage is None
        assert runs[capturing].table.to_rows() == runs[plain].table.to_rows()

    def test_raw_plans_run_uncached(self):
        db = _db_registered_by_plan()
        params = {"bars": [0, 1]}
        plan = db.parse(BRUSH)
        capture = ExecOptions(capture=CaptureMode.INJECT)
        for options in (None, capture):
            db.execute(plan, params=params, options=options)
            db.session(options=options).execute(plan, params=params)
            db.snapshot().sql(BRUSH, params=params, options=options)
        assert len(db.lineage_cache) == 0
        assert db.lineage_cache.stats()["misses"] == 0
