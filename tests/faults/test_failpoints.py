"""Deterministic crash matrix: every failpoint, checked outcome.

Each test arms exactly one injection site, drives the operation that
crosses it, observes the simulated crash, then re-opens the directory
and asserts the recovered state matches what the durability contract
promises for that site:

* crash *before* the WAL record is durable → the operation was never
  acknowledged and recovery may drop it;
* crash *after* → the operation must be fully recovered;
* crash inside a checkpoint → the checkpoint is invisible (old state
  wins) and no acknowledged registration is lost either way.
"""

import pytest

from harness import (
    assert_answers_identical,
    open_db,
    register_view,
    snapshot_answers,
)
from repro.errors import InjectedFault
from repro.lineage.wal import (
    CHECKPOINT_BEFORE_RENAME,
    CHECKPOINT_BEFORE_WAL_RESET,
    CHECKPOINT_PARTIAL_WRITE,
    WAL_BEFORE_APPEND,
    WAL_BEFORE_FSYNC,
    WAL_PARTIAL_APPEND,
    Failpoints,
)


def crashed_register(durable_dir, site):
    """Open, register one acknowledged view, arm ``site``, attempt a
    second registration (which crashes), and return the acked snapshot."""
    fp = Failpoints()
    db = open_db(durable_dir, failpoints=fp)
    snap = snapshot_answers(register_view(db, "acked", cut=2))
    fp.arm(site)
    with pytest.raises(InjectedFault):
        register_view(db, "doomed", cut=5)
    assert "doomed" not in db.results()  # never applied in memory either
    db.close()
    return snap


class TestWalSites:
    def test_fail_before_append_loses_only_unacked(self, durable_dir):
        snap = crashed_register(durable_dir, WAL_BEFORE_APPEND)
        db = open_db(durable_dir)
        assert db.results() == ["acked"]
        assert_answers_identical(db.result("acked"), snap)
        assert not db.durability.last_recovery.torn_bytes_truncated
        db.close()

    def test_fail_before_fsync_keeps_acked_identical(self, durable_dir):
        snap = crashed_register(durable_dir, WAL_BEFORE_FSYNC)
        db = open_db(durable_dir)
        # The record reached the OS before the failed fsync, so replay
        # may legitimately recover it — but never at the expense of the
        # acknowledged one.
        assert "acked" in db.results()
        assert_answers_identical(db.result("acked"), snap)
        db.close()

    def test_torn_final_record_is_truncated_not_fatal(self, durable_dir):
        snap = crashed_register(durable_dir, WAL_PARTIAL_APPEND)
        db = open_db(durable_dir)
        report = db.durability.last_recovery
        assert report.torn_bytes_truncated > 0
        assert db.results() == ["acked"]
        assert_answers_identical(db.result("acked"), snap)

        # The truncated log is healthy again: register, restart, verify.
        snap2 = snapshot_answers(register_view(db, "after", cut=6))
        db.close()
        db2 = open_db(durable_dir)
        assert db2.results() == ["acked", "after"]
        assert_answers_identical(db2.result("after"), snap2)
        db2.close()


class TestCheckpointSites:
    def _crashed_checkpoint(self, durable_dir, site):
        fp = Failpoints()
        db = open_db(durable_dir, failpoints=fp)
        snap = snapshot_answers(register_view(db, "acked", cut=2))
        fp.arm(site)
        with pytest.raises(InjectedFault):
            db.checkpoint()
        db.close()
        return snap

    def test_partial_checkpoint_write_is_invisible(self, durable_dir):
        snap = self._crashed_checkpoint(durable_dir, CHECKPOINT_PARTIAL_WRITE)
        db = open_db(durable_dir)
        report = db.durability.last_recovery
        assert not report.checkpoint_loaded  # temp never promoted
        assert report.records_replayed == 1
        assert_answers_identical(db.result("acked"), snap)
        db.close()

    def test_crash_before_rename_is_invisible(self, durable_dir):
        snap = self._crashed_checkpoint(durable_dir, CHECKPOINT_BEFORE_RENAME)
        db = open_db(durable_dir)
        assert not db.durability.last_recovery.checkpoint_loaded
        assert_answers_identical(db.result("acked"), snap)
        db.close()

    def test_crash_between_checkpoint_and_wal_reset(self, durable_dir):
        # The checkpoint landed but the WAL still holds the records it
        # covers: the recorded watermark must keep replay idempotent.
        snap = self._crashed_checkpoint(
            durable_dir, CHECKPOINT_BEFORE_WAL_RESET
        )
        db = open_db(durable_dir)
        report = db.durability.last_recovery
        assert report.checkpoint_loaded
        assert report.records_replayed == 0
        assert report.skipped == 1  # the register is at/below the watermark
        assert db.results() == ["acked"]
        assert_answers_identical(db.result("acked"), snap)
        assert db._results.epoch("acked") == 1  # not double-applied
        db.close()


class TestFailpointPlumbing:
    def test_unknown_site_rejected(self):
        from repro.errors import DurabilityError

        with pytest.raises(DurabilityError, match="unknown failpoint"):
            Failpoints().arm("no.such-site")

    def test_sites_are_one_shot(self, durable_dir):
        fp = Failpoints()
        db = open_db(durable_dir, failpoints=fp)
        fp.arm(WAL_BEFORE_APPEND)
        with pytest.raises(InjectedFault):
            register_view(db, "va")
        # Disarmed after firing: the retry succeeds.
        snap = snapshot_answers(register_view(db, "va"))
        db.close()
        db2 = open_db(durable_dir)
        assert_answers_identical(db2.result("va"), snap)
        db2.close()

    def test_injected_fault_carries_site(self):
        fault = InjectedFault(WAL_BEFORE_FSYNC)
        assert fault.site == WAL_BEFORE_FSYNC
        assert WAL_BEFORE_FSYNC in str(fault)

    def test_closed_database_refuses_registration(self, durable_dir):
        from repro.errors import DurabilityError

        db = open_db(durable_dir)
        register_view(db, "va")
        db.close()
        # A closed WAL must not silently acknowledge unlogged mutations.
        with pytest.raises(DurabilityError, match="closed"):
            register_view(db, "vb")
        db2 = open_db(durable_dir)
        assert db2.results() == ["va"]
        db2.close()

    def test_closed_database_fails_server_writes_and_writer_survives(
        self, durable_dir
    ):
        """A commit barrier that raises on entry fails this batch's
        futures and every later batch's, and the writer thread lives on
        (it used to die and leave every write waiting forever)."""
        from repro.errors import DurabilityError

        db = open_db(durable_dir)
        server = db.serve(readers=1)
        db.close()
        try:
            for _ in range(2):  # this batch and a later one
                future = server.submit_write(lambda d: 42)
                # The timeout only bounds the wait for a dead writer.
                with pytest.raises(DurabilityError, match="closed"):
                    future.result(timeout=10)
                assert server._writer.is_alive()
        finally:
            server.close()
