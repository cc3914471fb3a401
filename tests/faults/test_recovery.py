"""Clean-restart recovery: replay, checkpoints, epochs, byte budget."""

import json

import numpy as np
import pytest

from harness import (
    assert_answers_identical,
    make_base_table,
    open_db,
    register_view,
    snapshot_answers,
    view_statement,
)
from repro.api import Database, ExecOptions
from repro.errors import PlanError, RecoveryError, RegistryFullError
from repro.lineage import persist
from repro.lineage.capture import CaptureMode
from repro.lineage.wal import WriteAheadLog


class TestReopen:
    def test_registered_views_answer_bit_identically(self, durable_dir):
        db = open_db(durable_dir)
        answers = {}
        for i, name in enumerate(["va", "vb", "vc"]):
            result = register_view(db, name, cut=i + 2)
            answers[name] = snapshot_answers(result)
        db.close()

        db2 = open_db(durable_dir)
        assert db2.results() == ["va", "vb", "vc"]
        for name, snap in answers.items():
            assert_answers_identical(db2.result(name), snap)
        db2.close()

    def test_lineage_consuming_sql_works_after_restart(self, durable_dir):
        db = open_db(durable_dir)
        register_view(db, "prev")
        before = db.sql("SELECT z, v FROM Lb(prev, 't')").table.to_rows()
        db.close()

        db2 = open_db(durable_dir)
        assert db2.sql("SELECT z, v FROM Lb(prev, 't')").table.to_rows() == before
        db2.close()

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_keyword_named_result_reopens(self, durable_dir, checkpoint):
        """A result name is any string: one spelled like a keyword is
        logged (and checkpointed), recovered, and consumed as quoted SQL."""
        stmt = "SELECT z, v FROM Lb(\"order\", 't')"
        db = open_db(durable_dir)
        snap = snapshot_answers(register_view(db, "order"))
        before = db.sql(stmt).table.to_rows()
        if checkpoint:
            db.checkpoint()
        db.close()

        db2 = open_db(durable_dir)
        assert db2.results() == ["order"]
        assert db2.durability.last_recovery.checkpoint_loaded is checkpoint
        assert_answers_identical(db2.result("order"), snap)
        assert db2.sql(stmt).table.to_rows() == before
        db2.close()

    def test_drop_and_reregister_survive(self, durable_dir):
        db = open_db(durable_dir)
        register_view(db, "va", cut=2)
        register_view(db, "vb", cut=3)
        db.drop_result("va")
        second = register_view(db, "vb", cut=5)  # re-register: epoch 2
        snap = snapshot_answers(second)
        db.close()

        db2 = open_db(durable_dir)
        assert db2.results() == ["vb"]
        assert_answers_identical(db2.result("vb"), snap)
        assert db2._results.epoch("vb") == 2
        assert db2._results.epoch("va") == 1  # history survives too
        db2.close()

    def test_checkpoint_bounds_replay_and_preserves_answers(self, durable_dir):
        db = open_db(durable_dir)
        snap_a = snapshot_answers(register_view(db, "va", cut=2))
        db.checkpoint()
        snap_b = snapshot_answers(register_view(db, "vb", cut=4))
        db.close()

        db2 = open_db(durable_dir)
        report = db2.durability.last_recovery
        assert report.checkpoint_loaded
        assert report.records_replayed == 1  # only vb is in the WAL tail
        assert_answers_identical(db2.result("va"), snap_a)
        assert_answers_identical(db2.result("vb"), snap_b)
        db2.close()

    def test_pin_changes_survive(self, durable_dir):
        db = open_db(durable_dir)
        register_view(db, "va", pin=True)
        register_view(db, "vb")
        db.pin_result("vb", True)
        db.pin_result("va", False)
        db.close()

        db2 = open_db(durable_dir)
        assert "vb" in db2._results._pinned
        assert "va" not in db2._results._pinned
        db2.close()

    def test_unchanged_pins_are_not_logged(self, durable_dir):
        db = open_db(durable_dir)
        register_view(db, "va")
        register_view(db, "vb", pin=True)
        wal_path = db.durability.wal_path
        size = wal_path.stat().st_size
        db.pin_result("va", False)
        db.pin_result("va", False)
        db.pin_result("vb", True)
        assert wal_path.stat().st_size == size
        with pytest.raises(PlanError, match="unknown result"):
            db.pin_result("nope", True)
        db.close()

        db2 = open_db(durable_dir)
        assert db2.durability.last_recovery.records_replayed == 2
        assert db2.durability.wal_path.stat().st_size == size
        db2.pin_result("va", True)  # a real change is still logged
        assert db2.durability.wal_path.stat().st_size > size
        db2.close()

        db3 = open_db(durable_dir)
        assert db3.durability.last_recovery.records_replayed == 3
        assert db3._results._pinned == {"va", "vb"}
        db3.close()

    def test_stale_rid_guard_survives_restart(self, durable_dir):
        db = open_db(durable_dir)
        register_view(db, "prev")
        db.close()

        db2 = open_db(durable_dir)
        db2.create_table("t", make_base_table(), replace=True)  # epoch 1
        with pytest.raises(PlanError, match="replaced since"):
            db2.sql("SELECT z, v FROM Lb(prev, 't')")
        db2.close()

    def test_catalog_epochs_restored_from_checkpoint(self, durable_dir):
        db = open_db(durable_dir)
        db.create_table("t", make_base_table(), replace=True)  # epoch 1
        register_view(db, "prev")
        db.checkpoint()
        db.close()

        db2 = open_db(durable_dir)  # open_db's create_table must not bump
        assert db2.catalog.epoch("t") == 1
        # Captured at epoch 1, live at epoch 1: still served.
        assert len(db2.sql("SELECT z, v FROM Lb(prev, 't')").table)
        db2.close()

    def test_plain_database_refuses_checkpoint(self):
        with pytest.raises(PlanError, match="not durable"):
            Database().checkpoint()


class TestByteBudget:
    """``max_result_bytes`` refuses a registration up front: a refused one
    is never logged, and replay never refuses an acknowledged one."""

    @staticmethod
    def _bytes(db, cut):
        return register_view(db, "probe", cut=cut).lineage.memory_bytes()

    def test_refused_registration_appends_nothing(self, durable_dir):
        probe = Database()
        probe.create_table("t", make_base_table())
        db = open_db(durable_dir, max_result_bytes=self._bytes(probe, cut=2))
        snap = snapshot_answers(register_view(db, "va", cut=2))
        wal_size = db.durability.wal_path.stat().st_size
        with pytest.raises(RegistryFullError):
            register_view(db, "vb", cut=4)
        assert db.durability.wal_path.stat().st_size == wal_size
        assert db.results() == ["va"]
        assert db._results.epoch("vb") == 0
        db.close()

        db2 = open_db(durable_dir)
        assert db2.results() == ["va"]
        assert db2.durability.last_recovery.records_replayed == 1
        assert_answers_identical(db2.result("va"), snap)
        db2.close()

    def test_smaller_budget_on_reopen_recovers_everything(self, durable_dir):
        db = open_db(durable_dir)
        snaps = {"va": snapshot_answers(register_view(db, "va", cut=2))}
        db.checkpoint()  # va comes back through the checkpoint ...
        snaps["vb"] = snapshot_answers(register_view(db, "vb", cut=3))
        snaps["vc"] = snapshot_answers(register_view(db, "vc", cut=4, pin=True))
        db.pin_result("vc", False)  # ... vb, vc and this unpin through the WAL
        db.close()

        db2 = open_db(durable_dir, max_result_bytes=1)
        assert db2.results() == ["va", "vb", "vc"]
        for name, snap in snaps.items():
            assert_answers_identical(db2.result(name), snap)
        with pytest.raises(RegistryFullError):
            register_view(db2, "vd")
        register_view(db2, "vd", pin=True)  # pinned: exempt
        assert db2.results() == ["va", "vb", "vc", "vd"]
        db2.close()


    def test_dropped_result_frees_its_bytes_across_restart(self, durable_dir):
        probe = Database()
        probe.create_table("t", make_base_table())
        budget = self._bytes(probe, cut=4)
        db = open_db(durable_dir, max_result_bytes=budget)
        register_view(db, "va", cut=4)
        with pytest.raises(RegistryFullError):
            register_view(db, "vb", cut=3)
        db.drop_result("va")  # the caller makes room
        snap = snapshot_answers(register_view(db, "vb", cut=3))
        db.close()

        db2 = open_db(durable_dir, max_result_bytes=budget)
        assert db2.results() == ["vb"]
        assert_answers_identical(db2.result("vb"), snap)
        with pytest.raises(RegistryFullError):
            register_view(db2, "va", cut=4)
        db2.close()


class TestLegacyDurableState:
    """State written by builds whose registry evicted results to
    re-executable stubs is refused with a typed error, never dropped."""

    def test_version_1_checkpoint_is_refused(self, durable_dir, monkeypatch):
        db = open_db(durable_dir)
        register_view(db, "va")
        monkeypatch.setattr(persist, "CHECKPOINT_VERSION", 1)
        db.checkpoint()
        db.close()
        monkeypatch.undo()
        with pytest.raises(RecoveryError, match="format version 1"):
            open_db(durable_dir)

    def test_wal_evict_record_is_refused(self, durable_dir):
        db = open_db(durable_dir)
        register_view(db, "va")
        db.close()

        wal = WriteAheadLog(db.durability.wal_path, next_seqno=2)
        wal.append(
            "evict",
            {"name": "va", "statement": view_statement(3), "pin": False,
             "capture": "inject"},
        )
        wal.close()
        with pytest.raises(RecoveryError, match="unknown kind 'evict'"):
            open_db(durable_dir)


class TestCorruptionHandling:
    def test_corrupt_mid_log_raises_typed_error(self, durable_dir):
        db = open_db(durable_dir)
        register_view(db, "va", cut=2)
        register_view(db, "vb", cut=4)
        db.close()

        wal_path = db.durability.wal_path
        data = bytearray(wal_path.read_bytes())
        data[40] ^= 0xFF  # damage the first record, not the tail
        wal_path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError):
            open_db(durable_dir)

    def test_corrupt_checkpoint_raises_typed_error(self, durable_dir):
        db = open_db(durable_dir)
        register_view(db, "va")
        db.checkpoint()
        db.close()
        db.durability.checkpoint_path.write_bytes(b"garbage")
        with pytest.raises(RecoveryError):
            open_db(durable_dir)

    @pytest.mark.parametrize(
        "bad_id",
        [
            257,  # >= output_size (4); as a narrowed uint8 key it wraps to group 1
            -1,  # passes the forward array's NO_MATCH check; wraps to 255
        ],
    )
    def test_damaged_group_ids_behind_inverse_marker(self, durable_dir, bad_id):
        # The backward index of an unfiltered group-by is checkpointed as
        # an ``inverse`` marker and rebuilt from the forward group ids.
        # A damaged id must be caught by the count, before the ids are
        # narrowed for ordering: never a silently wrapped bucket layout.
        db = open_db(durable_dir)
        db.sql(
            "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
            options=ExecOptions(capture=CaptureMode.INJECT, name="va"),
        )
        db.checkpoint()
        db.close()

        path = db.durability.checkpoint_path
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        manifest = json.loads(arrays["__manifest"].tobytes().decode())
        lineage = manifest["entries"][0]["result"]["lineage"]
        assert lineage["output_size"] == 4
        assert lineage["backward"]["t"] == {"kind": "inverse"}
        slot = lineage["forward"]["t"]["slot"] + "_values"
        ids = arrays[slot].copy()
        ids[3] = bad_id
        arrays[slot] = ids
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)

        with pytest.raises(RecoveryError, match="group id"):
            open_db(durable_dir)

    def test_group_commit_batch_recovers_together(self, durable_dir):
        db = open_db(durable_dir)
        with db.durability.group_commit():
            snap_a = snapshot_answers(register_view(db, "va", cut=2))
            snap_b = snapshot_answers(register_view(db, "vb", cut=4))
        db.close()

        db2 = open_db(durable_dir)
        assert_answers_identical(db2.result("va"), snap_a)
        assert_answers_identical(db2.result("vb"), snap_b)
        db2.close()
