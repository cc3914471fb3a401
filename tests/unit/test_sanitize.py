"""Runtime-sanitizer unit tests (``repro.sanitize``, REPRO_SANITIZE=1).

The debug mode has three jobs: freeze handed-out arrays, validate
captured lineage structures on construction, and bounds/epoch-check rid
resolutions.  Each is exercised here with :func:`repro.sanitize.force`
so the tests are deterministic regardless of the environment.
"""

import numpy as np
import pytest

from repro import CaptureMode, Database, ExecOptions, sanitize
from repro.errors import ReproError, SanitizeError
from repro.lineage.indexes import RidArray, RidIndex
from repro.storage.table import Table


class TestEnabledAndForce:
    def test_force_overrides_environment(self):
        with sanitize.force(True):
            assert sanitize.enabled()
        with sanitize.force(False):
            assert not sanitize.enabled()

    def test_force_nests_and_restores(self):
        with sanitize.force(True):
            with sanitize.force(False):
                assert not sanitize.enabled()
            assert sanitize.enabled()

    def test_falsy_env_values(self, monkeypatch):
        for value in ("", "0", "false", "no", "off", "False", " OFF "):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()

    def test_sanitize_error_is_repro_error(self):
        assert issubclass(SanitizeError, ReproError)


class TestFreeze:
    def test_freeze_makes_array_read_only(self):
        arr = np.arange(4, dtype=np.int64)
        with sanitize.force(True):
            sanitize.freeze(arr)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 7

    def test_freeze_noop_when_disabled(self):
        arr = np.arange(4, dtype=np.int64)
        with sanitize.force(False):
            sanitize.freeze(arr)
        assert arr.flags.writeable

    def test_freeze_tolerates_unowned_views(self):
        base = np.arange(8, dtype=np.int64)
        base.setflags(write=False)
        view = base[2:4]
        with sanitize.force(True):
            sanitize.freeze(view)  # must not raise


class TestStructureChecks:
    def test_rid_array_rejects_below_no_match(self):
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                sanitize.check_rid_array(np.array([0, -2], dtype=np.int64))

    def test_rid_array_rejects_wrong_dtype(self):
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                sanitize.check_rid_array(np.array([0, 1], dtype=np.int32))

    def test_rid_array_accepts_no_match(self):
        with sanitize.force(True):
            sanitize.check_rid_array(np.array([-1, 0, 3], dtype=np.int64))

    def test_csr_rejects_nonmonotone_indptr(self):
        offsets = np.array([0, 3, 2], dtype=np.int64)
        values = np.array([0, 1, 0], dtype=np.int64)
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                sanitize.check_csr(offsets, values)

    def test_csr_rejects_indptr_not_starting_at_zero(self):
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                sanitize.check_csr(
                    np.array([1, 2], dtype=np.int64), np.array([0], dtype=np.int64)
                )

    def test_csr_rejects_length_mismatch(self):
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                sanitize.check_csr(
                    np.array([0, 2], dtype=np.int64), np.array([0], dtype=np.int64)
                )

    def test_csr_rejects_negative_index(self):
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                sanitize.check_csr(
                    np.array([0, 1], dtype=np.int64), np.array([-1], dtype=np.int64)
                )

    def test_checks_noop_when_disabled(self):
        with sanitize.force(False):
            sanitize.check_rid_array(np.array([-5], dtype=np.int32))
            sanitize.check_csr(
                np.array([3, 1], dtype=np.int64), np.array([-1], dtype=np.int64)
            )
            sanitize.check_rid_bounds(np.array([99], dtype=np.int64), 5, "off")
            sanitize.check_epoch(1, 2, "t", "off")


class TestBoundsAndEpoch:
    def test_bounds_allow_no_match(self):
        with sanitize.force(True):
            sanitize.check_rid_bounds(np.array([-1, 0, 4], dtype=np.int64), 5, "Lf")

    def test_bounds_reject_overflow(self):
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                sanitize.check_rid_bounds(np.array([5], dtype=np.int64), 5, "Lb")

    def test_bounds_reject_below_no_match(self):
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                sanitize.check_rid_bounds(np.array([-2], dtype=np.int64), 5, "Lb")

    def test_epoch_mismatch_raises(self):
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                sanitize.check_epoch(1, 2, "lineitem", "Lb")

    def test_epoch_none_is_legacy_capture(self):
        with sanitize.force(True):
            sanitize.check_epoch(None, 7, "lineitem", "Lb")


class TestConstructionHooks:
    def test_rid_array_frozen_on_construction(self):
        with sanitize.force(True):
            arr = RidArray(np.arange(4, dtype=np.int64))
        assert not arr.values.flags.writeable

    def test_rid_array_validated_on_construction(self):
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                RidArray(np.array([0, -3], dtype=np.int64))

    def test_rid_index_validated_on_construction(self):
        # The end-offset/length mismatch is caught unconditionally by the
        # constructor guard; a non-monotone *interior* indptr is only
        # caught by the sanitizer.
        with sanitize.force(True):
            with pytest.raises(SanitizeError):
                RidIndex(
                    np.array([0, 2, 1, 2], dtype=np.int64),
                    np.array([0, 1], dtype=np.int64),
                )

    def test_rid_index_frozen_on_construction(self):
        with sanitize.force(True):
            idx = RidIndex(
                np.array([0, 1, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64)
            )
        assert not idx.offsets.flags.writeable
        assert not idx.values.flags.writeable

    def test_disabled_mode_leaves_arrays_writeable(self):
        with sanitize.force(False):
            arr = RidArray(np.arange(4, dtype=np.int64))
        assert arr.values.flags.writeable


def _tiny_db():
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "k": np.array([1, 2, 3, 4], dtype=np.int64),
                "v": np.array([10, 20, 30, 40], dtype=np.int64),
            }
        ),
    )
    return db


class TestRegistryFreeze:
    def test_registered_result_columns_are_frozen(self):
        db = _tiny_db()
        with sanitize.force(True):
            res = db.sql(
                "SELECT k, v FROM t WHERE v > 15",
                options=ExecOptions(capture=CaptureMode.INJECT, name="view"),
            )
            for values in res.table.columns().values():
                assert not values.flags.writeable

    def test_registered_table_columns_are_frozen(self):
        # The per-bar memo keys a base column by its array object, so an
        # in-place write to a registered column must raise.
        with sanitize.force(True):
            db = _tiny_db()
            column = db.table("t").column("v")
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 99
            unchanged = db.table("t").columns()
            unchanged["k"] = unchanged["k"] + 1  # a new array: allowed
            db.create_table("t", Table(unchanged), replace=True, preserve_rids=True)
            assert db.table("t").column("v") is column
            with pytest.raises(ValueError, match="read-only"):
                db.table("t").column("k")[0] = 0
        assert db.table("t").column("v").tolist() == [10, 20, 30, 40]

    def test_capture_pipeline_runs_under_sanitizer(self):
        # End-to-end smoke check: capture + backward resolution with every
        # construction hook armed.
        db = _tiny_db()
        with sanitize.force(True):
            res = db.sql(
                "SELECT k, v FROM t WHERE v > 15",
                options=ExecOptions(capture=CaptureMode.INJECT, name="view"),
            )
            rids = res.lineage.backward(0, "t")
            assert rids.tolist() == [1]
