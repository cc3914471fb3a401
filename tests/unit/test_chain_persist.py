"""Consuming-query chains with re-rooted lineage, and index persistence."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.errors import LineageError
from repro.lineage.capture import CaptureMode
from repro.lineage.chain import SUBSET_RELATION, execute_over_lineage
from repro.lineage.persist import load_lineage, save_lineage
from repro.plan.logical import AggCall, GroupBy, Scan, Select, col

INJECT = ExecOptions(capture=CaptureMode.INJECT)


@pytest.fixture
def overview(small_db):
    plan = GroupBy(
        Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]
    )
    return small_db.execute(plan, options=INJECT)


def _drill_plan():
    """Drill into a bar by coarse buckets of v."""
    from repro.expr.ast import Func

    return GroupBy(
        Scan(SUBSET_RELATION),
        [(Func("floor", [col("v") / 25]), "bucket")],
        [AggCall("count", None, "c"), AggCall("sum", col("v"), "s")],
    )


class TestChains:
    def test_chained_backward_reaches_original_base(self, small_db, overview):
        drill = execute_over_lineage(
            small_db, overview, [0], "zipf", _drill_plan()
        )
        zipf = small_db.table("zipf")
        z0 = overview.table.column("z")[0]
        for out in range(len(drill.table)):
            rids = drill.backward([out], "zipf")
            assert (zipf.column("z")[rids] == z0).all()
            bucket = drill.table.column("bucket")[out]
            assert (np.floor(zipf.column("v")[rids] / 25) == bucket).all()
            assert rids.size == drill.table.column("c")[out]

    def test_chained_forward_from_original_base(self, small_db, overview):
        drill = execute_over_lineage(
            small_db, overview, [0], "zipf", _drill_plan()
        )
        subset_rids = overview.backward([0], "zipf")
        rid = int(subset_rids[0])
        out = drill.forward("zipf", [rid])
        assert out.size == 1
        zipf = small_db.table("zipf")
        assert drill.table.column("bucket")[out[0]] == np.floor(
            zipf.column("v")[rid] / 25
        )

    def test_rows_outside_subset_have_no_forward_image(self, small_db, overview):
        drill = execute_over_lineage(
            small_db, overview, [0], "zipf", _drill_plan()
        )
        subset = set(overview.backward([0], "zipf").tolist())
        outside = next(r for r in range(2000) if r not in subset)
        assert drill.forward("zipf", [outside]).size == 0

    def test_two_level_chain(self, small_db, overview):
        drill = execute_over_lineage(
            small_db, overview, [0], "zipf", _drill_plan()
        )
        deeper = execute_over_lineage(
            small_db,
            drill,
            [0],
            "zipf",
            GroupBy(
                Scan(SUBSET_RELATION), [], [AggCall("count", None, "c")]
            ),
        )
        # the single global group counts exactly the drill bar's rows
        assert deeper.table.column("c")[0] == drill.table.column("c")[0]
        rids = deeper.backward([0], "zipf")
        assert rids.size == drill.backward([0], "zipf").size

    def test_uncaptured_parent_rejected(self, small_db):
        plan = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
        res = small_db.execute(plan)
        with pytest.raises(LineageError):
            execute_over_lineage(small_db, res, [0], "zipf", _drill_plan())

    def test_direct_base_scan_in_chain_rejected(self, small_db, overview):
        bad = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
        with pytest.raises(LineageError, match="collide"):
            execute_over_lineage(small_db, overview, [0], "zipf", bad)


class TestPersistence:
    def test_roundtrip(self, small_db, overview, tmp_path):
        path = str(tmp_path / "lineage.npz")
        save_lineage(overview.lineage, path)
        restored = load_lineage(path)
        assert restored.output_size == len(overview.table)
        assert restored.relations == overview.lineage.relations
        for o in range(len(overview.table)):
            assert np.array_equal(
                restored.backward([o], "zipf"), overview.backward([o], "zipf")
            )
        assert np.array_equal(
            restored.forward("zipf", [5]), overview.forward("zipf", [5])
        )

    def test_deferred_entries_finalized_on_save(self, small_db, tmp_path):
        plan = GroupBy(
            Select(Scan("zipf"), col("v") < 60.0),
            [(col("z"), "z")],
            [AggCall("count", None, "c")],
        )
        res = small_db.execute(plan, options=ExecOptions(capture=CaptureMode.DEFER))
        path = str(tmp_path / "deferred.npz")
        save_lineage(res.lineage, path)
        restored = load_lineage(path)
        assert np.array_equal(
            restored.backward([0], "zipf"), res.backward([0], "zipf")
        )

    def test_aliases_survive(self, small_db, tmp_path):
        from repro.plan.logical import HashJoin

        plan = HashJoin(Scan("zipf"), Scan("zipf"), ("z",), ("z",))
        res = small_db.execute(plan, options=INJECT)
        path = str(tmp_path / "selfjoin.npz")
        save_lineage(res.lineage, path)
        restored = load_lineage(path)
        with pytest.raises(LineageError, match="multiple"):
            restored.backward([0], "zipf")
        assert restored.backward([0], "zipf#0").size == 1

    def test_base_epochs_survive(self, small_db, overview, tmp_path):
        # Regression: the original loader silently dropped base_epochs,
        # so a restored handle could be applied to a replaced base table
        # without tripping the stale-rid guard.
        path = str(tmp_path / "epochs.npz")
        lineage = overview.lineage
        lineage.finalize()
        assert lineage.base_epoch("zipf") is not None
        save_lineage(lineage, path)
        restored = load_lineage(path)
        assert restored.base_epoch("zipf") == lineage.base_epoch("zipf")

    def test_save_is_atomic(self, small_db, overview, tmp_path, monkeypatch):
        # A crash mid-save must leave either the old archive or the new
        # one, never a truncated file: save_lineage writes a temp file
        # and promotes it with os.replace.
        from repro.lineage import wal as wal_mod

        path = tmp_path / "atomic.npz"
        save_lineage(overview.lineage, str(path))
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(wal_mod.os, "replace", broken_replace)
        with pytest.raises(OSError):
            save_lineage(overview.lineage, str(path))
        assert path.read_bytes() == before  # old archive intact

    def test_corrupt_archive_raises_recovery_error(self, tmp_path):
        from repro.errors import RecoveryError

        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(RecoveryError):
            load_lineage(str(path))
