"""Crash recovery for the result registry.

:class:`DurabilityManager` is the orchestration layer between
:class:`~repro.api.ResultRegistry` and the byte-level modules
(:mod:`repro.lineage.wal`, :mod:`repro.lineage.persist`):

* **Logging** — the registry calls ``log_register`` / ``log_drop`` /
  ``log_pin`` *before* mutating memory (and after its byte budget
  admitted the mutation); each logs one fsynced WAL record, so every
  acknowledged operation survives a crash.
* **Recovery** — :meth:`DurabilityManager.recover_into` (what
  ``Database.open`` runs) loads the latest checkpoint, truncates a torn
  WAL tail, replays the remaining records in order, and leaves the
  registry serving every acknowledged registration — same lineage
  answers, same epochs, stale-rid guards intact — without recapture.
  Replay never refuses a record for the byte budget.
* **Checkpointing** — :meth:`DurabilityManager.checkpoint` snapshots
  the registry atomically and resets the WAL; the snapshot records the
  WAL watermark it covers, so a crash between the two steps replays
  idempotently.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from ..errors import DurabilityError, RecoveryError
from .capture import CaptureMode
from .persist import (
    capture_mode_value,
    pack_query_result,
    read_checkpoint,
    unpack_query_result,
    write_checkpoint,
)
from .wal import (
    CHECKPOINT_BEFORE_WAL_RESET,
    Failpoints,
    WriteAheadLog,
    durable_truncate,
    read_log,
)

#: WAL record kinds (one per acknowledged registry mutation).
KIND_REGISTER = "register"
KIND_DROP = "drop"
KIND_PIN = "pin"

#: On-disk names inside a durable directory.
WAL_FILENAME = "registry.wal"
CHECKPOINT_FILENAME = "checkpoint.npz"


def _recovered_result(database, table, lineage, statement=None, capture=None):
    """A :class:`~repro.api.QueryResult` reconstructed from durable
    state: no plan (it was not re-executed), synthetic empty timings."""
    from ..api import ExecOptions, QueryResult
    from ..exec.vector.executor import ExecResult

    options = ExecOptions(
        capture=CaptureMode(capture) if capture is not None else None
    )
    return QueryResult(
        database,
        None,
        ExecResult(table=table, lineage=lineage),
        statement=statement,
        options=options,
    )


@dataclass
class RecoveryReport:
    """What :meth:`DurabilityManager.recover_into` found and did."""

    checkpoint_loaded: bool = False
    records_replayed: int = 0
    torn_bytes_truncated: int = 0
    entries: int = 0
    skipped: int = field(default=0)  #: records at/below the checkpoint watermark


class DurabilityManager:
    """Owns one durable directory (WAL + checkpoint) for a database.

    Logging is suspended while replaying — recovery re-applies recorded
    operations through the normal registry mutators without re-logging
    them — and before the WAL is opened, so a half-recovered registry
    can never log.
    """

    def __init__(self, directory, failpoints: Optional[Failpoints] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.failpoints = failpoints if failpoints is not None else Failpoints()
        self.wal_path = self.directory / WAL_FILENAME
        self.checkpoint_path = self.directory / CHECKPOINT_FILENAME
        self._wal: Optional[WriteAheadLog] = None
        self._suspended = 0
        self.last_recovery: Optional[RecoveryReport] = None

    # -- logging (called by the registry BEFORE it mutates) -----------------

    def _wal_for_logging(self) -> Optional[WriteAheadLog]:
        """The WAL to log to, ``None`` while replay re-applies recorded
        operations (they are already on disk).  A *closed* manager
        raises instead: silently skipping the log would acknowledge a
        mutation that cannot survive a crash."""
        if self._suspended:
            return None
        if self._wal is None:
            raise DurabilityError(
                "durability manager is closed; re-open the database "
                "before mutating the registry"
            )
        return self._wal

    def log_register(self, name: str, result, pin: bool) -> None:
        wal = self._wal_for_logging()
        if wal is None:
            return
        arrays: dict = {}
        meta = {
            "name": name,
            "pin": bool(pin),
            "statement": getattr(result, "statement", None),
            "capture": capture_mode_value(getattr(result, "options", None)),
            "result": pack_query_result(result, "", arrays),
        }
        wal.append(KIND_REGISTER, meta, arrays)

    def log_drop(self, name: str) -> None:
        wal = self._wal_for_logging()
        if wal is not None:
            wal.append(KIND_DROP, {"name": name})

    def log_pin(self, name: str, pin: bool) -> None:
        wal = self._wal_for_logging()
        if wal is not None:
            wal.append(KIND_PIN, {"name": name, "pin": bool(pin)})

    @contextmanager
    def _suspend_logging(self) -> Iterator[None]:
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def group_commit(self):
        """Batch WAL appends under one fsync (see
        :meth:`~repro.lineage.wal.WriteAheadLog.group_commit`).

        The serving layer's writer thread wraps each drained batch of
        queued write operations in one of these blocks, so a burst of
        registrations pays a single fsync; records are acknowledged to
        the submitting callers only after the block exits."""
        if self._wal is None:
            raise DurabilityError("durability manager is closed")
        return self._wal.group_commit()

    # -- recovery -----------------------------------------------------------

    def recover_into(self, database) -> RecoveryReport:
        """Load checkpoint + WAL tail into ``database``'s registry and
        open the WAL for appending.  See the module docstring for the
        torn-tail / watermark semantics."""
        registry = database._results
        report = RecoveryReport()
        watermark = 0
        with self._suspend_logging():
            if self.checkpoint_path.exists():
                state = read_checkpoint(self.checkpoint_path)
                database.catalog.restore_epochs(state.catalog_epochs)
                registry.restore_epochs(state.registry_epochs)
                for entry in state.entries:
                    result = _recovered_result(
                        database,
                        entry["table"],
                        entry["lineage"],
                        statement=entry["statement"],
                        capture=entry["capture"],
                    )
                    registry.restore_entry(
                        entry["name"], result, pin=entry["pin"]
                    )
                watermark = state.wal_seqno
                report.checkpoint_loaded = True
            scan = read_log(self.wal_path)
            if scan.torn:
                report.torn_bytes_truncated = scan.total_length - scan.valid_length
                durable_truncate(self.wal_path, scan.valid_length)
            for record in scan.records:
                if record.seqno <= watermark:
                    report.skipped += 1
                    continue
                self._apply(database, registry, record)
                report.records_replayed += 1
            next_seqno = max(
                [watermark] + [r.seqno for r in scan.records]
            ) + 1
        self._wal = WriteAheadLog(
            self.wal_path, failpoints=self.failpoints, next_seqno=next_seqno
        )
        report.entries = len(registry)
        self.last_recovery = report
        return report

    def _apply(self, database, registry, record) -> None:
        meta = record.meta
        if record.kind == KIND_REGISTER:
            table, lineage = unpack_query_result(meta["result"], record.arrays)
            result = _recovered_result(
                database,
                table,
                lineage,
                statement=meta.get("statement"),
                capture=meta.get("capture"),
            )
            registry.register(
                meta["name"],
                result,
                pin=bool(meta.get("pin", False)),
                replay=True,
            )
        elif record.kind == KIND_DROP:
            if meta["name"] in registry:
                registry.drop(meta["name"])
        elif record.kind == KIND_PIN:
            if meta["name"] in registry:
                registry.set_pin(meta["name"], bool(meta["pin"]), replay=True)
        else:
            raise RecoveryError(
                f"WAL record {record.seqno} has unknown kind {record.kind!r}"
            )

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self, database) -> None:
        """Snapshot the registry atomically, then reset the WAL."""
        if self._wal is None:
            raise DurabilityError("durability manager is closed")
        registry = database._results
        entries = [
            (name, result, name in registry._pinned)
            for name, result in registry._entries.items()
        ]
        write_checkpoint(
            self.checkpoint_path,
            entries=entries,
            registry_epochs=registry.epochs_snapshot(),
            catalog_epochs=database.catalog.epochs_snapshot(),
            wal_seqno=self._wal.last_seqno,
            failpoints=self.failpoints,
        )
        self.failpoints.hit(CHECKPOINT_BEFORE_WAL_RESET)
        self._wal.reset()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None
