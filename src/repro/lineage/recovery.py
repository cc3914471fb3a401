"""Crash recovery and graceful degradation for the result registry.

:class:`DurabilityManager` is the orchestration layer between
:class:`~repro.api.ResultRegistry` and the byte-level modules
(:mod:`repro.lineage.wal`, :mod:`repro.lineage.persist`):

* **Logging** — the registry calls ``log_register`` / ``log_drop`` /
  ``log_pin`` / ``log_evict`` *before* mutating memory; each logs one
  fsynced WAL record, so every acknowledged operation survives a crash.
* **Recovery** — :meth:`DurabilityManager.recover_into` (what
  ``Database.open`` runs) loads the latest checkpoint, truncates a torn
  WAL tail, replays the remaining records in order, and leaves the
  registry serving every acknowledged registration — same lineage
  answers, same epochs, stale-rid guards intact — without recapture.
* **Checkpointing** — :meth:`DurabilityManager.checkpoint` snapshots
  the registry atomically and resets the WAL; the snapshot records the
  WAL watermark it covers, so a crash between the two steps replays
  idempotently.

Graceful degradation rides the same machinery: when the LRU byte budget
evicts a result, an :class:`EvictedStub` (name, statement, capture
options) stays behind — durably, via a WAL ``evict`` record — and the
next ``Lb``/``Lf`` touching the name re-executes the statement through
the prepared-statement layer (:func:`reexecute_stub`), bounded by a
:class:`RefreshPolicy` retry/backoff budget and raising the typed
:class:`~repro.errors.RecoveryError` when the budget runs out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from ..errors import (
    DurabilityError,
    InjectedFault,
    RecoveryError,
    ReproError,
)
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
KIND_EVICT = "evict"

#: On-disk names inside a durable directory.
WAL_FILENAME = "registry.wal"
CHECKPOINT_FILENAME = "checkpoint.npz"


@dataclass(frozen=True)
class RefreshPolicy:
    """Retry/backoff budget for re-executing an evicted result's
    statement (the refresh policy left open since PR 1)."""

    max_attempts: int = 3
    backoff_seconds: float = 0.01
    multiplier: float = 2.0


@dataclass
class EvictedStub:
    """What remains of a result evicted by the registry bounds.

    ``statement``/``capture`` survive a restart (they are what WAL
    ``evict`` records and checkpoints carry); ``plan``/``options`` are
    the richer in-process handles used when the eviction and the
    re-execution happen in the same process.
    """

    name: str
    statement: Optional[str] = None
    pin: bool = False
    capture: Optional[str] = None
    plan: object = None
    options: object = None


def stub_meta(stub: EvictedStub) -> dict:
    """The durable (JSON-able) projection of a stub."""
    return {
        "name": stub.name,
        "statement": stub.statement,
        "pin": bool(stub.pin),
        "capture": stub.capture,
    }


def stub_from_meta(meta: dict) -> EvictedStub:
    return EvictedStub(
        name=meta["name"],
        statement=meta.get("statement"),
        pin=bool(meta.get("pin", False)),
        capture=meta.get("capture"),
    )


def stub_for(name: str, result) -> Optional[EvictedStub]:
    """Build an eviction stub for a live entry, or ``None`` when the
    entry cannot be re-executed (registered from a raw plan with no
    statement and executed elsewhere)."""
    statement = getattr(result, "statement", None)
    plan = getattr(result, "plan", None)
    if statement is None and plan is None:
        return None
    options = getattr(result, "options", None)
    return EvictedStub(
        name=name,
        statement=statement,
        plan=plan,
        options=options,
        capture=capture_mode_value(options),
    )


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


def reexecute_stub(database, stub: EvictedStub, policy: RefreshPolicy) -> None:
    """Re-register an evicted result by re-running its statement.

    Runs through the prepared-statement machinery with the original
    registration options (name, pin, capture mode), retrying up to
    ``policy.max_attempts`` times with exponential backoff.  Raises
    :class:`RecoveryError` when the statement is gone, parameterized, or
    keeps failing.  An :class:`InjectedFault` (simulated crash) is never
    retried — the harness must observe it.
    """
    from ..api import ExecOptions

    target = stub.statement if stub.statement is not None else stub.plan
    if target is None:
        raise RecoveryError(
            f"evicted result {stub.name!r} kept no statement or plan; "
            "it cannot be re-executed"
        )
    options = stub.options
    if options is None:
        capture = CaptureMode(stub.capture) if stub.capture is not None else None
        options = ExecOptions(capture=capture)
    options = options.with_(name=stub.name, pin=bool(stub.pin))
    last_error: Optional[ReproError] = None
    delay = policy.backoff_seconds
    for attempt in range(max(1, policy.max_attempts)):
        if attempt and delay > 0:
            time.sleep(delay)
            delay *= policy.multiplier
        try:
            prepared = database.prepare(target, options=options)
            if prepared.param_names:
                raise RecoveryError(
                    f"evicted result {stub.name!r} was registered from a "
                    f"parameterized statement ({sorted(prepared.param_names)}); "
                    "it cannot be re-executed without its parameters"
                )
            prepared.run({})
            return
        except InjectedFault:
            raise
        except RecoveryError:
            raise
        except ReproError as exc:
            last_error = exc
    raise RecoveryError(
        f"re-execution of evicted result {stub.name!r} failed after "
        f"{policy.max_attempts} attempt(s): {last_error}"
    ) from last_error


@dataclass
class RecoveryReport:
    """What :meth:`DurabilityManager.recover_into` found and did."""

    checkpoint_loaded: bool = False
    records_replayed: int = 0
    torn_bytes_truncated: int = 0
    entries: int = 0
    stubs: int = 0
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

    @property
    def logging_enabled(self) -> bool:
        return self._wal is not None and self._suspended == 0

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

    def log_evict(self, stub: EvictedStub) -> None:
        wal = self._wal_for_logging()
        if wal is not None:
            wal.append(KIND_EVICT, stub_meta(stub))

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
                for meta in state.stubs:
                    registry.apply_evict(meta["name"], stub_from_meta(meta))
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
            # Re-apply the (possibly different) live bounds.
            registry._evict()
        self._wal = WriteAheadLog(
            self.wal_path, failpoints=self.failpoints, next_seqno=next_seqno
        )
        report.entries = len(registry._entries)
        report.stubs = len(registry._stubs)
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
                meta["name"], result, pin=bool(meta.get("pin", False))
            )
        elif record.kind == KIND_DROP:
            name = meta["name"]
            if name in registry._entries or name in registry._stubs:
                registry.drop(name)
        elif record.kind == KIND_PIN:
            name = meta["name"]
            if name in registry._entries or name in registry._stubs:
                registry.set_pin(name, bool(meta["pin"]))
        elif record.kind == KIND_EVICT:
            registry.apply_evict(meta["name"], stub_from_meta(meta))
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
        stubs = [stub_meta(stub) for stub in registry._stubs.values()]
        write_checkpoint(
            self.checkpoint_path,
            entries=entries,
            stubs=stubs,
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
