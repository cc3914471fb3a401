"""``durable``: registration behind a WAL, checkpoints, and recovery.

``Database.open(dir)`` over the 500k-row ontime relation.  An op is one
view registration — execute, capture, WAL append, fsync, acknowledge —
issued in rounds of the four views; one round in four commits its four
records under ``group_commit`` (one fsync), and every 16th round is
followed by a ``checkpoint()`` so the WAL stays bounded and background
work completes several cycles.  Then ``checkpoint()``, ``close()``, and
five times: ``Database.open``, re-create the base table, and verify that
every acknowledged view answers ``backward`` bit-identically to the
arrays taken before the close.

Flush policy: the repo default, fsync on commit.  The fsync and the page
cache are the sandbox's, not a device's.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional

import numpy as np

from brush import view_name, view_options, view_sql
from common import (
    OUT_DIR,
    Config,
    Guard,
    Tally,
    p50,
    replay_ops,
    warmup_ops,
)
from oracle import view_matches

from repro.api import Database
from repro.datagen import VIEW_DIMENSIONS, make_ontime_table
from repro.exec.timings import MORSEL_TASKS
from repro.storage import Table

ROWS = 500_000
SMOKE_ROWS = 20_000
PAYLOAD_COLS = 6
GROUP_COMMIT_EVERY = 4
CHECKPOINT_EVERY = 16
RECOVERIES = 5
#: Timed rounds of one run, a multiple of :data:`GROUP_COMMIT_EVERY`; three
#: in four are ungrouped and give one per-register latency sample each.
ROUNDS = 48
SMOKE_ROUNDS = 8
#: Bars per view whose ``backward`` answer is compared across the restart
#: (besides the all-bars answer).
PROBE_BARS = 16


@dataclass
class Rounds:
    """What the timed rounds of one pass measured, per round."""

    round_ms: List[float] = field(default_factory=list)
    grouped: List[bool] = field(default_factory=list)
    fsyncs: List[int] = field(default_factory=list)
    #: the same round on the in-memory shadow database, when there is one
    shadow_ms: List[float] = field(default_factory=list)
    morsel_tasks: int = 0

    def register_ms(self, first: Optional[int] = None) -> np.ndarray:
        """Per-register latency samples: the ungrouped rounds' totals / 4
        (of the ``first`` timed rounds only, when given)."""
        ungrouped = ~np.array(self.grouped[:first])
        return np.asarray(self.round_ms[:first])[ungrouped] / len(VIEW_DIMENSIONS)


@dataclass
class State:
    db: Database
    directory: Path
    ontime: Table


def directory_bytes(directory: Path) -> int:
    return sum(entry.stat().st_size for entry in directory.iterdir() if entry.is_file())


@contextmanager
def counted_fsync() -> Iterator[List[int]]:
    """Count ``os.fsync`` calls through a wrapper installed for the block."""
    calls = [0]
    real = os.fsync

    def counting(fd):
        calls[0] += 1
        return real(fd)

    os.fsync = counting
    try:
        yield calls
    finally:
        os.fsync = real


def register_round(db: Database, grouped: bool) -> int:
    """Register the four views; returns the morsel tasks the engine ran."""
    def register() -> int:
        return sum(
            int(db.sql(view_sql(d), options=view_options(d)).timings.get(MORSEL_TASKS, 0))
            for d in VIEW_DIMENSIONS
        )

    if grouped:
        with db.durability.group_commit():
            return register()
    return register()


class DurableWorkload:
    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.rows = cfg.size(ROWS, SMOKE_ROWS)
        self.rounds = cfg.size(ROUNDS, SMOKE_ROUNDS)
        self.warm = warmup_ops(self.rounds)
        self.tally = Tally()
        self._setups = 0

    def info(self) -> dict:
        return {"rows": {"ontime": self.rows}, "payload_cols": PAYLOAD_COLS,
                "timed_rounds": self.rounds,
                "flush_policy": "fsync on commit (repo default); one round in "
                f"{GROUP_COMMIT_EVERY} under group_commit",
                "checkpoint_every_rounds": CHECKPOINT_EVERY, "recoveries": RECOVERIES}

    def setup(self, rec) -> State:
        cfg = self.cfg
        self._setups += 1
        directory = OUT_DIR / f"durable-{os.getpid()}-{self._setups}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.parent.mkdir(parents=True, exist_ok=True)
        with rec.span("datagen.ontime"):
            ontime = make_ontime_table(self.rows, seed=cfg.seed, payload_cols=PAYLOAD_COLS)
        db = Database.open(directory)
        with rec.span("storage.create_table"):
            db.create_table("ontime", ontime)
        register_round(db, grouped=False)
        return State(db, directory, ontime)

    def close(self, state: State) -> None:
        state.db.close()
        shutil.rmtree(state.directory, ignore_errors=True)

    # -- the timed rounds -----------------------------------------------------------

    def run_rounds(self, state: State, rec, count: int, fsyncs=None, shadow=None):
        """Registration rounds: the warm-up, then ``count`` timed ones.
        Returns a :class:`Rounds` of the timed ones (with fsyncs per round
        when ``fsyncs`` counts them).  ``shadow`` is an in-memory database
        that registers the same views after every round, so the durable
        tax is a difference of neighbours in time."""
        db = state.db
        warm = self.warm
        guard = Guard(self.cfg.seconds)
        out = Rounds()
        for index in range(warm + count):
            if index == warm:
                guard.start()
            guard.check()
            grouped = index % GROUP_COMMIT_EVERY == GROUP_COMMIT_EVERY - 1
            self.tally.attempted += len(VIEW_DIMENSIONS)
            before = fsyncs[0] if fsyncs is not None else 0
            t0 = perf_counter()
            try:
                with rec.span("round.grouped" if grouped else "round", op=index):
                    out.morsel_tasks += register_round(db, grouped)
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
                self.tally.fail(f"round {index}: {type(exc).__name__}: {exc}")
                continue
            done = fsyncs[0] if fsyncs is not None else 0
            if index % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                with rec.span("lineage.persist.checkpoint", op=index):
                    db.checkpoint()
            elapsed = perf_counter() - t0
            if index >= warm:
                # A round's time includes the checkpoint that follows it: the
                # sustained rate pays for background work.
                out.round_ms.append(elapsed * 1e3)
                out.grouped.append(grouped)
                out.fsyncs.append(done - before)
            if shadow is not None:
                t0 = perf_counter()
                with rec.span("api.register.round", op=index):
                    register_round(shadow, grouped=False)
                if index >= warm:
                    out.shadow_ms.append((perf_counter() - t0) * 1e3)
        return out

    # -- restart and verify ---------------------------------------------------------------

    def expected_answers(self, state: State) -> Dict[str, List[np.ndarray]]:
        """Before the close: check each view against numpy, and keep the
        ``backward`` arrays the reopened database must reproduce."""
        answers = {}
        for dimension in VIEW_DIMENSIONS:
            self.tally.attempted += 1
            result = state.db.result(view_name(dimension))
            probes = np.linspace(0, len(result) - 1, 4).astype(np.int64)
            if not view_matches(result, state.ontime, dimension, probes):
                self.tally.fail(f"view {dimension}: rows or lineage differ from numpy")
            answers[dimension] = [
                result.backward(bars, "ontime") for bars in self.probe_sets(len(result))
            ]
        return answers

    @staticmethod
    def probe_sets(bars: int) -> List[np.ndarray]:
        every = np.arange(bars, dtype=np.int64)
        picks = np.unique(np.linspace(0, bars - 1, PROBE_BARS).astype(np.int64))
        return [every] + [np.array([bar], dtype=np.int64) for bar in picks]

    def reopen_and_verify(self, state: State, expected, rec, span: str) -> float:
        """``Database.open`` -> every view verified; returns the seconds."""
        self.tally.attempted += 1
        t0 = perf_counter()
        with rec.span(span):
            with rec.span(span + ".open"):
                db = Database.open(state.directory)
            state.db = db
            db.create_table("ontime", state.ontime)
            for dimension, arrays in expected.items():
                result = db.result(view_name(dimension))
                for bars, want in zip(self.probe_sets(len(result)), arrays):
                    if not np.array_equal(result.backward(bars, "ontime"), want):
                        self.tally.fail(f"view {dimension}: backward differs after reopen")
                        break
        return perf_counter() - t0

    def restart_cycle(self, state: State, rec) -> dict:
        """Checkpoint, close, and recover :data:`RECOVERIES` times."""
        expected = self.expected_answers(state)
        lineage_bytes = sum(
            state.db.result(view_name(d)).lineage.memory_bytes() for d in VIEW_DIMENSIONS
        )
        with rec.span("lineage.persist.checkpoint"):
            state.db.checkpoint()
        disk_bytes = directory_bytes(state.directory)
        recover_s = []
        for _ in range(RECOVERIES):
            state.db.close()
            recover_s.append(
                self.reopen_and_verify(state, expected, rec, "lineage.recovery.checkpoint")
            )
        return {"lineage_bytes": lineage_bytes, "disk_bytes": disk_bytes,
                "recover_s": recover_s}

    # -- untraced -------------------------------------------------------------------------

    def measure(self, state: State, rec) -> dict:
        rounds = self.run_rounds(state, rec, self.rounds)
        self.restart_cycle(state, rec)
        register_ms = rounds.register_ms()
        return {
            "op_ms_p50": p50(register_ms),
            "ops_per_s": len(rounds.round_ms) * len(VIEW_DIMENSIONS)
            / (sum(rounds.round_ms) / 1e3),
            "_samples": len(register_ms),
        }

    # -- traced ------------------------------------------------------------------------------

    def trace(self, state: State, rec, null_rec) -> dict:
        plain = self.run_rounds(state, null_rec, self.rounds)
        # The replay stays short of a periodic checkpoint, so the directory
        # grows by exactly the WAL records of its registrations.
        replay = min(replay_ops(self.rounds, GROUP_COMMIT_EVERY), CHECKPOINT_EVERY - 1 - self.warm)
        memory = Database()
        memory.create_table("ontime", state.ontime)
        state.db.checkpoint()
        wal_before = directory_bytes(state.directory)
        with counted_fsync() as fsyncs:
            traced = self.run_rounds(state, rec, replay, fsyncs, shadow=memory)
        replayed = (len(traced.round_ms) + self.warm) * len(VIEW_DIMENSIONS)
        wal_bytes = (directory_bytes(state.directory) - wal_before) / replayed
        register_ms = traced.register_ms()
        per_round = {
            flag: [n for n, g in zip(traced.fsyncs, traced.grouped) if g == flag]
            for flag in (False, True)
        }
        ungrouped = ~np.array(traced.grouped)
        memory_ms = np.asarray(traced.shadow_ms)[ungrouped] / len(VIEW_DIMENSIONS)

        # Recovery from the WAL alone (nothing checkpointed since the replay
        # began), then from a checkpoint.
        expected = self.expected_answers(state)
        state.db.close()
        self.reopen_and_verify(state, expected, rec, "lineage.recovery.wal")
        report = state.db.durability.last_recovery
        cycle = self.restart_cycle(state, rec)

        ms = rec.durations_ms
        return {
            "lineage.wal.bytes_per_register": wal_bytes,
            "lineage.wal.fsyncs_per_register": p50(per_round[False]) / len(VIEW_DIMENSIONS),
            "lineage.wal.fsyncs_per_burst": p50(per_round[True]) if per_round[True] else 0.0,
            "lineage.wal.durable_tax_ms": p50(register_ms - memory_ms),
            "wal_bytes_per_lineage_byte": cycle["disk_bytes"] / cycle["lineage_bytes"],
            "lineage_bytes_per_input_row": cycle["lineage_bytes"]
            / (len(VIEW_DIMENSIONS) * self.rows),
            "exec.morsel.tasks": plain.morsel_tasks + traced.morsel_tasks,
            "lineage.persist.checkpoint_ms": p50(ms("lineage.persist.checkpoint")),
            "lineage.persist.checkpoint_bytes": cycle["disk_bytes"],
            "lineage.recovery.open_wal_ms": p50(ms("lineage.recovery.wal.open")),
            "lineage.recovery.open_checkpoint_ms": p50(ms("lineage.recovery.checkpoint.open")),
            "lineage.recovery.records_replayed": report.records_replayed,
            "recover_s": p50(cycle["recover_s"]),
            "lineage.indexes.memory_bytes": cycle["lineage_bytes"],
            "api.register_ms": p50(memory_ms),
            "storage.create_table_ms": p50(ms("storage.create_table")),
            "datagen.ontime_s": p50(ms("datagen.ontime")) / 1e3,
            "trace.overhead_x": p50(register_ms) / p50(plain.register_ms(replay)),
            "_samples": len(register_ms),
        }
