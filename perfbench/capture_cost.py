"""``capture``: what lineage capture costs the base query (paper Figs 5-8).

The write side of the system.  Eight queries — the four crossfilter view
queries over the 2M-row ontime relation and TPC-H Q1/Q3/Q10/Q12 at SF 0.5
— each run capture-off and then ``INJECT`` + register, interleaved, round
after round.  An op is one *round*: all eight queries executed capture-on
and registered, so a median never straddles two queries' clusters; the
per-query numbers are per-layer metrics.

``lineage.capture`` and the vector group-by/join build indexes here and
are idle in the brush workloads, so an optimisation that speeds brushes
by fattening capture shows up here as a loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from brush import view_sql
from common import (
    Config,
    Guard,
    Tally,
    latency_metrics,
    p50,
    replay_ops,
    warmup_ops,
)
from oracle import view_matches

from repro.api import Database, ExecOptions, PreparedQuery
from repro.datagen import VIEW_DIMENSIONS, date_int, load_tpch, make_ontime_table
from repro.exec.timings import MORSEL_TASKS
from repro.lineage.capture import CaptureMode
from repro.tpch import ALL_QUERIES

ROWS = 2_000_000
SMOKE_ROWS = 20_000
PAYLOAD_COLS = 12
TPCH_SCALE = 0.5
SMOKE_TPCH_SCALE = 0.02
#: Timed rounds of one run (one latency sample each).
ROUNDS = 30
SMOKE_ROUNDS = 2

VIEW_QUERIES = dict(zip(("view_latlon", "view_date", "view_delay", "view_carrier"),
                        VIEW_DIMENSIONS))
#: Base relations each TPC-H query scans (its lineage's input rows).
TPCH_INPUTS = {
    "tpch_q1": ("lineitem",),
    "tpch_q3": ("customer", "orders", "lineitem"),
    "tpch_q10": ("nation", "customer", "orders", "lineitem"),
    "tpch_q12": ("orders", "lineitem"),
}


def capture_options(query: str) -> ExecOptions:
    return ExecOptions(capture=CaptureMode.INJECT, name=f"c_{query}", pin=True)


@dataclass
class Rounds:
    """What the timed rounds of one pass measured."""

    #: per round: capture-on total and capture-off total
    on_ms: List[float] = field(default_factory=list)
    off_ms: List[float] = field(default_factory=list)
    #: query -> (capture-off result, capture-on result) of the last round
    last: dict = field(default_factory=dict)
    morsel_tasks: int = 0


@dataclass
class State:
    db: Database
    #: query name -> (prepared statement, capture-on options, input rows)
    queries: Dict[str, Tuple[PreparedQuery, ExecOptions, int]]


class CaptureWorkload:
    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.rows = cfg.size(ROWS, SMOKE_ROWS)
        self.rounds = cfg.size(ROUNDS, SMOKE_ROUNDS)
        self.warm = warmup_ops(self.rounds)
        self.tpch_scale = SMOKE_TPCH_SCALE if cfg.smoke else TPCH_SCALE
        self.tally = Tally()
        self._table_rows: Dict[str, int] = {}

    def info(self) -> dict:
        return {"rows": dict(self._table_rows), "payload_cols": PAYLOAD_COLS,
                "tpch_scale_factor": self.tpch_scale, "timed_rounds": self.rounds,
                "queries": list(VIEW_QUERIES) + list(TPCH_INPUTS)}

    def setup(self, rec) -> State:
        cfg = self.cfg
        with rec.span("datagen.ontime"):
            ontime = make_ontime_table(self.rows, seed=cfg.seed, payload_cols=PAYLOAD_COLS)
        db = Database()
        with rec.span("storage.create_table"):
            db.create_table("ontime", ontime)
        with rec.span("datagen.tpch"):
            load_tpch(db, self.tpch_scale, seed=cfg.seed)
        self._table_rows = {name: db.table(name).num_rows for name in db.tables()}
        queries = {}
        for query, dimension in VIEW_QUERIES.items():
            queries[query] = (db.prepare(view_sql(dimension)), capture_options(query), self.rows)
        for name, make in ALL_QUERIES.items():
            query = f"tpch_{name.lower()}"
            inputs = sum(self._table_rows[t] for t in TPCH_INPUTS[query])
            queries[query] = (db.prepare(make()), capture_options(query), inputs)
        return State(db, queries)

    def close(self, state: State) -> None:
        pass

    # -- rounds ------------------------------------------------------------------

    def run_rounds(self, state: State, rec, count: int):
        """Interleaved capture-off / capture-on rounds: the warm-up, then
        ``count`` timed ones.  Returns a :class:`Rounds` of the timed ones."""
        warm = self.warm
        guard = Guard(self.cfg.seconds)
        out = Rounds()
        for index in range(warm + count):
            if index == warm:
                guard.start()
            guard.check()
            self.tally.attempted += 1
            on_total = off_total = 0.0
            try:
                with rec.span("round", op=index):
                    for query, (prepared, options, _) in state.queries.items():
                        t0 = perf_counter()
                        with rec.span(f"lineage.capture.{query}.baseline"):
                            off = prepared.run()
                        t1 = perf_counter()
                        with rec.span(f"lineage.capture.{query}.inject"):
                            on = prepared.run(options=options)
                        t2 = perf_counter()
                        off_total += t1 - t0
                        on_total += t2 - t1
                        out.last[query] = (off, on)
                        out.morsel_tasks += int(on.timings.get(MORSEL_TASKS, 0))
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
                self.tally.fail(f"round {index}: {type(exc).__name__}: {exc}")
                continue
            if index >= warm:
                out.on_ms.append(on_total * 1e3)
                out.off_ms.append(off_total * 1e3)
        return out

    def check(self, state: State, last: dict) -> None:
        """Capture must not change the answer, the views must equal numpy's
        group counts and lineage, and Q1's lineage must be exactly the
        lineitem rows its filter keeps."""
        db = state.db
        for query, (off, on) in last.items():
            self.tally.attempted += 1
            if not on.table.equals(off.table):
                self.tally.fail(f"{query}: capture-on rows differ from capture-off rows")
                continue
            if query in VIEW_QUERIES:
                probes = np.linspace(0, len(on) - 1, 4).astype(np.int64)
                if not view_matches(on, db.table("ontime"), VIEW_QUERIES[query], probes):
                    self.tally.fail(f"{query}: rows or lineage differ from numpy")
            elif query == "tpch_q1":
                kept = np.flatnonzero(
                    db.table("lineitem").column("l_shipdate") < date_int("1998-12-01")
                )
                rids = on.backward(np.arange(len(on), dtype=np.int64), "lineitem")
                if not np.array_equal(rids, kept) or int(
                    np.sum(on.table.column("count_order"))
                ) != kept.size:
                    self.tally.fail("tpch_q1: rows or lineage differ from numpy")

    def lineage_bytes(self, last: dict) -> Dict[str, int]:
        return {query: on.lineage.memory_bytes() for query, (_, on) in last.items()}

    # -- untraced -----------------------------------------------------------------

    def measure(self, state: State, rec) -> dict:
        rounds = self.run_rounds(state, rec, self.rounds)
        self.check(state, rounds.last)
        return latency_metrics(rounds.on_ms)

    # -- traced ---------------------------------------------------------------------

    def trace(self, state: State, rec, null_rec) -> dict:
        plain = self.run_rounds(state, null_rec, self.rounds)
        count = replay_ops(self.rounds)
        traced = self.run_rounds(state, rec, count)
        self.check(state, traced.last)
        ms = rec.durations_ms
        warm = self.warm
        memory = self.lineage_bytes(traced.last)
        input_rows = sum(rows for _, _, rows in state.queries.values())
        metrics = {
            # The ISSUE's end-to-end ratio and its base: from the untraced pass.
            "capture_overhead_x": sum(plain.on_ms) / sum(plain.off_ms),
            "lineage.capture.baseline_sum_ms": p50(plain.off_ms),
            "lineage.indexes.memory_bytes": sum(memory.values()),
            "lineage_bytes_per_input_row": sum(memory.values()) / input_rows,
            "exec.morsel.tasks": traced.morsel_tasks,
            "storage.create_table_ms": p50(ms("storage.create_table")),
            "datagen.ontime_s": p50(ms("datagen.ontime")) / 1e3,
            "datagen.tpch_s": p50(ms("datagen.tpch")) / 1e3,
            "trace.overhead_x": p50(traced.on_ms) / p50(plain.on_ms[:count]),
            "_samples": len(traced.on_ms),
        }

        for query in state.queries:
            prefix = f"lineage.capture.{query}."
            baseline = p50(ms(prefix + "baseline")[warm:])
            inject = p50(ms(prefix + "inject")[warm:])
            metrics[prefix + "baseline_ms"] = baseline
            metrics[prefix + "inject_ms"] = inject
            metrics[prefix + "overhead_x"] = inject / baseline
            metrics[prefix + "memory_bytes"] = memory[query]
        return metrics
