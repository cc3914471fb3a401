"""``serve_mixed``: brushes beside refresh writes through ``DatabaseServer``.

A 500k-row ontime relation (a smaller table than the brush workloads, so
constant overhead separates from per-row cost) behind ``db.serve()`` with
its default options — the answer memo is **on**, as users get it.  Two
closed-loop client threads, each with its own seeded sequence: 97.5%
brushes (two statements over one pinned snapshot; half the windows come
from an 8-window hot pool, half are cold) and 2.5% refresh writes (bump a
payload column in place with ``preserve_rids`` and re-register the view,
which advances the registry epoch and stales every memoized answer).

Snapshots, the prepared and answer memos, epoch-keyed cache reuse and the
writer queue exist only on this path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from brush import FILTER_PRED, view_name, view_options, view_sql
from common import (
    BLOCK,
    CHECK_EVERY,
    CLIENT_THREADS,
    BenchError,
    Config,
    Guard,
    Tally,
    p50,
    p95,
    replay_ops,
    warmup_ops,
    window_design,
)
from oracle import Statement, answer_matches, kernel, view_matches

from repro.api import Database
from repro.datagen import make_ontime_table
from repro.exec.timings import MORSEL_TASKS
from repro.serve import DatabaseServer
from repro.storage import Table

ROWS = 500_000
SMOKE_ROWS = 20_000
PAYLOAD_COLS = 6
DIMENSION = "latlon_bin"
HOT_WINDOWS = 8
WRITE_SHARE = 0.025
#: Timed ops of one run, per client (brushes and refreshes): whole blocks,
#: and in the smoke run enough of them to hold several writes.
OPS_PER_CLIENT = 32 * BLOCK
SMOKE_OPS_PER_CLIENT = 2 * BLOCK
#: Repetitions of each single-threaded serving probe of a traced run.
PROBE_REPEATS = 30
BATCH_USERS = 8
BARS_PER_USER = 4

STATEMENTS = (
    Statement("reaggregate", view_name(DIMENSION), "carrier"),
    Statement("filter_aggregate", view_name(DIMENSION), "date_bin", FILTER_PRED["delay_bin"]),
)


def refresh(db: Database) -> Tuple[float, float]:
    """One write: bump ``payload0`` in place (rids stay valid) and
    re-register the view (every cached brush answer goes stale).
    Returns the seconds spent in here and, of those, replacing the table."""
    t0 = perf_counter()
    table = db.table("ontime")
    columns = {name: table.column(name) for name in table.schema.names}
    columns["payload0"] = columns["payload0"] + 1
    t1 = perf_counter()
    db.create_table("ontime", Table(columns), replace=True, preserve_rids=True)
    replaced = perf_counter() - t1
    db.sql(view_sql(DIMENSION), options=view_options(DIMENSION))
    return perf_counter() - t0, replaced


@dataclass
class State:
    db: Database
    ontime: Table
    order: np.ndarray
    texts: Tuple[str, ...]
    kernels: Dict[Statement, Callable]
    lineage_bytes: int
    #: per client thread: op rows (is_write, start rank, width)
    ops: List[np.ndarray]


#: Writes per block of 64 ops, cycling: 8 writes in 320 ops = 2.5%.
WRITES_PER_BLOCK = (2, 1, 2, 1, 2)
#: Brushes per block drawn from the hot pool (half of the 62-63 brushes).
HOT_PER_BLOCK = 31


def make_ops(rng: np.random.Generator, count: int, bars: int, hot: np.ndarray) -> np.ndarray:
    """``count`` ops as rows ``(is_write, start rank, width)``.  Per block:
    an exact number of writes, 31 brushes spread evenly over the hot
    pool, and the rest on one cold :func:`~common.window_design`; shuffled."""
    ops = np.zeros((count, 3), dtype=np.int64)
    for number, lo in enumerate(range(0, count, BLOCK)):
        block = ops[lo:lo + BLOCK]
        kind = rng.permutation(len(block))
        writes = WRITES_PER_BLOCK[number % len(WRITES_PER_BLOCK)]
        is_hot = (kind >= writes) & (kind < writes + HOT_PER_BLOCK)
        cold = np.flatnonzero(kind >= writes + HOT_PER_BLOCK)
        block[kind < writes, 0] = 1
        block[is_hot, 1:] = hot[(kind[is_hot] + number) % len(hot)]
        block[cold, 1:] = window_design(rng, bars, cold.size, number)[
            rng.permutation(cold.size), :2
        ]
    return ops


@dataclass
class ClientLog:
    """What one client thread measured."""

    tally: Tally = field(default_factory=Tally)
    #: every timed op's latency, and which of them were refresh writes
    op_ms: List[float] = field(default_factory=list)
    is_write: List[bool] = field(default_factory=list)
    #: per refresh: ms inside the benchmark's callable / replacing the table
    write_fn_ms: List[float] = field(default_factory=list)
    replace_ms: List[float] = field(default_factory=list)
    #: (op index, bars, results) kept for the oracle check after the loop
    kept: list = field(default_factory=list)
    morsel_tasks: int = 0
    finished: bool = False
    #: set when the :class:`~common.Guard` refused the run in this thread
    refused: Optional[BenchError] = None


class ServeWorkload:
    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.rows = cfg.size(ROWS, SMOKE_ROWS)
        self.ops = cfg.size(OPS_PER_CLIENT, SMOKE_OPS_PER_CLIENT)
        self.warm = warmup_ops(self.ops)
        self.tally = Tally()

    def info(self) -> dict:
        return {"rows": {"ontime": self.rows}, "payload_cols": PAYLOAD_COLS,
                "timed_ops_per_client": self.ops,
                "readers": CLIENT_THREADS, "answer_memo": "on (server default)",
                "write_share": WRITE_SHARE, "hot_windows": HOT_WINDOWS}

    def setup(self, rec) -> State:
        cfg = self.cfg
        with rec.span("datagen.ontime"):
            ontime = make_ontime_table(self.rows, seed=cfg.seed, payload_cols=PAYLOAD_COLS)
        db = Database()
        with rec.span("storage.create_table"):
            db.create_table("ontime", ontime)
        with rec.span("api.register"):
            view = db.sql(view_sql(DIMENSION), options=view_options(DIMENSION))
        counts = np.asarray(view.table.column("cnt"))
        order = np.argsort(-counts, kind="stable").astype(np.int64)
        rng = np.random.default_rng(cfg.seed)
        hot = window_design(rng, len(order), HOT_WINDOWS, 0)[:, :2]
        ops = [
            make_ops(np.random.default_rng([cfg.seed, client]),
                     self.warm + self.ops, len(order), hot)
            for client in range(CLIENT_THREADS)
        ]
        # The view is re-registered by every refresh with identical rows and
        # lineage (only payload0 changes), so one kernel set stays valid.
        kernels = {stmt: kernel(stmt, view.lineage, ontime) for stmt in STATEMENTS}
        return State(db, ontime, order, tuple(s.text for s in STATEMENTS), kernels,
                     view.lineage.memory_bytes(), ops)

    def close(self, state: State) -> None:
        pass

    # -- the closed loops ---------------------------------------------------------

    def client(self, state, server, rec, ops, count, barrier, log: ClientLog, check_every):
        """One closed-loop client thread: the warm-up, then ``count`` timed ops."""
        try:
            self.client_loop(state, server, rec, ops, count, barrier, log, check_every)
            log.finished = True
        except BenchError as exc:
            log.refused = exc

    def client_loop(self, state, server, rec, ops, count, barrier, log, check_every):
        warm = self.warm
        guard = Guard(self.cfg.seconds)
        for index in range(warm + count):
            if index == warm:
                barrier.wait(timeout=120)
                guard.start()
            guard.check()
            is_write, start, width = ops[index]
            log.tally.attempted += 1
            t0 = perf_counter()
            try:
                if is_write:
                    with rec.span("refresh", op=index):
                        inside_s, replace_s = server.write(refresh)
                else:
                    bars = state.order[start:start + width]
                    params = {"bars": bars}
                    results = []
                    with rec.span("brush", op=index):
                        # One pinned snapshot per brush: it never straddles an epoch.
                        snapshot = server.snapshot()
                        for text in state.texts:
                            with rec.span("server.sql"):
                                results.append(server.sql(text, params=params, snapshot=snapshot))
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
                log.tally.fail(f"op {index}: {type(exc).__name__}: {exc}")
                continue
            elapsed = (perf_counter() - t0) * 1e3
            if index >= warm:
                log.op_ms.append(elapsed)
                log.is_write.append(bool(is_write))
                if is_write:
                    log.write_fn_ms.append(inside_s * 1e3)
                    log.replace_ms.append(replace_s * 1e3)
            if not is_write:
                log.morsel_tasks += sum(int(r.timings.get(MORSEL_TASKS, 0)) for r in results)
                if index % check_every == 0:
                    log.kept.append((index, bars, results))

    def run_clients(self, state: State, server, rec, count, check_every):
        """Start the client threads, wait for them, check the kept answers;
        returns the clients' logs."""
        barrier = threading.Barrier(CLIENT_THREADS)
        logs = [ClientLog() for _ in range(CLIENT_THREADS)]
        threads = [
            threading.Thread(
                target=self.client,
                args=(state, server, rec, state.ops[c], count, barrier, logs[c], check_every),
                name=f"perfbench-client-{c}",
            )
            for c in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for log in logs:
            if log.refused is not None:
                raise log.refused
            self.tally.merge(log.tally)
            if not log.finished:
                self.tally.fail("a client thread died before finishing its loop")
            for index, bars, results in log.kept:
                for stmt, result in zip(STATEMENTS, results):
                    if not answer_matches(stmt, result.table, state.kernels[stmt](bars)):
                        self.tally.fail(f"op {index}: {stmt.shape} answer differs from oracle")
                        break
        return logs

    def check_view(self, state: State) -> None:
        self.tally.attempted += 1
        result = state.db.result(view_name(DIMENSION))
        probes = np.linspace(0, len(result) - 1, 4).astype(np.int64)
        if not view_matches(result, state.db.table("ontime"), DIMENSION, probes):
            self.tally.fail("view: rows or lineage differ from numpy after the refreshes")

    # -- untraced -------------------------------------------------------------------

    def measure(self, state: State, rec) -> dict:
        with state.db.serve(readers=CLIENT_THREADS) as server:
            logs = self.run_clients(state, server, rec, self.ops, CHECK_EVERY)
        self.check_view(state)
        brushes = _ops(logs, False)
        return {
            "op_ms_p50": p50(brushes),
            "ops_per_s": _brushes_per_second(logs),
            "_samples": len(brushes),
        }

    # -- traced ------------------------------------------------------------------------

    def trace(self, state: State, rec, null_rec) -> dict:
        db = state.db
        with db.serve(readers=CLIENT_THREADS) as server:
            plain = self.run_clients(state, server, null_rec, self.ops, CHECK_EVERY)
        count = replay_ops(self.ops, BLOCK)
        with db.serve(readers=CLIENT_THREADS) as server:
            logs = self.run_clients(state, server, rec, count, 1)
            stats = server.stats()
        self.check_view(state)
        cache = stats["lineage_cache"]
        ms = rec.durations_ms
        refresh_ms, write_fn_ms = _ops(logs, True), _pool(logs, "write_fn_ms")
        metrics = {
            # The ISSUE's end-to-end numbers: from the untraced pass.
            "brush_ms_p95": p95(_ops(plain, False)),
            "refresh_ms_p50": p50(_ops(plain, True)),
            "lineage_bytes_per_input_row": state.lineage_bytes / self.rows,
            "exec.morsel.tasks": sum(log.morsel_tasks for log in logs),
            "serve.write_fn_ms": p50(write_fn_ms),
            "serve.write_wait_ms": p50(np.subtract(refresh_ms, write_fn_ms)),
            "storage.replace_preserve_rids_ms": p50(_pool(logs, "replace_ms")),
            "serve.versions_published": stats["version"],
            "serve.lineage_cache_hit_ratio": cache["hits"]
            / max(1, cache["hits"] + cache["misses"]),
            "lineage.indexes.memory_bytes": state.lineage_bytes,
            "api.register_ms": p50(ms("api.register")),
            "storage.create_table_ms": p50(ms("storage.create_table")),
            "datagen.ontime_s": p50(ms("datagen.ontime")) / 1e3,
            "trace.overhead_x": p50(_ops(logs, False)) / p50(_ops(plain, False, count)),
            "_samples": len(_ops(logs, False)),
        }
        metrics.update(self.probe_serving(state, rec))
        return metrics

    def probe_serving(self, state: State, rec) -> dict:
        """Single-threaded calls into the serving layer, after the replay:
        the answer memo off and hit (two servers over one db), the server's
        cost over a plain ``Session``, snapshot capture, the pooled submit
        path, and ``sql_batch`` against the per-user loop."""
        db, text = state.db, state.texts[0]
        windows = [state.order[k:k + 2] for k in range(HOT_WINDOWS)]
        users = [
            {"bars": state.order[[(u + k) % HOT_WINDOWS for k in range(BARS_PER_USER)]]}
            for u in range(BATCH_USERS)
        ]
        session = db.session()
        with DatabaseServer(db, readers=CLIENT_THREADS, memoize_answers=False) as off, \
                db.serve(readers=CLIENT_THREADS) as on:
            for bars in windows:  # warm plans, rid caches and the answer memo
                params = {"bars": bars}
                for target in (off, on, session):
                    target.sql(text, params=params)
                off.submit_query(text, params).result()
            self.tally.attempted += 1
            singles = [off.sql(text, params=p) for p in users]
            batched = off.sql_batch(text, users)
            if any(not s.table.equals(b.table) for s, b in zip(singles, batched)):
                self.tally.fail("sql_batch answers differ from per-user sql answers")
            for _ in range(PROBE_REPEATS):
                for bars in windows:
                    params = {"bars": bars}
                    with rec.span("serve.sql.memo_off"):
                        off.sql(text, params=params)
                    with rec.span("serve.sql.memo_hit"):
                        on.sql(text, params=params)
                    with rec.span("api.session_sql.warm"):
                        session.sql(text, params=params)
                    with rec.span("serve.submit_query"):
                        off.submit_query(text, params).result()
                with rec.span("serve.snapshot_capture"):
                    db.snapshot()
                with rec.span("serve.sql_batch"):
                    off.sql_batch(text, users)
                with rec.span("serve.sql_unbatched"):
                    for params in users:
                        off.sql(text, params=params)
        ms = rec.durations_ms
        memo_off = ms("serve.sql.memo_off")
        return {
            "serve.sql_memo_off_ms": p50(memo_off),
            "serve.sql_memo_hit_ms": p50(ms("serve.sql.memo_hit")),
            "serve.overhead_ms": p50(np.subtract(memo_off, ms("api.session_sql.warm"))),
            "serve.snapshot_capture_ms": p50(ms("serve.snapshot_capture")),
            "serve.submit_queue_ms": p50(np.subtract(ms("serve.submit_query"), memo_off)),
            "serve.batch_ms_per_brush": p50(ms("serve.sql_batch")) / BATCH_USERS,
            "serve.unbatched_ms_per_brush": p50(ms("serve.sql_unbatched")) / BATCH_USERS,
        }


def _pool(logs: List[ClientLog], attribute: str) -> list:
    return [value for log in logs for value in getattr(log, attribute)]


def _ops(logs: List[ClientLog], writes: bool, first: Optional[int] = None) -> np.ndarray:
    """All clients' brush (or refresh) latencies (of each client's
    ``first`` timed ops only, when given)."""
    return np.concatenate([
        np.asarray(log.op_ms[:first])[np.array(log.is_write[:first]) == writes] for log in logs
    ])


def _brushes_per_second(logs: List[ClientLog]) -> float:
    """Each closed-loop client is busy for the sum of its op latencies,
    refreshes included; the clients' brush rates add up."""
    return sum(
        (len(log.op_ms) - sum(log.is_write)) / (sum(log.op_ms) / 1e3) for log in logs
    )
