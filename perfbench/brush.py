"""``xf_brush`` and ``xf_brush_join``: the paper's crossfilter interaction.

Both run on the same 2M-row synthetic ontime relation with the four
group-by COUNT views captured ``INJECT`` and registered pinned; one
client, one ``Session``, closed loop.  An op is one *brush*: a view and a
window of 1-8 adjacent bars of it (bars ranked by weight, window start
zipf-skewed, so brushed lineage spans three orders of magnitude), then
every statement the dashboard issues over ``Lb(view, 'ontime', :bars)``.

* ``xf_brush`` issues the three *other* views' single-table statements
  (re-aggregate, filter-aggregate, and alternately a narrow projection /
  a DISTINCT projection): CSR walk, rid-resolution cache (one miss and
  two hits per brush), single-table late materialization, group-by.
* ``xf_brush_join`` issues the star join and the three-hop snowflake
  chain re-aggregation instead: the same layers, but the multi-hop
  pushed core dominates.  An optimisation of the join path must move
  this workload and leave ``xf_brush`` flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    BLOCK,
    CHECK_EVERY,
    Config,
    Guard,
    Tally,
    latency_metrics,
    p50,
    p95,
    replay_ops,
    warmup_ops,
    window_design,
)
from oracle import Statement, answer_matches, kernel, lookup_columns, view_matches

from repro.api import Database, ExecOptions, normalize_statement
from repro.datagen import VIEW_DIMENSIONS, make_ontime_table
from repro.exec.timings import (
    EXECUTE,
    LATE_MAT_BUILD_SWAPS,
    LATE_MAT_CHAIN_HOPS,
    LATE_MAT_PKFK_DETECTED,
    LATE_MAT_SUBTREES,
    MORSEL_TASKS,
)
from repro.lineage.capture import CaptureMode
from repro.plan.rewrite import precompute_rewrites
from repro.storage import Table

ROWS = 2_000_000
SMOKE_ROWS = 20_000
PAYLOAD_COLS = 12
#: Timed brushes of one run — fixed, so every run of a seed times the same
#: ops.  Both exceed the 512 entries of the session's rid-resolution cache
#: in *distinct* windows, so its LRU evicts during the run.
OPS = {"xf_brush": 768, "xf_brush_join": 1024}
SMOKE_OPS = 30
#: Views of one block of ops, by index into the workload's brushed views.
#: ``xf_brush`` brushes its four views equally often.  ``xf_brush_join``
#: brushes ``date_bin`` three times as often as ``latlon_bin``: with equal
#: shares the median brush would sit in the gap between the two views'
#: latency clusters (a few hundred rows against up to 600k), where a
#: handful of ops decide it; at 1:3 it lies inside the light cluster (the
#: constant cost of the join statements) and the heavy one sets the tail.
VIEW_MIX = {"xf_brush": (0, 1, 2, 3), "xf_brush_join": (0, 1, 1, 1)}
#: Every n-th op of a traced replay also runs the decomposition calls.
DECOMPOSE_EVERY = 5
NO_PUSH = ExecOptions(late_materialize=False)

#: Literal predicates per dimension.  Popularity rank is the key value in
#: every zipf-ranked dimension, so these keep the same share of rows under
#: every seed.  Airports land on random grid cells, so no predicate on the
#: lat/lon bins would; that slot filters a uniform payload column instead.
FILTER_PRED = {
    "latlon_bin": ("payload1", ">=", 5000),
    "date_bin": ("date_bin", ">=", 64),
    "delay_bin": ("delay_bin", ">=", 4),
    "carrier": ("carrier", ">=", 4),
}
NARROW_PRED = {
    "latlon_bin": ("payload0", "<", 2500),
    "date_bin": ("date_bin", "=", 1),
    "delay_bin": ("delay_bin", "=", 1),
    "carrier": ("carrier", "=", 1),
}


def view_name(dimension: str) -> str:
    return f"v_{dimension}"


def view_sql(dimension: str) -> str:
    return f"SELECT {dimension}, COUNT(*) AS cnt FROM ontime GROUP BY {dimension}"


def view_options(dimension: str) -> ExecOptions:
    return ExecOptions(capture=CaptureMode.INJECT, name=view_name(dimension), pin=True)


def single_table_statements(dimension: str) -> List[Tuple[Statement, ...]]:
    """The brush on ``dimension``'s view: one statement per other view.
    The third slot has two shapes; the op sequence says which one runs."""
    a, b, c = (d for d in VIEW_DIMENSIONS if d != dimension)
    view = view_name(dimension)
    return [
        (Statement("reaggregate", view, a),),
        (Statement("filter_aggregate", view, b, FILTER_PRED[c]),),
        (
            Statement("narrow_projection", view, c, NARROW_PRED[a]),
            Statement("distinct_projection", view, c),
        ),
    ]


def join_statements(dimension: str) -> List[Tuple[Statement, ...]]:
    view = view_name(dimension)
    return [
        (Statement("join_reaggregate", view, "carrier"),),
        (Statement("chain_reaggregate", view, "carrier"),),
    ]


def make_ops(rng: np.random.Generator, count: int, bars_per_view: List[int],
             mix: Tuple[int, ...]) -> np.ndarray:
    """``count`` ops as rows ``(view index, start rank, width, alternative)``.

    Each block of :data:`BLOCK` ops holds the views in the shares of
    ``mix`` and, per view, one :func:`~common.window_design`; the order is
    shuffled.  ``alternative`` picks the shape of a statement slot that
    has two."""
    ops = np.empty((count, 4), dtype=np.int64)
    for number, lo in enumerate(range(0, count, BLOCK)):
        size = min(BLOCK, count - lo)
        view = np.asarray(mix)[rng.permutation(size) % len(mix)]
        for index, bars in enumerate(bars_per_view):
            slots = lo + np.flatnonzero(view == index)
            design = window_design(rng, bars, slots.size, number)
            ops[slots, 0] = index
            ops[slots, 1:] = design[rng.permutation(slots.size)]
    ops[:, 3] = ops[:, 3] // 2 % 2
    return ops


@dataclass
class State:
    db: Database
    ontime: Table
    #: per brushed dimension: output rids of the view ranked by weight
    order: Dict[str, np.ndarray]
    #: per brushed dimension: [(Statement, text), ...] per statement slot
    slots: Dict[str, List[Tuple[Tuple[Statement, str], ...]]]
    kernels: Dict[Statement, Callable]
    lineage_bytes: int
    ops: np.ndarray


class BrushWorkload:
    def __init__(self, cfg: Config, join: bool):
        self.cfg = cfg
        self.join = join
        self.rows = cfg.size(ROWS, SMOKE_ROWS)
        self.ops = cfg.size(OPS[cfg.workload], SMOKE_OPS)
        self.warm = warmup_ops(self.ops)
        self.brushed = ("latlon_bin", "date_bin") if join else VIEW_DIMENSIONS
        self.tally = Tally()

    def info(self) -> dict:
        return {"rows": {"ontime": self.rows}, "payload_cols": PAYLOAD_COLS,
                "timed_ops": self.ops, "views": list(VIEW_DIMENSIONS),
                "brushed_views": [self.brushed[v] for v in VIEW_MIX[self.cfg.workload]]}

    # -- set-up -----------------------------------------------------------------

    def setup(self, rec) -> State:
        cfg = self.cfg
        with rec.span("datagen.ontime"):
            ontime = make_ontime_table(self.rows, seed=cfg.seed, payload_cols=PAYLOAD_COLS)
        db = Database()
        with rec.span("storage.create_table"):
            db.create_table("ontime", ontime)
        lookups = None
        if self.join:
            lookups = {name: Table(cols) for name, cols in lookup_columns().items()}
            for name, table in lookups.items():
                db.create_table(name, table)
        order, lineage_bytes = {}, 0
        for dimension in VIEW_DIMENSIONS:
            with rec.span("api.register"):
                view = db.sql(view_sql(dimension), options=view_options(dimension))
            lineage_bytes += view.lineage.memory_bytes()
            if dimension in self.brushed:
                counts = np.asarray(view.table.column("cnt"))
                order[dimension] = np.argsort(-counts, kind="stable").astype(np.int64)
        make = join_statements if self.join else single_table_statements
        slots = {
            d: [tuple((s, s.text) for s in alternatives) for alternatives in make(d)]
            for d in self.brushed
        }
        kernels = {
            stmt: kernel(stmt, db.result(stmt.view).lineage, ontime, lookups)
            for per_view in slots.values() for alts in per_view for stmt, _ in alts
        }
        ops = make_ops(
            np.random.default_rng(cfg.seed),
            self.warm + self.ops,
            [len(order[d]) for d in self.brushed],
            VIEW_MIX[cfg.workload],
        )
        return State(db, ontime, order, slots, kernels, lineage_bytes, ops)

    def close(self, state: State) -> None:
        pass

    def new_session(self, state: State):
        """A session with every statement prepared (each run once on its
        view's lightest bar), so the timed loop never pays a first parse."""
        session = state.db.session()
        for dimension, per_view in state.slots.items():
            lightest = state.order[dimension][-1:]
            for alternatives in per_view:
                for _, text in alternatives:
                    session.sql(text, params={"bars": lightest})
        return session

    def check_views(self, state: State) -> None:
        """The four view queries and their lineage against numpy."""
        for dimension in VIEW_DIMENSIONS:
            self.tally.attempted += 1
            result = state.db.result(view_name(dimension))
            probes = np.linspace(0, len(result) - 1, 4).astype(np.int64)
            if not view_matches(result, state.ontime, dimension, probes):
                self.tally.fail(f"view {dimension}: rows or lineage differ from numpy")

    # -- the closed loop --------------------------------------------------------

    def op(self, state: State, index: int):
        view, start, width, alternative = state.ops[index]
        dimension = self.brushed[view]
        bars = state.order[dimension][start:start + width]
        stmts = [alts[alternative % len(alts)] for alts in state.slots[dimension]]
        return stmts, bars

    def run_ops(self, state, session, rec, count: int, after_op=None, before_op=None):
        """Run the warm-up and the first ``count`` timed ops of the seeded
        sequence; returns the timed ops' latencies (ms).
        ``before_op(index)`` and ``after_op(index, stmts, bars, results,
        stmt_ms)`` run untimed."""
        warm = self.warm
        guard = Guard(self.cfg.seconds)
        latencies: List[float] = []
        for index in range(warm + count):
            if index == warm:
                guard.start()
            guard.check()
            stmts, bars = self.op(state, index)
            params = {"bars": bars}
            self.tally.attempted += 1
            if before_op is not None:
                before_op(index)
            results, stmt_ms = [], []
            t0 = perf_counter()
            try:
                with rec.span("brush", op=index):
                    for stmt, text in stmts:
                        t1 = perf_counter()
                        with rec.span("session.sql." + stmt.shape):
                            results.append(session.sql(text, params=params))
                        stmt_ms.append((perf_counter() - t1) * 1e3)
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
                self.tally.fail(f"op {index}: {type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - t0
            if index >= warm:
                latencies.append(elapsed * 1e3)
            if after_op is not None:
                after_op(index, stmts, bars, results, stmt_ms)
        return latencies

    def check_op(self, state, index, stmts, bars, results) -> None:
        for (stmt, _), result in zip(stmts, results):
            if not answer_matches(stmt, result.table, state.kernels[stmt](bars)):
                self.tally.fail(f"op {index}: {stmt.shape} answer differs from oracle")
                return

    # -- untraced: the end-to-end metrics ---------------------------------------

    def measure(self, state: State, rec) -> dict:
        self.check_views(state)

        def after_op(index, stmts, bars, results, stmt_ms):
            if index % CHECK_EVERY == 0:
                self.check_op(state, index, stmts, bars, results)

        return latency_metrics(
            self.run_ops(state, self.new_session(state), rec, self.ops, after_op)
        )

    # -- traced: the per-layer metrics ------------------------------------------

    def trace(self, state: State, rec, null_rec) -> dict:
        self.check_views(state)
        plain_session = self.new_session(state)
        plain = self.run_ops(state, plain_session, null_rec, self.ops)
        count = replay_ops(self.ops, BLOCK)
        session = self.new_session(state)
        probe = _Decomposition(self, state, session, rec)
        traced = self.run_ops(state, session, rec, count, probe.after_op, probe.before_op)
        metrics = probe.metrics()
        # From the full-length untraced pass: the tail latency, and the rid
        # cache over more distinct windows than it has entries.
        cache = plain_session.lineage_cache.stats()
        metrics["brush_ms_p95"] = p95(plain)
        metrics["lineage.cache.hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])
        metrics["lineage.cache.entries"] = cache["entries"]
        metrics["lineage_bytes_per_input_row"] = state.lineage_bytes / (
            len(VIEW_DIMENSIONS) * self.rows
        )
        metrics["trace.overhead_x"] = p50(traced) / p50(plain[:count])
        metrics["_samples"] = len(traced)
        return metrics


class _Decomposition:
    """The traced replay's per-op bookkeeping: check every answer, fold
    the engine's counters, and after every :data:`DECOMPOSE_EVERY`-th op
    call into each layer on that op's own statements and bars."""

    def __init__(self, workload: BrushWorkload, state: State, session, rec):
        self.workload, self.state, self.session, self.rec = workload, state, session, rec
        self.warm = workload.warm
        #: warm-cache session for ``Session.sql`` minus ``PreparedQuery.run``
        self.probe_session = state.db.session()
        #: text -> (standalone PreparedQuery with its own cache, bound plan)
        self.prepared: Dict[str, tuple] = {}
        self.statements = self.pushed = self.fallbacks = self.morsel_tasks = 0
        self.chain_counters: Optional[tuple] = None
        self.misses_before = 0
        self.rids: List[int] = []
        self.execute_ms: List[float] = []
        self.unattributed_ms: List[float] = []

    def before_op(self, index: int) -> None:
        self.misses_before = self.session.lineage_cache.misses

    def after_op(self, index, stmts, bars, results, stmt_ms) -> None:
        self.workload.check_op(self.state, index, stmts, bars, results)
        for result in results:
            timings = result.timings
            pushed = int(timings.get(LATE_MAT_SUBTREES, 0))
            self.statements += 1
            self.pushed += pushed
            self.fallbacks += pushed == 0
            self.morsel_tasks += int(timings.get(MORSEL_TASKS, 0))
            if self.chain_counters is None and LATE_MAT_CHAIN_HOPS in timings:
                self.chain_counters = (
                    timings[LATE_MAT_CHAIN_HOPS],
                    timings.get(LATE_MAT_BUILD_SWAPS, 0.0),
                    timings.get(LATE_MAT_PKFK_DETECTED, 0.0),
                )
        if index >= self.warm and index % DECOMPOSE_EVERY == 0:
            self.decompose(index, stmts, bars, stmt_ms)

    def decompose(self, index, stmts, bars, stmt_ms) -> None:
        rec, db, params = self.rec, self.state.db, {"bars": bars}
        misses = self.session.lineage_cache.misses - self.misses_before
        lineage = db.result(stmts[0][0].view).lineage
        t0 = perf_counter()
        with rec.span("lineage.indexes.backward", op=index):
            rids = lineage.backward(bars, "ontime")
        # What the op's Session.sql calls are known to have paid: one CSR
        # walk per cache miss, plus per statement the text normalisation
        # and a warm-cache prepared run.  The rest is unattributed.
        attributed = (perf_counter() - t0) * 1e3 * misses
        self.rids.append(len(rids))
        for stmt, text in stmts:
            t0 = perf_counter()
            with rec.span("sql.normalize", op=index):
                normalize_statement(text)
            attributed += (perf_counter() - t0) * 1e3
            with rec.span("sql.parse_bind", op=index):
                plan = db.parse(text)
            with rec.span("plan.rewrite", op=index):
                precompute_rewrites(plan)
            if text not in self.prepared:
                self.prepared[text] = (db.prepare(text), plan)
            statement, plan = self.prepared[text]
            statement.lineage_cache.invalidate()
            with rec.span("api.prepared_run.miss", op=index):
                statement.run(params)
            t0 = perf_counter()
            with rec.span("api.prepared_run", op=index):
                warm = statement.run(params)
            attributed += (perf_counter() - t0) * 1e3
            self.execute_ms.append(warm.timings[EXECUTE] * 1e3)
            self.probe_session.sql(text, params=params)
            with rec.span("api.session_sql.warm", op=index):
                self.probe_session.sql(text, params=params)
            prefix = f"exec.late_mat.{stmt.shape}."
            with rec.span(prefix + "pushed", op=index):
                db.execute(plan, params=params)
            with rec.span(prefix + "materialized", op=index):
                db.execute(plan, params=params, options=NO_PUSH)
            with rec.span(prefix + "hand_rolled", op=index):
                self.state.kernels[stmt](bars)
        self.unattributed_ms.append((sum(stmt_ms) - attributed) / len(stmts))

    def metrics(self) -> dict:
        ms = self.rec.durations_ms
        run_ms, backward_ms = ms("api.prepared_run"), ms("lineage.indexes.backward")
        metrics = {
            "sql.parse_bind_ms": p50(ms("sql.parse_bind")),
            "sql.normalize_ms": p50(ms("sql.normalize")),
            "plan.rewrite_ms": p50(ms("plan.rewrite")),
            "plan.pushed_subtrees": self.pushed / self.statements,
            "plan.fallback_ratio": self.fallbacks / self.statements,
            "lineage.indexes.backward_ms": p50(backward_ms),
            "lineage.indexes.backward_rids": p50(self.rids),
            "lineage.indexes.backward_ns_per_rid": 1e6 * sum(backward_ms) / max(1, sum(self.rids)),
            "lineage.indexes.memory_bytes": self.state.lineage_bytes,
            "lineage.cache.hit_saves_ms": p50(np.subtract(ms("api.prepared_run.miss"), run_ms)),
            "api.prepared_run_ms": p50(run_ms),
            "api.session_overhead_ms": p50(np.subtract(ms("api.session_sql.warm"), run_ms)),
            "api.execute_ms": p50(self.execute_ms),
            "api.facade_overhead_ms": p50(np.subtract(run_ms, self.execute_ms)),
            "api.register_ms": p50(ms("api.register")),
            "api.unattributed_ms": p50(self.unattributed_ms),
            "exec.morsel.tasks": self.morsel_tasks,
            "storage.create_table_ms": p50(ms("storage.create_table")),
            "datagen.ontime_s": p50(ms("datagen.ontime")) / 1e3,
        }
        for shape in {stmt.shape for stmt in self.state.kernels}:
            prefix = f"exec.late_mat.{shape}."
            pushed, hand = p50(ms(prefix + "pushed")), p50(ms(prefix + "hand_rolled"))
            metrics[prefix + "pushed_ms"] = pushed
            metrics[prefix + "materialized_ms"] = p50(ms(prefix + "materialized"))
            metrics[prefix + "hand_rolled_ms"] = hand
            metrics[prefix + "pushed_over_hand_x"] = pushed / hand
        if self.chain_counters is not None:
            (
                metrics["exec.late_mat.chain_hops"],
                metrics["exec.late_mat.build_swaps"],
                metrics["exec.late_mat.pkfk_detected"],
            ) = self.chain_counters
        return metrics
