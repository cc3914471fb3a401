"""The vectorized execution engine with integrated lineage capture.

``VectorExecutor.execute`` walks a logical plan bottom-up.  Every operator
computes its output *and* its local lineage in the same pass (tight
integration, principle P1) and immediately rewrites that local lineage in
terms of base-relation rids via :mod:`repro.lineage.composer` (Section 3.3
propagation) — intermediate indexes are never retained.

The result is an :class:`ExecResult`: the output table, a
:class:`~repro.lineage.capture.QueryLineage` handle (unless capture was
off), and a timing breakdown separating base-query time from deferred
finalization time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...errors import LineageError, PlanError
from ...lineage.capture import (
    CaptureConfig,
    QueryLineage,
    unmatched_capture_relations,
)
from ...lineage.composer import (
    NodeLineage,
    compose_node,
    drop_setop_right_indexes,
    merge_binary,
)
from ...plan.logical import (
    CrossProduct,
    GroupBy,
    HashJoin,
    LineageScan,
    LogicalPlan,
    Project,
    Scan,
    Select,
    SetOp,
    Sort,
    ThetaJoin,
    source_leaves,
)
from ..late_mat import PushedStats, execute_pushed, fold_push_stats
from ..lineage_scan import execute_lineage_scan
from ..timings import EXECUTE
from ...lineage.cache import LineageResolutionCache
from ...plan.rewrite import RewriteIndex
from ...plan.schema import infer_schema, join_output_fields
from ...storage.catalog import Catalog
from ...storage.table import Table
from .groupby import execute_distinct, execute_groupby
from .join import compute_matches, join_lineage_locals, materialize_join_output
from .nested import cross_product_lineage, theta_lineage_locals, theta_matches
from .select import execute_select
from .setops import execute_setop
from .sort import execute_sort


@dataclass
class ExecResult:
    """Output of one instrumented query execution."""

    table: Table
    lineage: Optional[QueryLineage]
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def execute_seconds(self) -> float:
        """Wall time of the (instrumented) base query."""
        return self.timings.get(EXECUTE, 0.0)

    @property
    def finalize_seconds(self) -> float:
        """Deferred-capture time spent so far (Defer mode only)."""
        return self.lineage.finalize_seconds if self.lineage else 0.0

    @property
    def total_seconds(self) -> float:
        """Base query + (so far) finalized deferred capture."""
        return self.execute_seconds + self.finalize_seconds


@dataclass
class _RunState:
    """Per-execution traversal state: the pre-order occurrence-key
    cursor, whether the late-materialization rewrite is enabled for this
    run, and what its pushed subtrees did.  Local to one ``execute`` call
    so runs can never clobber each other's settings (the compiled
    backend's ``_ExecState`` plays the same role).

    ``rewrites`` is the plan's :class:`~repro.plan.rewrite.RewriteIndex`
    (a prepared statement's, or one built for this run): the rewrite
    decision and the required columns of every node.  ``cache`` is the
    database's per-bar memo cache, threaded down to the pushed path.
    """

    rewrites: RewriteIndex
    late_mat: bool = True
    scan_cursor: int = 0
    cache: Optional[LineageResolutionCache] = None
    push_stats: PushedStats = field(default_factory=PushedStats)

    def next_key(self, scan_keys: List[str]) -> str:
        key = scan_keys[self.scan_cursor]
        self.scan_cursor += 1
        return key

    def match(self, plan: LogicalPlan):
        """The late-materialization decision for ``plan``."""
        return self.rewrites.lookup(plan) if self.late_mat else None

    def columns(self, plan: LogicalPlan):
        """The output columns of ``plan`` its parent reads (``None``: all)."""
        return self.rewrites.required.of(plan)


class VectorExecutor:
    """Executes logical plans over a catalog with configurable capture.

    ``results`` is the (live) registry of named prior query results that
    :class:`~repro.plan.logical.LineageScan` leaves resolve against.
    """

    def __init__(self, catalog: Catalog, results=None):
        self.catalog = catalog
        self.results = results

    # -- public API --------------------------------------------------------------

    def execute(
        self,
        plan: LogicalPlan,
        capture: Optional[CaptureConfig] = None,
        params: Optional[dict] = None,
        late_materialize: bool = True,
        rewrites: Optional[RewriteIndex] = None,
        lineage_cache: Optional[LineageResolutionCache] = None,
    ) -> ExecResult:
        """Run ``plan``.  ``rewrites`` / ``lineage_cache`` are the
        prepared-statement fast-path handles: the plan's precomputed
        :class:`~repro.plan.rewrite.RewriteIndex` (built here per run
        without one) and the database's per-bar memo cache (brushes over
        a GROUP BY view merge memoized partials, see
        :func:`~repro.exec.late_mat.execute_pushed`)."""
        config = capture or CaptureConfig.none()
        rewrites = rewrites if rewrites is not None else RewriteIndex(plan)
        scan_keys = rewrites.source_keys
        # Validate pruning entries up front: a misspelled `relations`
        # entry must not discard a finished (possibly expensive) run.
        check_relation_pruning(config, plan, scan_keys, self.catalog, self.results)
        state = _RunState(
            late_mat=bool(late_materialize),
            rewrites=rewrites,
            cache=lineage_cache,
        )
        start = time.perf_counter()
        table, node = self._run(plan, config, params, scan_keys, state)
        elapsed = time.perf_counter() - start
        lineage = node.to_query_lineage() if config.enabled else None
        timings = {EXECUTE: elapsed}
        fold_push_stats(timings, state.push_stats)
        return ExecResult(table, lineage, timings)

    # -- helpers -------------------------------------------------------------------

    def _run(
        self,
        plan: LogicalPlan,
        config: CaptureConfig,
        params: Optional[dict],
        scan_keys: List[str],
        state: "_RunState",
    ) -> Tuple[Table, NodeLineage]:
        # Late materialization: a Select/Project/GroupBy tree over a
        # lineage scan — or over a hash join with lineage-backed inputs —
        # runs in the rid domain instead of scanning a materialized
        # subset.  Occurrence keys are consumed per lineage leaf through
        # next_key (pre-order), and a join's non-lineage input runs
        # through this very recursion via run_child.
        pushed = state.match(plan)
        if pushed is not None:
            return execute_pushed(
                pushed, self.catalog, self.results, config, params,
                next_key=lambda: state.next_key(scan_keys),
                run_child=lambda p: self._run(p, config, params, scan_keys, state),
                cache=state.cache,
                stats=state.push_stats,
            )

        if isinstance(plan, Scan):
            key = state.next_key(scan_keys)
            table, epoch = self.catalog.get_versioned(plan.table)
            captured = config.captures_relation(key, plan.table, plan.alias)
            node = NodeLineage.for_scan(
                key,
                plan.table,
                table.num_rows,
                backward=config.backward and captured,
                forward=config.forward and captured,
                alias=plan.alias,
                epoch=epoch,
            )
            return table, node

        if isinstance(plan, LineageScan):
            key = state.next_key(scan_keys)
            return execute_lineage_scan(
                plan, key, self.catalog, self.results, config, params,
                columns=state.columns(plan),
            )

        if isinstance(plan, Select):
            child_table, child_node = self._run(
                plan.child, config, params, scan_keys, state
            )
            out, local_bw, local_fw = execute_select(
                child_table, plan.predicate, config, params,
                columns=state.columns(plan),
            )
            node = compose_node(out.num_rows, child_node, local_bw, local_fw)
            return out, node

        if isinstance(plan, Sort):
            child_table, child_node = self._run(
                plan.child, config, params, scan_keys, state
            )
            out, local_bw, local_fw = execute_sort(
                child_table, plan, config, columns=state.columns(plan)
            )
            node = compose_node(out.num_rows, child_node, local_bw, local_fw)
            return out, node

        if isinstance(plan, Project):
            child_table, child_node = self._run(
                plan.child, config, params, scan_keys, state
            )
            return self._project(plan, child_table, child_node, config, params)

        if isinstance(plan, GroupBy):
            child_table, child_node = self._run(
                plan.child, config, params, scan_keys, state
            )
            schema = infer_schema(plan, self.catalog)
            out, local_bw, local_fw = execute_groupby(
                child_table, plan, config, params, schema
            )
            node = compose_node(out.num_rows, child_node, local_bw, local_fw)
            return out, node

        if isinstance(plan, HashJoin):
            left_table, left_node = self._run(
                plan.left, config, params, scan_keys, state
            )
            right_table, right_node = self._run(
                plan.right, config, params, scan_keys, state
            )
            matches = compute_matches(
                [left_table.column(k) for k in plan.left_keys],
                [right_table.column(k) for k in plan.right_keys],
                plan.pkfk,
            )
            fields = join_output_fields(left_table.schema, right_table.schema)
            src_names = left_table.schema.names + right_table.schema.names
            out = materialize_join_output(
                left_table,
                right_table,
                matches,
                [(n, s) for (n, _, _), s in zip(fields, src_names, strict=True)],
                columns=state.columns(plan),
            )
            l_bw, l_fw, r_bw, r_fw = join_lineage_locals(matches, config, plan.pkfk)
            node = merge_binary(
                out.num_rows, left_node, right_node, l_bw, l_fw, r_bw, r_fw
            )
            return out, node

        if isinstance(plan, ThetaJoin):
            left_table, left_node = self._run(
                plan.left, config, params, scan_keys, state
            )
            right_table, right_node = self._run(
                plan.right, config, params, scan_keys, state
            )
            fields = join_output_fields(left_table.schema, right_table.schema)
            src_names = left_table.schema.names + right_table.schema.names
            combined_names = [(n, s) for (n, _, _), s in zip(fields, src_names, strict=True)]
            matches = theta_matches(
                left_table, right_table, plan.predicate, combined_names, params
            )
            out = materialize_join_output(
                left_table, right_table, matches, combined_names
            )
            l_bw, l_fw, r_bw, r_fw = theta_lineage_locals(matches, config)
            node = merge_binary(
                out.num_rows, left_node, right_node, l_bw, l_fw, r_bw, r_fw
            )
            return out, node

        if isinstance(plan, CrossProduct):
            left_table, left_node = self._run(
                plan.left, config, params, scan_keys, state
            )
            right_table, right_node = self._run(
                plan.right, config, params, scan_keys, state
            )
            n_left, n_right = left_table.num_rows, right_table.num_rows
            fields = join_output_fields(left_table.schema, right_table.schema)
            src_names = left_table.schema.names + right_table.schema.names
            columns = {}
            for i, ((out_name, _, _), src) in enumerate(zip(fields, src_names, strict=True)):
                if i < len(left_table.schema.names):
                    columns[out_name] = np.repeat(left_table.column(src), n_right)
                else:
                    columns[out_name] = np.tile(right_table.column(src), n_left)
            out = Table(columns)
            l_bw, l_fw, r_bw, r_fw = cross_product_lineage(n_left, n_right, config)
            node = merge_binary(
                out.num_rows, left_node, right_node, l_bw, l_fw, r_bw, r_fw
            )
            return out, node

        if isinstance(plan, SetOp):
            left_table, left_node = self._run(
                plan.left, config, params, scan_keys, state
            )
            right_table, right_node = self._run(
                plan.right, config, params, scan_keys, state
            )
            out, (l_bw, l_fw, r_bw, r_fw) = execute_setop(
                plan.op, plan.all, left_table, right_table, config
            )
            node = merge_binary(
                out.num_rows, left_node, right_node, l_bw, l_fw, r_bw, r_fw
            )
            if plan.op == "except":
                # No lineage for B (paper F.5): every output depends on all
                # of B, so Smoke answers those queries with a scan instead.
                drop_setop_right_indexes(node, left_node, right_node)
            return out, node

        raise PlanError(f"vector backend cannot execute {plan!r}")

    def _project(
        self,
        plan: Project,
        child_table: Table,
        child_node: NodeLineage,
        config: CaptureConfig,
        params: Optional[dict],
    ) -> Tuple[Table, NodeLineage]:
        from ...expr.ast import evaluate

        schema = infer_schema(plan, self.catalog)
        columns = {
            alias: np.asarray(evaluate(expr, child_table, params))
            for expr, alias in plan.exprs
        }
        projected = Table(columns, schema)
        if not plan.distinct:
            # Bag projection needs no capture: rids are unchanged (3.2.1).
            node = compose_node(projected.num_rows, child_node, None, None)
            return projected, node
        output, local_bw, local_fw = execute_distinct(projected, config)
        node = compose_node(output.num_rows, child_node, local_bw, local_fw)
        return output, node


def check_relation_pruning(
    config: CaptureConfig,
    plan: LogicalPlan,
    scan_keys: List[str],
    catalog: Optional[Catalog] = None,
    results=None,
) -> None:
    """Raise when a ``relations`` pruning entry matched no scanned
    relation (by key, base name, or alias) — the alternative is a lineage
    handle that silently captured nothing."""
    if not config.enabled or not config.relations:
        return
    sources = []
    for key, leaf in zip(scan_keys, source_leaves(plan), strict=True):
        if isinstance(leaf, Scan):
            sources.append((key, leaf.table, leaf.alias))
        else:
            sources.append((key, _lineage_scan_name(leaf, catalog, results), leaf.alias))
    missing = unmatched_capture_relations(config, sources)
    if missing:
        scanned = sorted({name for _, name, _ in sources})
        raise LineageError(
            f"capture relations {missing} matched no scanned relation "
            f"(scanned: {scanned}); use the table name, its SQL alias, or "
            f"an occurrence key like 'name#0'"
        )


def _lineage_scan_name(leaf: LineageScan, catalog, results) -> str:
    """The base-table name a lineage scan registers its lineage under —
    resolved like execution does, falling back to the literal reference
    when resolution is not possible here (execution will then raise its
    own, more specific error)."""
    if leaf.direction != "backward" or catalog is None:
        return leaf.source_name
    from ...errors import ReproError
    from ..lineage_scan import resolve_base_table

    try:
        result = results[leaf.result] if results else None
        if result is not None and result.lineage is not None:
            return resolve_base_table(catalog, result.lineage, leaf.relation)
    except (ReproError, KeyError):
        pass
    return leaf.source_name
