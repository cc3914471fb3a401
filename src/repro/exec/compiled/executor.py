"""The compiled (produce/consume) execution engine: a test-only reference.

This engine is the faithful realization of the paper's architecture
(Figure 2, Appendix A): every query block becomes generated Python whose
loops interleave relational work and lineage writes exactly as the
Section 3.2 / Appendix F listings do.  Plans are split into *blocks* at
pipeline breakers — group-by, distinct projection, and set operations —
and each block's local lineage is composed with its children's end-to-end
lineage (Section 3.3 propagation), so only output↔base indexes survive.

The product runs the vector executor only; tests run this engine as the
independent oracle it is checked against.  It materializes every subtree
(including ``Lb``/``Lf`` scans) and shares neither the vector engine's
rid-domain pushed path nor its per-bar memo, so an answer or lineage
comparison against it is evidence about that code rather than a
comparison of the code with itself.  Capture here is always
Inject-shaped; Defer is a scheduling optimization, not a semantic one.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import PlanError
from ...lineage.capture import CaptureConfig
from ...lineage.composer import NodeLineage, compose_node, selection_locals
from ...lineage.indexes import (
    RidArray,
    RidIndex,
    invert_rid_array,
    invert_rid_index,
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
    assign_source_keys,
)
from ...plan.schema import infer_schema, join_output_fields
from ...storage.catalog import Catalog
from ...storage.table import ColumnType, Schema, Table
from ..lineage_scan import execute_lineage_scan
from ..timings import EXECUTE
from ..vector.executor import ExecResult, check_relation_pruning
from .codegen import (
    CodeContext,
    CollectNode,
    Emitter,
    GroupByNode,
    HashJoinNode,
    NestedLoopJoinNode,
    ProjectNode,
    SelectNode,
    SourceNode,
    compile_source,
)
from .setops_ref import reference_setop

_PER_ROW = (Scan, Select, HashJoin, ThetaJoin, CrossProduct)


def _is_per_row(plan: LogicalPlan) -> bool:
    if isinstance(plan, Project):
        return not plan.distinct
    return isinstance(plan, _PER_ROW)


class CompiledExecutor:
    """Executes logical plans via produce/consume Python code generation.

    ``results`` is the registry of named prior query results consulted by
    :class:`~repro.plan.logical.LineageScan` leaves at execution time.
    """

    def __init__(self, catalog: Catalog, results=None):
        self.catalog = catalog
        self.results = results
        self.last_source: Optional[str] = None  # generated code, for tests/docs

    def execute(
        self,
        plan: LogicalPlan,
        capture: Optional[CaptureConfig] = None,
        params: Optional[dict] = None,
    ) -> ExecResult:
        """Run ``plan``, materializing every subtree."""
        config = capture or CaptureConfig.none()
        scan_keys = assign_source_keys(plan)
        # Validate pruning entries up front: a misspelled `relations`
        # entry must not discard a finished (possibly expensive) run.
        check_relation_pruning(config, plan, scan_keys, self.catalog, self.results)
        start = time.perf_counter()
        table, node = _ExecState(self, config, params).run(plan, scan_keys)
        elapsed = time.perf_counter() - start
        lineage = node.to_query_lineage() if config.enabled else None
        return ExecResult(table, lineage, {EXECUTE: elapsed})


class _ExecState:
    def __init__(self, executor: CompiledExecutor, config: CaptureConfig, params):
        self.executor = executor
        self.catalog = executor.catalog
        self.config = config
        self.params = params
        self.scan_keys = None
        self._scan_counter = 0
        self._tmp_counter = 0

    # -- key assignment (must match the vector executor's pre-order scheme) --

    def _next_scan_key(self) -> str:
        key = self.scan_keys[self._scan_counter]
        self._scan_counter += 1
        return key

    def run(self, plan: LogicalPlan, scan_keys) -> Tuple[Table, NodeLineage]:
        # Pre-order key assignment shared with the vector executor, so the
        # two engines agree on occurrence keys by construction.
        self.scan_keys = scan_keys
        return self._exec(plan)

    # -- recursive block execution ---------------------------------------------

    def _exec(self, plan: LogicalPlan) -> Tuple[Table, NodeLineage]:
        if isinstance(plan, SetOp):
            left_t, left_n = self._exec(plan.left)
            right_t, right_n = self._exec(plan.right)
            out, (l_bw, l_fw, r_bw, r_fw) = reference_setop(
                plan.op, plan.all, left_t, right_t, self.config
            )
            node = NodeLineage(output_size=out.num_rows)
            for side, bw, fw in ((left_n, l_bw, l_fw), (right_n, r_bw, r_fw)):
                # Difference captures nothing for B (paper F.5, both bag
                # and set): drop the right side rather than letting its
                # absent locals read as identity maps.
                keep = not (plan.op == "except" and side is right_n)
                node.absorb(side, bw, fw, indexes=keep)
            return out, node

        if isinstance(plan, LineageScan):
            key = self._next_scan_key()
            return execute_lineage_scan(
                plan, key, self.catalog, self.executor.results, self.config,
                self.params,
            )

        if isinstance(plan, Sort):
            child_table, child_node = self._exec(plan.child)
            from ..vector.sort import execute_sort

            out, local_bw, local_fw = execute_sort(child_table, plan, self.config)
            return out, compose_node(out.num_rows, child_node, local_bw, local_fw)

        if isinstance(plan, GroupBy):
            return self._exec_groupby_block(plan, plan.child, plan.keys, plan.aggs, plan.having)

        if isinstance(plan, Project) and plan.distinct:
            return self._exec_groupby_block(plan, plan.child, plan.exprs, (), None)

        if _is_per_row(plan):
            return self._exec_per_row_block(plan)

        raise PlanError(f"compiled backend cannot execute {plan!r}")

    # -- per-row block -------------------------------------------------------------

    def _exec_per_row_block(self, plan: LogicalPlan) -> Tuple[Table, NodeLineage]:
        ctx = CodeContext()
        sources: Dict[str, Dict[str, np.ndarray]] = {}
        child_lineage: Dict[str, NodeLineage] = {}
        emitter, out_schema = self._build_emitter(plan, ctx, sources, child_lineage)
        collect = CollectNode(out_schema.names, sorted(child_lineage))
        collect.setup(ctx)
        _link(emitter, collect)
        emitter.produce(ctx)
        source = ctx.render()
        self.executor.last_source = source
        fn = compile_source(source)
        cols, lins = fn(sources, self.params)
        table = _lists_to_table(cols, out_schema)
        node = self._assemble(table.num_rows, lins, child_lineage, per_row=True)
        return table, node

    def _exec_groupby_block(
        self, plan: LogicalPlan, child: LogicalPlan, keys, aggs, having
    ) -> Tuple[Table, NodeLineage]:
        ctx = CodeContext()
        sources: Dict[str, Dict[str, np.ndarray]] = {}
        child_lineage: Dict[str, NodeLineage] = {}
        emitter, _ = self._build_emitter(child, ctx, sources, child_lineage)
        root = GroupByNode(keys, aggs, sorted(child_lineage), self.params)
        root.setup(ctx)
        _link(emitter, root)
        emitter.produce(ctx)
        source = ctx.render()
        self.executor.last_source = source
        fn = compile_source(source)
        out_schema = infer_schema(plan, self.catalog)
        cols, buckets = fn(sources, self.params)
        table = _lists_to_table(cols, out_schema)
        node = self._assemble(table.num_rows, buckets, child_lineage, per_row=False)
        if having is not None:
            from ...expr.ast import evaluate

            keep = np.asarray(evaluate(having, table, self.params), dtype=bool)
            kept = np.nonzero(keep)[0].astype(np.int64)
            local_bw, local_fw = selection_locals(kept, keep.shape[0], self.config)
            table = table.take(kept)
            node = compose_node(
                table.num_rows, node, local_bw, local_fw
            ) if self.config.enabled else NodeLineage(output_size=table.num_rows)
        return table, node

    # -- emitter construction ---------------------------------------------------------

    def _build_emitter(
        self,
        plan: LogicalPlan,
        ctx: CodeContext,
        sources: Dict[str, Dict[str, np.ndarray]],
        child_lineage: Dict[str, NodeLineage],
    ) -> Tuple[Emitter, Schema]:
        """Build the per-row emitter tree for ``plan``; breaker children are
        materialized recursively and become block sources."""
        if isinstance(plan, Scan):
            key = self._next_scan_key()
            table, epoch = self.catalog.get_versioned(plan.table)
            src_name = key
            sources[src_name] = table.columns()
            captured = self.config.captures_relation(key, plan.table, plan.alias)
            lineage_key = src_name if (self.config.enabled and captured) else None
            if lineage_key:
                child_lineage[src_name] = NodeLineage.for_scan(
                    key,
                    plan.table,
                    table.num_rows,
                    backward=self.config.backward,
                    forward=self.config.forward,
                    alias=plan.alias,
                    epoch=epoch,
                )
            return SourceNode(src_name, table.schema.names, lineage_key), table.schema

        if isinstance(plan, Select):
            child, schema = self._build_emitter(plan.child, ctx, sources, child_lineage)
            node = SelectNode(plan.predicate, self.params)
            _link(child, node)
            node.child = child
            return node, schema

        if isinstance(plan, Project) and not plan.distinct:
            child, schema = self._build_emitter(plan.child, ctx, sources, child_lineage)
            node = ProjectNode(plan.exprs, self.params)
            _link(child, node)
            node.child = child
            out_schema = infer_schema(plan, self.catalog) if isinstance(plan.child, Scan) else None
            # infer via expression types against child schema:
            from ...plan.schema import infer_expr_type

            out_schema = Schema(
                [(alias, infer_expr_type(e, schema)) for e, alias in plan.exprs]
            )
            return node, out_schema

        if isinstance(plan, (HashJoin, ThetaJoin, CrossProduct)):
            left, left_schema = self._build_emitter(plan.left, ctx, sources, child_lineage)
            right, right_schema = self._build_emitter(plan.right, ctx, sources, child_lineage)
            fields = join_output_fields(left_schema, right_schema)
            out_schema = Schema([(n, t) for n, t, _ in fields])
            rename = {
                out_name: src
                for (out_name, _, side), src in zip(
                    fields, left_schema.names + right_schema.names, strict=True
                )
                if side == "right"
            }
            if isinstance(plan, HashJoin):
                node = HashJoinNode(plan.left_keys, plan.right_keys, plan.pkfk, rename)
            else:
                predicate = plan.predicate if isinstance(plan, ThetaJoin) else None
                node = NestedLoopJoinNode(predicate, rename, self.params)
            node.left = left
            node.right = right
            _link(left, node)
            _link(right, node)
            return node, out_schema

        # Breaker child: materialize and register as an intermediate source.
        return self._materialized_source(plan, sources, child_lineage)

    def _materialized_source(
        self,
        plan: LogicalPlan,
        sources: Dict[str, Dict[str, np.ndarray]],
        child_lineage: Dict[str, NodeLineage],
    ) -> Tuple[Emitter, Schema]:
        """Execute a subtree eagerly and register its output (and lineage)
        as a block source — breaker children and lineage scans."""
        table, node_lineage = self._exec(plan)
        src_name = f"__tmp{self._tmp_counter}"
        self._tmp_counter += 1
        sources[src_name] = table.columns()
        has_lineage = self.config.enabled and (
            node_lineage.backward or node_lineage.forward
        )
        if has_lineage:
            child_lineage[src_name] = node_lineage
        return (
            SourceNode(src_name, table.schema.names, src_name if has_lineage else None),
            table.schema,
        )

    # -- lineage assembly ---------------------------------------------------------------

    def _assemble(
        self,
        n_out: int,
        lins: Dict[str, list],
        child_lineage: Dict[str, NodeLineage],
        per_row: bool,
    ) -> NodeLineage:
        node = NodeLineage(output_size=n_out)
        if not self.config.enabled:
            return node
        for src_name, child in child_lineage.items():
            if per_row:
                values = np.asarray(lins[src_name], dtype=np.int64)
                local_bw = RidArray(values)
                local_fw = invert_rid_array(local_bw, child.output_size)
            else:
                buckets = lins[src_name]
                local_bw = RidIndex.from_buckets(
                    [np.asarray(b, dtype=np.int64) for b in buckets]
                )
                # A block-source row can reach *several* groups when an
                # m:n join sits inside the block (one probe row fans out
                # to many join outputs, which may land in different
                # buckets), so the local forward map is 1-to-N: invert
                # the bucket index rather than scattering into a rid
                # array, where later groups would overwrite earlier ones.
                local_fw = invert_rid_index(local_bw, child.output_size)
            node.absorb(child, local_bw, local_fw)
        return node


def _link(child: Emitter, parent: Emitter) -> None:
    child.parent = parent


def _lists_to_table(cols: Dict[str, list], schema: Schema) -> Table:
    arrays = {}
    for name, ctype in schema.fields:
        values = cols[name]
        if ctype is ColumnType.STR:
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
        else:
            arr = np.asarray(values, dtype=ctype.numpy_dtype)
        arrays[name] = arr
    return Table(arrays, schema)
