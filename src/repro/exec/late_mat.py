"""Late-materializing execution of lineage-scan trees (rid domain).

Runs a :class:`~repro.plan.rewrite.PushedLineageQuery` — a
``[Project?][GroupBy?][Select*]`` tree over one
:class:`~repro.plan.logical.LineageScan` or over a flattened **chain**
(or snowflake tree) of hash equi-joins with lineage-backed leaves —
without ever materializing the traced subset *or any intermediate join
output*:

1. resolve the traced rid array(s) against the result registry
   (:func:`repro.exec.lineage_scan.resolve_scan_source`, so every
   schema-drift and shrink guard of the materializing path applies);
2. evaluate pushed predicates on rid-gathered slices of **only the
   predicates' columns**, narrowing the rid arrays to survivors;
3. for a join core, probe the chain hop by hop: each hop gathers **only
   its join keys** through the per-leaf position arrays accumulated so
   far (:func:`~repro.exec.vector.join.compute_matches_oriented`),
   picks its hash-build side from cardinality statistics
   (:func:`~repro.substrate.stats.choose_build_side` — the pk-fk fast
   probe when one side's keys are known unique, e.g. a lineage scan
   over a dimension table), and composes the match arrays into the
   position arrays — a join output row is represented as one position
   per leaf, never as materialized payload;
4. gather the columns the output actually needs — group keys and
   aggregate arguments, projection inputs, or (predicate-only trees)
   the full core schema — at the *final surviving* positions only, and
   feed the aggregation / DISTINCT kernels that narrow slice table
   (:func:`~repro.exec.vector.groupby.execute_groupby` /
   :func:`~repro.exec.vector.groupby.execute_distinct`).

Both backends funnel through :func:`execute_pushed` — exactly like
:func:`~repro.exec.lineage_scan.execute_lineage_scan` — so the pushed
path is backend-agnostic by construction.  ``run_child`` hands plain
(non-lineage) chain leaves back to the calling backend's own recursion
(so e.g. a derived-table join input executes — and possibly pushes —
exactly as it would outside the rewrite), and ``next_key`` consumes the
backend's pre-order occurrence keys, one per lineage leaf.

Output rows *and* captured lineage are bit-identical to the
materializing path: composing the scan's rid-array lineage with a
selection's local rid array *is* the filtered rid array, so
:func:`~repro.exec.lineage_scan.scan_node_lineage` over the surviving
rids equals the materialized path's ``compose_node(select, scan)``;
every chain hop composes its (canonical-order) match arrays through the
same :func:`~repro.exec.vector.join.join_lineage_locals` /
:func:`~repro.lineage.composer.merge_binary` calls the vector executor
makes — a swapped build side re-sorts its matches back into canonical
probe order first — and aggregation / DISTINCT stages compose through
the same :func:`~repro.lineage.composer.compose_node`.  The property
suites (``tests/property/test_prop_late_mat.py``,
``tests/property/test_prop_late_mat_join.py``,
``tests/property/test_prop_late_mat_chain.py``) assert this equivalence
over random trees and chains on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError
from ..lineage.cache import LineageResolutionCache
from ..lineage.capture import CaptureConfig
from ..lineage.composer import (
    NodeLineage,
    compose_node,
    merge_binary,
    selection_locals,
)
from ..plan.logical import LogicalPlan, Scan, Select
from ..plan.rewrite import PushedJoin, PushedJoinHop, PushedJoinSide, PushedLineageQuery
from ..plan.schema import infer_expr_type, infer_schema, join_output_fields
from ..storage.catalog import Catalog
from ..storage.table import ColumnType, Schema, Table
from ..substrate.stats import (
    UNIQUENESS_PROBE_MAX_ROWS,
    JoinSideStats,
    choose_build_side,
)
from .lineage_scan import resolve_scan_source, scan_node_lineage
from .timings import (
    LATE_MAT_BUILD_SWAPS,
    LATE_MAT_CHAIN_HOPS,
    LATE_MAT_PKFK_DETECTED,
)

#: Executes one plan subtree through the calling backend's own recursion
#: (used for the plain, non-lineage leaves of a pushed join chain).
RunChild = Callable[[LogicalPlan], Tuple[Table, NodeLineage]]


@dataclass
class PushedStats:
    """Runtime decisions of one execution's pushed cores, surfaced by the
    executors as ``timings`` counters so tests and benchmarks can assert
    *what* ran (chain flattening, build-side swaps, detected pk-fk
    probes) without timing anything."""

    chain_hops: int = 0  # joins flattened beyond the first, per core
    build_swaps: int = 0  # hops that built on the plan-right side
    pkfk_detected: int = 0  # hops upgraded to the pk-fk probe by stats


def fold_push_stats(timings: Dict[str, float], stats: PushedStats) -> None:
    """Surface a run's pushed-chain decisions as ``timings`` counters
    (both backends call this): ``late_mat_chain_hops`` counts joins
    flattened beyond each core's first (PR 4 materialized at those
    hops), ``late_mat_build_swaps`` hops that built on the plan-right
    side, and ``late_mat_pkfk_detected`` hops upgraded to the pk-fk
    probe by column statistics alone."""
    if stats.chain_hops:
        timings[LATE_MAT_CHAIN_HOPS] = float(stats.chain_hops)
    if stats.build_swaps:
        timings[LATE_MAT_BUILD_SWAPS] = float(stats.build_swaps)
    if stats.pkfk_detected:
        timings[LATE_MAT_PKFK_DETECTED] = float(stats.pkfk_detected)


def _slice_names(source: Table, columns) -> List[str]:
    """The source columns to gather, in schema order (deterministic
    narrow schema), or one cheap stand-in column when the stage reads
    none (``SELECT COUNT(*)``, constant predicates) — a zero-column
    :class:`Table` cannot carry a row count."""
    names = [n for n in source.schema.names if n in columns]
    missing = sorted(set(columns) - set(source.schema.names))
    if missing:
        # Same canonical unknown-column error the materializing path's
        # operators would raise when evaluating over the full subset.
        source.column(missing[0])
    if names:
        return names
    for name, ctype in source.schema.fields:
        if ctype is not ColumnType.STR:
            return [name]
    return source.schema.names[:1]


def _gather(source: Table, rids: np.ndarray, names: Sequence[str]) -> Table:
    """Narrow gather: one fancy-index per listed column, nothing else."""
    return Table(
        {n: source.column(n)[rids] for n in names},
        Schema([(n, source.schema.type_of(n)) for n in names]),
    )


class _JoinInput:
    """One resolved leaf of a pushed join chain: either a lineage leaf
    held as ``(source, rids)`` — rows are *never* materialized here,
    payload columns are gathered through ``rids`` at chain-surviving
    positions only — or a plain leaf already executed to a table.

    ``base_table`` names the catalog relation the leaf's row *positions*
    index into (the traced base table of a backward scan, or the scanned
    table of a plain ``[Select*] Scan`` leaf); the chain executor uses it
    to consult column statistics for build-side and pk-fk decisions.
    ``None`` means no base-table statistics apply (forward scans, derived
    tables, nested plans).
    """

    __slots__ = ("source", "rids", "table", "node", "base_table")

    def __init__(self, source=None, rids=None, table=None, node=None, base_table=None):
        self.source = source
        self.rids = rids
        self.table = table
        self.node = node
        self.base_table = base_table

    @property
    def schema(self) -> Schema:
        # The *full* leaf schema: join-output renaming must see every
        # column, exactly as the materializing path's subset table would.
        return (self.source if self.table is None else self.table).schema

    @property
    def num_rows(self) -> int:
        if self.table is not None:
            return self.table.num_rows
        return int(self.rids.shape[0])


class _ChainState:
    """A (partially joined) chain node held in the position domain.

    Rather than materializing a join output, the chain executor carries
    one position array per underlying leaf: output row ``i`` of this
    node is the combination of ``positions[k][i]`` for every leaf ``k``
    (``None`` = identity, a leaf not yet joined or filtered).  Columns
    are gathered through these arrays on demand — join keys per hop,
    predicate slices per pushed ``Select``, payload only once at the
    chain root — so unmatched rows never surface any payload and
    intermediate hops move nothing but ``int64`` positions.
    """

    __slots__ = ("inputs", "positions", "num_rows", "schema", "origins", "node", "_index")

    def __init__(
        self,
        inputs: List[_JoinInput],
        positions: List[Optional[np.ndarray]],
        num_rows: int,
        schema: Schema,
        origins: List[Tuple[int, str]],
        node: NodeLineage,
    ):
        self.inputs = inputs
        self.positions = positions
        self.num_rows = num_rows
        self.schema = schema
        self.origins = origins  # per output column: (leaf index, leaf column)
        self.node = node
        self._index: Dict[str, int] = {n: i for i, n in enumerate(schema.names)}

    @classmethod
    def for_leaf(cls, leaf: _JoinInput) -> "_ChainState":
        schema = leaf.schema
        return cls(
            [leaf],
            [None],
            leaf.num_rows,
            schema,
            [(0, name) for name in schema.names],
            leaf.node,
        )

    def column_values(self, name: str) -> np.ndarray:
        """One output column of this chain node, gathered through the
        leaf's position array (never more rows than currently survive)."""
        idx = self._index.get(name)
        if idx is None:
            # Canonical unknown-column error, as the materializing path's
            # operators raise over the full join output.
            raise SchemaError(
                f"unknown column {name!r}; available: {self.schema.names}"
            )
        leaf_idx, src = self.origins[idx]
        leaf = self.inputs[leaf_idx]
        pos = self.positions[leaf_idx]
        if leaf.table is not None:
            values = leaf.table.column(src)
            return values if pos is None else values[pos]
        base = leaf.source.column(src)
        if pos is None:
            return base[leaf.rids]
        return base[leaf.rids[pos]]

    def key_stats(self, keys: Sequence[str], catalog: Catalog) -> JoinSideStats:
        """Cardinality + key-uniqueness statistics for this node as one
        join input.  Uniqueness is only derivable for single-leaf nodes
        (joins may fan rows out) whose positions are subsets of a catalog
        base table: a unique base column stays unique under any subset
        gather, which covers the ``Lb``-over-dimension-table fast path.
        """
        unique: Optional[bool] = None
        if len(self.inputs) == 1 and self.inputs[0].base_table is not None:
            base = self.inputs[0].base_table
            base_rows = catalog.get_versioned(base)[0].num_rows
            if base_rows <= UNIQUENESS_PROBE_MAX_ROWS:
                # Deriving uniqueness scans the base column once per
                # epoch; keep that cold hit out of interactive statements
                # over huge relations (cardinality still decides there).
                for key in keys:
                    idx = self._index.get(key)
                    if idx is None:
                        continue  # the probe will raise the canonical error
                    stats = catalog.column_stats(base, self.origins[idx][1])
                    if stats.is_unique:
                        unique = True
                        break
        return JoinSideStats(rows=self.num_rows, keys_unique=unique)

    def narrow(self, kept: np.ndarray, node: NodeLineage) -> "_ChainState":
        """Keep only the listed output rows (a pushed ``Select``)."""
        return _ChainState(
            self.inputs,
            [kept if p is None else p[kept] for p in self.positions],
            int(kept.shape[0]),
            self.schema,
            self.origins,
            node,
        )


def _plain_base_table(plan: LogicalPlan) -> Optional[str]:
    """The catalog table behind a plain ``[Select*] Scan`` leaf (filters
    preserve column uniqueness), else ``None``."""
    while isinstance(plan, Select):
        plan = plan.child
    return plan.table if isinstance(plan, Scan) else None


class _ChainContext:
    """Execution-scoped handles threaded through the chain recursion."""

    __slots__ = (
        "catalog", "results", "config", "params",
        "next_key", "run_child", "cache", "stats",
    )

    def __init__(
        self, catalog, results, config, params, next_key, run_child, cache, stats
    ):
        self.catalog = catalog
        self.results = results
        self.config = config
        self.params = params
        self.next_key = next_key
        self.run_child = run_child
        self.cache = cache
        self.stats = stats


def _resolve_scan_side(
    side: PushedJoinSide,
    key: str,
    catalog: Catalog,
    results: Optional[Mapping[str, object]],
    config: CaptureConfig,
    params: Optional[dict],
    cache: Optional[LineageResolutionCache],
) -> _JoinInput:
    """Resolve a lineage-backed chain leaf to ``(source, surviving rids)``
    plus its node lineage, filtering in the rid domain (identical to the
    linear pushed path's scan+Select handling)."""
    from ..expr.ast import evaluate

    source, rids, source_name, domain, epoch = resolve_scan_source(
        side.scan, catalog, results, params, cache
    )
    if side.predicate is not None:
        pred_table = _gather(
            source, rids, _slice_names(source, side.predicate.columns())
        )
        mask = np.asarray(
            evaluate(side.predicate, pred_table, params), dtype=bool
        )
        rids = rids[mask]
    node = scan_node_lineage(
        side.scan, key, rids, source_name, domain, config, epoch
    )
    return _JoinInput(
        source=source,
        rids=rids,
        node=node,
        # Positions of a backward scan index the traced base relation, so
        # that relation's column statistics transfer to the gathered keys.
        base_table=source_name if side.scan.direction == "backward" else None,
    )


def _chain_select(
    state: _ChainState,
    predicate,
    config: CaptureConfig,
    params: Optional[dict],
) -> _ChainState:
    """A pushed ``Select`` over a chain node, in the position domain:
    gather only the predicate's columns, narrow every leaf's positions to
    the passing rows, and compose the same 1-to-1 selection locals the
    materializing path's :func:`~repro.exec.vector.select.execute_select`
    builds."""
    from ..expr.ast import evaluate

    referenced = predicate.columns()
    names = [n for n in state.schema.names if n in referenced]
    missing = sorted(set(referenced) - set(state.schema.names))
    if missing:
        raise SchemaError(
            f"unknown column {missing[0]!r}; available: {state.schema.names}"
        )
    if not names:
        # Constant predicate: one cheap stand-in column carries the rows.
        names = _slice_names(_StandInSchema(state.schema), referenced)
    pred_table = Table(
        {n: state.column_values(n) for n in names},
        Schema([(n, state.schema.type_of(n)) for n in names]),
    )
    mask = np.asarray(evaluate(predicate, pred_table, params), dtype=bool)
    kept = np.nonzero(mask)[0].astype(np.int64)
    local_bw, local_fw = selection_locals(kept, mask.shape[0], config)
    node = compose_node(int(kept.shape[0]), state.node, local_bw, local_fw)
    return state.narrow(kept, node)


class _StandInSchema:
    """Adapter exposing a chain node's schema to :func:`_slice_names`
    (which only reads ``.schema`` and raises through ``.column``)."""

    __slots__ = ("schema",)

    def __init__(self, schema: Schema):
        self.schema = schema

    def column(self, name: str):
        raise SchemaError(
            f"unknown column {name!r}; available: {self.schema.names}"
        )


def _run_hop(hop: PushedJoinHop, ctx: _ChainContext) -> _ChainState:
    """Execute one chain hop (leaf or join) to a position-domain node."""
    if isinstance(hop, PushedJoin):
        left = _run_hop(hop.left, ctx)
        right = _run_hop(hop.right, ctx)
        state = _join_states(hop, left, right, ctx)
        if hop.predicate is not None:
            state = _chain_select(state, hop.predicate, ctx.config, ctx.params)
        return state
    if hop.scan is not None:
        leaf = _resolve_scan_side(
            hop, ctx.next_key(), ctx.catalog, ctx.results,
            ctx.config, ctx.params, ctx.cache,
        )
    else:
        table, node = ctx.run_child(hop.plan)
        leaf = _JoinInput(
            table=table, node=node, base_table=_plain_base_table(hop.plan)
        )
    return _ChainState.for_leaf(leaf)


def _join_states(
    hop: PushedJoin, left: _ChainState, right: _ChainState, ctx: _ChainContext
) -> _ChainState:
    """One hash-join hop over two chain nodes: narrow key probe with a
    stats-chosen build side, position composition, and the same
    local-lineage merge the vector executor performs."""
    from .vector.join import compute_matches_oriented, join_lineage_locals

    join = hop.join
    left_keys = [left.column_values(k) for k in join.left_keys]
    right_keys = [right.column_values(k) for k in join.right_keys]
    decision = choose_build_side(
        left.key_stats(join.left_keys, ctx.catalog),
        right.key_stats(join.right_keys, ctx.catalog),
        join.pkfk,
    )
    if ctx.stats is not None:
        if decision.swapped:
            ctx.stats.build_swaps += 1
        if decision.pkfk and not join.pkfk:
            ctx.stats.pkfk_detected += 1
    matches = compute_matches_oriented(
        left_keys, right_keys, decision.build_left, decision.pkfk
    )

    fields = join_output_fields(left.schema, right.schema)
    n_left_cols = len(left.schema.names)
    origins: List[Tuple[int, str]] = []
    for i in range(len(fields)):
        if i < n_left_cols:
            origins.append(left.origins[i])
        else:
            leaf_idx, src = right.origins[i - n_left_cols]
            origins.append((leaf_idx + len(left.inputs), src))
    positions = [
        matches.out_left if p is None else p[matches.out_left]
        for p in left.positions
    ] + [
        matches.out_right if p is None else p[matches.out_right]
        for p in right.positions
    ]

    # Lineage composes per hop exactly as the materializing executors do
    # (canonical-order matches, plan-level pkfk flag), so a chain's
    # captured lineage is the same merge_binary fold the fallback builds.
    l_bw, l_fw, r_bw, r_fw = join_lineage_locals(matches, ctx.config, join.pkfk)
    node = merge_binary(
        matches.num_out, left.node, right.node, l_bw, l_fw, r_bw, r_fw
    )
    return _ChainState(
        left.inputs + right.inputs,
        positions,
        matches.num_out,
        Schema([(n, t) for n, t, _ in fields]),
        origins,
        node,
    )


def _gather_chain_output(state: _ChainState, columns) -> Table:
    """Materialize the chain's narrow output table: only the referenced
    columns (or, for ``columns=None``, the full core schema), gathered at
    the final surviving positions only — the late gather."""
    needed = None if columns is None else set(columns)
    names = state.schema.names
    if needed is not None:
        missing = sorted(needed - set(names))
        if missing:
            # Same canonical error the materializing path raises when an
            # operator evaluates the name over the full join output.
            raise SchemaError(
                f"unknown column {missing[0]!r}; available: {names}"
            )
    keep = [n for n in names if needed is None or n in needed]
    if not keep:
        # Nothing referenced (SELECT COUNT(*) over a chain): one cheap
        # stand-in column carries the row count.
        keep = [
            next(
                (n for n, t in state.schema.fields if t is not ColumnType.STR),
                names[0],
            )
        ]
    return Table(
        {n: state.column_values(n) for n in keep},
        Schema([(n, state.schema.type_of(n)) for n in keep]),
    )


def execute_pushed(
    pushed: PushedLineageQuery,
    catalog: Catalog,
    results: Optional[Mapping[str, object]],
    config: CaptureConfig,
    params: Optional[dict],
    next_key: Callable[[], str],
    run_child: RunChild,
    cache: Optional[LineageResolutionCache] = None,
    stats: Optional[PushedStats] = None,
) -> Tuple[Table, NodeLineage]:
    """Execute a pushed tree; returns ``(output table, node lineage)``.

    ``next_key`` yields the backend's pre-order occurrence keys (one per
    lineage-scan leaf); ``run_child`` executes a plain chain leaf through
    the backend's own recursion; ``stats`` (when provided) accumulates
    the run's chain-hop / build-side / pk-fk decisions for the executors'
    ``timings`` counters.
    """
    from ..expr.ast import evaluate
    from .vector.groupby import execute_distinct, execute_groupby

    if pushed.join is not None:
        if stats is not None:
            stats.chain_hops += pushed.chain_hops
        ctx = _ChainContext(
            catalog, results, config, params, next_key, run_child, cache, stats
        )
        state = _run_hop(pushed.join, ctx)
        if pushed.predicate is not None:
            # The residual WHERE binds above the chain; evaluate it in
            # the position domain (only its columns gathered, standard
            # selection lineage) so the late gather below sees only the
            # final survivors.
            state = _chain_select(state, pushed.predicate, config, params)
        table = _gather_chain_output(state, pushed.columns)
        node = state.node
        if pushed.groupby is None and pushed.project is None:
            return table, node
    else:
        scan = pushed.scan
        source, rids, source_name, domain, epoch = resolve_scan_source(
            scan, catalog, results, params, cache
        )

        if pushed.predicate is not None:
            pred_table = _gather(
                source, rids, _slice_names(source, pushed.predicate.columns())
            )
            mask = np.asarray(
                evaluate(pushed.predicate, pred_table, params), dtype=bool
            )
            rids = rids[mask]

        # Selection in the rid domain composes away: the scan's node
        # lineage over the *surviving* rids equals the materialized
        # path's scan-then-select composition (RidArray compose is a
        # gather).
        node = scan_node_lineage(
            scan, next_key(), rids, source_name, domain, config, epoch
        )

        if pushed.groupby is None and pushed.project is None:
            # Predicate-only tree: the output is the traced relation
            # itself, full schema, late-gathered at the surviving rids.
            return source.take(rids), node

        table = _gather(source, rids, _slice_names(source, pushed.columns))

    if pushed.groupby is not None:
        # The tree's static output schema (keys + aggregate types),
        # inferred against the original child chain like the
        # materializing executors do.
        schema = infer_schema(pushed.groupby, catalog)
        table, local_bw, local_fw = execute_groupby(
            table, pushed.groupby, config, params, schema
        )
        node = compose_node(table.num_rows, node, local_bw, local_fw)

    if pushed.project is not None:
        # Over the aggregate output when a GroupBy ran (e.g. dropping
        # hidden HAVING aggregates), else over the gathered slices.
        columns = {
            alias: np.asarray(evaluate(expr, table, params))
            for expr, alias in pushed.project.exprs
        }
        schema = Schema(
            [
                (alias, infer_expr_type(expr, table.schema))
                for expr, alias in pushed.project.exprs
            ]
        )
        table = Table(columns, schema)
        if pushed.project.distinct:
            # Set semantics: dedup the projected slices with group
            # lineage, exactly as the executors' DISTINCT does (3.2.1).
            table, local_bw, local_fw = execute_distinct(table, config)
            node = compose_node(table.num_rows, node, local_bw, local_fw)
        # Bag projection needs no capture: rids are unchanged (3.2.1).

    return table, node


def batchable_pushed(pushed: PushedLineageQuery, config: CaptureConfig) -> bool:
    """Whether N same-plan executions differing only in the rid subset
    bound to the lineage scan's parameter can coalesce into one shared
    pass (:func:`execute_pushed_batch`).

    Restricted to the crossfilter re-aggregation shape: a single
    *backward* lineage-scan core (no join), a parameterized rid subset,
    capture disabled (brush statements run ``capture=None``), and a
    ``COUNT(*)``-only GROUP BY with no HAVING, optionally under a bag
    projection.  Everything else falls back to per-binding execution.
    """
    from ..expr.ast import Param

    if config.enabled:
        return False
    if pushed.join is not None or pushed.scan is None:
        return False
    if pushed.scan.direction != "backward":
        return False
    if not isinstance(pushed.scan.rids, Param):
        return False
    gb = pushed.groupby
    if gb is None or gb.having is not None:
        return False
    if any(agg.func != "count" or agg.arg is not None for agg in gb.aggs):
        return False
    if pushed.project is not None and pushed.project.distinct:
        return False
    return True


#: Cap on ``num_bars * num_codes``, the cells of the per-bar count and
#: first-rid matrices (int64 each) — the one batch allocation that grows
#: with bars × groups.  Beyond it :func:`execute_pushed_batch` declines
#: and the caller runs the bindings one by one.
_BAR_MATRIX_MAX_CELLS = 1 << 21


def execute_pushed_batch(
    pushed: PushedLineageQuery,
    catalog: Catalog,
    results: Optional[Mapping[str, object]],
    params_list: Sequence[Optional[dict]],
    lineage_cache=None,
) -> Optional[List[Table]]:
    """Execute one :func:`batchable_pushed` tree for N parameter bindings
    in a single shared pass; returns one output table per binding, each
    bit-identical to what :func:`execute_pushed` produces for that
    binding alone — or ``None`` when the shared pass does not apply and
    the caller must execute the bindings one by one.

    It applies when the view's backward index is a **partition** (each
    base rid in at most one bar's bucket — the GROUP BY crossfilter
    shape) and the per-bar matrices fit :data:`_BAR_MATRIX_MAX_CELLS`.
    Each binding's rid set is then the disjoint union of its bars'
    buckets, so N overlapping brushes share almost all their work:

    1. every distinct bar across the bindings resolves **once**
       (:func:`~repro.exec.lineage_scan.resolve_scan_bars`, through the
       rid cache under single-bar keys);
    2. the pushed predicate and the group keys are evaluated / factorized
       **once** over the concatenated bar segments, whose total size is
       the union mass (:func:`_shared_batch_codes`);
    3. one pass over all segments builds per-bar count and first-rid
       matrices, and each binding's answer reduces to a handful of
       ``num_codes``-sized vector sums / mins
       (:func:`_batch_tables_by_bars`) — no per-binding pass over its
       rows at all.

    Callers must ensure all bindings agree on every parameter except the
    scan's rid parameter (shared predicate/key evaluation reads the
    first binding's params); ``DatabaseServer.sql_batch`` checks this
    and falls back otherwise.
    """
    from .lineage_scan import resolve_rid_spec, resolve_scan_bars

    probes = [
        np.unique(resolve_rid_spec(pushed.scan.rids, params, 0))
        for params in params_list
    ]
    bar_ids = np.unique(np.concatenate(probes))
    resolved = resolve_scan_bars(
        pushed.scan, catalog, results, bar_ids, cache=lineage_cache
    )
    if resolved is None:
        return None
    source, rows, lengths = resolved
    return _batch_tables_by_bars(
        pushed, catalog, source, rows, lengths, probes, bar_ids, params_list[0]
    )


def _shared_batch_codes(
    pushed: PushedLineageQuery,
    source: Table,
    rows: np.ndarray,
    shared_params: Optional[dict],
):
    """The shared head of the batch pass: evaluate the pushed predicate
    over ``rows`` (one gather of only the predicate's columns), then
    gather / factorize the group keys once over the survivors.  Returns
    ``(mask, codes, num_codes, key_by_code)`` where ``mask`` is None
    without a predicate and ``codes`` aligns with the surviving rows
    (``rows[mask]``)."""
    from ..expr.ast import evaluate
    from .vector.kernels import factorize

    mask = None
    if pushed.predicate is not None:
        pred_table = _gather(
            source, rows, _slice_names(source, pushed.predicate.columns())
        )
        mask = np.asarray(
            evaluate(pushed.predicate, pred_table, shared_params), dtype=bool
        )
        rows = rows[mask]

    gb = pushed.groupby
    kept_table = _gather(source, rows, _slice_names(source, pushed.columns))
    key_arrays = [
        np.asarray(evaluate(e, kept_table, shared_params)) for e, _ in gb.keys
    ]
    n_kept = int(rows.shape[0])
    if n_kept == 0:
        codes, num_codes = np.empty(0, dtype=np.int64), 0
        reps = np.empty(0, dtype=np.int64)
    elif key_arrays:
        codes, num_codes, reps = factorize(key_arrays)
    else:
        codes, num_codes = np.zeros(n_kept, dtype=np.int64), 1
        reps = np.zeros(1, dtype=np.int64)
    # Per-code representative key values (num_codes-sized): a code's key
    # value is the same on every row of the code, so any binding's output
    # key column is one tiny gather from these.
    key_by_code = [arr[reps] for arr in key_arrays]
    return mask, codes, num_codes, key_by_code


def _batch_output_table(
    pushed: PushedLineageQuery,
    schema: Schema,
    group_codes: np.ndarray,
    counts: np.ndarray,
    key_by_code: List[np.ndarray],
    shared_params: Optional[dict],
) -> Table:
    """One binding's output table from its (first-occurrence ordered)
    group codes and counts, plus the optional bag projection on top."""
    from ..expr.ast import evaluate

    gb = pushed.groupby
    columns: Dict[str, np.ndarray] = {}
    for (_expr, alias), by_code in zip(gb.keys, key_by_code, strict=True):
        columns[alias] = by_code[group_codes]
    for i, agg in enumerate(gb.aggs):
        if counts.shape[0] == 0:
            columns[agg.alias] = np.empty(
                0, dtype=schema.type_of(agg.alias).numpy_dtype
            )
        else:
            columns[agg.alias] = counts if i == 0 else counts.copy()
    table = Table(columns, schema)
    if pushed.project is not None:
        table = Table(
            {
                alias: np.asarray(evaluate(expr, table, shared_params))
                for expr, alias in pushed.project.exprs
            },
            Schema(
                [
                    (alias, infer_expr_type(expr, table.schema))
                    for expr, alias in pushed.project.exprs
                ]
            ),
        )
    return table


def _batch_tables_by_bars(
    pushed: PushedLineageQuery,
    catalog: Catalog,
    source: Table,
    rows: np.ndarray,
    lengths: np.ndarray,
    probes: Sequence[np.ndarray],
    bar_ids: np.ndarray,
    shared_params: Optional[dict],
) -> Optional[List[Table]]:
    """The per-bar stage of :func:`execute_pushed_batch`.

    ``rows`` concatenates the sorted, pairwise disjoint backward sets of
    ``bar_ids`` (``lengths[j]`` rids for bar ``j``), and ``probes[i]`` is
    binding ``i``'s sorted distinct bars.  Per-binding aggregates
    decompose exactly over bars:

    * ``counts`` — a binding's per-group count is the **sum** of its
      bars' per-group counts (disjointness: no row counted twice);
    * ``group order`` — :func:`~repro.exec.vector.kernels.factorize`
      numbers a binding's groups by first occurrence over its sorted
      rids, i.e. ascending *minimum member rid*; a binding's minimum rid
      for a group is the **min** over its bars' per-group minimum rids.

    So one pass over all segments — a bincount over the cell ``bar ×
    num_codes + code`` — builds a ``counts`` matrix and a ``first-rid``
    matrix of shape ``(num_bars, num_codes)``, and each binding's output
    reduces to ``counts[bars].sum(axis=0)`` / ``first[bars].min(axis=0)``
    plus a ``num_codes``-sized argsort — independent of the binding's row
    count.  Returns ``None`` when the matrices would exceed
    :data:`_BAR_MATRIX_MAX_CELLS`.
    """
    mask, codes, num_codes, key_by_code = _shared_batch_codes(
        pushed, source, rows, shared_params
    )
    n_bars = int(bar_ids.shape[0])
    n_cells = n_bars * num_codes
    if n_cells > _BAR_MATRIX_MAX_CELLS:
        return None
    cells = np.repeat(np.arange(n_bars, dtype=np.int64) * num_codes, lengths)
    if mask is not None:
        cells, rows = cells[mask], rows[mask]
    cells += codes
    counts_mat = np.bincount(cells, minlength=n_cells).reshape(n_bars, num_codes)
    # Sentinel `domain` (> any rid) so min() over bars ignores absent
    # groups; a group is present for a binding iff its min stays < domain.
    domain = source.num_rows
    first_mat = np.full(n_cells, domain, dtype=np.int64)
    # Bar buckets are sorted ascending and each cell belongs to one bar;
    # the reversed scatter leaves, per cell, the bar's smallest member
    # rid (later writes win).
    first_mat[cells[::-1]] = rows[::-1]
    first_mat = first_mat.reshape(n_bars, num_codes)

    schema = infer_schema(pushed.groupby, catalog)
    tables: List[Table] = []
    empty = np.empty(0, dtype=np.int64)
    for probe in probes:
        if probe.size and num_codes:
            idx = np.searchsorted(bar_ids, probe)
            counts_all = counts_mat[idx].sum(axis=0)
            first_all = first_mat[idx].min(axis=0)
            present = np.flatnonzero(first_all < domain)
            order = np.argsort(first_all[present], kind="stable")  # repro: noqa RPR008 -- ranks num_codes first-rids, not a dense-id inversion
            group_codes = present[order]
            counts = counts_all[group_codes]
        else:
            group_codes, counts = empty, empty
        tables.append(
            _batch_output_table(
                pushed, schema, group_codes, counts, key_by_code, shared_params
            )
        )
    return tables
