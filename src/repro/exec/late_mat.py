"""Late-materializing execution of lineage-scan trees (rid domain).

Runs a :class:`~repro.plan.rewrite.PushedLineageQuery` — a
``[Project?][GroupBy?][Select*]`` tree over one pushed **core**: a single
:class:`~repro.plan.logical.LineageScan` leaf or a flattened **chain** (or
snowflake tree) of hash equi-joins with lineage-backed leaves — as one
left-deep plan of key probes, never materializing the traced subset *or
any intermediate join output*:

1. resolve the traced rids against the result registry
   (:func:`repro.exec.lineage_scan.resolve_scan_source`, so every guard of
   the materializing path applies) — or, for a capture-off statement whose
   core's one lineage leaf is a backward scan of a GROUP BY view, alone or
   joined to plain catalog scans (:class:`~repro.plan.rewrite.MemoShape`),
   with a shared :class:`~repro.lineage.cache.LineageResolutionCache`,
   answer from its **per-bar memo**: partial answers per brushed bar (the
   paper's partial data cube, §4.2), filled lazily from the bars' CSR
   slices through the same lowered core and step loop, and merged per
   brush by one packed order key and a key-dictionary code
   (:func:`_memo_tables`).  A prepared tree reaches its memo through a
   **bound route**, derived once and valid while every object it was
   derived from is the same object in the view a run reads (:class:`_Route`);
2. lower the core (:func:`_lower`): visit its leaves in pre-order,
   filtering the lineage leaf's pushed predicates on rid-gathered slices
   of only their columns, and lay its hops out as a **spine** — the input
   carrying the lineage leaf — joining one other input per step;
3. run the steps (:func:`_run_steps`): each gathers only the spine's join
   keys through the per-leaf position arrays, picks its build side from
   cardinality statistics (:func:`~repro.substrate.stats.choose_build_side`),
   matches the keys through the one equi-join kernel
   (:func:`~repro.exec.vector.join.compute_matches`), composes the match
   arrays into the position arrays — a join output row is one position per
   leaf, never materialized payload — and filters by the hop's predicate;
4. gather the columns the output needs at the *final surviving* positions
   only, and feed the aggregation / DISTINCT kernels that narrow table.

The vector executor calls :func:`execute_pushed` for every subtree the
rewrite matched: ``run_child`` hands plain chain leaves back to the
executor's own recursion, and ``next_key`` consumes its pre-order
occurrence keys, one per lineage leaf.  The compiled reference engine
never calls it; it materializes every subtree.

Output rows *and* captured lineage are bit-identical to the materializing
path: :func:`~repro.exec.lineage_scan.scan_node_lineage` over the
surviving rids equals its ``compose_node(select, scan)``, every step
composes its (canonical-order) matches through the same
:func:`~repro.exec.vector.join.join_lineage_locals` /
:func:`~repro.lineage.composer.merge_binary` calls the vector executor
makes, and aggregation / DISTINCT compose through the same
:func:`~repro.lineage.composer.compose_node`.  The property suites
(``tests/property/test_prop_late_mat*.py``) assert this over random trees
and chains, and check both paths against the compiled reference.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import sanitize
from ..errors import LineageError, SchemaError
from ..expr.ast import Col, Param, evaluate
from ..lineage.cache import LineageResolutionCache, Pin, param_fingerprint
from ..lineage.capture import CaptureConfig
from ..lineage.composer import NodeLineage, compose_node, merge_binary, selection_locals
from ..lineage.indexes import stable_group_order
from ..plan.logical import LineageScan, LogicalPlan, Select
from ..plan.rewrite import (
    PushedJoin,
    PushedJoinHop,
    PushedJoinSide,
    PushedLineageQuery,
    plain_scan,
)
from ..plan.schema import infer_expr_type, infer_schema, join_output_fields
from ..storage.catalog import CatalogView
from ..storage.table import ColumnType, Schema, Table
from ..substrate.stats import UNIQUENESS_PROBE_MAX_ROWS, JoinSideStats, choose_build_side
from .lineage_scan import BarPartition, PartitionKey, resolve_rid_spec, resolve_scan_partition
from .lineage_scan import resolve_scan_source, scan_node_lineage
from .timings import EXECUTE, LATE_MAT_BUILD_SWAPS, LATE_MAT_CHAIN_HOPS, LATE_MAT_DISTINCTS
from .timings import LATE_MAT_JOINS, LATE_MAT_MEMO_FILL, LATE_MAT_MEMO_MERGE, LATE_MAT_PKFK_DETECTED
from .timings import LATE_MAT_ROUTE, LATE_MAT_ROUTE_BINDS, LATE_MAT_SUBTREES

_EMPTY = np.empty(0, dtype=np.int64)

#: Most base rids one per-bar memo fill runs over: a brush's missing bars
#: are filled in consecutive runs of at most this many rids (a heavier bar
#: alone), so a first brush over the heaviest bars allocates a working set
#: bounded by one run, not by the whole window.
FILL_RUN_RIDS = 1 << 18

#: Executes one plan subtree through the calling executor's own recursion
#: (used for the plain, non-lineage leaves of a pushed join chain).
RunChild = Callable[[LogicalPlan], Tuple[Table, NodeLineage]]


@dataclass
class PushedStats:
    """What one execution's pushed cores did, surfaced by the executors
    (and the server's coalesced batches) as ``timings`` counters so tests
    and benchmarks can assert *what* ran (pushed subtrees, chain
    flattening, build-side swaps, detected pk-fk builds) without timing
    anything, plus the seconds the per-bar memo spent."""

    subtrees: int = 0  # pushed trees executed
    joins: int = 0  # ... of them over a join core
    distincts: int = 0  # ... of them under SELECT DISTINCT
    chain_hops: int = 0  # joins flattened beyond the first, per core
    build_swaps: int = 0  # hops that built on the plan-right side
    pkfk_detected: int = 0  # hops whose build keys stats alone know unique
    memo_fill_s: float = 0.0  # finding and filling missing bars
    memo_merge_s: float = 0.0  # merging partials into answers
    route_s: float = 0.0  # checking (or rebinding) routes and looking up memos
    route_binds: int = 0  # routes (re)bound

    def count(self, pushed: PushedLineageQuery) -> None:
        """Count one executed pushed tree."""
        self.subtrees += 1
        self.joins += pushed.has_join
        self.distincts += pushed.has_distinct
        self.chain_hops += pushed.chain_hops


def fold_push_stats(timings: Dict[str, float], stats: PushedStats) -> None:
    """Surface a run's :class:`PushedStats` as the ``timings`` counters
    :mod:`repro.exec.timings` documents, each only when non-zero."""
    for key, value in (
        (LATE_MAT_SUBTREES, stats.subtrees),
        (LATE_MAT_JOINS, stats.joins),
        (LATE_MAT_DISTINCTS, stats.distincts),
        (LATE_MAT_CHAIN_HOPS, stats.chain_hops),
        (LATE_MAT_BUILD_SWAPS, stats.build_swaps),
        (LATE_MAT_PKFK_DETECTED, stats.pkfk_detected),
        (LATE_MAT_MEMO_FILL, stats.memo_fill_s),
        (LATE_MAT_MEMO_MERGE, stats.memo_merge_s),
        (LATE_MAT_ROUTE, stats.route_s),
        (LATE_MAT_ROUTE_BINDS, stats.route_binds),
    ):
        if value:
            timings[key] = float(value)


def _narrow_names(schema: Schema, columns) -> List[str]:
    """The columns of ``schema`` to gather for a stage reading
    ``columns`` (``None``: all of them), in schema order (deterministic
    narrow schema), or one cheap stand-in column when the stage reads
    none (``SELECT COUNT(*)``, constant predicates) — a zero-column
    :class:`Table` cannot carry a row count.  An unknown name raises the
    canonical error the materializing path's operators raise."""
    names = schema.names
    if columns is None:
        return names
    missing = sorted(set(columns) - set(names))
    if missing:
        raise SchemaError(f"unknown column {missing[0]!r}; available: {names}")
    narrow = [n for n in names if n in columns]
    if narrow:
        return narrow
    for name, ctype in schema.fields:
        if ctype is not ColumnType.STR:
            return [name]
    return names[:1]


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

    ``tables[k]`` is the table leaf ``k``'s positions index — a lineage
    leaf's traced source, whose rows are *never* materialized here, or a
    plain leaf already executed to a table.  ``bases[k]`` names the
    catalog relation those positions index into (the traced base table
    of a backward scan, or the scanned table of a plain ``[Select*]
    Scan`` leaf), whose column statistics feed build-side and pk-fk
    decisions; ``None`` means none apply (forward scans, derived tables,
    nested plans).  ``node`` is the node lineage, ``None`` on the per-bar
    memo's path, which composes none.
    """

    __slots__ = ("tables", "bases", "positions", "num_rows", "schema", "origins", "node", "_index")

    def __init__(self, tables: List[Table], bases: List[Optional[str]], positions: list,
                 num_rows: int, schema: Schema, origins: List[Tuple[int, str]], node):
        self.tables = tables
        self.bases = bases
        self.positions = positions
        self.num_rows = num_rows
        self.schema = schema
        self.origins = origins  # per output column: (leaf index, leaf column)
        self.node = node
        self._index: Dict[str, int] = {n: i for i, n in enumerate(schema.names)}

    @classmethod
    def for_leaf(cls, table: Table, rows=None, node=None, base=None) -> "_ChainState":
        """The node of ``table``'s ``rows`` (``None``: all of them)."""
        # The *full* leaf schema: join-output renaming must see every
        # column, exactly as the materializing path's subset table would.
        schema = table.schema
        size = table.num_rows if rows is None else int(rows.shape[0])
        return cls([table], [base], [rows], size, schema, [(0, n) for n in schema.names], node)

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
        values = self.tables[leaf_idx].column(src)
        pos = self.positions[leaf_idx]
        return values if pos is None else values[pos]

    def key_stats(self, keys: Sequence[str], catalog: CatalogView) -> JoinSideStats:
        """Cardinality + key-uniqueness statistics for this node as one
        join input.  Uniqueness is only derivable for single-leaf nodes
        (joins may fan rows out) whose positions are subsets of a catalog
        base table: a unique base column stays unique under any subset
        gather, which covers an ``Lb`` over a dimension table.
        """
        unique: Optional[bool] = None
        base = self.bases[0] if len(self.bases) == 1 else None
        if base is not None:
            base_table = catalog.get_versioned(base)[0]
            if base_table.num_rows <= UNIQUENESS_PROBE_MAX_ROWS:
                # Deriving uniqueness scans the base column once per
                # table; keep that cold hit out of interactive statements
                # over huge relations (cardinality still decides there).
                for key in keys:
                    idx = self._index.get(key)
                    if idx is None:
                        continue  # the probe will raise the canonical error
                    stats = base_table.column_stats(self.origins[idx][1])
                    if stats.is_unique:
                        unique = True
                        break
        return JoinSideStats(rows=self.num_rows, keys_unique=unique)

    def narrow(self, kept: np.ndarray, node: Optional[NodeLineage]) -> "_ChainState":
        """Keep only the listed output rows (a pushed ``Select``)."""
        positions = [kept if p is None else p[kept] for p in self.positions]
        return _ChainState(self.tables, self.bases, positions, int(kept.shape[0]), self.schema,
                           self.origins, node)


def _chain_select(state: _ChainState, predicate, config: CaptureConfig, params):
    """A pushed ``Select`` over a chain node, in the position domain, and
    the rows it keeps: gather only the predicate's columns, narrow every
    leaf's positions to the passing rows, and, when the node carries
    lineage, compose the same 1-to-1 selection locals the materializing
    path's :func:`~repro.exec.vector.select.execute_select` builds."""
    kept = _kept(state, predicate, params)
    node = None
    if state.node is not None:
        local_bw, local_fw = selection_locals(kept, state.num_rows, config)
        node = compose_node(int(kept.shape[0]), state.node, local_bw, local_fw)
    return state.narrow(kept, node), kept


def _kept(state: _ChainState, predicate, params: Optional[dict]) -> np.ndarray:
    """The rows of ``state`` passing ``predicate``, over a gather of its columns."""
    pred_table = _gather_chain_output(state, predicate.columns())
    return np.flatnonzero(np.asarray(evaluate(predicate, pred_table, params), dtype=bool))


def _joined(left: _ChainState, right: _ChainState, out_left, out_right, node, like=None):
    """The chain node joining ``left`` row ``out_left[i]`` with ``right``
    row ``out_right[i]`` into output row ``i``, positions composed; its
    schema is ``like``'s when given (a node of the same leaves)."""
    positions = [out_left if p is None else p[out_left] for p in left.positions] + [
        out_right if p is None else p[out_right] for p in right.positions
    ]
    if like is None:
        shift = len(left.tables)
        fields = join_output_fields(left.schema, right.schema)
        schema = Schema([(n, t) for n, t, _ in fields])
        origins = left.origins + [(leaf + shift, src) for leaf, src in right.origins]
    else:
        schema, origins = like.schema, like.origins
    return _ChainState(left.tables + right.tables, left.bases + right.bases, positions,
                       int(out_left.shape[0]), schema, origins, node)


def _gather_chain_output(state: _ChainState, columns) -> Table:
    """A narrow table of the chain node's ``columns`` (see
    :func:`_narrow_names`), gathered at its surviving positions only —
    a predicate's slices, or the core's output (the late gather)."""
    names = _narrow_names(state.schema, columns)
    return Table(
        {n: state.column_values(n) for n in names},
        Schema([(n, state.schema.type_of(n)) for n in names]),
    )


@dataclass
class _Step:
    """One lowered hop of a core (:func:`_lower`), with the hops folded
    into it: the spine joins the ``plain`` side, then ``predicate``
    filters; ``index``, a memo entry's key index over ``plain``'s keys."""

    hop: PushedJoin
    plain: _ChainState  # the other input (pre-joined when folded), rows in canonical order
    spine_left: bool  # the spine is the hop's left input
    names: Sequence[str]  # the plain side's key columns
    dtypes: list  # the spine's key column types
    unique: Optional[bool]  # the spine's key uniqueness, from stats
    stats: JoinSideStats  # the plain side's
    joined: _ChainState  # the layout of the last folded hop's output (no rows)
    predicate: object  # the last folded hop's
    swaps: int = 0  # build-side decisions of the folded hops
    detected: int = 0
    index: object = None


def _fold(step: _Step, spine: _ChainState, names, other: _ChainState, keys, stats) -> bool:
    """Fold a hop keyed on ``names`` into ``step`` when they are columns
    of ``step``'s plain leaves: pre-join its ``other`` input, whose
    ``keys`` are unique, to ``step.plain``, and count its build-side
    decision, which no row count sways."""
    from .vector.join import compute_matches

    shift = len(spine.tables) - len(step.plain.tables)  # leaves before step.plain's
    if any(spine.origins[spine.schema.index_of(k)][0] < shift for k in names):
        return False
    rows = _ChainState(spine.tables, spine.bases, [None] * shift + step.plain.positions,
                       step.plain.num_rows, spine.schema, spine.origins, None)
    matches = compute_matches([rows.column_values(k) for k in names], keys, build_left=False)
    step.plain = _joined(step.plain, other, matches.out_left, matches.out_right, None)
    decision = choose_build_side(JoinSideStats(0), stats)
    step.swaps += decision.swapped
    step.detected += decision.pkfk
    return True


def _lower(hop: PushedJoinHop, leaf, plain: RunChild, catalog: CatalogView, run, steps: List[_Step]):
    """``hop`` lowered into ``steps``: a left-deep plan whose spine, the
    input carrying the lineage leaf, joins one other input per step.
    Returns ``hop``'s node (the spine's has no rows) and the lineage
    leaf's node.  Leaves are visited in pre-order: ``leaf(side)`` gives
    the lineage leaf's node, ``plain(plan)`` a plain leaf's ``(table,
    node)``.  When both inputs of a hop carry lineage, the right one is
    lowered into steps of its own, which ``run(leaf node, steps)`` runs.
    With no node lineage to compose (a memo entry), a hop with the spine
    left, keyed on the previous step's plain leaves alone and probing
    unique keys (carrier → region → continent), folds into that step
    unless a predicate stands between (:func:`_fold`)."""
    if isinstance(hop, PushedJoinSide):
        if hop.scan is not None:
            node = leaf(hop)
            return node.narrow(_EMPTY, None), node
        table, node = plain(hop.plan)
        scan = plain_scan(hop.plan)
        base = None if scan is None else scan.table
        return _ChainState.for_leaf(table, node=node, base=base), None
    join, spine_left = hop.join, hop.left.has_lineage
    left, spine_leaf = _lower(hop.left, leaf, plain, catalog, run, steps)
    if spine_left and hop.right.has_lineage:
        own: List[_Step] = []
        right = run(_lower(hop.right, leaf, plain, catalog, run, own)[1], own)
    else:
        right, found = _lower(hop.right, leaf, plain, catalog, run, steps)
        spine_leaf = spine_leaf if spine_left else found
    sides = [(left, join.left_keys), (right, join.right_keys)]
    keys = [[node.column_values(k) for k in names] for node, names in sides]
    if not spine_left:
        sides.reverse()
        keys.reverse()
    (spine, spine_names), (other, names) = sides
    stats = other.key_stats(names, catalog)
    joined = _joined(left, right, _EMPTY, _EMPTY, None)
    last = steps[-1] if steps else None
    if not (
        spine_left and not join.pkfk and stats.keys_unique and other.node is None
        and last is not None and last.spine_left and last.predicate is None
        and _fold(last, spine, spine_names, other, keys[1], stats)
    ):
        unique = spine.key_stats(spine_names, catalog).keys_unique
        last = _Step(hop, other, spine_left, names, [k.dtype for k in keys[0]], unique, stats,
                     joined, None)
        steps.append(last)
    last.joined, last.predicate = joined, hop.predicate
    return joined, spine_leaf


def _run_steps(state: _ChainState, steps: List[_Step], config, params, stats, owner=None):
    """A lowered core (:func:`_lower`) run from its spine leaf's node
    ``state``; returns the core's node and ``owner``, a per-row array (a
    fill's bar per row), carried through the matches.  Per step: gather
    the spine's keys, count the build side
    :func:`~repro.substrate.stats.choose_build_side` picks, probe the
    step's key index or else build on that side, compose the join's
    lineage locals when the spine carries a node, then filter by the
    hop's predicate."""
    from .vector.join import compute_matches, join_lineage_locals

    for step in steps:
        join = step.hop.join
        names = join.left_keys if step.spine_left else join.right_keys
        keys = [state.column_values(k) for k in names]
        sides = [JoinSideStats(state.num_rows, step.unique), step.stats]
        decision = choose_build_side(*(sides if step.spine_left else sides[::-1]), join.pkfk)
        stats.build_swaps += decision.swapped + step.swaps
        stats.pkfk_detected += (decision.pkfk and not join.pkfk) + step.detected
        left, right = (state, step.plain) if step.spine_left else (step.plain, state)
        other, build_left = None, not step.spine_left  # the index's side builds
        if step.index is None:
            other = [step.plain.column_values(k) for k in step.names]
            build_left = decision.build_left
        probe = (keys, other) if step.spine_left else (other, keys)
        matches = compute_matches(*probe, join.pkfk, build_left, step.index)
        node = None
        if state.node is not None:
            # Lineage composes per hop exactly as the materializing
            # executors do (canonical-order matches, plan-level pkfk flag).
            locals_ = join_lineage_locals(matches, config, join.pkfk)
            node = merge_binary(matches.num_out, left.node, right.node, *locals_)
        state = _joined(left, right, matches.out_left, matches.out_right, node, step.joined)
        if owner is not None:
            owner = owner[matches.out_left if step.spine_left else matches.out_right]
        if step.predicate is not None:
            state, kept = _chain_select(state, step.predicate, config, params)
            owner = None if owner is None else owner[kept]
    return state, owner


def _project(project, table: Table, params: Optional[dict]) -> Table:
    """A projection's expressions over ``table`` (no dedup)."""
    aliases = [alias for _, alias in project.exprs]
    if aliases == table.schema.names and all(
        isinstance(expr, Col) and expr.name == alias for expr, alias in project.exprs
    ):
        return table  # SELECT k, COUNT(*) AS c ... GROUP BY k
    return Table(
        {alias: np.asarray(evaluate(expr, table, params)) for expr, alias in project.exprs},
        Schema([(alias, infer_expr_type(expr, table.schema)) for expr, alias in project.exprs]),
    )


def execute_pushed(
    pushed: PushedLineageQuery,
    catalog: CatalogView,
    results: Optional[Mapping[str, object]],
    config: CaptureConfig,
    params: Optional[dict],
    next_key: Callable[[], str],
    run_child: RunChild,
    stats: PushedStats,
    cache: Optional[LineageResolutionCache] = None,
) -> Tuple[Table, NodeLineage]:
    """Execute a pushed tree; returns ``(output table, node lineage)``.

    ``next_key`` yields the executor's pre-order occurrence keys (one per
    lineage-scan leaf); ``run_child`` executes a plain chain leaf through
    the executor's own recursion; ``stats`` counts the tree and what it
    did for the executors' ``timings`` counters.  With ``cache``, the
    shapes a :class:`~repro.plan.rewrite.MemoShape` describes answer from
    the statement's per-bar memo in that cache.
    """
    if cache is not None:
        answered = _memo_tables(pushed, catalog, results, config, [params], cache, stats)
        if answered is not None:
            # Capture is off on this path: the node carries each leaf's
            # metadata only, one occurrence key per leaf in pre-order, as
            # the lowering consumes them.
            (table,), leaves = answered
            node = NodeLineage(output_size=table.num_rows)
            for alias, name, size, epoch in leaves:
                leaf = NodeLineage.for_scan(
                    next_key(), name, size, False, False, alias=alias, epoch=epoch
                )
                node.absorb(leaf, None, None)
            return table, node
    stats.count(pushed)

    def lineage_leaf(side: PushedJoinSide) -> _ChainState:
        """The node of the leaf's surviving rids, its folded ``Select``
        stack (a leaf core's WHERE included) filtered in the rid domain."""
        key = next_key()
        source, rids, source_name, domain, epoch = resolve_scan_source(
            side.scan, catalog, results, params
        )
        if side.predicate is not None:
            rids = rids[_kept(_ChainState.for_leaf(source, rids), side.predicate, params)]
        node = scan_node_lineage(side.scan, key, rids, source_name, domain, config, epoch)
        # Positions of a backward scan index the traced base relation, so
        # that relation's column statistics transfer to the gathered keys.
        base = source_name if side.scan.direction == "backward" else None
        return _ChainState.for_leaf(source, rids, node, base)

    # No closure here calls itself: one that did would be a reference
    # cycle, holding the run's arrays until the collector's next pass.
    def run(spine: _ChainState, steps: List[_Step]) -> _ChainState:
        return _run_steps(spine, steps, config, params, stats)[0]

    from .vector.groupby import execute_distinct, execute_groupby

    steps: List[_Step] = []
    spine = _lower(pushed.core, lineage_leaf, run_child, catalog, run, steps)[1]
    state = run(spine, steps)
    table = _gather_chain_output(state, pushed.columns)
    node = state.node

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
        table = _project(pushed.project, table, params)
        if pushed.project.distinct:
            # Set semantics: dedup the projected slices with group
            # lineage, exactly as the executors' DISTINCT does (3.2.1).
            table, local_bw, local_fw = execute_distinct(table, config)
            node = compose_node(table.num_rows, node, local_bw, local_fw)
        # Bag projection needs no capture: rids are unchanged (3.2.1).

    return table, node


def shared_fingerprint(scan: LineageScan, params: Optional[dict]) -> tuple:
    """:func:`~repro.lineage.cache.param_fingerprint` of a binding's
    parameters other than the memo leaf ``scan``'s rid argument: the part
    of the per-bar memo's key a binding sets, so the bindings of one
    batch must agree on it."""
    rid = scan.rids.name if isinstance(scan.rids, Param) else None
    return param_fingerprint({k: v for k, v in (params or {}).items() if k != rid})


class _BarMemo:
    """Per-bar partial answers of one pushed statement over one state of
    what its fills read — the view's backward index, the base columns the
    statement reads and the plain join leaves (:func:`_memo_tables`): one
    entry of the shared
    :class:`~repro.lineage.cache.LineageResolutionCache`, filled lazily.
    A bar maps to ``None`` when no row survives, else to a list of arrays
    — a ``"rows"`` bar to ``[sorted surviving rids]`` (int32 below 2**31
    base rows: they sort in half the time), a ``"groups"`` /
    ``"distinct"`` bar to ``[key columns..., codes, counts, order key]``
    with one entry per group in order-key order.  A row's **order key**
    packs the leaf positions its output order follows (``MemoShape.order``
    — the lineage leaf's position being the base rid) into one int64,
    mixed radix by leaf row count (:func:`_order_strides`), and a group's
    entry holds its first row's key values and order key, and its
    **code**: its key tuple's index in the entry's only-growing key
    dictionary (:meth:`encode`).

    ``core`` holds the steps of the core lowered by the entry's first
    ``"groups"`` / ``"distinct"`` fill (:meth:`lowered`): per step, its
    plain leaf filtered once and a
    :class:`~repro.exec.vector.join.KeyIndex` over its keys, which fills
    probe (:func:`_lower`); a zero-join core has no step."""

    __slots__ = ("schema", "bars", "keys", "num_codes", "core", "_lock")

    def __init__(self, schema: Optional[Schema]):
        self.schema = schema  # group-shape output schema (before a bag projection)
        self.bars: Dict[int, object] = {}
        self.keys: List[np.ndarray] = []  # the dictionary: code c's key is k[c] per column
        self.num_codes = 0
        self.core = None
        self._lock = threading.Lock()  # a server's reader threads share one entry

    def lowered(self, lower: Callable[[], list]) -> list:
        """:attr:`core`, lowered by ``lower()`` on the first call only."""
        with self._lock:
            if self.core is None:
                self.core = lower()
            return self.core

    def encode(self, keys: List[np.ndarray], n: int) -> np.ndarray:
        """The int32 codes of ``n`` rows of ``keys`` (``[]``: all 0), adding
        the key tuples it lacks by one :func:`factorize` of the dictionary's
        rows, then ``keys``: old codes stay; O(dictionary + n) per fill."""
        from .vector.kernels import factorize

        keys = keys or [np.zeros(n, dtype=np.int8)]  # keyless: one key tuple
        with self._lock:
            known = self.num_codes
            keys = [np.concatenate(p) for p in zip(self.keys, keys, strict=True)] if known else keys
            ids, self.num_codes, reps, _ = factorize(keys)
            self.keys = [k[reps] for k in keys]
        return ids[known:].astype(np.int32)


def _split_by(owner: np.ndarray, n: int, columns: List[np.ndarray]) -> list:
    """``columns``, aligned with the ascending ``owner`` ids, cut into one
    block per owner ``0..n-1`` (``None`` for an owner without rows)."""
    bounds = np.searchsorted(owner, np.arange(n + 1)).tolist()
    return [
        [c[lo:hi] for c in columns] if hi > lo else None
        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
    ]


def _order_strides(sizes: Sequence[int]) -> Optional[List[np.int64]]:
    """The mixed-radix strides that pack one position below each of
    ``sizes`` (most significant first) into an int64 order key ``sum(p *
    s)`` ordered as the position tuples are; ``None`` when the product of
    ``sizes`` does not fit in 63 bits."""
    sizes = [max(size, 1) for size in sizes]  # a leaf without rows joins none
    strides = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
    return [np.int64(s) for s in strides] if math.prod(sizes) < 2**63 else None


def _plain_leaf(plan: LogicalPlan, tables: dict, config, params) -> Table:
    """A plain ``[Select*] Scan`` join leaf over the catalog table the memo
    holds, filtered as the executor's ``Select`` filters."""
    from .vector.select import execute_select

    if isinstance(plan, Select):
        child = _plain_leaf(plan.child, tables, config, params)
        return execute_select(child, plan.predicate, config, params)[0]
    return tables[plan.table][0]


def _fill_bars(pushed, kind, part, bars: List[int], params, chain, memo: _BarMemo) -> list:
    """Partials of ``bars`` from one pass over their concatenated CSR
    slices of the backward index: the lineage leaf's predicate, the
    entry's lowered core run by :func:`_run_steps` — each step probing its
    plain side's key index, the bar of each row carried along — then the
    key gather and the factorize, with the bar as the leading group key,
    so each bar's groups come out as one block in order-key order,
    encoded, their first rows' leaf positions packed by ``strides``."""
    from .vector.join import KeyIndex
    from .vector.kernels import factorize

    catalog, config, tables, stats, strides = chain
    buckets = [part.bucket(bar) for bar in bars]
    rids = np.concatenate(buckets)
    owner = np.repeat(np.arange(len(bars)), [b.size for b in buckets])
    predicate = next(side for side in pushed.memo.leaves if side.scan is not None).predicate
    if predicate is not None:
        keep = _kept(_ChainState.for_leaf(part.base, rids), predicate, params)
        rids, owner = rids[keep], owner[keep]
    if kind == "rows":
        rids = rids.astype(np.int32 if part.base.num_rows <= 2**31 else np.int64)
        return _split_by(owner, len(bars), [sanitize.freeze(rids)])

    def lower() -> List[_Step]:  # one lineage leaf: no input runs as a core of its own
        leaf = _ChainState.for_leaf(part.base, _EMPTY, base=part.base_name)
        plain = lambda plan: (_plain_leaf(plan, tables, config, params), None)
        steps: List[_Step] = []
        _lower(pushed.core, lambda side: leaf, plain, catalog, None, steps)
        for step in steps:
            step.index = KeyIndex([step.plain.column_values(k) for k in step.names], step.dtypes)
        return steps

    state = _ChainState.for_leaf(part.base, rids, base=part.base_name)
    state, owner = _run_steps(state, memo.lowered(lower), config, params, stats, owner)
    table = _gather_chain_output(state, pushed.columns)
    if kind == "groups":
        keys = [np.asarray(evaluate(e, table, params)) for e, _ in pushed.groupby.keys]
    else:
        projected = _project(pushed.project, table, params)
        keys = [projected.column(n) for n in projected.schema.names]
    ids, num, reps, counts = factorize([owner] + keys)
    # Chain output is not in bar order, but within one bar it runs in
    # order-key order: each group's first row holds its least order key.
    by_bar = stable_group_order(owner[reps], len(bars))
    reps = reps[by_bar]
    small = np.int32 if ids.size < 2**31 else np.int64  # a count is at most the fill's rows
    counts = counts[by_bar].astype(small)
    keys = [k[reps] for k in keys]
    packing = zip(pushed.memo.order, strides, strict=True)
    order = sum(state.positions[leaf][reps] * stride for leaf, stride in packing)
    columns = keys + [memo.encode(keys, num), counts, order]
    return _split_by(owner[reps], len(bars), [sanitize.freeze(c) for c in columns])


def _merge_groups(groups: List[List[list]], num_codes: int) -> list:
    """Per binding, ``[key columns..., counts]`` from its bars' partials
    ``groups[i]`` (``None`` when it has none), groups ordered by order key
    — the first-occurrence order the raw path's factorize gives over the
    binding's output.  A group's slot is ``binding * num_codes + code``
    (ranked first when sparse); one scatter-min of the order keys per slot
    finds each group's first partial, holding its least order key and the
    only key values gathered.  The bars partition the output, so a
    binding's order keys are distinct: one partial wins per slot, and only
    the winners are sorted; counts sum.  No key value is hashed."""
    from .vector.kernels import DENSE_FACTORIZE_MAX, least_per_slot

    parts = [p for g in groups for p in g]
    if not parts:
        return [None] * len(groups)
    keys = len(parts[0]) - 3
    if len(groups) == 1 and len(parts) == 1:
        return [[a.copy() for a in parts[0][:keys]] + [parts[0][keys + 1].astype(np.int64)]]
    columns = [np.concatenate(cols) for cols in zip(*parts, strict=True)]
    slot, order, binding = columns[keys], columns[-1], None
    if len(groups) > 1:
        binding = np.repeat(np.arange(len(groups)), [sum(p[-1].size for p in g) for g in groups])
        slot = binding * num_codes + slot
    if len(groups) * num_codes > max(4 * slot.size, DENSE_FACTORIZE_MAX):
        slot = np.unique(slot, return_inverse=True)[1]  # O(n log n), not O(domain)
    size = int(slot.max()) + 1
    rows = np.flatnonzero(order == least_per_slot(slot, order, size)[slot])
    first = order[rows]  # lexsort's last key is the primary one
    rows = rows[first.argsort() if binding is None else np.lexsort((first, binding[rows]))]
    counts = np.bincount(slot, weights=columns[keys + 1], minlength=size)[slot[rows]]
    merged = [k[rows] for k in columns[:keys]] + [counts.astype(np.int64)]
    return [merged] if binding is None else _split_by(binding[rows], len(groups), merged)


def _groups_table(pushed, kind, schema: Schema, merged, params) -> Table:
    """One binding's output from its merged groups."""
    if merged is None and kind == "groups" and not pushed.groupby.keys:
        merged = [np.zeros(1, dtype=np.int64)]  # a keyless COUNT over no row
    if merged is None:
        table = Table.empty(schema)
    elif kind == "distinct":
        return Table(dict(zip(schema.names, merged[:-1], strict=True)), schema)
    else:
        gb = pushed.groupby
        names = [alias for _, alias in gb.keys] + [agg.alias for agg in gb.aggs]
        merged = merged + [merged[-1].copy() for _ in gb.aggs[1:]]
        table = Table(dict(zip(names, merged, strict=True)), schema)
    if kind == "distinct" or pushed.project is None:
        return table
    return _project(pushed.project, table, params)


def _rows_table(pushed, source: Table, parts: List[list], params) -> Table:
    """One binding's output from its bars' surviving rids."""
    rids = np.concatenate([p[0] for p in parts] or [_EMPTY])
    if len(parts) > 1:
        rids = np.sort(rids)  # distinct (the index partitions them): any sort agrees
    rids = rids.astype(np.int64, copy=False)  # an int32 index gathers slower
    if pushed.project is None:
        return source.take(rids)
    table = _gather_chain_output(_ChainState.for_leaf(source, rids), pushed.columns)
    return _project(pushed.project, table, params)


def _fill_runs(bars: List[int], offsets: np.ndarray) -> List[List[int]]:
    """``bars`` cut into consecutive runs of at most
    :data:`FILL_RUN_RIDS` rids by the CSR ``offsets``."""
    runs, start, total = [], 0, 0
    for i, bar in enumerate(bars):
        size = int(offsets[bar + 1] - offsets[bar])
        if i > start and total + size > FILL_RUN_RIDS:
            runs.append(bars[start:i])
            start, total = i, 0
        total += size
    return runs + [bars[start:]] if bars else runs


def _memo_answers(pushed, kind, memo, part, params_list, cache, fill, stats) -> List[Table]:
    """Each binding's output table, merged from its bars' partials; the
    bars no brush filled before are filled first, a run of them per
    ``fill`` call (:func:`_fill_runs`); ``stats`` times both phases."""
    start = perf_counter()
    num_keys = part.index.num_keys
    per_binding = []
    for params in params_list:
        bars = sorted(set(resolve_rid_spec(part.plan.rids, params, 0).tolist()))
        if bars and (bars[0] < 0 or bars[-1] >= num_keys):
            raise LineageError(f"rids out of range [0, {num_keys})")
        per_binding.append(bars)
    missing = sorted({bar for bars in per_binding for bar in bars if bar not in memo.bars})
    for run in _fill_runs(missing, part.index.as_csr()[0]):
        for bar, partial in zip(run, fill(run), strict=True):
            memo.bars.setdefault(bar, partial)
    requested = sum(map(len, per_binding))
    cache.count_bars(len(missing), requested - len(missing))
    filled = perf_counter()
    stats.memo_fill_s += filled - start
    groups = [
        [p for p in map(memo.bars.__getitem__, bars) if p is not None]
        for bars in per_binding
    ]
    if kind != "rows":  # num_codes read after the partials: every code in them is below it
        groups = _merge_groups(groups, memo.num_codes)
    tables = [
        _rows_table(pushed, part.base, g, p) if kind == "rows"
        else _groups_table(pushed, kind, memo.schema, g, p)
        for g, p in zip(groups, params_list, strict=True)
    ]
    stats.memo_merge_s += perf_counter() - filled
    return tables


class _Route(NamedTuple):
    """A prepared pushed tree's bound route to its per-bar memo
    (:func:`_memo_tables`): what :func:`_bind` derived from one
    ``(catalog, results)`` view, valid while ``key`` holds; it holds each
    object it read by weak reference, so it keeps none of them alive."""

    key: PartitionKey  # the partition's, with each plain leaf's table
    declined: Optional[str]  # the check that declined the memo, else None
    leaves: tuple = ()  # (alias, table name, rows, epoch) per core leaf, pre-order
    strides: tuple = ()  # the order key's (:func:`_order_strides`)
    reads: Tuple[str, ...] = ()  # the base columns the memo is keyed on


def _bind(shape, catalog, results) -> Tuple[_Route, BarPartition, dict]:
    """A route for ``shape`` in this view, the partition and the plain
    leaf tables (name → ``(table, epoch)``); every guard runs here."""
    part, key = resolve_scan_partition(shape.scan, catalog, results)
    if not part.partitioned:
        return _Route(key, "index"), part, {}
    leaves, tables = [], {}
    for side in shape.leaves:
        plain = plain_scan(side.plan)
        if plain is None:
            leaves.append((shape.scan.alias, part.base_name, part.base.num_rows, part.epoch))
        else:
            table, epoch = tables.setdefault(plain.table, catalog.get_versioned(plain.table))
            leaves.append((plain.alias, plain.table, table.num_rows, epoch))
    strides = _order_strides([leaves[i][2] for i in shape.order])
    base = part.base.schema.names
    reads = base if shape.reads is None else sorted(shape.reads.intersection(base))
    key = key._replace(tables=tuple((n, weakref.ref(t), e) for n, (t, e) in tables.items()))
    declined = None if strides is not None else "order key"
    return _Route(key, declined, tuple(leaves), tuple(strides or ()), tuple(reads)), part, tables


def _memo_tables(
    pushed: PushedLineageQuery,
    catalog: CatalogView,
    results: Optional[Mapping[str, object]],
    config: CaptureConfig,
    params_list: Sequence[Optional[dict]],
    cache: LineageResolutionCache,
    stats: PushedStats,
):
    """Answer ``pushed`` for each binding from its per-bar memo; returns
    ``(tables, leaves)`` — ``leaves`` the route's, for the node metadata —
    or ``None`` when the memo does not apply (capture on, no
    :class:`~repro.plan.rewrite.MemoShape`, or a route that declined).

    What a run derives before the memo lookup is bound once into the
    tree's **route** (``pushed.route``, :class:`_Route`), valid while its
    :class:`~repro.exec.lineage_scan.PartitionKey` holds in the view the
    run reads, O(leaves).  A stale route is rebuilt whole — every guard
    runs again — and installed as one object, so readers of other
    snapshots may each rebind it but never see half of one.

    The memo is one cache entry per (pushed tree, parameters other than
    the rid argument — :func:`shared_fingerprint`, which all bindings
    share), live while what its fills read is unchanged, each object
    pinned: the traced base table's name and epoch and the arrays of the
    columns of it the statement reads (``MemoShape.reads``; catalog
    columns never change in place, so a ``preserve_rids`` refresh keeps
    the memo unless it swaps a read column); each plain join leaf's epoch
    and table; and the view's backward index.  A re-registration's new
    index is compared with the old one on the first brush, and a
    bit-equal one re-stamps the entry, so re-capturing an unchanged view
    refills no bar.  The shrink guard runs once per bar fill.
    """
    shape = None if config.enabled else pushed.memo
    if shape is None:
        return None
    start = perf_counter()
    scan, route = shape.scan, pushed.route
    held = None if route is None else route.key.held(scan, catalog, results)
    bound = held is None
    if bound:
        route, *held = _bind(shape, catalog, results)
        object.__setattr__(pushed, "route", route)  # the tree's one mutable slot
    if route.declined is not None:
        return None
    part, tables = held
    kind = shape.kind
    inputs = (part.base_name, part.epoch) + tuple(
        Pin(part.base.column(n)) for n in route.reads
    ) + tuple((epoch, Pin(table)) for table, epoch in tables.values())

    def build() -> _BarMemo:
        stage = {"groups": pushed.groupby, "distinct": pushed.project}.get(kind)
        return _BarMemo(None if stage is None else infer_schema(stage, catalog))

    def same(stored) -> bool:
        # Only the index object differs, and its lineage is bit-equal.
        return stored[0] == inputs and stored[1].obj == part.index

    key = (Pin(pushed), shared_fingerprint(scan, params_list[0]))
    memo = cache.get(key, build, (inputs, Pin(part.index)), same)
    stats.route_s += perf_counter() - start
    stats.route_binds += bound
    stats.count(pushed)
    chain = (catalog, config, tables, stats, route.strides)

    def fill(bars):
        return _fill_bars(pushed, kind, part, bars, params_list[0], chain, memo)

    return _memo_answers(pushed, kind, memo, part, params_list, cache, fill, stats), route.leaves


def execute_pushed_batch(
    pushed: PushedLineageQuery,
    catalog: CatalogView,
    results: Optional[Mapping[str, object]],
    config: CaptureConfig,
    params_list: Sequence[Optional[dict]],
    cache: LineageResolutionCache,
) -> Optional[list]:
    """A prepared plan whose root is ``pushed`` run for N bindings that
    differ only in the rid argument: the route check and the memo lookup
    run once, then each binding is one merge of its bars' partials — an
    :class:`~repro.exec.vector.executor.ExecResult` bit-identical to the
    executors', with the ``timings`` one binding's run carries.  ``None``
    when the per-bar memo does not answer and the caller must run it."""
    from .vector.executor import ExecResult

    start, stats = perf_counter(), PushedStats()
    answered = _memo_tables(pushed, catalog, results, config, params_list, cache, stats)
    if answered is None:
        return None
    timings = {EXECUTE: perf_counter() - start}
    fold_push_stats(timings, stats)
    return [ExecResult(table, None, dict(timings)) for table in answered[0]]
