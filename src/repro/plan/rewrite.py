"""Plan rewrites — late-materializing lineage scans.

PR 1 made ``Lb`` / ``Lf`` SQL table expressions, but a
:class:`~repro.plan.logical.LineageScan` leaf always *materialized* the
traced subset — ``base.take(rids)`` over every column — before the
enclosing operators ran.  Crossfilter-style consuming queries
(``SELECT d, COUNT(*) FROM Lb(view, 't', :bars) GROUP BY d``) therefore
paid a full-width copy that the paper's hand-rolled interaction kernels
never pay: those operate directly on the rid set and touch only the
columns the interaction reads.

:func:`match_late_materialization` is the rewrite decision.  It
recognizes a *tree* of pushable operators over lineage scans, where the
core may be an entire multi-join chain (or snowflake tree) of hash
equi-joins flattened into one unit::

    [Project (bag or DISTINCT)]  >  [GroupBy]  >  [Select]*  >  Core
    Core := LineageScan
          | Join
    Join := HashJoin(Hop, Hop)       -- >= 1 lineage-backed leaf below
    Hop  := [Select]*  >  LineageScan
          | [Select]*  >  Join       -- nested chain / snowflake hop
          | any other plan           -- executed by the backend as usual

and compiles it into a :class:`PushedLineageQuery`: a description both
executors hand to :func:`repro.exec.late_mat.execute_pushed`, which

* resolves the traced rid array(s) exactly like the materializing path
  (same registry lookup, same schema-drift and shrink guards),
* gathers **only the columns the stack reads** at those rid positions —
  for joins, only each hop's join keys plus the columns the enclosing
  stack references, and the non-key payload only at rids that survived
  **every** hop of the chain (intermediate join outputs are never
  materialized — each hop narrows per-leaf position arrays instead),
* picks each hop's hash-build side from cardinality statistics
  (:func:`repro.substrate.stats.choose_build_side`), building on a side
  whose keys are known unique, and matches every hop through the one
  equi-join kernel (:func:`repro.exec.vector.join.compute_matches`),
* evaluates predicates on the rid-gathered slices,
* feeds the aggregation / DISTINCT kernels the (narrow) slice table,
* deduplicates ``DISTINCT`` output in the rid domain (group lineage over
  the narrow slices, composed like the vector executor's set projection),

producing bit-identical output *and* bit-identical captured lineage
(scan ``NodeLineage`` is built from the same rid arrays and composed
through the same :func:`~repro.lineage.composer.compose_node` /
:func:`~repro.lineage.composer.merge_binary` calls).

Fallback rules — shapes where :func:`match_late_materialization`
returns ``None`` and the materialize-then-scan path runs instead:

* a bare ``LineageScan`` (nothing above it to push);
* ``Sort`` / set operations / θ-joins / cross products anywhere in the
  stack — but note that executors attempt the match at **every**
  recursion level, so the input of an ``ORDER BY`` / ``UNION`` branch,
  or a derived-table join input like ``FROM (SELECT * FROM Lb(...)
  WHERE p) AS s CROSS JOIN t``, is still pushed when that subtree
  matches;
* a ``HashJoin`` tree none of whose leaves is a ``[Select*]
  LineageScan`` chain (non-lineage hops of a matched chain — plain
  scans, derived tables, lineage-free join subtrees — are executed by
  the backend's own recursion, which may in turn push subtrees);
* a projection *between* joins (only ``Select`` chains fold mid-chain;
  a derived table that renames or computes columns becomes a plain
  hop);
* anything that is not the Project/GroupBy/Select tree above.

The rewrite is purely structural — no catalog or registry access — so
executors can afford to attempt it at every plan node.  Prepared
statements go one step further: :func:`precompute_rewrites` runs the
match over every node of a plan **once** at prepare time and hands the
executors a :class:`RewriteIndex`, so repeated ``run()`` calls skip the
structural matching entirely (the per-statement cost the interactive
workloads pay N times per brush).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..expr.ast import BinOp, Expr, Param, collect_params
from .logical import (
    GroupBy,
    HashJoin,
    LineageScan,
    LogicalPlan,
    Project,
    Scan,
    Select,
    assign_source_keys,
    walk,
)
from .required import RequiredColumns
from .schema import JOIN_RENAME_SUFFIX


@dataclass(frozen=True)
class PushedJoinSide:
    """One leaf input of a pushed join chain.

    A *lineage-backed* leaf (``scan`` set) is a ``[Select*] LineageScan``
    chain the pushed executor runs in the rid domain: resolve rids, filter
    on rid-gathered predicate slices, gather join keys only, and gather
    payload columns only at rids that survived every hop.  A plain leaf
    (``scan`` is ``None``) is the untouched subtree ``plan``, executed
    through the backend's own recursion (which may push subtrees of it in
    turn).
    """

    scan: Optional[LineageScan]
    predicate: Optional[Expr]
    plan: LogicalPlan

    @property
    def num_joins(self) -> int:
        return 0

    @property
    def has_lineage(self) -> bool:
        return self.scan is not None


@dataclass(frozen=True)
class PushedJoin:
    """One hash equi-join hop of a flattened chain (or snowflake tree)
    with at least one lineage-backed leaf somewhere below.

    ``left`` / ``right`` are either leaves (:class:`PushedJoinSide`) or
    nested hops — ``Lb ⋈ d1 ⋈ d2`` matches as
    ``PushedJoin(PushedJoin(Lb, d1), d2)`` and executes as **one** core
    that never materializes the inner join's output.  ``predicate`` is
    the conjunction of ``Select`` nodes folded directly above this hop
    (a derived-table hop like ``(SELECT * FROM Lb(..) JOIN d WHERE p) AS
    s JOIN d2``, or the statement's WHERE over the core's top hop),
    evaluated over this hop's output columns in the position domain.
    """

    join: HashJoin
    left: "PushedJoinHop"
    right: "PushedJoinHop"
    predicate: Optional[Expr] = None
    has_lineage = True  # a hop only matches when lineage-backed

    @property
    def num_joins(self) -> int:
        return 1 + self.left.num_joins + self.right.num_joins


PushedJoinHop = Union[PushedJoin, PushedJoinSide]


@dataclass(frozen=True)
class MemoShape:
    """What the per-bar memo (:func:`repro.exec.late_mat._memo_tables`)
    reads of a pushed tree's structure, derived once per tree
    (:attr:`PushedLineageQuery.memo`).

    ``kind`` names the per-bar partial that answers the tree:

    * ``"groups"`` — a ``COUNT(*)``-only GROUP BY without HAVING,
      optionally under a bag projection;
    * ``"distinct"`` — ``SELECT DISTINCT`` over the core;
    * ``"rows"`` — predicate-only and bag-projection trees over a leaf
      core (a join core's rows would have to merge by order key).

    ``scan`` is the core's only lineage leaf, a *backward* scan with a rid
    argument whose value no other expression reads (predicates inside the
    core included); the core's other leaves are plain ``[Select*] Scan`` s
    of catalog tables.  Its rid argument is what the memo (and so
    ``sql_batch``) varies.  ``leaves`` are the core's leaves in pre-order
    (left before right): the order in which the lowering consumes
    occurrence keys and lays out its leaf positions.  ``order`` indexes
    the leaves whose positions order the core's output, most significant
    first: a hop's canonical output runs right side first, recursively,
    so its rows are sorted by the tuple of these positions, which a memo
    fill packs into one int64 order key, mixed radix by leaf row count (a
    core whose product of those row counts needs 64 bits is declined to
    the raw path).  ``reads``
    (``None``: every column) holds each name an output column, a join key
    or a predicate of the tree reads, also with its join-rename suffixes
    stripped (a join output column is its leaf column plus zero or more
    :data:`~repro.plan.schema.JOIN_RENAME_SUFFIX`): a superset of the
    traced table's columns a fill reads, found without a schema walk.  A
    stand-in column gathered for a row count alone is not read: its
    values never reach an answer.
    """

    kind: str
    scan: LineageScan
    leaves: Tuple[PushedJoinSide, ...]
    order: Tuple[int, ...]
    reads: Optional[FrozenSet[str]]


@dataclass(frozen=True)
class PushedLineageQuery:
    """A matched Project/GroupBy/Select tree over one pushable ``core``.

    ``core`` is a single lineage leaf (:class:`PushedJoinSide` — a linear
    ``[Select*] LineageScan`` stack, its WHERE folded onto the leaf) or a
    flattened hash-join tree (:class:`PushedJoin`, the WHERE folded onto
    its top hop); the pushed executor lowers both to a spine leaf and join
    steps, run by one step loop.  ``groupby`` / ``project`` are the
    original plan nodes (their ``child`` links are ignored — the pushed
    executor supplies the rid-gathered slices instead; ``project`` may
    carry ``distinct=True``, which the pushed path deduplicates with the
    same group-lineage semantics as the executors).

    ``columns`` is the set of core *output* (for joins: post-rename)
    columns the GroupBy / Project reads; the pushed path gathers only
    these, after every filter has run over a gather of its own columns.
    ``None`` means the stack's output is the core's **full** schema
    (``SELECT * ... [WHERE]``): every column is gathered, but only at the
    rids that survive (for joins: that matched).

    ``route`` is the slot of the per-bar memo's bound route
    (:func:`repro.exec.late_mat._memo_tables`): set by the runs of a
    prepared statement, replaced whole, and no part of the tree's value.
    """

    core: PushedJoinHop
    groupby: Optional[GroupBy] = None
    project: Optional[Project] = None
    columns: Optional[FrozenSet[str]] = frozenset()
    route: object = field(default=None, compare=False, repr=False)

    @property
    def has_join(self) -> bool:
        return isinstance(self.core, PushedJoin)

    @property
    def has_distinct(self) -> bool:
        return self.project is not None and self.project.distinct

    @cached_property
    def chain_hops(self) -> int:
        """Joins flattened into the core beyond the first — the hops a
        single-join push would materialize at (0 for a leaf core, which
        has no join)."""
        return max(self.core.num_joins - 1, 0)

    @cached_property
    def memo(self) -> Optional[MemoShape]:
        """The per-bar memo's facts about this tree, or ``None`` when no
        per-bar partial answers it; derived on first use only."""
        return _memo_shape(self)


def plain_scan(plan: LogicalPlan) -> Optional[Scan]:
    """The catalog ``Scan`` under a plain ``[Select*] Scan`` leaf (filters
    preserve column uniqueness), else ``None``."""
    while isinstance(plan, Select):
        plan = plan.child
    return plan if isinstance(plan, Scan) else None


def _join_leaves(hop: PushedJoinHop) -> List[PushedJoinSide]:
    if isinstance(hop, PushedJoin):
        return _join_leaves(hop.left) + _join_leaves(hop.right)
    return [hop]


def _order_leaves(hop: PushedJoinHop, first: int = 0) -> List[int]:
    if isinstance(hop, PushedJoin):
        split = first + hop.left.num_joins + 1
        return _order_leaves(hop.right, split) + _order_leaves(hop.left, first)
    return [first]


def _core_predicates(hop: PushedJoinHop) -> list:
    """Every predicate inside a core: hop predicates, a lineage leaf's
    pushed predicate, and the ``Select`` stack of a plain leaf."""
    if isinstance(hop, PushedJoin):
        own = [] if hop.predicate is None else [hop.predicate]
        return own + _core_predicates(hop.left) + _core_predicates(hop.right)
    if hop.scan is not None:
        return [] if hop.predicate is None else [hop.predicate]
    predicates, plan = [], hop.plan
    while isinstance(plan, Select):
        predicates.append(plan.predicate)
        plan = plan.child
    return predicates


def _memo_shape(query: PushedLineageQuery) -> Optional[MemoShape]:
    """:attr:`PushedLineageQuery.memo`, derived."""
    leaves = tuple(_join_leaves(query.core))
    scans = [side.scan for side in leaves if side.scan is not None]
    if len(scans) != 1 or any(side.scan is None and plain_scan(side.plan) is None for side in leaves):
        return None
    scan = scans[0]
    if scan.direction != "backward" or scan.rids is None:
        return None
    gb, project = query.groupby, query.project
    if gb is not None and (
        query.has_distinct
        or gb.having is not None
        or any(agg.func != "count" or agg.arg is not None for agg in gb.aggs)
    ):
        return None
    predicates = _core_predicates(query.core)
    if isinstance(scan.rids, Param):
        exprs = predicates + ([e for e, _ in gb.keys] if gb is not None else [])
        exprs += [e for e, _ in project.exprs] if project is not None else []
        if any(scan.rids.name in collect_params(e) for e in exprs):
            return None
    if gb is not None:
        kind = "groups"
    elif query.has_distinct:
        kind = "distinct"
    elif isinstance(query.core, PushedJoinSide):
        kind = "rows"
    else:
        return None
    reads = None
    if query.columns is not None:
        names = set(query.columns)
        for predicate in predicates:
            names |= predicate.columns()
        hops = [query.core]
        while hops:
            hop = hops.pop()
            if isinstance(hop, PushedJoin):
                names.update(hop.join.left_keys, hop.join.right_keys)
                hops += [hop.left, hop.right]
        stripped = set()
        for name in names:
            stripped.add(name)
            while name.endswith(JOIN_RENAME_SUFFIX):
                name = name[: -len(JOIN_RENAME_SUFFIX)]
                stripped.add(name)
        reads = frozenset(stripped)
    return MemoShape(kind, scan, leaves, tuple(_order_leaves(query.core)), reads)


def _fold_selects(node: LogicalPlan) -> Tuple[Optional[Expr], LogicalPlan]:
    """Fold a chain of Select nodes into one conjunction (child order:
    outer predicates land on the right, matching evaluation order)."""
    predicate: Optional[Expr] = None
    while isinstance(node, Select):
        predicate = (
            node.predicate
            if predicate is None
            else BinOp("and", node.predicate, predicate)
        )
        node = node.child
    return predicate, node


def _match_join_hop(plan: LogicalPlan) -> PushedJoinHop:
    """One input of a join hop: a lineage leaf, a nested (lineage-backed)
    join hop, or — anything else — a plain leaf run through the backend."""
    predicate, node = _fold_selects(plan)
    if isinstance(node, LineageScan):
        return PushedJoinSide(scan=node, predicate=predicate, plan=plan)
    if isinstance(node, HashJoin):
        nested = _match_join(node, predicate)
        if nested is not None:
            return nested
    return PushedJoinSide(scan=None, predicate=None, plan=plan)


def _match_join(join: HashJoin, predicate: Optional[Expr]) -> Optional[PushedJoin]:
    """Flatten a HashJoin tree into chain hops; ``None`` when no leaf
    below is lineage-backed (nothing to late-materialize)."""
    left = _match_join_hop(join.left)
    right = _match_join_hop(join.right)
    if not (left.has_lineage or right.has_lineage):
        return None
    return PushedJoin(join=join, left=left, right=right, predicate=predicate)


def match_late_materialization(plan: LogicalPlan) -> Optional[PushedLineageQuery]:
    """The rewrite decision: a :class:`PushedLineageQuery` when ``plan``
    is a pushable tree over lineage scans, else ``None`` (fallback to
    materialize-then-scan)."""
    node = plan
    project: Optional[Project] = None
    groupby: Optional[GroupBy] = None

    if isinstance(node, Project):
        project = node
        node = node.child
    if isinstance(node, GroupBy):
        groupby = node
        node = node.child
    stack = node
    predicate, node = _fold_selects(stack)

    if isinstance(node, HashJoin):
        core = _match_join(node, predicate)
        if core is None:
            return None  # no lineage leaf: nothing to late-materialize
    elif isinstance(node, LineageScan):
        if project is None and groupby is None and predicate is None:
            return None  # bare scan: nothing to push
        # A linear stack is a zero-join core: its WHERE filters the leaf
        # in the rid domain, exactly like a join leaf's folded Selects.
        core = PushedJoinSide(scan=node, predicate=predicate, plan=stack)
    else:
        return None

    # Filters evaluate over a gather of their own columns, so only what
    # the GroupBy / Project reads is gathered for the survivors.
    columns: set = set()
    if groupby is not None:
        for expr, _ in groupby.keys:
            columns |= expr.columns()
        for agg in groupby.aggs:
            if agg.arg is not None:
                columns |= agg.arg.columns()
        # HAVING runs over the aggregate *output*, not base columns.
    elif project is not None:
        for expr, _ in project.exprs:
            columns |= expr.columns()
    else:
        # Predicate-only (or, for joins, bare) core: the output is the
        # core's full schema, so every column is (late-)gathered at
        # surviving/matched rids.
        return PushedLineageQuery(core=core, columns=None)

    return PushedLineageQuery(
        core=core,
        groupby=groupby,
        project=project,
        columns=frozenset(columns),
    )


class RewriteIndex:
    """The late-materialization decision for every node of one plan,
    computed once (prepare time) instead of per execution.

    Keys are node identities, not equality: two structurally equal
    subtrees at different positions are distinct nodes consuming distinct
    occurrence keys, exactly as the executors' recursion sees them.  The
    index holds a reference to the plan so node ids stay valid for its
    lifetime; it must only be consulted with nodes of that plan.
    ``source_keys`` are the plan's occurrence keys
    (:func:`~repro.plan.logical.assign_source_keys`), and ``required``
    the columns each node's gather keeps
    (:class:`~repro.plan.required.RequiredColumns`; a pushed node's
    inputs keep all of theirs).
    """

    __slots__ = ("plan", "source_keys", "required", "_matches")

    def __init__(self, plan: LogicalPlan):
        self.plan = plan
        self.source_keys = assign_source_keys(plan)
        self._matches: Dict[int, PushedLineageQuery] = {}
        for node in walk(plan):
            matched = match_late_materialization(node)
            if matched is not None:
                self._matches[id(node)] = matched
        self.required = RequiredColumns(plan, lambda node: id(node) in self._matches)

    def lookup(self, node: LogicalPlan) -> Optional[PushedLineageQuery]:
        return self._matches.get(id(node))


def precompute_rewrites(plan: LogicalPlan) -> RewriteIndex:
    """Run :func:`match_late_materialization` over all of ``plan`` once;
    executors consult the returned index instead of re-matching per run."""
    return RewriteIndex(plan)
