"""Required columns: what each node's output must carry.

A selection, a join, a sort and a materialized ``Lb`` leaf each gather
rows into a new table.  Gathering every column of the input pays, per
row, for columns that nothing above reads: TPC-H Q1's selection over
``lineitem`` would copy 13 columns (4 of them object arrays) for the 6
its aggregation reads.

:class:`RequiredColumns` is one top-down pass over a bound plan.  A
node's required set is what its parent reads of its output; the root's
is every column (``None``), so ``SELECT *`` keeps them all.  A child's is
its parent's plus the parent's own predicate, sort-key, join-key and
aggregate columns; a ``Project`` or ``GroupBy`` reads only its
expressions.  The sets are a superset at worst: they are computed from
names alone, without schemas, so they hold every name a node *may*
produce.  Lineage does not change, because every operator computes its
rids before it gathers.

A join renames a right column that collides with a left one by
appending :data:`~repro.plan.schema.JOIN_RENAME_SUFFIX`.  Both inputs of
a join therefore keep every name that a required output name becomes
when suffixes are stripped (``x_r`` keeps ``x``), so that the narrowed
inputs rename exactly as the full ones do.

Inputs of set operations, θ-joins and cross products, and of nodes the
late-materialization rewrite pushes, keep every column.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .logical import GroupBy, HashJoin, LogicalPlan, Project, Select, Sort, walk
from .schema import JOIN_RENAME_SUFFIX

Needed = Optional[FrozenSet[str]]


class RequiredColumns:
    """The required output columns of every node of one plan, keyed by
    node identity like :class:`~repro.plan.rewrite.RewriteIndex`;
    ``pushed(node)`` tells which nodes the rewrite pushes.  A node absent
    from the pass (below a pushed node) requires every column."""

    __slots__ = ("plan", "_needed")

    def __init__(self, plan: LogicalPlan, pushed: Callable[[LogicalPlan], bool] = lambda _: False):
        self.plan = plan
        self._needed: Dict[int, Needed] = {}
        self._visit(plan, None, pushed)

    def of(self, node: LogicalPlan) -> Needed:
        """What ``node``'s parent reads of its output (``None``: all)."""
        return self._needed.get(id(node))

    def _visit(self, node: LogicalPlan, needed: Needed, pushed) -> None:
        key = id(node)
        if key in self._needed:
            # The same node object under two parents: it serves both.
            seen = self._needed[key]
            merged = None if seen is None or needed is None else seen | needed
            if merged == seen:
                return
            needed = merged
        self._needed[key] = needed
        if pushed(node):
            for below in walk(node):  # run unpruned, however else reached
                self._needed[id(below)] = None
            self._needed[key] = needed
            return
        for child, child_needed in _inputs(node, needed):
            self._visit(child, child_needed, pushed)


def _inputs(node: LogicalPlan, needed: Needed) -> Iterator[Tuple[LogicalPlan, Needed]]:
    """Each input of ``node`` with the columns ``node`` reads of it."""
    if isinstance(node, Select):
        yield node.child, _with(needed, node.predicate.columns())
    elif isinstance(node, Sort):
        yield node.child, _with(needed, (name for name, _ in node.keys))
    elif isinstance(node, Project):
        yield node.child, frozenset().union(*(e.columns() for e, _ in node.exprs))
    elif isinstance(node, GroupBy):
        exprs = [e for e, _ in node.keys] + [a.arg for a in node.aggs if a.arg is not None]
        yield node.child, frozenset().union(*(e.columns() for e in exprs))
    elif isinstance(node, HashJoin):
        names = None if needed is None else _unrenamed(needed)
        yield node.left, _with(names, node.left_keys)
        yield node.right, _with(names, node.right_keys)
    else:
        for child in node.children:
            yield child, None


def _with(needed: Needed, names) -> Needed:
    return None if needed is None else needed | frozenset(names)


def _unrenamed(needed: FrozenSet[str]) -> FrozenSet[str]:
    """``needed`` and every name its members become with join-rename
    suffixes stripped."""
    out = set(needed)
    for name in needed:
        while name.endswith(JOIN_RENAME_SUFFIX):
            name = name[: -len(JOIN_RENAME_SUFFIX)]
            out.add(name)
    return frozenset(out)


def kept_names(needed: Optional[AbstractSet[str]], names: Sequence[str]) -> Optional[List[str]]:
    """The ``names`` a gather keeps for ``needed``, in order, or ``None``
    when it keeps them all.  At least one is kept, since a table without
    columns has no rows."""
    if needed is None:
        return None
    kept = [name for name in names if name in needed]
    if len(kept) == len(names):
        return None
    return kept or list(names[:1])
