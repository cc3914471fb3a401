"""Semantic analysis: raw SQL AST → logical plan against a catalog.

The binder resolves (possibly qualified) column references through the
FROM clause's scope, lowers comma-joins with equality predicates into hash
joins (detecting pk-fk joins when the build side's key is a unique column
of a base table), separates aggregates from scalar expressions, and
normalizes the SELECT list into a ``Project`` over a ``GroupBy`` when
aggregation is present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SqlError
from ..expr.ast import BinOp, Col, Const, Expr, Func, InList, Not, Param
from ..plan.logical import (
    AggCall,
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
)
from ..plan.schema import JOIN_RENAME_SUFFIX
from ..storage.catalog import Catalog
from .parser import (
    JoinClause,
    RawAgg,
    RawBin,
    RawColumn,
    RawConst,
    RawFunc,
    RawIn,
    RawNot,
    RawParam,
    SelectItem,
    SelectStatement,
    SetStatement,
    Statement,
    parse,
)


def parse_sql(text: str, catalog: Catalog, results=None) -> LogicalPlan:
    """Parse and bind a SQL statement into a logical plan.

    ``results`` is the registry of named prior query results (mapping name
    to :class:`~repro.api.QueryResult`) that lineage-consuming table
    expressions — ``FROM Lb(result, 'relation')`` / ``FROM Lf('relation',
    result)`` — resolve against; names are checked at bind time (and the
    prior result's output schema is frozen into the plan for ``Lf``), but
    the result object itself is looked up again at execution time.
    """
    return bind(parse(text), catalog, results)


def bind(statement: Statement, catalog: Catalog, results=None) -> LogicalPlan:
    if isinstance(statement, SetStatement):
        left = bind(statement.left, catalog, results)
        right = bind(statement.right, catalog, results)
        return SetOp(statement.op, left, right, all=statement.all)
    return _SelectBinder(statement, catalog, results).bind()


@dataclass
class _ScopeEntry:
    alias: str
    table: str
    col_map: Dict[str, str]  # original column name -> current output name


class _Scope:
    """Column visibility during FROM-clause construction."""

    def __init__(self):
        self.entries: List[_ScopeEntry] = []
        self.taken: set = set()

    def add_table(self, alias: str, table: str, columns: Sequence[str]) -> None:
        col_map = {}
        for name in columns:
            out = name
            while out in self.taken:
                out += JOIN_RENAME_SUFFIX
            self.taken.add(out)
            col_map[name] = out
        self.entries.append(_ScopeEntry(alias, table, col_map))

    def resolve(self, ref: RawColumn) -> str:
        if ref.qualifier is not None:
            for entry in self.entries:
                if entry.alias == ref.qualifier or entry.table == ref.qualifier:
                    if ref.name not in entry.col_map:
                        raise SqlError(
                            f"table {ref.qualifier!r} has no column {ref.name!r}"
                        )
                    return entry.col_map[ref.name]
            raise SqlError(f"unknown table qualifier {ref.qualifier!r}")
        hits = [
            entry.col_map[ref.name]
            for entry in self.entries
            if ref.name in entry.col_map
        ]
        if not hits:
            raise SqlError(f"unknown column {ref.name!r}")
        if len(hits) > 1 and len(set(hits)) > 1:
            raise SqlError(f"ambiguous column {ref.name!r}; qualify it")
        return hits[0]


class _SelectBinder:
    def __init__(self, stmt: SelectStatement, catalog: Catalog, results=None):
        self.stmt = stmt
        self.catalog = catalog
        self.results = results
        self.scope = _Scope()

    # -- entry point --------------------------------------------------------------

    def bind(self) -> LogicalPlan:
        plan, residual_where = self._bind_from()
        if residual_where is not None:
            plan = Select(plan, residual_where)

        items = self._expand_star(self.stmt.items)
        has_aggs = any(_contains_agg(i.expr) for i in items if not i.star)
        if self.stmt.group_by or has_aggs:
            plan = self._bind_aggregation(plan, items)
        else:
            if self.stmt.having is not None:
                raise SqlError("HAVING requires GROUP BY or aggregates")
            if not all(i.star for i in self.stmt.items):
                exprs = []
                for i, item in enumerate(items):
                    expr = self._scalar(item.expr)
                    exprs.append((expr, self._alias_for(item, expr, i)))
                plan = Project(plan, exprs)
        if self.stmt.distinct:
            if isinstance(plan, Project) and not plan.distinct:
                plan = Project(plan.child, plan.exprs, distinct=True)
            else:
                names = self._output_names(plan)
                plan = Project(plan, [(Col(n), n) for n in names], distinct=True)
        order_by = self.stmt.order_by or []
        if order_by or self.stmt.limit is not None:
            names = set(self._output_names(plan))
            for name, _ in order_by:
                if name not in names:
                    raise SqlError(
                        f"ORDER BY references unknown output column {name!r}"
                    )
            plan = Sort(plan, order_by, limit=self.stmt.limit)
        return plan

    # -- FROM clause -----------------------------------------------------------------

    def _from_item(self, ref) -> Tuple[LogicalPlan, List[str]]:
        """Plan + output column names for one FROM item (table, derived
        table, or lineage-consuming table function)."""
        if ref.lineage is not None:
            return self._lineage_from_item(ref)
        if ref.subquery is not None:
            from ..plan.schema import infer_schema

            sub_plan = bind(ref.subquery, self.catalog, self.results)
            return sub_plan, infer_schema(sub_plan, self.catalog).names
        table = self.catalog.get(ref.table)
        alias = ref.alias if ref.alias != ref.table else None
        return Scan(ref.table, alias=alias), table.schema.names

    def _lineage_from_item(self, ref) -> Tuple[LogicalPlan, List[str]]:
        raw = ref.lineage
        if self.results is None or raw.result not in self.results:
            known = sorted(self.results) if self.results else []
            raise SqlError(
                f"unknown result {raw.result!r} in {raw.func.upper()}(...); "
                f"register the prior query with Database.register_result "
                f"(known: {known})"
            )
        prior = self.results[raw.result]
        if prior.lineage is None:
            raise SqlError(
                f"result {raw.result!r} was executed without lineage "
                "capture; re-run it with capture enabled to consume its "
                "lineage"
            )
        if raw.func == "lb":
            # Lb yields a subset of the traced base relation's rows.  The
            # relation argument may be a base name, a self-join occurrence
            # key ('t#0'), or a SQL alias of the prior query.
            from ..exec.lineage_scan import resolve_base_table

            base = resolve_base_table(self.catalog, prior.lineage, raw.relation)
            schema = self.catalog.get(base).schema
            source_name = raw.relation
        else:
            # Lf yields a subset of the prior result's output rows.
            if not prior.lineage.keys_for(raw.relation):
                raise SqlError(
                    f"result {raw.result!r} has no lineage for relation "
                    f"{raw.relation!r}; captured: {prior.lineage.relations}"
                )
            schema = prior.table.schema
            source_name = raw.result
        rids = self._bind_rid_spec(raw.rids)
        plan = LineageScan(
            result=raw.result,
            relation=raw.relation,
            direction="backward" if raw.func == "lb" else "forward",
            rids=rids,
            alias=ref.alias if ref.alias != source_name else None,
            schema=schema,
        )
        return plan, schema.names

    def _bind_rid_spec(self, raw) -> Optional[Expr]:
        if raw is None:
            return None
        if isinstance(raw, RawParam):
            return Param(raw.name)
        return Const(raw)  # tuple of int literals

    def _bind_from(self) -> Tuple[LogicalPlan, Optional[Expr]]:
        base = self.stmt.base
        plan, base_columns = self._from_item(base)
        self.scope.add_table(base.alias, base.table or base.alias, base_columns)

        conjuncts = _split_conjuncts(self.stmt.where)
        for clause in self.stmt.joins:
            right_plan, right_names = self._from_item(clause.ref)
            boundary = len(self.scope.entries)

            if clause.comma:
                eq_pairs, conjuncts = self._extract_equi_conditions(
                    conjuncts, clause, boundary, right_names
                )
            else:
                eq_pairs = self._resolve_on_conditions(clause, boundary, right_names)

            self.scope.add_table(
                clause.ref.alias, clause.ref.table or clause.ref.alias, right_names
            )
            if eq_pairs:
                left_keys = [l for l, _ in eq_pairs]
                right_keys = [r for _, r in eq_pairs]
                pkfk = self._is_unique_key(plan, left_keys)
                plan = HashJoin(plan, right_plan, left_keys, right_keys, pkfk=pkfk)
            else:
                plan = CrossProduct(plan, right_plan)

        where = None
        for raw in conjuncts:
            bound = self._scalar(raw)
            where = bound if where is None else BinOp("and", where, bound)
        return plan, where

    def _resolve_on_conditions(
        self, clause: JoinClause, boundary: int, right_names: Sequence[str]
    ) -> List[Tuple[str, str]]:
        pairs = []
        for a, b in clause.conditions:
            side_a, side_b = self._assign_on_sides(
                self.scope_side_for_on(a, clause, boundary, right_names),
                self.scope_side_for_on(b, clause, boundary, right_names),
            )
            left_ref, right_ref = (a, b) if side_a == "left" else (b, a)
            pairs.append((self.scope.resolve(left_ref), right_ref.name))
        return pairs

    @staticmethod
    def _assign_on_sides(side_a: str, side_b: str) -> Tuple[str, str]:
        """Settle one ON condition's sides from per-reference candidates.

        A reference may be satisfiable by ``"both"`` sides — e.g. ``FROM
        Lb(res, 't') JOIN t ON t.z = t.z``, where the qualifier ``t``
        names the lineage scan's default alias *and* the joining table.
        An ambiguous reference takes the side its partner cannot, and a
        fully ambiguous condition breaks the tie left-preferring (the
        written order: first operand left, second right) — so self-joins
        back to a FROM item's own base table need no explicit alias.

        This deliberately resolves rather than rejects ambiguity: the
        "must relate both sides" constraint pins every tied reference to
        exactly one side (given its partner), and the written-order rule
        makes the remaining fully-tied case deterministic.  Qualify the
        reference to override.
        """
        if side_a == "both":
            side_a = "right" if side_b == "left" else "left"
        if side_b == "both":
            side_b = "right" if side_a == "left" else "left"
        if {side_a, side_b} != {"left", "right"}:
            raise SqlError("JOIN ON condition must relate both sides")
        return side_a, side_b

    def scope_side_for_on(
        self, ref: RawColumn, clause: JoinClause, boundary: int,
        right_names: Sequence[str],
    ) -> str:
        """Which side(s) of the join can satisfy ``ref``: ``"left"``,
        ``"right"``, or ``"both"`` (a qualifier tie, settled per
        condition by :meth:`_assign_on_sides`)."""
        if ref.qualifier is not None:
            in_left = any(
                e.alias == ref.qualifier or e.table == ref.qualifier
                for e in self.scope.entries
            )
            in_right = ref.qualifier in (clause.ref.alias, clause.ref.table)
            if in_left and in_right:
                return "both"
            if in_right:
                return "right"
            return "left"
        in_left = any(ref.name in e.col_map for e in self.scope.entries)
        in_right = ref.name in right_names
        if in_left and in_right:
            return "both"
        if in_right:
            return "right"
        return "left"

    def _extract_equi_conditions(
        self,
        conjuncts: List[object],
        clause: JoinClause,
        boundary: int,
        right_names: Sequence[str],
    ) -> Tuple[List[Tuple[str, str]], List[object]]:
        """Pull ``left.col = new.col`` conjuncts out of WHERE for a
        comma-join (the FROM a, b WHERE a.x = b.y idiom)."""
        pairs: List[Tuple[str, str]] = []
        remaining: List[object] = []
        for raw in conjuncts:
            pair = self._as_cross_pair(raw, clause, right_names)
            if pair is not None:
                pairs.append(pair)
            else:
                remaining.append(raw)
        return pairs, remaining

    def _as_cross_pair(self, raw, clause: JoinClause, right_names) -> Optional[Tuple[str, str]]:
        if not (isinstance(raw, RawBin) and raw.op == "="):
            return None
        if not (isinstance(raw.left, RawColumn) and isinstance(raw.right, RawColumn)):
            return None

        def belongs_right(ref: RawColumn) -> bool:
            if ref.qualifier is not None:
                return ref.qualifier in (clause.ref.alias, clause.ref.table)
            return ref.name in right_names

        def belongs_left(ref: RawColumn) -> bool:
            if ref.qualifier is not None:
                return any(
                    e.alias == ref.qualifier or e.table == ref.qualifier
                    for e in self.scope.entries
                )
            return any(ref.name in e.col_map for e in self.scope.entries)

        a, b = raw.left, raw.right
        if belongs_left(a) and belongs_right(b) and not belongs_right(a):
            return (self.scope.resolve(a), b.name)
        if belongs_left(b) and belongs_right(a) and not belongs_right(b):
            return (self.scope.resolve(b), a.name)
        return None

    def _is_unique_key(self, plan: LogicalPlan, keys: Sequence[str]) -> bool:
        """Detect pk-fk joins: build side is a base scan (optionally
        filtered) whose key columns form a unique key in the data."""
        node = plan
        while isinstance(node, Select):
            node = node.child
        if not isinstance(node, Scan):
            return False
        table = self.catalog.get(node.table)
        if any(k not in table.schema for k in keys):
            return False
        arrays = [table.column(k) for k in keys]
        if table.num_rows == 0:
            return True
        if len(arrays) == 1:
            return np.unique(arrays[0]).shape[0] == table.num_rows
        rows = set(zip(*arrays, strict=True))
        return len(rows) == table.num_rows

    # -- SELECT list and aggregation ------------------------------------------------

    def _expand_star(self, items: List[SelectItem]) -> List[SelectItem]:
        out: List[SelectItem] = []
        for item in items:
            if item.star:
                for entry in self.scope.entries:
                    for current in entry.col_map.values():
                        out.append(
                            SelectItem(RawColumn(None, current), alias=current)
                        )
            else:
                out.append(item)
        return out

    def _bind_aggregation(self, plan: LogicalPlan, items: List[SelectItem]) -> LogicalPlan:
        keys: List[Tuple[Expr, str]] = []
        key_exprs: List[Expr] = []
        for i, raw in enumerate(self.stmt.group_by):
            expr = self._scalar(raw)
            alias = self._group_key_alias(raw, expr, i, items)
            keys.append((expr, alias))
            key_exprs.append(expr)

        aggs: List[AggCall] = []
        select_exprs: List[Tuple[Expr, str]] = []
        for i, item in enumerate(items):
            if _contains_agg(item.expr):
                if not isinstance(item.expr, RawAgg):
                    raise SqlError(
                        "aggregates must be top-level select expressions "
                        "(e.g. SUM(v*v), not SUM(v)/2)"
                    )
                agg = self._bind_agg(item.expr, f"agg{i}" if item.alias is None else item.alias)
                aggs.append(agg)
                select_exprs.append((Col(agg.alias), agg.alias))
            else:
                expr = self._scalar(item.expr)
                match = next((a for e, a in keys if e == expr), None)
                if match is None:
                    raise SqlError(
                        f"non-aggregate select expression {expr!r} must appear "
                        "in GROUP BY"
                    )
                alias = self._alias_for(item, expr, i)
                select_exprs.append((Col(match), alias))

        having = None
        if self.stmt.having is not None:
            having, extra_aggs = self._bind_having(self.stmt.having, keys, aggs)
            aggs = aggs + extra_aggs

        grouped = GroupBy(plan, keys, aggs, having=having)
        return Project(grouped, select_exprs)

    def _group_key_alias(self, raw, expr: Expr, i: int, items: List[SelectItem]) -> str:
        for item in items:
            if item.expr is not None and not _contains_agg(item.expr):
                if self._scalar(item.expr) == expr and item.alias:
                    return item.alias
        if isinstance(expr, Col):
            return expr.name
        return f"key{i}"

    def _bind_agg(self, raw: RawAgg, alias: str) -> AggCall:
        arg = self._scalar(raw.arg) if raw.arg is not None else None
        return AggCall(raw.func, arg, alias)

    def _bind_having(self, raw, keys, aggs) -> Tuple[Expr, List[AggCall]]:
        """Bind HAVING over the aggregate output; aggregates appearing only
        in HAVING become hidden aggregates dropped by the final Project."""
        extra: List[AggCall] = []

        def walk(node) -> Expr:
            if isinstance(node, RawAgg):
                candidate = self._bind_agg(node, "__h")
                for agg in aggs + extra:
                    if (agg.func, agg.arg) == (candidate.func, candidate.arg):
                        return Col(agg.alias)
                hidden = AggCall(
                    candidate.func, candidate.arg, f"__having{len(extra)}"
                )
                extra.append(hidden)
                return Col(hidden.alias)
            if isinstance(node, RawBin):
                return BinOp(node.op, walk(node.left), walk(node.right))
            if isinstance(node, RawNot):
                return Not(walk(node.operand))
            if isinstance(node, RawIn):
                return InList(walk(node.operand), _in_choices(node))
            if isinstance(node, RawColumn):
                # In HAVING scope, names refer to group-key aliases.
                for _expr, alias in keys:
                    if alias == node.name:
                        return Col(alias)
                resolved = self.scope.resolve(node)
                for expr, alias in keys:
                    if expr == Col(resolved):
                        return Col(alias)
                raise SqlError(f"HAVING references non-grouped column {node.name!r}")
            if isinstance(node, RawConst):
                return Const(node.value)
            if isinstance(node, RawParam):
                return Param(node.name)
            if isinstance(node, RawFunc):
                return Func(node.name, [walk(a) for a in node.args])
            raise SqlError(f"unsupported HAVING expression {node!r}")

        return walk(raw), extra

    # -- scalar expression binding ------------------------------------------------------

    def _scalar(self, raw) -> Expr:
        if isinstance(raw, RawColumn):
            return Col(self.scope.resolve(raw))
        if isinstance(raw, RawConst):
            return Const(raw.value)
        if isinstance(raw, RawParam):
            return Param(raw.name)
        if isinstance(raw, RawBin):
            return BinOp(raw.op, self._scalar(raw.left), self._scalar(raw.right))
        if isinstance(raw, RawNot):
            return Not(self._scalar(raw.operand))
        if isinstance(raw, RawFunc):
            return Func(raw.name, [self._scalar(a) for a in raw.args])
        if isinstance(raw, RawIn):
            return InList(self._scalar(raw.operand), _in_choices(raw))
        if isinstance(raw, RawAgg):
            raise SqlError("aggregate used where a scalar expression is required")
        raise SqlError(f"cannot bind expression {raw!r}")

    def _alias_for(self, item: SelectItem, expr: Expr, i: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(expr, Col):
            return expr.name
        return f"col{i}"

    def _output_names(self, plan: LogicalPlan) -> List[str]:
        from ..plan.schema import infer_schema

        return infer_schema(plan, self.catalog).names


def _in_choices(raw: RawIn):
    """IN-list choices: a literal tuple, or a parameter slot (``IN
    :values``) that survives binding and is filled at execution time."""
    if isinstance(raw.choices, RawParam):
        return Param(raw.choices.name)
    return raw.choices


def _split_conjuncts(raw) -> List[object]:
    if raw is None:
        return []
    if isinstance(raw, RawBin) and raw.op == "and":
        return _split_conjuncts(raw.left) + _split_conjuncts(raw.right)
    return [raw]


def _contains_agg(raw) -> bool:
    if raw is None:
        return False
    if isinstance(raw, RawAgg):
        return True
    if isinstance(raw, RawBin):
        return _contains_agg(raw.left) or _contains_agg(raw.right)
    if isinstance(raw, RawNot):
        return _contains_agg(raw.operand)
    if isinstance(raw, RawFunc):
        return any(_contains_agg(a) for a in raw.args)
    if isinstance(raw, RawIn):
        return _contains_agg(raw.operand)
    return False
