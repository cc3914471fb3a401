"""Static schema inference over logical plans."""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import PlanError, SchemaError
from ..expr.ast import BinOp, Col, Const, Expr, Func, InList, Not, Param
from ..storage.catalog import CatalogView
from ..storage.table import ColumnType, Schema
from .logical import (
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
    ThetaJoin,
)

#: Suffix appended to right-side columns whose names collide in a join.
JOIN_RENAME_SUFFIX = "_r"


def infer_expr_type(expr: Expr, schema: Schema) -> ColumnType:
    """Type of a scalar expression given its input schema."""
    if isinstance(expr, Col):
        return schema.type_of(expr.name)
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return ColumnType.INT
        if isinstance(expr.value, int):
            return ColumnType.INT
        if isinstance(expr.value, float):
            return ColumnType.FLOAT
        if isinstance(expr.value, str):
            return ColumnType.STR
        raise SchemaError(f"unsupported constant {expr.value!r}")
    if isinstance(expr, Param):
        # Parameters are bound late; assume numeric comparisons dominate.
        return ColumnType.STR
    if isinstance(expr, BinOp):
        if expr.op in ("=", "<>", "<", "<=", ">", ">=", "and", "or"):
            return ColumnType.INT  # booleans are stored as int64
        left = infer_expr_type(expr.left, schema)
        right = infer_expr_type(expr.right, schema)
        if ColumnType.STR in (left, right):
            raise SchemaError(f"arithmetic on string operands in {expr!r}")
        if expr.op == "/":
            return ColumnType.FLOAT
        if ColumnType.FLOAT in (left, right):
            return ColumnType.FLOAT
        return ColumnType.INT
    if isinstance(expr, Not):
        return ColumnType.INT
    if isinstance(expr, Func):
        if expr.name == "sqrt":
            return ColumnType.FLOAT
        if expr.name in ("floor", "year", "month"):
            return ColumnType.INT
        return infer_expr_type(expr.args[0], schema)
    if isinstance(expr, InList):
        return ColumnType.INT
    raise SchemaError(f"cannot infer type of {expr!r}")


def agg_output_type(agg: AggCall, schema: Schema) -> ColumnType:
    if agg.func in ("count", "count_distinct"):
        return ColumnType.INT
    arg_type = infer_expr_type(agg.arg, schema)
    if agg.func == "avg":
        return ColumnType.FLOAT
    if agg.func == "sum":
        if arg_type is ColumnType.STR:
            raise SchemaError("SUM over string column")
        return arg_type
    return arg_type  # min/max preserve input type


def join_output_fields(left: Schema, right: Schema) -> List[Tuple[str, ColumnType, str]]:
    """Output fields of a join: (output name, type, side) with collisions
    on the right renamed with :data:`JOIN_RENAME_SUFFIX`."""
    fields: List[Tuple[str, ColumnType, str]] = [
        (n, t, "left") for n, t in left.fields
    ]
    taken = {n for n, _ in left.fields}
    for n, t in right.fields:
        out = n
        while out in taken:
            out = out + JOIN_RENAME_SUFFIX
        taken.add(out)
        fields.append((out, t, "right"))
    return fields


def infer_schema(plan: LogicalPlan, catalog: CatalogView) -> Schema:
    """Output schema of ``plan`` against ``catalog``."""
    if isinstance(plan, Scan):
        return catalog.get(plan.table).schema
    if isinstance(plan, LineageScan):
        if plan.schema is not None:
            return plan.schema
        if plan.direction == "backward":
            # Lb yields a subset of the traced base relation's rows.
            return catalog.get(plan.relation).schema
        raise PlanError(
            "forward LineageScan requires a bound schema (the prior "
            "result's output schema is not derivable from the catalog); "
            "bind the plan through the SQL front end or set schema="
        )
    if isinstance(plan, Select):
        child = infer_schema(plan.child, catalog)
        for name in plan.predicate.columns():
            child.type_of(name)  # raises SchemaError on unknown columns
        return child
    if isinstance(plan, Sort):
        child = infer_schema(plan.child, catalog)
        for name, _ in plan.keys:
            child.type_of(name)
        return child
    if isinstance(plan, Project):
        child = infer_schema(plan.child, catalog)
        return Schema([(alias, infer_expr_type(e, child)) for e, alias in plan.exprs])
    if isinstance(plan, GroupBy):
        child = infer_schema(plan.child, catalog)
        fields = [(alias, infer_expr_type(e, child)) for e, alias in plan.keys]
        fields += [(a.alias, agg_output_type(a, child)) for a in plan.aggs]
        return Schema(fields)
    if isinstance(plan, HashJoin):
        left = infer_schema(plan.left, catalog)
        right = infer_schema(plan.right, catalog)
        for k in plan.left_keys:
            left.type_of(k)
        for k in plan.right_keys:
            right.type_of(k)
        return Schema([(n, t) for n, t, _ in join_output_fields(left, right)])
    if isinstance(plan, (ThetaJoin, CrossProduct)):
        left = infer_schema(plan.left, catalog)
        right = infer_schema(plan.right, catalog)
        combined = Schema([(n, t) for n, t, _ in join_output_fields(left, right)])
        if isinstance(plan, ThetaJoin):
            for name in plan.predicate.columns():
                combined.type_of(name)
        return combined
    if isinstance(plan, SetOp):
        left = infer_schema(plan.left, catalog)
        right = infer_schema(plan.right, catalog)
        if [t for _, t in left.fields] != [t for _, t in right.fields]:
            raise PlanError(
                f"set operation over mismatched schemas: {left} vs {right}"
            )
        return left
    raise PlanError(f"cannot infer schema for {plan!r}")


def column_sources(plan: LogicalPlan, catalog: CatalogView) -> Dict[str, str]:
    """Map each output column of a join tree to the base relation it came
    from (used by workload pruning to decide which lineage to keep)."""
    if isinstance(plan, Scan):
        return {n: plan.table for n in catalog.get(plan.table).schema.names}
    if isinstance(plan, (Select,)):
        return column_sources(plan.child, catalog)
    if isinstance(plan, HashJoin) or isinstance(plan, (ThetaJoin, CrossProduct)):
        left_schema = infer_schema(plan.left, catalog)
        right_schema = infer_schema(plan.right, catalog)
        left_src = column_sources(plan.left, catalog)
        right_src = column_sources(plan.right, catalog)
        out: Dict[str, str] = {}
        for name, _, side in join_output_fields(left_schema, right_schema):
            if side == "left":
                out[name] = left_src.get(name, "")
            else:
                original = name
                while original not in right_schema and original.endswith(
                    JOIN_RENAME_SUFFIX
                ):
                    original = original[: -len(JOIN_RENAME_SUFFIX)]
                out[name] = right_src.get(original, "")
        return out
    return {}
