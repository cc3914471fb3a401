"""Logical (Perm/GProm-style) lineage capture baselines.

Logical approaches stay inside the relational model: the base query is
rewritten so its output is *annotated* with input identifiers, producing a
denormalized representation of the lineage graph (paper Section 2.1).
Following the paper's own methodology (Section 5 and Appendix B), we
implement the rewrite rules *inside our engine* — with hash-table reuse
and without a transactional storage layer — so the comparison isolates the
approaches' intrinsic costs:

* **Logic-Rid** annotates each output with input *rids*;
* **Logic-Tup** annotates with full input tuples;
* **Logic-Idx** additionally scans the annotated relation to build the
  same end-to-end rid indexes Smoke produces.

For a group-by query ``O = γ(I)`` the rewrite is ``O ⋈_keys I`` (Perm's
aggregation rule): the denormalized result has one row per input row of
``I``, duplicating each output group across its contributors — the data
duplication the paper blames for the overhead (Section 6.1.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import PlanError
from ..exec.vector.executor import VectorExecutor
from ..exec.vector.groupby import build_groups
from ..lineage.capture import QueryLineage
from ..lineage.indexes import RidIndex, invert_rid_index
from ..plan.logical import GroupBy, LogicalPlan, Project, Scan, walk
from ..storage.catalog import Catalog, CatalogView
from ..storage.table import Table

RID_PREFIX = "__rid_"
OID_COLUMN = "__oid"


@dataclass
class AnnotatedCapture:
    """Result of logical lineage capture."""

    output: Table                       # clean base-query output O
    annotated: Table                    # denormalized lineage graph O'
    rid_columns: Dict[str, str]         # base occurrence key -> rid column
    seconds: float                      # capture latency (base query incl.)
    annotation: str                     # 'rid' or 'tuple'

    def backward_scan(self, out_rid: int, relation: str) -> np.ndarray:
        """Answer a backward query by scanning the annotated relation —
        how Logic-Rid/Logic-Tup serve lineage queries (Figure 9)."""
        rid_col = self.rid_columns[relation]
        mask = self.annotated.column(OID_COLUMN) == out_rid
        return np.unique(self.annotated.column(rid_col)[mask])


def _annotated_catalog(catalog: CatalogView, plan: LogicalPlan) -> Tuple[Catalog, Dict[str, str]]:
    """A catalog whose scanned tables carry an explicit rid column."""
    out = Catalog()
    rid_columns: Dict[str, str] = {}
    names = [n.table for n in walk(plan) if isinstance(n, Scan)]
    counts: Dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    seen: Dict[str, int] = {}
    for name in names:
        if counts[name] == 1:
            key = name
        else:
            key = f"{name}#{seen.get(name, 0)}"
            seen[name] = seen.get(name, 0) + 1
        rid_columns[key] = RID_PREFIX + key.replace("#", "_")
    for name in set(names):
        base = catalog.get(name)
        # Single-occurrence tables get one rid column named for their key.
        keys = [k for k in rid_columns if k == name or k.startswith(name + "#")]
        annotated = base
        for key in keys:
            annotated = annotated.with_column(
                rid_columns[key], np.arange(base.num_rows, dtype=np.int64)
            )
        out.register(name, annotated)
    return out, rid_columns


def logical_capture(
    catalog: CatalogView,
    plan: LogicalPlan,
    annotation: str = "rid",
) -> AnnotatedCapture:
    """Run the Perm-style rewrite for a supported plan.

    Supported shapes: a (possibly selective/joining) SPJ tree, optionally
    rooted at one GroupBy — the same class the paper evaluates.
    """
    if annotation not in ("rid", "tuple"):
        raise PlanError(f"annotation must be 'rid' or 'tuple', got {annotation!r}")
    start = time.perf_counter()
    node = plan
    if isinstance(node, Project) and not node.distinct:
        node = node.child
    annotated_catalog, rid_columns = _annotated_catalog(catalog, plan)
    executor = VectorExecutor(annotated_catalog)

    if isinstance(node, GroupBy):
        inner = executor.execute(node.child).table  # I' materialized
        # O = γ(I'): aggregation sees annotation columns but ignores them.
        group_ids, num_groups, reps, counts, _ = build_groups(inner, node.keys, None, node.aggs)
        output = _group_output(inner, node, group_ids, num_groups, reps, counts)
        # Denormalized O' = O ⋈_keys I' — one row per input row.
        annotated = _denormalize(
            output, inner, group_ids, rid_columns, annotation
        )
    else:
        inner = executor.execute(node).table
        n = inner.num_rows
        oid = np.arange(n, dtype=np.int64)
        keep = [c for c in inner.schema.names if not c.startswith(RID_PREFIX)]
        output = inner.select_columns(keep)  # project away annotations
        cols = {OID_COLUMN: oid}
        for rid_col in rid_columns.values():
            cols[rid_col] = inner.column(rid_col)
        if annotation == "tuple":
            for c in keep:
                cols.setdefault(c, inner.column(c))
        else:
            pass
        annotated = Table(cols)
    seconds = time.perf_counter() - start
    return AnnotatedCapture(
        output=output,
        annotated=annotated,
        rid_columns=rid_columns,
        seconds=seconds,
        annotation=annotation,
    )


def _group_output(inner, node, group_ids, num_groups, reps, counts) -> Table:
    from ..exec.vector.kernels import GroupLayout, compute_aggregate
    from ..expr.ast import evaluate

    layout = GroupLayout(group_ids, num_groups, counts) if num_groups else None
    columns = {}
    for expr, alias in node.keys:
        arr = np.asarray(evaluate(expr, inner))
        columns[alias] = arr[reps] if num_groups else arr[:0]
    for agg in node.aggs:
        if layout is None:
            columns[agg.alias] = np.empty(0, dtype=np.int64)
        else:
            columns[agg.alias] = compute_aggregate(agg, layout, inner)
    return Table(columns)


def _denormalize(
    output: Table,
    inner: Table,
    group_ids: np.ndarray,
    rid_columns: Dict[str, str],
    annotation: str,
) -> Table:
    """Materialize O' : every input row paired with its output group."""
    cols: Dict[str, np.ndarray] = {OID_COLUMN: group_ids.astype(np.int64)}
    # Duplicate each output column across its contributing input rows —
    # the k-times duplication the paper measures.
    for name in output.schema.names:
        cols[name] = output.column(name)[group_ids]
    for rid_col in rid_columns.values():
        cols[rid_col] = inner.column(rid_col)
    if annotation == "tuple":
        for name in inner.schema.names:
            if not name.startswith(RID_PREFIX) and name not in cols:
                cols[name] = inner.column(name)
    return Table(cols)


def build_logic_idx(
    capture: AnnotatedCapture,
    base_sizes: Dict[str, int],
    backward: bool = True,
    forward: bool = True,
) -> Tuple[QueryLineage, float]:
    """Logic-Idx: scan the annotated relation into Smoke-format indexes.

    Returns the lineage handle plus the extra indexing time (which the
    paper adds on top of Logic-Rid's capture cost).
    """
    start = time.perf_counter()
    lineage = QueryLineage(capture.output.num_rows)
    oid = capture.annotated.column(OID_COLUMN)
    n_out = capture.output.num_rows
    for key, rid_col in capture.rid_columns.items():
        rids = capture.annotated.column(rid_col)
        order = np.argsort(oid, kind="stable")
        counts = np.bincount(oid, minlength=n_out)
        offsets = np.empty(n_out + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(counts, out=offsets[1:])
        bw = RidIndex(offsets, rids[order])
        if backward:
            lineage.put_backward(key, bw)
        if forward:
            lineage.put_forward(key, invert_rid_index(bw, base_sizes[key]))
        lineage.register_alias(key.split("#")[0], key)
    return lineage, time.perf_counter() - start
