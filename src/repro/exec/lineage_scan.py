"""Execution of :class:`~repro.plan.logical.LineageScan` leaves.

Both backends funnel through :func:`execute_lineage_scan`, so the SQL
constructs ``FROM Lb(result, 'relation')`` and ``FROM Lf('relation',
result)`` behave identically on the vector and compiled engines:

* The named prior result is resolved at *execution* time against the
  registry of :class:`~repro.api.QueryResult` objects held by
  :class:`~repro.api.Database` — re-registering a name re-targets every
  plan that references it.
* The traced rid subset comes from the optional third argument (an int
  literal or a ``:param`` bound through ``params``); omitted, every row is
  traced.  Its rids are looked up in the prior result's index on every
  run (CSR slices, as in the paper's lineage queries) and never cached;
  only the per-bar memo of :func:`~repro.exec.late_mat.execute_pushed`
  keeps derived answers.
* The scan's own lineage is captured like any base-relation scan, so
  lineage-consuming queries are themselves lineage-traceable: ``Lb``
  output rows map to the traced base relation's rids, and ``Lf`` output
  rows map to the prior result's output (registered as a pseudo-relation
  under the result's name).

Late materialization
--------------------
:func:`execute_lineage_scan` is the *materializing* path: it copies the
traced subset (``source.take(rids)``, the columns read above) into a fresh
table that the enclosing operators then scan.  When a ``Select`` / ``Project``
(bag or DISTINCT) / ``GroupBy`` tree sits on a pushable *core* — the
scan itself, or a hash-join tree with ``Select*``-over-``LineageScan``
leaves — both executors instead run the tree in the rid domain, its
core lowered to one left-deep plan of key probes — gathering only the
columns the tree reads (join keys first, payload at matched rids only) and
filtering/deduplicating/aggregating the gathered slices — via
:func:`repro.plan.rewrite.match_late_materialization` and
:func:`repro.exec.late_mat.execute_pushed`.  The rewrite's match and
fallback rules are documented in :mod:`repro.plan.rewrite`; shapes it
does not cover (bare scans, sorts, θ-joins/cross products, set
operations at the tree root) fall back to this module.  Both paths share
:func:`resolve_scan_source` (registry lookup, rid resolution, and every
schema-drift / shrink guard) and :func:`scan_node_lineage`, so output
rows and captured lineage are identical by construction; pass
``late_materialize=False`` to :meth:`repro.api.Database.execute` /
``sql`` to force the materializing path (the benchmarks' baseline).
"""

from __future__ import annotations

import weakref
from typing import AbstractSet, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .. import sanitize
from ..errors import LineageError, PlanError, StaleBindingError
from ..expr.ast import Const, Param
from ..lineage.capture import CaptureConfig, QueryLineage
from ..lineage.composer import NodeLineage
from ..lineage.indexes import RidIndex
from ..plan.logical import LineageScan
from ..plan.required import kept_names
from ..storage.catalog import CatalogView
from ..storage.table import Table


def resolve_base_table(catalog: CatalogView, lineage: QueryLineage, relation: str) -> str:
    """The catalog table underlying a lineage-relation reference.

    ``Lb`` accepts the same three relation forms as lineage lookups — the
    base table name, a ``name#i`` occurrence key of a self-join, or a SQL
    alias — but its output rows always come from the underlying *catalog*
    table, which this resolves.  Unknown references raise the catalog's
    canonical unknown-table error.
    """
    known = set(catalog.names())
    candidates = {key.split("#")[0] for key in lineage.keys_for(relation)} & known
    if len(candidates) > 1:
        # E.g. "FROM a AS x JOIN t AS a": the reference denotes both the
        # base-table-a occurrence and the alias of the t occurrence.
        raise LineageError(
            f"lineage relation {relation!r} maps to multiple base tables "
            f"{sorted(candidates)}; use an occurrence key or a distinct alias"
        )
    if len(candidates) == 1:
        return next(iter(candidates))
    if relation in known:
        return relation
    if "#" in relation and relation.split("#")[0] in known:
        return relation.split("#")[0]
    catalog.get_versioned(relation)  # raises the canonical unknown-table error
    raise PlanError(f"cannot resolve lineage relation {relation!r}")


def resolve_rid_spec(rids_expr, params: Optional[dict], default_size: int) -> np.ndarray:
    """The traced rid subset of a lineage scan as an int64 array."""
    if rids_expr is None:
        return np.arange(default_size, dtype=np.int64)
    if isinstance(rids_expr, Param):
        if params is None or rids_expr.name not in params:
            raise PlanError(
                f"lineage scan references parameter :{rids_expr.name} "
                "but no value was bound; pass params={...}"
            )
        value = params[rids_expr.name]
    elif isinstance(rids_expr, Const):
        value = rids_expr.value
    else:
        raise PlanError(
            f"lineage scan rid subset must be a literal or parameter, "
            f"got {rids_expr!r}"
        )
    arr = np.asarray(value)
    if arr.size == 0:
        # An empty selection (interactive brush-clear) is valid; don't
        # trip the dtype guard on np.asarray([])'s float64 default.
        return np.empty(0, dtype=np.int64)
    if arr.dtype.kind not in "iu":
        # Silent float truncation would trace plausible-looking rows for
        # the wrong bar; demand integer positions.
        raise PlanError(
            f"lineage scan rid subset must be integers, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise PlanError("lineage scan rid subset must be one-dimensional")
    return arr


def _resolve_result(plan: LineageScan, results: Optional[Mapping[str, object]]):
    """The named prior result in ``results``, the registry this execution
    reads (the live registry or a pinned snapshot view)."""
    result = None if results is None else results.get(plan.result)  # one registry lookup
    if result is None:
        known = sorted(results) if results else []
        raise PlanError(
            f"unknown result {plan.result!r} in lineage scan; register the "
            f"prior query with Database.register_result (known: {known})"
        )
    if result.lineage is None:
        raise PlanError(
            f"result {plan.result!r} was executed without lineage capture; "
            "re-run it with capture enabled to consume its lineage"
        )
    return result


def _backward_base(plan: LineageScan, catalog: CatalogView, result):
    """The traced base table of a backward scan, after the epoch and
    schema-drift guards.  Returns ``(base, base_name, epoch,
    captured_epoch)``."""
    base_name = resolve_base_table(catalog, result.lineage, plan.relation)
    base, epoch = catalog.get_versioned(base_name)
    captured_epoch = result.lineage.base_epoch(plan.relation)
    if captured_epoch is not None and captured_epoch != epoch:
        # Same-shape replacement would otherwise answer with stale rids
        # against the new rows (shrink/schema drift is caught by
        # _check_backward_rids and below even without epochs).
        raise PlanError(
            f"base relation {base_name!r} was replaced since result "
            f"{plan.result!r} captured its lineage (epoch "
            f"{captured_epoch} vs {epoch}); re-run the base query"
        )
    if plan.schema is not None and base.schema != plan.schema:
        # Re-registration may re-resolve the relation reference to a
        # different base table (or the table may have been replaced);
        # reading it against the bound schema would corrupt operators
        # above this scan.
        raise StaleBindingError(
            f"relation {plan.relation!r} of result {plan.result!r} now "
            f"resolves to schema {base.schema!r}, but the plan was "
            f"bound against {plan.schema!r}; re-parse the statement"
        )
    return base, base_name, epoch, captured_epoch


def _check_backward_rids(
    plan: LineageScan,
    rids: np.ndarray,
    max_rid: int,
    base: Table,
    base_name: str,
    epoch: int,
    captured_epoch: Optional[int],
) -> None:
    """Shrink guard over resolved backward ``rids`` (``max_rid`` is their
    largest value, ``-1`` when empty), plus the sanitizer's full
    re-validation."""
    if max_rid >= base.num_rows:
        # A captured rid beyond the current table means the base relation
        # shrank since capture.
        raise PlanError(
            f"result {plan.result!r} holds lineage rids beyond "
            f"relation {base_name!r} ({base.num_rows} rows); the base "
            "table was replaced — re-run the base query"
        )
    if sanitize.enabled():
        # Every resolved rid in-domain and the capture epoch live — the
        # production guards only check the largest rid and the recorded
        # epoch; debug mode re-validates the whole resolution.
        sanitize.check_rid_bounds(
            rids, base.num_rows, f"Lb({plan.result!r}, {base_name!r})"
        )
        sanitize.check_epoch(
            captured_epoch, epoch, base_name, f"Lb({plan.result!r})"
        )


def resolve_scan_source(
    plan: LineageScan,
    catalog: CatalogView,
    results: Optional[Mapping[str, object]],
    params: Optional[dict],
) -> Tuple[Table, np.ndarray, str, int, Optional[int]]:
    """Resolve a lineage scan to ``(source table, traced rids, source
    name, source domain, source epoch)`` without materializing any rows.

    The source table is the traced base relation for backward scans and
    the prior result's output for forward scans; ``rids`` index into it.
    All registry-resolution and drift guards live here (and in the
    helpers :func:`resolve_scan_partition` shares) so the materializing path
    (:func:`execute_lineage_scan`) and the pushed path
    (:func:`repro.exec.late_mat.execute_pushed`) reject exactly the same
    states.  ``epoch`` is the traced base relation's catalog replacement
    epoch (``None`` for forward scans, whose source is a prior result).
    The rids are one index lookup per call, never shared with the view's
    index; both execution paths only gather through them.
    """
    result = _resolve_result(plan, results)

    if plan.direction == "backward":
        base, base_name, epoch, captured_epoch = _backward_base(
            plan, catalog, result
        )
        # No rid argument traces every output row.
        probe = resolve_rid_spec(plan.rids, params, result.table.num_rows)
        rids = result.lineage.backward(probe, plan.relation)
        # rids are sorted, so the tail is the largest.
        _check_backward_rids(
            plan, rids, int(rids[-1]) if rids.size else -1,
            base, base_name, epoch, captured_epoch,
        )
        # Register under the resolved base table (like an aliased Scan),
        # so downstream lookups and pruning by base name keep working even
        # when the Lb argument was an alias or occurrence key.
        return base, rids, base_name, base.num_rows, epoch

    lineage = result.lineage
    if plan.schema is not None and result.table.schema != plan.schema:
        # The binder froze the prior result's schema into the plan;
        # silently reading shifted columns would corrupt any operator
        # bound above this scan.
        raise StaleBindingError(
            f"result {plan.result!r} was re-registered with a "
            f"different schema ({result.table.schema!r} vs bound "
            f"{plan.schema!r}); re-parse the statement"
        )
    # No rid argument traces every row of the relation.
    size = lineage.forward_index(plan.relation).num_keys if plan.rids is None else 0
    rids = lineage.forward(plan.relation, resolve_rid_spec(plan.rids, params, size))
    if sanitize.enabled():
        sanitize.check_rid_bounds(
            rids, result.table.num_rows, f"Lf({plan.relation!r}, {plan.result!r})"
        )
    # The prior result's output acts as the scanned (pseudo) relation.
    return result.table, rids, plan.result, result.table.num_rows, None


class BarPartition(NamedTuple):
    """A guarded backward scan and the view's index for it.  When the
    index partitions the base relation (every base rid in at most one
    bar's bucket — the GROUP BY view shape,
    :meth:`~repro.lineage.indexes.RidIndex.is_partitioned`), any brush's
    backward set is the disjoint union of its bars' buckets, which the
    per-bar memo of :func:`repro.exec.late_mat.execute_pushed` exploits."""

    plan: LineageScan
    base: Table
    base_name: str
    epoch: int
    captured_epoch: Optional[int]
    index: object

    @property
    def partitioned(self) -> bool:
        return isinstance(self.index, RidIndex) and self.index.is_partitioned()

    def bucket(self, bar: int) -> np.ndarray:
        """Bar ``bar``'s sorted backward rids, shrink-guarded."""
        offsets, values = self.index.as_csr()
        rids = values[offsets[bar] : offsets[bar + 1]]
        if rids.size > 1 and not bool((rids[1:] > rids[:-1]).all()):
            rids = np.sort(rids)
        _check_backward_rids(
            self.plan, rids, int(rids[-1]) if rids.size else -1,
            self.base, self.base_name, self.epoch, self.captured_epoch,
        )
        return rids


class PartitionKey(NamedTuple):
    """What a guarded partition (:func:`resolve_scan_partition`) and the
    catalog tables read with it were derived from in one ``(catalog,
    results)`` view, each object by weak reference: the result the scan
    names, whether each catalog name :func:`resolve_base_table` looked up
    was there, the traced base table and ``tables``, with their epochs.
    The guards pass, with the same partition, in any view where each is
    the same object (:meth:`held`)."""

    result: weakref.ref
    names: Tuple[str, ...]
    present: Tuple[bool, ...]
    base: weakref.ref
    base_name: str
    epoch: int
    captured_epoch: Optional[int]
    tables: Tuple[Tuple[str, weakref.ref, int], ...] = ()

    def held(self, plan: LineageScan, catalog: CatalogView, results):
        """``(partition, {name: (table, epoch)} of tables)`` in this view,
        or ``None`` unless the key holds in it: the registry lookup every
        run makes, then O(tables) identity checks."""
        result = _resolve_result(plan, results)
        if result is not self.result() or tuple(n in catalog for n in self.names) != self.present:
            return None
        base, epoch = catalog.get_versioned(self.base_name)
        if base is not self.base() or epoch != self.epoch:
            return None
        tables = {}
        for name, ref, bound in self.tables:
            table, now = tables[name] = catalog.get_versioned(name)
            if table is not ref() or now != bound:
                return None
        index = result.lineage.backward_index(plan.relation)
        return BarPartition(plan, base, self.base_name, epoch, self.captured_epoch, index), tables


def resolve_scan_partition(
    plan: LineageScan,
    catalog: CatalogView,
    results: Optional[Mapping[str, object]],
) -> Tuple[BarPartition, PartitionKey]:
    """The registry, epoch and schema guards of
    :func:`resolve_scan_source` for a *backward* scan, without resolving
    any rids: the guarded scan and its :class:`PartitionKey`."""
    result = _resolve_result(plan, results)
    base, base_name, epoch, captured_epoch = _backward_base(plan, catalog, result)
    index = result.lineage.backward_index(plan.relation)
    names = {key.split("#")[0] for key in result.lineage.keys_for(plan.relation)}
    names = tuple(sorted(names | {plan.relation, plan.relation.split("#")[0]}))
    key = PartitionKey(weakref.ref(result), names, tuple(n in catalog for n in names),
                       weakref.ref(base), base_name, epoch, captured_epoch)
    return BarPartition(plan, base, base_name, epoch, captured_epoch, index), key


def scan_node_lineage(
    plan: LineageScan,
    key: str,
    rids: np.ndarray,
    source_name: str,
    domain: int,
    config: CaptureConfig,
    epoch: Optional[int] = None,
) -> NodeLineage:
    """The scan's node lineage: output row ``i`` came from source rid
    ``rids[i]``.  Shared by both materialization paths, so the pushed
    path composes from the same indexes the materializing path builds.
    Construction lives in the composer fold
    (:meth:`~repro.lineage.composer.NodeLineage.for_traced_scan`)."""
    return NodeLineage.for_traced_scan(
        key, source_name, rids, domain, config, alias=plan.alias, epoch=epoch
    )


def execute_lineage_scan(
    plan: LineageScan,
    key: str,
    catalog: CatalogView,
    results: Optional[Mapping[str, object]],
    config: CaptureConfig,
    params: Optional[dict],
    columns: Optional[AbstractSet[str]] = None,
) -> Tuple[Table, NodeLineage]:
    """Materialize a lineage scan's output table, of ``columns`` only
    (``None``: every column), and its node lineage."""
    source, rids, source_name, domain, epoch = resolve_scan_source(
        plan, catalog, results, params
    )
    table = source.take(rids, kept_names(columns, source.schema.names))
    node = scan_node_lineage(plan, key, rids, source_name, domain, config, epoch)
    return table, node
