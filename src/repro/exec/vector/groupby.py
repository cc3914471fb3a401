"""Instrumented group-by aggregation (paper Section 3.2.3, Figure 4 a/b).

The engine decomposes GROUP BY into a build over the input (assigning each
row its group — our vectorized ``factorize`` plays the role of γ_ht) and an
output scan producing one row per group (γ_agg).  Lineage:

* backward: rid *index* (group → member input rids),
* forward: rid *array* (input rid → group rid), which is exactly the dense
  group-id column the build phase computes — reuse principle P4: the
  structure built for normal execution doubles as the forward index.

Inject reuses the aggregation's group layout as the backward index (or,
when emulating tuple-at-a-time appends, fills growable rid vectors: 10 /
1.5x policy, per-group cardinality hints pre-allocate — Smoke-I-TC).
Defer instead pins the group-id column and returns a thunk;
finalization later counts the groups, allocates the CSR exactly once and
fills it with one stable ordering of the dense ids
(:func:`~repro.lineage.indexes.stable_group_order`), never resizing
(paper: reuse the pinned hash table during user think time).  Either way
the forward rid array *is* the group-id column — shared, not copied.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...expr.ast import Col, evaluate
from ...lineage.capture import CaptureConfig, CaptureMode, IndexOrThunk
from ...lineage.indexes import GrowableRidIndex, RidArray, RidIndex, stable_group_order
from ...plan.logical import AggCall, GroupBy
from ...storage.table import ColumnType, Schema, Table
from .kernels import (
    GroupLayout,
    chunk_ranges,
    codes_for,
    compute_aggregate,
    factorize,
    factorize_codes,
)


def build_groups(
    child: Table,
    key_exprs: Sequence,
    params: Optional[dict],
    aggs: Sequence[AggCall],
) -> Tuple[np.ndarray, int, np.ndarray, np.ndarray, List[np.ndarray]]:
    """The γ_ht phase: evaluate keys and assign dense group ids; returns
    ``(group_ids, num_groups, representatives, counts, key_arrays)``,
    ``counts`` holding each group's rows (:class:`GroupLayout` takes them).

    A key-less (global) aggregate forms a single group over non-empty
    input.  Over empty input it forms one member-less group when every
    aggregate is a ``COUNT`` (one row of zeros, as SQL answers), and zero
    groups otherwise, as the hash-table implementation would (an empty
    table yields no entries to scan): SQL answers NULL there, which this
    engine cannot represent.
    """
    key_arrays = [np.asarray(evaluate(e, child, params)) for e, _ in key_exprs]
    if child.num_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        counts_only = not key_arrays and all(agg.func == "count" for agg in aggs)
        return empty, int(counts_only), empty, np.zeros(int(counts_only), np.int64), key_arrays
    if not key_arrays:
        n = child.num_rows
        return (
            np.zeros(n, dtype=np.int64),
            1,
            np.zeros(1, dtype=np.int64),
            np.array([n], dtype=np.int64),
            key_arrays,
        )
    # A bare STR column keys by its table's memoized codes (one int
    # gather on a table selected from a stored one); its values are read
    # only at the representatives.
    keys = [
        child.codes(e.name)
        if isinstance(e, Col) and child.schema.type_of(e.name) is ColumnType.STR
        else codes_for(arr)
        for (e, _), arr in zip(key_exprs, key_arrays, strict=True)
    ]
    return (*factorize_codes(keys), key_arrays)


def inject_backward_index(
    group_ids: np.ndarray,
    num_groups: int,
    chunk_size: int,
    capacities: Optional[np.ndarray] = None,
) -> Tuple[RidIndex, int]:
    """Build the backward rid index with Inject-style growable appends.

    Returns the finished index and the number of bucket resizes incurred
    (zero when exact capacities were provided — the Smoke-I-TC effect).
    """
    growable = GrowableRidIndex(num_groups, capacities)
    for lo, hi in chunk_ranges(group_ids.shape[0], chunk_size):
        chunk = group_ids[lo:hi]
        order = stable_group_order(chunk, num_groups)
        sorted_ids = chunk[order]
        boundaries = np.nonzero(np.diff(sorted_ids))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_ids.shape[0]]))
        for s, e in zip(starts, ends, strict=True):
            if s == e:
                continue
            growable.extend(int(sorted_ids[s]), order[s:e] + lo)
    return growable.finalize(), growable.total_resizes


def execute_groupby(
    child: Table,
    node: GroupBy,
    config: CaptureConfig,
    params: Optional[dict],
    output_schema: Schema,
    label: str = "groupby",
) -> Tuple[Table, Optional[IndexOrThunk], Optional[IndexOrThunk]]:
    """Run aggregation; returns ``(output, local backward, local forward)``."""
    group_ids, num_groups, representatives, counts, key_arrays = build_groups(
        child, node.keys, params, node.aggs
    )
    layout = GroupLayout(group_ids, num_groups, counts) if num_groups else None

    columns: Dict[str, np.ndarray] = {}
    for (_expr, alias), arr in zip(node.keys, key_arrays, strict=True):
        columns[alias] = arr[representatives] if num_groups else arr[:0]
    for agg in node.aggs:
        if layout is None:
            columns[agg.alias] = np.empty(
                0, dtype=output_schema.type_of(agg.alias).numpy_dtype
            )
        else:
            columns[agg.alias] = compute_aggregate(agg, layout, child, params)
    output = Table(columns, output_schema)

    local_backward: Optional[IndexOrThunk] = None
    local_forward: Optional[IndexOrThunk] = None
    if config.enabled:
        if config.backward:
            if config.mode is CaptureMode.DEFER:
                # Pin the build-phase output (the group-id column stands in
                # for the pinned hash table) and construct later.
                pinned_ids, pinned_n = group_ids, num_groups

                def backward_thunk() -> RidIndex:
                    return RidIndex.from_group_ids(pinned_ids, pinned_n)

                local_backward = backward_thunk
            elif config.emulate_tuple_appends:
                capacities = None
                if config.hints is not None:
                    capacities = config.hints.group_count_for(label)
                index, _resizes = inject_backward_index(
                    group_ids, num_groups, config.chunk_size, capacities
                )
                # Chunked stable appends land bucket-by-bucket in rid
                # order — the canonical inversion of the group ids, which
                # the durability layer can persist as a marker.
                index._inverse_of = group_ids
                local_backward = index
            elif layout is not None:
                # Reuse (P4): the aggregation's sorted layout *is* the
                # backward rid index — γ'_ht reusing the hash table, in
                # vectorized form.  No extra pass, no resizing.
                local_backward = RidIndex(layout.offsets, layout.order)
                local_backward._inverse_of = group_ids
            else:
                local_backward = RidIndex.empty(0)
        if config.forward:
            # P4: the build's group-id column is the forward index as is.
            local_forward = RidArray(group_ids)

    if node.having is not None:
        keep = np.asarray(evaluate(node.having, output, params), dtype=bool)
        kept = np.flatnonzero(keep)
        output = output.take(kept)
        local_backward = _filter_backward(local_backward, kept)
        local_forward = _filter_forward(local_forward, keep, kept)

    return output, local_backward, local_forward


def execute_distinct(
    projected: Table,
    config: CaptureConfig,
) -> Tuple[Table, Optional[IndexOrThunk], Optional[IndexOrThunk]]:
    """Deduplicate an already-projected table (set-semantics projection,
    paper Section 3.2.1): one representative row per distinct value tuple,
    with group lineage — backward rid index (output row → member input
    rids), forward rid array (input rid → output row).

    Shared by the vector executor's ``DISTINCT`` projection and the
    late-materializing pushed path (:mod:`repro.exec.late_mat`), so both
    produce bit-identical rows and indexes by construction.
    """
    if projected.num_rows == 0:
        return projected, RidIndex.empty(0), RidArray(np.empty(0, np.int64))
    group_ids, num_groups, representatives, _ = factorize(
        [projected.column(n) for n in projected.schema.names]
    )
    output = projected.take(representatives)
    local_backward: Optional[IndexOrThunk] = None
    local_forward: Optional[IndexOrThunk] = None
    if config.enabled:
        if config.backward:
            if config.mode is CaptureMode.DEFER:
                local_backward = (
                    lambda g=group_ids, n=num_groups: RidIndex.from_group_ids(g, n)
                )
            else:
                local_backward = RidIndex.from_group_ids(group_ids, num_groups)
        if config.forward:
            local_forward = RidArray(group_ids)
    return output, local_backward, local_forward


def _filter_backward(entry, kept: np.ndarray):
    """Restrict a (possibly deferred) group backward index to kept groups."""
    if entry is None:
        return None
    if callable(entry):
        def thunk(entry=entry, kept=kept) -> RidIndex:
            return _kept_buckets(entry(), kept)

        return thunk
    return _kept_buckets(entry, kept)


def _kept_buckets(full: RidIndex, kept: np.ndarray) -> RidIndex:
    """The kept groups' buckets, in ``kept`` order, as one CSR: a single
    vectorized gather instead of one ``lookup`` per group."""
    offsets = np.empty(kept.shape[0] + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(full.counts()[kept], out=offsets[1:])
    return RidIndex(offsets, full.lookup_many(kept))


def _filter_forward(entry, keep_mask: np.ndarray, kept: np.ndarray):
    """Remap a forward rid array after a HAVING filter on groups."""
    if entry is None:
        return None
    remap = np.full(keep_mask.shape[0], -1, dtype=np.int64)
    remap[kept] = np.arange(kept.shape[0], dtype=np.int64)

    if callable(entry):
        def thunk(entry=entry, remap=remap) -> RidArray:
            return RidArray(remap[entry().values])

        return thunk
    return RidArray(remap[entry.values])
