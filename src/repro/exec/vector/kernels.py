"""Vectorized building blocks shared by the operators of this backend.

The vector backend plays the role of the paper's compiled query engine:
each kernel makes a small, fixed number of passes over columnar data, so
per-tuple interpretation cost — which would drown the instrumentation
overhead Smoke is about — never appears (see DESIGN.md, substitution 1).

``factorize`` deserves a note: it assigns dense group ids in *first
occurrence* order, which is the order a hash table's insertion scan would
produce.  The compiled backend builds groups with a Python dict (insertion
ordered), so both backends emit groups in the same order and results can be
compared exactly.  Group numbering comes from the rows, never from the key
codes it combines, so those codes may be numbered arbitrarily and only
their equality matters: a STR key arrives as its table's memoized codes
(:meth:`~repro.storage.table.Table.codes`), and the one per-object pass
left is :func:`~repro.storage.table.dictionary_encode` — once per stored
STR column, and over the values of joins, DISTINCT and memo fills.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ...errors import PlanError
from ...expr.ast import evaluate
from ...lineage.indexes import stable_group_order
from ...plan.logical import AggCall
from ...storage.table import Table, dictionary_encode


#: Dense-domain threshold: below this (or 4x the input size) codes are
#: scattered into an array spanning their domain instead of sorted —
#: O(n + width) versus np.unique's O(n log n) (factorize's first
#: occurrences and the per-bar memo merge's scatter-min).
DENSE_FACTORIZE_MAX = 1 << 16

#: :func:`least_per_slot`'s "none" fill.
_INT64_MAX = np.iinfo(np.int64).max

#: Key codes ``(codes, width)``: integers in ``0..width-1``, equal exactly
#: where the key values are equal.
Codes = Tuple[np.ndarray, int]


def factorize(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, int, np.ndarray]:
    """Dense group ids for composite keys, in first-occurrence order.

    Returns ``(group_ids, num_groups, representative_rids)`` where
    ``representative_rids[g]`` is the first input rid of group ``g``.
    """
    if not arrays:
        raise PlanError("factorize requires at least one key array")
    if arrays[0].shape[0] == 0:
        return np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64)
    return factorize_codes([codes_for(arr) for arr in arrays])


def factorize_codes(keys: Sequence[Codes]) -> Tuple[np.ndarray, int, np.ndarray]:
    """:func:`factorize` over at least one key, already coded
    (:data:`Codes`), of at least one row."""
    codes, width = keys[0]
    combined = codes.astype(np.int64, copy=False)
    for codes, domain in keys[1:]:
        combined = combined * domain + codes
        width *= domain
    n = combined.shape[0]
    if width <= max(4 * n, DENSE_FACTORIZE_MAX):
        # Dense code domain (the common crossfilter/TPC-H shape): skip the
        # O(n log n) sort inside np.unique.  Ranking first occurrences —
        # num_groups elements, not n — numbers groups in O(n + width).
        first = first_occurrence(combined, width)
        present = np.flatnonzero(first >= 0)
        first_idx = first[present]
        order, rank = _rank_first_occurrence(first_idx)
        code_map = np.empty(width, dtype=np.int64)
        code_map[present] = rank
        return code_map[combined], int(present.shape[0]), first_idx[order]
    uniq, first_idx, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    # np.unique sorts by value; re-rank so group 0 is the first seen.
    order, rank = _rank_first_occurrence(first_idx)
    group_ids = rank[inverse.reshape(-1)]
    representatives = first_idx[order].astype(np.int64)
    return group_ids, int(uniq.shape[0]), representatives


def first_occurrence(codes: np.ndarray, width: int) -> np.ndarray:
    """Per code ``0..width-1``, the position of its first occurrence in
    ``codes`` (``-1``: absent), in O(n + width): a reversed scatter, so
    the last write — the least position — wins."""
    first = np.full(width, -1, dtype=np.int64)
    first[codes[::-1]] = np.arange(codes.shape[0] - 1, -1, -1, dtype=np.int64)
    return first


def least_per_slot(slots: np.ndarray, keys: np.ndarray, size: int) -> np.ndarray:
    """Per slot ``0..size-1``, the least of the int64 ``keys`` scattered to
    it (int64 max: none), in O(n + size): one unbuffered scatter-min."""
    least = np.full(size, _INT64_MAX, dtype=np.int64)
    np.minimum.at(least, slots, keys)
    return least


def _rank_first_occurrence(first_idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rank distinct values by their first input occurrence: returns
    ``(order, rank)`` where ``order`` lists value positions in
    first-seen order and ``rank`` is its inverse permutation.  Shared by
    both factorize paths so group numbering cannot diverge."""
    order = np.argsort(first_idx, kind="stable")  # repro: noqa RPR008 -- ranks num_groups distinct rids, not a dense-id inversion
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    return order, rank


def codes_for(arr: np.ndarray) -> Codes:
    """Dense integer codes for one key column plus its domain size."""
    if arr.dtype == object or arr.dtype.kind in "US":
        codes, index = dictionary_encode(arr)
        return codes, len(index)
    if arr.dtype.kind == "f":
        uniq, inverse = np.unique(arr, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64), int(uniq.shape[0])
    values = arr.astype(np.int64)
    lo = int(values.min())
    hi = int(values.max())
    span = hi - lo + 1
    if span <= 2 * values.shape[0] + 16:
        return values - lo, span
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64), int(uniq.shape[0])


class GroupLayout:
    """Sorted layout of rows by group: the substrate for exact aggregation.

    ``order`` lists member rids group by group, in rid order within a
    group (:func:`~repro.lineage.indexes.stable_group_order` — an O(n)
    radix order over the dense ids); ``offsets`` delimit each group's
    segment.  Shared by all aggregates of one GROUP BY so the ordering
    happens once (this is also precisely the backward rid index layout —
    the reuse principle P4 at work).  It is deferred until an aggregate
    (or the backward-index reuse path) actually needs member order:
    COUNT-style aggregation reads only ``counts()``, so the crossfilter
    re-aggregation shape never orders at all.
    """

    __slots__ = ("_order", "offsets", "group_ids", "num_groups")

    def __init__(self, group_ids: np.ndarray, num_groups: int):
        self.group_ids = group_ids
        self.num_groups = num_groups
        self._order = None
        counts = np.bincount(group_ids, minlength=num_groups)
        self.offsets = np.empty(num_groups + 1, dtype=np.int64)
        self.offsets[0] = 0
        np.cumsum(counts, out=self.offsets[1:])

    @property
    def order(self) -> np.ndarray:
        if self._order is None:
            self._order = stable_group_order(self.group_ids, self.num_groups)
        return self._order

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


def compute_aggregate(
    agg: AggCall,
    layout: GroupLayout,
    child: Table,
    params: Optional[dict] = None,
) -> np.ndarray:
    """Evaluate one aggregate over every group.

    Values are gathered into group order (``layout.order``) once and
    reduced per group segment with ``reduceat``.
    """
    n_groups = layout.num_groups
    if agg.func == "count" and agg.arg is None:
        return layout.counts().astype(np.int64)
    values = evaluate(agg.arg, child, params) if agg.arg is not None else None
    if n_groups == 0:
        dtype = np.float64 if agg.func == "avg" else (
            values.dtype if values is not None else np.int64
        )
        return np.empty(0, dtype=dtype)
    if agg.func == "count":
        return layout.counts().astype(np.int64)
    if agg.func == "count_distinct":
        codes, domain = codes_for(values)
        combined = layout.group_ids.astype(np.int64) * domain + codes
        uniq = np.unique(combined)
        return np.bincount(uniq // domain, minlength=n_groups).astype(np.int64)
    sorted_vals = values[layout.order]
    if sorted_vals.dtype == bool:
        # Boolean predicates aggregate as 0/1 counts (e.g. TPC-H Q12's
        # CASE-like sums); reduceat over bool would compute logical OR.
        sorted_vals = sorted_vals.astype(np.int64)
    starts = layout.offsets[:-1]
    if agg.func == "sum":
        out = np.add.reduceat(sorted_vals, starts)
        return out
    if agg.func == "avg":
        sums = np.add.reduceat(sorted_vals.astype(np.float64), starts)
        return sums / layout.counts()
    if agg.func == "min":
        return np.minimum.reduceat(sorted_vals, starts)
    if agg.func == "max":
        return np.maximum.reduceat(sorted_vals, starts)
    raise PlanError(f"unknown aggregate {agg.func!r}")


def chunk_ranges(n: int, chunk_size: int):
    """Yield ``(lo, hi)`` covering ``[0, n)`` in chunks (Inject's unit of
    appending work)."""
    lo = 0
    while lo < n:
        hi = min(n, lo + chunk_size)
        yield lo, hi
        lo = hi
