"""Vectorized building blocks shared by the operators of this backend.

The vector backend plays the role of the paper's compiled query engine:
each kernel makes a small, fixed number of passes over columnar data, so
per-tuple interpretation cost — which would drown the instrumentation
overhead Smoke is about — never appears (numpy kernels stand in for the
paper's compiled C++ engine).

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

A capture-on GROUP BY needs two passes (reuse principle P4): the build's
group-id column, which is the forward index, and its stable inversion
(:func:`~repro.lineage.indexes.stable_group_order`), the backward one.
The build keeps its other work small: a non-negative integer key with a
small offset is its own code array (:func:`codes_for`), one ``bincount`` gives both the
present codes and the group sizes :func:`factorize` returns (the
layout's offsets, the memo's partial counts), and a key
with few groups finds their first rows in the first chunks of rows
(:func:`_first_positions`).  This about halved the four crossfilter view
queries at 2M rows, capture off (23-29 -> 9-13 ms).
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

#: :func:`_first_positions` scans the rows in chunks for first
#: occurrences only when the key has at most one group per this many
#: rows; the first chunk has this many rows.
_ROWS_PER_GROUP = 32
_FIRST_CHUNK_ROWS = 1 << 12

#: :func:`least_per_slot`'s "none" fill.
_INT64_MAX = np.iinfo(np.int64).max

#: Key codes ``(codes, width)``: integers in ``0..width-1``, equal exactly
#: where the key values are equal.
Codes = Tuple[np.ndarray, int]


def factorize(
    arrays: Sequence[np.ndarray],
) -> Tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Dense group ids for composite keys, in first-occurrence order.

    Returns ``(group_ids, num_groups, representative_rids, counts)`` where
    ``representative_rids[g]`` is the first input rid of group ``g`` and
    ``counts[g]`` its number of rows.
    """
    if not arrays:
        raise PlanError("factorize requires at least one key array")
    if arrays[0].shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, 0, empty, empty
    return factorize_codes([codes_for(arr) for arr in arrays])


def factorize_codes(
    keys: Sequence[Codes],
) -> Tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """:func:`factorize` over at least one key, already coded
    (:data:`Codes`), of at least one row."""
    combined, width = _combine(keys)
    n = combined.shape[0]
    if width <= max(4 * n, DENSE_FACTORIZE_MAX):
        # Dense code domain (the common crossfilter/TPC-H shape): skip the
        # O(n log n) sort inside np.unique.  One count pass says which
        # codes are present and how many rows each has; ranking first
        # occurrences — num_groups elements, not n — numbers groups in
        # O(n + width).
        counts = np.bincount(combined, minlength=width)
        present = np.flatnonzero(counts)
        first_idx = _first_positions(combined, present, width)
        order, rank = _rank_first_occurrence(first_idx)
        code_map = np.empty(width, dtype=np.int64)
        code_map[present] = rank
        return (
            code_map[combined], int(present.shape[0]), first_idx[order], counts[present[order]]
        )
    uniq, first_idx, inverse, counts = np.unique(
        combined, return_index=True, return_inverse=True, return_counts=True
    )
    # np.unique sorts by value; re-rank so group 0 is the first seen.
    order, rank = _rank_first_occurrence(first_idx)
    group_ids = rank[inverse.reshape(-1)]
    representatives = first_idx[order].astype(np.int64)
    return group_ids, int(uniq.shape[0]), representatives, counts[order]


def _combine(keys: Sequence[Codes]) -> Codes:
    """One int64 code per row for the key tuple: mixed radix over the
    keys' widths.  A fold whose width would pass 2**63 wraps and merges
    distinct tuples, so the key folded so far is re-densified first."""
    codes, width = keys[0]
    combined, width = codes.astype(np.int64, copy=False), int(width)
    for codes, domain in keys[1:]:
        if width * int(domain) > 1 << 63:
            uniq, inverse = np.unique(combined, return_inverse=True)
            combined, width = inverse.reshape(-1).astype(np.int64, copy=False), int(uniq.shape[0])
        combined = combined * domain + codes
        width *= int(domain)
    return combined, width


def _first_positions(codes: np.ndarray, present: np.ndarray, width: int) -> np.ndarray:
    """The first position in ``codes`` of each code in ``present``.

    A key with few groups (at most one per :data:`_ROWS_PER_GROUP` rows)
    tends to show every code early, so the rows are scattered in
    doubling chunks, stopping once each present code is seen.  A chunk's
    reversed scatter overwrites a code seen before with a greater
    position, which is put back from ``found`` (O(present), not
    O(width)); a code first seen at the last row costs one scatter over
    all rows, as a key with many groups, or rows that fit in one chunk,
    always does."""
    n = codes.shape[0]
    if present.shape[0] * _ROWS_PER_GROUP > n or n <= _FIRST_CHUNK_ROWS:
        return first_occurrence(codes, width)[present]
    first = np.full(width, -1, dtype=np.int64)
    found = first[present]
    lo, hi = 0, min(n, _FIRST_CHUNK_ROWS)
    while True:
        first[codes[lo:hi][::-1]] = np.arange(hi - 1, lo - 1, -1, dtype=np.int64)
        seen = found >= 0
        first[present[seen]] = found[seen]
        found = first[present]
        if found.min() >= 0:
            return found
        lo, hi = hi, min(n, 2 * hi)


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
    both factorize paths so group numbering cannot diverge.  The
    positions are distinct, so the default (unstable) argsort gives the
    stable order, several times faster; already ascending positions (a
    sorted key, or codes numbered by first occurrence) need none."""
    if (first_idx[1:] > first_idx[:-1]).all():
        identity = np.arange(first_idx.shape[0], dtype=np.int64)
        return identity, identity
    order = np.argsort(first_idx)
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    return order, rank


def codes_for(arr: np.ndarray) -> Codes:
    """Dense integer codes for one key column plus its domain size.

    A non-negative integer column below ``2n + 16`` whose offset at most
    doubles its span is its own code array — no copy, nothing
    subtracted — so the codes may alias a (frozen) catalog column:
    nothing may write through them.  A larger offset is subtracted, so
    the width stays the span: widths multiply in a composite key
    (:func:`_combine`), and a wide one leaves the dense branch."""
    if arr.dtype == object or arr.dtype.kind in "US":
        codes, index = dictionary_encode(arr)
        return codes, len(index)
    if arr.dtype.kind == "f":
        uniq, inverse = np.unique(arr, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64), int(uniq.shape[0])
    values = arr.astype(np.int64, copy=False)
    lo = int(values.min())
    hi = int(values.max())
    bound = 2 * values.shape[0] + 16
    if lo >= 0 and hi < bound and hi + 1 <= 2 * (hi - lo + 1):
        return values, hi + 1
    if hi - lo < bound:
        return values - lo, hi - lo + 1
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64), int(uniq.shape[0])


class GroupLayout:
    """Sorted layout of rows by group: the substrate for exact aggregation.

    ``order`` lists member rids group by group, in rid order within a
    group (:func:`~repro.lineage.indexes.stable_group_order` — one uint8
    radix pass, or one sort of packed ``(id, rid)`` keys); ``offsets``
    delimit each group's segment, from the per-group ``counts`` the
    build already took (:func:`factorize`).
    Shared by all aggregates of one GROUP BY so the ordering
    happens once (this is also precisely the backward rid index layout —
    the reuse principle P4 at work).  It is deferred until an aggregate
    (or the backward-index reuse path) actually needs member order:
    COUNT-style aggregation reads only ``counts()``, so the crossfilter
    re-aggregation shape never orders at all.
    """

    __slots__ = ("_order", "offsets", "group_ids", "num_groups")

    def __init__(self, group_ids: np.ndarray, num_groups: int, counts: np.ndarray):
        self.group_ids = group_ids
        self.num_groups = num_groups
        self._order = None
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
