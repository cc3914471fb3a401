"""Instrumented set/bag union, intersection, and difference (Appendix F).

All hash-based set operations share one skeleton: build a hash table over
the union of both inputs' rows (vectorized as a joint ``factorize``), track
which rids of each side landed in each hash entry (``a_rids`` / ``b_rids``
in the paper's listings), and emit output entries in first-occurrence
order.  Lineage mirrors the paper:

===============  =======================  =========================
operation        backward                 forward
===============  =======================  =========================
union (set)      rid index per side       rid array per side
union (bag)      rid array per side*      rid array per side
intersect (set)  rid index per side       rid array per side
intersect (bag)  rid array per side       rid index per side
except (set)     rid index for A only     rid array for A only
except (bag)     rid array for A only     rid array for A only
===============  =======================  =========================

(*) bag union's backward arrays carry NO_MATCH for rows of the other side.

Set difference deliberately captures nothing for ``B``: every output
depends on *all* of B (paper F.5), so Smoke answers backward queries into B
with a scan instead of materializing the full bipartite blow-up.

Bag intersection follows the paper's product semantics (``a_matches ×
b_matches`` copies per value, Appendix F.4) rather than SQL's
``INTERSECT ALL`` min-multiplicity; tests pin this behaviour.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...errors import PlanError
from ...lineage.capture import CaptureConfig, IndexOrThunk
from ...lineage.indexes import NO_MATCH, RidArray, RidIndex, invert_rid_array
from ...storage.table import Table, concat_tables
from .kernels import factorize

#: (left backward, left forward, right backward, right forward)
SetOpLocals = Tuple[
    Optional[IndexOrThunk],
    Optional[IndexOrThunk],
    Optional[IndexOrThunk],
    Optional[IndexOrThunk],
]


def _row_ids(left: Table, right: Table) -> Tuple[np.ndarray, np.ndarray, int]:
    """Dense value ids over the union of both inputs' rows."""
    n_left = left.num_rows
    arrays = []
    for (name_l, _), (name_r, _) in zip(left.schema.fields, right.schema.fields, strict=True):
        l, r = left.column(name_l), right.column(name_r)
        if l.dtype == object or r.dtype == object:
            arrays.append(np.concatenate([l.astype(object), r.astype(object)]))
        else:
            arrays.append(np.concatenate([l, r]))
    total = n_left + right.num_rows
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    ids, num_values, _, _ = factorize(arrays)
    return ids[:n_left], ids[n_left:], num_values


def execute_setop(  # noqa: D103 - dispatch; semantics documented above
    op: str,
    all_: bool,
    left: Table,
    right: Table,
    config: CaptureConfig,
) -> Tuple[Table, SetOpLocals]:
    if op == "union":
        return (_bag_union if all_ else _set_union)(left, right, config)
    if op == "intersect":
        return (_bag_intersect if all_ else _set_intersect)(left, right, config)
    if op == "except":
        return (_bag_except if all_ else _set_except)(left, right, config)
    raise PlanError(f"unknown set operation {op!r}")


def _first_occurrence_entries(
    left_ids: np.ndarray, right_ids: np.ndarray, num_values: int
) -> np.ndarray:
    """Value ids ordered by first occurrence across A-then-B (hash-table
    scan order in the paper's listings)."""
    combined = np.concatenate([left_ids, right_ids])
    if combined.size == 0:
        return np.empty(0, dtype=np.int64)
    values, first_idx = np.unique(combined, return_index=True)
    order = np.argsort(first_idx, kind="stable")  # repro: noqa RPR008 -- ranks num_values distinct rids, not a dense-id inversion
    return values[order]


def _side_locals(
    side_ids: np.ndarray,
    out_of_value: np.ndarray,
    num_out: int,
    config: CaptureConfig,
) -> Tuple[Optional[IndexOrThunk], Optional[IndexOrThunk]]:
    """Backward rid index + forward rid array for one input side, given
    ``out_of_value``: value id → output rid (or NO_MATCH)."""
    forward_values = (
        out_of_value[side_ids] if side_ids.size else np.empty(0, np.int64)
    )
    backward = None
    forward = None
    if config.backward:
        backward = invert_rid_array(RidArray(forward_values), num_out)
    if config.forward:
        forward = RidArray(forward_values.copy())
    return backward, forward


def _set_union(left: Table, right: Table, config: CaptureConfig):
    left_ids, right_ids, num_values = _row_ids(left, right)
    entries = _first_occurrence_entries(left_ids, right_ids, num_values)
    out_of_value = np.full(num_values, NO_MATCH, dtype=np.int64)
    out_of_value[entries] = np.arange(entries.shape[0], dtype=np.int64)
    combined = concat_tables([left, right.rename(dict(zip(right.schema.names, left.schema.names, strict=True)))])
    # Representative row per output entry: first occurrence in A-then-B.
    all_ids = np.concatenate([left_ids, right_ids])
    values, first_idx = np.unique(all_ids, return_index=True)
    rep_of_value = np.empty(num_values, dtype=np.int64)
    rep_of_value[values] = first_idx
    output = combined.take(rep_of_value[entries])
    if not config.enabled:
        return output, (None, None, None, None)
    n_out = entries.shape[0]
    l_bw, l_fw = _side_locals(left_ids, out_of_value, n_out, config)
    r_bw, r_fw = _side_locals(right_ids, out_of_value, n_out, config)
    return output, (l_bw, l_fw, r_bw, r_fw)


def _bag_union(left: Table, right: Table, config: CaptureConfig):
    output = concat_tables(
        [left, right.rename(dict(zip(right.schema.names, left.schema.names, strict=True)))]
    )
    if not config.enabled:
        return output, (None, None, None, None)
    n_left, n_right = left.num_rows, right.num_rows
    l_bw = r_bw = l_fw = r_fw = None
    if config.backward:
        left_vals = np.concatenate(
            [np.arange(n_left, dtype=np.int64), np.full(n_right, NO_MATCH, np.int64)]
        )
        right_vals = np.concatenate(
            [np.full(n_left, NO_MATCH, np.int64), np.arange(n_right, dtype=np.int64)]
        )
        l_bw, r_bw = RidArray(left_vals), RidArray(right_vals)
    if config.forward:
        l_fw = RidArray(np.arange(n_left, dtype=np.int64))
        r_fw = RidArray(np.arange(n_right, dtype=np.int64) + n_left)
    return output, (l_bw, l_fw, r_bw, r_fw)


def _set_intersect(left: Table, right: Table, config: CaptureConfig):
    left_ids, right_ids, num_values = _row_ids(left, right)
    in_left = np.zeros(num_values, dtype=bool)
    in_left[left_ids] = True
    in_right = np.zeros(num_values, dtype=bool)
    in_right[right_ids] = True
    both = in_left & in_right
    # Entries in A-first-occurrence order (hash table is built on A).
    a_entries = _first_occurrence_entries(left_ids, np.empty(0, np.int64), num_values)
    entries = a_entries[both[a_entries]]
    out_of_value = np.full(num_values, NO_MATCH, dtype=np.int64)
    out_of_value[entries] = np.arange(entries.shape[0], dtype=np.int64)
    first_of_value = np.full(num_values, -1, dtype=np.int64)
    uniq, first_idx = np.unique(left_ids, return_index=True)
    first_of_value[uniq] = first_idx
    output = left.take(first_of_value[entries])
    if not config.enabled:
        return output, (None, None, None, None)
    n_out = entries.shape[0]
    l_bw, l_fw = _side_locals(left_ids, out_of_value, n_out, config)
    r_bw, r_fw = _side_locals(right_ids, out_of_value, n_out, config)
    return output, (l_bw, l_fw, r_bw, r_fw)


def _bag_intersect(left: Table, right: Table, config: CaptureConfig):
    """Product-multiplicity bag intersection (paper Appendix F.4)."""
    left_ids, right_ids, num_values = _row_ids(left, right)
    a_buckets = RidIndex.from_group_ids(left_ids, num_values) if left_ids.size else RidIndex.empty(num_values)
    b_buckets = RidIndex.from_group_ids(right_ids, num_values) if right_ids.size else RidIndex.empty(num_values)
    a_counts, b_counts = a_buckets.counts(), b_buckets.counts()
    entries = _first_occurrence_entries(left_ids, np.empty(0, np.int64), num_values)
    entries = entries[(a_counts[entries] > 0) & (b_counts[entries] > 0)]
    out_a = []
    out_b = []
    for v in entries:
        a_rids = a_buckets.lookup(int(v))
        b_rids = b_buckets.lookup(int(v))
        out_a.append(np.repeat(a_rids, b_rids.shape[0]))
        out_b.append(np.tile(b_rids, a_rids.shape[0]))
    out_a = np.concatenate(out_a) if out_a else np.empty(0, np.int64)
    out_b = np.concatenate(out_b) if out_b else np.empty(0, np.int64)
    output = left.take(out_a)
    if not config.enabled:
        return output, (None, None, None, None)
    n_out = out_a.shape[0]
    l_bw = RidArray(out_a.copy()) if config.backward else None
    r_bw = RidArray(out_b.copy()) if config.backward else None
    l_fw = invert_rid_array(RidArray(out_a), left.num_rows) if config.forward else None
    r_fw = invert_rid_array(RidArray(out_b), right.num_rows) if config.forward else None
    return output, (l_bw, l_fw, r_bw, r_fw)


def _set_except(left: Table, right: Table, config: CaptureConfig):
    left_ids, right_ids, num_values = _row_ids(left, right)
    in_right = np.zeros(num_values, dtype=bool)
    in_right[right_ids] = True
    a_entries = _first_occurrence_entries(left_ids, np.empty(0, np.int64), num_values)
    entries = a_entries[~in_right[a_entries]]
    out_of_value = np.full(num_values, NO_MATCH, dtype=np.int64)
    out_of_value[entries] = np.arange(entries.shape[0], dtype=np.int64)
    first_of_value = np.full(num_values, -1, dtype=np.int64)
    uniq, first_idx = np.unique(left_ids, return_index=True)
    first_of_value[uniq] = first_idx
    output = left.take(first_of_value[entries])
    if not config.enabled:
        return output, (None, None, None, None)
    l_bw, l_fw = _side_locals(left_ids, out_of_value, entries.shape[0], config)
    # No lineage for B: each output depends on all of B (paper F.5).
    return output, (l_bw, l_fw, None, None)


def _bag_except(left: Table, right: Table, config: CaptureConfig):
    """Bag difference with multiplicity ``max(count_A - count_B, 0)``;
    each output copy maps to one of the first surviving A rids."""
    left_ids, right_ids, num_values = _row_ids(left, right)
    a_buckets = RidIndex.from_group_ids(left_ids, num_values) if left_ids.size else RidIndex.empty(num_values)
    b_counts = (
        np.bincount(right_ids, minlength=num_values)
        if right_ids.size
        else np.zeros(num_values, dtype=np.int64)
    )
    entries = _first_occurrence_entries(left_ids, np.empty(0, np.int64), num_values)
    out_a = []
    for v in entries:
        a_rids = a_buckets.lookup(int(v))
        keep = a_rids.shape[0] - int(b_counts[v])
        if keep > 0:
            out_a.append(a_rids[:keep])
    out_a = np.concatenate(out_a) if out_a else np.empty(0, np.int64)
    output = left.take(out_a)
    if not config.enabled:
        return output, (None, None, None, None)
    l_bw = RidArray(out_a.copy()) if config.backward else None
    l_fw = invert_rid_array(RidArray(out_a), left.num_rows) if config.forward else None
    return output, (l_bw, l_fw, None, None)
