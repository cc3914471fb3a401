"""Instrumented hash joins (paper Section 3.2.4, Figure 4 c/d).

The build phase hashes the left relation; the probe phase streams the right
relation and emits matches in right-row order (so outputs for one probe row
are contiguous — the fact Defer exploits).  Lineage:

* backward: two rid *arrays* (output → left rid, output → right rid); these
  are byproducts of match computation,
* forward: left side is a rid *index* (a build row can join many probe
  rows); right side is a rid index in general, but for pk-fk joins each
  right (foreign key) row produces at most one output, so it collapses to a
  rid array and backward indexes are pre-allocatable — which is why Inject
  and Defer coincide for pk-fk joins (Section 3.2.4).

For m:n joins the expensive structure is the left forward index: under
Inject its buckets grow 10→1.5x while probing (resize-heavy under skew);
Defer counts matches during the probe and allocates exactly afterwards
(Smoke-D), or defers just the forward index (Smoke-D-DeferForw).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import PlanError
from ...lineage.capture import CaptureConfig, CaptureMode, IndexOrThunk
from ...lineage.indexes import (
    NO_MATCH,
    GrowableRidIndex,
    RidArray,
    RidIndex,
    invert_rid_array,
    stable_group_order,
)
from ...storage.table import Table
from .kernels import chunk_ranges, factorize


class JoinMatches:
    """Raw match arrays produced by the probe phase.

    ``out_left[k]`` / ``out_right[k]`` are the input rids joined into
    output row ``k``; outputs are ordered by probe (right) row.
    """

    __slots__ = ("out_left", "out_right", "num_left", "num_right")

    def __init__(self, out_left, out_right, num_left: int, num_right: int):
        self.out_left = out_left
        self.out_right = out_right
        self.num_left = num_left
        self.num_right = num_right

    @property
    def num_out(self) -> int:
        """Number of join output rows."""
        return int(self.out_left.shape[0])


def _key_ids(
    left_cols: Sequence[np.ndarray], right_cols: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Factorize join keys over the union of both sides' values."""
    n_left = left_cols[0].shape[0]
    combined = []
    for l, r in zip(left_cols, right_cols, strict=True):
        if l.dtype == object or r.dtype == object:
            combined.append(np.concatenate([l.astype(object), r.astype(object)]))
        else:
            combined.append(np.concatenate([l, r]))
    if n_left + right_cols[0].shape[0] == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    ids, num_keys, _ = factorize(combined)
    return ids[:n_left], ids[n_left:], num_keys


def _find(values: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Index of each ``probe`` value in the sorted distinct ``values``
    (``-1``: absent), one NaN and -0.0 == 0.0 as in ``np.unique``."""
    if not values.size:
        return np.full(probe.shape[0], -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(values, probe), values.size - 1)
    found = values[at]
    return np.where((found == probe) | ((found != found) & (probe != probe)), at, -1)


def _look_up(table: np.ndarray, low: int, probe: np.ndarray) -> np.ndarray:
    """``table[probe - low]``, ``-1`` outside the table."""
    at = probe - low
    if at.size and (at.min() < 0 or at.max() >= table.size):
        inside = (at >= 0) & (at < table.size)
        return np.where(inside, table[np.where(inside, at, 0)], -1)
    return table[at]


def _coder(column: np.ndarray):
    """``(ids, width, code)``: dense ids of ``column``'s ``width`` distinct
    values, and ``code(probe)`` giving each probe value's id (``-1``:
    absent) under :func:`_key_ids`' equality — a dict on objects (first
    occurrence, as ``factorize``), sorted values otherwise, or a lookup
    table over an integer range at most four times the rows (``factorize``'s
    dense criterion, without its floor: the table lives as long as the
    index)."""
    if column.dtype == object:
        index: dict = {}
        ids = np.fromiter((index.setdefault(v, len(index)) for v in column), np.int64, column.size)
        return ids, len(index), lambda probe: np.fromiter(
            (index.get(v, -1) for v in probe), np.int64, probe.size
        )
    distinct, ids = np.unique(column, return_inverse=True)
    low = int(distinct[0]) if column.dtype.kind == "i" and distinct.size else None
    if low is None or int(distinct[-1]) - low >= 4 * ids.size:
        return ids, distinct.size, partial(_find, distinct)
    table = np.full(int(distinct[-1]) - low + 1, -1, dtype=np.int64)
    table[distinct - low] = np.arange(distinct.size)
    return ids, distinct.size, partial(_look_up, table, low)


class KeyIndex:
    """One join side's key tuples, built once for many probes from the
    other side: rows bucketed by dense key-tuple id (CSR, rows ascending
    per bucket — with unique keys, the buckets are the key → position
    array) and, per key column, a :func:`_coder`; a column after the
    first codes the pair (tuple id so far, value id).  A probe finds
    exactly the matches :func:`_key_ids` would: each column compares in
    the type ``np.concatenate`` gives both sides (``dtypes``: the probe
    side's)."""

    __slots__ = ("coders", "buckets", "unique")

    def __init__(self, columns: Sequence[np.ndarray], dtypes: Sequence[np.dtype]):
        self.coders = []
        for column, dtype in zip(columns, dtypes, strict=True):
            dtype = np.result_type(column.dtype, dtype)  # as np.concatenate casts both
            value_ids, width, code = _coder(column.astype(dtype, copy=False))
            pair = None
            if self.coders:
                ids, num, pair = _coder(ids * width + value_ids)
            else:
                ids, num = value_ids, width
            self.coders.append((dtype, code, width, pair))
        self.buckets = RidIndex.from_group_ids(ids, num)
        self.unique = num == ids.size

    def probe(self, columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """``(probe rows, build rows)`` of every match, probe row major and
        build rows ascending within one probe row."""
        for column, (dtype, code, width, pair) in zip(columns, self.coders, strict=True):
            value_ids = code(column.astype(dtype, copy=False))
            if pair is None:
                ids = value_ids
            else:
                ids = pair(np.where((ids < 0) | (value_ids < 0), -1, ids * width + value_ids))
        rows = np.flatnonzero(ids >= 0)
        if rows.size < ids.size:
            ids = ids[rows]
        if self.unique:
            return rows, self.buckets.values[ids]
        return np.repeat(rows, self.buckets.counts()[ids]), self.buckets.lookup_many(ids)


def probe_pkfk(
    left_ids: np.ndarray,
    right_ids: np.ndarray,
    num_keys: int,
    num_left: int,
) -> JoinMatches:
    """Probe for a pk-fk join (left keys unique).  Raises if they are not.

    One gather through the left-key position array; matches come out in
    probe-row order, which is the canonical right-row-major order.
    """
    position = np.full(num_keys, NO_MATCH, dtype=np.int64)
    position[left_ids] = np.arange(num_left, dtype=np.int64)
    if np.unique(left_ids).shape[0] != num_left:
        raise PlanError("pk-fk join requested but left keys are not unique")
    matches = position[right_ids] if right_ids.size else np.empty(0, np.int64)
    mask = matches != NO_MATCH
    out_left = matches[mask]
    out_right = np.flatnonzero(mask)
    return JoinMatches(out_left, out_right, num_left, right_ids.shape[0])


def probe_mn(
    left_ids: np.ndarray,
    right_ids: np.ndarray,
    num_keys: int,
    num_left: int,
) -> JoinMatches:
    """Probe for a general m:n join; emits every (left, right) key match.

    Build is one CSR counting sort over the left keys; the probe looks up
    every right row's bucket.  Bucket entries are ascending within each
    probe row and rows are emitted in probe-row order, so the output is
    the canonical order with no re-sort.
    """
    if num_keys == 0:
        empty = np.empty(0, dtype=np.int64)
        return JoinMatches(empty, empty, num_left, right_ids.shape[0])
    buckets = RidIndex.from_group_ids(left_ids, num_keys)
    counts = buckets.counts()[right_ids] if right_ids.size else np.empty(0, np.int64)
    out_right = np.repeat(
        np.arange(right_ids.shape[0], dtype=np.int64), counts
    )
    out_left = buckets.lookup_many(right_ids) if right_ids.size else np.empty(0, np.int64)
    return JoinMatches(out_left, out_right, num_left, right_ids.shape[0])


def compute_matches(  # the single entry point the executor and benches use
    left: Table,
    right: Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    pkfk: bool,
) -> JoinMatches:
    return compute_matches_narrow(
        [left.column(k) for k in left_keys],
        [right.column(k) for k in right_keys],
        pkfk,
    )


def compute_matches_narrow(
    left_key_cols: Sequence[np.ndarray],
    right_key_cols: Sequence[np.ndarray],
    pkfk: bool,
) -> JoinMatches:
    """Probe with pre-gathered key columns only — the late-materializing
    join path (:mod:`repro.exec.late_mat`) hands in one rid-gathered
    array per join key instead of a full table, so the probe never sees
    (or forces materialization of) any non-key column."""
    left_ids, right_ids, num_keys = _key_ids(left_key_cols, right_key_cols)
    num_left = int(left_key_cols[0].shape[0])
    if pkfk:
        return probe_pkfk(left_ids, right_ids, num_keys, num_left)
    return probe_mn(left_ids, right_ids, num_keys, num_left)


def compute_matches_oriented(
    left_key_cols: Sequence[np.ndarray],
    right_key_cols: Sequence[np.ndarray],
    build_left: bool,
    build_pkfk: bool,
) -> JoinMatches:
    """Probe with an *explicit* build side, emitting matches in the
    canonical build-left order regardless of which side actually built.

    The late-materializing chain executor picks its build side per hop
    from cardinality statistics
    (:func:`repro.substrate.stats.choose_build_side`); output order must
    nevertheless stay bit-identical to the canonical probe — the right
    (probe) side row-major, bucket entries ascending — because the
    materializing fallback, lineage locals
    (:func:`contiguous_forward_right` relies on that contiguity), and
    the plan-equivalence harnesses all assume it.  A swapped probe emits
    left-row-major order, so its matches are restored with one stable
    sort by right row: within one right row, left matches then appear in
    input order, i.e. ascending — exactly the canonical bucket order.

    ``build_pkfk=True`` uses the pk-fk probe (position array instead of
    CSR buckets, paper Section 3.2.4) and requires the build side's keys
    to be unique — callers assert that via plan flags or column stats.
    """
    left_ids, right_ids, num_keys = _key_ids(left_key_cols, right_key_cols)
    num_left = int(left_key_cols[0].shape[0])
    num_right = int(right_key_cols[0].shape[0])
    if build_left:
        if build_pkfk:
            return probe_pkfk(left_ids, right_ids, num_keys, num_left)
        return probe_mn(left_ids, right_ids, num_keys, num_left)
    probe = probe_pkfk if build_pkfk else probe_mn
    swapped = probe(right_ids, left_ids, num_keys, num_right)
    out_left = swapped.out_right  # probe side rows == canonical left
    out_right = swapped.out_left  # build side rows == canonical right
    order = stable_group_order(out_right, num_right)
    return JoinMatches(out_left[order], out_right[order], num_left, num_right)


def inject_forward_index(
    targets: np.ndarray,
    num_keys: int,
    chunk_size: int,
    capacities: Optional[np.ndarray] = None,
) -> Tuple[RidIndex, int]:
    """Growable-bucket construction of ``input rid -> output rids``.

    ``targets[k]`` is the input rid of output ``k``.  This is the
    resize-prone structure the m:n experiments stress; ``capacities``
    reproduces the Smoke-I-TC variant.
    """
    growable = GrowableRidIndex(num_keys, capacities)
    for lo, hi in chunk_ranges(targets.shape[0], chunk_size):
        chunk = targets[lo:hi]
        order = stable_group_order(chunk, num_keys)
        sorted_ids = chunk[order]
        boundaries = np.nonzero(np.diff(sorted_ids))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_ids.shape[0]]))
        for s, e in zip(starts, ends, strict=True):
            if s == e:
                continue
            growable.extend(int(sorted_ids[s]), order[s:e] + lo)
    return growable.finalize(), growable.total_resizes


def contiguous_forward_right(matches: JoinMatches) -> RidIndex:
    """Forward index for the probe side: outputs per right row are
    contiguous, so the CSR materializes without any partitioning work."""
    counts = np.bincount(matches.out_right, minlength=matches.num_right)
    offsets = np.empty(matches.num_right + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    return RidIndex(offsets, np.arange(matches.num_out, dtype=np.int64))


def join_lineage_locals(
    matches: JoinMatches,
    config: CaptureConfig,
    pkfk: bool,
    label: str = "join",
) -> Tuple[
    Optional[IndexOrThunk],  # left backward (out -> left rid)
    Optional[IndexOrThunk],  # left forward (left rid -> out rids)
    Optional[IndexOrThunk],  # right backward (out -> right rid)
    Optional[IndexOrThunk],  # right forward
]:
    """Build the four local lineage indexes for a join under ``config``."""
    if not config.enabled:
        return None, None, None, None

    left_bw: Optional[IndexOrThunk] = None
    right_bw: Optional[IndexOrThunk] = None
    left_fw: Optional[IndexOrThunk] = None
    right_fw: Optional[IndexOrThunk] = None

    if config.backward:
        left_bw = RidArray(matches.out_left.copy())
        right_bw = RidArray(matches.out_right.copy())

    if config.forward:
        # Right side: for pk-fk each right row has <= 1 output (rid array);
        # general case uses the contiguity of probe output (cheap CSR).
        if pkfk:
            values = np.full(matches.num_right, NO_MATCH, dtype=np.int64)
            values[matches.out_right] = np.arange(matches.num_out, dtype=np.int64)
            right_fw = RidArray(values)
        else:
            right_fw = contiguous_forward_right(matches)

        capacities = None
        if config.hints is not None:
            capacities = config.hints.group_count_for(label)

        defer_left = (
            config.mode is CaptureMode.DEFER or config.defer_forward_only
        ) and not pkfk  # pk-fk: Inject == Defer (Section 3.2.4)
        if defer_left:
            out_left, num_left = matches.out_left, matches.num_left

            def left_thunk(out_left=out_left, num_left=num_left) -> RidIndex:
                return invert_rid_array(RidArray(out_left), num_left)

            left_fw = left_thunk
        elif config.emulate_tuple_appends:
            # Append-per-match construction with the 10 / 1.5x growth
            # policy: exposes the rid-array resizing behaviour the m:n
            # experiments analyze (Smoke-I vs Smoke-I-TC, Figures 6-7).
            index, _resizes = inject_forward_index(
                matches.out_left, matches.num_left, config.chunk_size, capacities
            )
            left_fw = index
        else:
            # Probe-phase cardinalities are known by the time the index
            # materializes, so Inject allocates exactly (vectorized
            # counting sort) — the engine-level analogue of Smoke-I-TC.
            left_fw = invert_rid_array(
                RidArray(matches.out_left), matches.num_left
            )

    return left_bw, left_fw, right_bw, right_fw


def materialize_join_output(
    left: Table,
    right: Table,
    matches: JoinMatches,
    output_names: List[Tuple[str, str]],
) -> Table:
    """Gather the output table.  ``output_names`` pairs (output name,
    source column name) with left columns first, as produced by
    :func:`repro.plan.schema.join_output_fields`."""
    n_left_cols = len(left.schema.names)
    columns: Dict[str, np.ndarray] = {}
    for i, (out_name, src_name) in enumerate(output_names):
        if i < n_left_cols:
            columns[out_name] = left.column(src_name)[matches.out_left]
        else:
            columns[out_name] = right.column(src_name)[matches.out_right]
    return Table(columns)
