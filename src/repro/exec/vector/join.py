"""Instrumented hash joins (paper Section 3.2.4, Figure 4 c/d).

One kernel computes every equi-join's matches (:func:`compute_matches`):
the build phase indexes one side's key tuples once (:class:`KeyIndex`,
which a per-bar memo keeps across fills) and the probe phase streams the
other side through it.  The index's own uniqueness picks the probe's
shape: with unique build keys (pk-fk) a probe is one gather through the
key → position array, otherwise it expands CSR buckets.  Matches come out
in right-row order whichever side built (so outputs for one probe row are
contiguous — the fact Defer exploits).  Lineage:

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
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import PlanError
from ...lineage.capture import CaptureConfig, CaptureMode, IndexOrThunk
from ...lineage.indexes import (
    NO_MATCH,
    RidArray,
    RidIndex,
    invert_rid_array,
    stable_group_order,
)
from ...plan.required import kept_names
from ...storage.table import Table, dictionary_encode
from .groupby import inject_backward_index
from .kernels import CHUNK_SIZE


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


def _find(values: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Index of each ``probe`` value in the sorted distinct ``values``
    (``-1``: absent), one NaN and -0.0 == 0.0 as in ``np.unique``."""
    if not values.size:
        return np.full(probe.shape[0], -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(values, probe), values.size - 1)
    found = values[at]
    return np.where((found == probe) | ((found != found) & (probe != probe)), at, -1)


def _look_up(table: np.ndarray, low: int, probe: np.ndarray) -> np.ndarray:
    """``table[probe - low]``: an offset outside the key range clips to
    ``-1`` or past the end, and both index the table's last entry, -1."""
    at = np.subtract(probe, low, dtype=np.int64)
    return table[np.clip(at, -1, table.size - 1, out=at)]


def _coder(column: np.ndarray, probes: int):
    """``(ids, width, code)``: dense ids of ``column``'s ``width`` distinct
    values, and ``code(probe)`` giving each probe value's id (``-1``:
    absent) — a dict on objects (first occurrence, as ``factorize``),
    sorted values otherwise (one NaN, -0.0 == 0.0, as ``np.unique``), or a
    lookup table over an integer range under four times the larger of the
    rows and ``probes``, the rows one probe brings: a table never outgrows
    the index it lives in, or the probe of a one-shot join."""
    if column.dtype == object:
        ids, index = dictionary_encode(column)
        return ids, len(index), lambda probe: np.fromiter(
            (index.get(v, -1) for v in probe), np.int64, probe.size
        )
    distinct, ids = np.unique(column, return_inverse=True)
    low = int(distinct[0]) if column.dtype.kind == "i" and distinct.size else None
    if low is None or int(distinct[-1]) - low >= 4 * max(ids.size, probes):
        return ids, distinct.size, partial(_find, distinct)
    table = np.full(int(distinct[-1]) - low + 2, -1, dtype=np.int64)
    table[distinct - low] = np.arange(distinct.size)
    return ids, distinct.size, partial(_look_up, table, low)


class KeyIndex:
    """One join side's key tuples, built once for many probes from the
    other side: rows bucketed by dense key-tuple id (CSR, rows ascending
    per bucket — with unique keys, the buckets are the key → position
    array) and, per key column, a :func:`_coder`; a column after the
    first codes the pair (tuple id so far, value id).  Each column
    compares in the type ``np.result_type`` gives both sides (``dtypes``:
    the probe side's; the attribute: both sides'); ``probes``: the rows one probe brings, when known
    (:func:`_coder`).  ``unique``: no key tuple repeats, so a probe is one
    gather per match."""

    __slots__ = ("dtypes", "coders", "buckets", "unique", "rows")

    def __init__(self, columns: Sequence[np.ndarray], dtypes: Sequence[np.dtype], probes: int = 0):
        self.dtypes = [np.result_type(c.dtype, d) for c, d in zip(columns, dtypes, strict=True)]
        self.coders = []
        for column, dtype in zip(columns, self.dtypes):
            value_ids, width, code = _coder(column.astype(dtype, copy=False), probes)
            pair = None
            if self.coders:
                ids, num, pair = _coder(ids * width + value_ids, probes)
            else:
                ids, num = value_ids, width
            self.coders.append((code, width, pair))
        self.buckets = RidIndex.from_group_ids(ids, num)
        self.rows = ids.size
        self.unique = num == self.rows

    def probe(self, columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """``(probe rows, build rows)`` of every match, probe row major and
        build rows ascending within one probe row."""
        for column, dtype, (code, width, pair) in zip(columns, self.dtypes, self.coders, strict=True):
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


def compute_matches(
    left_keys: Optional[Sequence[np.ndarray]],
    right_keys: Optional[Sequence[np.ndarray]],
    pkfk: bool = False,
    build_left: bool = True,
    index: Optional[KeyIndex] = None,
) -> JoinMatches:
    """The matches of the equi-join of ``left_keys`` with ``right_keys``
    (one array per key column), in the canonical order: right row major,
    left rows ascending within one right row — the order the lineage
    locals (:func:`contiguous_forward_right`), the materializing path and
    the equivalence suites assume, whichever side built.

    The build side (the left one when ``build_left``) is ``index`` when
    given — a :class:`KeyIndex` over its keys, which then go unread — or
    indexed here; the other side probes it.  A right-side build emits
    left-row-major matches, restored by one stable sort by right row.
    ``pkfk``: the plan asserts the left keys unique, and a
    :class:`PlanError` says they are not.
    """
    build, probe = (left_keys, right_keys) if build_left else (right_keys, left_keys)
    num_probe = int(probe[0].shape[0])
    if index is None:
        index = KeyIndex(build, [c.dtype for c in probe], num_probe)
    if pkfk and not (index if build_left else KeyIndex(left_keys, index.dtypes)).unique:
        raise PlanError("pk-fk join requested but left keys are not unique")
    rows, matched = index.probe(probe)
    if build_left:
        return JoinMatches(matched, rows, index.rows, num_probe)
    order = stable_group_order(matched, index.rows)
    return JoinMatches(rows[order], matched[order], num_probe, index.rows)


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
            index, _resizes = inject_backward_index(
                matches.out_left, matches.num_left, CHUNK_SIZE, capacities
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
    columns: Optional[AbstractSet[str]] = None,
) -> Table:
    """Gather the output table.  ``output_names`` pairs (output name,
    source column name) with left columns first, as produced by
    :func:`repro.plan.schema.join_output_fields`; only the output names
    in ``columns`` are gathered (``None``: every one)."""
    n_left_cols = len(left.schema.names)
    keep = kept_names(columns, [name for name, _ in output_names])
    out: Dict[str, np.ndarray] = {}
    for i, (out_name, src_name) in enumerate(output_names):
        if keep is not None and out_name not in keep:
            continue
        if i < n_left_cols:
            out[out_name] = left.column(src_name)[matches.out_left]
        else:
            out[out_name] = right.column(src_name)[matches.out_right]
    return Table(out)
