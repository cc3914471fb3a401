"""Group-by push-down: partial data cubes from lineage capture (§4.2).

Cross-filtering recomputes aggregation queries over the backward lineage
of a selection.  When the drill-down grouping attributes are known up
front, Smoke materializes the aggregates per (output group × key
combination) while the base query's scan is already touching every row —
"piggy-backing" cube construction on the base query instead of separate
offline scans.  Consuming queries then read materialized rows (the ≈0ms
line of Figure 11).

Supported aggregates are the algebraic/distributive ones the paper names:
COUNT, SUM, AVG, MIN, MAX.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..errors import LineageError, WorkloadError
from ..exec.vector.kernels import GroupLayout, compute_aggregate, factorize
from ..plan.logical import AggCall
from ..storage.table import Table


class LineageCube:
    """Materialized drill-down aggregates keyed by output group.

    ``lookup(out_rid)`` returns the pre-aggregated drill-down table for
    one output group: columns = cube keys + aggregate aliases.
    """

    def __init__(
        self,
        base: Table,
        group_of_row: np.ndarray,
        num_groups: int,
        keys: Sequence[str],
        aggs: Sequence[AggCall],
    ):
        if group_of_row.shape[0] != base.num_rows:
            raise WorkloadError("group_of_row must assign every base row")
        for agg in aggs:
            if agg.func == "count_distinct":
                raise WorkloadError(
                    "cube push-down supports algebraic/distributive "
                    "aggregates (COUNT/SUM/AVG/MIN/MAX)"
                )
        self.keys = tuple(keys)
        self.aggs = tuple(aggs)
        self.num_groups = num_groups

        in_query = group_of_row >= 0
        rows = np.nonzero(in_query)[0].astype(np.int64)
        groups = group_of_row[rows]
        key_arrays = [base.column(k)[rows] for k in self.keys]
        if rows.size == 0:
            self._offsets = np.zeros(num_groups + 1, dtype=np.int64)
            cols = {k: base.column(k)[:0] for k in self.keys}
            for agg in self.aggs:
                cols[agg.alias] = np.empty(0, dtype=np.float64)
            self._table = Table(cols)
            return
        key_codes, num_key_codes, _, _ = factorize(key_arrays)
        combined = groups * num_key_codes + key_codes
        cell_ids, num_cells, cell_reps, cell_counts = factorize([combined])
        # Re-rank cells so they are sorted by (group, key code): the cube
        # is then a CSR over output groups.
        cell_value = combined[cell_reps]
        order = np.argsort(cell_value, kind="stable")
        rank = np.empty(num_cells, dtype=np.int64)
        rank[order] = np.arange(num_cells, dtype=np.int64)
        cell_ids = rank[cell_ids]
        cell_reps = cell_reps[order]
        cell_counts = cell_counts[order]
        cell_value = cell_value[order]

        # Gather only the columns the aggregates read — the cube
        # piggy-backs on the base query's scan, it does not re-scan the
        # whole (possibly wide) relation.
        needed: List[str] = []
        for agg in self.aggs:
            if agg.arg is not None:
                needed.extend(c for c in agg.arg.columns() if c not in needed)
        subset = Table({c: base.column(c)[rows] for c in needed}) if needed else base.take(rows[:0])
        if not needed:
            subset = Table({"__dummy": np.zeros(rows.size, dtype=np.int64)})
        layout = GroupLayout(cell_ids, num_cells, cell_counts)
        columns: Dict[str, np.ndarray] = {}
        for k, arr in zip(self.keys, key_arrays, strict=True):
            columns[k] = arr[cell_reps]
        for agg in self.aggs:
            columns[agg.alias] = compute_aggregate(agg, layout, subset)
        self._table = Table(columns)
        cell_group = cell_value // num_key_codes
        counts = np.bincount(cell_group, minlength=num_groups)
        self._offsets = np.empty(num_groups + 1, dtype=np.int64)
        self._offsets[0] = 0
        np.cumsum(counts, out=self._offsets[1:])

    def lookup(self, out_rid: int) -> Table:
        """The materialized consuming-query answer for one output group."""
        if not 0 <= out_rid < self.num_groups:
            raise LineageError(f"rid {out_rid} out of range [0, {self.num_groups})")
        lo, hi = int(self._offsets[out_rid]), int(self._offsets[out_rid + 1])
        return self._table.take(np.arange(lo, hi, dtype=np.int64))

    @property
    def num_cells(self) -> int:
        return self._table.num_rows

    def memory_bytes(self) -> int:
        total = int(self._offsets.nbytes)
        for name in self._table.schema.names:
            arr = self._table.column(name)
            total += arr.nbytes
        return total
