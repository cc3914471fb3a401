"""Sort / limit operator (engine completeness; see plan.logical.Sort).

Lineage through a sort is a permutation: the backward rid array holds, per
output position, the input row that landed there; the forward array is its
inverse (with NO_MATCH for rows cut off by LIMIT).  Both backends share
this implementation — sorting has no pipeline structure worth generating
code for, and sharing guarantees identical tie-breaking.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Tuple

import numpy as np

from ...lineage.capture import CaptureConfig
from ...lineage.indexes import NO_MATCH, RidArray
from ...plan.logical import Sort
from ...plan.required import kept_names
from ...storage.table import Table


def sort_order(table: Table, node: Sort) -> np.ndarray:
    """Stable row order for a Sort node (ties keep input order)."""
    n = table.num_rows
    if not node.keys or n == 0:
        order = np.arange(n, dtype=np.int64)
    else:
        # np.lexsort treats its *last* key as primary and is stable, so we
        # feed keys reversed; descending keys sort by negated dense codes,
        # ranked by value (dictionary codes of strings would rank them by
        # first occurrence).
        sort_keys = []
        for name, descending in reversed(node.keys):
            codes = np.unique(table.column(name), return_inverse=True)[1].reshape(-1)
            sort_keys.append(-codes if descending else codes)
        order = np.lexsort(tuple(sort_keys)).astype(np.int64)
    if node.limit is not None:
        order = order[: node.limit]
    return order


def execute_sort(
    child: Table,
    node: Sort,
    config: CaptureConfig,
    columns: Optional[AbstractSet[str]] = None,
) -> Tuple[Table, Optional[RidArray], Optional[RidArray]]:
    """Apply the sort; returns ``(output, local backward, local forward)``,
    the output gathering only ``columns`` (``None``: every column)."""
    order = sort_order(child, node)
    output = child.take(order, kept_names(columns, child.schema.names))
    if not config.enabled:
        return output, None, None
    local_backward = RidArray(order.copy()) if config.backward else None
    local_forward = None
    if config.forward:
        forward = np.full(child.num_rows, NO_MATCH, dtype=np.int64)
        forward[order] = np.arange(order.shape[0], dtype=np.int64)
        local_forward = RidArray(forward)
    return output, local_backward, local_forward
