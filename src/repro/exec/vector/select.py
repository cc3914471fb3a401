"""Instrumented selection (paper Section 3.2.2).

Selection emits rows that pass a predicate.  Lineage is 1-to-1 in both
directions: the backward rid array holds, per output row, the input rid
that produced it; the forward rid array holds, per input row, its output
rid or NO_MATCH.

The forward array can always be pre-allocated (input cardinality is
known).  The backward array under Inject is an append-per-passing-row
structure: without a selectivity estimate it starts at 10 elements and
grows 1.5x, and the resizing (re-copying) cost is the measurable overhead;
with an estimate (Smoke-I-EC) it is pre-allocated — over-estimates are
harmless, under-estimates re-introduce resizes (Appendix G.1).  The paper
does not implement Defer for selection ("strictly inferior to Inject"), so
Defer falls back to Inject here as well.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Tuple

import numpy as np

from ...expr.ast import Expr, evaluate
from ...lineage.capture import CaptureConfig
from ...lineage.composer import selection_locals
from ...lineage.indexes import RidArray
from ...plan.required import kept_names
from ...storage.growable import GrowableRidVector
from ...storage.table import Table
from .kernels import chunk_ranges


def execute_select(
    child: Table,
    predicate: Expr,
    config: CaptureConfig,
    params: Optional[dict],
    label: str = "select",
    columns: Optional[AbstractSet[str]] = None,
) -> Tuple[Table, Optional[RidArray], Optional[RidArray]]:
    """Run the filter; returns ``(output, local backward, local forward)``.

    The output gathers only ``columns`` (what the parent reads; ``None``:
    every column).  Local indexes are ``None`` when capture is disabled.
    """
    n = child.num_rows
    mask = np.asarray(evaluate(predicate, child, params), dtype=bool)
    names = kept_names(columns, child.schema.names)
    if not config.enabled:
        return child.filter(mask, names), None, None

    capacity = None
    if config.hints is not None:
        selectivity = config.hints.selectivity_for(label)
        if selectivity is not None:
            capacity = max(1, int(np.ceil(n * selectivity)))

    backward_vec = GrowableRidVector(capacity if capacity is not None else 10)
    for lo, hi in chunk_ranges(n, config.chunk_size):
        passing = np.nonzero(mask[lo:hi])[0]
        if passing.size:
            backward_vec.extend(passing + lo)
    out_rids = backward_vec.view()
    local_backward, local_forward = selection_locals(out_rids, n, config)
    return child.take(out_rids, names), local_backward, local_forward
