"""Physical lineage capture baselines: Phys-Mem and Phys-Bdb.

Physical approaches instrument operators to *call out* to a lineage
subsystem for every lineage edge (paper Section 2.1).  The paper's two
baselines isolate two costs:

* **Phys-Mem** — the subsystem stores edges in the very same rid-index
  structures Smoke uses, so the measured difference against Smoke-I is
  purely the per-edge (virtual) function call;
* **Phys-Bdb** — the subsystem is BerkeleyDB (here
  :class:`~repro.substrate.bdb.BerkeleyDBSim`), adding serialization and
  B-tree costs per edge, the paper's worst performer (up to 250×).

The edge stream itself is derived from an ordinary instrumented run; what
the harness times is the per-edge emission loop, i.e. the cost the paper
attributes to crossing a subsystem boundary per tuple.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional


from ..api import ExecOptions
from ..lineage.capture import CaptureConfig
from ..lineage.indexes import GrowableRidIndex, RidIndex
from ..plan.logical import LogicalPlan
from ..substrate.bdb import BerkeleyDBSim


class PhysMemStore:
    """In-memory lineage store fed one edge at a time.

    ``emit`` is the "virtual function" boundary: one Python call per edge,
    updating backward and forward structures like Smoke's.
    """

    def __init__(self, num_out: int, num_in: int):
        self.num_out = num_out
        self.num_in = num_in
        self._backward = GrowableRidIndex(num_out)
        self._forward = GrowableRidIndex(num_in)

    def emit(self, out_rid: int, in_rid: int) -> None:
        self._backward.append(out_rid, in_rid)
        self._forward.append(in_rid, out_rid)

    def backward_index(self) -> RidIndex:
        return self._backward.finalize()

    def forward_index(self) -> RidIndex:
        return self._forward.finalize()


class PhysBdbStore:
    """BerkeleyDB-backed lineage store: one serialized put per edge and
    direction, cursor-based reads."""

    def __init__(self, num_out: int, num_in: int):
        self.num_out = num_out
        self.num_in = num_in
        self._backward = BerkeleyDBSim()
        self._forward = BerkeleyDBSim()

    def emit(self, out_rid: int, in_rid: int) -> None:
        self._backward.put(out_rid, in_rid)
        self._forward.put(in_rid, out_rid)

    def backward_cursor(self, out_rid: int) -> Iterator[int]:
        return self._backward.cursor(out_rid)


@dataclass
class PhysicalCapture:
    """Timed result of a physical-baseline capture."""

    output_rows: int
    store: object
    seconds: float          # base query + per-edge emission
    base_seconds: float
    edges: int


def physical_capture(
    database,
    plan: LogicalPlan,
    relation: str,
    store_cls=PhysMemStore,
    params: Optional[dict] = None,
) -> PhysicalCapture:
    """Capture lineage for ``relation`` through a per-edge-call store."""
    start = time.perf_counter()
    result = database.execute(
        plan, params=params, options=ExecOptions(capture=CaptureConfig.inject())
    )
    base_seconds = time.perf_counter() - start
    index = result.lineage.backward_index(relation)
    base_size = database.table(relation).num_rows
    store = store_cls(num_out=len(result.table), num_in=base_size)
    emit = store.emit  # bind once; the per-edge call is what we measure
    t0 = time.perf_counter()
    offsets, values = index.as_csr()
    for out_rid in range(len(result.table)):
        for in_rid in values[offsets[out_rid] : offsets[out_rid + 1]]:
            emit(out_rid, int(in_rid))
    emit_seconds = time.perf_counter() - t0
    return PhysicalCapture(
        output_rows=len(result.table),
        store=store,
        seconds=base_seconds + emit_seconds,
        base_seconds=base_seconds,
        edges=index.num_edges,
    )
