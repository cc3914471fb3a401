"""The lineage-capture technique registry (paper Table 1).

One uniform callable per technique so that every capture benchmark sweeps
the same list.  Each returns a :class:`CaptureRun` with the end-to-end
capture latency (base query + any technique-specific work, including
Defer finalization and Logic-Idx's extra indexing pass, matching how the
paper accounts costs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict

from ..api import ExecOptions
from ..baselines.logical import build_logic_idx, logical_capture
from ..baselines.physical import PhysBdbStore, PhysMemStore, physical_capture
from ..lineage.capture import CaptureConfig
from ..plan.logical import LogicalPlan


@dataclass
class CaptureRun:
    technique: str
    seconds: float                 # total capture latency
    base_seconds: float            # base-query portion
    lineage: object = None         # queryable handle when applicable
    extra: Dict[str, float] = field(default_factory=dict)


def run_baseline(db, plan, hints=None, params=None) -> CaptureRun:
    start = time.perf_counter()
    db.execute(plan, params=params, options=ExecOptions(capture=None))
    elapsed = time.perf_counter() - start
    return CaptureRun("baseline", elapsed, elapsed)


def run_smoke_i(db, plan, hints=None, params=None) -> CaptureRun:
    start = time.perf_counter()
    res = db.execute(
        plan, params=params,
        options=ExecOptions(capture=CaptureConfig.inject(hints=hints)),
    )
    elapsed = time.perf_counter() - start
    return CaptureRun("smoke-i", elapsed, elapsed, res.lineage)


def run_smoke_d(db, plan, hints=None, params=None) -> CaptureRun:
    start = time.perf_counter()
    res = db.execute(
        plan, params=params,
        options=ExecOptions(capture=CaptureConfig.defer(hints=hints)),
    )
    base = time.perf_counter() - start
    finalize = res.lineage.finalize()
    return CaptureRun(
        "smoke-d", base + finalize, base, res.lineage, {"finalize": finalize}
    )


def run_logic(annotation: str):
    def runner(db, plan, hints=None, params=None) -> CaptureRun:
        cap = logical_capture(db.catalog, plan, annotation)
        return CaptureRun(f"logic-{annotation[:3]}", cap.seconds, cap.seconds, cap)

    return runner


def run_logic_idx(db, plan, hints=None, params=None) -> CaptureRun:
    cap = logical_capture(db.catalog, plan, "rid")
    sizes = {}
    for key in cap.rid_columns:
        sizes[key] = db.table(key.split("#")[0]).num_rows
    lineage, idx_seconds = build_logic_idx(cap, sizes)
    return CaptureRun(
        "logic-idx",
        cap.seconds + idx_seconds,
        cap.seconds,
        lineage,
        {"indexing": idx_seconds},
    )


def run_phys(store_cls, name: str, relation_of: Callable[[LogicalPlan], str]):
    def runner(db, plan, hints=None, params=None) -> CaptureRun:
        relation = relation_of(plan)
        cap = physical_capture(db, plan, relation, store_cls=store_cls, params=params)
        return CaptureRun(name, cap.seconds, cap.base_seconds, cap.store,
                          {"edges": cap.edges})

    return runner


def _first_relation(plan: LogicalPlan) -> str:
    return plan.base_relations()[0]


#: Technique name -> runner(db, plan, hints=None, params=None) -> CaptureRun.
CAPTURE_TECHNIQUES: Dict[str, Callable] = {
    "baseline": run_baseline,
    "smoke-i": run_smoke_i,
    "smoke-d": run_smoke_d,
    "logic-rid": run_logic("rid"),
    "logic-tup": run_logic("tuple"),
    "logic-idx": run_logic_idx,
    "phys-mem": run_phys(PhysMemStore, "phys-mem", _first_relation),
    "phys-bdb": run_phys(PhysBdbStore, "phys-bdb", _first_relation),
}
