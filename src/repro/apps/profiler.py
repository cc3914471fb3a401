"""Data profiling: FD-violation detection as lineage (paper Section 6.5.2).

Task: given a functional dependency ``A → B`` over a table, find the
distinct values ``a ∈ A`` that violate it (more than one distinct B among
their rows) and build the bipartite graph connecting each violation to the
tuples responsible.  Three implementations:

* **Smoke-CD** — the simple rewrite: ``SELECT A FROM T GROUP BY A HAVING
  COUNT(DISTINCT B) > 1`` with lineage capture; the backward index *is*
  the bipartite graph;
* **Smoke-UG** — UGuide's algorithm in lineage terms: capture lineage for
  ``SELECT DISTINCT A`` and ``SELECT DISTINCT B``, then backward-trace
  each distinct A value and forward-trace its rows into the distinct-B
  view, flagging values that reach more than one B;
* **Metanome-UG** — a simulation of UGuide's actual implementation with
  the two slowdowns the paper identified: every attribute handled as a
  string, and per-edge virtual calls while building its index structures
  (plus tuple-at-a-time loops standing in for JVM overhead).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..api import ExecOptions
from ..lineage.capture import CaptureMode
from ..plan.logical import AggCall, GroupBy, Project, Scan, col

#: Options of the profiling queries: every FD check captures inline and
#: reads the indexes directly.
_CAPTURE = ExecOptions(capture=CaptureMode.INJECT)


@dataclass
class FDViolationReport:
    """Violations of one FD plus the violation → tuple bipartite graph."""

    determinant: str
    dependent: str
    violations: List            # distinct A values violating the FD
    bipartite: Dict[object, np.ndarray]  # A value -> rids of its tuples
    seconds: float
    technique: str

    @property
    def num_violations(self) -> int:
        return len(self.violations)

    def to_networkx(self):
        """The two-level bipartite graph of Section 6.5.2 as a networkx
        graph: an FD node, one node per violating value, one node per
        responsible tuple."""
        import networkx as nx

        graph = nx.Graph()
        fd_node = ("fd", f"{self.determinant}->{self.dependent}")
        graph.add_node(fd_node, kind="fd")
        for value, rids in self.bipartite.items():
            value_node = ("violation", value)
            graph.add_node(value_node, kind="violation")
            graph.add_edge(fd_node, value_node)
            for rid in rids.tolist():
                tuple_node = ("tuple", rid)
                graph.add_node(tuple_node, kind="tuple")
                graph.add_edge(value_node, tuple_node)
        return graph


def check_fd_smoke_cd(database, table_name: str, determinant: str, dependent: str) -> FDViolationReport:
    """The CD rewrite: one group-by with HAVING COUNT(DISTINCT B) > 1."""
    start = time.perf_counter()
    plan = GroupBy(
        Scan(table_name),
        keys=[(col(determinant), determinant)],
        aggs=[AggCall("count_distinct", col(dependent), "distinct_b")],
        having=col("distinct_b") > 1,
    )
    result = database.execute(plan, options=_CAPTURE)
    values = result.table.column(determinant)
    index = result.lineage.backward_index(table_name)
    bipartite = {values[i]: index.lookup(i).copy() for i in range(len(result.table))}
    seconds = time.perf_counter() - start
    return FDViolationReport(
        determinant, dependent, list(values), bipartite, seconds, "smoke-cd"
    )


def check_fd_smoke_ug(database, table_name: str, determinant: str, dependent: str) -> FDViolationReport:
    """UGuide's approach in lineage terms: two DISTINCT views + traces."""
    start = time.perf_counter()
    q_a = Project(Scan(table_name), [(col(determinant), determinant)], distinct=True)
    q_b = Project(Scan(table_name), [(col(dependent), dependent)], distinct=True)
    res_a = database.execute(q_a, options=_CAPTURE)
    res_b = database.execute(q_b, options=_CAPTURE)
    backward_a = res_a.lineage.backward_index(table_name)
    forward_a = res_a.lineage.forward_index(table_name)
    forward_b = res_b.lineage.forward_index(table_name)
    values = res_a.table.column(determinant)
    # Forward rid arrays assign every base row its distinct-A and
    # distinct-B output ids; an A value violates the FD iff its rows span
    # more than one distinct (a_id, b_id) pair.  One vectorized pass.
    a_of_row = _dense_targets(forward_a)
    b_of_row = _dense_targets(forward_b)
    num_b = len(res_b.table)
    pairs = np.unique(a_of_row * num_b + b_of_row)
    pair_counts = np.bincount(pairs // num_b, minlength=len(res_a.table))
    violating_ids = np.nonzero(pair_counts > 1)[0]
    violations = [values[i] for i in violating_ids]
    bipartite: Dict[object, np.ndarray] = {
        values[i]: backward_a.lookup(int(i)).copy() for i in violating_ids
    }
    seconds = time.perf_counter() - start
    return FDViolationReport(
        determinant, dependent, violations, bipartite, seconds, "smoke-ug"
    )


def _dense_targets(forward) -> np.ndarray:
    """Base row → output id from a forward index (1-to-1 here: every row
    belongs to exactly one DISTINCT output)."""
    from ..lineage.indexes import RidArray

    if isinstance(forward, RidArray):
        return forward.values
    offsets, targets = forward.as_csr()
    return targets


class _MetanomeStore:
    """UGuide's internal index, fed through per-edge virtual calls."""

    def __init__(self):
        self.position_list: Dict[str, List[int]] = {}

    def add(self, value: str, rid: int) -> None:
        bucket = self.position_list.get(value)
        if bucket is None:
            bucket = self.position_list[value] = []
        bucket.append(rid)


def check_fd_metanome_ug(database, table_name: str, determinant: str, dependent: str) -> FDViolationReport:
    """Metanome/UGuide simulation: string-typed, tuple-at-a-time.

    Models the paper's measured causes of UGuide's slowdown: all
    attributes as strings (slow uniqueness checks on integer columns like
    NPI) and a virtual call per stored lineage edge.
    """
    table = database.table(table_name)
    start = time.perf_counter()
    a_col = table.column(determinant)
    b_col = table.column(dependent)
    store_a = _MetanomeStore()
    store_b = _MetanomeStore()
    add_a, add_b = store_a.add, store_b.add
    for rid in range(table.num_rows):
        add_a(str(a_col[rid]), rid)       # per-edge call, string-typed
        add_b(str(b_col[rid]), rid)
    b_of_value: Dict[str, int] = {}
    for pos, value in enumerate(store_b.position_list):
        b_of_value[value] = pos
    violations = []
    bipartite: Dict[object, np.ndarray] = {}
    for value, rids in store_a.position_list.items():
        distinct_b = set()
        for rid in rids:
            distinct_b.add(b_of_value[str(b_col[rid])])
        if len(distinct_b) > 1:
            violations.append(value)
            bipartite[value] = np.asarray(rids, dtype=np.int64)
    seconds = time.perf_counter() - start
    return FDViolationReport(
        determinant, dependent, violations, bipartite, seconds, "metanome-ug"
    )


TECHNIQUES = {
    "smoke-cd": check_fd_smoke_cd,
    "smoke-ug": check_fd_smoke_ug,
    "metanome-ug": check_fd_metanome_ug,
}


def check_fd(database, table_name: str, determinant: str, dependent: str,
             technique: str = "smoke-cd") -> FDViolationReport:
    """Check one FD with the chosen technique."""
    return TECHNIQUES[technique](database, table_name, determinant, dependent)
