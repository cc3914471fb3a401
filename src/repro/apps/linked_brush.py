"""Linked brushing between visualization views (paper Figure 1, Example 1).

Two views are rendered from group-by queries over a shared base table.
Selecting marks in one view highlights the marks of the other view that
derive from the same input records:

    highlighted = Lf( Lb(selection ⊆ V1, X), V2 )

— a backward query from the selected marks to the shared relation,
followed by a forward query into the other view.  Views are registered as
named results on the owning :class:`~repro.api.Database`, and each
interaction runs as *lineage-consuming SQL* (paper Section 2.1)::

    SELECT * FROM Lb(v1, "X", :marks)   -- selected marks -> shared rows
    SELECT * FROM Lf("X", v2, :rids)    -- shared rows -> derived marks

The lineage of those statements' own outputs identifies the shared rids
and highlighted marks, so the whole interaction stays declarative.
Views are registered under ordinal names and the statements
double-quote every relation and column they name, so a view may be
called anything (``by z``, ``order``).

Both interaction statements are single-column ``DISTINCT`` projections
over a lineage scan, so the late-materializing push-down
(:mod:`repro.plan.rewrite`) executes them in the rid domain — one narrow
gather plus a rid-domain dedup per brush rather than a full-width subset
copy (the interaction consumes only the statements' *lineage*, and the
backward union over deduplicated groups is the same rid set, so DISTINCT
shrinks the materialized output without changing any answer).  Each
view's two statements are
**prepared once** (:meth:`repro.api.Database.prepare`) when the view is
added: every brush binds ``:marks`` / ``:rids`` into the cached plan
instead of re-lexing and re-binding SQL; each run resolves the brushed
marks' lineage from the view's index.  Views are registered with
``pin=True``, exempt from the registry's byte budget, so a full registry
never refuses a session's views.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..api import ExecOptions
from ..errors import WorkloadError
from ..lineage.capture import CaptureConfig, CaptureMode
from ..plan.logical import LogicalPlan
from ..sql.lexer import quote_identifier as q

#: Interaction statements capture backward-only: the brush reads nothing
#: else, and a forward index would cost O(shared rows) per brush.
_BRUSH_OPTIONS = ExecOptions(capture=CaptureConfig.inject(forward=False))

#: Distinguishes the registry entries of concurrent sessions on one
#: Database, so equal view names in two sessions cannot cross-talk.
_SESSION_IDS = itertools.count()


@dataclass
class BrushResult:
    """Outcome of one linked-brush interaction."""

    selected_view: str
    selected_marks: np.ndarray
    shared_rids: np.ndarray      # backward lineage in the shared relation
    highlighted: Dict[str, np.ndarray]  # view name -> highlighted mark rids
    seconds: float


class LinkedBrushingSession:
    """Coordinates any number of views over one shared base relation.

    Views are registered with :meth:`~repro.api.Database.register_result`
    under a session-unique ordinal name (``_lbrush<session>_<i>``), so
    two sessions on one Database can reuse view names without
    redirecting each other's brushes.
    """

    def __init__(self, database, shared_relation: str):
        self.database = database
        self.shared_relation = shared_relation
        self.views: Dict[str, object] = {}
        self._session_id = next(_SESSION_IDS)
        self._sql_names: Dict[str, str] = {}  # view name -> registered name
        self._backward_stmts: Dict[str, object] = {}  # view -> PreparedQuery
        self._forward_stmts: Dict[str, object] = {}

    def add_view(self, name: str, plan: LogicalPlan, params: Optional[dict] = None):
        """Run a base query with capture and register it as a view, and
        prepare its two interaction statements (``Lb`` to the shared
        relation, ``Lf`` into the view) here, once."""
        if name in self.views:
            raise WorkloadError(f"view {name!r} already registered")
        result = self.database.execute(
            plan, params=params, options=ExecOptions(capture=CaptureMode.INJECT)
        )
        if self.shared_relation not in [
            r.split("#")[0] for r in result.lineage.relations
        ]:
            raise WorkloadError(
                f"view {name!r} does not read shared relation "
                f"{self.shared_relation!r}"
            )
        registered = f"_lbrush{self._session_id}_{len(self.views)}"
        # Pinned: exempt from the registry's byte budget.
        self.database.register_result(registered, result, pin=True)
        self.views[name] = result
        self._sql_names[name] = registered
        # SELECT DISTINCT of one column: the interaction reads only the
        # statement's lineage, and the backward union over deduplicated
        # groups is the same rid set — so the pushed path gathers one
        # column, dedups in the rid domain and materializes one row per
        # distinct value instead of every column of every traced row.
        shared = q(self.shared_relation)
        shared_col = q(self.database.table(self.shared_relation).schema.names[0])
        self._backward_stmts[name] = self.database.prepare(
            f"SELECT DISTINCT {shared_col} FROM Lb({registered}, {shared}, :marks)",
            _BRUSH_OPTIONS,
        )
        view_col = q(result.table.schema.names[0])
        self._forward_stmts[name] = self.database.prepare(
            f"SELECT DISTINCT {view_col} FROM Lf({shared}, {registered}, :rids)",
            _BRUSH_OPTIONS,
        )
        return result

    def brush(self, view_name: str, mark_rids: Sequence[int]) -> BrushResult:
        """Select marks in one view; highlight derived marks everywhere."""
        if view_name not in self.views:
            raise WorkloadError(f"unknown view {view_name!r}")
        start = time.perf_counter()
        marks = np.asarray(mark_rids, dtype=np.int64)
        shared = self._backward_to_shared(view_name, marks)
        highlighted = {}
        for other_name in self.views:
            if other_name == view_name:
                continue
            highlighted[other_name] = self._forward_to_view(other_name, shared)
        return BrushResult(
            selected_view=view_name,
            selected_marks=marks,
            shared_rids=shared,
            highlighted=highlighted,
            seconds=time.perf_counter() - start,
        )

    def close(self) -> None:
        """Drop this session's views and their registered results from
        the Database so their tables and lineage indexes become
        collectable; a later brush raises for an unknown view."""
        from ..errors import PlanError

        for name in self._sql_names.values():
            try:
                self.database.drop_result(name)
            except PlanError:
                pass  # already dropped by the user
        self.views = {}
        self._sql_names = {}
        self._backward_stmts = {}
        self._forward_stmts = {}

    # -- lineage-consuming SQL interaction steps --------------------------------

    def _backward_to_shared(self, view_name: str, marks: np.ndarray) -> np.ndarray:
        """Lb(selection ⊆ view, shared): the shared-relation rids behind
        the selected marks — the view's prepared statement with ``:marks``
        bound (no re-parse)."""
        subset = self._backward_stmts[view_name].run(params={"marks": marks})
        # The statement's own lineage identifies the scanned shared rows.
        return subset.backward(np.arange(len(subset)), self.shared_relation)

    def _forward_to_view(self, view_name: str, shared: np.ndarray) -> np.ndarray:
        """Lf(shared rows, view): the view's marks derived from them."""
        derived = self._forward_stmts[view_name].run(params={"rids": shared})
        # An Lf scan's base "relation" is the prior result itself, so the
        # statement's backward lineage is exactly the highlighted marks.
        return derived.backward(np.arange(len(derived)), self._sql_names[view_name])
