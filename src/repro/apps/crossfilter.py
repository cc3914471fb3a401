"""Crossfilter visualization sessions (paper Section 6.5.1, Appendix D).

A crossfilter dashboard renders one group-by COUNT view per dimension.
Highlighting a bar in one view filters every other view down to the rows
that contributed to that bar.  The paper expresses this as a backward
lineage query followed by re-aggregation, and compares four strategies:

* **Lazy** — no capture; each interaction re-runs the group-by queries
  with the brushed predicate folded in (shared selection scan of T);
* **BT** — capture backward indexes; an interaction does an indexed scan
  of the brushed bar's rids, then re-aggregates the other views (rebuilds
  group-by hash tables over the subset);
* **BT+FT** — additionally capture forward rid arrays; these act as
  *perfect hash tables* mapping base rows to output bars, so views update
  by incrementing counters — no hash table is ever rebuilt (Listing 1);
* **partial data cube** — the group-by push-down optimization applied
  pairwise between views; interactions become row lookups, but the cube
  must be built first (the cold-start cost of Figure 13).

Sessions built with :meth:`CrossfilterSession.from_database` are fully
declarative: each view is a SQL group-by registered as a named result,
and BT / BT+FT interactions run as *lineage-consuming SQL* — the brushed
bar's rows come from ``FROM Lb(view, "relation", :bars)``, and the BT
re-aggregation is itself a ``GROUP BY`` over that lineage scan (paper
Section 2.1).  The generated statements double-quote every relation,
dimension and join identifier, so a dimension named ``year`` or ``my
col`` is registered and brushed through SQL like any other.  Sessions
built directly over a :class:`Table` keep the hand-rolled kernels (that
construction has no engine to query), which is also what the Figure
13/14 benchmarks measure.

Declarative sessions run their interactions through ``Database.sql``,
the database's memoized text path: the per-view statements of a brush
are parsed/bound/rewritten once and memoized by text, and (under late
materialization, the default) every ``COUNT(*)`` re-aggregation merges
the brushed bars' partial answers from its per-bar memo in the
database's one cache, so a bar is counted once per statement however
many brushes revisit it.

Star-schema dimensions: ``from_database(..., joins={dim:
DimensionJoin(...)})`` adds views whose binned attribute lives in a
*joined* lookup table (``SELECT d.attr, COUNT(*) FROM fact JOIN d ON
fact.fk = d.pk GROUP BY d.attr``).  Their interactions are join-shaped
lineage-consuming SQL — ``GROUP BY`` over ``Lb(view, fact, :bars) JOIN
d`` — which the late-materializing rewrite pushes through the join
(:mod:`repro.plan.rewrite`): the brushed rid set is resolved once, only
the fact-side join key is gathered to probe, and only the joined
attribute is gathered at matching rows.  Before this rewrite, every
join-shaped view paid a full-width materialization of the traced subset
per brush.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import itertools

from ..api import ExecOptions
from ..errors import WorkloadError
from ..exec.vector.kernels import factorize
from ..lineage.capture import CaptureConfig
from ..lineage.indexes import RidIndex
from ..sql.lexer import quote_identifier as q
from ..storage.table import Table

#: Distinguishes the registry entries of concurrent sessions on one
#: Database, so rebuilt sessions cannot re-target each other's brushes.
_SESSION_IDS = itertools.count()


@dataclass(frozen=True)
class DimensionJoin:
    """A crossfilter dimension whose binned attribute lives in a joined
    lookup table (star schema): ``fact.fact_key = table.dim_key`` links
    the fact relation to ``table``, and ``column`` is the attribute the
    view bins on.  Views and interactions for such dimensions run as
    join-shaped SQL riding the late-materializing pushed join path.

    ``parent`` turns the dimension into a **snowflake** view: the binned
    attribute lives one (or more) lookup hops away from the fact table —
    ``fact → parent.table → table`` — and ``fact_key`` then names a
    column of ``parent.table`` rather than of the fact relation (the
    parent's own ``column`` is unused by the child view).  The generated
    statements join hop by hop, and the whole multi-join chain executes
    as **one** pushed rid-domain core (:mod:`repro.plan.rewrite`): the
    brushed rid set resolves once, each hop probes narrow key columns
    with a stats-chosen build side, and only the snowflake attribute is
    gathered at rows that survived every hop.
    """

    table: str
    fact_key: str
    dim_key: str
    column: str
    parent: Optional["DimensionJoin"] = None

    def hops(self) -> Tuple["DimensionJoin", ...]:
        """The join path fact-outward: parents first, this table last."""
        return ((self,) if self.parent is None
                else self.parent.hops() + (self,))

    def root_fact_key(self) -> str:
        """The *fact-relation* column the (snowflake) path hangs off."""
        return self.hops()[0].fact_key

    def join_sql(self, relation: str) -> str:
        """``JOIN ... ON ...`` clauses from the fact relation out to
        ``table``, one per hop."""
        clauses = []
        previous = relation
        for hop in self.hops():
            clauses.append(
                f"JOIN {q(hop.table)} ON {q(previous)}.{q(hop.fact_key)} "
                f"= {q(hop.table)}.{q(hop.dim_key)}"
            )
            previous = hop.table
        return " ".join(clauses)


@dataclass
class View:
    """One crossfilter view: a binned COUNT over a single dimension.

    ``group_of_row`` is ``None`` for joined (star-schema) dimensions:
    there is no per-fact-row bar array to scatter into, so those views
    re-aggregate through join-shaped lineage-consuming SQL instead.
    """

    dimension: str
    bin_values: np.ndarray       # distinct dimension values, bar order
    counts: np.ndarray           # initial bar heights
    group_of_row: Optional[np.ndarray]  # forward rid array: base row -> bar
    backward: Optional[RidIndex]  # bar -> base rids (BT/BT+FT only)

    @property
    def num_bars(self) -> int:
        return int(self.bin_values.shape[0])


class CrossfilterSession:
    """Build views over one table and serve brush interactions.

    ``technique`` ∈ {"lazy", "bt", "bt+ft", "cube"}.
    """

    TECHNIQUES = ("lazy", "bt", "bt+ft", "cube")

    def __init__(self, table: Table, dimensions: Sequence[str], technique: str = "bt+ft"):
        self._init_state(table, dimensions, technique)
        start = time.perf_counter()
        self._build()
        self.build_seconds = time.perf_counter() - start

    def _init_state(
        self,
        table: Table,
        dimensions: Sequence[str],
        technique: str,
        database=None,
        relation: Optional[str] = None,
    ) -> None:
        """Shared field initialization for both construction routes."""
        if technique not in self.TECHNIQUES:
            raise WorkloadError(
                f"unknown crossfilter technique {technique!r}; "
                f"choose from {self.TECHNIQUES}"
            )
        self.table = table
        self.dimensions = tuple(dimensions)
        self.technique = technique
        self.views: Dict[str, View] = {}
        self.cube: Dict[Tuple[str, str], np.ndarray] = {}
        self.database = database
        self.relation = relation
        self.late_materialize = True
        self._result_names: Dict[str, str] = {}
        self._joins: Dict[str, DimensionJoin] = {}
        self._bar_orders: Dict[str, Dict[object, int]] = {}

    @classmethod
    def from_database(
        cls, database, relation: str, dimensions: Sequence[str],
        technique: str = "bt+ft", late_materialize: bool = True,
        joins: Optional[Dict[str, DimensionJoin]] = None,
    ) -> "CrossfilterSession":
        """Build the views *declaratively*: each view is a SQL group-by
        COUNT executed with lineage capture and registered as a named
        result, and the view's interaction structures are exactly the
        captured indexes — the "express the logic in lineage terms" route
        the paper advocates, instead of the hand-rolled kernels of the
        direct constructor.  BT / BT+FT interactions on such sessions run
        as lineage-consuming SQL over the registered results.

        Interactions rely on the late-materializing push-down
        (:mod:`repro.plan.rewrite`): the per-brush ``Lb``
        filter/aggregate stacks execute in the rid domain, gathering
        only the brushed and re-aggregated dimensions instead of
        copying the full traced subset.  ``late_materialize=False``
        forces the materialize-then-scan path (the Figure 14 benchmark's
        baseline axis).  Interactions run through ``Database.sql``:
        per-view statements bind ``:bars`` into memoized plans, and the
        database's lineage cache resolves each brush's rid set once
        across all views.  View results are registered under ordinal
        names (``_cf<session>_<i>``) with ``pin=True``, exempt from the
        registry's byte budget (``Database(max_result_bytes=...)``), so
        a full registry never refuses a session's views; ``close()``
        drops them.

        ``joins`` maps dimension names to :class:`DimensionJoin` specs:
        those views bin on an attribute of a joined lookup table, and
        both their construction and their per-brush re-aggregation run
        as join-shaped statements that the rewrite pushes through the
        join — snowflake specs (``DimensionJoin(..., parent=...)``,
        ``dim → sub-dim``) generate multi-join chains that execute as
        one pushed rid-domain core.  Joined dimensions require a
        BT-family technique (there is no hand-rolled kernel for a
        column that lives in another relation).
        """
        table = database.table(relation)
        session = cls.__new__(cls)
        session._init_state(
            table, dimensions, technique, database=database, relation=relation
        )
        session.late_materialize = bool(late_materialize)
        session._joins = dict(joins) if joins else {}
        if session._joins:
            unknown = sorted(set(session._joins) - set(session.dimensions))
            if unknown:
                raise WorkloadError(
                    f"joined dimensions {unknown} are not in dimensions"
                )
            if technique not in ("bt", "bt+ft"):
                raise WorkloadError(
                    "joined dimensions require a lineage-backed technique "
                    f"('bt' or 'bt+ft'), got {technique!r}"
                )
        capture = (
            CaptureConfig.inject()
            if technique in ("bt", "bt+ft")
            else CaptureConfig.none()
        )
        session_id = next(_SESSION_IDS)
        start = time.perf_counter()
        for i, dim in enumerate(session.dimensions):
            name = f"_cf{session_id}_{i}" if capture.enabled else None
            result = database.sql(
                session._view_statement(dim),
                options=ExecOptions(
                    capture=capture,
                    name=name,
                    # Exempt from the registry's byte budget.
                    pin=name is not None,
                ),
            )
            if dim in session._joins:
                # No per-fact-row bar array for star-schema views: their
                # updates run as join-shaped lineage-consuming SQL.
                backward = None
                group_of_row = None
            elif capture.enabled:
                backward = result.lineage.backward_index(relation)
                group_of_row = result.lineage.forward_index(relation).values
            else:
                backward = None
                group_of_row = factorize([table.column(dim)])[0]
            if name is not None:
                session._result_names[dim] = name
            session.views[dim] = View(
                dimension=dim,
                bin_values=np.asarray(result.table.column(dim)),
                counts=np.asarray(result.table.column("cnt"), dtype=np.int64),
                group_of_row=group_of_row,
                backward=backward,
            )
        if technique == "cube":
            session._build_cubes()
        session.build_seconds = time.perf_counter() - start
        return session

    # -- construction ---------------------------------------------------------------

    def _build(self) -> None:
        capture_backward = self.technique in ("bt", "bt+ft")
        for dim in self.dimensions:
            values = self.table.column(dim)
            group_ids, num_groups, reps, counts = factorize([values])
            backward = None
            if capture_backward:
                backward = RidIndex.from_group_ids(group_ids, num_groups)
            self.views[dim] = View(
                dimension=dim,
                bin_values=values[reps],
                counts=counts.astype(np.int64),
                group_of_row=group_ids,
                backward=backward,
            )
        if self.technique == "cube":
            self._build_cubes()

    def _build_cubes(self) -> None:
        """Pairwise partial cubes: counts of (bar_i, bar_j) co-occurrence."""
        for di, vi in self.views.items():
            for dj, vj in self.views.items():
                if di == dj:
                    continue
                combined = (
                    vi.group_of_row.astype(np.int64) * vj.num_bars
                    + vj.group_of_row
                )
                self.cube[(di, dj)] = np.bincount(
                    combined, minlength=vi.num_bars * vj.num_bars
                ).reshape(vi.num_bars, vj.num_bars)

    # -- interactions ----------------------------------------------------------------

    def brush(self, dimension: str, bar: int) -> Dict[str, np.ndarray]:
        """Highlight one bar; returns updated counts for every other view."""
        return self.brush_many(dimension, [bar])

    def brush_many(self, dimension: str, bars: Sequence[int]) -> Dict[str, np.ndarray]:
        """Highlight a *set* of bars (the paper's "bar (or set of bars)").

        Semantics: rows contributing to any selected bar.  Bars of one
        view are disjoint, so the lineage union is a concatenation; the
        input is deduplicated first so repeated bars cannot double-count
        (keeping every technique and construction route consistent).
        """
        view, bars = self._checked(dimension, bars)
        if self.technique == "cube":
            # Partial data cube: interactions are row lookups.
            return {
                other.dimension: self.cube[(dimension, other.dimension)][bars].sum(axis=0)
                for other in self._others(dimension)
            }
        if self.technique == "lazy":
            # Shared selection scan: evaluate the brush predicate once,
            # then re-run each group-by over the qualifying rows.
            mask = np.isin(self.table.column(dimension), view.bin_values[bars])
            return self._reaggregate(dimension, np.nonzero(mask)[0])
        if self.database is not None:
            if self.technique == "bt":
                return self._reaggregate_sql(dimension, bars)
            rids = self._lineage_rids_sql(dimension, bars)
        else:
            rids = view.backward.lookup_many(np.asarray(bars, dtype=np.int64))
        if self.technique == "bt":
            return self._reaggregate(dimension, rids)
        # BT+FT: each forward rid array is a perfect hash, so a view
        # updates with one scatter-add; star-schema views have none and
        # update through the pushed join-shaped re-aggregation.
        params = {"bars": np.asarray(bars, dtype=np.int64)}
        return {
            other.dimension: (
                self._reaggregate_sql_one(dimension, other, params)
                if other.group_of_row is None
                else np.bincount(
                    other.group_of_row[rids], minlength=other.num_bars
                ).astype(np.int64)
            )
            for other in self._others(dimension)
        }

    def _checked(self, dimension: str, bars: Sequence[int]) -> Tuple[View, List[int]]:
        """The brushed view and its deduplicated bars; raises for an
        unknown dimension or a bar out of range."""
        if dimension not in self.views:
            raise WorkloadError(f"unknown dimension {dimension!r}")
        view = self.views[dimension]
        bars = list(dict.fromkeys(bars))
        for bar in bars:
            if not 0 <= bar < view.num_bars:
                raise WorkloadError(
                    f"bar {bar} out of range for {dimension} ({view.num_bars} bars)"
                )
        return view, bars

    def _others(self, dimension: str) -> List[View]:
        return [v for d, v in self.views.items() if d != dimension]

    # -- lineage-consuming SQL routes (declarative sessions) -------------------

    def _lineage_rids_sql(self, dimension: str, bars: Sequence[int]) -> np.ndarray:
        """Rows behind the selected bars, via ``FROM Lb(view, relation)``.

        The statement's own captured lineage identifies which base rows
        the lineage scan produced, so no index is probed by hand.  Only
        one fact column is projected — ``SELECT DISTINCT``, since the
        interaction reads nothing but the statement's lineage and the
        backward union over the deduplicated groups is the same rid set
        (the DISTINCT executes in the rid domain under the pushed path,
        so the materialized output shrinks to the distinct values) — and
        only backward lineage is captured (a forward index would cost
        O(base rows) per brush).  A star-schema view projects its fact
        join key: the joined attribute lives in the lookup table, and
        the traced rows are fact rows either way."""
        joined = self._joins.get(dimension)
        column = joined.root_fact_key() if joined is not None else dimension
        statement = (
            f"SELECT DISTINCT {q(column)} FROM "
            f"Lb({self._result_names[dimension]}, {q(self.relation)}, :bars)"
        )
        subset = self.database.sql(
            statement,
            params={"bars": np.asarray(list(bars), dtype=np.int64)},
            options=ExecOptions(
                capture=CaptureConfig.inject(forward=False),
                late_materialize=self.late_materialize,
            ),
        )
        return subset.backward(np.arange(len(subset)), self.relation)

    def _view_statement(self, dim: str, brushed_dim: Optional[str] = None) -> str:
        """View ``dim``'s COUNT statement: over the whole relation when
        ``brushed_dim`` is omitted (the view itself), else over the
        lineage scan of ``brushed_dim``'s brushed bars (its update after
        a brush).  A star-schema view joins out to its lookup table —
        the join-shaped statement the pushed rewrite executes in the rid
        domain (only the fact join key is gathered to probe, only the
        joined attribute at matching rows)."""
        source = (
            q(self.relation)
            if brushed_dim is None
            else f"Lb({self._result_names[brushed_dim]}, {q(self.relation)}, :bars)"
        )
        joined = self._joins.get(dim)
        if joined is not None:
            column = f"{q(joined.table)}.{q(joined.column)}"
            return (
                f"SELECT {column} AS {q(dim)}, COUNT(*) AS cnt FROM {source} "
                f"{joined.join_sql(self.relation)} GROUP BY {column}"
            )
        return f"SELECT {q(dim)}, COUNT(*) AS cnt FROM {source} GROUP BY {q(dim)}"

    def _reaggregate_sql_one(
        self, brushed_dim: str, other: View, params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """One view's updated counts via its re-aggregation statement."""
        res = self.database.sql(
            self._view_statement(other.dimension, brushed_dim),
            params=params,
            options=ExecOptions(late_materialize=self.late_materialize),
        )
        return _counts_from(other, res, self._bar_index(other))

    def _reaggregate_sql(self, brushed_dim: str, bars: Sequence[int]) -> Dict[str, np.ndarray]:
        """BT interaction as pure lineage-consuming SQL: re-aggregate each
        other view with a GROUP BY *over the lineage scan* of the brushed
        bars — the paper's headline query shape.  Deliberately one
        statement per view (as the paper's BT issues one re-aggregation
        per view); the statements share the database's lineage cache, so
        the brushed rid set is resolved once and the N-1
        remaining statements only gather and aggregate.  Each statement
        is a GroupBy-over-LineageScan tree — joined to the lookup table
        for star-schema views — so the (default) pushed path aggregates
        rid-gathered slices instead of materializing the full-width
        subset per view."""
        params = {"bars": np.asarray(list(bars), dtype=np.int64)}
        return {
            other.dimension: self._reaggregate_sql_one(brushed_dim, other, params)
            for other in self._others(brushed_dim)
        }

    def _reaggregate(self, brushed_dim: str, rids: np.ndarray) -> Dict[str, np.ndarray]:
        out = {}
        for other in self._others(brushed_dim):
            # Rebuild the group-by over the subset (hash-table rebuild):
            # re-derive group ids from the dimension values themselves.
            values = self.table.column(other.dimension)[rids]
            _, sub_groups, sub_reps, sub_counts = (
                factorize([values]) if rids.size else (None, 0, None, None)
            )
            counts = np.zeros(other.num_bars, dtype=np.int64)
            if sub_groups:
                # Map subset bins back to view bar ids via bin values.
                order = self._bar_index(other)
                for g in range(sub_groups):
                    counts[order[values[sub_reps[g]]]] = sub_counts[g]
            out[other.dimension] = counts
        return out

    def _bar_index(self, view: View) -> Dict[object, int]:
        """Memoized ``bin value -> bar id`` map (immutable after build)."""
        order = self._bar_orders.get(view.dimension)
        if order is None:
            order = {v: i for i, v in enumerate(view.bin_values.tolist())}
            self._bar_orders[view.dimension] = order
        return order

    def close(self) -> None:
        """Drop this session's registered results from the Database so
        their tables and lineage indexes become collectable.  Declarative
        sessions that are rebuilt repeatedly (a notebook re-running
        ``from_database``) should close the old session first.  A closed
        declarative session has no views: a later brush raises for an
        unknown dimension."""
        from ..errors import PlanError

        if self.database is not None:
            for name in self._result_names.values():
                try:
                    self.database.drop_result(name)
                except PlanError:
                    pass  # already dropped by the user
            self.views = {}
        self._result_names = {}

    def serve(self, server) -> "ConcurrentCrossfilter":
        """Concurrent-session entry point: brush this (declarative)
        session through a :class:`~repro.serve.DatabaseServer`, so many
        reader threads brush against pinned snapshots while refreshes
        land through the server's writer.  See
        :class:`ConcurrentCrossfilter`."""
        return ConcurrentCrossfilter(self, server)

    # -- benchmarking helpers -----------------------------------------------------------

    def run_all_interactions(
        self, max_per_view: Optional[int] = None
    ) -> Dict[str, List[float]]:
        """Brush every bar of every view; returns per-view latency lists
        (seconds) — the data behind Figures 13/14."""
        latencies: Dict[str, List[float]] = {}
        for dim, view in self.views.items():
            bars = range(view.num_bars if max_per_view is None
                         else min(view.num_bars, max_per_view))
            times = []
            for bar in bars:
                t0 = time.perf_counter()
                self.brush(dim, bar)
                times.append(time.perf_counter() - t0)
            latencies[dim] = times
        return latencies


def _counts_from(view: View, result, order: Dict[object, int]) -> np.ndarray:
    """Dense bar-order counts of ``view`` from one re-aggregation result;
    ``order`` maps each bin value to its bar id."""
    counts = np.zeros(view.num_bars, dtype=np.int64)
    for value, cnt in zip(
        result.table.column(view.dimension), result.table.column("cnt"), strict=True
    ):
        counts[order[value]] = int(cnt)
    return counts


class ConcurrentCrossfilter:
    """Thread-safe brushing front for one declarative crossfilter session.

    Wraps a BT-family :class:`CrossfilterSession` built with
    ``from_database`` and routes every per-view re-aggregation statement
    through a :class:`~repro.serve.DatabaseServer` — each brush pins
    **one** snapshot and runs all N-1 view updates against it, so a
    brush racing a refresh answers entirely pre- or entirely post-epoch,
    never a blend across views.  The wrapper itself is immutable after
    construction (bar orders are prebuilt; the underlying session is
    never mutated by a brush), so any number of threads may brush
    concurrently.
    """

    def __init__(self, session: CrossfilterSession, server):
        if session.database is None:
            raise WorkloadError(
                "concurrent brushing requires a declarative session "
                "(CrossfilterSession.from_database)"
            )
        if session.technique not in ("bt", "bt+ft"):
            raise WorkloadError(
                "concurrent brushing requires a lineage-backed technique "
                f"('bt' or 'bt+ft'), got {session.technique!r}"
            )
        self.session = session
        self.server = server
        # Prebuild the per-view bin-value -> bar-id maps: the session
        # memoizes them lazily, which is a benign single-thread race but
        # a real one under a reader pool.
        self._orders = {
            dim: dict(session._bar_index(view))
            for dim, view in session.views.items()
        }

    def brush(self, dimension: str, bar: int, snapshot=None) -> Dict[str, np.ndarray]:
        """Highlight one bar; returns updated counts per other view."""
        return self.brush_many(dimension, [bar], snapshot=snapshot)

    def brush_many(
        self, dimension: str, bars: Sequence[int], snapshot=None
    ) -> Dict[str, np.ndarray]:
        """Highlight a set of bars against one pinned snapshot (latest
        if omitted): every per-view statement of this brush reads the
        same epoch."""
        session = self.session
        _, bars = session._checked(dimension, bars)
        snap = snapshot if snapshot is not None else self.server.snapshot()
        params = {"bars": np.asarray(bars, dtype=np.int64)}
        out: Dict[str, np.ndarray] = {}
        for other in session._others(dimension):
            statement = session._view_statement(other.dimension, dimension)
            res = self.server.sql(statement, params=params, snapshot=snap)
            out[other.dimension] = _counts_from(
                other, res, self._orders[other.dimension]
            )
        return out

    def brush_batch(
        self, dimension: str, bars_list: Sequence[Sequence[int]], snapshot=None
    ) -> List[Dict[str, np.ndarray]]:
        """Serve N users' brushes on one dimension in a single pass:
        one result dict per user, all against one pinned snapshot.

        Semantically equivalent to N :meth:`brush_many` calls, but each
        per-view re-aggregation statement goes through
        :meth:`~repro.serve.DatabaseServer.sql_batch`, which resolves
        each distinct bar once, runs the predicate/gather/group-key work
        once over those bars' rows, and answers each user as a sum of
        per-bar group counts — the multi-user amortization of the
        paper's "millions of users" serving story.
        """
        session = self.session
        session._checked(dimension, ())
        cleaned = [session._checked(dimension, bars)[1] for bars in bars_list]
        if not cleaned:
            return []
        snap = snapshot if snapshot is not None else self.server.snapshot()
        params_list = [
            {"bars": np.asarray(bars, dtype=np.int64)} for bars in cleaned
        ]
        out: List[Dict[str, np.ndarray]] = [{} for _ in cleaned]
        for other in session._others(dimension):
            statement = session._view_statement(other.dimension, dimension)
            results = self.server.sql_batch(
                statement, params_list, snapshot=snap
            )
            for user, res in enumerate(results):
                out[user][other.dimension] = _counts_from(
                    other, res, self._orders[other.dimension]
                )
        return out
