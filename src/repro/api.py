"""Public entry point: the :class:`Database` facade and its session layer.

A :class:`Database` owns a catalog of named in-memory tables and executes
logical plans (or SQL) on either backend, with lineage capture configured
per query.  Query results are :class:`QueryResult` objects bundling the
output table, the lineage handle, and helpers for running *lineage
consuming queries* — queries whose input relation is the backward (or
forward) lineage of a previous result (paper Section 2.1).

Execution options
-----------------
How a statement runs is described by one value, :class:`ExecOptions` —
capture configuration, backend, result registration (``name`` / ``pin``),
and the late-materialization toggle:

>>> db.sql("SELECT z, COUNT(*) AS c FROM t GROUP BY z",
...        options=ExecOptions(capture=CaptureMode.INJECT, name="prev"))

Prepared statements and sessions
--------------------------------
Interactive workloads (crossfilter, linked brushing) issue the *same*
statements per interaction, varying only parameters.  The prepared layer
amortizes every per-statement cost:

>>> stmt = db.prepare("SELECT d, COUNT(*) AS c "
...                   "FROM Lb(view, 't', :bars) GROUP BY d")
>>> stmt.run(params={"bars": [0]})        # no re-lex/parse/bind/rewrite
>>> stmt.run(params={"bars": [3, 4]})     # just bind :bars and execute

A :class:`PreparedQuery` caches the bound logical plan **and** the
late-materialization rewrite decision (:func:`repro.plan.rewrite.
precompute_rewrites`); parameter slots — scalar ``:p`` predicates,
``IN :values`` lists, and the rid argument of ``Lb``/``Lf`` — survive
binding and are filled at ``run()`` time without re-planning.

A :class:`Session` groups prepared statements under shared defaults and a
shared :class:`~repro.lineage.cache.LineageResolutionCache`:

>>> sess = db.session(options=ExecOptions(capture=CaptureMode.INJECT))
>>> sess.sql("SELECT a, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY a",
...          params={"bars": bars})    # auto-prepared, memoized by text

Within a session, the N per-view statements of one brush resolve the
brushed lineage **once**: the cache memoizes resolved backward/forward
rid sets per ``(result, relation, rid-subset)`` and invalidates entries
by registry epoch when a result name is re-registered.  ``Session.sql``
also re-prepares transparently when a cached plan's frozen schema drifts
(:class:`~repro.errors.StaleBindingError`).

Lineage consuming SQL
---------------------
Register a captured result under a name and use ``Lb`` / ``Lf`` as table
expressions in later statements:

>>> prev = db.sql("SELECT z, COUNT(*) AS c FROM t GROUP BY z",
...               options=ExecOptions(capture=CaptureMode.INJECT,
...                                   name="prev"))
>>> db.sql("SELECT z, COUNT(*) AS c FROM Lb(prev, 't') GROUP BY z")
>>> db.sql("SELECT * FROM Lf('t', prev, :rows)", params={"rows": [0, 1]})

``Lb(prev, 't')`` scans the rows of base relation ``t`` that contributed
to (a subset of) ``prev``'s output; ``Lf('t', prev)`` scans the rows of
``prev``'s output derived from (a subset of) ``t``.  The optional third
argument — an int, an int list, or a ``:param`` — restricts the traced
subset; omitted, every row is traced.  Both work on either backend, join
and aggregate like any other relation, and are themselves captured, so
lineage chains across interactive sessions.

Registered results live in a bounded registry: ``Database(max_results=N)``
bounds the entry count, ``Database(max_result_bytes=B)`` bounds the bytes
held by their lineage indexes (measured by
:meth:`~repro.lineage.capture.QueryLineage.memory_bytes`); either bound
evicts least-recently-used unpinned entries.  Replacing a *base table*
that captured lineage traces to advances a catalog epoch, so consuming
stale rids raises instead of answering against the new rows.

Relation naming in lineage queries
----------------------------------
Lineage lookups accept the base table name, the ``name#i`` occurrence key
of a self-join, or the SQL correlation name: after ``FROM t AS a JOIN t
AS b ...``, ``result.backward([0], "a")`` traces through the first
occurrence specifically, while ``"t"`` raises for being ambiguous.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from . import sanitize
from .errors import PlanError, RecoveryError, StaleBindingError
from .exec.vector.executor import ExecResult, VectorExecutor
from .lineage.cache import LineageResolutionCache
from .lineage.capture import CaptureConfig, CaptureMode, QueryLineage
from .lineage.recovery import (
    DurabilityManager,
    EvictedStub,
    RefreshPolicy,
    reexecute_stub,
    stub_for,
)
from .plan.logical import LineageScan, LogicalPlan, walk
from .plan.rewrite import RewriteIndex, precompute_rewrites
from .storage.catalog import Catalog
from .storage.table import Table


@dataclass(frozen=True)
class ExecOptions:
    """How one statement (or a whole session) executes.

    Attributes
    ----------
    capture:
        A :class:`CaptureMode` for the common case, a full
        :class:`CaptureConfig` for pruning/hints, or ``None`` for no
        capture (the paper's Baseline).
    backend:
        ``"vector"`` or ``"compiled"``.
    name:
        Register the result under this name for lineage-consuming SQL
        (``FROM Lb(name, ...)``); re-registering advances the name's
        epoch, invalidating cached rid resolutions.
    pin:
        Exempt the registered result from registry eviction bounds.
    late_materialize:
        ``False`` disables the lineage-scan push-down rewrite
        (:mod:`repro.plan.rewrite`) — the benchmarks' baseline.

    Every statement runs its kernels serially on the calling thread;
    concurrency lives between statements (``DatabaseServer``'s reader
    pool and writer thread), never inside one.

    Construction (including :meth:`with_`) validates ``backend`` and
    ``capture``, so an options value that exists is one every execution
    path can run.
    """

    capture: Union[CaptureConfig, CaptureMode, None] = None
    backend: str = "vector"
    name: Optional[str] = None
    pin: bool = False
    late_materialize: bool = True

    def __post_init__(self) -> None:
        if self.backend not in ("vector", "compiled"):
            raise PlanError(
                f"unknown backend {self.backend!r}; use 'vector' or 'compiled'"
            )
        if self.capture is not None and not isinstance(
            self.capture, (CaptureMode, CaptureConfig)
        ):
            raise PlanError(f"invalid capture specification {self.capture!r}")

    @property
    def config(self) -> CaptureConfig:
        """``capture`` as the full :class:`CaptureConfig` executors take."""
        if self.capture is None:
            return CaptureConfig.none()
        if isinstance(self.capture, CaptureMode):
            return CaptureConfig(mode=self.capture)
        return self.capture

    def with_(self, **changes) -> "ExecOptions":
        """A copy with the given fields replaced (per-call overrides on
        top of session-level defaults)."""
        return _dc_replace(self, **changes)


def require_params(param_names: FrozenSet[str], params: Optional[dict]) -> None:
    """Raise before execution starts unless ``params`` binds every slot
    in ``param_names`` (a prepared plan's :func:`plan_param_names`)."""
    missing = param_names - set(params or ())
    if missing:
        raise PlanError(
            f"prepared statement is missing parameter(s) "
            f"{sorted(missing)}; expected {sorted(param_names)}"
        )


def normalize_statement(text: str) -> str:
    """The statement-memo key: whitespace runs collapse to one space and
    *keyword* tokens case-fold, so generated SQL with varying layout or
    keyword casing hits the same memo entry as its hand-written
    equivalent.  Everything meaning-bearing stays byte-exact: string
    literals (``WHERE s = 'Foo'`` vs ``'foo'``) are copied verbatim,
    identifiers keep their case (the lexer folds keywords only — table
    ``T`` and table ``t`` are different relations), and so do
    ``:parameter`` names, even ones spelled like keywords (``:MAX``).
    """
    from .sql.lexer import KEYWORDS, LINEAGE_TABLE_FUNCS

    out = []
    i, n = 0, len(text)
    pending_space = False

    def emit(fragment: str) -> None:
        nonlocal pending_space
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(fragment)

    while i < n:
        ch = text[i]
        if ch.isspace():
            pending_space = True
            i += 1
            continue
        if ch == "'":
            # Copy the literal verbatim, including '' escapes.
            j = i + 1
            while j < n:
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            emit(text[i : min(j + 1, n)])
            i = j + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            # A word directly after ':' is a parameter name — the lexer
            # keeps its case, so a keyword-spelled one (:MAX) must not
            # fold into a different statement's :max.
            is_param_name = i > 0 and text[i - 1] == ":"
            if not is_param_name and (
                lowered in KEYWORDS or lowered in LINEAGE_TABLE_FUNCS
            ):
                emit(lowered)
            else:
                emit(word)
            i = j
            continue
        emit(ch)
        i += 1
    return "".join(out)


def plan_param_names(plan: LogicalPlan) -> FrozenSet[str]:
    """Every ``:param`` slot a plan reads at execution time — scalar
    parameters in predicates/projections, ``IN :list`` bindings, and the
    rid argument of ``Lb``/``Lf`` scans."""
    from .expr.ast import Param, collect_params

    names = set()
    for node in walk(plan):
        for attr in ("predicate", "having"):
            expr = getattr(node, attr, None)
            if expr is not None:
                names.update(collect_params(expr))
        for pair_attr in ("exprs", "keys"):
            pairs = getattr(node, pair_attr, None)
            if pairs and isinstance(pairs, tuple) and pairs and isinstance(pairs[0], tuple):
                for expr, _ in pairs:
                    if hasattr(expr, "columns"):
                        names.update(collect_params(expr))
        for agg in getattr(node, "aggs", ()) or ():
            if agg.arg is not None:
                names.update(collect_params(agg.arg))
        if isinstance(node, LineageScan) and isinstance(node.rids, Param):
            names.add(node.rids.name)
    return frozenset(names)


class QueryResult:
    """The outcome of one instrumented query execution.

    ``statement`` / ``options`` record how the result was produced (when
    it came through the SQL layer): they are what lets a durable
    registry re-execute an evicted result and what WAL ``register``
    records persist alongside the payload.  ``plan`` is ``None`` for
    results reconstructed from durable state (nothing was re-executed).
    """

    def __init__(
        self,
        database: "Database",
        plan: Optional[LogicalPlan],
        result: ExecResult,
        statement: Optional[str] = None,
        options: Optional[ExecOptions] = None,
    ):
        self.database = database
        self.plan = plan
        self._result = result
        self.statement = statement
        self.options = options

    @property
    def table(self) -> Table:
        """The base query's output relation."""
        return self._result.table

    @property
    def lineage(self) -> Optional[QueryLineage]:
        """End-to-end lineage handle, or None when capture was off."""
        return self._result.lineage

    @property
    def timings(self) -> Dict[str, float]:
        """Raw timing breakdown recorded by the executor."""
        return self._result.timings

    @property
    def execute_seconds(self) -> float:
        """Base-query wall time, including inline (Inject) capture."""
        return self._result.execute_seconds

    @property
    def total_seconds(self) -> float:
        """Base query plus any deferred capture finalized so far."""
        return self._result.total_seconds

    def __len__(self) -> int:
        return self.table.num_rows

    def backward(self, out_rids, relation: str) -> np.ndarray:
        """Distinct base rids contributing to ``out_rids`` (Lb).

        Answers describe the relation *as captured*; they stay available
        after the base table is replaced (rid-only answers cannot go
        stale), unlike :meth:`backward_table`, which applies them to the
        live table and therefore checks the relation's epoch.
        """
        if self.lineage is None:
            raise PlanError("query was executed without lineage capture")
        return self.lineage.backward(out_rids, relation)

    def forward(self, relation: str, in_rids) -> np.ndarray:
        """Distinct output rids depending on ``in_rids`` (Lf)."""
        if self.lineage is None:
            raise PlanError("query was executed without lineage capture")
        return self.lineage.forward(relation, in_rids)

    def backward_table(self, out_rids, relation: str) -> Table:
        """The lineage subset of ``relation`` as a relation — the ``FROM
        Lb(...)`` construct of lineage consuming queries.

        Raises when ``relation``'s base table was replaced since capture
        (catalog epoch drift): the captured rids index the old rows, and
        applying them to the new table would silently return wrong data.
        """
        rids = self.backward(out_rids, relation)
        captured = self.lineage.base_epoch(relation)
        if captured is not None and self.database.catalog.epoch(relation) != captured:
            raise PlanError(
                f"base relation {relation!r} was replaced since this "
                "result captured its lineage; re-run the base query"
            )
        return self.database.table(relation).take(rids)

    def __repr__(self) -> str:
        return f"QueryResult(rows={len(self)}, lineage={self.lineage!r})"


class ResultRegistry(Mapping):
    """Named prior results with optional count and byte bounds.

    A plain mapping from the executors' point of view (``Lb``/``Lf``
    leaves resolve names through ``__getitem__``, which marks the entry
    recently used).  Two independent bounds trigger LRU eviction of
    *unpinned* entries:

    * ``max_results`` — entry count (as before);
    * ``max_result_bytes`` — total bytes held by the entries' lineage
      indexes, measured by :meth:`QueryLineage.memory_bytes` (which
      finalizes deferred entries; sizing requires the indexes to exist).

    ``pin=True`` exempts an entry from both bounds and from eviction —
    the escape hatch for results that must outlive arbitrary
    registration traffic (app sessions pin their views until ``close()``).

    Every registration of a name advances its **epoch**
    (:meth:`epoch`), which the lineage rid-resolution cache uses to
    invalidate memoized resolutions on re-registration.

    Durability and graceful degradation
    -----------------------------------
    With a :class:`~repro.lineage.recovery.DurabilityManager` attached
    (``Database.open``), every mutation is WAL-logged *before* it is
    applied, so acknowledged registrations survive a crash.  With a
    *refresher* attached (on by default for durable databases,
    ``Database(refresh_evicted=True)`` otherwise), eviction leaves an
    :class:`~repro.lineage.recovery.EvictedStub` behind and the next
    lookup of the name transparently re-executes its statement.  A plain
    in-memory registry keeps the historical behaviour exactly: evicted
    names become unknown.
    """

    def __init__(
        self,
        max_results: Optional[int] = None,
        max_result_bytes: Optional[int] = None,
    ):
        self._entries: "OrderedDict[str, QueryResult]" = OrderedDict()
        self._pinned: set = set()
        self._epochs: Dict[str, int] = {}
        self._bytes: Dict[str, int] = {}
        self.max_results = max_results
        self.max_result_bytes = max_result_bytes
        self._stubs: "OrderedDict[str, EvictedStub]" = OrderedDict()
        self._durability: Optional[DurabilityManager] = None
        self._refresher = None  # Callable[[EvictedStub], None]
        self._refreshing = threading.local()  # per-thread cycle guard
        self._caches: "weakref.WeakSet" = weakref.WeakSet()
        # Guards the in-memory maps (entries / pins / epochs / stubs /
        # bytes) so reader threads resolving names while a writer
        # registers can never observe a half-applied mutation.  Re-entrant
        # because refresh/evict paths re-enter register() on the same
        # thread.  Durability logging happens outside any long hold — the
        # lock is for memory, not for fsync.
        self._lock = threading.RLock()

    # -- Mapping protocol (what executors and the binder consume) ----------

    def __getitem__(self, name: str) -> "QueryResult":
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                self._entries.move_to_end(name)
                return entry
        return self._refresh_evicted(name)

    def __contains__(self, name) -> bool:
        with self._lock:
            if name in self._entries:
                return True
            return self._refresher is not None and name in self._stubs

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            if self._refresher is None:
                return iter(list(self._entries))
            names = list(self._entries)
            names.extend(n for n in self._stubs if n not in self._entries)
        return iter(names)

    def __len__(self) -> int:
        with self._lock:
            if self._refresher is None:
                return len(self._entries)
            return len(self._entries) + sum(
                1 for n in self._stubs if n not in self._entries
            )

    def _refresh_evicted(self, name: str) -> "QueryResult":
        """Serve an evicted-but-refreshable name by re-executing its
        statement (graceful degradation); unknown names raise the
        Mapping-contract ``KeyError``.

        The re-execution itself runs without the registry lock held (it
        plans and executes a whole statement); the self-dependency guard
        is per-thread so two threads refreshing the same name race to
        re-register rather than misdiagnose a cycle.
        """
        with self._lock:
            stub = self._stubs.get(name)
            if stub is None or self._refresher is None:
                return self._entries[name]  # canonical KeyError
        refreshing = self._refreshing_names()
        if name in refreshing:
            raise RecoveryError(
                f"re-execution of evicted result {name!r} depends on "
                "itself; the stub cannot be refreshed"
            )
        refreshing.add(name)
        try:
            self._refresher(stub)
        finally:
            refreshing.discard(name)
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise RecoveryError(
                f"re-execution of evicted result {name!r} completed "
                "without re-registering it"
            )
        return entry

    def _refreshing_names(self) -> set:
        names = getattr(self._refreshing, "names", None)
        if names is None:
            names = self._refreshing.names = set()
        return names

    def epoch(self, name: str) -> int:
        """Registration epoch of ``name`` (advances on every register,
        including re-registration after a drop); 0 when never seen."""
        return self._epochs.get(name, 0)

    def snapshot_state(
        self,
    ) -> "Tuple[Dict[str, QueryResult], Dict[str, int]]":
        """Consistent copy of ``(entries, epochs)`` for snapshot views.

        Taken under the lock so a concurrent registration can never
        yield a new result paired with its pre-registration epoch.
        Evicted stubs are deliberately absent: serving one would require
        re-execution against *live* state, which is a write — snapshot
        readers treat evicted names as unknown.
        """
        with self._lock:
            return dict(self._entries), dict(self._epochs)

    # -- durability plumbing -----------------------------------------------

    def attach_cache(self, cache) -> None:
        """Track a rid-resolution cache (weakly) for wholesale
        invalidation when durable state is recovered in place."""
        self._caches.add(cache)

    def invalidate_caches(self, name: Optional[str] = None) -> None:
        for cache in list(self._caches):
            cache.invalidate(name)

    def epochs_snapshot(self) -> Dict[str, int]:
        return dict(self._epochs)

    def restore_epochs(self, epochs: Dict[str, int]) -> None:
        """Recovery-only: install checkpointed registration epochs
        (replayed WAL registers then advance from here)."""
        with self._lock:
            self._epochs = {name: int(epoch) for name, epoch in epochs.items()}

    def restore_entry(
        self, name: str, result: "QueryResult", pin: bool = False
    ) -> None:
        """Recovery-only: insert a checkpointed entry *without* advancing
        its epoch (the checkpoint's epoch snapshot already counts it)."""
        with self._lock:
            self._entries[name] = result
            self._entries.move_to_end(name)
            if pin:
                self._pinned.add(name)
            else:
                self._pinned.discard(name)
            self._stubs.pop(name, None)
            self._bytes.pop(name, None)
            if self.max_result_bytes is not None:
                self._bytes[name] = _lineage_bytes(result)

    def apply_evict(self, name: str, stub: "EvictedStub") -> None:
        """Recovery-only: re-apply a logged or checkpointed eviction."""
        with self._lock:
            self._entries.pop(name, None)
            self._bytes.pop(name, None)
            self._pinned.discard(name)
            self._stubs[name] = stub
            self._stubs.move_to_end(name)

    # -- mutation ----------------------------------------------------------

    def register(self, name: str, result: "QueryResult", pin: bool = False) -> None:
        if self._durability is not None:
            # Write-ahead: the record is fsynced before memory changes,
            # so a failure here acknowledges nothing.
            self._durability.log_register(name, result, pin)
        if sanitize.enabled():
            # A registered result is shared state: Lb/Lf scans of other
            # statements gather through its columns, so debug mode makes
            # the read-only handout contract physical.
            for values in result.table.columns().values():
                sanitize.freeze(values)
        with self._lock:
            self._entries[name] = result
            self._entries.move_to_end(name)
            self._epochs[name] = self._epochs.get(name, 0) + 1
            if pin:
                self._pinned.add(name)
            else:
                self._pinned.discard(name)
            self._stubs.pop(name, None)
            self._bytes.pop(name, None)
            if self.max_result_bytes is not None:
                self._bytes[name] = _lineage_bytes(result)
            self._evict()

    def drop(self, name: str) -> None:
        if self._durability is not None and (
            name in self._entries or name in self._stubs
        ):
            self._durability.log_drop(name)
        with self._lock:
            if self._stubs.pop(name, None) is not None:
                self._entries.pop(name, None)
            else:
                del self._entries[name]
            self._pinned.discard(name)
            self._bytes.pop(name, None)

    def set_pin(self, name: str, pin: bool) -> None:
        """Pin or unpin a live entry or a stub (logged when durable);
        unpinning re-applies the eviction bounds."""
        if name not in self._entries and name not in self._stubs:
            raise PlanError(f"unknown result {name!r}")
        if self._durability is not None:
            self._durability.log_pin(name, pin)
        with self._lock:
            stub = self._stubs.get(name)
            if stub is not None:
                stub.pin = bool(pin)
            if name in self._entries:
                if pin:
                    self._pinned.add(name)
                else:
                    self._pinned.discard(name)
                    self._evict()

    def set_max_results(self, max_results: Optional[int]) -> None:
        if max_results is not None and max_results < 1:
            raise PlanError(
                f"max_results must be a positive bound or None, got {max_results}"
            )
        with self._lock:
            self.max_results = max_results
            self._evict()

    def set_max_result_bytes(self, max_result_bytes: Optional[int]) -> None:
        if max_result_bytes is not None and max_result_bytes < 1:
            raise PlanError(
                "max_result_bytes must be a positive bound or None, "
                f"got {max_result_bytes}"
            )
        with self._lock:
            self.max_result_bytes = max_result_bytes
            if max_result_bytes is not None:
                for name, entry in self._entries.items():
                    if name not in self._bytes:
                        self._bytes[name] = _lineage_bytes(entry)
            self._evict()

    def _evict(self) -> None:
        if self.max_results is None and self.max_result_bytes is None:
            return
        unpinned = [n for n in self._entries if n not in self._pinned]
        count_excess = (
            len(unpinned) - self.max_results
            if self.max_results is not None
            else 0
        )
        bytes_excess = 0
        if self.max_result_bytes is not None:
            bytes_excess = (
                sum(self._bytes.get(n, 0) for n in unpinned)
                - self.max_result_bytes
            )
        for name in unpinned:  # OrderedDict order == LRU order
            if count_excess <= 0 and bytes_excess <= 0:
                break
            bytes_excess -= self._bytes.get(name, 0)
            count_excess -= 1
            stub = self._make_stub(name)
            if stub is not None:
                if self._durability is not None:
                    self._durability.log_evict(stub)
                self._stubs[name] = stub
                self._stubs.move_to_end(name)
            del self._entries[name]
            self._bytes.pop(name, None)

    def _make_stub(self, name: str) -> Optional["EvictedStub"]:
        """Degradation stub for an entry about to be evicted, or ``None``
        when the registry is plain (neither refreshable nor durable) —
        plain registries keep the historical evicted-means-gone contract.
        """
        if self._refresher is None and self._durability is None:
            return None
        return stub_for(name, self._entries[name])


def _lineage_bytes(result: "QueryResult") -> int:
    lineage = result.lineage
    return int(lineage.memory_bytes()) if lineage is not None else 0


class PreparedQuery:
    """A statement bound once, runnable many times.

    Caches the lex/parse/bind product (the logical plan), the
    late-materialization rewrite decisions
    (:class:`~repro.plan.rewrite.RewriteIndex`), and owns (or shares — see
    :class:`Session`) a :class:`~repro.lineage.cache.LineageResolutionCache`
    memoizing resolved ``Lb``/``Lf`` rid sets across runs.  ``run()``
    binds ``:params`` without re-planning; all parameter slots — scalar
    predicates, ``IN :list``, and lineage-scan rid arguments — survive
    binding.

    Prepared plans freeze referenced schemas; if a referenced result is
    re-registered with a different shape, ``run`` raises
    :class:`~repro.errors.StaleBindingError` — re-prepare the statement
    (``Session.sql`` does this automatically).
    """

    def __init__(
        self,
        database: "Database",
        plan: LogicalPlan,
        options: ExecOptions,
        cache: Optional[LineageResolutionCache] = None,
        statement: Optional[str] = None,
    ):
        self.database = database
        self.plan = plan
        self.options = options
        self.statement = statement
        self.param_names = plan_param_names(plan)
        self._rewrites: RewriteIndex = precompute_rewrites(plan)
        self._cache = cache if cache is not None else LineageResolutionCache(
            database._results
        )

    @property
    def lineage_cache(self) -> LineageResolutionCache:
        """The rid-resolution cache this statement resolves through."""
        return self._cache

    def run(
        self,
        params: Optional[dict] = None,
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """Execute with ``params`` bound into the cached plan.

        ``options`` overrides this statement's options for one run (e.g.
        ``prepared.options.with_(backend="compiled")``).  Missing
        parameters raise before execution starts.
        """
        require_params(self.param_names, params)
        opts = options if options is not None else self.options
        return self.database._execute_plan(
            self.plan, opts, params,
            rewrites=self._rewrites, cache=self._cache,
            statement=self.statement,
        )

    def explain(self) -> str:
        """The cached logical plan as an ASCII tree."""
        return self.plan.describe()

    def __repr__(self) -> str:
        label = self.statement if self.statement is not None else type(self.plan).__name__
        return f"PreparedQuery({label!r}, params={sorted(self.param_names)})"


class Session:
    """Shared execution defaults plus shared caches for a group of
    statements — the unit of interactive work (one dashboard, one
    notebook cell block).

    * ``options`` are the session-level :class:`ExecOptions` defaults;
      per-statement ``options=`` arguments override them wholesale (use
      ``session.options.with_(...)`` for field-wise overrides).
    * All statements prepared through the session share one
      :class:`~repro.lineage.cache.LineageResolutionCache`, so the N
      per-view statements of one brush resolve the brushed lineage once.
    * :meth:`sql` memoizes prepared statements by normalized text
      (whitespace collapsed, keywords case-folded — see
      :func:`normalize_statement`) and transparently re-prepares on
      :class:`~repro.errors.StaleBindingError` (a referenced result
      re-registered with a different schema).
    """

    #: Bound on the by-text statement memo — a caller interpolating
    #: values into SQL instead of using :params would otherwise grow it
    #: without limit (the rid cache is LRU-bounded for the same reason).
    MAX_STATEMENTS = 256

    def __init__(self, database: "Database", options: Optional[ExecOptions] = None):
        self.database = database
        self.options = options if options is not None else ExecOptions()
        self.lineage_cache = LineageResolutionCache(database._results)
        self._statements: "OrderedDict[str, PreparedQuery]" = OrderedDict()

    def prepare(
        self,
        statement_or_plan: Union[str, LogicalPlan],
        options: Optional[ExecOptions] = None,
    ) -> PreparedQuery:
        """Prepare a statement (or plan) against this session's defaults
        and shared lineage cache."""
        return self.database.prepare(
            statement_or_plan,
            options=options if options is not None else self.options,
            cache=self.lineage_cache,
        )

    def sql(
        self,
        statement: str,
        params: Optional[dict] = None,
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """Run a statement, auto-preparing and memoizing it by
        *normalized* text (:func:`normalize_statement`: whitespace
        collapsed, keywords case-folded, literals and identifiers exact).

        The second execution of an equivalent text — including generated
        SQL differing only in layout or keyword case — skips
        lex/parse/bind and the rewrite match entirely.  Statements whose
        frozen bindings went stale are re-prepared and retried once.
        """
        key = normalize_statement(statement)
        prepared = self._statements.get(key)
        if prepared is None:
            prepared = self._memoize(key, statement)
        else:
            self._statements.move_to_end(key)
        try:
            return prepared.run(params, options=options)
        except StaleBindingError:
            prepared = self._memoize(key, statement)
            return prepared.run(params, options=options)

    def _memoize(self, key: str, statement: str) -> PreparedQuery:
        prepared = self.prepare(statement)
        self._statements[key] = prepared
        self._statements.move_to_end(key)
        while len(self._statements) > self.MAX_STATEMENTS:
            self._statements.popitem(last=False)
        return prepared

    def execute(
        self,
        plan: LogicalPlan,
        params: Optional[dict] = None,
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """Execute a logical plan under the session defaults, resolving
        lineage through the shared cache."""
        opts = options if options is not None else self.options
        return self.database._execute_plan(
            plan, opts, params, cache=self.lineage_cache
        )

    def close(self) -> None:
        """Release the session's caches (prepared plans and memoized rid
        resolutions).  Registered results belong to the Database and are
        not dropped here."""
        self._statements.clear()
        self.lineage_cache.invalidate()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Database:
    """An in-memory lineage-enabled database engine.

    ``max_results`` / ``max_result_bytes`` bound the registry of named
    prior results (LRU eviction of unpinned entries, see
    :class:`ResultRegistry`); ``None`` keeps every registration until
    :meth:`drop_result`.

    Durability
    ----------
    ``durable_path`` (or the :meth:`open` classmethod) attaches a
    write-ahead log and checkpoint under that directory: every result
    registration, drop, pin change, and eviction is fsynced to the WAL
    *before* it is acknowledged, and re-opening the same path replays
    checkpoint + WAL so every registered view answers its lineage
    queries again — same rids, same epochs, same stale-rid guards —
    without recapture.  ``refresh_evicted`` (default: on for durable
    databases, off otherwise) turns evictions into graceful degradation:
    the registry keeps a statement stub and transparently re-executes it
    when ``Lb``/``Lf`` next touch the name, retrying under
    ``refresh_policy``.
    """

    def __init__(
        self,
        max_results: Optional[int] = None,
        max_result_bytes: Optional[int] = None,
        durable_path=None,
        refresh_evicted: Optional[bool] = None,
        refresh_policy: Optional[RefreshPolicy] = None,
        failpoints=None,
    ):
        self.catalog = Catalog()
        self._results = ResultRegistry(max_results, max_result_bytes)
        self._vector = VectorExecutor(self.catalog, results=self._results)
        self._compiled = None  # built lazily; codegen backend is optional
        if refresh_evicted is None:
            refresh_evicted = durable_path is not None
        self._refresh_policy = (
            refresh_policy if refresh_policy is not None else RefreshPolicy()
        )
        if refresh_evicted:
            self._results._refresher = self._refresh_evicted_stub
        self._durability: Optional[DurabilityManager] = None
        if durable_path is not None:
            manager = DurabilityManager(durable_path, failpoints=failpoints)
            # Recovery replays through the registry's normal mutators
            # (logging suspended), then opens the WAL for appending.
            manager.recover_into(self)
            self._results._durability = manager
            self._durability = manager

    @classmethod
    def open(cls, path, **kwargs) -> "Database":
        """Open (or create) a durable database at ``path``.

        Equivalent to ``Database(durable_path=path, **kwargs)``: recovers
        the checkpoint and WAL under ``path`` (truncating a torn tail),
        then serves every acknowledged registration.  Base tables are
        *not* persisted — re-create them before running lineage-consuming
        statements; checkpointed catalog epochs guarantee that a base
        table replaced since capture still raises instead of answering
        against the wrong rows.
        """
        return cls(durable_path=path, **kwargs)

    # -- durability ---------------------------------------------------------

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The durability manager (``None`` for in-memory databases)."""
        return self._durability

    def checkpoint(self) -> None:
        """Snapshot the registry atomically and reset the WAL (bounding
        replay time for the next :meth:`open`)."""
        if self._durability is None:
            raise PlanError("database is not durable; use Database.open(path)")
        self._durability.checkpoint(self)

    def close(self) -> None:
        """Flush and close the WAL.  In-memory databases no-op."""
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def pin_result(self, name: str, pin: bool = True) -> None:
        """Pin (or unpin) a registered result; durable databases log the
        change so it survives restart."""
        self._results.set_pin(name, pin)

    def _refresh_evicted_stub(self, stub: "EvictedStub") -> None:
        reexecute_stub(self, stub, self._refresh_policy)

    # -- catalog management -----------------------------------------------------

    def create_table(
        self,
        name: str,
        table: Table,
        replace: bool = False,
        preserve_rids: bool = False,
    ) -> None:
        """Register an in-memory relation under ``name``.

        Replacing an existing relation advances its epoch, so previously
        captured lineage refuses to be *applied* to the new rows
        (``Lb(...)`` scans and :meth:`QueryResult.backward_table` raise;
        rid-only answers keep working).  ``preserve_rids=True`` asserts
        the replacement updated rows in place (same positions — what
        :class:`~repro.lineage.refresh.AggregateRefresher` does) and
        keeps the epoch.
        """
        self.catalog.register(
            name, table, replace=replace, preserve_rids=preserve_rids
        )

    def drop_table(self, name: str) -> None:
        """Remove a relation from the catalog."""
        self.catalog.drop(name)

    def table(self, name: str) -> Table:
        """Look up a registered relation."""
        return self.catalog.get(name)

    def tables(self):
        """Sorted names of all registered relations."""
        return self.catalog.names()

    # -- named results (lineage-consuming SQL) ---------------------------------

    def register_result(
        self,
        name: str,
        result: "QueryResult",
        pin: bool = False,
        max_results: Optional[int] = None,
        max_result_bytes: Optional[int] = None,
    ) -> None:
        """Register a prior result so SQL can consume its lineage.

        ``FROM Lb(name, 'relation')`` / ``FROM Lf('relation', name)``
        resolve ``name`` against this registry at execution time.
        Re-registering a name replaces the previous result, re-targeting
        any plan that references it and advancing the name's epoch (which
        invalidates memoized rid resolutions in prepared sessions).
        Names must be SQL identifiers that are not keywords, so the bare
        ``Lb(name, ...)`` form always parses.

        When the registry is bounded (``Database(max_results=N,
        max_result_bytes=B)``, or the same keywords here, which update
        the bounds), least-recently-used unpinned entries are evicted
        past either bound; ``pin=True`` exempts this entry from the
        bounds and from eviction until it is dropped.
        """
        _check_result_name(name)
        if max_results is not None:
            self._results.set_max_results(max_results)
        if max_result_bytes is not None:
            self._results.set_max_result_bytes(max_result_bytes)
        self._results.register(name, result, pin=pin)

    def drop_result(self, name: str) -> None:
        """Forget a registered result (its indexes become collectable)."""
        if name not in self._results:
            raise PlanError(f"unknown result {name!r}")
        self._results.drop(name)

    def result(self, name: str) -> "QueryResult":
        """Look up a registered prior result."""
        if name not in self._results:
            raise PlanError(
                f"unknown result {name!r}; known: {sorted(self._results)}"
            )
        return self._results[name]

    def results(self):
        """Sorted names of all registered prior results."""
        return sorted(self._results)

    # -- prepared statements and sessions ---------------------------------------

    def prepare(
        self,
        statement_or_plan: Union[str, LogicalPlan],
        options: Optional[ExecOptions] = None,
        cache: Optional[LineageResolutionCache] = None,
    ) -> PreparedQuery:
        """Bind a statement once and return a reusable
        :class:`PreparedQuery` (see the module docstring).

        ``cache`` shares an existing lineage rid-resolution cache (what
        :meth:`Session.prepare` passes); by default the prepared query
        owns a fresh one, so even a standalone prepared statement
        memoizes its resolutions across runs.
        """
        if isinstance(statement_or_plan, str):
            plan = self.parse(statement_or_plan)
            statement = statement_or_plan
        else:
            plan = statement_or_plan
            statement = None
        return PreparedQuery(
            self,
            plan,
            options if options is not None else ExecOptions(),
            cache=cache,
            statement=statement,
        )

    def session(self, options: Optional[ExecOptions] = None) -> Session:
        """Open a :class:`Session`: shared execution defaults plus a
        shared lineage rid-resolution cache for a group of statements."""
        return Session(self, options)

    # -- execution ----------------------------------------------------------------

    def execute(
        self,
        plan: LogicalPlan,
        params: Optional[dict] = None,
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """Execute a logical plan, configured by ``options``
        (:class:`ExecOptions`; the defaults when omitted)."""
        opts = options if options is not None else ExecOptions()
        return self._execute_plan(plan, opts, params)

    def sql(
        self,
        statement: str,
        params: Optional[dict] = None,
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """Parse and execute a SQL statement (see :mod:`repro.sql`),
        configured by ``options`` as in :meth:`execute`.

        One-shot form: every call re-parses and re-binds.  Repeated
        statements should go through :meth:`prepare` or a
        :meth:`session` (which memoizes by statement text).
        """
        opts = options if options is not None else ExecOptions()
        plan = self.parse(statement)
        return self._execute_plan(plan, opts, params, statement=statement)

    def parse(self, statement: str) -> LogicalPlan:
        """Parse + bind a SQL statement into a logical plan (no execution)."""
        from .sql import parse_sql

        return parse_sql(statement, self.catalog, self._results)

    # -- concurrent serving ------------------------------------------------------

    def snapshot(self):
        """An immutable, consistently-pinned read view of the database
        (:class:`~repro.serve.Snapshot`): the catalog and result registry
        as of this instant, with their epochs.  Reads against it never
        see later writes.  See :mod:`repro.serve`."""
        from .serve import Snapshot

        return Snapshot.capture(self)

    def serve(self, readers: int = 4, options: Optional[ExecOptions] = None):
        """Start a concurrent serving front
        (:class:`~repro.serve.DatabaseServer`): ``readers`` pooled reader
        threads executing against pinned snapshots, plus one writer
        thread applying mutations and publishing new snapshots, with
        WAL group-commit batching when the database is durable."""
        from .serve import DatabaseServer

        return DatabaseServer(self, readers=readers, options=options)

    def explain(self, statement: str) -> str:
        """The logical plan a SQL statement binds to, as an ASCII tree."""
        return self.parse(statement).describe()

    # -- internals ---------------------------------------------------------------

    def _execute_plan(
        self,
        plan: LogicalPlan,
        options: ExecOptions,
        params: Optional[dict],
        rewrites: Optional[RewriteIndex] = None,
        cache: Optional[LineageResolutionCache] = None,
        statement: Optional[str] = None,
    ) -> QueryResult:
        """The one execution funnel: plain calls, prepared runs, and
        session statements all end here.  ``rewrites`` / ``cache`` are
        the prepared-statement fast-path handles threaded through to the
        executors; ``statement`` is the SQL source text (when there is
        one), kept on the result so a durable registry can log and
        re-execute it."""
        if options.name is not None:
            # Validate up front: a bad name must not discard a finished
            # (possibly expensive) execution.
            _check_result_name(options.name)
        executor = (
            self._vector if options.backend == "vector" else self._compiled_executor()
        )
        result = executor.execute(
            plan,
            options.config,
            params,
            late_materialize=options.late_materialize,
            rewrites=rewrites,
            lineage_cache=cache,
        )
        query_result = QueryResult(
            self, plan, result, statement=statement, options=options
        )
        if options.name is not None:
            self.register_result(options.name, query_result, pin=options.pin)
        return query_result

    def _compiled_executor(self):
        if self._compiled is None:
            from .exec.compiled.executor import CompiledExecutor

            self._compiled = CompiledExecutor(self.catalog, results=self._results)
        return self._compiled


def _check_result_name(name: str) -> None:
    from .sql.lexer import is_safe_identifier

    if not is_safe_identifier(name):
        raise PlanError(
            f"result name {name!r} is not a plain SQL identifier "
            "(or is a keyword); lineage-consuming SQL could not "
            "reference it"
        )
