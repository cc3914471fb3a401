"""Public entry point: the :class:`Database` facade and its session layer.

A :class:`Database` owns a catalog of named in-memory tables and executes
logical plans (or SQL) with lineage capture configured per query.  Query
results are :class:`QueryResult` objects bundling the output table, the
lineage handle, and helpers for running *lineage consuming queries* —
queries whose input relation is the backward (or forward) lineage of a
previous result (paper Section 2.1).

Every statement runs on one executor, the vectorized engine
(:mod:`repro.exec.vector`).  The compiled produce/consume engine
(:mod:`repro.exec.compiled`) is a test-only reference: it materializes
every subtree, and the test suites check this executor's rows and
lineage against it.

Execution options
-----------------
How a statement runs is described by one value, :class:`ExecOptions` —
capture configuration, result registration (``name`` / ``pin``), and the
late-materialization toggle:

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

The :class:`Database` owns one :class:`StatementMemo`, in which
``Database.sql`` memoizes prepared statements by normalized text, and one
:class:`~repro.lineage.cache.LineageResolutionCache`; a :class:`Session`
(default options) and :class:`~repro.serve.DatabaseServer` read through
both:

>>> sess = db.session(options=ExecOptions(capture=CaptureMode.INJECT))
>>> sess.sql("SELECT a, COUNT(*) AS c FROM Lb(v, 't', :bars) GROUP BY a",
...          params={"bars": bars})    # auto-prepared, memoized by text

Capture-off brushes over a GROUP BY view, alone or joined to plain
tables, skip rid resolution altogether: each keeps a per-bar memo in
that cache (:func:`repro.exec.late_mat.execute_pushed`) and merges the
brushed bars' partial answers.  Every other lineage-consuming statement
resolves its rids from the view's index on each run, as the paper's
lineage queries do.  ``Database.sql`` also
re-prepares transparently when a table a memoized plan scans is replaced
(:class:`~repro.errors.StaleBindingError`).  Raw plans
(``Database.execute``) run uncached.

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
subset; omitted, every row is traced.  Both join and aggregate like any
other relation, and are themselves captured, so lineage chains across
interactive sessions.  A cascade (the drill-downs of paper Section 6.4)
is a registered statement over ``Lb``: its captured lineage traces
straight to the base relation, and the next level reads it in turn:

>>> db.sql("SELECT d, COUNT(*) AS c FROM Lb(prev, 't', :bars) GROUP BY d",
...        params={"bars": [0]},
...        options=ExecOptions(capture=CaptureMode.INJECT, name="drill"))
>>> db.sql("SELECT * FROM Lb(drill, 't', 0)")    # rows of t behind bar 0

Double-quoted identifiers (``"year"``, ``"my col"``, ``"a""b"`` for a
name holding a quote) name any column or relation, keywords included;
generated SQL quotes every name it interpolates
(:func:`repro.sql.lexer.quote_identifier`).

Registered results stay in memory until dropped.
``Database(max_result_bytes=B)`` budgets the bytes held by the unpinned
results' lineage indexes (measured by
:meth:`~repro.lineage.capture.QueryLineage.memory_bytes`): a registration
past it raises :class:`~repro.errors.RegistryFullError` and changes
nothing, so the caller drops something first.  Replacing a *base table*
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
from dataclasses import dataclass, replace as _dc_replace
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterator, Mapping, Optional, Union

import numpy as np

from . import sanitize
from .errors import (
    InvalidArgumentError,
    PlanError,
    RegistryFullError,
    StaleBindingError,
)
from .exec.late_mat import execute_pushed_batch
from .exec.vector.executor import ExecResult, VectorExecutor
from .lineage.cache import LineageResolutionCache, Memo
from .lineage.capture import CaptureConfig, CaptureMode, QueryLineage
from .lineage.recovery import DurabilityManager
from .plan.logical import LineageScan, LogicalPlan, Scan, source_leaves, walk
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
    name:
        Register the result under this name for lineage-consuming SQL
        (``FROM Lb(name, ...)``); re-registering advances the name's
        epoch and retargets every statement that reads it.
    pin:
        Exempt the registered result from the registry's byte budget.
    late_materialize:
        ``False`` disables the lineage-scan push-down rewrite
        (:mod:`repro.plan.rewrite`) — the benchmarks' baseline.

    Every statement runs its kernels serially on the calling thread;
    concurrency lives between statements (``DatabaseServer``'s reader
    pool and writer thread), never inside one.

    Construction (including :meth:`with_`) validates ``capture``, so an
    options value that exists is one every execution path can run.
    """

    capture: Union[CaptureConfig, CaptureMode, None] = None
    name: Optional[str] = None
    pin: bool = False
    late_materialize: bool = True

    def __post_init__(self) -> None:
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


@lru_cache(maxsize=1024)
def normalize_statement(text: str) -> str:
    """The statement-memo key: whitespace runs collapse to one space and
    *keyword* tokens case-fold, so generated SQL with varying layout or
    keyword casing hits the same memo entry as its hand-written
    equivalent.  Everything meaning-bearing stays byte-exact: string
    literals (``WHERE s = 'Foo'`` vs ``'foo'``) and quoted identifiers
    (``"YEAR"`` vs ``"year"``) are copied verbatim, identifiers keep
    their case (the lexer folds keywords only — table
    ``T`` and table ``t`` are different relations), and so do
    ``:parameter`` names, even ones spelled like keywords (``:MAX``).

    A pure function of an immutable string, so its answers are memoized
    (LRU-bounded, like the statement memo: texts that interpolate values
    never grow it without limit): a repeated statement pays one dict
    lookup, not a character scan.
    """
    from .sql.lexer import KEYWORDS, LINEAGE_TABLE_FUNCS, read_quoted

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
        if ch == "'" or ch == '"':
            # Copy string literals and quoted identifiers verbatim,
            # including '' / "" escapes.
            _, end = read_quoted(text, i)
            emit(text[i:end])
            i = end
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
    it came through the SQL layer): WAL ``register`` records persist them
    alongside the payload.  ``plan`` is ``None`` for
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
    """Named prior results under one admission budget.

    A plain mapping from the executors' point of view (``Lb``/``Lf``
    leaves resolve names through ``__getitem__``).  A registered result
    stays until :meth:`drop`.

    ``max_result_bytes`` budgets the bytes held by the *unpinned*
    entries' lineage indexes, measured by
    :meth:`QueryLineage.memory_bytes` (which finalizes deferred entries;
    sizing requires the indexes to exist).  A registration, or an unpin,
    that would take them past it raises
    :class:`~repro.errors.RegistryFullError` before anything is logged or
    changed; the caller drops something and retries.  Re-registering a
    name counts only its new bytes, results with capture off cost 0, and
    ``pin=True`` exempts an entry (app sessions pin their views until
    ``close()``).

    Every registration of a name advances its **epoch**
    (:meth:`epoch`), which checkpoints persist with the entries.

    Durability
    ----------
    With a :class:`~repro.lineage.recovery.DurabilityManager` attached
    (``Database.open``), every mutation is WAL-logged *before* it is
    applied, so acknowledged registrations survive a crash.  Replay
    (``replay=True``) never refuses: a directory reopened with a smaller
    budget serves every acknowledged registration and refuses the next
    unpinned one.
    """

    def __init__(self, max_result_bytes: Optional[int] = None):
        if max_result_bytes is not None and max_result_bytes < 1:
            raise InvalidArgumentError(
                "max_result_bytes must be a positive bound or None, "
                f"got {max_result_bytes}"
            )
        self.max_result_bytes = max_result_bytes
        self._entries: Dict[str, QueryResult] = {}
        self._pinned: set = set()
        self._epochs: Dict[str, int] = {}
        #: Lineage bytes of every entry, kept only under a budget.
        self._bytes: Dict[str, int] = {}
        self._durability: Optional[DurabilityManager] = None
        # Guards the in-memory maps (entries / pins / epochs / bytes) so
        # reader threads resolving names while a writer registers can
        # never observe a half-applied mutation.  Durability logging
        # happens outside any hold — the lock is for memory, not fsync.
        self._lock = threading.Lock()

    # -- Mapping protocol (what executors and the binder consume) ----------

    def __getitem__(self, name: str) -> "QueryResult":
        return self._entries[name]

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def epoch(self, name: str) -> int:
        """Registration epoch of ``name`` (advances on every register,
        including re-registration after a drop); 0 when never seen."""
        return self._epochs.get(name, 0)

    def view(self) -> "Mapping[str, QueryResult]":
        """A consistent, read-only copy of the entries for snapshots,
        taken under the lock so a concurrent registration is either
        wholly in it or absent."""
        with self._lock:
            return MappingProxyType(dict(self._entries))

    # -- durability plumbing -----------------------------------------------

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
        its epoch (the checkpoint's epoch snapshot already counts it) or
        checking the budget."""
        nbytes = self._admit(name, result, exempt=True)
        with self._lock:
            self._install(name, result, pin, nbytes)

    # -- mutation ----------------------------------------------------------

    def register(
        self, name: str, result: "QueryResult", pin: bool = False, replay: bool = False
    ) -> None:
        nbytes = self._admit(name, result, exempt=pin or replay)
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
            self._install(name, result, pin, nbytes)
            self._epochs[name] = self._epochs.get(name, 0) + 1

    def drop(self, name: str) -> None:
        if self._durability is not None and name in self._entries:
            self._durability.log_drop(name)
        with self._lock:
            del self._entries[name]
            self._pinned.discard(name)
            self._bytes.pop(name, None)

    def set_pin(self, name: str, pin: bool, replay: bool = False) -> None:
        """Pin or unpin a live entry (logged when durable); unpinning
        is admitted against the budget like a registration.  A pin that
        changes nothing is neither admitted nor logged."""
        if name not in self._entries:
            raise PlanError(f"unknown result {name!r}")
        if (name in self._pinned) == bool(pin):
            return
        if not pin:
            self._admit(name, self._entries[name], exempt=replay)
        if self._durability is not None:
            self._durability.log_pin(name, pin)
        with self._lock:
            if pin:
                self._pinned.add(name)
            else:
                self._pinned.discard(name)

    def _admit(self, name: str, result: "QueryResult", exempt: bool) -> Optional[int]:
        """``result``'s lineage bytes (``None`` without a budget); raises
        :class:`RegistryFullError` unless ``exempt`` or ``name`` holding
        ``result`` unpinned keeps the unpinned bytes within the budget."""
        if self.max_result_bytes is None:
            return None
        nbytes = _lineage_bytes(result)
        if not exempt:
            self._check_room(name, nbytes, "")
        return nbytes

    def refuse_early(self, name: str, least: int) -> None:
        """Raise :class:`RegistryFullError` now if an unpinned result of
        at least ``least`` lineage bytes under ``name`` is sure to be
        refused, before a statement runs a capture that registration
        would throw away.  :meth:`register` checks the result's own
        bytes."""
        if self.max_result_bytes is not None:
            self._check_room(name, least, "at least ")

    def _check_room(self, name: str, nbytes: int, bound: str) -> None:
        with self._lock:
            held = sum(
                size
                for other, size in self._bytes.items()
                if other != name and other not in self._pinned
            )
        if held + nbytes > self.max_result_bytes:
            raise RegistryFullError(
                f"result {name!r} needs {bound}{nbytes} lineage bytes, but unpinned "
                f"results already hold {held} of the {self.max_result_bytes}-"
                "byte budget; drop a result, or pin this one"
            )

    def _install(
        self, name: str, result: "QueryResult", pin: bool, nbytes: Optional[int]
    ) -> None:
        """Put ``name`` in the maps; the caller holds the lock."""
        self._entries[name] = result
        if pin:
            self._pinned.add(name)
        else:
            self._pinned.discard(name)
        if nbytes is not None:
            self._bytes[name] = nbytes


def _lineage_bytes(result: "QueryResult") -> int:
    lineage = result.lineage
    return int(lineage.memory_bytes()) if lineage is not None else 0


def _least_lineage_bytes(plan: LogicalPlan, config: CaptureConfig, catalog) -> int:
    """A lower bound on the lineage bytes a run of ``plan`` captures: 1
    when it keeps a forward index over a non-empty table — forward
    capture of every relation, and a first source leaf that scans a
    non-empty table (the left input of each set operation, which keeps
    its lineage under EXCEPT), whose forward index has a slot per row —
    and 0 otherwise."""
    if not (config.enabled and config.forward) or config.relations:
        return 0
    leaf = next(source_leaves(plan))
    table = catalog.resolve(leaf.table) if isinstance(leaf, Scan) else None
    return int(table is not None and table.num_rows > 0)


class PreparedQuery:
    """A statement bound once, runnable many times.

    Caches the lex/parse/bind product (the logical plan), its occurrence
    keys and rewrite decisions (:class:`~repro.plan.rewrite.RewriteIndex`)
    and, per pushed subtree answered from a per-bar memo, its **bound
    route** (:func:`repro.exec.late_mat._memo_tables`): valid while the
    result, base and leaf tables it was derived from (with their epochs
    and the catalog names the base resolved against) are the same objects
    in the view a run reads, and rebound whole otherwise.

    Prepared plans freeze the relations they were bound against
    (``catalog``, the live one by default) — binding reads data, not just
    schemas (a join whose build keys are unique binds as pk-fk).  If one
    was dropped or replaced since, ``run`` raises
    :class:`~repro.errors.StaleBindingError` — re-prepare the statement
    (``Database.sql`` does this itself).
    """

    def __init__(
        self,
        database: "Database",
        plan: LogicalPlan,
        options: ExecOptions,
        statement: Optional[str] = None,
        catalog=None,
    ):
        self.database = database
        self.plan = plan
        self.options = options
        self.statement = statement
        self.param_names = plan_param_names(plan)
        self.rewrites: RewriteIndex = precompute_rewrites(plan)
        #: The database's per-bar memo cache, which every run reads
        #: through (so its ``invalidate()`` is database-wide).
        self.lineage_cache = database.lineage_cache
        catalog = catalog if catalog is not None else database.catalog
        nodes = list(walk(plan))
        self._tables = {
            node.table: weakref.ref(catalog.get(node.table))
            for node in nodes if isinstance(node, Scan)
        }
        self._traced = {node.result for node in nodes if isinstance(node, LineageScan)}

    def run(
        self,
        params: Optional[dict] = None,
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """Execute with ``params`` bound into the cached plan.

        ``options`` overrides this statement's options for one run (e.g.
        ``prepared.options.with_(late_materialize=False)``).  Missing
        parameters raise before execution starts.
        """
        opts = options if options is not None else self.options
        return self.database._execute_plan(
            self.plan, opts, params, prepared=self, statement=self.statement
        )

    def check_bound(self, catalog, results) -> None:
        """Raise :class:`~repro.errors.StaleBindingError` unless every
        table the plan scans is still the table it was bound against in
        ``catalog`` and every result it traces is still in ``results`` —
        the view about to run it, which a re-bind would bind against."""
        gone = [
            name for name, table in self._tables.items()
            if name not in catalog or catalog.get(name) is not table()
        ] + [name for name in self._traced if name not in results]
        if gone:
            raise StaleBindingError(
                f"{gone} dropped or replaced since the statement was bound; "
                "re-prepare it"
            )

    def explain(self) -> str:
        """The cached logical plan as an ASCII tree."""
        return self.plan.describe()

    def __repr__(self) -> str:
        label = self.statement if self.statement is not None else type(self.plan).__name__
        return f"PreparedQuery({label!r}, params={sorted(self.param_names)})"


class StatementMemo(Memo):
    """Prepared statements by normalized text (:func:`normalize_statement`):
    the one statement memo a :class:`Database` owns, which
    ``Database.sql``, :class:`Session` and
    :class:`~repro.serve.DatabaseServer` all read through.

    A miss, or a stale entry in :meth:`run`, binds through the ``bind``
    callable the caller passes — ``Database.sql`` binds against the live
    database, the server against the snapshot it is reading — and every
    front runs an entry under its own caller's options.  Threads racing
    one cold statement each bind, but every racer gets the first install
    (:meth:`~repro.lineage.cache.Memo.get`), so they share one plan (and
    so one per-bar memo entry, keyed on the plan).
    """

    #: LRU bound — a caller interpolating values into SQL instead of
    #: using :params would otherwise grow the memo without limit.
    MAX_STATEMENTS = 256

    def __init__(self):
        super().__init__(self.MAX_STATEMENTS)

    def run(self, key: str, bind: Callable[[], PreparedQuery], fn: Callable):
        """``fn(entry)`` for ``key``'s entry; when the entry's binding is
        stale, re-bind it and run ``fn`` once more on the new binding,
        which replaces the entry only if that is still the stale one."""
        stale = self.get(key, bind)
        try:
            return fn(stale)
        except StaleBindingError:
            fresh = bind()
            self.replace(key, stale, fresh)
            return fn(fresh)


class Session:
    """Execution defaults for a group of statements — the unit of
    interactive work (one dashboard, one notebook cell block).

    ``options`` are the session-level :class:`ExecOptions` defaults;
    per-statement ``options=`` arguments override them wholesale (use
    ``session.options.with_(...)`` for field-wise overrides).  Everything
    else belongs to the database: :meth:`sql` and :meth:`prepare` run
    through its one :class:`StatementMemo` and per-bar memo cache, so
    sessions running the same text share one prepared statement and its
    memos, each under its own options.  :meth:`execute` runs a
    raw plan uncached, like :meth:`Database.execute`.
    """

    def __init__(self, database: "Database", options: Optional[ExecOptions] = None):
        self.database = database
        self.options = options if options is not None else ExecOptions()
        #: The database's memo cache (so its ``invalidate()`` is database-wide).
        self.lineage_cache = database.lineage_cache

    def prepare(
        self,
        statement_or_plan: Union[str, LogicalPlan],
        options: Optional[ExecOptions] = None,
    ) -> PreparedQuery:
        """:meth:`Database.prepare` under the session defaults."""
        return self.database.prepare(statement_or_plan, self._options(options))

    def sql(
        self,
        statement: str,
        params: Optional[dict] = None,
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """:meth:`Database.sql` under the session defaults."""
        return self.database.sql(statement, params, self._options(options))

    def execute(
        self,
        plan: LogicalPlan,
        params: Optional[dict] = None,
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """:meth:`Database.execute` under the session defaults."""
        return self.database.execute(plan, params, self._options(options))

    def _options(self, options: Optional[ExecOptions]) -> ExecOptions:
        return options if options is not None else self.options


class Database:
    """An in-memory lineage-enabled database engine.

    ``max_result_bytes`` budgets the lineage bytes of the unpinned named
    prior results (see :class:`ResultRegistry`): a registration past it
    raises :class:`~repro.errors.RegistryFullError`.  ``None`` admits
    every registration.  Nothing registered leaves except by
    :meth:`drop_result`.

    Durability
    ----------
    ``durable_path`` (or the :meth:`open` classmethod) attaches a
    write-ahead log and checkpoint under that directory: every result
    registration, drop and pin change is fsynced to the WAL *before* it
    is acknowledged, and re-opening the same path replays checkpoint +
    WAL so every registered view answers its lineage queries again —
    same rids, same epochs, same stale-rid guards — without recapture.
    A refused registration is never logged.
    """

    def __init__(
        self,
        max_result_bytes: Optional[int] = None,
        durable_path=None,
        failpoints=None,
    ):
        self.catalog = Catalog()
        self._results = ResultRegistry(max_result_bytes)
        #: The one memo cache and statement memo of every front.
        self.lineage_cache = LineageResolutionCache()
        self._statements = StatementMemo()
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
        change so it survives restart.  Unpinning is admitted against the
        byte budget like a registration (:class:`RegistryFullError`)."""
        self._results.set_pin(name, pin)

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
        self, name: str, result: "QueryResult", pin: bool = False
    ) -> None:
        """Register a prior result so SQL can consume its lineage.

        ``FROM Lb(name, 'relation')`` / ``FROM Lf('relation', name)``
        resolve ``name`` against this registry at execution time.
        Re-registering a name replaces the previous result, re-targeting
        any plan that references it and advancing the name's epoch.
        A name is any non-empty string: SQL spells one that is a keyword
        or not an identifier quoted, as in ``Lb("order", 't')``.

        Under ``Database(max_result_bytes=B)``, an unpinned result that
        would take the unpinned results' lineage bytes past ``B`` raises
        :class:`~repro.errors.RegistryFullError` and registers nothing;
        ``pin=True`` exempts this entry from the budget.
        """
        _check_result_name(name)
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
    ) -> PreparedQuery:
        """Bind a statement and return a reusable :class:`PreparedQuery`
        (see the module docstring); unlike :meth:`sql`, every call binds
        afresh."""
        if isinstance(statement_or_plan, str):
            plan, statement = self.parse(statement_or_plan), statement_or_plan
        else:
            plan, statement = statement_or_plan, None
        opts = options if options is not None else ExecOptions()
        return PreparedQuery(self, plan, opts, statement=statement)

    def session(self, options: Optional[ExecOptions] = None) -> Session:
        """Open a :class:`Session`: execution defaults for a group of
        statements that run through this database's memo and cache."""
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
        """Execute a SQL statement (see :mod:`repro.sql`), configured by
        ``options`` as in :meth:`execute`.

        The memoized text path: a text equal under
        :func:`normalize_statement` to one seen before skips
        lex/parse/bind and the rewrite match; a stale binding is
        re-prepared and retried once.  ``options`` and the result's
        ``statement`` text come from this call, never from the memo entry.
        """
        opts = options if options is not None else ExecOptions()
        return self._statements.run(
            normalize_statement(statement),
            lambda: self.prepare(statement),
            lambda p: self._execute_plan(p.plan, opts, params, p, statement),
        )

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
        prepared: Optional[PreparedQuery] = None,
        statement: Optional[str] = None,
    ) -> QueryResult:
        """The live database's execution path: raw plans and prepared
        runs both end here, then in :func:`run_plan`.  ``prepared`` is
        the statement ``plan`` came from (``None`` for a raw plan);
        ``statement`` is the SQL source text (when there is one), kept on
        the result so a durable registry can log it."""
        if options.name is not None:
            # Validate up front: a bad name must not discard a finished
            # (possibly expensive) execution, and neither may a full
            # budget that is certain to refuse the result.
            _check_result_name(options.name)
            if not options.pin:
                least = _least_lineage_bytes(plan, options.config, self.catalog)
                self._results.refuse_early(options.name, least)
        result = run_plan(
            self.catalog, self._results, plan, options, params, prepared
        )
        query_result = QueryResult(
            self, plan, result, statement=statement, options=options
        )
        if options.name is not None:
            self.register_result(options.name, query_result, pin=options.pin)
        return query_result


def run_plan(
    catalog,
    results,
    plan: LogicalPlan,
    options: ExecOptions,
    params: Optional[dict],
    prepared: Optional[PreparedQuery] = None,
) -> ExecResult:
    """Run ``plan`` on the vector executor over one
    ``(catalog, results)`` view — the live database's, or a pinned
    snapshot's.  Executors hold nothing but that view, so one is built
    per call; :meth:`Database._execute_plan` and
    :meth:`~repro.serve.Snapshot.execute_plan` both end here.

    ``prepared`` is the :class:`PreparedQuery` ``plan`` came from: its
    parameters and binding are checked against this view, its rewrite index
    and the database's memo cache ride along, and a root its memo answers
    needs no executor.  A raw plan (``None``) matches rewrites live and runs uncached."""
    rewrites = cache = None
    if prepared is not None:
        require_params(prepared.param_names, params)
        prepared.check_bound(catalog, results)
        rewrites, cache = prepared.rewrites, prepared.lineage_cache
        pushed = rewrites.lookup(plan) if options.late_materialize else None
        answered = pushed and execute_pushed_batch(pushed, catalog, results, options.config,
                                                   [params], cache)
        if answered is not None:
            return answered[0]
    return VectorExecutor(catalog, results=results).execute(
        plan,
        options.config,
        params,
        late_materialize=options.late_materialize,
        rewrites=rewrites,
        lineage_cache=cache,
    )


def _check_result_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise PlanError(f"result name must be a non-empty string, not {name!r}")
