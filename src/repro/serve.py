"""Snapshot-isolated concurrent serving layer (paper Section 6.5's
"millions of users" half: many readers brushing while refreshes land).

A :class:`Database` is a single-caller object: its catalog, result
registry, and caches assume one thread.  This module puts a serving
front on it —

* :class:`Snapshot` — an immutable, consistently-pinned read view: the
  catalog's ``(tables, epochs)`` and the registry's ``(entries,
  epochs)`` copied together, plus per-snapshot executors and an answer
  memo.  Reads against a snapshot never see later writes.
* :class:`DatabaseServer` — N pooled reader threads executing statements
  against pinned snapshots, and **one** writer thread applying queued
  mutations in submission order.  After each applied operation the
  writer publishes a fresh snapshot; a drained batch of operations
  commits under one :meth:`~repro.lineage.wal.WriteAheadLog
  .group_commit` block, so a burst of registrations pays a single fsync.

The isolation argument rests on immutability all the way down: tables
are never mutated in place (refreshes install *new* ``Table`` objects),
``QueryResult`` entries are frozen at registration, and the snapshot
copies the name→object maps under the owners' locks.  A reader holding
snapshot ``v`` therefore computes on exactly the state published as
``v`` — a brush racing a refresh returns the pre- or post-epoch answer
bit-identically, never a mix.

Readers never block on writers: snapshot acquisition is a single
attribute read of the latest published :class:`Snapshot` (atomic under
the GIL), statement execution happens entirely against the pinned view,
and the shared :class:`~repro.lineage.cache.LineageResolutionCache` is
keyed by the *snapshot's* registry epochs (threaded through
``resolve_scan_source``), so old-epoch and new-epoch resolutions coexist
without poisoning each other.

What a reader may never observe: a half-applied write, a table paired
with another epoch's result entry, a rid set resolved against a
different snapshot's registry epoch, or an acknowledged write that the
WAL does not hold.  Within a group-commit batch, a *snapshot* may expose
an operation whose WAL record fsyncs at batch exit — the submitting
writer is only acknowledged (its future resolved) after the fsync, so
the durability contract is kept at the acknowledgement boundary.
"""

from __future__ import annotations

import itertools
import queue
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from .errors import CatalogError, ServingError, StaleBindingError
from .lineage.cache import LineageResolutionCache
from .plan.logical import LogicalPlan
from .plan.rewrite import RewriteIndex, precompute_rewrites
from .storage.table import Table


class CatalogSnapshot:
    """Immutable name→table view pinned at one serving version.

    Duck-types the read surface of :class:`~repro.storage.catalog
    .Catalog` (``get`` / ``get_versioned`` / ``epoch`` / ``column_stats``
    / containment / iteration) so binder and executors run against it
    unchanged.  Column statistics delegate to the live catalog's
    epoch-pinned memo — stats are keyed ``(name, epoch, column)``, so a
    snapshot's lookups are filed under *its* epoch even after the live
    catalog moves on.
    """

    def __init__(
        self,
        tables: Dict[str, Table],
        epochs: Dict[str, int],
        stats_source,
    ):
        self._tables = tables
        self._epochs = epochs
        self._stats_source = stats_source

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; known: {sorted(self._tables)}"
            ) from None

    def get_versioned(self, name: str) -> Tuple[Table, int]:
        return self.get(name), self.epoch(name)

    def epoch(self, name: str) -> int:
        return self._epochs.get(name, 0)

    def epochs_snapshot(self) -> Dict[str, int]:
        return dict(self._epochs)

    def column_stats(self, name: str, column: str):
        table, epoch = self.get_versioned(name)
        return self._stats_source.stats_for(name, table, epoch, column)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def names(self):
        return sorted(self._tables)

    def resolve(self, name: str, default: Optional[Table] = None):
        return self._tables.get(name, default)


class RegistrySnapshot(Mapping):
    """Immutable name→result view pinned at one serving version.

    A plain mapping from the executors' point of view, plus the
    ``epoch(name)`` accessor the lineage rid-resolution cache keys by.
    No LRU touch on lookup (the live registry owns recency), and no
    evicted-stub refresh: re-executing a stub is a *write*, so snapshot
    readers treat evicted names as unknown.
    """

    def __init__(self, entries: Dict[str, object], epochs: Dict[str, int]):
        self._entries = entries
        self._epochs = epochs

    def __getitem__(self, name: str):
        return self._entries[name]

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def epoch(self, name: str) -> int:
        return self._epochs.get(name, 0)


class Snapshot:
    """One immutable, consistently-pinned read view of a database.

    ``version`` is the serving version that published this view (the
    count of write operations applied when it was taken).  Executors are
    built lazily per snapshot — they are stateless across runs, holding
    only the catalog/registry references, so per-snapshot instances cost
    nothing and pin the right view.  ``sql`` is strictly read-only:
    registration (``options.name``) raises :class:`ServingError`.

    The per-snapshot **answer memo** caches whole ``QueryResult`` objects
    by ``(plan identity, params, options)``.  Results are immutable, so
    handing the same object to every reader asking the same question on
    the same snapshot is sound — and it is what lets brush throughput
    *scale* with readers even on one core: within one epoch window, N
    readers asking overlapping questions pay the resolution once.
    """

    def __init__(
        self,
        database,
        version: int,
        catalog: CatalogSnapshot,
        results: RegistrySnapshot,
        lineage_cache: Optional[LineageResolutionCache] = None,
        default_options=None,
    ):
        self._database = database
        self.version = version
        self.catalog = catalog
        self.results = results
        self.lineage_cache = (
            lineage_cache
            if lineage_cache is not None
            else LineageResolutionCache(results)
        )
        self._default_options = default_options
        self._lock = threading.Lock()
        self._executors: Dict[str, object] = {}
        self._answers: Dict[object, object] = {}

    @classmethod
    def capture(
        cls,
        database,
        version: int = 0,
        lineage_cache: Optional[LineageResolutionCache] = None,
        default_options=None,
    ) -> "Snapshot":
        """Pin the database's current state: both state copies are taken
        under the owners' locks, catalog first — the writer protocol
        (registry mutations follow their catalog mutations within one
        operation, and concurrent writes are serialized by the writer
        thread) keeps the pair mutually consistent."""
        tables, cat_epochs = database.catalog.snapshot_state()
        entries, reg_epochs = database._results.snapshot_state()
        return cls(
            database,
            version,
            CatalogSnapshot(tables, cat_epochs, database.catalog),
            RegistrySnapshot(entries, reg_epochs),
            lineage_cache=lineage_cache,
            default_options=default_options,
        )

    # -- execution ---------------------------------------------------------

    def sql(self, statement: str, params: Optional[dict] = None, options=None):
        """Parse, bind, and execute one read statement against this
        pinned view (one-shot; the server adds prepared-plan and answer
        memoization on top)."""
        from .sql import parse_sql

        plan = parse_sql(statement, self.catalog, self.results)
        return self.execute_plan(plan, params, options)

    def execute_plan(
        self,
        plan: LogicalPlan,
        params: Optional[dict] = None,
        options=None,
        rewrites: Optional[RewriteIndex] = None,
    ):
        """Execute a bound plan against this pinned view."""
        from .api import ExecOptions, QueryResult

        opts = options or self._default_options or ExecOptions()
        if opts.name is not None:
            raise ServingError(
                f"cannot register result {opts.name!r} through a snapshot: "
                "snapshot reads are read-only; submit the statement "
                "through DatabaseServer.write instead"
            )
        executor = self._executor(opts.backend)
        result = executor.execute(
            plan,
            opts.config,
            params,
            late_materialize=opts.late_materialize,
            rewrites=rewrites,
            lineage_cache=self.lineage_cache,
        )
        return QueryResult(self._database, plan, result, options=opts)

    def _executor(self, backend: str):
        with self._lock:
            executor = self._executors.get(backend)
        if executor is None:
            if backend == "vector":
                from .exec.vector.executor import VectorExecutor

                executor = VectorExecutor(self.catalog, results=self.results)
            else:
                from .exec.compiled.executor import CompiledExecutor

                executor = CompiledExecutor(self.catalog, results=self.results)
            with self._lock:
                executor = self._executors.setdefault(backend, executor)
        return executor

    # -- answer memo -------------------------------------------------------

    def cached_answer(self, key: object):
        with self._lock:
            return self._answers.get(key)

    def store_answer(self, key: object, result) -> None:
        with self._lock:
            self._answers.setdefault(key, result)

    def __repr__(self) -> str:
        return (
            f"Snapshot(version={self.version}, tables={len(self.catalog._tables)}, "
            f"results={len(self.results)})"
        )


class _Prepared:
    """One server-prepared statement: the bound plan, its rewrite index,
    and its parameter names, shared by every reader and snapshot (plans
    are immutable; stale frozen schemas raise and trigger a re-bind)."""

    __slots__ = ("plan", "rewrites", "param_names", "key")

    def __init__(self, plan: LogicalPlan, key: str):
        from .api import plan_param_names

        self.plan = plan
        self.rewrites = precompute_rewrites(plan)
        self.param_names = plan_param_names(plan)
        self.key = key


def _param_fingerprint(params: Optional[dict]) -> Optional[tuple]:
    """Hashable fingerprint of a parameter binding, or ``None`` when the
    binding resists fingerprinting (then the answer memo is skipped —
    correctness never depends on memoization)."""
    if not params:
        return ()
    items = []
    for name in sorted(params):
        value = params[name]
        if isinstance(value, np.ndarray):
            items.append((name, LineageResolutionCache.subset_key(value)))
        elif isinstance(value, (list, tuple)):
            try:
                items.append((name, ("seq",) + tuple(value)))
            except TypeError:
                return None
        else:
            items.append((name, value))
    key = tuple(items)
    try:
        hash(key)
    except TypeError:
        return None
    return key


def _params_shared_except(params_list, free_name: str) -> bool:
    """Whether every binding in ``params_list`` agrees on every parameter
    except ``free_name`` (the lineage scan's rid subset).

    The batched execution path evaluates shared expressions (predicate,
    group-by keys, projections) once, reading non-rid parameters from the
    first binding — sound only when the bindings genuinely agree.  Arrays
    compare by value (``np.array_equal``); anything that resists
    comparison disqualifies the batch (the caller falls back to the
    per-binding loop, so correctness never depends on this check passing).
    """
    first = params_list[0] or {}
    first_keys = set(first) - {free_name}
    for params in params_list[1:]:
        other = params or {}
        if set(other) - {free_name} != first_keys:
            return False
        for name in first_keys:
            a, b = first[name], other[name]
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not np.array_equal(np.asarray(a), np.asarray(b)):
                    return False
            else:
                try:
                    if a != b:
                        return False
                except (TypeError, ValueError):
                    return False
    return True


#: Queue sentinel that stops the writer thread.
_SHUTDOWN = object()


class DatabaseServer:
    """Thread-pool serving front: concurrent snapshot readers, one
    serialized writer, group-committed durability.

    Readers call :meth:`sql` (or :meth:`submit_query` for the pooled
    form) — execution happens against the latest published
    :class:`Snapshot` unless one is passed explicitly (an app pins one
    snapshot across the N per-view statements of a brush so a single
    brush can never straddle an epoch).  Writers submit callables taking
    the database — ``server.write(lambda db: ...)`` — which the writer
    thread applies in order behind the writer lock; each drained batch
    commits under one WAL ``group_commit`` and each applied operation
    publishes a fresh snapshot (``version`` += 1).
    """

    #: Bound on the by-text prepared-plan memo (mirrors Session).
    MAX_STATEMENTS = 256
    #: Bound on per-snapshot memoized answers; mostly relevant for
    #: long-lived explicit snapshots — the rolling latest snapshot is
    #: replaced on every write.
    MAX_ANSWERS = 4096

    def __init__(
        self,
        database,
        readers: int = 4,
        options=None,
        memoize_answers: bool = True,
    ):
        from .api import ExecOptions

        if readers < 1:
            raise ServingError(f"readers must be positive, got {readers}")
        self._db = database
        self.readers = int(readers)
        self._options = options if options is not None else ExecOptions()
        self._memoize_answers = bool(memoize_answers)
        # One rid-resolution cache shared by every snapshot: entries are
        # keyed by the *snapshot* registry epochs (resolve_scan_source
        # threads them through), so readers on different versions hit
        # disjoint entries and a refresh-heavy workload keeps the stable
        # portion warm across epochs.
        self._lineage_cache = LineageResolutionCache(max_entries=2048)
        self._prepared_lock = threading.Lock()
        self._prepared: "OrderedDict[str, _Prepared]" = OrderedDict()
        self._write_lock = threading.Lock()
        self._writes: "queue.SimpleQueue" = queue.SimpleQueue()
        self._version = itertools.count(1)
        self._closed = False
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._snapshot = self._capture(next(self._version))
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-serve-writer", daemon=True
        )
        self._writer.start()

    # -- read path ---------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The latest published snapshot (wait-free: one attribute read)."""
        return self._snapshot

    def sql(
        self,
        statement: str,
        params: Optional[dict] = None,
        options=None,
        snapshot: Optional[Snapshot] = None,
    ):
        """Execute one read statement on the calling thread against
        ``snapshot`` (latest if omitted), through the shared prepared-plan
        memo and the snapshot's answer memo."""
        from .api import require_params

        snap = snapshot if snapshot is not None else self._snapshot
        opts = options if options is not None else self._options
        prepared = self._prepare(statement)
        key = None
        if self._memoize_answers:
            fingerprint = _param_fingerprint(params)
            if fingerprint is not None:
                key = (
                    prepared.key,
                    fingerprint,
                    opts.backend,
                    opts.late_materialize,
                    repr(opts.capture),
                )
                cached = snap.cached_answer(key)
                if cached is not None:
                    return cached
        require_params(prepared.param_names, params)
        try:
            result = snap.execute_plan(
                prepared.plan, params, opts, rewrites=prepared.rewrites
            )
        except StaleBindingError:
            # A referenced result/table changed shape since the plan was
            # bound.  Re-bind against the snapshot actually being read
            # and retry once.
            prepared = self._prepare(statement, snapshot=snap, rebind=True)
            result = snap.execute_plan(
                prepared.plan, params, opts, rewrites=prepared.rewrites
            )
        if key is not None and len(snap._answers) < self.MAX_ANSWERS:
            snap.store_answer(key, result)
        return result

    def sql_batch(
        self,
        statement: str,
        params_list,
        options=None,
        snapshot: Optional[Snapshot] = None,
    ):
        """Execute one read statement for N parameter bindings against a
        single pinned snapshot, returning one :class:`QueryResult` per
        binding (in submission order).

        When the prepared plan is the crossfilter re-aggregation shape
        (a batchable pushed lineage subtree — see
        :func:`~repro.exec.late_mat.batchable_pushed`) and the bindings
        agree on every parameter except the lineage scan's rid subset,
        the N resolutions coalesce into **one** CSR backward pass and one
        shared position-domain execution (predicate, gather, key
        evaluation, factorization run once over the union of rid sets;
        per-binding answers fall out of selection vectors).  Anything
        else falls back to per-binding :meth:`sql` — the batch form is an
        optimization, never a semantic change: answers are bit-identical
        to the per-binding loop.
        """
        snap = snapshot if snapshot is not None else self._snapshot
        opts = options if options is not None else self._options
        params_list = list(params_list)
        if not params_list:
            return []
        results = self._try_execute_batch(statement, params_list, opts, snap)
        if results is not None:
            return results
        return [
            self.sql(statement, params, opts, snap) for params in params_list
        ]

    def _try_execute_batch(self, statement, params_list, opts, snap):
        """The coalesced path of :meth:`sql_batch`, or ``None`` when the
        statement/bindings are not batch-eligible (caller falls back)."""
        from time import perf_counter

        from .api import QueryResult, require_params
        from .exec.late_mat import batchable_pushed, execute_pushed_batch
        from .exec.timings import EXECUTE, LATE_MAT_SUBTREES
        from .exec.vector.executor import ExecResult
        from .expr.ast import Param

        if opts.name is not None or not opts.late_materialize:
            return None
        if len(params_list) < 2:
            return None
        prepared = self._prepare(statement)
        pushed = prepared.rewrites.lookup(prepared.plan)
        if pushed is None:
            return None
        if not batchable_pushed(pushed, opts.config):
            return None
        rid_param = pushed.scan.rids
        assert isinstance(rid_param, Param)  # guaranteed by batchable_pushed
        if not _params_shared_except(params_list, rid_param.name):
            return None
        for params in params_list:
            require_params(prepared.param_names, params)
        start = perf_counter()
        try:
            tables = execute_pushed_batch(
                pushed,
                snap.catalog,
                snap.results,
                params_list,
                lineage_cache=snap.lineage_cache,
            )
        except StaleBindingError:
            # Let the per-binding fallback re-bind and retry.
            return None
        elapsed = perf_counter() - start
        return [
            QueryResult(
                self._db,
                prepared.plan,
                ExecResult(table, None, {EXECUTE: elapsed, LATE_MAT_SUBTREES: 1.0}),
                options=opts,
            )
            for table in tables
        ]

    def submit_query(
        self,
        statement: str,
        params: Optional[dict] = None,
        options=None,
        snapshot: Optional[Snapshot] = None,
    ) -> Future:
        """Pooled form of :meth:`sql`: run on one of the server's
        ``readers`` threads, returning a future.

        The closed check and the pool submission happen under one
        ``_pool_lock`` acquisition: a bare ``self._closed`` test followed
        by an unlocked ``pool.submit`` races :meth:`close` — the pool can
        shut down between check and submit, and the caller would see the
        executor's ``RuntimeError("cannot schedule new futures after
        shutdown")`` instead of :class:`ServingError`.
        """
        with self._pool_lock:
            if self._closed:
                raise ServingError("server is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.readers,
                    thread_name_prefix="repro-serve-reader",
                )
            return self._pool.submit(
                self.sql, statement, params, options, snapshot
            )

    def _prepare(
        self,
        statement: str,
        snapshot: Optional[Snapshot] = None,
        rebind: bool = False,
    ) -> _Prepared:
        from .api import normalize_statement
        from .sql import parse_sql

        key = normalize_statement(statement)
        if not rebind:
            with self._prepared_lock:
                prepared = self._prepared.get(key)
                if prepared is not None:
                    self._prepared.move_to_end(key)
                    return prepared
        snap = snapshot if snapshot is not None else self._snapshot
        prepared = _Prepared(parse_sql(statement, snap.catalog, snap.results), key)
        with self._prepared_lock:
            self._prepared[key] = prepared
            self._prepared.move_to_end(key)
            while len(self._prepared) > self.MAX_STATEMENTS:
                self._prepared.popitem(last=False)
        return prepared

    # -- write path --------------------------------------------------------

    def submit_write(self, fn: Callable[[object], object]) -> Future:
        """Queue one mutation — a callable taking the :class:`Database` —
        for the writer thread; the returned future resolves to the
        callable's return value *after* the batch's WAL fsync."""
        # Check-and-enqueue under the pool lock (shared with close()):
        # otherwise a write submitted between close()'s flag flip and its
        # _SHUTDOWN enqueue lands behind the sentinel and its future
        # never resolves.
        with self._pool_lock:
            if self._closed:
                raise ServingError("server is closed")
            future: Future = Future()
            self._writes.put((future, fn))
        return future

    def write(self, fn: Callable[[object], object]):
        """Synchronous :meth:`submit_write` (waits for the commit)."""
        return self.submit_write(fn).result()

    def register_result(self, name: str, result, pin: bool = False) -> None:
        """Register a prior result through the write path."""
        self.write(lambda db: db.register_result(name, result, pin=pin))

    def sql_write(self, statement: str, params: Optional[dict] = None, options=None):
        """Run a mutating statement (e.g. one that registers its result
        via ``options.name``) through the write path."""
        return self.write(
            lambda db: db.sql(statement, params=params, options=options)
        )

    def _writer_loop(self) -> None:
        while True:
            item = self._writes.get()
            if item is _SHUTDOWN:
                break
            batch = [item]
            stop = False
            while True:
                try:
                    extra = self._writes.get_nowait()
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    stop = True
                    break
                batch.append(extra)
            self._apply_batch(batch)
            if stop:
                break

    def _apply_batch(self, batch) -> None:
        durability = self._db.durability
        commit = durability.group_commit() if durability is not None else nullcontext()
        outcomes = []
        try:
            with self._write_lock:
                with commit:
                    for future, fn in batch:
                        if not future.set_running_or_notify_cancel():
                            continue
                        try:
                            value = fn(self._db)
                        except BaseException as exc:  # delivered via future
                            outcomes.append((future, False, exc))
                        else:
                            outcomes.append((future, True, value))
                        # One published snapshot per applied operation:
                        # version numbers count operations, which is what
                        # the isolation property checks against.
                        self._snapshot = self._capture(next(self._version))
        except BaseException as exc:
            # The commit barrier itself failed (fsync error, injected
            # fault): nothing in this batch is acknowledged as durable.
            for future, _ok, _value in outcomes:
                if not future.done():
                    future.set_exception(exc)
            for future, fn in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        # Acknowledge only after the group fsync: log-before-acknowledge
        # holds for the batch as a unit.
        for future, ok, value in outcomes:
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)

    def _capture(self, version: int) -> Snapshot:
        return Snapshot.capture(
            self._db,
            version=version,
            lineage_cache=self._lineage_cache,
            default_options=self._options,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain queued writes, stop the writer thread, and shut the
        reader pool down.  Idempotent.

        The closed flag flips and the pool handle is detached under
        ``_pool_lock``, so every :meth:`submit_query` /
        :meth:`submit_write` call either completes before the flip (its
        future is honoured: queued writes drain, pooled reads run to
        completion under ``shutdown(wait=True)``) or observes the flag
        and raises :class:`ServingError`.  The blocking work — writer
        join, pool shutdown — happens outside the lock.
        """
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        self._writes.put(_SHUTDOWN)
        self._writer.join()
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "DatabaseServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Serving counters (for benchmarks and tests)."""
        return {
            "version": self._snapshot.version,
            "prepared": len(self._prepared),
            "lineage_cache": self._lineage_cache.stats(),
        }
