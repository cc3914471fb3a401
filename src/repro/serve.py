"""Snapshot-isolated concurrent serving layer (paper Section 6.5's
"millions of users" half: many readers brushing while refreshes land).

A :class:`Database` is a single-writer object: its catalog and result
registry assume one mutating thread.  This module puts a serving front
on it —

* :class:`Snapshot` — an immutable, consistently-pinned read view: the
  catalog's ``(tables, epochs)`` and the registry's entries copied
  together, plus an answer memo.  Reads against a snapshot never see
  later writes.
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
and each per-bar memo in the database's
:class:`~repro.lineage.cache.LineageResolutionCache` is filed under the
very index and column objects the *snapshot* holds, so memos of old and
new snapshots coexist without poisoning each other.

One read path: the server is a concurrency shell over the database's
own.  Statements are :class:`~repro.api.PreparedQuery` objects in the
database's :class:`~repro.api.StatementMemo` (a miss binds against the
snapshot being read), and every execution ends in
:func:`repro.api.run_plan`, the funnel the live database uses too.

What a reader may never observe: a half-applied write, a table paired
with another epoch's result entry, a memo filled from another snapshot's
lineage or columns, or an acknowledged write that the WAL does not
hold.  Within a group-commit batch, a *snapshot* may expose an
operation whose WAL record fsyncs at batch exit — the submitting writer
is only acknowledged (its future resolved) after the fsync, so the
durability contract is kept at the acknowledgement boundary.
"""

from __future__ import annotations

import itertools
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

from .api import (
    ExecOptions,
    PreparedQuery,
    QueryResult,
    normalize_statement,
    require_params,
    run_plan,
)
from .errors import CatalogError, ServingError, StaleBindingError
from .lineage.cache import param_fingerprint
from .plan.logical import LogicalPlan
from .storage.table import Table


class CatalogSnapshot:
    """Immutable name→table view pinned at one serving version.

    Duck-types the read surface of :class:`~repro.storage.catalog
    .Catalog` (``get`` / ``get_versioned`` / ``epoch`` / ``column_stats``
    / containment / iteration) so binder and executors run against it
    unchanged.  Column statistics delegate to the live catalog's
    epoch-pinned memo — stats are keyed ``(name, epoch, column)`` and
    hit only for the very table they were computed over, so a
    snapshot's lookups are filed under *its* epoch and table even after
    the live catalog moves on.
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

    def column_stats(self, name: str, column: str):
        table, epoch = self.get_versioned(name)
        return self._stats_source.stats_for(name, table, epoch, column)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def names(self):
        return sorted(self._tables)


class RegistrySnapshot(Mapping):
    """Immutable name→result view pinned at one serving version.

    A plain mapping from the executors' point of view: the entries the
    live registry held when the snapshot was taken, and nothing else.
    """

    def __init__(self, entries: Dict[str, object]):
        self._entries = entries

    def __getitem__(self, name: str):
        return self._entries[name]

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class Snapshot:
    """One immutable, consistently-pinned read view of a database.

    ``version`` is the serving version that published this view (the
    count of write operations applied when it was taken).  Execution
    goes through :func:`repro.api.run_plan` over this view's catalog and
    registry; ``sql`` runs a raw plan, uncached.  Reads are strictly
    read-only: registration (``options.name``) raises
    :class:`ServingError`.

    The per-snapshot **answer memo** caches whole ``QueryResult`` objects
    by ``(normalized statement text, params, options)``.  Results are
    immutable, so handing the same object to every reader asking the same
    question on the same snapshot is sound — and it is what lets brush throughput
    *scale* with readers even on one core: within one epoch window, N
    readers asking overlapping questions pay the resolution once.
    """

    def __init__(
        self,
        database,
        version: int,
        catalog: CatalogSnapshot,
        results: RegistrySnapshot,
        default_options=None,
    ):
        self._database = database
        self.version = version
        self.catalog = catalog
        self.results = results
        self._default_options = default_options
        self._lock = threading.Lock()
        self._answers: Dict[object, object] = {}

    @classmethod
    def capture(
        cls,
        database,
        version: int = 0,
        default_options=None,
    ) -> "Snapshot":
        """Pin the database's current state: both state copies are taken
        under the owners' locks, catalog first — the writer protocol
        (registry mutations follow their catalog mutations within one
        operation, and concurrent writes are serialized by the writer
        thread) keeps the pair mutually consistent."""
        tables, cat_epochs = database.catalog.snapshot_state()
        entries = database._results.snapshot_state()
        return cls(
            database,
            version,
            CatalogSnapshot(tables, cat_epochs, database.catalog),
            RegistrySnapshot(entries),
            default_options=default_options,
        )

    # -- execution ---------------------------------------------------------

    def sql(self, statement: str, params: Optional[dict] = None, options=None):
        """Parse, bind, and execute one read statement against this
        pinned view (one-shot and uncached; the server adds the statement
        memo, the per-bar memo and answer memoization on top)."""
        return self.execute_plan(self.parse(statement), params, options)

    def parse(self, statement: str) -> LogicalPlan:
        """Parse + bind a SQL statement against this pinned view."""
        from .sql import parse_sql

        return parse_sql(statement, self.catalog, self.results)

    def execute_plan(
        self,
        plan: LogicalPlan,
        params: Optional[dict] = None,
        options=None,
        prepared: Optional[PreparedQuery] = None,
    ):
        """Execute a bound plan against this pinned view; ``prepared``
        as in :func:`repro.api.run_plan`."""
        opts = options or self._default_options or ExecOptions()
        _check_read_only(opts)
        result = run_plan(self.catalog, self.results, plan, opts, params, prepared)
        return QueryResult(self._database, plan, result, options=opts)

    # -- answer memo -------------------------------------------------------

    def cached_answer(self, key: object):
        with self._lock:
            return self._answers.get(key)

    def remember_answer(self, key: object, result) -> None:
        with self._lock:
            self._answers.setdefault(key, result)

    def __repr__(self) -> str:
        return (
            f"Snapshot(version={self.version}, tables={len(self.catalog._tables)}, "
            f"results={len(self.results)})"
        )


def _check_read_only(opts: ExecOptions) -> None:
    if opts.name is not None:
        raise ServingError(
            f"cannot register result {opts.name!r} through a snapshot: "
            "snapshot reads are read-only; submit the statement "
            "through DatabaseServer.write instead"
        )


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
        if readers < 1:
            raise ServingError(f"readers must be positive, got {readers}")
        self._db = database
        self.readers = int(readers)
        self._options = options if options is not None else ExecOptions()
        self._memoize_answers = bool(memoize_answers)
        # sql_batch calls by route (guarded by _stats_lock).
        self._stats_lock = threading.Lock()
        self._batch_coalesced = 0
        self._batch_fallback = 0
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
        ``snapshot`` (latest if omitted), through the database's
        statement memo and the snapshot's answer memo."""
        snap = snapshot if snapshot is not None else self._snapshot
        opts = options if options is not None else self._options
        return self._sql(normalize_statement(statement), statement, params, opts, snap)

    def _sql(self, key: str, statement: str, params, opts, snap: Snapshot):
        # Before the answer memo, whose key leaves the name out.
        _check_read_only(opts)
        statements, bind = self._db._statements, lambda: self._bind(statement, snap)
        statements.get(key, bind)  # an answer hit is a use of the statement too
        answer_key = None
        if self._memoize_answers:
            answer_key = (
                key,
                param_fingerprint(params),
                opts.late_materialize,
                repr(opts.capture),
            )
            cached = snap.cached_answer(answer_key)
            if cached is not None:
                return cached
        result = statements.run(
            key, bind, lambda p: snap.execute_plan(p.plan, params, opts, p)
        )
        if answer_key is not None and len(snap._answers) < self.MAX_ANSWERS:
            snap.remember_answer(answer_key, result)
        return result

    def _bind(self, statement: str, snap: Snapshot) -> PreparedQuery:
        """The statement memo's bind step: bind against ``snap``, the
        snapshot being read (a stale entry re-binds the same way)."""
        return PreparedQuery(
            self._db, snap.parse(statement), self._options,
            statement=statement, catalog=snap.catalog,
        )

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

        When the prepared plan is a pushed lineage subtree the per-bar
        memo answers (see :func:`~repro.exec.late_mat.execute_pushed`) —
        a core with exactly one lineage leaf, alone or joined to plain
        catalog scans — the bindings agree on every parameter except that
        leaf's rid subset (equal in type and value, as the memo keys them:
        :func:`~repro.exec.late_mat.shared_fingerprint`), and the view's
        backward index is a partition, the N brushes coalesce
        (:func:`~repro.exec.late_mat.execute_pushed_batch`): the route
        check and the memo lookup run once, then each binding is one merge of
        its bars' memoized partials, its ``late_mat_*`` counters those of
        a per-binding run.  Anything else falls back to per-binding
        :meth:`sql` — the batch form is an optimization, never a semantic
        change: answers are bit-identical to the per-binding loop.
        :meth:`stats` counts which route each call took.
        """
        snap = snapshot if snapshot is not None else self._snapshot
        opts = options if options is not None else self._options
        params_list = list(params_list)
        if not params_list:
            return []
        key = normalize_statement(statement)
        results = self._try_execute_batch(key, statement, params_list, opts, snap)
        with self._stats_lock:
            if results is None:
                self._batch_fallback += 1
            else:
                self._batch_coalesced += 1
        if results is None:
            results = [
                self._sql(key, statement, params, opts, snap) for params in params_list
            ]
        return results

    def _try_execute_batch(self, key, statement, params_list, opts, snap):
        """The coalesced path of :meth:`sql_batch`, or ``None`` when the
        statement/bindings are not batch-eligible (caller falls back)."""
        from .exec.late_mat import execute_pushed_batch, shared_fingerprint
        from .expr.ast import Param

        if opts.name is not None or not opts.late_materialize:
            return None
        if len(params_list) < 2:
            return None
        prepared = self._db._statements.get(key, lambda: self._bind(statement, snap))
        pushed = prepared.rewrites.lookup(prepared.plan)
        shape = None if pushed is None else pushed.memo
        if shape is None or not isinstance(shape.scan.rids, Param):
            return None
        scan = shape.scan
        # One memo serves the batch: every binding must key it alike.
        shared = shared_fingerprint(scan, params_list[0])
        if any(shared_fingerprint(scan, p) != shared for p in params_list[1:]):
            return None
        for params in params_list:
            require_params(prepared.param_names, params)
        try:
            prepared.check_bound(snap.catalog, snap.results)
            answered = execute_pushed_batch(
                pushed, snap.catalog, snap.results, opts.config,
                params_list, prepared.lineage_cache,
            )
        except StaleBindingError:
            # Let the per-binding fallback re-bind and retry.
            return None
        if answered is None:
            return None
        return [QueryResult(self._db, prepared.plan, r, options=opts) for r in answered]

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
        outcomes = []
        try:
            # The commit is entered inside the try: a barrier that fails on
            # entry (closed WAL) fails this batch's futures, and the writer
            # thread lives on to fail later batches the same way.
            with self._write_lock, (
                durability.group_commit() if durability is not None else nullcontext()
            ):
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
            # The commit barrier itself failed (on entry, on fsync, or by
            # injected fault): nothing in this batch is acknowledged as
            # durable.
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
            self._db, version=version, default_options=self._options
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
        """Serving counters (for benchmarks and tests).

        ``batch_coalesced`` / ``batch_fallback`` count :meth:`sql_batch`
        calls answered by the per-bar memo and by the per-binding loop;
        ``prepared`` and ``lineage_cache`` describe the database's
        statement memo and per-bar memo cache, which every front shares;
        ``lineage_cache`` includes the memo's ``bar_fills`` /
        ``bar_reuses`` and the memo entries ``revalidated`` across a
        re-registration that left the view's lineage bit-equal."""
        return {
            "version": self._snapshot.version,
            "prepared": len(self._db._statements),
            "lineage_cache": self._db.lineage_cache.stats(),
            "batch_coalesced": self._batch_coalesced,
            "batch_fallback": self._batch_fallback,
        }
