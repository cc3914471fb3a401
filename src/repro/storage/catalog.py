"""Database catalog: named base relations, views, and their statistics.

The catalog is deliberately small — Smoke is an analytical engine operating
on immutable in-memory relations — but it is the anchor that lineage
queries trace *to*: a backward query names a base relation registered here.

Relation epochs
---------------
Captured lineage stores *positions* (rids) into the base relations as they
were at capture time.  Replacing a table invalidates those positions even
when the new table has the same schema and cardinality, so the catalog
tracks a per-name **epoch** that advances on every replacement.  Lineage
handles record the epoch at capture and consumers (``Lb`` scans,
``backward_table``) compare it against the live epoch, turning silent
stale-rid answers into errors.  ``preserve_rids=True`` opts a replacement
out of the bump — the contract that rows were updated *in place* (same
positions, same identity), which is exactly what
:class:`~repro.lineage.refresh.AggregateRefresher` does.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional, Tuple

from .. import sanitize
from ..errors import CatalogError, SchemaError
from ..substrate.stats import ColumnStats, collect_column_stats
from .table import Table


class Catalog:
    """Name → table mapping with helpers for base-relation identity.

    Thread-safety: mutations (register / drop / epoch restore) and the
    column-stats memo take an internal lock, so a writer replacing a
    table while reader threads compute stats cannot corrupt either map.
    Plain reads (``get``, ``epoch``) are single dict lookups — atomic
    under the GIL — and stay lock-free; readers wanting a *consistent*
    multi-name view pin a snapshot via :meth:`snapshot_state` (the
    serving layer's :class:`~repro.serve.CatalogSnapshot` does).
    """

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._epochs: Dict[str, int] = {}
        # (name, epoch, column) -> (the table scanned, its stats)
        self._column_stats: Dict[Tuple[str, int, str], tuple] = {}
        self._lock = threading.RLock()

    def register(
        self,
        name: str,
        table: Table,
        replace: bool = False,
        preserve_rids: bool = False,
    ) -> None:
        if not name or not name.isidentifier():
            raise CatalogError(f"invalid table name {name!r}")
        if not isinstance(table, Table):
            raise SchemaError(
                f"table {name!r} must be a Table, got {type(table).__name__}"
            )
        with self._lock:
            if name in self._tables and not replace:
                raise CatalogError(f"table {name!r} already exists")
            replacing = name in self._tables and self._tables[name] is not table
            if replacing and preserve_rids:
                # preserve_rids asserts rows were updated in place (same
                # positions, same identity) — a different cardinality or
                # shape breaks that contract while keeping captured
                # lineage "valid", so rids would point past the end or
                # at reshaped rows.  Refuse rather than serve garbage.
                old = self._tables[name]
                if table.num_rows != old.num_rows:
                    raise CatalogError(
                        f"preserve_rids replacement of {name!r} must keep "
                        f"the row count ({old.num_rows} rows, got "
                        f"{table.num_rows}); replace without preserve_rids "
                        "to invalidate captured lineage instead"
                    )
                if table.schema != old.schema:
                    raise CatalogError(
                        f"preserve_rids replacement of {name!r} must keep "
                        f"the schema ({old.schema!r}, got {table.schema!r}); "
                        "replace without preserve_rids to invalidate "
                        "captured lineage instead"
                    )
            if sanitize.enabled():
                # Derived state (the per-bar memo) keys a column by its
                # array object; debug mode makes "never written in place"
                # physical, so an in-place write raises.
                for values in table.columns().values():
                    sanitize.freeze(values)
            table.mark_stored()
            self._tables[name] = table
            if replacing:
                self._evict_column_stats(name)
            if replacing and not preserve_rids:
                self._epochs[name] = self._epochs.get(name, 0) + 1

    def drop(self, name: str) -> None:
        with self._lock:
            if name not in self._tables:
                raise CatalogError(f"cannot drop unknown table {name!r}")
            del self._tables[name]
            self._evict_column_stats(name)
            # A later re-registration under this name is a different
            # relation; advancing here makes drop+create
            # indistinguishable from replace.
            self._epochs[name] = self._epochs.get(name, 0) + 1

    def _evict_column_stats(self, name: str) -> None:
        for key in [k for k in self._column_stats if k[0] == name]:
            del self._column_stats[key]

    def column_stats(self, name: str, column: str) -> ColumnStats:
        """Distinct-count / uniqueness statistics of one stored column,
        computed once per ``(relation, epoch, column)`` and memoized —
        the late-materializing chain executor consults this per join hop
        to pick build sides and detect pk-fk joins, so repeated
        interactive statements never re-scan the column."""
        table, epoch = self.get_versioned(name)
        return self.stats_for(name, table, epoch, column)

    def stats_for(
        self, name: str, table: Table, epoch: int, column: str
    ) -> ColumnStats:
        """Epoch-pinned variant of :meth:`column_stats` for snapshot
        views: the caller supplies the table and epoch it pinned, so a
        reader on an old snapshot memoizes under the old epoch while the
        live catalog has moved on.  The scan itself runs outside the
        lock; two racing readers may both compute, the last install wins.
        A hit also requires the memoized stats to describe ``table``
        itself: a ``preserve_rids`` replace keeps the epoch, and a reader
        on an older snapshot must not file its table's stats for the new
        one.
        """
        key = (name, epoch, column)
        with self._lock:
            entry = self._column_stats.get(key)
        if entry is not None and entry[0] is table:
            return entry[1]
        stats = collect_column_stats(table.column(column))
        with self._lock:
            self._column_stats[key] = (table, stats)
        return stats

    def snapshot_state(self) -> Tuple[Dict[str, Table], Dict[str, int]]:
        """Consistent copy of ``(tables, epochs)`` for snapshot views.

        Taken under the lock so a concurrent replacement can never yield
        a new table paired with its pre-replacement epoch.  Tables are
        immutable, so the shallow dict copies pin a full point-in-time
        image.
        """
        with self._lock:
            return dict(self._tables), dict(self._epochs)

    def epoch(self, name: str) -> int:
        """Replacement epoch of a relation name (0 until first replaced).

        Unknown names answer their *next* epoch so that lineage captured
        against a since-dropped table can still be compared.
        """
        return self._epochs.get(name, 0)

    def epochs_snapshot(self) -> Dict[str, int]:
        """Every recorded replacement epoch (what a durable checkpoint
        persists so stale-rid guards survive a restart)."""
        with self._lock:
            return dict(self._epochs)

    def restore_epochs(self, epochs: Dict[str, int]) -> None:
        """Recovery-only: re-install replacement epochs from a checkpoint.

        Epochs may only move forward — the restored value must be at
        least what this (fresh) catalog has already recorded — so a
        recovered lineage handle compares against the same epoch line it
        was captured on.  The first post-recovery ``create_table`` of a
        base relation does not bump (creation is not replacement), which
        is what lets a restarted process re-load its base tables and
        keep serving checkpointed lineage.
        """
        with self._lock:
            for name, epoch in epochs.items():
                epoch = int(epoch)
                if epoch < 0 or epoch < self._epochs.get(name, 0):
                    raise CatalogError(
                        f"cannot restore epoch {epoch} for {name!r}: epochs "
                        f"only move forward (live: {self._epochs.get(name, 0)})"
                    )
                self._epochs[name] = epoch

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; known: {sorted(self._tables)}"
            ) from None

    def get_versioned(self, name: str) -> Tuple[Table, int]:
        """The table *and* its replacement epoch, read together.

        This is the accessor executor and lineage code must use (lint
        rule RPR005): reading a table without its epoch invites lineage
        that silently outlives a replacement.  Unknown names raise the
        same canonical error as :meth:`get`.
        """
        return self.get(name), self.epoch(name)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def names(self):
        return sorted(self._tables)

    def resolve(self, name: str, default: Optional[Table] = None) -> Optional[Table]:
        return self._tables.get(name, default)
