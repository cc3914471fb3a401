"""The engine's one keyed memo, and the per-bar memos of repeated
interactive brush statements.

:class:`Memo` is the engine's one keyed LRU memo: a map from key to a
value built on a miss, bounded by least-recently-used eviction, whose
entries may carry an epoch.  Three memos are instances of it, and lint
rule RPR010 keeps hand-written LRUs out of the rest of ``src/``:

* the database's statement memo (:class:`~repro.api.StatementMemo`),
  prepared statements by normalized text;
* the database's :class:`LineageResolutionCache`, the per-bar memos;
* each :class:`~repro.serve.Snapshot`'s answer memo, whole results by
  statement, parameters and options.

Per-table derived state — STR codes and column statistics — is not
keyed: it lives on the immutable :class:`~repro.storage.table.Table`.

The paper's interactive workloads (crossfilter, linked brushing) issue the
*same* lineage-consuming statements per interaction — one per view —
varying only the brushed bars.  :class:`LineageResolutionCache` holds
each such statement's **per-bar memo** (filled by
:func:`~repro.exec.late_mat.execute_pushed`): partial answers per bar of
a GROUP BY view — for single-table brushes and for join chains with one
lineage leaf alike — so a brush re-visiting bars merges partials instead
of re-scanning rows or re-running the join chain, and single brushes and
``sql_batch`` share them.  A :class:`~repro.api.Database` owns exactly
one, which every prepared statement of every front reads through (raw
plans run uncached).  Statements the memo declines resolve their rids
from the view's index on every run, as the paper's lineage queries do.

Correctness rests on epoch-based invalidation: every entry records an
epoch, and a lookup whose stored epoch differs from the caller's
rebuilds.  A memo keeps no registry of its own: the caller always
passes the epoch.  A per-bar memo's epoch is what its fills read: the
catalog epoch of the traced base table, the very column arrays of it the
statement reads, every plain join leaf's table, and the view's backward
index, each held by a :class:`Pin`.  Catalog columns never change in
place (``REPRO_SANITIZE`` freezes them on registration), so an unchanged
array object is unchanged content: a ``preserve_rids`` refresh of a
column no brush reads keeps the memo.  Re-registering a view builds a new
index object; the lookup compares it with the old one and re-stamps the
entry when they are bit-equal (``revalidated``).

Thread-safety: lookups and installs take the memo's lock, but
``build()`` runs outside it, so two threads racing the same cold key
both build and the first install wins — wasted work, never a wrong
answer.  This is what lets one memo be shared across the serving layer's
reader pool (:mod:`repro.serve`): readers on different snapshots pass
different epochs, so an old snapshot's memo is never filed under the
current epoch.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

#: Arrays at most this many bytes are fingerprinted by their raw bytes
#: (exact, collision-free, cheap to hold).  Larger ones — a binding of a
#: million explicit rids — are keyed by ``(length, blake2b digest)``
#: instead, so a key stays O(1)-sized rather than pinning a second copy
#: of the whole array's bytes.
SUBSET_KEY_INLINE_BYTES = 4096


def _subset_key(values: np.ndarray) -> tuple:
    """Hashable fingerprint of a one-dimensional numeric array.

    Both key forms carry the dtype string and the element count in
    addition to the buffer bytes: raw bytes alone would make an int32
    array and an int64 array with identical buffers collide.  Small
    arrays key by ``(dtype, length, bytes)`` (exact, collision-free);
    arrays beyond :data:`SUBSET_KEY_INLINE_BYTES` key by ``(dtype,
    length, blake2b-128 digest)`` so the key is O(1)-sized regardless of
    the binding's size.
    """
    data = values.tobytes()
    if len(data) <= SUBSET_KEY_INLINE_BYTES:
        return (values.dtype.str, values.shape[0], data)
    digest = hashlib.blake2b(data, digest_size=16).digest()
    return (values.dtype.str, values.shape[0], digest)


def param_fingerprint(params: Optional[dict]) -> tuple:
    """Hashable fingerprint of a parameter binding (the memo keys of the
    per-bar memo and the server's answer memo).  Scalars key by type and
    ``repr``, not by value alone: ``1``, ``1.0`` and ``True`` — or ``0.0``
    and ``-0.0`` — compare equal yet can answer with another dtype or
    sign.  Numeric arrays key by dtype, length and bytes (a digest of
    them beyond :data:`SUBSET_KEY_INLINE_BYTES`); object arrays, whose
    bytes are pointers, like sequences."""
    items = []
    for name in sorted(params or ()):
        value = params[name]
        array = isinstance(value, np.ndarray) and value.ndim > 0
        if array and value.ndim == 1 and value.dtype != object:
            items.append((name, _subset_key(value)))
        elif array or isinstance(value, (list, tuple)):
            items.append((name, "seq", tuple((type(v), repr(v)) for v in value)))
        else:
            items.append((name, type(value), repr(value)))
    return tuple(items)


class Pin:
    """An epoch (or key) component standing for one object: equal only to
    a pin of the very same object, hashed by identity, and holding the
    object alive, so no other object can take its ``id`` while an entry
    filed under the pin lives.  Arrays and indexes define ``==`` by
    content; a pin compares them in O(1)."""

    __slots__ = ("obj",)

    def __init__(self, obj: object):
        self.obj = obj

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pin) and other.obj is self.obj

    def __hash__(self) -> int:
        return id(self.obj)


class Memo:
    """Values by key, each built on a miss and filed under an epoch,
    least recently used entries evicted past ``max_entries``.

    An entry is live while the caller's epoch equals the one it was filed
    under; memos whose values never go stale leave the epoch ``None``.
    ``hits``, ``misses`` and ``revalidated`` count lookups."""

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._entries: "OrderedDict[object, Tuple[object, object]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.revalidated = 0

    def get(
        self,
        key: object,
        build: Callable[[], object],
        epoch: object = None,
        same: Optional[Callable[[object], bool]] = None,
    ) -> object:
        """The value filed under ``key`` and ``epoch`` (now most recently
        used), or ``build()``'s on a miss.  An entry filed under another
        epoch is shown to ``same`` (its stored epoch): true vouches that
        the value still holds under ``epoch``, and the entry is re-stamped
        (a hit, counted in ``revalidated`` too) instead of rebuilt.
        ``same`` and ``build`` run outside the lock, so they may compare
        whole arrays or run a statement.  Threads racing one cold key each
        ``build()``, but only the first install lands and every racer gets
        its value."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == epoch:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
        if entry is not None and same is not None and same(entry[0]):
            with self._lock:
                self._put(key, epoch, entry[1])
                self.hits += 1
                self.revalidated += 1
            return entry[1]
        value = build()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == epoch:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
            self._put(key, epoch, value)
            self.misses += 1
        return value

    def replace(self, key: object, old: object, new: object) -> object:
        """File ``new`` under ``key`` (epoch ``None``) if the entry there
        is still ``old``, or gone; returns the value filed."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[1] is old:
                self._put(key, None, new)
                return new
            self._entries.move_to_end(key)
            return entry[1]

    def _put(self, key: object, epoch: object, value: object) -> None:
        """File ``value`` under ``key`` and ``epoch``; the lock is held."""
        self._entries[key] = (epoch, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class LineageResolutionCache(Memo):
    """The per-bar memos of brush statements, keyed by ``(the pushed
    statement's Pin, the fingerprint of its parameters other than the rid
    argument)``, each live while the caller's epoch for it is unchanged."""

    #: LRU bound on per-bar memos.
    MAX_ENTRIES = 512

    def __init__(self):
        super().__init__(self.MAX_ENTRIES)
        # Per-bar memo traffic: bars filled vs found filled.
        self.bar_fills = 0
        self.bar_reuses = 0

    def count_bars(self, fills: int, reuses: int) -> None:
        """Record one memo merge: ``fills`` bars computed, ``reuses``
        found already filled."""
        with self._lock:
            self.bar_fills += fills
            self.bar_reuses += reuses

    def invalidate(self) -> None:
        """Drop every entry.  Epoch checks already catch re-registration;
        this is for explicit memory release and for timing cold runs.  The
        cache is the database's one, so this drops every front's per-bar
        memos."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss counters, the live entry count, and the per-bar memo's
        fills/reuses and re-stamped entries (for benchmarks and
        ``DatabaseServer.stats``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self),
            "bar_fills": self.bar_fills,
            "bar_reuses": self.bar_reuses,
            "revalidated": self.revalidated,
        }
