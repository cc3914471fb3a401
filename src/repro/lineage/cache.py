"""The per-bar memos of repeated interactive brush statements.

The paper's interactive workloads (crossfilter, linked brushing) issue the
*same* lineage-consuming statements per interaction — one per view —
varying only the brushed bars.  :class:`LineageResolutionCache` holds
each such statement's **per-bar memo** (:meth:`~LineageResolutionCache.memo`,
filled by :func:`~repro.exec.late_mat.execute_pushed`): partial answers
per bar of a GROUP BY view — for single-table brushes and for join
chains with one lineage leaf alike — so a brush re-visiting bars merges
partials instead of re-scanning rows or re-running the join chain, and
single brushes and ``sql_batch`` share them.  A
:class:`~repro.api.Database` owns exactly one, which every prepared
statement of every front reads through (raw plans run uncached).
Statements the memo declines resolve their rids from the view's index
on every run, as the paper's lineage queries do.

Correctness rests on epoch-based invalidation: every entry records an
epoch, and a lookup whose stored epoch differs from the caller's
rebuilds.  The cache keeps no registry of its own: the caller always
passes the epoch.  A per-bar memo's epoch is what its fills read: the
catalog epoch of the traced base table, the very column arrays of it the
statement reads, every plain join leaf's table, and the view's backward
index, each held by a :class:`Pin`.  Catalog columns never change in
place (``REPRO_SANITIZE`` freezes them on registration), so an unchanged
array object is unchanged content: a ``preserve_rids`` refresh of a
column no brush reads keeps the memo.  Re-registering a view builds a new
index object; the memo's lookup compares it with the old one and
re-stamps the entry when they are bit-equal (``revalidated``).

The cache is LRU-bounded (:attr:`LineageResolutionCache.MAX_ENTRIES`) so
a long session over many statements cannot hold every memo alive.

Thread-safety: lookups and installs take an internal lock, but
``build()`` runs outside it, so two threads racing the same cold key
both build and one install wins — wasted work, never a wrong answer.
This is what lets one cache be shared across the serving layer's reader
pool (:mod:`repro.serve`): readers on different snapshots pass
different epochs, so an old snapshot's memo is never filed under the
current epoch.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

#: Key of one memo: (the pushed statement's :class:`Pin`, the
#: fingerprint of its parameters other than the rid argument).
_CacheKey = Tuple[object, tuple]

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


class LineageResolutionCache:
    """The per-bar memos of brush statements, each live while the
    caller's epoch for it is unchanged."""

    #: LRU bound on per-bar memos.
    MAX_ENTRIES = 512

    def __init__(self):
        self._entries: "OrderedDict[_CacheKey, Tuple[object, object]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        # Per-bar memo traffic (see memo()): bars filled vs found filled,
        # and entries re-stamped under a new epoch instead of rebuilt.
        self.bar_fills = 0
        self.bar_reuses = 0
        self.revalidated = 0
        self._lock = threading.RLock()

    # -- lookup ---------------------------------------------------------------

    def memo(
        self,
        key: _CacheKey,
        epoch: object,
        build: Callable[[], object],
        same: Optional[Callable[[object], bool]] = None,
    ) -> object:
        """A statement's per-bar memo (built by ``build()`` for
        :func:`~repro.exec.late_mat.execute_pushed`) filed as one entry
        under ``key`` and live while ``epoch`` is unchanged; ``epoch``
        holds objects by :class:`Pin`.  An entry filed under another
        epoch is shown to ``same`` (its stored epoch): true vouches that
        the value still holds under ``epoch``, and the entry is re-stamped
        (a hit, counted in ``revalidated`` too) instead of rebuilt.
        ``same`` runs outside the lock, so it may compare whole arrays.
        Threads racing one cold key each ``build()``, but only the first
        install lands and every racer gets its value, so they fill (and
        lower) one entry.  Lookups count in ``hits``/``misses``."""
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

    def count_bars(self, fills: int, reuses: int) -> None:
        """Record one memo merge: ``fills`` bars computed, ``reuses``
        found already filled."""
        with self._lock:
            self.bar_fills += fills
            self.bar_reuses += reuses

    def _put(self, key: _CacheKey, epoch: object, value: object) -> None:
        """File ``value`` under ``key`` and ``epoch``; the lock is held."""
        self._entries[key] = (epoch, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)

    # -- maintenance ----------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every entry.  Epoch checks already catch re-registration;
        this is for explicit memory release and for timing cold runs.  The
        cache is the database's one, so this drops every front's per-bar
        memos."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

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
