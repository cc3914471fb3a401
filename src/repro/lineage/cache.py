"""Memoized lineage rid-resolution for repeated interactive statements.

The paper's interactive workloads (crossfilter, linked brushing) issue the
*same* lineage-consuming statements per interaction — one per view —
varying only the traced subset.  Every such statement pays a
``QueryLineage.backward`` / ``forward`` resolution (index lookup plus
distinct-dedup) even though, within one brush, all N per-view statements
trace the same ``(result, relation, rid subset)``.

:class:`LineageResolutionCache` memoizes those resolutions.  A
:class:`~repro.api.Database` owns exactly one, which every prepared
statement of every front resolves through (raw plans run uncached), so
a brush's per-view statements resolve lineage once and repeated
identical brushes resolve it zero times.  The same entries hold each
brush statement's **per-bar memo** (:meth:`~LineageResolutionCache.memo`,
filled by :func:`~repro.exec.late_mat.execute_pushed`): partial answers
per bar of a GROUP BY view — for single-table brushes and for join
chains with one lineage leaf alike — so a brush re-visiting bars merges
partials instead of re-scanning rows or re-running the join chain, and
single brushes and ``sql_batch`` share them.

Correctness rests on two invariants:

* **Epoch-based invalidation** — every entry records an epoch, and a
  lookup whose stored epoch differs from the caller's recomputes.  The
  cache keeps no registry of its own: the caller always passes the epoch.

  - A rid resolution's epoch is the registry epoch of the named result,
    taken from the registry the read goes through
    (:meth:`~repro.api.ResultRegistry.epoch` for the live database,
    :meth:`~repro.serve.RegistrySnapshot.epoch` for a pinned snapshot;
    both advance on re-registration), so re-registering a name can never
    serve another result's rids.
  - A per-bar memo's epoch is what its fills read: the catalog epoch of
    the traced base table, the very column arrays of it the statement
    reads, every plain join leaf's table, and the view's backward index,
    each held by a :class:`Pin`.  Catalog columns never change in place
    (``REPRO_SANITIZE`` freezes them on registration), so an unchanged
    array object is unchanged content: a ``preserve_rids`` refresh of a
    column no brush reads keeps the memo.  Re-registering a view builds a
    new index object; the memo's lookup compares it with the old one and
    re-stamps the entry when they are bit-equal (``revalidated``).
* **Immutability** — cached arrays are handed out with the writeable flag
  cleared; every consumer treats rid arrays as read-only (filters copy via
  fancy indexing), so sharing one array across statements is safe, and an
  accidental in-place mutation raises instead of corrupting the cache.

The cache is LRU-bounded (:attr:`LineageResolutionCache.MAX_ENTRIES`) so
a long session brushing thousands of distinct subsets cannot hold every
resolved rid set alive.

Thread-safety: lookups and installs take an internal lock, but
``compute()`` runs outside it, so two threads racing the same cold key
both compute and one install wins — wasted work, never a wrong answer.
This is what lets one cache be shared across the serving layer's reader
pool (:mod:`repro.serve`): readers on different snapshots pass
different epochs, so an old snapshot's rids are never filed under the
current epoch.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

#: Key of one memoized resolution: (result name, direction, relation
#: reference, rid-subset fingerprint).
_CacheKey = Tuple[str, str, str, object]

#: Fingerprint of the "trace every row" subset (no rid argument).  The
#: traced universe only changes when the result is re-registered, which
#: the epoch check already covers.
ALL_RIDS = "*"

#: Rid subsets at most this many bytes are keyed by their raw bytes
#: (exact, collision-free, cheap to hold).  Larger subsets — a brush
#: selecting a million explicit rids — are keyed by ``(length, blake2b
#: digest)`` instead, so a cache entry's key stays O(1)-sized rather
#: than pinning a second copy of the whole rid array's bytes.
SUBSET_KEY_INLINE_BYTES = 4096


def param_fingerprint(params: Optional[dict]) -> tuple:
    """Hashable fingerprint of a parameter binding (the memo keys of the
    per-bar memo and the server's answer memo).  Scalars key by type and
    ``repr``, not by value alone: ``1``, ``1.0`` and ``True`` — or ``0.0``
    and ``-0.0`` — compare equal yet can answer with another dtype or
    sign.  Numeric arrays key by :meth:`LineageResolutionCache.subset_key`;
    object arrays, whose bytes are pointers, like sequences."""
    items = []
    for name in sorted(params or ()):
        value = params[name]
        array = isinstance(value, np.ndarray) and value.ndim > 0
        if array and value.ndim == 1 and value.dtype != object:
            items.append((name, LineageResolutionCache.subset_key(value)))
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
    """Memoizes resolved backward/forward rid sets per
    ``(result, relation, rid-subset)``, each live while the caller's
    registry epoch for the result is unchanged."""

    #: LRU bound on memoized resolutions and per-bar memos.
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

    # -- keys -----------------------------------------------------------------

    @staticmethod
    def subset_key(rids: Optional[np.ndarray]) -> object:
        """Hashable fingerprint of a traced rid subset (``None`` = all).

        Both key forms carry the dtype string and the element count in
        addition to the buffer bytes: raw bytes alone would make an
        int32 subset and an int64 subset with identical buffers collide
        to one entry.  Small subsets key by ``(dtype, length, bytes)``
        (exact, collision-free); subsets beyond
        :data:`SUBSET_KEY_INLINE_BYTES` key by ``(dtype, length,
        blake2b-128 digest)`` so the stored key is O(1)-sized regardless
        of brush size (the length is included so a truncated-prefix
        collision would also have to collide the digest).
        """
        if rids is None:
            return ALL_RIDS
        data = rids.tobytes()
        if len(data) <= SUBSET_KEY_INLINE_BYTES:
            return (rids.dtype.str, rids.shape[0], data)
        digest = hashlib.blake2b(data, digest_size=16).digest()
        return (rids.dtype.str, rids.shape[0], digest)

    # -- lookup ---------------------------------------------------------------

    def resolve(
        self,
        name: str,
        direction: str,
        relation: str,
        subset_key: object,
        compute: Callable[[], np.ndarray],
        epoch: object,
    ) -> np.ndarray:
        """The memoized resolution: cached rids when the entry was filed
        under ``epoch`` (the registry epoch of ``name`` in the registry
        being read), else ``compute()`` — stored read-only.

        ``compute()`` runs without the lock held — it may execute index
        lookups or recursive resolution and must not deadlock readers.
        """
        key = (name, direction, relation, subset_key)
        rids = self._lookup(key, epoch)
        if rids is None:
            rids = np.asarray(compute())
            rids.setflags(write=False)
            self._install(key, epoch, rids)
        return rids

    def memo(
        self,
        key: _CacheKey,
        epoch: object,
        build: Callable[[], object],
        same: Optional[Callable[[object], bool]] = None,
    ) -> object:
        """A derived per-statement artifact (the per-bar memo of
        :func:`~repro.exec.late_mat.execute_pushed`) filed as one entry
        under ``key`` (whose first element is the result name) and live
        while ``epoch`` is unchanged; ``epoch`` holds objects by
        :class:`Pin`.  An entry filed under another epoch is shown to
        ``same`` (its stored epoch): true vouches that the value still
        holds under ``epoch``, and the entry is re-stamped (a hit, counted
        in ``revalidated`` too) instead of rebuilt.  ``same`` runs outside
        the lock, so it may compare whole arrays.  Lookups count in
        ``hits``/``misses``."""
        value = self._lookup(key, epoch)
        if value is None and same is not None:
            with self._lock:
                entry = self._entries.get(key)
            if entry is not None and same(entry[0]):
                value = entry[1]
                with self._lock:
                    self._put(key, epoch, value)
                    self.hits += 1
                    self.revalidated += 1
        if value is None:
            value = build()
            self._install(key, epoch, value)
        return value

    def count_bars(self, fills: int, reuses: int) -> None:
        """Record one memo merge: ``fills`` bars computed, ``reuses``
        found already filled."""
        with self._lock:
            self.bar_fills += fills
            self.bar_reuses += reuses

    def _lookup(self, key: _CacheKey, epoch: object) -> Optional[object]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == epoch:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
        return None

    def _install(self, key: _CacheKey, epoch: object, value: object) -> None:
        with self._lock:
            self._put(key, epoch, value)
            self.misses += 1

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
        cache is the database's one, so this drops every front's entries
        and per-bar memos."""
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
