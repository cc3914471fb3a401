"""Lineage capture configuration and the per-query lineage handle.

Capture behaviour is configured per execution with :class:`CaptureConfig`:

* ``mode`` selects the paper's instrumentation paradigm — ``NONE`` (the
  un-instrumented Baseline), ``INJECT`` (full capture cost paid inside the
  operators, Section 3.2), or ``DEFER`` (operators record the minimal state
  needed — pinned hash-table/group-id information and cardinality
  statistics — and index construction runs after the base query returns).
* ``backward`` / ``forward`` and ``relations`` implement instrumentation
  pruning (Section 4.1): lineage that the declared workload will never
  query is simply not captured.
* ``hints`` carries cardinality knowledge (Smoke-I-TC / Smoke-I-EC).

:class:`QueryLineage` is what a query result exposes: end-to-end backward
and forward indexes between the query output and every captured base
relation, with Defer thunks finalized transparently on first access.

Relation naming
---------------
Indexes are stored under *occurrence keys*: the plain table name when a
table is scanned once, ``name#i`` when it is scanned multiple times (a
self-join).  Lineage lookups may address a relation three ways — by
occurrence key, by base table name, or by the SQL correlation name
(``FROM t AS a`` registers ``a``).  ``relations`` pruning entries accept
the same three forms, and the executors raise before executing when an
entry matches no scanned relation (see
:func:`unmatched_capture_relations`) rather than silently capturing
nothing.

Batched lookups
---------------
:meth:`QueryLineage.backward` / :meth:`~QueryLineage.forward` answer one
lineage query; :meth:`~QueryLineage.backward_batch` answers many backward
queries in one call, resolving the index once and deduplicating through a
reusable flag array at the CSR level instead of an ``np.unique`` sort per
call.  ``bench_fig09_lineage_query.py`` compares it against the per-call
path.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..errors import CaptureDisabledError, LineageError
from ..substrate.stats import CardinalityHints
from .indexes import LineageIndex


class CaptureMode(enum.Enum):
    """Which instrumentation paradigm the executor applies."""

    NONE = "none"
    INJECT = "inject"
    DEFER = "defer"


@dataclass
class CaptureConfig:
    """Per-execution lineage capture settings.

    Attributes
    ----------
    mode:
        Instrumentation paradigm (Baseline / Smoke-I / Smoke-D).
    backward, forward:
        Direction pruning (Section 4.1); disabling a direction skips
        building its indexes entirely.
    relations:
        If not ``None``, capture lineage only for these base relation keys
        (input-relation pruning, Section 4.1).
    hints:
        Cardinality knowledge for index pre-allocation.
    defer_forward_only:
        Smoke-D-DeferForw (Section 6.1.3): defer only the left-relation
        forward index of an m:n join, populate everything else inline.
    emulate_tuple_appends:
        When True, group-by Inject builds its backward index through the
        growable-bucket append path (10-element / 1.5x growth) instead of
        reusing the aggregation's sorted layout.  The reuse path is the
        vectorized analogue of the paper's P4 principle (γ'_ht reuses the
        hash table) and is the default; the append path exists to expose
        the rid-array resizing behaviour the paper analyzes (used by the
        resizing ablation benchmark and the Smoke-I-TC tests).
    """

    mode: CaptureMode = CaptureMode.INJECT
    backward: bool = True
    forward: bool = True
    relations: Optional[Set[str]] = None
    hints: Optional[CardinalityHints] = None
    defer_forward_only: bool = False
    emulate_tuple_appends: bool = False

    @property
    def enabled(self) -> bool:
        return self.mode is not CaptureMode.NONE and (self.backward or self.forward)

    def captures_relation(self, key: str, name: str, alias: Optional[str] = None) -> bool:
        """Should lineage for base-relation occurrence ``key`` (table
        ``name``, optionally scanned under SQL correlation name ``alias``)
        be captured?  ``relations`` entries may use any of the three
        forms — occurrence key (``t#0``), base table name, or alias."""
        if not self.enabled:
            return False
        if self.relations is None:
            return True
        return not self.relations.isdisjoint(_source_forms(key, name, alias))

    @classmethod
    def none(cls) -> "CaptureConfig":
        return cls(mode=CaptureMode.NONE)

    @classmethod
    def inject(cls, **kwargs) -> "CaptureConfig":
        return cls(mode=CaptureMode.INJECT, **kwargs)

    @classmethod
    def defer(cls, **kwargs) -> "CaptureConfig":
        return cls(mode=CaptureMode.DEFER, **kwargs)


#: A deferred index construction: returns the finished index when invoked.
DeferThunk = Callable[[], LineageIndex]

IndexOrThunk = Union[LineageIndex, DeferThunk]

#: Below this many looked-up edges, sort-based ``np.unique`` beats the
#: flag-array dedup (whose cost is proportional to the touched rid span).
_DEDUP_FLAGS_MIN = 64

#: Use the flag array only when the touched rid span is within this
#: factor of the edge count — a sparse batch over a huge relation would
#: otherwise pay an O(span) scan (and a span-sized allocation) to dedup
#: a handful of rids that ``np.unique`` sorts in microseconds.
_DEDUP_FLAGS_DENSITY = 32


def _source_forms(key: str, name: str, alias: Optional[str]) -> Set[str]:
    """The names under which one scanned relation occurrence is
    addressable: occurrence key, base table name, and SQL alias.  The
    single source of truth for both capture pruning
    (:meth:`CaptureConfig.captures_relation`) and the execution-end
    validation (:func:`unmatched_capture_relations`)."""
    forms = {key, name}
    if alias is not None:
        forms.add(alias)
    return forms


def unmatched_capture_relations(
    config: CaptureConfig, sources: Sequence[tuple]
) -> List[str]:
    """``relations`` pruning entries that matched no scanned relation.

    ``sources`` is the plan's list of ``(key, name, alias)`` triples, one
    per base-relation occurrence.  Executors call this before running the
    plan so a stale or misspelled ``relations`` entry raises immediately
    instead of silently capturing nothing (historically,
    ``CaptureConfig(relations={"a"})`` with ``FROM t AS a`` produced a
    lineage handle with no relations at all).
    """
    if not config.enabled or not config.relations:
        return []
    scanned_forms = set()
    for key, name, alias in sources:
        scanned_forms |= _source_forms(key, name, alias)
    return sorted(set(config.relations) - scanned_forms)


class QueryLineage:
    """End-to-end lineage between one query's output and its base relations.

    Indexes may be stored directly (Inject) or as thunks (Defer); thunks are
    finalized on first access and the time spent is accumulated in
    ``finalize_seconds`` so benchmarks can report the Defer trade-off: a
    faster base query in exchange for post-hoc construction work.
    """

    def __init__(self, output_size: int):
        self.output_size = output_size
        self._backward: Dict[str, IndexOrThunk] = {}
        self._forward: Dict[str, IndexOrThunk] = {}
        self._aliases: Dict[str, List[str]] = {}
        self._base_epochs: Dict[str, int] = {}
        # Per-index dedup scratch: a reusable boolean flag array sized to
        # the index's rid domain (allocated lazily, reset after each use).
        # The scratch is shared mutable state, so flag-array dedup and
        # thunk finalization serialize on a lock: concurrent snapshot
        # readers (repro/serve.py) resolve lineage on the *same* result
        # object, and one thread's reset must never clear another's bits.
        self._dedup_flags: Dict[Tuple[str, str], np.ndarray] = {}
        self._dedup_lock = threading.Lock()
        self.finalize_seconds = 0.0

    # -- population (used by executors) ----------------------------------------

    def put_backward(self, key: str, index: IndexOrThunk) -> None:
        self._backward[key] = index

    def put_forward(self, key: str, index: IndexOrThunk) -> None:
        self._forward[key] = index

    def register_alias(self, name: str, key: str) -> None:
        self._aliases.setdefault(name, [])
        if key not in self._aliases[name]:
            self._aliases[name].append(key)

    def put_base_epoch(self, key: str, epoch: int) -> None:
        """Record the catalog replacement epoch of occurrence ``key``'s
        base relation as of capture time (see :meth:`base_epoch`)."""
        self._base_epochs[key] = epoch

    # -- access -----------------------------------------------------------------

    @property
    def relations(self) -> List[str]:
        keys = set(self._backward) | set(self._forward)
        return sorted(keys)

    def _resolve_key(self, relation: str, table: Dict[str, IndexOrThunk]) -> str:
        alias_keys = [k for k in self._aliases.get(relation, []) if k in table]
        if relation in table:
            if any(k != relation for k in alias_keys):
                # A correlation name shadowing another occurrence's base
                # table ("FROM a AS x JOIN t AS a") must not silently
                # pick either side.
                raise LineageError(
                    f"relation {relation!r} names both a scanned relation "
                    f"and an alias of another occurrence "
                    f"({sorted(set(alias_keys))}); qualify with an "
                    "occurrence key or a distinct alias"
                )
            return relation
        if len(alias_keys) == 1:
            return alias_keys[0]
        if len(alias_keys) > 1:
            raise LineageError(
                f"relation {relation!r} is scanned multiple times; "
                f"qualify one of {alias_keys}"
            )
        raise CaptureDisabledError(
            f"no lineage captured for relation {relation!r}; "
            f"captured: {sorted(table)}"
        )

    def _materialize(self, table: Dict[str, IndexOrThunk], key: str) -> LineageIndex:
        entry = table[key]
        if callable(entry):
            with self._dedup_lock:
                entry = table[key]
                if callable(entry):  # not finalized by a racing thread
                    start = time.perf_counter()
                    entry = entry()
                    self.finalize_seconds += time.perf_counter() - start
                    table[key] = entry
        return entry

    def backward_index(self, relation: str) -> LineageIndex:
        """The ``output rid -> base rids`` index for ``relation``."""
        key = self._resolve_key(relation, self._backward)
        return self._materialize(self._backward, key)

    def forward_index(self, relation: str) -> LineageIndex:
        """The ``base rid -> output rids`` index for ``relation``."""
        key = self._resolve_key(relation, self._forward)
        return self._materialize(self._forward, key)

    def _distinct(self, rids: np.ndarray, direction: str, key: str) -> np.ndarray:
        """Sorted distinct rids, via a reusable flag array for dense batches.

        ``np.unique`` sorts (``O(k log k)`` per call); the flag-array path
        scatters into a boolean scratch covering the touched rid span and
        reads the set bits back (``O(k + span)``), then resets only the
        touched bits so the scratch amortizes across repeated interactive
        lookups (crossfilter-scale traffic).  The sort path is kept for
        small lookups (:data:`_DEDUP_FLAGS_MIN`) and for sparse ones
        (:data:`_DEDUP_FLAGS_DENSITY`) — e.g. a few hundred rids spread
        over a multi-million-row relation — where the span scan would
        dominate.
        """
        if rids.size < _DEDUP_FLAGS_MIN:
            return np.unique(rids)
        span = int(rids.max()) + 1
        if span > rids.size * _DEDUP_FLAGS_DENSITY:
            return np.unique(rids)
        with self._dedup_lock:
            flags = self._dedup_flags.get((direction, key))
            if flags is None or flags.shape[0] < span:
                flags = np.zeros(span, dtype=bool)
                self._dedup_flags[(direction, key)] = flags
            view = flags[:span]
            view[rids] = True
            out = np.flatnonzero(view)
            view[out] = False
        return out

    def _distinct_many(
        self, rid_groups: List[np.ndarray], direction: str, key: str
    ) -> List[np.ndarray]:
        """Batched :meth:`_distinct`: one result per group, with the
        dedup lock acquired **once** for all dense groups and one flag
        view (sized to the largest touched span) reused across them.

        The per-group eligibility rules are identical to
        :meth:`_distinct` — small or sparse groups take the ``np.unique``
        path outside the lock — so each returned array is bit-identical
        to a per-group call; only the lock churn and repeated scratch
        lookups go away.  The scratch is still only ever read or grown
        under ``_dedup_lock`` (the PR 8 torn-scratch rule).
        """
        out: List[Optional[np.ndarray]] = [None] * len(rid_groups)
        dense: List[tuple] = []
        max_span = 0
        for i, rids in enumerate(rid_groups):
            if rids.size < _DEDUP_FLAGS_MIN:
                out[i] = np.unique(rids)
                continue
            span = int(rids.max()) + 1
            if span > rids.size * _DEDUP_FLAGS_DENSITY:
                out[i] = np.unique(rids)
                continue
            dense.append((i, rids, span))
            if span > max_span:
                max_span = span
        if dense:
            with self._dedup_lock:
                flags = self._dedup_flags.get((direction, key))
                if flags is None or flags.shape[0] < max_span:
                    flags = np.zeros(max_span, dtype=bool)
                    self._dedup_flags[(direction, key)] = flags
                for i, rids, span in dense:
                    view = flags[:span]
                    view[rids] = True
                    result = np.flatnonzero(view)
                    view[result] = False
                    out[i] = result
        return out

    def backward(self, out_rids, relation: str) -> np.ndarray:
        """Backward lineage query Lb(O' ⊆ O, relation) → distinct base rids."""
        key = self._resolve_key(relation, self._backward)
        index = self._materialize(self._backward, key)
        return self._distinct(index.lookup_many(out_rids), "b", key)

    def forward(self, relation: str, in_rids) -> np.ndarray:
        """Forward lineage query Lf(R' ⊆ R, O) → distinct output rids."""
        key = self._resolve_key(relation, self._forward)
        index = self._materialize(self._forward, key)
        return self._distinct(index.lookup_many(in_rids), "f", key)

    def backward_batch(self, out_rid_groups, relation: str) -> List[np.ndarray]:
        """Batched Lb: one distinct-rid array per group of output rids.

        Resolves and materializes the index once for the whole batch and
        reuses one dedup scratch array across groups, so serving many
        interactive lookups (every bar of a crossfilter view, say) skips
        the per-call alias resolution, thunk checks, and ``np.unique``
        sorts of repeated :meth:`backward` calls.
        """
        key = self._resolve_key(relation, self._backward)
        index = self._materialize(self._backward, key)
        return self._distinct_many(
            [index.lookup_many(group) for group in out_rid_groups], "b", key
        )

    def base_epoch(self, relation: str) -> Optional[int]:
        """The catalog epoch of ``relation``'s base table at capture time,
        or ``None`` when no epoch was recorded (e.g. re-rooted or pseudo
        relations).  Consumers that *apply* captured rids to the live table
        (``Lb`` scans, ``backward_table``) compare this against
        :meth:`~repro.storage.catalog.Catalog.epoch` and raise on mismatch
        instead of answering with stale positions; rid-only answers
        (:meth:`backward` / :meth:`forward`) stay available, since they
        describe the captured snapshot."""
        for key in self.keys_for(relation):
            epoch = self._base_epochs.get(key)
            if epoch is not None:
                return epoch
        return None

    def keys_for(self, relation: str) -> List[str]:
        """Every occurrence key a relation reference could denote — the
        key itself and all keys registered under the given base-table name
        or SQL alias.  Empty when the reference is unknown.  More than one
        distinct key means the reference is ambiguous."""
        keys: List[str] = []
        if relation in self._backward or relation in self._forward:
            keys.append(relation)
        for key in self._aliases.get(relation, []):
            if key not in keys:
                keys.append(key)
        return keys

    def backward_bag(self, out_rids, relation: str) -> np.ndarray:
        """Backward lineage with multiplicity preserved (Appendix E needs
        duplicates to encode why/how provenance)."""
        return self.backward_index(relation).lookup_many(out_rids)

    def finalize(self) -> float:
        """Force all deferred constructions now; returns seconds spent."""
        before = self.finalize_seconds
        for table in (self._backward, self._forward):
            for key in list(table):
                self._materialize(table, key)
        return self.finalize_seconds - before

    def memory_bytes(self) -> int:
        """Bytes held by all finalized indexes (forces finalization)."""
        self.finalize()
        total = 0
        for table in (self._backward, self._forward):
            for entry in table.values():
                total += entry.memory_bytes()
        return total

    def __repr__(self) -> str:
        return (
            f"QueryLineage(output={self.output_size}, "
            f"backward={sorted(self._backward)}, forward={sorted(self._forward)})"
        )
