"""Cardinality statistics used to pre-allocate lineage indexes.

Section 3 of the paper observes that rid-array resizing dominates capture
cost and that knowing cardinalities up front reduces group-by capture
overhead by up to 60% (Smoke-I-TC) while selectivity estimates help
selections (Smoke-I-EC, Appendix G.1 — where the paper also finds it is
better to *over*-estimate than to resize).

:class:`CardinalityHints` is the carrier for this knowledge; executors ask
it how large to pre-allocate each index.  :func:`collect_group_counts` and
:func:`estimate_selectivity` produce hints the way the paper suggests —
during normal query processing or from simple value-distribution
assumptions.

Join build sides
----------------
The same cardinality knowledge drives the late-materializing chain
executor's per-hop **build-side decision**
(:func:`choose_build_side`): a hash join should build on its smaller
input, and when one side's keys are known unique (a primary key — e.g.
the lineage side of a ``Lb(view, dim)`` scan over a dimension table) it
should build there: each probe row then matches at most once, and the
backward indexes are pre-allocatable (paper Section 3.2.4; cost-aware binary-join ordering
under cardinality constraints is the lever of "Worst-case Optimal Binary
Join Algorithms under General ℓp Constraints").  Uniqueness comes from
:class:`ColumnStats` (:func:`collect_column_stats`), memoized per
relation epoch by :meth:`repro.storage.catalog.Catalog.column_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..errors import InvalidArgumentError


@dataclass
class CardinalityHints:
    """Optional pre-allocation knowledge for lineage capture.

    Attributes
    ----------
    group_counts:
        Exact or estimated per-group input cardinalities for group-by /
        join-key matches, keyed by operator label (e.g. ``"groupby"``,
        ``"join:0"``).  Arrays are indexed by group/ match slot.
    selectivity:
        Estimated fraction of input rows a selection passes, keyed by
        operator label.  Used to size backward rid arrays.
    overestimate:
        Multiplier applied to estimates; the paper recommends >= 1.0 since
        underestimates re-trigger the resizing they were meant to avoid.
    """

    group_counts: Dict[str, np.ndarray] = field(default_factory=dict)
    selectivity: Dict[str, float] = field(default_factory=dict)
    overestimate: float = 1.0

    def group_count_for(self, label: str) -> Optional[np.ndarray]:
        counts = self.group_counts.get(label)
        if counts is None:
            return None
        if self.overestimate != 1.0:
            counts = np.ceil(counts * self.overestimate).astype(np.int64)
        return counts

    def selectivity_for(self, label: str) -> Optional[float]:
        sel = self.selectivity.get(label)
        if sel is None:
            return None
        return min(1.0, sel * self.overestimate)


def collect_group_counts(keys: np.ndarray, num_groups: Optional[int] = None) -> np.ndarray:
    """Exact per-group counts for integer group ids in ``[0, num_groups)``.

    This is what a statistics pass "piggy-backed on query processing"
    (paper Section 3.1) produces; Defer uses the same trick internally.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if num_groups is None:
        num_groups = int(keys.max()) + 1 if keys.size else 0
    return np.bincount(keys, minlength=num_groups).astype(np.int64)


def estimate_selectivity(values: np.ndarray, threshold: float, lo: float, hi: float) -> float:
    """Estimate P(value < threshold) assuming Uniform(lo, hi).

    Mirrors the paper's Smoke-I-EC selection experiment, which estimates the
    selectivity of ``v < ?`` as ``?/100`` for uniform v in [0, 100].
    """
    if hi <= lo:
        raise InvalidArgumentError("hi must exceed lo")
    return float(min(1.0, max(0.0, (threshold - lo) / (hi - lo))))


@dataclass(frozen=True)
class ColumnStats:
    """Value-distribution statistics of one stored column."""

    rows: int
    distinct: int

    @property
    def is_unique(self) -> bool:
        """True when every value occurs exactly once (a key column):
        any subset gather of the column is then also duplicate-free."""
        return self.distinct == self.rows


def collect_column_stats(values: np.ndarray) -> ColumnStats:
    """One-pass statistics for a column (piggy-backed like the paper's
    cardinality collection; cached per relation epoch by the catalog)."""
    values = np.asarray(values)
    if values.dtype == object:
        distinct = len(set(values.tolist()))
    else:
        distinct = int(np.unique(values).shape[0])
    return ColumnStats(rows=int(values.shape[0]), distinct=distinct)


#: Caller-side budget for *deriving* key uniqueness from column
#: statistics: computing :class:`ColumnStats` scans the whole base
#: column once per epoch, which is fine for lookup tables but an
#: unbounded latency spike if the cold hit lands inside an interactive
#: statement over a huge fact relation.  Above this row count callers
#: should report ``keys_unique=None`` (unknown) and let the cardinality
#: rule decide — only building on the unique side is forgone, never
#: correctness.
UNIQUENESS_PROBE_MAX_ROWS = 1 << 18


@dataclass(frozen=True)
class JoinSideStats:
    """What one hash-join input knows about itself before probing:
    its cardinality and — when derivable from base-table statistics —
    whether its join keys are unique (``None`` = unknown)."""

    rows: int
    keys_unique: Optional[bool] = None


@dataclass(frozen=True)
class BuildSideDecision:
    """Outcome of :func:`choose_build_side` for one join hop."""

    build_left: bool
    pkfk: bool  # the build keys are known unique (feeds a counter only)
    reason: str

    @property
    def swapped(self) -> bool:
        return not self.build_left


def choose_build_side(
    left: JoinSideStats, right: JoinSideStats, plan_pkfk: bool = False
) -> BuildSideDecision:
    """The per-hop build-side decision table.

    1. A plan-level ``pkfk`` flag asserts the *left* keys unique, so the
       build stays left.
    2. Exactly one side known unique → build there — this is how a
       unique *lineage* side (``Lb`` over a dimension table) becomes the
       pk-fk build the plan never asserted.
    3. Both unique → the smaller unique side (ties left).
    4. Neither known unique → the smaller side (ties left — the
       deterministic tie-break the unit tests pin).

    ``pkfk`` only feeds the ``late_mat_pkfk_detected`` counter: the
    join's key index finds unique build keys by itself and then probes
    with one gather per match
    (:func:`~repro.exec.vector.join.compute_matches`).
    """
    if plan_pkfk:
        return BuildSideDecision(True, True, "plan-pkfk")
    unique_left = left.keys_unique is True
    unique_right = right.keys_unique is True
    if unique_left and unique_right:
        if right.rows < left.rows:
            return BuildSideDecision(False, True, "unique-both-right-smaller")
        return BuildSideDecision(True, True, "unique-both-left")
    if unique_left:
        return BuildSideDecision(True, True, "unique-left")
    if unique_right:
        return BuildSideDecision(False, True, "unique-right")
    if right.rows < left.rows:
        return BuildSideDecision(False, False, "smaller-right")
    if left.rows < right.rows:
        return BuildSideDecision(True, False, "smaller-left")
    return BuildSideDecision(True, False, "tie-left")


def hints_from_lineage(lineage, relation: str, label: str) -> CardinalityHints:
    """Derive pre-allocation hints from a previous execution's lineage.

    The paper avoids offline statistics passes by collecting cardinalities
    *during query processing*; a captured backward index already holds the
    exact per-group cardinalities of the run that produced it, so repeated
    executions of the same (or a similar) query can pre-allocate from it —
    the speculative re-execution setting of Section 7's future work.
    """
    index = lineage.backward_index(relation)
    return CardinalityHints(group_counts={label: index.counts().astype(np.int64)})
