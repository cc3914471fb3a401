"""Hand-rolled numpy kernels: the yardstick and the answer check.

One kernel per statement shape the workloads issue, and one per view
query, written from the public ``QueryLineage`` / ``Table`` API only — a
backward-index probe, a gather, and ``bincount`` / ``unique``.  They are
what the paper's interaction code would do without a SQL layer, so

* their time is ``exec.late_mat.<shape>.hand_rolled_ms`` — the SQL path
  should cost a small, explained multiple of it;
* their answer is what every checked op must return.  A difference is a
  failed op, never an assertion crash.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

#: Lookup-table sizes of the join shapes (carrier -> region -> continent
#: -> hemisphere), as in ``benchmarks/bench_lineage_scan_late_mat.py``.
NUM_CARRIERS = 29
NUM_REGIONS = 5
NUM_CONTINENTS = 3
NUM_HEMISPHERES = 2

_OPS = {"=": operator.eq, ">=": operator.ge, "<": operator.lt}

_JOIN = "JOIN carriers ON ontime.carrier = carriers.carrier_id"
_CHAIN = (
    _JOIN
    + " JOIN regions ON carriers.region = regions.region"
    + " JOIN continents ON regions.continent = continents.continent"
)


@dataclass(frozen=True)
class Statement:
    """One lineage-consuming statement over ``Lb(view, 'ontime', :bars)``.

    ``column`` is what the statement groups by / projects; ``pred`` is an
    optional ``(column, op, constant)`` filter.  The SQL text and the
    numpy kernel are both derived from these fields, so they cannot
    drift apart."""

    shape: str
    view: str
    column: str
    pred: Optional[Tuple[str, str, int]] = None

    @property
    def text(self) -> str:
        source = f"FROM Lb({self.view}, 'ontime', :bars)"
        where = ""
        if self.pred is not None:
            where = f" WHERE {self.pred[0]} {self.pred[1]} {self.pred[2]}"
        if self.shape in ("reaggregate", "filter_aggregate"):
            return (
                f"SELECT {self.column}, COUNT(*) AS cnt {source}{where} "
                f"GROUP BY {self.column}"
            )
        if self.shape == "narrow_projection":
            return f"SELECT {self.column} {source}{where}"
        if self.shape == "distinct_projection":
            return f"SELECT DISTINCT {self.column} {source}"
        if self.shape == "join_reaggregate":
            return f"SELECT region, COUNT(*) AS cnt {source} {_JOIN} GROUP BY region"
        if self.shape == "chain_reaggregate":
            return (
                f"SELECT hemisphere, COUNT(*) AS cnt {source} {_CHAIN} "
                "GROUP BY hemisphere"
            )
        raise ValueError(f"unknown statement shape {self.shape!r}")


def lookup_columns() -> dict:
    """The three lookup tables of the join shapes, as column dicts."""
    carriers = np.arange(NUM_CARRIERS, dtype=np.int64)
    regions = np.arange(NUM_REGIONS, dtype=np.int64)
    continents = np.arange(NUM_CONTINENTS, dtype=np.int64)
    return {
        "carriers": {"carrier_id": carriers, "region": carriers % NUM_REGIONS},
        "regions": {"region": regions, "continent": regions % NUM_CONTINENTS},
        "continents": {
            "continent": continents,
            "hemisphere": continents % NUM_HEMISPHERES,
        },
    }


def _counts(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    counts = np.bincount(values)
    keys = np.flatnonzero(counts)
    return keys, counts[keys]


def kernel(stmt: Statement, lineage, ontime, lookups=None) -> Callable:
    """The hand-rolled answer to ``stmt`` as a function of ``bars``.

    Group-by shapes return ``(keys, counts)`` sorted by key; projections
    return the projected values (compared as multisets).  ``lookups`` maps lookup-table
    name to its ``Table`` (join shapes only)."""
    column = ontime.column(stmt.column)
    if stmt.pred is not None:
        pred_column = ontime.column(stmt.pred[0])
        compare, constant = _OPS[stmt.pred[1]], stmt.pred[2]

    if stmt.shape == "reaggregate":
        return lambda bars: _counts(column[lineage.backward(bars, "ontime")])

    if stmt.shape == "filter_aggregate":
        def filter_aggregate(bars):
            rids = lineage.backward(bars, "ontime")
            return _counts(column[rids[compare(pred_column[rids], constant)]])
        return filter_aggregate

    if stmt.shape == "narrow_projection":
        def narrow_projection(bars):
            rids = lineage.backward(bars, "ontime")
            return column[rids[compare(pred_column[rids], constant)]]
        return narrow_projection

    if stmt.shape == "distinct_projection":
        return lambda bars: np.unique(column[lineage.backward(bars, "ontime")])

    # Join shapes: ``column`` is the fact-side join key (carrier).
    region_of_carrier = lookups["carriers"].column("region")
    if stmt.shape == "join_reaggregate":
        return lambda bars: _counts(
            region_of_carrier[column[lineage.backward(bars, "ontime")]]
        )
    if stmt.shape == "chain_reaggregate":
        continent_of_region = lookups["regions"].column("continent")
        hemisphere_of_continent = lookups["continents"].column("hemisphere")
        return lambda bars: _counts(
            hemisphere_of_continent[
                continent_of_region[
                    region_of_carrier[column[lineage.backward(bars, "ontime")]]
                ]
            ]
        )
    raise ValueError(f"unknown statement shape {stmt.shape!r}")


def group_column(stmt: Statement) -> str:
    if stmt.shape == "join_reaggregate":
        return "region"
    if stmt.shape == "chain_reaggregate":
        return "hemisphere"
    return stmt.column


def answer_matches(stmt: Statement, table, expected) -> bool:
    """Does the engine's result ``table`` equal the kernel's ``expected``?"""
    name = group_column(stmt)
    if stmt.shape in ("narrow_projection", "distinct_projection"):
        return np.array_equal(np.sort(table.column(name)), np.sort(expected))
    keys, counts = expected
    got_keys = np.asarray(table.column(name))
    order = np.argsort(got_keys, kind="stable")
    return np.array_equal(got_keys[order], keys) and np.array_equal(
        np.asarray(table.column("cnt"))[order], counts
    )


def view_matches(result, ontime, dimension: str, bars) -> bool:
    """The view query ``SELECT d, COUNT(*) FROM ontime GROUP BY d`` and
    its captured lineage, against numpy alone: every group's count, and
    for each probed bar the exact contributing rids."""
    column = ontime.column(dimension)
    keys, counts = _counts(column)
    got_keys = np.asarray(result.table.column(dimension))
    order = np.argsort(got_keys, kind="stable")
    if not np.array_equal(got_keys[order], keys):
        return False
    if not np.array_equal(np.asarray(result.table.column("cnt"))[order], counts):
        return False
    for bar in bars:
        rids = result.lineage.backward(np.array([bar], dtype=np.int64), "ontime")
        if not np.array_equal(rids, np.flatnonzero(column == got_keys[bar])):
            return False
    return True
