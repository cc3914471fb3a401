"""Figure 14: per-interaction crossfilter latency per view.

Paper shape: BT+FT under the 150ms threshold for all but a handful of
very-high-lineage bars; spatiotemporal views respond <10ms.

Beyond the paper's four hand-rolled techniques, two declarative axes
run the BT interaction as lineage-consuming SQL over registered views
(``CrossfilterSession.from_database``):

* ``sql-prepared`` — ``Database.sql``'s memoized path: per-view
  statements are parsed/bound/rewritten once, ``:bars`` binds into the
  cached plan, the late-materializing rewrite executes each
  re-aggregation in the rid domain (:mod:`repro.plan.rewrite`), and
  each ``COUNT(*)`` statement merges the brushed bars' partials from its
  per-bar memo in the database's
  :class:`~repro.lineage.cache.LineageResolutionCache`;
* ``sql-materialized`` — the same statements with the rewrite disabled,
  i.e. the materialize-then-scan baseline: every statement resolves the
  brushed rid set from the view's index and copies the traced subset.

Two further axes add a *star-schema* view (``carrier_region``: the
carrier's region, an attribute of a joined ``carriers`` lookup table).
Every brush then updates that view with a join-shaped lineage-consuming
statement — ``GROUP BY`` over ``Lb(view, 'ontime', :bars) JOIN
carriers`` — which the rewrite pushes *through the join*:

* ``sql-pushed-join`` — sessions with the joined view on the
  late-materializing path (narrow key probe, payload gathered at
  matching rows only);
* ``sql-materialized-join`` — identical sessions with only the
  rewrite disabled, so the axis pair isolates the join push itself:
  every join-shaped interaction materializes the full-width traced
  subset before joining.

A final axis adds a *snowflake* view (``region_name``: an attribute two
lookup hops from the fact table, ``ontime → carriers → regions``).  Its
per-brush re-aggregation is a multi-join chain — ``GROUP BY`` over
``Lb(view, 'ontime', :bars) JOIN carriers JOIN regions`` — which the
rewrite flattens into **one** pushed rid-domain core with stats-chosen
build sides per hop:

* ``sql-pushed-chain`` — snowflake sessions on the
  late-materializing chain path (before the chain rewrite, the outer
  join fell back to materializing the inner join's full output).

Comparing those against ``bt`` shows how close crossfilter-over-SQL gets
to the hand-rolled kernels: pushing materialization away closes most of
the gap, and the memoized statements close most of the rest on
repeated-brush traffic.
"""

import numpy as np
import pytest

from conftest import ROUNDS

from repro.api import Database
from repro.apps.crossfilter import CrossfilterSession, DimensionJoin
from repro.datagen import VIEW_DIMENSIONS
from repro.datagen.ontime import NUM_CARRIERS
from repro.storage import Table

TECHNIQUES = (
    "lazy", "bt", "bt+ft", "cube",
    "sql-prepared", "sql-materialized",
    "sql-pushed-join", "sql-materialized-join", "sql-pushed-chain",
)

#: The star-schema axes' dimensions: the four fact views plus a view
#: binned on the joined carriers.region attribute.
JOIN_DIMENSIONS = VIEW_DIMENSIONS + ("carrier_region",)
CARRIER_JOIN = {
    "carrier_region": DimensionJoin(
        "carriers", "carrier", "carrier_id", "region"
    )
}

#: The snowflake axis' dimensions: the binned attribute lives two lookup
#: hops out (ontime.carrier -> carriers.region -> regions.region_name).
NUM_REGIONS = 5
CHAIN_DIMENSIONS = VIEW_DIMENSIONS + ("region_name",)
SNOWFLAKE_JOIN = {
    "region_name": DimensionJoin(
        "regions", "region", "region", "region_name",
        parent=DimensionJoin("carriers", "carrier", "carrier_id", "region"),
    )
}

#: Every dimension any axis exposes (tests skip absent ones per session).
ALL_DIMENSIONS = VIEW_DIMENSIONS + ("carrier_region", "region_name")


@pytest.fixture(scope="module")
def sessions(ontime_table):
    built = {
        t: CrossfilterSession(ontime_table, VIEW_DIMENSIONS, t)
        for t in ("lazy", "bt", "bt+ft", "cube")
    }
    db = Database()
    db.create_table("ontime", ontime_table)
    db.create_table(
        "carriers",
        Table({
            "carrier_id": np.arange(NUM_CARRIERS, dtype=np.int64),
            "region": (np.arange(NUM_CARRIERS, dtype=np.int64) % 5),
        }),
    )
    built["sql-prepared"] = CrossfilterSession.from_database(
        db, "ontime", VIEW_DIMENSIONS, "bt", late_materialize=True,
    )
    built["sql-materialized"] = CrossfilterSession.from_database(
        db, "ontime", VIEW_DIMENSIONS, "bt", late_materialize=False,
    )
    built["sql-pushed-join"] = CrossfilterSession.from_database(
        db, "ontime", JOIN_DIMENSIONS, "bt", late_materialize=True,
        joins=CARRIER_JOIN,
    )
    built["sql-materialized-join"] = CrossfilterSession.from_database(
        db, "ontime", JOIN_DIMENSIONS, "bt", late_materialize=False,
        joins=CARRIER_JOIN,
    )
    region_names = np.empty(NUM_REGIONS, dtype=object)
    region_names[:] = [f"region_{i}" for i in range(NUM_REGIONS)]
    db.create_table(
        "regions",
        Table({
            "region": np.arange(NUM_REGIONS, dtype=np.int64),
            "region_name": region_names,
        }),
    )
    built["sql-pushed-chain"] = CrossfilterSession.from_database(
        db, "ontime", CHAIN_DIMENSIONS, "bt", late_materialize=True,
        joins=SNOWFLAKE_JOIN,
    )
    return built


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("dimension", list(ALL_DIMENSIONS))
def test_fig14_single_interaction(benchmark, sessions, technique, dimension):
    session = sessions[technique]
    if dimension not in session.views:
        pytest.skip("joined dimension exists on the -join/-chain axes only")
    bars = session.views[dimension].num_bars

    def run():
        session.brush(dimension, 0)          # heaviest bar (zipf rank 1)
        session.brush(dimension, bars - 1)   # lightest bar

    benchmark.pedantic(run, **ROUNDS)
