"""Provenance semantics and view refresh on top of lineage (Appendices E/§7).

Reproduces the paper's Appendix E example — customers joined with orders,
aggregated per (customer, product) — and derives which-, why-, and
how-provenance from the very same rid indexes.  Then demonstrates
*refresh*: when base rows change, forward lineage pinpoints the affected
view rows and the view is repaired incrementally instead of re-running
the query.

Run:  python examples/provenance_and_refresh.py
"""

import numpy as np

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.lineage.refresh import AggregateRefresher
from repro.lineage.semantics import (
    how_provenance,
    which_provenance,
    why_provenance,
)
from repro.plan.logical import AggCall, GroupBy, HashJoin, Scan, col
from repro.storage import Table

INJECT = ExecOptions(capture=CaptureMode.INJECT)


def appendix_e() -> None:
    print("== Appendix E: provenance semantics ==")
    db = Database()
    db.create_table("A", Table({"cid": [1, 2], "cname": ["Bob", "Alice"]}))
    db.create_table(
        "B",
        Table({"oid": [1, 2, 3], "cid": [1, 1, 2],
               "pname": ["iPhone", "iPhone", "XBox"]}),
    )
    plan = GroupBy(
        HashJoin(Scan("A"), Scan("B"), ("cid",), ("cid",), pkfk=True),
        keys=[(col("cname"), "cname"), (col("pname"), "pname")],
        aggs=[AggCall("count", None, "cnt")],
    )
    res = db.execute(plan, options=INJECT)
    print(res.table.pretty())
    for o in range(len(res.table)):
        name = res.table.column("cname")[o]
        which = which_provenance(res.lineage, o, ["A", "B"])
        why = why_provenance(res.lineage, o, ["A", "B"])
        how = how_provenance(res.lineage, o, ["A", "B"])
        print(f"\n  output {o} ({name}):")
        print(f"    which: A={which['A'].tolist()} B={which['B'].tolist()}")
        print(f"    why:   {why}")
        print(f"    how:   {how}")


def refresh_demo() -> None:
    print("\n== Refresh: repairing a view from forward lineage ==")
    db = Database()
    rng = np.random.default_rng(3)
    n = 100_000
    db.create_table(
        "metrics",
        Table({"sensor": rng.integers(0, 200, n),
               "reading": np.round(rng.random(n) * 100, 3)}),
    )
    plan = GroupBy(
        Scan("metrics"),
        [(col("sensor"), "sensor")],
        [
            AggCall("count", None, "n"),
            AggCall("sum", col("reading"), "total"),
            AggCall("max", col("reading"), "peak"),
        ],
    )
    res = db.execute(plan, options=INJECT)
    refresher = AggregateRefresher(db, plan, res)

    # A late-arriving correction rewrites 50 readings.
    rids = rng.choice(n, size=50, replace=False)
    fixed = db.table("metrics").take(rids)
    fixed = fixed.with_column("reading", np.asarray(fixed.column("reading")) * 0.5)

    import time

    t0 = time.perf_counter()
    view, affected = refresher.refresh(rids, fixed)
    t_refresh = time.perf_counter() - t0
    t0 = time.perf_counter()
    recomputed = db.execute(plan).table
    t_rerun = time.perf_counter() - t0

    assert np.allclose(view.column("total"), recomputed.column("total"))
    assert np.allclose(view.column("peak"), recomputed.column("peak"))
    print(f"  50 corrected readings touched {affected.size} of "
          f"{len(view)} view rows")
    print(f"  refresh: {t_refresh*1000:6.2f}ms vs full re-run: "
          f"{t_rerun*1000:6.2f}ms (identical results)")


if __name__ == "__main__":
    appendix_e()
    refresh_demo()
