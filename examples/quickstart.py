"""Quickstart: capture lineage during a query, then query the lineage.

Builds a small sales table, runs an aggregation with Smoke's Inject
instrumentation, and walks through backward queries, forward queries, and
a lineage consuming query — the three constructs of the paper's Section 2.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
from repro.storage import Table


def main() -> None:
    db = Database()
    rng = np.random.default_rng(7)
    n = 10_000
    db.create_table(
        "sales",
        Table(
            {
                "region": rng.choice(
                    np.array(["north", "south", "east", "west"], dtype=object), n
                ),
                "product": rng.integers(0, 50, n),
                "amount": np.round(rng.random(n) * 500, 2),
            }
        ),
    )

    # 1. Base query with lineage capture (Smoke-I).
    result = db.sql(
        "SELECT region, COUNT(*) AS orders, SUM(amount) AS revenue "
        "FROM sales GROUP BY region",
        options=ExecOptions(capture=CaptureMode.INJECT),
    )
    print("Base query output:")
    print(result.table.pretty())
    print()

    # 2. Backward lineage: which input rows produced the first bar?
    region = result.table.column("region")[0]
    rids = result.backward([0], "sales")
    print(f"Backward lineage of the {region!r} bar: {rids.size} input rows")
    assert rids.size == result.table.column("orders")[0]

    # 3. Forward lineage: which output row does input row 123 feed?
    out = result.forward("sales", [123])
    print(f"Input row 123 (region={db.table('sales').column('region')[123]!r}) "
          f"feeds output row {int(out[0])}")

    # 4. A lineage consuming query: drill into the bar's rows by product.
    subset = result.backward_table([0], "sales")
    db.create_table("bar0", subset, replace=True)
    drill = db.sql(
        "SELECT product, SUM(amount) AS revenue FROM bar0 "
        "GROUP BY product HAVING SUM(amount) > 1000"
    )
    print(f"\nDrill-down into {region!r} (products with >$1000 revenue):")
    print(drill.table.pretty(limit=5))

    # 5. The same engine runs without capture (the paper's Baseline) and
    #    with Defer, which finalizes indexes lazily after the base query.
    baseline = db.sql(
        "SELECT region, COUNT(*) AS orders FROM sales GROUP BY region"
    )
    deferred = db.sql(
        "SELECT region, COUNT(*) AS orders FROM sales GROUP BY region",
        options=ExecOptions(capture=CaptureMode.DEFER),
    )
    deferred.backward([0], "sales")  # triggers finalization
    print(f"\nBaseline ran in {baseline.execute_seconds*1000:.2f}ms; "
          f"Defer base query {deferred.execute_seconds*1000:.2f}ms "
          f"+ {deferred.lineage.finalize_seconds*1000:.2f}ms deferred capture")


if __name__ == "__main__":
    main()
