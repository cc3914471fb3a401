"""Lineage consuming queries in SQL: Lb(...) and Lf(...) as relations,
one-shot and *prepared*.

The paper's headline use case (Section 2.1) is queries whose *input* is
the lineage of a prior result.  This walkthrough registers a captured
aggregate under a name, then drives it entirely from SQL:

* ``FROM Lb(prev, 'sales')``        — the sales rows behind prev's output;
* ``FROM Lb(prev, 'sales', :bars)`` — only the rows behind selected bars;
* ``FROM Lf('sales', prev, :rows)`` — prev's output marks derived from
  selected base rows;
* aggregations, filters, DISTINCT, and joins compose over those scans
  like over any other relation, on both the vector and the compiled
  backend — and all of those shapes now execute **in the rid domain**
  (late materialization, :mod:`repro.plan.rewrite`): joins probe narrow
  key slices and gather payload only at matching rows, DISTINCT dedups
  the gathered slices before materializing anything full-width.

Execution is configured with one value, :class:`repro.ExecOptions`
(capture, backend, result name, pin, late materialization), passed as
``options=`` to ``sql``/``execute``/``prepare``/``session``.

The second half demonstrates the **prepared / session API**, the way
interactive workloads should issue these statements:

* ``db.prepare(stmt)`` caches lex/parse/bind and the late-materialization
  rewrite once; ``run(params=...)`` only binds ``:params`` (including the
  rid argument of ``Lb``/``Lf`` and ``IN :list`` selections);
* ``db.session()`` shares one lineage rid-resolution cache across all of
  a session's statements, so a brush's N per-view statements resolve the
  brushed rid set once — and repeated identical brushes, zero times.

Every step cross-checks against the Python-level lineage API and the
one-shot path, so this is an executable specification of the
SQL/lineage/prepared boundary.

Run:  python examples/lineage_consuming_queries.py
"""

import time

import numpy as np

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureConfig, CaptureMode
from repro.storage import Table

CAPTURE = ExecOptions(capture=CaptureMode.INJECT)


def main() -> None:
    db = Database()
    rng = np.random.default_rng(11)
    n = 20_000
    db.create_table(
        "sales",
        Table(
            {
                "region": rng.choice(
                    np.array(["north", "south", "east", "west"], dtype=object), n
                ),
                "product": rng.integers(0, 40, n),
                "amount": np.round(rng.random(n) * 500, 2),
            }
        ),
    )

    # 1. Base query with capture, registered for lineage-consuming SQL.
    prev = db.sql(
        "SELECT region, COUNT(*) AS orders FROM sales GROUP BY region",
        options=CAPTURE.with_(name="prev"),
    )
    print("Base query (registered as 'prev'):")
    for i in range(len(prev)):
        print(f"  {prev.table.column('region')[i]:>6}: "
              f"{prev.table.column('orders')[i]} orders")

    # 2. Lb as a relation: re-aggregate the rows behind one output bar.
    bar = 0
    drill = db.sql(
        "SELECT product, COUNT(*) AS c, SUM(amount) AS rev "
        "FROM Lb(prev, 'sales', :bars) GROUP BY product",
        params={"bars": [bar]},
    )
    region = prev.table.column("region")[bar]
    expected_rows = int((db.table("sales").column("region") == region).sum())
    assert int(np.sum(drill.table.column("c"))) == expected_rows
    print(f"\nDrill-down into bar {bar} ({region}): "
          f"{len(drill)} products over {expected_rows} rows")

    # 3. The same statement on the compiled backend is bit-identical.
    compiled = db.sql(
        "SELECT product, COUNT(*) AS c, SUM(amount) AS rev "
        "FROM Lb(prev, 'sales', :bars) GROUP BY product",
        params={"bars": [bar]},
        options=ExecOptions(backend="compiled"),
    )
    assert np.array_equal(compiled.table.column("c"), drill.table.column("c"))
    print("Compiled backend agrees with the vector backend.")

    # 4. Lineage of the lineage scan: the Lb statement is itself captured,
    #    so its output traces back to the scanned sales rows.
    traced = db.sql(
        "SELECT * FROM Lb(prev, 'sales', :bars)",
        params={"bars": [bar]},
        options=CAPTURE,
    )
    rids = traced.backward(np.arange(len(traced)), "sales")
    assert np.array_equal(rids, prev.backward([bar], "sales"))
    print(f"Lb scan lineage identifies the same {rids.size} base rows as "
          "the Python API.")

    # 5. Lf as a relation: which output marks derive from chosen base rows?
    rows = rids[:3]
    marks = db.sql(
        "SELECT * FROM Lf('sales', prev, :rows)",
        params={"rows": rows},
        options=CAPTURE,
    )
    highlighted = marks.backward(np.arange(len(marks)), "prev")
    assert np.array_equal(highlighted, prev.forward("sales", rows))
    print(f"Lf highlights marks {highlighted.tolist()} "
          "(matches QueryResult.forward).")

    # 6. Lineage scans join like any relation: pair surviving rows with a
    #    per-region label table.  The whole GROUP BY-over-join tree is
    #    *pushed through the join*: the Lb side resolves its rid set,
    #    gathers only `region` to probe, and `label` is gathered only at
    #    rows that matched — the traced subset is never materialized.
    db.create_table(
        "labels",
        Table({
            "region": np.array(["north", "south", "east", "west"], dtype=object),
            "label": np.array(["N", "S", "E", "W"], dtype=object),
        }),
    )
    joined = db.sql(
        "SELECT label, COUNT(*) AS c "
        "FROM Lb(prev, 'sales', :bars) JOIN labels "
        "ON sales.region = labels.region GROUP BY label",
        params={"bars": [bar]},
    )
    assert len(joined) == 1 and int(joined.table.column("c")[0]) == expected_rows
    assert joined.timings.get("late_mat_joins") == 1.0  # pushed join core
    print(f"Join over the lineage scan (pushed through the join): label "
          f"{joined.table.column('label')[0]!r} -> {expected_rows} rows")

    # 6a. Snowflake chains flatten into ONE pushed core: a second lookup
    #     hop (labels -> zones) makes the re-aggregation a multi-join
    #     chain, and the rewrite executes *all* hops in the rid domain —
    #     the inner join's output is never materialized; each hop probes
    #     narrow key columns and only `zone` is gathered at rows that
    #     survived every hop.  `late_mat_chain_hops` counts the joins
    #     beyond the first; build sides are chosen per hop from column
    #     statistics (both lookup keys here are unique, so both hops
    #     take the pk-fk fast probe the plan never asserted).
    db.create_table(
        "zones",
        Table({
            "label": np.array(["N", "S", "E", "W"], dtype=object),
            "zone": np.array([0, 1, 0, 1], dtype=np.int64),
        }),
    )
    chained = db.sql(
        "SELECT zone, COUNT(*) AS c FROM Lb(prev, 'sales', :bars) "
        "JOIN labels ON sales.region = labels.region "
        "JOIN zones ON labels.label = zones.label GROUP BY zone",
        params={"bars": [bar]},
    )
    assert chained.timings.get("late_mat_joins") == 1.0   # one chain core
    assert chained.timings.get("late_mat_chain_hops") == 1.0
    assert chained.timings.get("late_mat_pkfk_detected") == 2.0
    assert int(np.sum(chained.table.column("c"))) == expected_rows
    print(f"Snowflake chain (2 joins, one pushed core): "
          f"{len(chained)} zones over {expected_rows} rows")

    # 6b. DISTINCT dedups in the rid domain: one narrow gather of
    #     `product`, factorized to representatives — the full-width
    #     subset is never copied.  Fallback shapes that still
    #     materialize-then-scan: bare `SELECT * FROM Lb(...)` (nothing
    #     to push), ORDER BY / set operations at the root, θ-joins and
    #     cross products, and joins where *no* leaf is an
    #     Lb/Lf-with-filters chain.
    distinct = db.sql(
        "SELECT DISTINCT product FROM Lb(prev, 'sales', :bars)",
        params={"bars": [bar]},
        options=CAPTURE,
    )
    assert distinct.timings.get("late_mat_distincts") == 1.0
    # Backward over the deduplicated groups is still the full rid set.
    assert np.array_equal(
        distinct.backward(np.arange(len(distinct)), "sales"), rids
    )
    print(f"DISTINCT in the rid domain: {len(distinct)} products, lineage "
          f"still covers all {rids.size} traced rows.")

    # 7. Prepared statements: bind once, run many times.  ``run`` only
    #    fills the parameter slots — here the Lb rid argument and an
    #    ``IN :products`` value selection — into the cached plan.
    stmt = db.prepare(
        "SELECT product, COUNT(*) AS c FROM Lb(prev, 'sales', :bars) "
        "WHERE product IN :products GROUP BY product"
    )
    assert sorted(stmt.param_names) == ["bars", "products"]
    a = stmt.run(params={"bars": [bar], "products": [1, 2, 3]})
    b = db.sql(
        "SELECT product, COUNT(*) AS c FROM Lb(prev, 'sales', :bars) "
        "WHERE product IN :products GROUP BY product",
        params={"bars": [bar], "products": [1, 2, 3]},
    )
    assert a.table.to_rows() == b.table.to_rows()
    print(f"\nPrepared statement {stmt!r}\n  matches the one-shot path.")

    # 8. Sessions: a brush's statements share one rid-resolution cache.
    #    Both statements below trace (prev, 'sales', :bars) — the second
    #    one reuses the first one's resolved rid set, and a repeated
    #    brush reuses everything.
    sess = db.session(options=ExecOptions(
        capture=CaptureConfig.inject(forward=False)
    ))
    for _ in range(2):  # two identical "brushes"
        sess.sql("SELECT region FROM Lb(prev, 'sales', :bars)",
                 params={"bars": [bar]})
        sess.sql("SELECT product, COUNT(*) AS c "
                 "FROM Lb(prev, 'sales', :bars) GROUP BY product",
                 params={"bars": [bar]})
    stats = sess.lineage_cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 3
    print(f"Session lineage cache after 2 brushes x 2 statements: {stats} "
          "(one resolution served all four).")

    # 9. Re-registering 'prev' advances its epoch: the session re-resolves
    #    instead of serving stale rids, with no re-preparation needed.
    db.sql("SELECT region, COUNT(*) AS orders FROM sales GROUP BY region",
           options=CAPTURE.with_(name="prev"))
    sess.sql("SELECT region FROM Lb(prev, 'sales', :bars)",
             params={"bars": [bar]})
    assert sess.lineage_cache.stats()["misses"] == 2
    print("Epoch-based invalidation re-resolved after re-registration.")

    # 10. Late materialization + preparation: the drill-down statement is
    #     a GroupBy-over-Lb stack, so it runs in the rid domain — only
    #     `product` and `amount` are ever gathered — and the prepared
    #     path additionally skips re-parse/re-bind/re-match per run.
    #     Rows and lineage are identical on every path.
    text = ("SELECT product, COUNT(*) AS c, SUM(amount) AS rev "
            "FROM Lb(prev, 'sales', :bars) GROUP BY product")
    params = {"bars": [bar]}
    prepared = db.prepare(text)

    def timed(fn):
        start = time.perf_counter()
        for _ in range(20):
            res = fn()
        return res, (time.perf_counter() - start) / 20

    pushed, pushed_s = timed(lambda: db.sql(text, params=params))
    prepped, prepped_s = timed(lambda: prepared.run(params))
    materialized, materialized_s = timed(lambda: db.sql(
        text, params=params, options=ExecOptions(late_materialize=False)
    ))
    assert prepped.timings.get("late_mat_subtrees") == 1.0
    assert "late_mat_subtrees" not in materialized.timings
    assert prepped.table.to_rows() == pushed.table.to_rows()
    assert prepped.table.to_rows() == materialized.table.to_rows()
    print(f"\nDrill-down per run: prepared {prepped_s * 1e3:.2f}ms vs "
          f"one-shot pushed {pushed_s * 1e3:.2f}ms vs materialized "
          f"{materialized_s * 1e3:.2f}ms (identical rows and lineage).")

    print("\nAll lineage-consuming SQL cross-checks passed.")


if __name__ == "__main__":
    main()
