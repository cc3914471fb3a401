"""Lineage consuming queries in SQL: Lb(...) and Lf(...) as relations,
as raw plans and as *prepared* statements.

The paper's headline use case (Section 2.1) is queries whose *input* is
the lineage of a prior result.  This walkthrough registers a captured
aggregate under a name, then drives it entirely from SQL:

* ``FROM Lb(prev, 'sales')``        — the sales rows behind prev's output;
* ``FROM Lb(prev, 'sales', :bars)`` — only the rows behind selected bars;
* ``FROM Lf('sales', prev, :rows)`` — prev's output marks derived from
  selected base rows;
* aggregations, filters, DISTINCT, and joins compose over those scans
  like over any other relation — and all of those shapes execute **in
  the rid domain** (late materialization, :mod:`repro.plan.rewrite`):
  joins probe narrow key slices and gather payload only at matching rows,
  DISTINCT dedups the gathered slices before materializing anything
  full-width.

Execution is configured with one value, :class:`repro.ExecOptions`
(capture, result name, pin, late materialization), passed as
``options=`` to ``sql``/``execute``/``prepare``/``session``.

The second half demonstrates the **prepared / session API**, the way
interactive workloads should issue these statements:

* ``db.prepare(stmt)`` caches lex/parse/bind and the late-materialization
  rewrite once; ``run(params=...)`` only binds ``:params`` (including the
  rid argument of ``Lb``/``Lf`` and ``IN :list`` selections);
* ``db.sql`` memoizes statements by text, and every capture-off brush
  over a GROUP BY view — through ``db.sql``, ``db.prepare`` or a
  ``db.session()`` — keeps a per-bar memo in the database's one cache:
  a bar's partial answer is computed once per statement, and a brush
  revisiting it merges the stored partial instead.

Every step cross-checks against the Python-level lineage API and the
uncached raw-plan path (``db.execute(db.parse(...))``), so this is an
executable specification of the SQL/lineage/prepared boundary.

Run:  python examples/lineage_consuming_queries.py
"""

import time

import numpy as np

from repro.api import Database, ExecOptions
from repro.lineage.capture import CaptureMode
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

    # 3. Lineage of the lineage scan: the Lb statement is itself captured,
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

    # 4. Lf as a relation: which output marks derive from chosen base rows?
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

    # 5. Lineage scans join like any relation: pair surviving rows with a
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

    # 5a. Snowflake chains flatten into ONE pushed core: a second lookup
    #     hop (labels -> zones) makes the re-aggregation a multi-join
    #     chain, and the rewrite executes *all* hops in the rid domain —
    #     the inner join's output is never materialized; each hop probes
    #     narrow key columns and only `zone` is gathered at rows that
    #     survived every hop.  `late_mat_chain_hops` counts the joins
    #     beyond the first; build sides are chosen per hop from column
    #     statistics (both lookup keys here are unique, so both hops
    #     build there: pk-fk joins the plan never asserted).
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

    # 5b. DISTINCT dedups in the rid domain: one narrow gather of
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

    # 6. Prepared statements: bind once, run many times.  ``run`` only
    #    fills the parameter slots — here the Lb rid argument and an
    #    ``IN :products`` value selection — into the cached plan.
    stmt = db.prepare(
        "SELECT product, COUNT(*) AS c FROM Lb(prev, 'sales', :bars) "
        "WHERE product IN :products GROUP BY product"
    )
    assert sorted(stmt.param_names) == ["bars", "products"]
    a = stmt.run(params={"bars": [bar], "products": [1, 2, 3]})
    b = db.execute(
        stmt.plan, params={"bars": [bar], "products": [1, 2, 3]}
    )
    assert a.table.to_rows() == b.table.to_rows()
    print(f"\nPrepared statement {stmt!r}\n  matches the raw-plan path.")

    # 7. Sessions: capture-off brushes keep per-bar memos in the
    #    database's one cache.  Each statement below fills bar `bar`
    #    once; the repeated brush merges the stored partials instead.
    sess = db.session()
    brush = ("SELECT region FROM Lb(prev, 'sales', :bars)",
             "SELECT product, COUNT(*) AS c "
             "FROM Lb(prev, 'sales', :bars) GROUP BY product")
    db.lineage_cache.invalidate()  # count this brush's traffic alone
    before = sess.lineage_cache.stats()

    def memo_traffic():
        after = sess.lineage_cache.stats()
        return {key: after[key] - before[key]
                for key in ("bar_fills", "bar_reuses", "revalidated")}

    for _ in range(2):  # two identical "brushes"
        answers = [sess.sql(text, params={"bars": [bar]}) for text in brush]
    assert memo_traffic() == {"bar_fills": 2, "bar_reuses": 2, "revalidated": 0}
    print(f"Per-bar memos after 2 brushes x 2 statements: {memo_traffic()} "
          "(each statement filled its bar once).")

    # 8. Re-registering 'prev' re-captures its lineage.  The memos' next
    #    lookup finds the new index bit-equal to the old one and
    #    re-stamps each memo (`revalidated`) instead of refilling it —
    #    with no re-preparation — and the answers equal the uncached
    #    raw-plan path's.
    db.sql("SELECT region, COUNT(*) AS orders FROM sales GROUP BY region",
           options=CAPTURE.with_(name="prev"))
    for text, answer in zip(brush, answers, strict=True):
        again = sess.sql(text, params={"bars": [bar]})
        raw = db.execute(db.parse(text), params={"bars": [bar]})
        assert again.table.to_rows() == answer.table.to_rows() == raw.table.to_rows()
    assert memo_traffic() == {"bar_fills": 2, "bar_reuses": 4, "revalidated": 2}
    print("Re-registration with identical lineage re-stamped both memos.")

    # 9. Late materialization + preparation: the drill-down statement is
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

    pushed, pushed_s = timed(lambda: db.execute(prepared.plan, params=params))
    prepped, prepped_s = timed(lambda: prepared.run(params))
    materialized, materialized_s = timed(lambda: db.execute(
        prepared.plan, params=params, options=ExecOptions(late_materialize=False)
    ))
    assert prepped.timings.get("late_mat_subtrees") == 1.0
    assert "late_mat_subtrees" not in materialized.timings
    assert prepped.table.to_rows() == pushed.table.to_rows()
    assert prepped.table.to_rows() == materialized.table.to_rows()
    print(f"\nDrill-down per run: prepared {prepped_s * 1e3:.2f}ms vs "
          f"raw-plan pushed {pushed_s * 1e3:.2f}ms vs materialized "
          f"{materialized_s * 1e3:.2f}ms (identical rows and lineage).")

    print("\nAll lineage-consuming SQL cross-checks passed.")


if __name__ == "__main__":
    main()
