"""Late-materializing LineageScan: pushed vs materialized vs hand-rolled.

Crossfilter-style lineage-consuming statements (filter / narrow
projection / re-aggregation over ``Lb(view, 'ontime', :bars)``, plus the
star-schema join re-aggregation ``Lb(...) JOIN carriers``, the snowflake
**chain** re-aggregation ``Lb(...) JOIN carriers JOIN regions JOIN
continents`` — three joins flattened into one pushed rid-domain core —
and a DISTINCT projection) timed on three paths:

* **pushed** — the late-materialization rewrite (:mod:`repro.plan.rewrite`):
  operators run in the rid domain, gathering only the touched columns;
* **materialized** — the PR-1 path (``late_materialize=False``): the
  traced subset is copied full-width, then scanned;
* **hand-rolled** — the paper-style interaction kernel the rewrite is
  chasing: a direct backward-index probe plus numpy gather/bincount.

Per-benchmark median milliseconds are written to ``BENCH_latemat.json``
(override the path with ``BENCH_LATEMAT_PATH``) so CI and the roadmap can
track the pushed-path speedup as a machine-readable artifact.  A smoke
run at tiny ``REPRO_SCALE`` exercises all three paths and the equivalence
assertions; the ≥2x speedup gate only applies at full scale.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import Database, ExecOptions
from repro.bench.harness import scale, time_median
from repro.exec.timings import (
    LATE_MAT_CHAIN_HOPS,
    LATE_MAT_DISTINCTS,
    LATE_MAT_JOINS,
    LATE_MAT_SUBTREES,
)
from repro.lineage.capture import CaptureMode

#: The PR-1 materializing baseline (no lineage-scan push-down).
NO_PUSH = ExecOptions(late_materialize=False)

#: bench name -> {"pushed": ms, "materialized": ms, "hand_rolled": ms}
RESULTS = {}

REPEATS = dict(repeats=5, warmup=1)

NUM_CARRIERS = 29


#: Non-dimension columns carried by the benchmark relation.  The real BTS
#: ontime records hold ~110 fields; 12 payload columns (18 total) keeps
#: the dataset laptop-sized while making materialization width realistic
#: — the pushed path's whole point is not gathering these.
PAYLOAD_COLS = 12


#: Lookup-table regions for the star-schema join axis.
NUM_REGIONS = 5

#: Second-level lookups for the snowflake chain axis.
NUM_CONTINENTS = 3
NUM_HEMISPHERES = 2


@pytest.fixture(scope="module")
def latemat_db():
    from repro.bench.harness import scaled
    from repro.datagen import make_ontime_table
    from repro.storage import Table

    db = Database()
    db.create_table(
        "ontime", make_ontime_table(scaled(200_000), payload_cols=PAYLOAD_COLS)
    )
    # Star-schema lookup: carrier -> region (the joined crossfilter view).
    db.create_table(
        "carriers",
        Table({
            "carrier_id": np.arange(NUM_CARRIERS, dtype=np.int64),
            "region": (np.arange(NUM_CARRIERS, dtype=np.int64) % NUM_REGIONS),
        }),
    )
    # Snowflake hops: region -> continent -> hemisphere (the 3-join chain
    # axis; the binned attribute sits two lookups past the carrier dim,
    # like the other axes' binned-integer view attributes).
    db.create_table(
        "regions",
        Table({
            "region": np.arange(NUM_REGIONS, dtype=np.int64),
            "continent": (np.arange(NUM_REGIONS, dtype=np.int64) % NUM_CONTINENTS),
        }),
    )
    db.create_table(
        "continents",
        Table({
            "continent": np.arange(NUM_CONTINENTS, dtype=np.int64),
            "hemisphere": (
                np.arange(NUM_CONTINENTS, dtype=np.int64) % NUM_HEMISPHERES
            ),
        }),
    )
    db.sql(
        "SELECT latlon_bin, COUNT(*) AS cnt FROM ontime GROUP BY latlon_bin",
        options=ExecOptions(capture=CaptureMode.INJECT, name="view", pin=True),
    )
    return db


@pytest.fixture(scope="module", autouse=True)
def emit_json():
    yield
    medians_ms = {
        f"{name}_{variant}": ms
        for name, variants in sorted(RESULTS.items())
        for variant, ms in sorted(variants.items())
    }
    speedups = {
        name: round(v["materialized"] / v["pushed"], 2)
        for name, v in sorted(RESULTS.items())
        if v.get("pushed")
    }
    merge_bench_json(
        medians_ms, {"speedup_vs_materialized": speedups}
    )


def merge_bench_json(medians_ms, extra_sections=None):
    """Merge one bench module's medians into ``BENCH_latemat.json``.

    The artifact is shared by several modules (this one and
    ``bench_concurrent_brush.py``), each owning a disjoint key set;
    merging instead of overwriting lets either run standalone without
    erasing the other's axes.  A stale ``scale`` mismatch invalidates
    the whole file — mixed-scale medians are not comparable.

    The write is atomic (temp file in the same directory, then
    ``os.replace``): the old read-modify-``write_text`` could be torn by
    a concurrent merger — CI legs running bench modules in separate
    processes would race, and a reader (or the other merger's
    read-back) could observe a half-written artifact.  ``os.replace``
    makes each merge all-or-nothing; the last writer wins whole-file,
    never a byte-level interleaving."""
    path = Path(os.environ.get("BENCH_LATEMAT_PATH", "BENCH_latemat.json"))
    payload = {"scale": scale(), "medians_ms": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (ValueError, OSError):
            existing = {}
        if existing.get("scale") == scale():
            payload = existing
            payload.setdefault("medians_ms", {})
    payload["medians_ms"].update(medians_ms)
    payload["medians_ms"] = dict(sorted(payload["medians_ms"].items()))
    for section, values in (extra_sections or {}).items():
        payload[section] = values
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)


def _bars(db):
    # The heaviest bar (zipf rank 1) — the paper's worst-case brush.
    heavy = int(np.argmax(db.result("view").table.column("cnt")))
    return np.array([heavy], dtype=np.int64)


def _record(name, variant, fn):
    seconds = time_median(fn, **REPEATS)
    RESULTS.setdefault(name, {})[variant] = round(seconds * 1000, 4)
    return seconds


def _run_both_paths(db, name, statement, params):
    plan = db.parse(statement)
    pushed = db.execute(plan, params=params)
    materialized = db.execute(plan, params=params, options=NO_PUSH)
    assert pushed.timings.get(LATE_MAT_SUBTREES) == 1.0
    assert pushed.table.to_rows() == materialized.table.to_rows()
    _record(name, "pushed", lambda: db.execute(plan, params=params))
    _record(
        name,
        "materialized",
        lambda: db.execute(plan, params=params, options=NO_PUSH),
    )
    return pushed


def test_reaggregate(latemat_db):
    """The BT re-aggregation: GROUP BY over the brushed bar's lineage."""
    db = latemat_db
    bars = _bars(db)
    res = _run_both_paths(
        db,
        "reaggregate",
        "SELECT carrier, COUNT(*) AS cnt "
        "FROM Lb(view, 'ontime', :bars) GROUP BY carrier",
        {"bars": bars},
    )

    lineage = db.result("view").lineage
    table = db.table("ontime")

    def hand_rolled():
        rids = lineage.backward(bars, "ontime")
        return np.bincount(table.column("carrier")[rids], minlength=NUM_CARRIERS)

    counts = hand_rolled()
    assert int(counts.sum()) == int(res.table.column("cnt").sum())
    _record("reaggregate", "hand_rolled", hand_rolled)


def test_filter_aggregate(latemat_db):
    """Brush + predicate: the Lb-filter-aggregate acceptance shape."""
    db = latemat_db
    bars = _bars(db)
    res = _run_both_paths(
        db,
        "filter_aggregate",
        "SELECT carrier, COUNT(*) AS cnt FROM Lb(view, 'ontime', :bars) "
        "WHERE delay_bin >= 4 GROUP BY carrier",
        {"bars": bars},
    )

    lineage = db.result("view").lineage
    table = db.table("ontime")

    def hand_rolled():
        rids = lineage.backward(bars, "ontime")
        keep = table.column("delay_bin")[rids] >= 4
        return np.bincount(
            table.column("carrier")[rids[keep]], minlength=NUM_CARRIERS
        )

    counts = hand_rolled()
    assert int(counts.sum()) == int(res.table.column("cnt").sum())
    _record("filter_aggregate", "hand_rolled", hand_rolled)


def test_narrow_projection(latemat_db):
    """The linked-brush shape: one projected column behind the brush."""
    db = latemat_db
    bars = _bars(db)
    _run_both_paths(
        db,
        "narrow_projection",
        "SELECT date_bin FROM Lb(view, 'ontime', :bars) WHERE carrier = 1",
        {"bars": bars},
    )

    lineage = db.result("view").lineage
    table = db.table("ontime")

    def hand_rolled():
        rids = lineage.backward(bars, "ontime")
        keep = table.column("carrier")[rids] == 1
        return table.column("date_bin")[rids[keep]]

    _record("narrow_projection", "hand_rolled", hand_rolled)


def test_join_reaggregate(latemat_db):
    """The star-schema BT re-aggregation: GROUP BY over the brushed
    bar's lineage joined to the carrier lookup table — the join-pushed
    acceptance shape (only the fact join key is gathered to probe, only
    the joined attribute at matching rows)."""
    db = latemat_db
    bars = _bars(db)
    res = _run_both_paths(
        db,
        "join_reaggregate",
        "SELECT region, COUNT(*) AS cnt FROM Lb(view, 'ontime', :bars) "
        "JOIN carriers ON ontime.carrier = carriers.carrier_id "
        "GROUP BY region",
        {"bars": bars},
    )
    assert res.timings.get(LATE_MAT_JOINS) == 1.0

    lineage = db.result("view").lineage
    table = db.table("ontime")
    region_of_carrier = db.table("carriers").column("region")

    def hand_rolled():
        rids = lineage.backward(bars, "ontime")
        return np.bincount(
            region_of_carrier[table.column("carrier")[rids]],
            minlength=NUM_REGIONS,
        )

    counts = hand_rolled()
    assert int(counts.sum()) == int(res.table.column("cnt").sum())
    _record("join_reaggregate", "hand_rolled", hand_rolled)


def test_chain_reaggregate(latemat_db):
    """The snowflake-chain BT re-aggregation: GROUP BY over the brushed
    bar's lineage joined through **three** lookup hops (carrier → region
    → continent) — the whole chain flattens into one pushed rid-domain
    core (``late_mat_chain_hops == 2``: two joins beyond PR 4's single
    pushed join), probing narrow key columns per hop with stats-chosen
    build sides and gathering only ``hemisphere`` at chain-surviving
    rows."""
    db = latemat_db
    bars = _bars(db)
    res = _run_both_paths(
        db,
        "chain_reaggregate",
        "SELECT hemisphere, COUNT(*) AS cnt FROM Lb(view, 'ontime', :bars) "
        "JOIN carriers ON ontime.carrier = carriers.carrier_id "
        "JOIN regions ON carriers.region = regions.region "
        "JOIN continents ON regions.continent = continents.continent "
        "GROUP BY hemisphere",
        {"bars": bars},
    )
    assert res.timings.get(LATE_MAT_JOINS) == 1.0
    assert res.timings.get(LATE_MAT_CHAIN_HOPS) == 2.0

    lineage = db.result("view").lineage
    table = db.table("ontime")
    region_of_carrier = db.table("carriers").column("region")
    continent_of_region = db.table("regions").column("continent")
    hemisphere_of_continent = db.table("continents").column("hemisphere")

    def hand_rolled():
        rids = lineage.backward(bars, "ontime")
        return np.bincount(
            hemisphere_of_continent[
                continent_of_region[
                    region_of_carrier[table.column("carrier")[rids]]
                ]
            ],
            minlength=NUM_HEMISPHERES,
        )

    counts = hand_rolled()
    assert int(counts.sum()) == int(res.table.column("cnt").sum())
    _record("chain_reaggregate", "hand_rolled", hand_rolled)


def test_distinct_projection(latemat_db):
    """DISTINCT in the rid domain: dedup the brushed bar's carriers
    without materializing the full-width traced subset first."""
    db = latemat_db
    bars = _bars(db)
    res = _run_both_paths(
        db,
        "distinct_projection",
        "SELECT DISTINCT carrier FROM Lb(view, 'ontime', :bars)",
        {"bars": bars},
    )
    assert res.timings.get(LATE_MAT_DISTINCTS) == 1.0

    lineage = db.result("view").lineage
    table = db.table("ontime")

    def hand_rolled():
        rids = lineage.backward(bars, "ontime")
        return np.unique(table.column("carrier")[rids])

    assert hand_rolled().shape[0] == len(res.table)
    _record("distinct_projection", "hand_rolled", hand_rolled)


def test_wal_overhead(latemat_db, tmp_path_factory):
    """Durability tax: the full capture-query-plus-registration path on a
    durable database (WAL append + fsync before acknowledgment) vs the
    same path on a plain in-memory one.  Both run end-to-end — execute,
    capture, register — because that is the unit a crossfilter app pays
    per view registration."""
    statement = (
        "SELECT latlon_bin, COUNT(*) AS cnt FROM ontime GROUP BY latlon_bin"
    )
    opts = ExecOptions(capture=CaptureMode.INJECT, name="wal_probe")
    ontime = latemat_db.table("ontime")

    mem_db = Database()
    mem_db.create_table("ontime", ontime)
    dur_db = Database.open(tmp_path_factory.mktemp("walbench") / "state")
    dur_db.create_table("ontime", ontime)

    # A crossfilter interaction registers a burst of views; commit each
    # burst under one group fsync (the sanctioned amortization lever).
    # Interleave the two variants and take the median of the paired
    # ratios so page-cache warmup and background I/O drift hit both
    # sides alike instead of biasing the comparison.
    from repro.bench.harness import time_once

    burst = 4

    def mem_burst():
        for _ in range(burst):
            mem_db.sql(statement, options=opts)

    def dur_burst():
        with dur_db.durability.group_commit():
            for _ in range(burst):
                dur_db.sql(statement, options=opts)

    mem_burst()
    dur_burst()
    mem_times, dur_times, ratios = [], [], []
    for _ in range(9):
        mem_seconds = time_once(mem_burst)
        dur_seconds = time_once(dur_burst)
        mem_times.append(mem_seconds)
        dur_times.append(dur_seconds)
        ratios.append(dur_seconds / mem_seconds)
    mem = sorted(mem_times)[len(mem_times) // 2] / burst
    dur = sorted(dur_times)[len(dur_times) // 2] / burst
    dur_db.close()
    assert dur >= 0 and mem >= 0
    RESULTS["wal_overhead"] = {
        "in_memory": round(mem * 1000, 4),
        "durable": round(dur * 1000, 4),
        "overhead_x": round(sorted(ratios)[len(ratios) // 2], 2),
    }


def test_wal_overhead_gate(latemat_db):
    """Acceptance: fsync-on-commit registration stays within 1.3x of
    in-memory registration at the default bench scale (group commit is
    the sanctioned lever if a workload ever breaches this)."""
    if scale() < 1.0:
        pytest.skip("wal overhead gate applies at REPRO_SCALE >= 1 only")
    variants = RESULTS["wal_overhead"]
    assert variants["overhead_x"] <= 1.3, variants


def test_pushed_speedup_gate(latemat_db):
    """Acceptance: pushed ≥ 2x faster than materialized on the
    crossfilter-style filter-aggregate shapes — including the pushed
    *join* re-aggregation and the rid-domain DISTINCT — at the default
    bench scale (timing gates are meaningless at smoke scales)."""
    if scale() < 1.0:
        pytest.skip("speedup gate applies at REPRO_SCALE >= 1 only")
    for name in (
        "reaggregate",
        "filter_aggregate",
        "join_reaggregate",
        "chain_reaggregate",
        "distinct_projection",
    ):
        variants = RESULTS[name]
        assert variants["materialized"] >= 2.0 * variants["pushed"], (
            name,
            variants,
        )
