"""Concurrent brushing through the serving layer vs serialized R/W.

The paper's serving story (Section 6.5: many users brushing while
refreshes land) needs two numbers: what one thread pays when every
brush is serialized behind a refresh, and what N snapshot readers
sustain when the writer refreshes on its own cadence.  Four throughput
axes, all brushes/second on the same statement:

* ``serialized_rw`` — one thread alternating
  {refresh the base table + re-register the view; brush}: every brush
  pays a fresh epoch, the no-serving-layer baseline.
* ``readers_{1,4,8}`` — a
  :class:`~repro.serve.DatabaseServer` with a background writer doing
  the same refresh on a ~10 ms cadence while N reader threads brush a
  hot bar pool against pinned snapshots.  Within one epoch window the
  per-snapshot answer memo collapses repeated questions.  The reader
  axes are measured, not gated against each other: how far throughput
  grows from 1 to 8 readers depends on the CPU count.

Throughputs collect in the module's ``RESULTS`` dict, which the gates
read.  Gates apply at ``REPRO_SCALE >= 1`` only.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import Database, ExecOptions
from repro.bench.harness import scale, scaled
from repro.datagen import make_ontime_table
from repro.lineage.capture import CaptureMode
from repro.storage import Table

VIEW = "SELECT latlon_bin, COUNT(*) AS cnt FROM ontime GROUP BY latlon_bin"
BRUSH = (
    "SELECT carrier, COUNT(*) AS cnt "
    "FROM Lb(view, 'ontime', :bars) GROUP BY carrier"
)
VIEW_OPTS = ExecOptions(capture=CaptureMode.INJECT, name="view", pin=True)

PAYLOAD_COLS = 6
HOT_BARS = 8
WRITER_CADENCE_S = 0.010

#: brushes/second per axis, collected across tests for the gates.
RESULTS = {}


def _measure_seconds() -> float:
    # Long enough at full scale for several writer epochs per axis;
    # smoke runs just need every code path exercised once.
    return max(0.2, 0.8 * min(scale(), 1.0))


@pytest.fixture(scope="module")
def brush_db():
    db = Database()
    db.create_table(
        "ontime",
        make_ontime_table(scaled(200_000), payload_cols=PAYLOAD_COLS),
    )
    db.sql(VIEW, options=VIEW_OPTS)
    return db


def _refresh(db):
    """One write operation: bump a payload column in place
    (``preserve_rids`` — rids stay valid) and re-register the view
    (registry epoch bump — every cached brush answer goes stale)."""
    t = db.table("ontime")
    columns = {name: t.column(name) for name in t.schema.names}
    columns["payload0"] = columns["payload0"] + 1
    db.create_table(
        "ontime", Table(columns), replace=True, preserve_rids=True
    )
    db.sql(VIEW, options=VIEW_OPTS)


def _hot_bars(db):
    counts = np.asarray(db.result("view").table.column("cnt"))
    order = np.argsort(counts)[::-1][:HOT_BARS]
    return [np.array([int(bar)], dtype=np.int64) for bar in order]


def test_serialized_rw(brush_db):
    """Baseline: refresh-then-brush on one thread, no serving layer."""
    db = brush_db
    bars = _hot_bars(db)
    plan = db.parse(BRUSH)
    _refresh(db)
    db.execute(plan, params={"bars": bars[0]})  # warmup
    brushes = 0
    deadline = time.perf_counter() + _measure_seconds()
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        _refresh(db)
        res = db.execute(plan, params={"bars": bars[brushes % HOT_BARS]})
        assert res.table.num_rows >= 1
        brushes += 1
    RESULTS["serialized_rw"] = brushes / (time.perf_counter() - start)


@pytest.mark.parametrize("readers", [1, 4, 8])
def test_concurrent_readers(brush_db, readers):
    """N snapshot readers brushing hot bars while the writer refreshes
    on a fixed cadence."""
    db = brush_db
    bars = _hot_bars(db)
    stop = threading.Event()
    errors = []
    counts = [0] * readers

    with db.serve(readers=readers) as server:
        server.sql(BRUSH, params={"bars": bars[0]})  # warmup / prepare

        def writer():
            while not stop.is_set():
                try:
                    server.write(_refresh)
                except Exception as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)
                    return
                stop.wait(WRITER_CADENCE_S)

        def reader(slot):
            i = slot  # stagger starting bars across readers
            try:
                while not stop.is_set():
                    res = server.sql(BRUSH, params={"bars": bars[i % HOT_BARS]})
                    assert res.table.num_rows >= 1
                    counts[slot] += 1
                    i += 1
            except Exception as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(readers)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        time.sleep(_measure_seconds())
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        elapsed = time.perf_counter() - start

    assert not errors, errors[:3]
    total = sum(counts)
    assert total > 0, "readers never completed a brush"
    RESULTS[f"readers_{readers}"] = total / elapsed


BATCH_USERS = 8
BARS_PER_USER = 4


def _user_bars(order):
    """Per-user brush selections: 4 overlapping hot bars each (the
    paper's "bar or set of bars"), staggered so every hot bar is shared
    by 4 users — the crossfilter-typical overlap the per-bar batch pass
    amortizes."""
    return [
        np.array(
            [int(order[(u + k) % HOT_BARS]) for k in range(BARS_PER_USER)],
            dtype=np.int64,
        )
        for u in range(BATCH_USERS)
    ]


def test_batched_brush(brush_db):
    """Multi-brush batching: N users' same-view brushes coalesced into
    one per-bar pass — each distinct bar resolved once, group keys
    factorized once (``DatabaseServer.sql_batch``) — vs N independent
    ``sql`` calls.

    The answer memo is off in **both** arms: with it on, the unbatched
    loop would be measuring cache hits and the comparison would say
    nothing about the batch path.  Equivalence is asserted first —
    batched answers must be bit-identical to the per-user loop."""
    from repro.serve import DatabaseServer

    db = brush_db
    counts = np.asarray(db.result("view").table.column("cnt"))
    order = np.argsort(counts)[::-1][:HOT_BARS]
    bars_list = _user_bars(order)
    params_list = [{"bars": bars} for bars in bars_list]

    with DatabaseServer(db, readers=BATCH_USERS, memoize_answers=False) as server:
        singles = [server.sql(BRUSH, params=p) for p in params_list]
        batched = server.sql_batch(BRUSH, params_list)
        assert len(batched) == len(singles)
        for single, batch in zip(singles, batched, strict=True):
            assert single.table.to_rows() == batch.table.to_rows()
        assert server.stats()["batch_coalesced"] == 1

        deadline = time.perf_counter() + _measure_seconds()
        unbatched_brushes = 0
        start = time.perf_counter()
        while time.perf_counter() < deadline:
            for p in params_list:
                server.sql(BRUSH, params=p)
            unbatched_brushes += BATCH_USERS
        unbatched_elapsed = time.perf_counter() - start

        deadline = time.perf_counter() + _measure_seconds()
        batched_brushes = 0
        start = time.perf_counter()
        while time.perf_counter() < deadline:
            server.sql_batch(BRUSH, params_list)
            batched_brushes += BATCH_USERS
        batched_elapsed = time.perf_counter() - start

    RESULTS["unbatched_8users"] = unbatched_brushes / unbatched_elapsed
    RESULTS["batched_8users"] = batched_brushes / batched_elapsed


def test_batched_brush_gate(brush_db):
    """Acceptance: the batched path sustains >= 2x the unbatched loop at
    8 users on overlapping hot bars.  Holds even on one core — batching
    removes redundant resolution/gather/factorize work rather than
    relying on parallel hardware."""
    if scale() < 1.0:
        pytest.skip("batching gate applies at REPRO_SCALE >= 1 only")
    assert RESULTS["batched_8users"] >= 2.0 * RESULTS["unbatched_8users"], RESULTS


def test_concurrent_scaling_gate(brush_db):
    """Acceptance: 4 snapshot readers sustain >= 4x the serialized R/W
    baseline at the default bench scale (snapshots keep readers off the
    refresh path).  Reader-count scaling is not gated: it needs spare
    cores, and on a 2-CPU machine 8 readers measure below 1 reader."""
    if scale() < 1.0:
        pytest.skip("concurrency gates apply at REPRO_SCALE >= 1 only")
    assert RESULTS["readers_4"] >= 4.0 * RESULTS["serialized_rw"], RESULTS
