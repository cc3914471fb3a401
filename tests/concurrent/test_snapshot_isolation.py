"""The serving layer's isolation property, stated as the paper's user
would: a brush racing a refresh returns the pre- or post-epoch answer
bit-identically — never a mix.

Hypothesis drives an interleaving: a writer applies a random op sequence
(in-place row updates via ``preserve_rids`` replacement, and view
re-registrations with a shifting filter threshold) while reader threads
brush pinned snapshots.  Every observed ``(version, bar, rows)`` record
is then checked against a *sequential replay*: a fresh single-threaded
database that applies the same op prefix and runs the same brush on the
compiled reference engine.
Replay is a valid oracle because every op is deterministic and the
serving version counts applied operations, so version ``base + j``
corresponds exactly to the replay state after ``ops[:j]``.
"""

import threading
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CaptureMode, Database, ExecOptions, Table
from reference import reference

N = 64
READERS = 2
PASSES = 2

VIEW = "SELECT z, SUM(w) AS s FROM t WHERE u <= :m GROUP BY z"
BRUSH = "SELECT z, SUM(w) AS s FROM Lb(v, 't', :bars) GROUP BY z"
INITIAL_M = 9


def _base_columns():
    # Rows 0..3 are one row per z group with u == 0, so every threshold
    # m >= 0 keeps all four groups and the view's group order (first
    # appearance) is always [0, 1, 2, 3] — bar indices stay stable.
    rng = np.random.default_rng(7)
    z = np.concatenate([np.arange(4), np.arange(4, N) % 4]).astype(np.int64)
    u = np.concatenate(
        [np.zeros(4, dtype=np.int64), rng.integers(0, 10, N - 4)]
    )
    w = np.arange(N, dtype=np.float64)
    return z, u, w


def _make_db():
    z, u, w = _base_columns()
    db = Database()
    db.create_table("t", Table({"z": z, "u": u, "w": w}))
    _register(db, INITIAL_M)
    return db


def _register(db, m):
    db.sql(
        VIEW,
        params={"m": int(m)},
        options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True),
    )


def _apply(db, op):
    """One writer operation — shared verbatim by the live server's write
    functions and the sequential replay oracle."""
    kind = op[0]
    if kind == "update":
        _, rids, delta = op
        t = db.table("t")
        w = t.column("w").copy()
        w[np.asarray(rids, dtype=np.int64)] += float(delta)
        db.create_table(
            "t",
            Table({"z": t.column("z"), "u": t.column("u"), "w": w}),
            replace=True,
            preserve_rids=True,
        )
    elif kind == "reregister":
        _register(db, op[1])
    else:  # pragma: no cover - strategy only emits the two kinds
        raise AssertionError(f"unknown op {op!r}")


def _brush(runner, bar, **kwargs):
    res = runner(BRUSH, params={"bars": np.array([bar], dtype=np.int64)}, **kwargs)
    table = res.table
    names = tuple(table.schema.names)
    return (
        names,
        tuple(np.asarray(table.column(name)).dtype.str for name in names),
        tuple(
            tuple(np.asarray(table.column(name)).tolist()) for name in names
        ),
    )


_update_op = st.tuples(
    st.just("update"),
    st.lists(st.integers(0, N - 1), min_size=1, max_size=8, unique=True).map(
        tuple
    ),
    st.integers(-3, 3),
)
_rereg_op = st.tuples(st.just("reregister"), st.integers(0, 9))
_ops = st.lists(st.one_of(_update_op, _rereg_op), min_size=1, max_size=5)
_bar_sets = st.lists(
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    min_size=READERS,
    max_size=READERS,
)


class TestSnapshotIsolationProperty:
    @given(ops=_ops, bar_sets=_bar_sets)
    @settings(deadline=None)
    def test_brush_racing_refresh_is_bit_identical(self, ops, bar_sets):
        db = _make_db()
        records = []
        failures = []

        with db.serve(readers=READERS) as server:
            base_version = server.snapshot().version

            def reader(bars):
                try:
                    for _ in range(PASSES):
                        snap = server.snapshot()
                        for bar in bars:
                            rows = _brush(server.sql, bar, snapshot=snap)
                            records.append((snap.version, bar, rows))
                except Exception as exc:  # any reader error is a failure
                    failures.append(exc)

            threads = [
                threading.Thread(target=reader, args=(bars,))
                for bars in bar_sets
            ]
            for thread in threads:
                thread.start()
            for op in ops:
                server.write(lambda d, op=op: _apply(d, op))
            for thread in threads:
                thread.join(timeout=60)

        assert not failures, failures[:3]
        assert records, "readers never completed a brush"

        # Sequential replay oracle: one fresh database per observed
        # version, same op prefix, same one-shot brush.
        expected = {}
        for version, bar, rows in records:
            j = version - base_version
            assert 0 <= j <= len(ops), (
                f"snapshot version {version} outside the applied-op range"
            )
            if (j, bar) not in expected:
                replay = _make_db()
                for op in ops[:j]:
                    _apply(replay, op)
                expected[(j, bar)] = _brush(partial(reference, replay), bar)
            assert rows == expected[(j, bar)], (
                f"snapshot v{version} (op prefix {j}) bar {bar}: "
                f"observed {rows} != replay {expected[(j, bar)]}"
            )
