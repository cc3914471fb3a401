"""Applications: crossfilter, profiling, linked brushing."""

import numpy as np
import pytest

from repro.api import Database
from repro.apps import (
    CrossfilterSession,
    LinkedBrushingSession,
    check_fd,
    check_fd_metanome_ug,
    check_fd_smoke_cd,
    check_fd_smoke_ug,
)
from repro.datagen import make_ontime_table, make_physician_table
from repro.errors import WorkloadError
from repro.storage import Table
from repro.plan.logical import AggCall, GroupBy, Scan, col


@pytest.fixture(scope="module")
def ontime():
    return make_ontime_table(10_000, seed=9)


@pytest.fixture(scope="module")
def physician_db():
    data = make_physician_table(10_000, seed=21)
    db = Database()
    db.create_table("physician", data.table)
    return db, data


class TestCrossfilter:
    def test_initial_counts_match_numpy(self, ontime):
        session = CrossfilterSession(ontime, ("carrier", "delay_bin"), "bt+ft")
        view = session.views["carrier"]
        for bar in range(view.num_bars):
            expected = int(
                (ontime.column("carrier") == view.bin_values[bar]).sum()
            )
            assert view.counts[bar] == expected

    def test_all_techniques_agree(self, ontime):
        dims = ("carrier", "delay_bin", "date_bin")
        sessions = {
            t: CrossfilterSession(ontime, dims, t)
            for t in CrossfilterSession.TECHNIQUES
        }
        for dim in dims:
            bars = sessions["lazy"].views[dim].num_bars
            for bar in (0, bars // 2, bars - 1):
                results = {
                    t: s.brush(dim, bar) for t, s in sessions.items()
                }
                reference = results["lazy"]
                for t, got in results.items():
                    for other_dim, counts in got.items():
                        assert np.array_equal(counts, reference[other_dim]), (
                            t, dim, bar, other_dim,
                        )

    def test_brush_counts_are_ground_truth(self, ontime):
        session = CrossfilterSession(ontime, ("carrier", "delay_bin"), "bt+ft")
        view = session.views["carrier"]
        result = session.brush("carrier", 0)
        mask = ontime.column("carrier") == view.bin_values[0]
        other = session.views["delay_bin"]
        for bar in range(other.num_bars):
            expected = int(
                (mask & (ontime.column("delay_bin") == other.bin_values[bar])).sum()
            )
            assert result["delay_bin"][bar] == expected

    def test_cube_answers_without_lineage_indexes(self, ontime):
        session = CrossfilterSession(ontime, ("carrier", "delay_bin"), "cube")
        assert session.views["carrier"].backward is None
        assert session.brush("carrier", 1)["delay_bin"].sum() > 0

    def test_invalid_technique(self, ontime):
        with pytest.raises(WorkloadError):
            CrossfilterSession(ontime, ("carrier",), "magic")

    def test_invalid_dimension_and_bar(self, ontime):
        session = CrossfilterSession(ontime, ("carrier",), "lazy")
        with pytest.raises(WorkloadError):
            session.brush("altitude", 0)
        with pytest.raises(WorkloadError):
            session.brush("carrier", 10_000)

    def test_run_all_interactions_bounded(self, ontime):
        session = CrossfilterSession(ontime, ("carrier", "delay_bin"), "bt+ft")
        latencies = session.run_all_interactions(max_per_view=3)
        assert all(len(v) <= 3 for v in latencies.values())


class TestConcurrentCrossfilter:
    def _declarative(self, ontime):
        db = Database()
        db.create_table("ontime", ontime)
        session = CrossfilterSession.from_database(
            db, "ontime", ("carrier", "delay_bin"), "bt"
        )
        return db, session

    def test_concurrent_brush_matches_serial(self, ontime):
        db, session = self._declarative(ontime)
        with db.serve(readers=2) as server:
            concurrent = session.serve(server)
            for bar in (0, 1, 2):
                serial = session.brush("carrier", bar)
                parallel = concurrent.brush("carrier", bar)
                assert sorted(serial) == sorted(parallel)
                for dim, counts in serial.items():
                    assert np.array_equal(parallel[dim], counts)
        session.close()

    def test_brush_many_pins_one_snapshot(self, ontime):
        db, session = self._declarative(ontime)
        with db.serve(readers=2) as server:
            concurrent = session.serve(server)
            snap = server.snapshot()
            before = concurrent.brush_many("carrier", [0, 1], snapshot=snap)
            # A write lands; the pinned snapshot keeps answering pre-epoch.
            server.write(
                lambda d: d.create_table(
                    "junk",
                    Table({"z": np.array([1], dtype=np.int64)}),
                )
            )
            after = concurrent.brush_many("carrier", [0, 1], snapshot=snap)
            for dim in before:
                assert np.array_equal(before[dim], after[dim])
        session.close()

    def test_brush_batch_matches_per_user_brushes(self, ontime):
        db, session = self._declarative(ontime)
        with db.serve(readers=2) as server:
            concurrent = session.serve(server)
            bars_list = [[0, 1], [1, 2], [2], [], [0, 0, 3]]
            snap = server.snapshot()
            batched = concurrent.brush_batch(
                "carrier", bars_list, snapshot=snap
            )
            assert len(batched) == len(bars_list)
            for bars, per_user in zip(bars_list, batched):
                single = concurrent.brush_many(
                    "carrier", list(dict.fromkeys(bars)), snapshot=snap
                )
                assert sorted(per_user) == sorted(single)
                for dim, counts in single.items():
                    assert np.array_equal(per_user[dim], counts)
        session.close()

    def test_brush_batch_validates_inputs(self, ontime):
        db, session = self._declarative(ontime)
        with db.serve(readers=1) as server:
            concurrent = session.serve(server)
            assert concurrent.brush_batch("carrier", []) == []
            with pytest.raises(WorkloadError, match="unknown dimension"):
                concurrent.brush_batch("altitude", [[0]])
            with pytest.raises(WorkloadError, match="out of range"):
                concurrent.brush_batch("carrier", [[0], [10_000]])
        session.close()

    def test_requires_declarative_lineage_backed_session(self, ontime):
        direct = CrossfilterSession(ontime, ("carrier",), "bt")
        db, session = self._declarative(ontime)
        with db.serve(readers=1) as server:
            with pytest.raises(WorkloadError, match="declarative"):
                direct.serve(server)
            concurrent = session.serve(server)
            with pytest.raises(WorkloadError, match="unknown dimension"):
                concurrent.brush("altitude", 0)
            with pytest.raises(WorkloadError, match="out of range"):
                concurrent.brush("carrier", 10_000)
        session.close()


class TestProfiler:
    def test_cd_finds_exactly_planted_violations(self, physician_db):
        db, data = physician_db
        report = check_fd_smoke_cd(db, "physician", "NPI", "PAC_ID")
        assert set(map(int, report.violations)) == data.planted_violations["NPI"]

    def test_three_techniques_agree(self, physician_db):
        db, _ = physician_db
        for det, dep, _key in (
            ("NPI", "PAC_ID", "NPI"),
            ("Zip", "State", "Zip:State"),
            ("Zip", "City", "Zip:City"),
            ("LBN1", "CCN1", "LBN1"),
        ):
            cd = check_fd_smoke_cd(db, "physician", det, dep)
            ug = check_fd_smoke_ug(db, "physician", det, dep)
            mg = check_fd_metanome_ug(db, "physician", det, dep)
            assert set(map(str, cd.violations)) == set(map(str, ug.violations))
            assert set(map(str, cd.violations)) == set(mg.violations)

    def test_bipartite_graph_contains_all_value_rows(self, physician_db):
        db, _ = physician_db
        report = check_fd_smoke_cd(db, "physician", "Zip", "City")
        table = db.table("physician")
        for value, rids in report.bipartite.items():
            expected = np.nonzero(table.column("Zip") == value)[0]
            assert np.array_equal(np.sort(rids), expected)

    def test_bipartite_graphs_agree_across_techniques(self, physician_db):
        db, _ = physician_db
        cd = check_fd_smoke_cd(db, "physician", "LBN1", "CCN1")
        ug = check_fd_smoke_ug(db, "physician", "LBN1", "CCN1")
        for value in cd.bipartite:
            assert np.array_equal(
                np.sort(cd.bipartite[value]), np.sort(ug.bipartite[value])
            )

    def test_dispatch_by_name(self, physician_db):
        db, _ = physician_db
        report = check_fd(db, "physician", "NPI", "PAC_ID", "smoke-ug")
        assert report.technique == "smoke-ug"


class TestLinkedBrush:
    @pytest.fixture
    def session(self, small_db):
        s = LinkedBrushingSession(small_db, "zipf")
        s.add_view(
            "by_z",
            GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]),
        )
        s.add_view(
            "by_bucket",
            GroupBy(
                Scan("zipf"),
                [((col("v") / 25.0) * 0 + (col("z") * 0), "all")],
                [AggCall("count", None, "c")],
            ),
        )
        return s

    def test_brush_highlights_derived_marks(self, small_db, session):
        result = session.brush("by_z", [0])
        # The shared rids are exactly the rows of the brushed group.
        by_z = session.views["by_z"]
        expected = small_db.table("zipf").column("z") == by_z.table.column("z")[0]
        assert result.shared_rids.size == int(expected.sum())
        assert result.highlighted["by_bucket"].size == 1  # single bucket view

    def test_duplicate_view_name_rejected(self, small_db, session):
        with pytest.raises(WorkloadError):
            session.add_view("by_z", GroupBy(Scan("zipf"), [(col("z"), "z")], []))

    def test_unknown_view_brush(self, session):
        with pytest.raises(WorkloadError):
            session.brush("nope", [0])

    def test_view_must_read_shared_relation(self, small_db):
        s = LinkedBrushingSession(small_db, "zipf")
        with pytest.raises(WorkloadError):
            s.add_view(
                "wrong",
                GroupBy(
                    Scan("zipf2"), [(col("z"), "z")], [AggCall("count", None, "c")]
                ),
            )

    def test_sessions_with_equal_view_names_stay_isolated(self, small_db):
        """Two sessions on one Database reusing a view name must not
        redirect each other's brushes (session-unique registry names)."""
        s1 = LinkedBrushingSession(small_db, "zipf")
        s2 = LinkedBrushingSession(small_db, "zipf")
        plan1 = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
        plan2 = GroupBy(
            Scan("zipf"), [(col("z") * 0, "all")], [AggCall("count", None, "c")]
        )
        s1.add_view("v", plan1)
        s2.add_view("v", plan2)  # same name, different query
        expected = small_db.table("zipf").column("z") == s1.views["v"].table.column("z")[0]
        result = s1.brush("v", [0])
        assert result.shared_rids.size == int(expected.sum())

    def test_any_view_name_brushes_through_sql(self, small_db):
        """A view named ``by z`` (no SQL identifier) is registered and
        brushed through its prepared statements, and its answers equal
        the views' own lineage."""
        s = LinkedBrushingSession(small_db, "zipf")
        by_z = s.add_view(
            "by z",
            GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]),
        )
        by_all = s.add_view(
            "order",
            GroupBy(Scan("zipf"), [(col("z") * 0, "all")], [AggCall("count", None, "c")]),
        )
        assert sorted(s._sql_names.values()) == sorted(small_db.results())
        for marks in ([0], [1, 2]):
            result = s.brush("by z", marks)
            shared = by_z.lineage.backward(marks, "zipf")
            assert np.array_equal(np.sort(result.shared_rids), np.sort(shared))
            assert np.array_equal(
                np.sort(result.highlighted["order"]),
                np.unique(by_all.lineage.forward("zipf", shared)),
            )
        back = s.brush("order", [0])
        assert np.array_equal(
            np.sort(back.highlighted["by z"]), np.arange(len(by_z.table))
        )
        s.close()
        assert small_db.results() == []
        with pytest.raises(WorkloadError, match="unknown view"):
            s.brush("by z", [0])


class TestQuotedIdentifierSessions:
    """Declarative sessions quote every name they generate, so relations
    and dimensions named like keywords or with spaces run through the
    same SQL as any other."""

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(7)
        return Table({
            "year": rng.integers(2000, 2004, 3_000),
            "my col": rng.integers(0, 6, 3_000),
            "month": rng.integers(1, 13, 3_000),
        })

    DIMS = ("year", "my col", "month")

    def _db(self, table):
        db = Database()
        db.create_table("order", table)
        return db

    def _assert_equal(self, got, expected):
        assert sorted(got) == sorted(expected)
        for dim, counts in expected.items():
            assert np.array_equal(got[dim], counts), dim

    @pytest.mark.parametrize("technique", CrossfilterSession.TECHNIQUES)
    def test_session_equals_direct(self, table, technique):
        db = self._db(table)
        session = CrossfilterSession.from_database(db, "order", self.DIMS, technique)
        direct = CrossfilterSession(table, self.DIMS, technique)
        for dim in self.DIMS:
            assert np.array_equal(
                session.views[dim].counts, direct.views[dim].counts
            )
            for bars in ([0], [1, 0], [session.views[dim].num_bars - 1]):
                self._assert_equal(
                    session.brush_many(dim, bars), direct.brush_many(dim, bars)
                )
        registered = sorted(session._result_names.values())
        assert registered == sorted(db.results())
        assert len(registered) == (3 if technique in ("bt", "bt+ft") else 0)
        session.close()
        assert db.results() == []
        with pytest.raises(WorkloadError, match="unknown dimension"):
            session.brush("year", 0)

    def test_keyword_dimensions_ride_the_bar_memo(self, table):
        db = self._db(table)
        session = CrossfilterSession.from_database(db, "order", self.DIMS, "bt")
        results = []
        sql = db.sql

        def spy(*args, **kwargs):
            results.append(sql(*args, **kwargs))
            return results[-1]

        db.sql = spy
        session.brush("year", 0)
        assert len(results) == 2
        for res in results:
            assert "late_mat_memo_merge_s" in res.timings
        session.close()

    def test_concurrent_session_equals_direct(self, table):
        db = self._db(table)
        direct = CrossfilterSession(table, self.DIMS, "bt")
        for technique in ("bt", "bt+ft"):
            session = CrossfilterSession.from_database(
                db, "order", self.DIMS, technique
            )
            with db.serve(readers=1) as server:
                concurrent = session.serve(server)
                for dim in self.DIMS:
                    self._assert_equal(
                        concurrent.brush(dim, 1), direct.brush(dim, 1)
                    )
                    batch = concurrent.brush_batch(dim, [[0], [0, 2]])
                    self._assert_equal(batch[0], direct.brush(dim, 0))
                    self._assert_equal(batch[1], direct.brush_many(dim, [0, 2]))
            session.close()
