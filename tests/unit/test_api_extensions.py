"""Database.explain, multi-bar brushing, networkx bipartite export."""

import numpy as np
import pytest

from repro.apps.crossfilter import CrossfilterSession
from repro.apps.profiler import check_fd_smoke_cd
from repro.datagen import make_ontime_table, make_physician_table
from repro.api import Database
from repro.errors import WorkloadError


class TestExplain:
    def test_explain_shows_plan_tree(self, small_db):
        text = small_db.explain(
            "SELECT z, COUNT(*) AS c FROM zipf WHERE v < 10 GROUP BY z"
        )
        assert "GroupBy" in text
        assert "Select" in text
        assert "Scan(zipf)" in text

    def test_explain_join_shows_pkfk(self, small_db):
        text = small_db.explain(
            "SELECT * FROM gids, zipf WHERE gids.id = zipf.z"
        )
        assert "HashJoin" in text and "pkfk" in text


class TestBrushMany:
    @pytest.fixture(scope="class")
    def ontime(self):
        return make_ontime_table(8_000, seed=4)

    def test_all_techniques_agree_on_multi_brush(self, ontime):
        dims = ("carrier", "delay_bin")
        bars = [0, 2, 5]
        reference = None
        for technique in CrossfilterSession.TECHNIQUES:
            session = CrossfilterSession(ontime, dims, technique)
            got = session.brush_many("carrier", bars)
            if reference is None:
                reference = got
            else:
                for dim in got:
                    assert np.array_equal(got[dim], reference[dim]), technique

    def test_multi_brush_is_union_of_singles(self, ontime):
        session = CrossfilterSession(ontime, ("carrier", "delay_bin"), "bt+ft")
        singles = [session.brush("carrier", b)["delay_bin"] for b in (1, 3)]
        combined = session.brush_many("carrier", [1, 3])["delay_bin"]
        assert np.array_equal(combined, singles[0] + singles[1])

    def test_duplicate_bars_count_once_everywhere(self, ontime):
        """Set semantics: repeated bars must not double-count, on any
        technique or construction route."""
        db = Database()
        db.create_table("flights", ontime)
        for technique in CrossfilterSession.TECHNIQUES:
            direct = CrossfilterSession(ontime, ("carrier", "delay_bin"), technique)
            decl = CrossfilterSession.from_database(
                db, "flights", ("carrier", "delay_bin"), technique
            )
            expected = direct.brush_many("carrier", [1])["delay_bin"]
            for session in (direct, decl):
                got = session.brush_many("carrier", [1, 1])["delay_bin"]
                assert np.array_equal(got, expected), technique

    def test_multi_brush_validation(self, ontime):
        session = CrossfilterSession(ontime, ("carrier", "delay_bin"), "bt")
        with pytest.raises(WorkloadError):
            session.brush_many("carrier", [9999])
        with pytest.raises(WorkloadError):
            session.brush_many("altitude", [0])


class TestNetworkxExport:
    def test_bipartite_graph_structure(self):
        data = make_physician_table(5_000, seed=3)
        db = Database()
        db.create_table("physician", data.table)
        report = check_fd_smoke_cd(db, "physician", "NPI", "PAC_ID")
        graph = report.to_networkx()
        fd_nodes = [n for n, d in graph.nodes(data=True) if d["kind"] == "fd"]
        violation_nodes = [
            n for n, d in graph.nodes(data=True) if d["kind"] == "violation"
        ]
        tuple_nodes = [n for n, d in graph.nodes(data=True) if d["kind"] == "tuple"]
        assert len(fd_nodes) == 1
        assert len(violation_nodes) == report.num_violations
        # Every violation connects the FD node to >= 2 tuples.
        for node in violation_nodes:
            neighbors = list(graph.neighbors(node))
            assert fd_nodes[0] in neighbors
            assert len(neighbors) >= 3  # fd + at least two tuples

    def test_tuple_nodes_match_bipartite_rids(self):
        data = make_physician_table(5_000, seed=3)
        db = Database()
        db.create_table("physician", data.table)
        report = check_fd_smoke_cd(db, "physician", "Zip", "City")
        graph = report.to_networkx()
        expected = {int(r) for rids in report.bipartite.values() for r in rids}
        got = {n[1] for n, d in graph.nodes(data=True) if d["kind"] == "tuple"}
        assert got == expected


class TestDeclarativeCrossfilter:
    @pytest.fixture(scope="class")
    def db(self):
        table = make_ontime_table(6_000, seed=12)
        db = Database()
        db.create_table("flights", table)
        return db

    @pytest.mark.parametrize("technique", CrossfilterSession.TECHNIQUES)
    def test_from_database_matches_direct(self, db, technique):
        dims = ("carrier", "delay_bin")
        declarative = CrossfilterSession.from_database(
            db, "flights", dims, technique
        )
        direct = CrossfilterSession(db.table("flights"), dims, technique)
        for dim in dims:
            assert np.array_equal(
                declarative.views[dim].counts, direct.views[dim].counts
            )
            bars = declarative.views[dim].num_bars
            for bar in (0, bars - 1):
                got = declarative.brush(dim, bar)
                expected = direct.brush(dim, bar)
                for other in got:
                    assert np.array_equal(got[other], expected[other])

    def test_from_database_invalid_technique(self, db):
        with pytest.raises(WorkloadError):
            CrossfilterSession.from_database(db, "flights", ("carrier",), "nope")

class TestStarSchemaCrossfilter:
    """Joined (star-schema) dimensions: views bin on an attribute of a
    lookup table, interactions ride the pushed join path."""

    DIMS = ("carrier", "delay_bin", "region")

    @pytest.fixture(scope="class")
    def db(self):
        from repro.storage import Table

        table = make_ontime_table(6_000, seed=12)
        db = Database()
        db.create_table("flights", table)
        num_carriers = int(table.column("carrier").max()) + 1
        rng = np.random.default_rng(5)
        db.create_table(
            "carriers",
            Table({
                "carrier_id": np.arange(num_carriers, dtype=np.int64),
                "region": rng.integers(0, 4, num_carriers).astype(np.int64),
            }),
        )
        return db

    def _join(self):
        from repro.apps.crossfilter import DimensionJoin

        return {"region": DimensionJoin("carriers", "carrier", "carrier_id", "region")}

    def _region_of_row(self, db):
        region_of_carrier = db.table("carriers").column("region")
        return region_of_carrier[db.table("flights").column("carrier")]

    @pytest.mark.parametrize("technique", ("bt", "bt+ft"))
    def test_joined_view_counts_match_ground_truth(self, db, technique):
        session = CrossfilterSession.from_database(
            db, "flights", self.DIMS, technique, joins=self._join()
        )
        view = session.views["region"]
        row_region = self._region_of_row(db)
        for bar in range(view.num_bars):
            assert view.counts[bar] == int(
                (row_region == view.bin_values[bar]).sum()
            )
        session.close()

    @pytest.mark.parametrize("technique", ("bt", "bt+ft"))
    def test_brush_base_dim_updates_joined_view(self, db, technique):
        session = CrossfilterSession.from_database(
            db, "flights", self.DIMS, technique, joins=self._join()
        )
        view = session.views["delay_bin"]
        got = session.brush("delay_bin", 1)
        mask = db.table("flights").column("delay_bin") == view.bin_values[1]
        row_region = self._region_of_row(db)
        region_view = session.views["region"]
        expected = np.array([
            int((mask & (row_region == v)).sum())
            for v in region_view.bin_values
        ])
        assert np.array_equal(got["region"], expected)
        session.close()

    @pytest.mark.parametrize("technique", ("bt", "bt+ft"))
    def test_brush_joined_view_updates_base_dims(self, db, technique):
        session = CrossfilterSession.from_database(
            db, "flights", self.DIMS, technique, joins=self._join()
        )
        region_view = session.views["region"]
        got = session.brush("region", 0)
        row_region = self._region_of_row(db)
        mask = row_region == region_view.bin_values[0]
        carrier_view = session.views["carrier"]
        expected = np.array([
            int((mask & (db.table("flights").column("carrier") == v)).sum())
            for v in carrier_view.bin_values
        ])
        assert np.array_equal(got["carrier"], expected)
        session.close()

    def test_brush_many_on_joined_session(self, db):
        session = CrossfilterSession.from_database(
            db, "flights", self.DIMS, "bt+ft", joins=self._join()
        )
        singles = [session.brush("carrier", b)["region"] for b in (0, 2)]
        combined = session.brush_many("carrier", [0, 2])["region"]
        assert np.array_equal(combined, singles[0] + singles[1])
        session.close()

    def test_materialized_fallback_agrees(self, db):
        pushed = CrossfilterSession.from_database(
            db, "flights", self.DIMS, "bt", joins=self._join()
        )
        materialized = CrossfilterSession.from_database(
            db, "flights", self.DIMS, "bt",
            late_materialize=False, joins=self._join(),
        )
        for dim in self.DIMS:
            got = pushed.brush(dim, 0)
            expected = materialized.brush(dim, 0)
            for other in got:
                assert np.array_equal(got[other], expected[other])
        pushed.close()
        materialized.close()

    def test_joins_require_lineage_technique(self, db):
        for technique in ("lazy", "cube"):
            with pytest.raises(WorkloadError, match="lineage-backed"):
                CrossfilterSession.from_database(
                    db, "flights", self.DIMS, technique, joins=self._join()
                )

    def test_unknown_joined_dimension_rejected(self, db):
        with pytest.raises(WorkloadError, match="not in dimensions"):
            CrossfilterSession.from_database(
                db, "flights", ("carrier",), "bt", joins=self._join()
            )


class TestSnowflakeCrossfilter:
    """Snowflake (dim → sub-dim) dimensions: the binned attribute sits
    two lookup hops away from the fact table, so every view build and
    brush re-aggregation is a multi-join chain riding the flattened
    pushed rid-domain core."""

    DIMS = ("carrier", "delay_bin", "region_name")
    NUM_REGIONS = 4

    @pytest.fixture(scope="class")
    def db(self):
        from repro.storage import Table

        table = make_ontime_table(5_000, seed=7)
        db = Database()
        db.create_table("flights", table)
        num_carriers = int(table.column("carrier").max()) + 1
        rng = np.random.default_rng(8)
        db.create_table(
            "carriers",
            Table({
                "carrier_id": np.arange(num_carriers, dtype=np.int64),
                "region": rng.integers(
                    0, self.NUM_REGIONS, num_carriers
                ).astype(np.int64),
            }),
        )
        names = np.empty(self.NUM_REGIONS, dtype=object)
        names[:] = [f"region_{i}" for i in range(self.NUM_REGIONS)]
        db.create_table(
            "regions",
            Table({
                "region": np.arange(self.NUM_REGIONS, dtype=np.int64),
                "region_name": names,
            }),
        )
        return db

    def _join(self):
        from repro.apps.crossfilter import DimensionJoin

        return {
            "region_name": DimensionJoin(
                "regions", "region", "region", "region_name",
                parent=DimensionJoin(
                    "carriers", "carrier", "carrier_id", "region"
                ),
            )
        }

    def _region_name_of_row(self, db):
        region_of_carrier = db.table("carriers").column("region")
        names = db.table("regions").column("region_name")
        flights = db.table("flights")
        return names[region_of_carrier[flights.column("carrier")]]

    @pytest.mark.parametrize("technique", ("bt", "bt+ft"))
    def test_snowflake_view_counts_match_ground_truth(self, db, technique):
        session = CrossfilterSession.from_database(
            db, "flights", self.DIMS, technique, joins=self._join()
        )
        view = session.views["region_name"]
        row_name = self._region_name_of_row(db)
        for bar in range(view.num_bars):
            assert view.counts[bar] == int(
                (row_name == view.bin_values[bar]).sum()
            )
        session.close()

    @pytest.mark.parametrize("technique", ("bt", "bt+ft"))
    def test_brush_base_dim_updates_snowflake_view(self, db, technique):
        session = CrossfilterSession.from_database(
            db, "flights", self.DIMS, technique, joins=self._join()
        )
        view = session.views["delay_bin"]
        got = session.brush("delay_bin", 1)
        mask = db.table("flights").column("delay_bin") == view.bin_values[1]
        row_name = self._region_name_of_row(db)
        snow_view = session.views["region_name"]
        expected = np.array([
            int((mask & (row_name == v)).sum())
            for v in snow_view.bin_values
        ])
        assert np.array_equal(got["region_name"], expected)
        session.close()

    @pytest.mark.parametrize("technique", ("bt", "bt+ft"))
    def test_brush_snowflake_view_updates_base_dims(self, db, technique):
        session = CrossfilterSession.from_database(
            db, "flights", self.DIMS, technique, joins=self._join()
        )
        snow_view = session.views["region_name"]
        got = session.brush("region_name", 0)
        row_name = self._region_name_of_row(db)
        mask = row_name == snow_view.bin_values[0]
        carrier_view = session.views["carrier"]
        expected = np.array([
            int((mask & (db.table("flights").column("carrier") == v)).sum())
            for v in carrier_view.bin_values
        ])
        assert np.array_equal(got["carrier"], expected)
        session.close()

    def test_materialized_fallback_agrees(self, db):
        pushed = CrossfilterSession.from_database(
            db, "flights", self.DIMS, "bt", joins=self._join()
        )
        materialized = CrossfilterSession.from_database(
            db, "flights", self.DIMS, "bt",
            late_materialize=False, joins=self._join(),
        )
        for dim in self.DIMS:
            got = pushed.brush(dim, 0)
            expected = materialized.brush(dim, 0)
            for other in got:
                assert np.array_equal(got[other], expected[other])
        pushed.close()
        materialized.close()

    def test_snowflake_reaggregation_rides_the_chain_core(self, db):
        """The generated re-aggregation statement for the snowflake view
        is a 2-join chain executing as one pushed core."""
        session = CrossfilterSession.from_database(
            db, "flights", self.DIMS, "bt", joins=self._join(),
        )
        statement = session._view_statement("region_name", "carrier")
        res = db.sql(statement, params={"bars": [0]})
        assert res.timings.get("late_mat_joins") == 1.0
        assert res.timings.get("late_mat_chain_hops") == 1.0
        session.close()


class TestDeclarativeCrossfilterKeywords:
    @pytest.mark.parametrize("technique", CrossfilterSession.TECHNIQUES)
    def test_from_database_keyword_dimension_names(self, technique):
        """Dimensions named after SQL keywords answer through the
        generated SQL, which quotes every name, as the direct session
        does."""
        from repro.storage import Table

        rng = np.random.default_rng(2)
        table = Table({
            "year": rng.integers(2000, 2004, 3_000),
            "month": rng.integers(1, 13, 3_000),
        })
        db = Database()
        db.create_table("events", table)
        declarative = CrossfilterSession.from_database(
            db, "events", ("year", "month"), technique
        )
        direct = CrossfilterSession(table, ("year", "month"), technique)
        got = declarative.brush("year", 0)
        expected = direct.brush("year", 0)
        assert np.array_equal(got["month"], expected["month"])
