"""Failure injection and edge cases across the public surface."""

import numpy as np
import pytest

from repro.api import Database, ExecOptions
from repro.errors import (
    CatalogError,
    LineageError,
    PlanError,
    ReproError,
    SchemaError,
    SqlError,
)
from repro.lineage.capture import CaptureMode
from repro.plan.logical import AggCall, GroupBy, HashJoin, Scan, Select, col
from repro.storage import Table
from reference import reference

INJECT = ExecOptions(capture=CaptureMode.INJECT)


class TestErrorTaxonomy:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (CatalogError, LineageError, PlanError, SchemaError, SqlError):
            assert issubclass(exc, ReproError)

    def test_sql_error_carries_position(self):
        from repro.sql.lexer import tokenize

        with pytest.raises(SqlError) as info:
            tokenize("select 'unterminated")
        assert info.value.position == 7


class TestCatalog:
    def test_duplicate_registration(self, small_db):
        with pytest.raises(CatalogError, match="already exists"):
            small_db.create_table("zipf", Table({"a": [1]}))

    def test_replace_allows_overwrite(self, small_db):
        small_db.create_table("zipf", Table({"a": [1]}), replace=True)
        assert small_db.table("zipf").schema.names == ["a"]

    def test_drop_unknown(self, small_db):
        with pytest.raises(CatalogError):
            small_db.drop_table("ghost")

    def test_invalid_name(self, small_db):
        with pytest.raises(CatalogError, match="invalid"):
            small_db.create_table("not a name!", Table({"a": [1]}))

    def test_non_table_refused_before_any_change(self, small_db):
        catalog = small_db.catalog
        tables, epochs = {n: catalog.get(n) for n in catalog}, catalog.epochs_snapshot()
        for replace in (False, True):
            with pytest.raises(SchemaError, match="must be a Table"):
                small_db.create_table("zipf", {"a": [1]}, replace=replace)
            with pytest.raises(SchemaError, match="must be a Table"):
                small_db.create_table("fresh", {"a": [1]})
        assert {n: catalog.get(n) for n in catalog} == tables
        assert catalog.epochs_snapshot() == epochs

    def test_tables_listing(self, small_db):
        assert set(small_db.tables()) == {"zipf", "gids", "zipf2"}


class TestEmptyRelations:
    @pytest.fixture
    def empty_db(self):
        db = Database()
        db.create_table(
            "empty", Table({"k": np.empty(0, dtype=np.int64), "v": np.empty(0)})
        )
        db.create_table("one", Table({"k": [1], "v": [2.0]}))
        return db

    def test_select_over_empty(self, empty_db):
        res = empty_db.sql(
            "SELECT * FROM empty WHERE v > 0", options=INJECT
        )
        assert len(res) == 0
        assert res.lineage.backward_index("empty").num_keys == 0

    def test_groupby_over_empty(self, empty_db):
        res = empty_db.sql(
            "SELECT k, COUNT(*) AS c FROM empty GROUP BY k",
            options=INJECT,
        )
        assert len(res) == 0

    def test_join_with_empty_side(self, empty_db):
        plan = HashJoin(Scan("one"), Scan("empty"), ("k",), ("k",), pkfk=True)
        res = empty_db.execute(plan, options=INJECT)
        assert len(res) == 0
        assert res.lineage.forward("one", [0]).size == 0

    def test_setops_with_empty(self, empty_db):
        res = empty_db.sql("SELECT k FROM one UNION SELECT k FROM empty")
        assert len(res) == 1
        res = empty_db.sql("SELECT k FROM empty EXCEPT SELECT k FROM one")
        assert len(res) == 0

    def test_compiled_backend_empty(self, empty_db):
        plan = GroupBy(Scan("empty"), [(col("k"), "k")], [AggCall("count", None, "c")])
        res = reference(empty_db, plan, options=INJECT)
        assert len(res) == 0


class TestSingleRowRelations:
    def test_single_row_full_pipeline(self):
        db = Database()
        db.create_table("t", Table({"k": [7], "v": [3.5]}))
        res = db.sql(
            "SELECT k, SUM(v) AS s, MIN(v) AS mn, MAX(v) AS mx, AVG(v) AS a "
            "FROM t GROUP BY k",
            options=INJECT,
        )
        assert res.table.to_rows() == [(7, 3.5, 3.5, 3.5, 3.5)]
        assert res.backward([0], "t").tolist() == [0]
        assert res.forward("t", [0]).tolist() == [0]


class TestLineageEdgeCases:
    def test_backward_of_empty_rid_list(self, small_db):
        plan = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
        res = small_db.execute(plan, options=INJECT)
        assert res.backward([], "zipf").size == 0

    def test_out_of_range_output_rid(self, small_db):
        plan = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
        res = small_db.execute(plan, options=INJECT)
        with pytest.raises(LineageError):
            res.backward([10_000], "zipf")

    def test_negative_rid(self, small_db):
        plan = GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")])
        res = small_db.execute(plan, options=INJECT)
        with pytest.raises(LineageError):
            res.backward([-1], "zipf")

    def test_every_group_has_nonempty_lineage(self, small_db):
        plan = GroupBy(
            Select(Scan("zipf"), col("v") < 90.0),
            [(col("z"), "z")],
            [AggCall("count", None, "c")],
        )
        res = small_db.execute(plan, options=INJECT)
        for o in range(len(res.table)):
            assert res.backward([o], "zipf").size > 0
