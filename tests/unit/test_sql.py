"""SQL front end: lexer, parser, binder."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.errors import SqlError
from repro.lineage.capture import CaptureMode
from repro.plan.logical import CrossProduct, GroupBy, HashJoin, Project, Select
from repro.sql import parse, parse_sql
from repro.sql.lexer import tokenize

INJECT = ExecOptions(capture=CaptureMode.INJECT)


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [t.kind for t in tokenize("SELECT select SeLeCt")]
        assert kinds[:3] == ["keyword"] * 3

    def test_string_literal_with_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("42 3.14 .5")
        assert [(t.kind, t.value) for t in tokens[:3]] == [
            ("int", "42"), ("float", "3.14"), ("float", ".5"),
        ]

    def test_qualified_name_dot_not_float(self):
        tokens = tokenize("t1.col")
        assert [t.kind for t in tokens[:3]] == ["ident", "punct", "ident"]

    def test_params(self):
        tokens = tokenize(":p1")
        assert tokens[0].kind == "param" and tokens[0].value == "p1"

    def test_empty_param_rejected(self):
        with pytest.raises(SqlError):
            tokenize(": x")

    def test_comments_skipped(self):
        tokens = tokenize("select -- comment\n 1")
        assert [t.kind for t in tokens[:2]] == ["keyword", "int"]

    def test_two_char_operators(self):
        values = [t.value for t in tokenize("<= >= <> !=")][:4]
        assert values == ["<=", ">=", "<>", "!="]

    def test_unexpected_character(self):
        with pytest.raises(SqlError):
            tokenize("select @")


class TestParser:
    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t extra extra")

    def test_between_desugars(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5")
        assert stmt.where is not None

    def test_not_in(self):
        stmt = parse("SELECT a FROM t WHERE a NOT IN (1, 2)")
        assert stmt.where is not None

    def test_count_variants(self):
        parse("SELECT COUNT(*) FROM t")
        parse("SELECT COUNT(a) FROM t")
        parse("SELECT COUNT(DISTINCT a) FROM t")

    def test_extract_year_month(self):
        parse("SELECT EXTRACT(YEAR FROM d) FROM t GROUP BY EXTRACT(YEAR FROM d)")
        with pytest.raises(SqlError):
            parse("SELECT EXTRACT(DAY FROM d) FROM t")

    def test_setop_chain(self):
        stmt = parse("SELECT a FROM t UNION ALL SELECT a FROM u EXCEPT SELECT a FROM v")
        assert stmt.op == "except"
        assert stmt.left.op == "union" and stmt.left.all

    def test_join_on_multiple_conditions(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.x = b.x AND a.y = b.y")
        assert len(stmt.joins[0].conditions) == 2

    def test_missing_from(self):
        with pytest.raises(SqlError):
            parse("SELECT a WHERE x = 1")


class TestBinder:
    def test_unknown_table(self, small_db):
        with pytest.raises(Exception):
            parse_sql("SELECT * FROM missing", small_db.catalog)

    def test_unknown_column(self, small_db):
        with pytest.raises(SqlError, match="unknown column"):
            parse_sql("SELECT bogus FROM zipf", small_db.catalog)

    def test_ambiguous_column(self, small_db):
        with pytest.raises(SqlError, match="ambiguous"):
            parse_sql(
                "SELECT z FROM zipf JOIN zipf2 ON zipf.z = zipf2.z",
                small_db.catalog,
            )

    def test_comma_join_becomes_hash_join(self, small_db):
        plan = parse_sql(
            "SELECT * FROM gids, zipf WHERE gids.id = zipf.z", small_db.catalog
        )
        assert isinstance(plan, HashJoin)
        assert plan.pkfk  # gids.id is unique

    def test_comma_join_without_condition_is_cross(self, small_db):
        plan = parse_sql("SELECT * FROM gids, zipf2", small_db.catalog)
        assert isinstance(plan, CrossProduct)

    def test_residual_where_kept(self, small_db):
        plan = parse_sql(
            "SELECT * FROM gids, zipf WHERE gids.id = zipf.z AND v < 10",
            small_db.catalog,
        )
        assert isinstance(plan, Select)
        assert isinstance(plan.child, HashJoin)

    def test_groupby_wraps_in_project(self, small_db):
        plan = parse_sql(
            "SELECT COUNT(*) AS c, z FROM zipf GROUP BY z", small_db.catalog
        )
        assert isinstance(plan, Project)
        assert isinstance(plan.child, GroupBy)
        # Select-list order is preserved by the projection.
        assert [a for _, a in plan.exprs] == ["c", "z"]

    def test_non_grouped_select_column_rejected(self, small_db):
        with pytest.raises(SqlError, match="GROUP BY"):
            parse_sql("SELECT v, COUNT(*) FROM zipf GROUP BY z", small_db.catalog)

    def test_nested_aggregate_expression_rejected(self, small_db):
        with pytest.raises(SqlError, match="top-level"):
            parse_sql("SELECT SUM(v) / 2 FROM zipf GROUP BY z", small_db.catalog)

    def test_having_without_groupby_rejected(self, small_db):
        with pytest.raises(SqlError):
            parse_sql("SELECT z FROM zipf HAVING z > 1", small_db.catalog)

    def test_having_hidden_aggregate(self, small_db):
        result = small_db.sql(
            "SELECT z FROM zipf GROUP BY z HAVING COUNT(*) > 100"
        )
        # Hidden aggregate is projected away.
        assert result.table.schema.names == ["z"]
        counts = small_db.sql("SELECT z, COUNT(*) AS c FROM zipf GROUP BY z")
        expected = {
            row[0] for row in counts.table.to_rows() if row[1] > 100
        }
        assert set(result.table.column("z").tolist()) == expected

    def test_distinct_star(self, small_db):
        result = small_db.sql("SELECT DISTINCT z FROM zipf")
        assert len(result) == len(np.unique(small_db.table("zipf").column("z")))

    def test_global_aggregate(self, small_db):
        result = small_db.sql("SELECT COUNT(*) AS c, SUM(v) AS s FROM zipf")
        assert len(result) == 1
        assert result.table.column("c")[0] == 2000

    def test_alias_without_as(self, small_db):
        result = small_db.sql("SELECT z zed FROM zipf GROUP BY z")
        assert result.table.schema.names == ["zed"]

    def test_params_flow_through(self, small_db):
        result = small_db.sql(
            "SELECT COUNT(*) AS c FROM zipf WHERE v < :cutoff",
            params={"cutoff": 50.0},
        )
        expected = int((small_db.table("zipf").column("v") < 50.0).sum())
        assert result.table.column("c")[0] == expected


class TestSqlLineage:
    def test_sql_query_with_capture(self, small_db):
        result = small_db.sql(
            "SELECT z, COUNT(*) AS c FROM zipf GROUP BY z",
            options=INJECT,
        )
        rids = result.backward([0], "zipf")
        z0 = result.table.column("z")[0]
        expected = np.nonzero(small_db.table("zipf").column("z") == z0)[0]
        assert np.array_equal(rids, expected)

    def test_sql_setop_lineage(self, small_db):
        result = small_db.sql(
            "SELECT z FROM zipf WHERE z < 3 UNION SELECT z FROM zipf2 WHERE z < 2",
            options=INJECT,
        )
        assert set(result.lineage.relations) == {"zipf", "zipf2"}


class TestSelfJoins:
    def test_alias_self_join(self, small_db):
        res = small_db.sql(
            "SELECT * FROM zipf z1, zipf z2 WHERE z1.z = z2.z",
            options=INJECT,
        )
        assert res.lineage.relations == ["zipf#0", "zipf#1"]
        assert "z_r" in res.table.schema

    def test_alias_qualified_aggregation(self, small_db):
        res = small_db.sql(
            "SELECT z1.z AS z, COUNT(*) AS c FROM zipf z1, zipf z2 "
            "WHERE z1.z = z2.z GROUP BY z1.z"
        )
        z = small_db.table("zipf").column("z")
        for row in res.table.to_rows():
            count = int((z == row[0]).sum())
            assert row[1] == count * count  # m:n self join squares counts
