"""Lineage-consuming SQL (Lb/Lf table expressions), alias-aware lineage
resolution, and the batched QueryLineage lookup API."""

import numpy as np
import pytest

from repro.api import Database, ExecOptions
from repro.errors import (
    CaptureDisabledError,
    LineageError,
    PlanError,
    SqlError,
)
from repro.lineage.capture import CaptureConfig, CaptureMode
from repro.plan.logical import LineageScan, Scan, assign_source_keys
from repro.sql.parser import RawLineageRef, RawParam, parse
from repro.storage import Table

INJECT = ExecOptions(capture=CaptureMode.INJECT)

BACKENDS = ("vector", "compiled")


@pytest.fixture
def db():
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "z": np.array([1, 1, 2, 2, 2, 3], dtype=np.int64),
                "v": np.array([10.0, 11.0, 12.0, 13.0, 14.0, 15.0]),
            }
        ),
    )
    return db


@pytest.fixture
def prev(db):
    return db.sql(
        "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
        options=INJECT.with_(name="prev"),
    )


class TestParser:
    def test_lb_from_item(self):
        stmt = parse("SELECT z FROM Lb(prev, 't')")
        ref = stmt.base
        assert ref.lineage == RawLineageRef("lb", "prev", "t", None)
        assert ref.alias == "t"  # defaults to the traced relation

    def test_lf_argument_order_and_default_alias(self):
        stmt = parse("SELECT z FROM Lf('t', prev)")
        assert stmt.base.lineage == RawLineageRef("lf", "prev", "t", None)
        assert stmt.base.alias == "prev"  # Lf yields prior-result rows

    def test_relation_accepts_bare_identifier(self):
        stmt = parse("SELECT z FROM Lb(prev, t)")
        assert stmt.base.lineage.relation == "t"

    def test_explicit_alias(self):
        stmt = parse("SELECT x.z FROM Lb(prev, 't') AS x")
        assert stmt.base.alias == "x"

    def test_rid_spec_forms(self):
        assert parse("SELECT z FROM Lb(prev, 't', 3)").base.lineage.rids == (3,)
        assert parse(
            "SELECT z FROM Lb(prev, 't', (0, 2, 4))"
        ).base.lineage.rids == (0, 2, 4)
        assert parse(
            "SELECT z FROM Lb(prev, 't', :bars)"
        ).base.lineage.rids == RawParam("bars")

    def test_tables_named_lb_still_work(self):
        # Lb/Lf are not keywords: only ident + '(' in FROM position.
        stmt = parse("SELECT lb FROM lb")
        assert stmt.base.table == "lb"
        assert stmt.base.lineage is None

    def test_bad_rid_spec_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT z FROM Lb(prev, 't', 'oops')")

    def test_missing_argument_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT z FROM Lb(prev)")


class TestBinder:
    def test_binds_to_lineage_scan(self, db, prev):
        plan = db.parse("SELECT z, COUNT(*) AS c FROM Lb(prev, 't') GROUP BY z")
        scan = _find_lineage_scan(plan)
        assert scan.result == "prev"
        assert scan.relation == "t"
        assert scan.direction == "backward"
        assert scan.schema.names == ["z", "v"]

    def test_lf_schema_is_prior_output_schema(self, db, prev):
        scan = _find_lineage_scan(db.parse("SELECT * FROM Lf('t', prev)"))
        assert scan.direction == "forward"
        assert scan.schema.names == ["z", "c"]

    def test_unknown_result_rejected_at_bind(self, db):
        with pytest.raises(SqlError, match="unknown result"):
            db.parse("SELECT z FROM Lb(nope, 't')")

    def test_unknown_relation_rejected_at_bind(self, db, prev):
        with pytest.raises(Exception):
            db.parse("SELECT z FROM Lb(prev, 'nope')")

    def test_explain_renders_lineage_scan(self, db, prev):
        assert "LineageScan(Lb(prev, 't'))" in db.explain(
            "SELECT z FROM Lb(prev, 't')"
        )


def _find_lineage_scan(plan):
    from repro.plan.logical import walk

    for node in walk(plan):
        if isinstance(node, LineageScan):
            return node
    raise AssertionError("no LineageScan in plan")


class TestLineageScanExecution:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_acceptance_query(self, db, prev, backend):
        res = db.sql(
            "SELECT z, COUNT(*) AS c FROM Lb(prev, 't') GROUP BY z",
            options=ExecOptions(backend=backend),
        )
        # Lb over every output row is all contributing rows of t.
        assert res.table.column("z").tolist() == [1, 2, 3]
        assert res.table.column("c").tolist() == [2, 3, 1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rid_subset_param(self, db, prev, backend):
        res = db.sql(
            "SELECT * FROM Lb(prev, 't', :bars)",
            params={"bars": [1]},
            options=ExecOptions(backend=backend),
        )
        assert res.table.column("z").tolist() == [2, 2, 2]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rid_subset_literal(self, db, prev, backend):
        res = db.sql(
            "SELECT * FROM Lb(prev, 't', (0, 2))",
            options=ExecOptions(backend=backend),
        )
        assert res.table.column("z").tolist() == [1, 1, 3]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forward_scan(self, db, prev, backend):
        res = db.sql(
            "SELECT * FROM Lf('t', prev, :rows)",
            params={"rows": [2, 3]},
            options=ExecOptions(backend=backend),
        )
        # Rows 2,3 of t have z == 2, which is prev's output mark 1.
        assert res.table.column("z").tolist() == [2]
        assert res.table.column("c").tolist() == [3]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_where_and_projection_over_lineage_scan(self, db, prev, backend):
        res = db.sql(
            "SELECT v FROM Lb(prev, 't') WHERE z = 2",
            options=ExecOptions(backend=backend),
        )
        assert res.table.column("v").tolist() == [12.0, 13.0, 14.0]

    def test_lineage_of_the_lineage_scan(self, db, prev):
        res = db.sql(
            "SELECT * FROM Lb(prev, 't', :bars)",
            params={"bars": [1]},
            options=INJECT,
        )
        rids = res.backward(np.arange(len(res)), "t")
        assert np.array_equal(rids, prev.backward([1], "t"))
        # And forward: base row 3 is output row 1 of the subset.
        assert res.forward("t", [3]).tolist() == [1]

    def test_lf_scan_traces_to_prior_result(self, db, prev):
        res = db.sql(
            "SELECT * FROM Lf('t', prev, :rows)",
            params={"rows": [0]},
            options=INJECT,
        )
        assert res.backward(np.arange(len(res)), "prev").tolist() == [0]

    def test_execution_time_registry_resolution(self, db, prev):
        plan = db.parse("SELECT z FROM Lb(prev, 't', 0)")
        first = db.execute(plan).table.column("z").tolist()
        # Re-registering 'prev' re-targets the already-bound plan.
        db.sql(
            "SELECT z, COUNT(*) AS c FROM t WHERE z = 3 GROUP BY z",
            options=INJECT.with_(name="prev"),
        )
        second = db.execute(plan).table.column("z").tolist()
        assert first == [1, 1] and second == [3]

    def test_missing_param_raises(self, db, prev):
        with pytest.raises(PlanError, match="parameter"):
            db.sql("SELECT z FROM Lb(prev, 't', :bars)")

    def test_empty_rid_param_is_valid(self, db, prev):
        res = db.sql(
            "SELECT * FROM Lb(prev, 't', :bars)", params={"bars": []}
        )
        assert len(res) == 0

    def test_shrunk_base_table_rejected(self, db, prev):
        db.create_table(
            "t", Table({"z": np.array([9], dtype=np.int64),
                        "v": np.array([0.0])}),
            replace=True,
        )
        with pytest.raises(PlanError, match="replaced"):
            db.sql("SELECT * FROM Lb(prev, 't', 1)")

    def test_float_rid_param_rejected(self, db, prev):
        # Silent truncation would trace the wrong bar's rows.
        with pytest.raises(PlanError, match="integers"):
            db.sql(
                "SELECT z FROM Lb(prev, 't', :bars)", params={"bars": [0.9]}
            )

    def test_lf_unknown_relation_rejected_at_bind(self, db, prev):
        with pytest.raises(SqlError, match="no lineage for relation"):
            db.parse("SELECT * FROM Lf('nope', prev)")

    def test_lb_base_table_drift_rejected_at_execution(self, db):
        db.create_table(
            "u", Table({"label": np.array(["x", "y"], dtype=object)})
        )
        db.sql(
            "SELECT z, COUNT(*) AS c FROM t AS a GROUP BY z",
            options=INJECT.with_(name="res"),
        )
        plan = db.parse("SELECT z FROM Lb(res, 'a', 0)")
        db.execute(plan)  # fine: alias 'a' resolves to t
        # Re-register so the alias 'a' now points at a different table.
        db.sql(
            "SELECT label, COUNT(*) AS c FROM u AS a GROUP BY label",
            options=INJECT.with_(name="res"),
        )
        with pytest.raises(PlanError, match="re-parse"):
            db.execute(plan)

    def test_lf_schema_drift_rejected_at_execution(self, db, prev):
        plan = db.parse("SELECT * FROM Lf('t', prev, 0)")
        db.execute(plan)  # fine while the schema matches
        db.sql(
            "SELECT z, SUM(v) AS total, COUNT(*) AS c FROM t GROUP BY z",
            options=INJECT.with_(name="prev"),
        )
        with pytest.raises(PlanError, match="different schema"):
            db.execute(plan)

    def test_uncaptured_result_rejected(self, db):
        res = db.sql("SELECT z, COUNT(*) AS c FROM t GROUP BY z")
        db.register_result("plain", res)
        # Rejected at bind time, before any execution work — including
        # for alias-form relation arguments.
        with pytest.raises(SqlError, match="without lineage capture"):
            db.sql("SELECT z FROM Lb(plain, 't')")
        with pytest.raises(SqlError, match="without lineage capture"):
            db.sql("SELECT z FROM Lb(plain, 'whatever')")

    def test_lb_over_alias_registers_base_name(self, db):
        """An Lb whose relation argument is an alias still registers its
        lineage under the resolved base table, like an aliased Scan."""
        db.sql(
            "SELECT z, COUNT(*) AS c FROM t AS a GROUP BY z",
            options=INJECT.with_(name="aliased"),
        )
        sub = db.sql(
            "SELECT * FROM Lb(aliased, 'a', 0)", options=INJECT
        )
        assert sub.backward(np.arange(len(sub)), "t").tolist() == [0, 1]
        # relations pruning by base name also matches the aliased scan
        # (the occurrence key stays the literal reference 'a').
        pruned = db.sql(
            "SELECT * FROM Lb(aliased, 'a', 0)",
            options=ExecOptions(capture=CaptureConfig.inject(relations={"t"})),
        )
        assert pruned.lineage.relations == ["a"]
        assert pruned.backward([0], "t").tolist() == [0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lb_over_self_joined_result_by_alias_and_key(self, db, backend):
        """Lb accepts the same relation forms as lineage lookups: a bare
        base name is ambiguous for a self-join, but the SQL alias and the
        occurrence key both resolve to the underlying catalog table."""
        db.sql(
            "SELECT a.z FROM t AS a JOIN t AS b ON a.z = b.z",
            options=INJECT.with_(name="selfjoin"),
        )
        opts = ExecOptions(backend=backend)
        with pytest.raises(LineageError, match="multiple times"):
            db.sql("SELECT z FROM Lb(selfjoin, 't', 0)", options=opts)
        via_alias = db.sql("SELECT z FROM Lb(selfjoin, 'a', 0)", options=opts)
        via_key = db.sql(
            "SELECT z FROM Lb(selfjoin, 't#0', 0) AS x", options=opts
        )
        assert via_alias.table.column("z").tolist() == [1]
        assert via_key.table.column("z").tolist() == [1]

    def test_join_with_lineage_scan(self, db, prev):
        db.create_table(
            "names",
            Table({
                "z": np.array([1, 2, 3], dtype=np.int64),
                "label": np.array(["one", "two", "three"], dtype=object),
            }),
        )
        res = db.sql(
            "SELECT label, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
            "JOIN names ON t.z = names.z GROUP BY label",
            params={"bars": [0]},
        )
        assert res.table.column("label").tolist() == ["one"]
        assert res.table.column("c").tolist() == [2]


class TestResultRegistry:
    def test_register_and_lookup(self, db, prev):
        assert db.results() == ["prev"]
        assert db.result("prev") is prev

    def test_non_identifier_name_rejected(self, db, prev):
        with pytest.raises(PlanError, match="identifier"):
            db.register_result("not a name", prev)

    def test_keyword_name_rejected(self, db, prev):
        # 'count' would register fine as a Python identifier, but the
        # bare Lb(count, ...) form could never parse afterwards.
        with pytest.raises(PlanError, match="keyword"):
            db.register_result("count", prev)

    def test_bad_name_rejected_before_execution(self, db):
        # Validated up front: the query must not run and then be lost.
        with pytest.raises(PlanError, match="keyword"):
            db.sql("SELECT z FROM t", options=ExecOptions(name="order"))

    def test_drop_result(self, db, prev):
        db.drop_result("prev")
        assert db.results() == []
        with pytest.raises(PlanError):
            db.result("prev")
        with pytest.raises(PlanError):
            db.drop_result("prev")

    def test_app_sessions_release_registry_entries_on_close(self, db):
        from repro.apps.crossfilter import CrossfilterSession
        from repro.apps.linked_brush import LinkedBrushingSession
        from repro.plan.logical import AggCall, GroupBy, Scan, col

        cf = CrossfilterSession.from_database(db, "t", ("z",), "bt+ft")
        lb = LinkedBrushingSession(db, "t")
        lb.add_view(
            "v", GroupBy(Scan("t"), [(col("z"), "z")], [AggCall("count", None, "c")])
        )
        assert len(db.results()) == 2
        cf.close()
        lb.close()
        assert db.results() == []
        cf.close()  # idempotent
        lb.close()


class TestAliasLineage:
    """Satellite regression: SQL aliases resolve in lineage lookups."""

    def test_single_scan_alias(self, db):
        res = db.sql("SELECT z FROM t AS a", options=INJECT)
        assert res.backward([0], "a").tolist() == [0]
        assert res.backward([0], "t").tolist() == [0]  # base name still works

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_self_join_alias_backward(self, db, backend):
        res = db.sql(
            "SELECT a.z FROM t AS a JOIN t AS b ON a.z = b.z",
            options=INJECT.with_(backend=backend),
        )
        # Output row 0 joins t row 0 with itself; row 1 joins a-row 1
        # with b-row 0 (probe order).
        assert res.backward([0], "a").tolist() == [0]
        assert res.backward([0], "b").tolist() == [0]
        assert res.backward([1], "a").tolist() == [1]
        assert res.backward([1], "b").tolist() == [0]

    def test_occurrence_keys_still_resolve(self, db):
        res = db.sql(
            "SELECT a.z FROM t AS a JOIN t AS b ON a.z = b.z",
            options=INJECT,
        )
        assert set(res.lineage.relations) == {"t#0", "t#1"}
        assert res.backward([0], "t#0").tolist() == [0]

    def test_unqualified_self_join_name_is_ambiguous(self, db):
        res = db.sql(
            "SELECT a.z FROM t AS a JOIN t AS b ON a.z = b.z",
            options=INJECT,
        )
        with pytest.raises(LineageError, match="multiple times"):
            res.backward([0], "t")

    def test_forward_via_alias(self, db):
        res = db.sql("SELECT z FROM t AS a", options=INJECT)
        assert res.forward("a", [2]).tolist() == [2]

    def test_alias_shadowing_base_table_is_ambiguous(self, db):
        """'FROM a AS x JOIN t AS a': the reference 'a' denotes both the
        scan of table a and the alias of the t scan — neither side may be
        silently picked, in lookups or in Lb."""
        db.create_table(
            "a", Table({"z": np.array([1, 2, 3], dtype=np.int64)})
        )
        res = db.sql(
            "SELECT x.z FROM a AS x JOIN t AS a ON x.z = a.z",
            options=INJECT.with_(name="shadow"),
        )
        with pytest.raises(LineageError, match="alias of another"):
            res.backward([0], "a")
        # Unambiguous forms still work.
        assert res.backward([0], "x").tolist() == [0]
        assert res.backward([0], "t").tolist() == [0]
        with pytest.raises(LineageError, match="multiple base tables"):
            db.sql("SELECT z FROM Lb(shadow, 'a', 0)")


class TestAliasPruning:
    """Satellite regression: relations pruning matches aliases, and
    unmatched entries raise instead of silently capturing nothing."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prune_by_alias_captures(self, db, backend):
        res = db.sql(
            "SELECT z FROM t AS a",
            options=ExecOptions(
                capture=CaptureConfig.inject(relations={"a"}), backend=backend
            ),
        )
        assert res.lineage.relations == ["t"]
        assert res.backward([0], "a").tolist() == [0]

    def test_prune_one_side_of_self_join_by_alias(self, db):
        res = db.sql(
            "SELECT a.z FROM t AS a JOIN t AS b ON a.z = b.z",
            options=ExecOptions(capture=CaptureConfig.inject(relations={"b"})),
        )
        assert res.lineage.relations == ["t#1"]
        res.backward([0], "b")
        with pytest.raises(CaptureDisabledError):
            res.backward([0], "a")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unmatched_relations_entry_raises(self, db, backend):
        with pytest.raises(LineageError, match="matched no scanned relation"):
            db.sql(
                "SELECT z FROM t AS a",
                options=ExecOptions(
                    capture=CaptureConfig.inject(relations={"typo"}),
                    backend=backend,
                ),
            )

    def test_partially_unmatched_entry_raises(self, db):
        with pytest.raises(LineageError, match="typo"):
            db.sql(
                "SELECT z FROM t",
                options=ExecOptions(
                    capture=CaptureConfig.inject(relations={"t", "typo"})
                ),
            )


class TestBatchedLookups:
    def test_backward_batch_matches_per_call(self, db, prev):
        groups = [[0], [1], [0, 1, 2], []]
        batched = prev.lineage.backward_batch(groups, "t")
        for group, got in zip(groups, batched, strict=True):
            assert np.array_equal(got, prev.backward(group, "t"))

    def test_forward_batch_matches_per_call(self, db, prev):
        groups = [[0], [2, 3, 4], [0, 5]]
        batched = prev.lineage.forward_batch(groups, "t")
        for group, got in zip(groups, batched, strict=True):
            assert np.array_equal(got, prev.forward("t", group))

    def test_large_batch_uses_flag_dedup(self):
        # Cross the _DEDUP_FLAGS_MIN threshold with duplicate-heavy input.
        db = Database()
        n = 5_000
        rng = np.random.default_rng(5)
        db.create_table(
            "big",
            Table({"z": rng.integers(0, 7, n), "v": rng.random(n)}),
        )
        res = db.sql(
            "SELECT z, COUNT(*) AS c FROM big GROUP BY z",
            options=INJECT,
        )
        all_groups = [list(range(len(res))), [0]]
        got_all, got_one = res.lineage.backward_batch(all_groups, "big")
        assert np.array_equal(got_all, np.arange(n))
        assert np.array_equal(got_one, res.backward([0], "big"))
        # Scratch flags were reset: a second batch sees clean state.
        again = res.lineage.backward_batch([[1]], "big")[0]
        assert np.array_equal(again, res.backward([1], "big"))

    def test_batch_respects_aliases(self, db):
        res = db.sql("SELECT z FROM t AS a", options=INJECT)
        (got,) = res.lineage.backward_batch([[0, 1]], "a")
        assert got.tolist() == [0, 1]


class TestSourceKeys:
    def test_lineage_scan_occupies_a_key_slot(self, db, prev):
        plan = db.parse(
            "SELECT x.z FROM Lb(prev, 't') AS x JOIN t ON x.z = t.z"
        )
        # Lb scans t and the join scans t: two occurrences.
        assert assign_source_keys(plan) == ["t#0", "t#1"]

    def test_plain_scan_keys_unchanged(self):
        plan_keys = assign_source_keys(Scan("x"))
        assert plan_keys == ["x"]

    def test_literal_occurrence_key_reference_does_not_collide(self, db):
        """A leaf literally named 't#0' (Lb over a self-join occurrence)
        must not share a key with the synthesized keys of other t scans."""
        db.sql(
            "SELECT a.z FROM t AS a JOIN t AS b ON a.z = b.z",
            options=INJECT.with_(name="sj"),
        )
        plan = db.parse(
            "SELECT x.z FROM Lb(sj, 't#0', 0) AS x "
            "JOIN t AS p ON x.z = p.z JOIN t AS q ON x.z = q.z"
        )
        keys = assign_source_keys(plan)
        assert len(set(keys)) == 3
        res = db.execute(plan, options=INJECT)
        # All three occurrences captured; alias lookups hit the right one.
        assert len(res.lineage.relations) == 3
        assert res.backward([0], "x").tolist() == [0]
        assert res.backward([0], "p").tolist() == [0]
        assert res.backward([0], "q").tolist() == [0]
