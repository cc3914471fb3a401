"""Late-materializing lineage scans: rewrite match/fallback decisions
(including multi-join chain flattening), pushed-path equivalence on
fixed shapes, the stats-driven build-side decision table, the bounded
result registry, and the binder's left-preferring ON-qualifier
tie-break."""

import numpy as np
import pytest

from repro.api import Database, ExecOptions, ResultRegistry
from repro.errors import (
    InvalidArgumentError,
    PlanError,
    RegistryFullError,
    SqlError,
)
from repro.expr.ast import Col
from repro.lineage.capture import CaptureConfig, CaptureMode
from repro.plan.logical import (
    AggCall,
    CrossProduct,
    GroupBy,
    HashJoin,
    LineageScan,
    Project,
    Scan,
    Select,
    Sort,
    ThetaJoin,
    col,
)
from repro.plan.rewrite import (
    PushedJoin,
    PushedJoinSide,
    match_late_materialization,
)
from repro.storage import Table
from reference import reference

INJECT = ExecOptions(capture=CaptureMode.INJECT)

@pytest.fixture
def db():
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "z": np.array([1, 1, 2, 2, 2, 3], dtype=np.int64),
                "v": np.array([10.0, 11.0, 12.0, 13.0, 14.0, 15.0]),
                "w": np.array([0, 1, 0, 1, 0, 1], dtype=np.int64),
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


def _scan():
    return LineageScan(result="prev", relation="t", direction="backward")


class TestRewriteMatch:
    def test_bare_scan_not_pushed(self):
        assert match_late_materialization(_scan()) is None

    def test_select_over_scan_pushed_full_width(self):
        pushed = match_late_materialization(Select(_scan(), col("v") > 12))
        assert pushed is not None
        # Predicate-only stack: the output is the whole traced relation.
        assert pushed.columns is None
        assert pushed.groupby is None and pushed.project is None

    def test_stacked_selects_fold_into_one_predicate(self):
        plan = Project(
            Select(Select(_scan(), col("v") > 12), col("w").eq(0)),
            [(col("z"), "z")],
        )
        pushed = match_late_materialization(plan)
        assert pushed is not None
        assert pushed.core.predicate.op == "and"
        # The filter gathers its own columns: survivors gather only `z`.
        assert pushed.columns == frozenset({"z"})

    def test_linear_stack_is_a_leaf_core(self):
        plan = GroupBy(
            Select(_scan(), col("v") > 12),
            [(col("z"), "z")],
            [AggCall("count", None, "c")],
        )
        pushed = match_late_materialization(plan)
        assert isinstance(pushed.core, PushedJoinSide)
        assert pushed.core.scan is not None
        assert pushed.core.predicate is not None  # the WHERE sits on the leaf
        assert pushed.core.plan is plan.child
        assert pushed.core.predicate is plan.child.predicate  # folded unchanged
        assert not pushed.has_join
        assert pushed.chain_hops == 0

    def test_full_stack_pushed(self, db, prev):
        plan = db.parse(
            "SELECT z, COUNT(*) AS c FROM Lb(prev, 't') WHERE v > 12 GROUP BY z"
        )
        pushed = match_late_materialization(plan)
        assert pushed is not None
        assert pushed.project is not None and pushed.groupby is not None
        assert pushed.columns == frozenset({"z"})

    def test_groupby_columns_include_agg_args_not_having(self):
        plan = GroupBy(
            _scan(),
            [(col("z"), "z")],
            [AggCall("sum", col("v"), "s")],
            having=Col("s") > 20,
        )
        pushed = match_late_materialization(plan)
        assert pushed.columns == frozenset({"z", "v"})

    def test_distinct_projection_now_pushes(self):
        plan = Project(_scan(), [(col("z"), "z")], distinct=True)
        pushed = match_late_materialization(plan)
        assert pushed is not None and pushed.has_distinct
        assert pushed.columns == frozenset({"z"})

    def test_lineage_join_now_pushes(self):
        plan = HashJoin(_scan(), Scan("t"), ("z",), ("z",))
        pushed = match_late_materialization(plan)
        assert pushed is not None and pushed.has_join
        assert pushed.core.left.scan is not None
        assert pushed.core.right.scan is None  # plain side: run_child
        # Bare join core: the output is the full join schema.
        assert pushed.columns is None

    def test_join_side_selects_fold_into_side_predicate(self):
        plan = HashJoin(
            Select(Select(_scan(), col("v") > 12), col("w").eq(0)),
            Scan("t"),
            ("z",),
            ("z",),
        )
        pushed = match_late_materialization(plan)
        assert pushed is not None and pushed.core.left.predicate is not None

    def test_join_without_lineage_side_falls_back(self):
        plan = HashJoin(Scan("t"), Scan("t"), ("z",), ("z",))
        assert match_late_materialization(plan) is None

    def test_join_stack_columns_are_output_names(self, db, prev):
        db.create_table(
            "names",
            Table({
                "z": np.array([1, 2, 3], dtype=np.int64),
                "label": np.array(["one", "two", "three"], dtype=object),
            }),
        )
        plan = db.parse(
            "SELECT label, COUNT(*) AS c FROM Lb(prev, 't') "
            "JOIN names ON t.z = names.z WHERE v > 12 GROUP BY label"
        )
        pushed = match_late_materialization(plan)
        assert pushed is not None and pushed.has_join
        # Join-core column sets name *output* (post-rename) columns; the
        # residual WHERE, folded onto the top hop, gathers its own.
        assert pushed.core.predicate.columns() == {"v"}
        assert pushed.columns == frozenset({"label"})

    def test_sort_root_falls_back(self):
        plan = Sort(Select(_scan(), col("v") > 12), [("z", False)])
        assert match_late_materialization(plan) is None

    def test_non_lineage_leaf_falls_back(self):
        assert match_late_materialization(Select(Scan("t"), col("v") > 12)) is None


class TestChainRewriteMatch:
    """Multi-join chains flatten into one pushed core (join-DAG shaped
    RewriteIndex entries) instead of matching only the innermost join."""

    def test_two_hop_chain_matches_one_core(self):
        plan = HashJoin(
            HashJoin(_scan(), Scan("d1"), ("z",), ("z",)),
            Scan("d2"),
            ("g",),
            ("g",),
        )
        pushed = match_late_materialization(plan)
        assert pushed is not None and pushed.has_join
        assert pushed.core.num_joins == 2
        assert pushed.chain_hops == 1
        inner = pushed.core.left
        assert isinstance(inner, PushedJoin)
        assert inner.left.scan is not None  # the lineage leaf
        assert isinstance(pushed.core.right, PushedJoinSide)

    def test_three_hop_chain_counts_two_hops(self):
        plan = HashJoin(
            HashJoin(
                HashJoin(_scan(), Scan("d1"), ("z",), ("z",)),
                Scan("d2"),
                ("g",),
                ("g",),
            ),
            Scan("d3"),
            ("h",),
            ("h",),
        )
        pushed = match_late_materialization(plan)
        assert pushed.core.num_joins == 3
        assert pushed.chain_hops == 2

    def test_snowflake_tree_with_nested_lineage_right(self):
        """A lineage-backed join may sit on *either* side of a hop."""
        plan = HashJoin(
            Scan("d2"),
            HashJoin(_scan(), Scan("d1"), ("z",), ("z",)),
            ("g",),
            ("g",),
        )
        pushed = match_late_materialization(plan)
        assert pushed is not None
        assert isinstance(pushed.core.right, PushedJoin)
        assert pushed.chain_hops == 1

    def test_lineage_free_nested_join_stays_plain(self):
        """A join subtree with no lineage leaf is a plain hop executed
        through executor recursion, not part of the chain."""
        plan = HashJoin(
            HashJoin(Scan("a"), Scan("b"), ("z",), ("z",)),
            _scan(),
            ("z",),
            ("z",),
        )
        pushed = match_late_materialization(plan)
        assert pushed is not None
        assert pushed.core.num_joins == 1  # only the outer join flattens
        assert isinstance(pushed.core.left, PushedJoinSide)
        assert pushed.core.left.scan is None
        assert pushed.chain_hops == 0

    def test_mid_chain_select_folds_into_hop_predicate(self):
        """Selects between joins (derived-table hops) fold onto the hop
        they sit above and evaluate in the position domain."""
        plan = HashJoin(
            Select(
                HashJoin(_scan(), Scan("d1"), ("z",), ("z",)),
                col("g") > 1,
            ),
            Scan("d2"),
            ("g",),
            ("g",),
        )
        pushed = match_late_materialization(plan)
        inner = pushed.core.left
        assert isinstance(inner, PushedJoin)
        assert inner.predicate is not None

    def test_all_plain_chain_falls_back(self):
        plan = HashJoin(
            HashJoin(Scan("a"), Scan("b"), ("z",), ("z",)),
            Scan("c"),
            ("z",),
            ("z",),
        )
        assert match_late_materialization(plan) is None


class TestPushedExecution:
    def test_pushed_marks_timings(self, db, prev):
        stmt = "SELECT z, COUNT(*) AS c FROM Lb(prev, 't') GROUP BY z"
        res = db.sql(stmt)
        assert res.timings.get("late_mat_subtrees") == 1.0
        off = db.sql(stmt, options=ExecOptions(late_materialize=False))
        assert "late_mat_subtrees" not in off.timings
        assert res.table.to_rows() == off.table.to_rows()
        assert res.table.to_rows() == reference(db, stmt).table.to_rows()

    def test_sort_over_pushed_stack_still_pushes_below(self, db, prev):
        stmt = (
            "SELECT z, COUNT(*) AS c FROM Lb(prev, 't') WHERE v > 10 "
            "GROUP BY z ORDER BY c DESC"
        )
        res = db.sql(stmt)
        assert res.timings.get("late_mat_subtrees") == 1.0
        assert res.table.column("c").tolist() == [3, 1, 1]
        assert res.table.to_rows() == reference(db, stmt).table.to_rows()

    def test_join_input_stack_is_pushed(self, db, prev):
        """A filtered-Lb *derived table* join input is a
        ``[Select*] LineageScan`` chain, so the whole tree matches as one
        join core (side predicate filtered in the rid domain)."""
        db.create_table(
            "names",
            Table({
                "z": np.array([1, 2, 3], dtype=np.int64),
                "label": np.array(["one", "two", "three"], dtype=object),
            }),
        )
        plan = db.parse(
            "SELECT label, COUNT(*) AS c FROM "
            "(SELECT * FROM Lb(prev, 't', :bars) WHERE v > 10) AS s "
            "JOIN names ON s.z = names.z GROUP BY label"
        )
        res = db.execute(plan, params={"bars": [0, 1]})
        assert res.timings.get("late_mat_subtrees") == 1.0
        off = db.execute(
            plan,
            params={"bars": [0, 1]},
            options=ExecOptions(late_materialize=False),
        )
        assert res.table.to_rows() == off.table.to_rows()
        ref = reference(db, plan, params={"bars": [0, 1]})
        assert res.table.to_rows() == ref.table.to_rows()

    def test_plain_join_where_now_pushes_through_the_join(self, db, prev):
        """`Lb(...) JOIN t WHERE p` binds the WHERE above the join; the
        whole tree now pushes as a join core (rid-domain Lb side, narrow
        key probe, residual WHERE over the narrow join output)."""
        db.create_table(
            "names",
            Table({
                "z": np.array([1, 2, 3], dtype=np.int64),
                "label": np.array(["one", "two", "three"], dtype=object),
            }),
        )
        stmt = (
            "SELECT label, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
            "JOIN names ON t.z = names.z WHERE v > 10 GROUP BY label"
        )
        params = {"bars": [0, 1]}
        res = db.sql(stmt, params=params)
        assert res.timings.get("late_mat_subtrees") == 1.0
        assert res.timings.get("late_mat_joins") == 1.0
        assert res.table.column("c").tolist() == [1, 3]
        off = db.sql(stmt, params=params, options=ExecOptions(late_materialize=False))
        assert "late_mat_joins" not in off.timings
        assert res.table.to_rows() == off.table.to_rows()
        assert res.table.to_rows() == reference(db, stmt, params).table.to_rows()

    def test_distinct_pushes_in_rid_domain(self, db, prev):
        stmt, params = "SELECT DISTINCT z FROM Lb(prev, 't', :bars)", {"bars": [0, 1]}
        res = db.sql(stmt, params=params)
        assert res.timings.get("late_mat_subtrees") == 1.0
        assert res.timings.get("late_mat_distincts") == 1.0
        off = db.sql(stmt, params=params, options=ExecOptions(late_materialize=False))
        assert res.table.to_rows() == off.table.to_rows()
        assert res.table.to_rows() == reference(db, stmt, params).table.to_rows()

    def test_distinct_lineage_identical_to_materialized(self, db, prev):
        stmt = "SELECT DISTINCT w FROM Lb(prev, 't') WHERE v > 10"
        on = db.sql(stmt, options=INJECT)
        probes = list(range(len(on)))
        base_probes = list(range(db.table("t").num_rows))
        for off in (
            db.sql(stmt, options=INJECT.with_(late_materialize=False)),
            reference(db, stmt, options=INJECT),
        ):
            assert np.array_equal(on.backward(probes, "t"), off.backward(probes, "t"))
            assert np.array_equal(
                on.forward("t", base_probes), off.forward("t", base_probes)
            )

    def test_join_lineage_identical_to_materialized(self, db, prev):
        db.create_table(
            "names",
            Table({
                "z": np.array([1, 2, 3], dtype=np.int64),
                "label": np.array(["one", "two", "three"], dtype=object),
            }),
        )
        stmt = (
            "SELECT label, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
            "JOIN names ON t.z = names.z GROUP BY label"
        )
        params = {"bars": [0, 2]}
        on = db.sql(stmt, params=params, options=INJECT)
        probes = list(range(len(on)))
        for off in (
            db.sql(stmt, params=params, options=INJECT.with_(late_materialize=False)),
            reference(db, stmt, params, INJECT),
        ):
            for rel in ("t", "names"):
                assert np.array_equal(
                    on.backward(probes, rel), off.backward(probes, rel)
                )
                base_probes = list(range(db.table(rel).num_rows))
                assert np.array_equal(
                    on.forward(rel, base_probes), off.forward(rel, base_probes)
                )

    def test_join_unknown_column_raises_like_materialized(self, db, prev):
        db.create_table(
            "names",
            Table({
                "z": np.array([1, 2, 3], dtype=np.int64),
                "label": np.array(["one", "two", "three"], dtype=object),
            }),
        )
        scan = LineageScan(result="prev", relation="t", direction="backward")
        plan = GroupBy(
            HashJoin(scan, Scan("names"), ("z",), ("z",)),
            [(col("nope"), "nope")],
            [AggCall("count", None, "c")],
        )
        with pytest.raises(Exception, match="nope"):
            db.execute(plan)
        with pytest.raises(Exception, match="nope"):
            db.execute(plan, options=ExecOptions(late_materialize=False))
        with pytest.raises(Exception, match="nope"):
            reference(db, plan)

    def test_count_star_only_touches_no_columns(self, db, prev):
        stmt = "SELECT COUNT(*) AS c FROM Lb(prev, 't')"
        res = db.sql(stmt)
        assert res.timings.get("late_mat_subtrees") == 1.0
        assert res.table.column("c").tolist() == [6]
        assert reference(db, stmt).table.column("c").tolist() == [6]

    def test_select_star_with_where_keeps_full_schema(self, db, prev):
        """Regression: a predicate-only stack must output every source
        column, not just the predicate's (SELECT * emits no Project)."""
        stmt = "SELECT * FROM Lb(prev, 't') WHERE v > 12"
        res = db.sql(stmt)
        assert res.timings.get("late_mat_subtrees") == 1.0
        assert res.table.schema.names == ["z", "v", "w"]
        for off in (
            db.sql(stmt, options=ExecOptions(late_materialize=False)),
            reference(db, stmt),
        ):
            assert off.table.schema.names == ["z", "v", "w"]
            assert res.table.to_rows() == off.table.to_rows()

    def test_distinct_over_filtered_scan(self, db, prev):
        """Regression: DISTINCT above a pushed Select sees all columns."""
        stmt = "SELECT DISTINCT z FROM Lb(prev, 't') WHERE v > 10"
        for res in (db.sql(stmt), reference(db, stmt)):
            assert res.table.column("z").tolist() == [1, 2, 3]

    def test_order_by_over_filtered_scan(self, db, prev):
        stmt = "SELECT * FROM Lb(prev, 't') WHERE v > 12 ORDER BY v DESC"
        for res in (db.sql(stmt), reference(db, stmt)):
            assert res.table.column("v").tolist() == [15.0, 14.0, 13.0]

    def test_lf_stack_pushed(self, db, prev):
        stmt, params = "SELECT z FROM Lf('t', prev, :rows) WHERE c > 1", {"rows": [0, 2, 5]}
        res = db.sql(stmt, params=params)
        assert res.timings.get("late_mat_subtrees") == 1.0
        assert res.table.column("z").tolist() == [1, 2]
        assert reference(db, stmt, params).table.column("z").tolist() == [1, 2]

    def test_pushed_lineage_identical_to_materialized(self, db, prev):
        stmt = "SELECT z, COUNT(*) AS c FROM Lb(prev, 't') WHERE v > 10 GROUP BY z"
        on = db.sql(stmt, options=INJECT)
        off = db.sql(stmt, options=INJECT.with_(late_materialize=False))
        probes = list(range(len(on)))
        assert np.array_equal(on.backward(probes, "t"), off.backward(probes, "t"))
        base_probes = list(range(db.table("t").num_rows))
        assert np.array_equal(
            on.forward("t", base_probes), off.forward("t", base_probes)
        )

    def test_pushed_defer_capture(self, db, prev):
        on = db.sql(
            "SELECT z, COUNT(*) AS c FROM Lb(prev, 't') GROUP BY z",
            options=ExecOptions(capture=CaptureMode.DEFER),
        )
        off = db.sql(
            "SELECT z, COUNT(*) AS c FROM Lb(prev, 't') GROUP BY z",
            options=ExecOptions(capture=CaptureMode.DEFER, late_materialize=False),
        )
        assert np.array_equal(on.backward([1], "t"), off.backward([1], "t"))

    def test_pushed_relations_pruning(self, db, prev):
        res = db.sql(
            "SELECT z, COUNT(*) AS c FROM Lb(prev, 't') GROUP BY z",
            options=ExecOptions(capture=CaptureConfig.inject(relations={"t"})),
        )
        assert res.lineage.relations == ["t"]

    def test_drift_guards_still_raise_on_pushed_path(self, db, prev):
        plan = db.parse("SELECT z, COUNT(*) AS c FROM Lb(prev, 't') GROUP BY z")
        db.create_table(
            "t",
            Table({"z": np.array([9], dtype=np.int64),
                   "v": np.array([0.0]),
                   "w": np.array([0], dtype=np.int64)}),
            replace=True,
        )
        with pytest.raises(PlanError, match="replaced"):
            db.execute(plan)

    def test_unknown_predicate_column_raises_like_materialized(
        self, db, prev
    ):
        scan = LineageScan(result="prev", relation="t", direction="backward")
        plan = Select(scan, col("nope") > 1)
        with pytest.raises(Exception, match="nope"):
            db.execute(plan)
        with pytest.raises(Exception, match="nope"):
            db.execute(plan, options=ExecOptions(late_materialize=False))
        with pytest.raises(Exception, match="nope"):
            reference(db, plan)


class TestChainExecution:
    """End-to-end chain flattening: a multi-join statement runs as one
    rid-domain core, equivalent to the materializing path."""

    @pytest.fixture
    def chain_db(self, db, prev):
        db.create_table(
            "names",
            Table({
                "z": np.array([1, 2, 3], dtype=np.int64),
                "label": np.array(["one", "two", "three"], dtype=object),
            }),
        )
        db.create_table(
            "cats",
            Table({
                "label": np.array(["one", "two", "three"], dtype=object),
                "cat": np.array([0, 1, 1], dtype=np.int64),
            }),
        )
        return db

    CHAIN = (
        "SELECT cat, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
        "JOIN names ON t.z = names.z "
        "JOIN cats ON names.label = cats.label GROUP BY cat"
    )

    def test_chain_counts_hops_and_matches_materialized(self, chain_db):
        params = {"bars": [0, 1]}
        res = chain_db.sql(self.CHAIN, params=params)
        assert res.timings.get("late_mat_subtrees") == 1.0
        assert res.timings.get("late_mat_joins") == 1.0
        assert res.timings.get("late_mat_chain_hops") == 1.0
        off = chain_db.sql(
            self.CHAIN, params=params, options=ExecOptions(late_materialize=False)
        )
        assert "late_mat_chain_hops" not in off.timings
        assert res.table.to_rows() == off.table.to_rows()
        ref = reference(chain_db, self.CHAIN, params)
        assert res.table.to_rows() == ref.table.to_rows()

    def test_chain_lineage_identical_to_materialized(self, chain_db):
        params = {"bars": [0, 2]}
        on = chain_db.sql(self.CHAIN, params=params, options=INJECT)
        probes = list(range(len(on)))
        for off in (
            chain_db.sql(
                self.CHAIN, params=params, options=INJECT.with_(late_materialize=False)
            ),
            reference(chain_db, self.CHAIN, params, INJECT),
        ):
            for rel in ("t", "names", "cats"):
                assert np.array_equal(
                    on.backward(probes, rel), off.backward(probes, rel)
                )
                base_probes = list(range(chain_db.table(rel).num_rows))
                assert np.array_equal(
                    on.forward(rel, base_probes), off.forward(rel, base_probes)
                )

    @pytest.mark.parametrize("capture", [CaptureMode.NONE, CaptureMode.INJECT])
    def test_chain_run_leaves_no_reference_cycle(self, chain_db, capture):
        """A pushed core's position arrays are freed when its statement
        returns, not at the collector's next pass."""
        import gc

        plan = chain_db.parse(self.CHAIN)
        opts = ExecOptions(capture=capture)
        chain_db.execute(plan, params={"bars": [0, 1]}, options=opts)
        gc.collect()
        gc.disable()
        try:
            chain_db.execute(plan, params={"bars": [0, 1]}, options=opts)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("capture", [CaptureMode.NONE, CaptureMode.INJECT])
    @pytest.mark.parametrize("stmt", [
        CHAIN,  # the Lb scan enters the block as a materialized source
        "SELECT cat, COUNT(*) AS c FROM names JOIN cats ON names.label = cats.label "
        "GROUP BY cat",  # plain: a generated hash join
        "SELECT names.z, cat FROM names JOIN cats ON names.label = cats.label",
    ])
    def test_compiled_join_leaves_no_reference_cycle(self, chain_db, stmt, capture):
        """A compiled block's generated function and emitter tree are freed
        when its statement returns, not at the collector's next pass."""
        import gc

        plan = chain_db.parse(stmt)
        opts = ExecOptions(capture=capture)
        reference(chain_db, plan, {"bars": [0, 1]}, opts)
        gc.collect()
        gc.disable()
        try:
            reference(chain_db, plan, {"bars": [0, 1]}, opts)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sort_over_chain_still_pushes_below(self, chain_db):
        stmt, params = self.CHAIN + " ORDER BY c DESC", {"bars": [0, 1, 2]}
        res = chain_db.sql(stmt, params=params)
        assert res.timings.get("late_mat_chain_hops") == 1.0
        off = chain_db.sql(stmt, params=params, options=ExecOptions(late_materialize=False))
        assert res.table.to_rows() == off.table.to_rows()
        assert res.table.to_rows() == reference(chain_db, stmt, params).table.to_rows()


class TestLoweredCoreShapes:
    """The two lowered-core shapes the statement suites do not build: a
    hop whose inputs both carry lineage, its right input a join (run as a
    core of its own), and a spine on the right whose input is a join."""

    SHAPES = {
        "lineage_both_sides": lambda: HashJoin(
            _scan(), HashJoin(_scan(), Scan("d1"), ("z",), ("z",)), ("w",), ("w",)
        ),
        "spine_right": lambda: HashJoin(
            Scan("d1"), HashJoin(_scan(), Scan("d1"), ("z",), ("z",)), ("g",), ("g",)
        ),
    }

    @pytest.fixture
    def shape_db(self, db, prev):
        db.create_table(
            "d1",  # z and g repeat: no side is known unique
            Table({
                "z": np.array([1, 2, 2, 3], dtype=np.int64),
                "g": np.array([0, 1, 0, 1], dtype=np.int64),
            }),
        )
        return db

    @pytest.mark.parametrize("capture", [CaptureMode.NONE, CaptureMode.INJECT])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_pushes_and_matches_materialized(self, shape_db, shape, capture):
        opts = ExecOptions(capture=capture)
        on = shape_db.execute(self.SHAPES[shape](), options=opts)
        assert len(on) > 0
        counters = {k: v for k, v in on.timings.items() if k.startswith("late_mat_")}
        assert counters == {
            "late_mat_subtrees": 1.0,
            "late_mat_joins": 1.0,
            "late_mat_chain_hops": 1.0,
            "late_mat_build_swaps": 1.0,
        }
        for off in (
            shape_db.execute(self.SHAPES[shape](), options=opts.with_(late_materialize=False)),
            reference(shape_db, self.SHAPES[shape](), options=opts),
        ):
            assert on.table.to_rows() == off.table.to_rows()
            if capture is CaptureMode.INJECT:
                assert on.lineage.relations == off.lineage.relations
                probes = list(range(len(on)))
                for rel in on.lineage.relations:
                    assert np.array_equal(on.backward(probes, rel), off.backward(probes, rel))
                    base_probes = list(range(shape_db.table(rel.split("#")[0]).num_rows))
                    assert np.array_equal(
                        on.forward(rel, base_probes), off.forward(rel, base_probes)
                    )


class TestBuildSideDecisions:
    """The stats-driven build-side decision table, asserted through the
    executors' ``timings`` counters (never through wall time):
    ``late_mat_build_swaps`` counts hops built on the plan-right side,
    ``late_mat_pkfk_detected`` hops upgraded to the pk-fk probe by
    column statistics alone."""

    @pytest.fixture
    def sdb(self, db, prev):
        db.create_table(
            "names",  # unique key column: z is a primary key
            Table({
                "z": np.array([1, 2, 3], dtype=np.int64),
                "label": np.array(["one", "two", "three"], dtype=object),
            }),
        )
        db.create_table(
            "two",  # smaller than Lb(prev, 't') and *not* unique
            Table({
                "z": np.array([2, 2], dtype=np.int64),
                "tag": np.array([7, 8], dtype=np.int64),
            }),
        )
        return db

    def _both_paths(self, sdb, stmt):
        pushed = sdb.sql(stmt)
        materialized = sdb.sql(stmt, options=ExecOptions(late_materialize=False))
        assert pushed.table.to_rows() == materialized.table.to_rows()
        assert pushed.table.to_rows() == reference(sdb, stmt).table.to_rows()
        return pushed

    def test_smaller_side_becomes_build_side(self, sdb):
        """Neither side unique → build on the smaller (right) side."""
        res = self._both_paths(
            sdb,
            "SELECT COUNT(*) AS c FROM Lb(prev, 't') JOIN two ON t.z = two.z",
        )
        assert res.timings.get("late_mat_build_swaps") == 1.0
        assert "late_mat_pkfk_detected" not in res.timings

    def test_pkfk_detected_on_lineage_side(self, sdb):
        """An Lb over a dimension table with a unique key keeps the
        build left *and* takes the pk-fk probe the plan never asserted."""
        sdb.sql(
            "SELECT z, COUNT(*) AS c FROM names GROUP BY z",
            options=INJECT.with_(name="prevd"),
        )
        res = self._both_paths(
            sdb,
            "SELECT label, COUNT(*) AS c FROM Lb(prevd, 'names') "
            "JOIN t ON names.z = t.z GROUP BY label",
        )
        assert res.timings.get("late_mat_pkfk_detected") == 1.0
        assert "late_mat_build_swaps" not in res.timings

    def test_pkfk_detected_on_plain_side_swaps_build(self, sdb):
        """A unique plain (right) side wins both the swap and the
        pk-fk fast path."""
        res = self._both_paths(
            sdb,
            "SELECT label, COUNT(*) AS c FROM Lb(prev, 't') "
            "JOIN names ON t.z = names.z GROUP BY label",
        )
        assert res.timings.get("late_mat_build_swaps") == 1.0
        assert res.timings.get("late_mat_pkfk_detected") == 1.0

    def test_tie_breaks_deterministically_left(self, sdb):
        """Equal cardinalities, no uniqueness → build left, always."""
        res = self._both_paths(
            sdb,
            "SELECT COUNT(*) AS c FROM Lb(prev, 't') AS a "
            "JOIN Lb(prev, 't') AS b ON a.w = b.w",
        )
        assert "late_mat_build_swaps" not in res.timings
        assert "late_mat_pkfk_detected" not in res.timings

    def test_uniqueness_probe_respects_row_budget(
        self, sdb, monkeypatch
    ):
        """Deriving uniqueness scans the base column once per epoch;
        above the budget the side reports unknown and the cardinality
        rule decides, keeping cold stats scans out of interactive
        statements over huge relations."""
        import repro.exec.late_mat as late_mat

        monkeypatch.setattr(late_mat, "UNIQUENESS_PROBE_MAX_ROWS", 2)
        res = self._both_paths(
            sdb,
            "SELECT label, COUNT(*) AS c FROM Lb(prev, 't') "
            "JOIN names ON t.z = names.z GROUP BY label",
        )
        # `names` (3 rows) exceeds the patched budget: no pk-fk
        # detection, but the smaller side still becomes the build side.
        assert "late_mat_pkfk_detected" not in res.timings
        assert res.timings.get("late_mat_build_swaps") == 1.0

    def test_plan_pkfk_flag_pins_left_build(self, sdb):
        """A plan-level pkfk assertion keeps the build left and is not
        re-counted as a stats detection."""
        sdb.sql(
            "SELECT z, COUNT(*) AS c FROM names GROUP BY z",
            options=INJECT.with_(name="prevd"),
        )
        scan = LineageScan(result="prevd", relation="names", direction="backward")
        plan = GroupBy(
            HashJoin(scan, Scan("t"), ("z",), ("z",), pkfk=True),
            [],
            [AggCall("count", None, "c")],
        )
        res = sdb.execute(plan)
        off = sdb.execute(plan, options=ExecOptions(late_materialize=False))
        assert res.table.to_rows() == off.table.to_rows()
        assert "late_mat_build_swaps" not in res.timings
        assert "late_mat_pkfk_detected" not in res.timings


class TestChainFallbackBoundary:
    """Regression pins: θ-joins, cross products, and lineage-free joins
    must keep materializing correctly and must *not* increment the chain
    counters."""

    CHAIN_COUNTERS = (
        "late_mat_joins",
        "late_mat_chain_hops",
        "late_mat_build_swaps",
        "late_mat_pkfk_detected",
    )

    def _assert_no_chain_counters(self, res):
        for key in self.CHAIN_COUNTERS:
            assert key not in res.timings, key

    def test_theta_join_still_materializes(self, db, prev):
        plan = GroupBy(
            ThetaJoin(_scan(), Scan("t"), Col("v") > Col("v_r")),
            [],
            [AggCall("count", None, "c")],
        )
        res = db.execute(plan)
        off = db.execute(plan, options=ExecOptions(late_materialize=False))
        assert res.table.to_rows() == off.table.to_rows()
        assert res.table.to_rows() == reference(db, plan).table.to_rows()
        self._assert_no_chain_counters(res)

    def test_cross_product_still_materializes(self, db, prev):
        plan = GroupBy(
            CrossProduct(_scan(), Scan("t")),
            [],
            [AggCall("count", None, "c")],
        )
        res = db.execute(plan)
        off = db.execute(plan, options=ExecOptions(late_materialize=False))
        assert res.table.to_rows() == off.table.to_rows()
        assert res.table.to_rows() == reference(db, plan).table.to_rows()
        assert res.table.column("c").tolist() == [36]
        self._assert_no_chain_counters(res)

    def test_lineage_free_join_has_no_counters(self, db, prev):
        res = db.sql("SELECT COUNT(*) AS c FROM t JOIN t ON t.z = t.z")
        self._assert_no_chain_counters(res)
        assert "late_mat_subtrees" not in res.timings

    def test_single_join_core_counts_no_chain_hops(self, db, prev):
        """PR 4's single-join push is hop-free: the chain counter only
        fires beyond the first join of a core."""
        db.create_table(
            "names",
            Table({
                "z": np.array([1, 1, 2], dtype=np.int64),
                "label": np.array(["one", "uno", "two"], dtype=object),
            }),
        )
        res = db.sql(
            "SELECT label, COUNT(*) AS c FROM Lb(prev, 't') "
            "JOIN names ON t.z = names.z GROUP BY label",
        )
        assert res.timings.get("late_mat_joins") == 1.0
        assert "late_mat_chain_hops" not in res.timings

    def test_linear_core_has_no_chain_counters(self, db, prev):
        """A single-table stack runs as a zero-join core: pushed, but
        with no join and no (negative) chain hop counted."""
        res = db.sql(
            "SELECT z, COUNT(*) AS c FROM Lb(prev, 't') WHERE v > 10 GROUP BY z",
        )
        assert res.timings.get("late_mat_subtrees") == 1.0
        self._assert_no_chain_counters(res)


class TestResultRegistryBounds:
    """One bound, set when the database is made: ``max_result_bytes``
    refuses an unpinned registration past it and never removes an entry."""

    def _result(self, db):
        return db.sql(
            "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
            options=INJECT,
        )

    def _budgeted(self, db, budget):
        db2 = Database(max_result_bytes=budget)
        db2.create_table("t", db.table("t"))
        return db2

    def test_unbounded_by_default(self, db):
        res = self._result(db)
        for name in ("a", "b", "c", "d"):
            db.register_result(name, res)
        assert db._results.max_result_bytes is None
        assert db.results() == ["a", "b", "c", "d"]

    def test_pinned_entries_survive(self, db):
        res = self._result(db)
        db2 = self._budgeted(db, res.lineage.memory_bytes())
        db2.register_result("keep", res, pin=True)
        db2.register_result("a", res)
        with pytest.raises(RegistryFullError, match="'b'"):
            db2.register_result("b", res)
        assert db2.results() == ["a", "keep"]

    def test_bad_bound_rejected(self):
        for bound in (0, -1):
            with pytest.raises(InvalidArgumentError, match="positive"):
                ResultRegistry(max_result_bytes=bound)

    def test_refused_result_unknown_to_sql(self, db):
        db2 = self._budgeted(db, 1)
        with pytest.raises(RegistryFullError):
            db2.sql(
                "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
                options=INJECT.with_(name="a"),
            )
        with pytest.raises(SqlError, match="unknown result"):
            db2.parse("SELECT z FROM Lb(a, 't')")

    def test_lookups_leave_the_registry_unchanged(self, db):
        res = self._result(db)
        db2 = self._budgeted(db, res.lineage.memory_bytes())
        db2.register_result("a", res)
        db2.result("a")
        db2.sql("SELECT COUNT(*) AS c FROM Lb(a, 't')")
        with pytest.raises(RegistryFullError):
            db2.register_result("b", res)
        assert db2.results() == ["a"]
        assert db2._results.epoch("a") == 1

    def test_drop_clears_pin(self, db):
        db.register_result("a", self._result(db), pin=True)
        db.drop_result("a")
        assert db.results() == []

    def test_crossfilter_views_survive_registry_pressure(self, db):
        from repro.apps.crossfilter import CrossfilterSession

        db2 = self._budgeted(db, self._result(db).lineage.memory_bytes())
        session = CrossfilterSession.from_database(db2, "t", ("z", "w"), "bt")
        for _ in range(3):  # re-registering replaces junk's bytes
            db2.register_result("junk", self._result(db2))
        with pytest.raises(RegistryFullError):
            db2.register_result("more", self._result(db2))
        counts = session.brush("z", 1)  # pinned views still answer via SQL
        assert counts["w"].sum() == 3
        session.close()
        assert db2.results() == ["junk"]


class TestOnQualifierTieBreak:
    def test_lb_self_join_needs_no_alias(self, db, prev):
        res = db.sql("SELECT t.v FROM Lb(prev, 't', 0) JOIN t ON t.z = t.z")
        # Bar 0 traces rows {0, 1} (z=1); joining back on z pairs them.
        assert sorted(res.table.column("v").tolist()) == [10.0, 10.0, 11.0, 11.0]

    def test_plain_self_join_needs_no_alias(self, db):
        res = db.sql("SELECT COUNT(*) AS c FROM t JOIN t ON t.z = t.z")
        assert res.table.column("c").tolist() == [2 * 2 + 3 * 3 + 1]

    def test_one_sided_tie_takes_complement(self, db):
        # 'a' is left-only, so the tied 't' must read as the joining side.
        res = db.sql("SELECT a.z FROM t AS a JOIN t ON a.z = t.z")
        assert len(res) == 14

    def test_unqualified_tie_resolves_against_partner(self, db):
        db.create_table(
            "u", Table({"z": np.array([9, 9], dtype=np.int64),
                        "only_u": np.array([1, 3], dtype=np.int64)})
        )
        # 'z' exists on both sides; 'only_u' pins the right, so z = left
        # (t.z, not u.z — matching z values 1 and 3, never 9).
        res = db.sql("SELECT COUNT(*) AS c FROM t JOIN u ON z = only_u")
        assert res.table.column("c").tolist() == [3]

    def test_unrelated_condition_still_rejected(self, db):
        with pytest.raises(SqlError, match="both sides"):
            db.sql("SELECT t.z FROM t AS a JOIN t AS b ON a.z = a.z")
