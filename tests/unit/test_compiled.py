"""Compiled (produce/consume codegen) backend."""

import numpy as np
import pytest

from repro.api import ExecOptions
from repro.exec.compiled import CompiledExecutor
from repro.lineage.capture import CaptureConfig, CaptureMode
from repro.plan.logical import (
    AggCall,
    GroupBy,
    HashJoin,
    Project,
    Scan,
    Select,
    SetOp,
    ThetaJoin,
    col,
)

INJECT = ExecOptions(capture=CaptureMode.INJECT)
COMPILED = ExecOptions(backend="compiled")


@pytest.fixture
def cex(small_db):
    return CompiledExecutor(small_db.catalog)


def _tables_equal(a, b, tol=1e-9):
    rows_a, rows_b = a.to_rows(), b.to_rows()
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b, strict=True):
        for x, y in zip(ra, rb, strict=True):
            if isinstance(x, float) or isinstance(y, float):
                assert abs(float(x) - float(y)) < tol
            else:
                assert x == y


PLANS = {
    "select": lambda: Select(Scan("zipf"), col("v") < 42.0),
    "project": lambda: Project(Scan("zipf"), [(col("v") + 1.0, "v1")]),
    "groupby": lambda: GroupBy(
        Select(Scan("zipf"), col("v") < 60.0),
        [(col("z"), "z")],
        [AggCall("count", None, "c"), AggCall("sum", col("v"), "s")],
    ),
    "join": lambda: HashJoin(Scan("gids"), Scan("zipf"), ("id",), ("z",), pkfk=True),
    "mn_join": lambda: HashJoin(Scan("zipf2"), Scan("zipf"), ("z",), ("z",)),
    "theta": lambda: ThetaJoin(Scan("gids"), Scan("zipf2"), col("id") > col("z")),
    "agg_over_join": lambda: GroupBy(
        HashJoin(Scan("gids"), Scan("zipf"), ("id",), ("z",), pkfk=True),
        [(col("payload"), "payload")],
        [AggCall("count", None, "c")],
    ),
    "union": lambda: SetOp(
        "union",
        Project(Scan("zipf"), [(col("z"), "z")]),
        Project(Scan("zipf2"), [(col("z"), "z")]),
    ),
    "nested_agg_join": lambda: HashJoin(
        GroupBy(Scan("zipf"), [(col("z"), "z")], [AggCall("count", None, "c")]),
        Scan("zipf2"),
        ("z",),
        ("z",),
        pkfk=True,
    ),
}


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_tables_match_vector_backend(self, small_db, name):
        plan = PLANS[name]()
        vec = small_db.execute(plan, options=INJECT)
        comp = small_db.execute(plan, options=INJECT.with_(backend="compiled"))
        _tables_equal(vec.table, comp.table)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_lineage_matches_vector_backend(self, small_db, name):
        plan = PLANS[name]()
        vec = small_db.execute(plan, options=INJECT)
        comp = small_db.execute(plan, options=INJECT.with_(backend="compiled"))
        for rel in vec.lineage.relations:
            n = len(vec.table)
            probes = list(range(min(n, 8)))
            if not probes:
                continue
            assert np.array_equal(
                vec.lineage.backward(probes, rel),
                comp.lineage.backward(probes, rel),
            ), (name, rel)
            base_n = min(10, small_db.table(rel.split("#")[0]).num_rows)
            assert np.array_equal(
                vec.lineage.forward(rel, list(range(base_n))),
                comp.lineage.forward(rel, list(range(base_n))),
            ), (name, rel)

    def test_mn_join_under_groupby_forward_fanout(self):
        """Regression (found by the randomized plan-equivalence harness):
        a build row fanning out through an m:n join into *several* groups
        must keep every forward edge — the compiled group-by block used a
        1-to-1 scatter where later groups overwrote earlier ones."""
        from repro.api import Database
        from repro.storage import Table

        db = Database()
        db.create_table("t", Table({"k": np.array([1], dtype=np.int64)}))
        db.create_table(
            "d",
            Table({
                "k": np.array([1, 1], dtype=np.int64),
                "g": np.array([0, 1], dtype=np.int64),
            }),
        )
        stmt = "SELECT g, COUNT(*) AS c FROM t JOIN d ON t.k = d.k GROUP BY g"
        for backend in ("vector", "compiled"):
            res = db.sql(stmt, options=INJECT.with_(backend=backend))
            # The single t row reaches both output groups.
            assert res.forward("t", [0]).tolist() == [0, 1], backend
            assert res.forward("d", [0, 1]).tolist() == [0, 1], backend


class TestCodegen:
    def test_generated_source_is_exposed(self, small_db, cex):
        cex.execute(PLANS["groupby"](), CaptureConfig.inject())
        src = cex.last_source
        assert "def __block" in src
        assert "for " in src  # pipelines are loops

    def test_select_inlines_predicate(self, small_db, cex):
        cex.execute(PLANS["select"](), CaptureConfig.none())
        assert "if " in cex.last_source

    def test_join_builds_hash_table(self, small_db, cex):
        cex.execute(PLANS["join"](), CaptureConfig.none())
        assert "{}" in cex.last_source  # ht initialization

    def test_capture_none_produces_no_lineage(self, small_db):
        res = small_db.execute(PLANS["groupby"](), options=COMPILED)
        assert res.lineage is None

    def test_having_in_compiled_backend(self, small_db):
        plan = GroupBy(
            Scan("zipf"),
            [(col("z"), "z")],
            [AggCall("count", None, "c")],
            having=col("c") > 150,
        )
        vec = small_db.execute(plan, options=INJECT)
        comp = small_db.execute(plan, options=INJECT.with_(backend="compiled"))
        _tables_equal(vec.table, comp.table)
        for i in range(len(vec.table)):
            assert np.array_equal(
                vec.lineage.backward([i], "zipf"),
                comp.lineage.backward([i], "zipf"),
            )

    def test_params_in_compiled_backend(self, small_db):
        from repro.expr.ast import Param

        plan = Select(Scan("zipf"), col("v") < Param("p"))
        vec = small_db.execute(plan, params={"p": 33.0})
        comp = small_db.execute(plan, params={"p": 33.0}, options=COMPILED)
        _tables_equal(vec.table, comp.table)


class TestGeneratedSourceShape:
    """Golden-ish checks that the codegen emits the paper's structure."""

    def test_groupby_block_has_build_and_scan_phases(self, small_db, cex):
        cex.execute(PLANS["groupby"](), CaptureConfig.inject())
        src = cex.last_source
        # γ_ht build loop with per-group rid lists ...
        assert ".append(" in src
        # ... and the γ_agg scan over the insertion-ordered hash table.
        assert ".items():" in src

    def test_join_probe_loop_nested_in_scan(self, small_db, cex):
        cex.execute(PLANS["mn_join"](), CaptureConfig.none())
        src = cex.last_source
        assert "setdefault" in src  # m:n build appends to bucket lists
        assert src.count("for ") >= 3  # build loop, probe loop, match loop

    def test_pkfk_join_stores_single_entry(self, small_db, cex):
        cex.execute(PLANS["join"](), CaptureConfig.none())
        src = cex.last_source
        assert "setdefault" not in src  # unique build keys: no rid arrays
        assert ".get(" in src

    def test_lineage_rids_propagate_through_pipeline(self, small_db, cex):
        cex.execute(PLANS["groupby"](), CaptureConfig.inject())
        src = cex.last_source
        # The select's surviving row appends its *base* rid to the group
        # bucket: rid variables flow into the hash-table state.
        assert "bw" in src or "].append(i" in src


class TestCompiledChainPush:
    """The flattened join chain on the *compiled* backend: same shared
    pushed core, same fallback boundary (regression pins for the chain
    counters)."""

    CHAIN_COUNTERS = (
        "late_mat_joins",
        "late_mat_chain_hops",
        "late_mat_build_swaps",
        "late_mat_pkfk_detected",
    )

    @pytest.fixture
    def chain_db(self):
        from repro.api import Database
        from repro.storage import Table

        db = Database()
        db.create_table(
            "t",
            Table({
                "k": np.array([0, 1, 2, 0, 1], dtype=np.int64),
                "v": np.array([1, 2, 3, 4, 5], dtype=np.int64),
            }),
        )
        db.create_table(
            "d1",
            Table({
                "k": np.array([0, 1, 1], dtype=np.int64),
                "g": np.array([0, 0, 1], dtype=np.int64),
            }),
        )
        db.create_table(
            "d2",
            Table({
                "g": np.array([0, 1], dtype=np.int64),
                "name": np.array(["a", "b"], dtype=object),
            }),
        )
        db.sql(
            "SELECT k, COUNT(*) AS c FROM t GROUP BY k",
            options=INJECT.with_(name="prev"),
        )
        return db

    def test_chain_pushes_as_one_core(self, chain_db):
        stmt = (
            "SELECT name, COUNT(*) AS c FROM Lb(prev, 't', :bars) "
            "JOIN d1 ON t.k = d1.k JOIN d2 ON d1.g = d2.g GROUP BY name"
        )
        opts = INJECT.with_(backend="compiled")
        pushed = chain_db.sql(stmt, params={"bars": [0, 1]}, options=opts)
        materialized = chain_db.sql(
            stmt,
            params={"bars": [0, 1]},
            options=opts.with_(late_materialize=False),
        )
        assert pushed.timings.get("late_mat_joins") == 1.0
        assert pushed.timings.get("late_mat_chain_hops") == 1.0
        assert pushed.table.to_rows() == materialized.table.to_rows()
        probes = list(range(len(pushed)))
        for rel in ("t", "d1", "d2"):
            assert np.array_equal(
                pushed.backward(probes, rel), materialized.backward(probes, rel)
            )

    def test_theta_join_has_no_chain_counters(self, chain_db):
        from repro.expr.ast import Col
        from repro.plan.logical import LineageScan

        scan = LineageScan(result="prev", relation="t", direction="backward")
        plan = GroupBy(
            ThetaJoin(scan, Scan("d1"), Col("v") > Col("g")),
            [],
            [AggCall("count", None, "c")],
        )
        res = chain_db.execute(plan, options=COMPILED)
        off = chain_db.execute(
            plan, options=COMPILED.with_(late_materialize=False)
        )
        assert res.table.to_rows() == off.table.to_rows()
        for key in self.CHAIN_COUNTERS:
            assert key not in res.timings, key

    def test_lineage_free_join_has_no_chain_counters(self, chain_db):
        res = chain_db.sql(
            "SELECT COUNT(*) AS c FROM d1 JOIN d2 ON d1.g = d2.g",
            options=COMPILED,
        )
        for key in self.CHAIN_COUNTERS:
            assert key not in res.timings, key
        assert "late_mat_subtrees" not in res.timings
