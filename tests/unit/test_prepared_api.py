"""The prepared-statement / session API surface: ExecOptions validation
and the one execute/sql signature, PreparedQuery caching, Session
sharing, the LineageResolutionCache, registry byte budgets, and
base-relation epoch guards."""

import inspect

import numpy as np
import pytest

import repro.api as api
from repro.api import Database, ExecOptions, Session, plan_param_names
from repro.errors import PlanError, StaleBindingError
from repro.lineage.cache import LineageResolutionCache
from repro.lineage.capture import CaptureConfig, CaptureMode
from repro.storage import Table

CAPTURE = ExecOptions(capture=CaptureMode.INJECT)


@pytest.fixture
def db():
    db = Database()
    db.create_table(
        "t",
        Table(
            {
                "z": np.array([1, 1, 2, 3, 3, 3], dtype=np.int64),
                "v": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            }
        ),
    )
    return db


@pytest.fixture
def prev(db):
    return db.sql(
        "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
        options=CAPTURE.with_(name="prev"),
    )


class TestExecOptions:
    def test_with_overrides_fields(self):
        opts = ExecOptions(capture=CaptureMode.INJECT)
        other = opts.with_(backend="compiled", name="x")
        assert other.backend == "compiled" and other.name == "x"
        assert other.capture is CaptureMode.INJECT
        assert opts.backend == "vector" and opts.name is None  # unchanged

    def test_unknown_backend_rejected(self):
        with pytest.raises(PlanError, match="unknown backend 'nope'"):
            ExecOptions(backend="nope")
        with pytest.raises(PlanError, match="unknown backend 'nope'"):
            CAPTURE.with_(backend="nope")
        with pytest.raises(PlanError, match="invalid capture"):
            ExecOptions(capture="yes please")

    def test_config_property(self):
        assert ExecOptions().config.mode is CaptureMode.NONE
        assert CAPTURE.config.mode is CaptureMode.INJECT
        config = CaptureConfig.inject(relations={"t"})
        assert ExecOptions(capture=config).config is config


class TestOneSurface:
    """``ExecOptions`` is the only way to say how a statement runs:
    ``Database.execute``/``sql`` have exactly the ``Session`` shape."""

    def test_signatures_match_session(self):
        for method, first in ((Database.sql, "statement"), (Database.execute, "plan")):
            params = list(inspect.signature(method).parameters)
            assert params == ["self", first, "params", "options"]
            session_method = getattr(Session, method.__name__)
            assert list(inspect.signature(session_method).parameters) == params

    def test_loose_kwargs_raise_type_error(self, db):
        with pytest.raises(TypeError, match="capture"):
            db.sql("SELECT z FROM t", capture=CaptureMode.INJECT)
        with pytest.raises(TypeError, match="late_materialize"):
            db.execute(db.parse("SELECT z FROM t"), late_materialize=False)


class TestPreparedQuery:
    def test_run_matches_one_shot(self, db, prev):
        stmt = "SELECT z, COUNT(*) AS c FROM Lb(prev, 't', :bars) GROUP BY z"
        prepared = db.prepare(stmt, options=CAPTURE)
        for bars in ([0], [1, 2], []):
            got = prepared.run(params={"bars": bars})
            want = db.sql(stmt, params={"bars": bars}, options=CAPTURE)
            assert got.table.to_rows() == want.table.to_rows()
            probes = np.arange(len(got))
            assert np.array_equal(
                got.backward(probes, "t"), want.backward(probes, "t")
            )

    def test_param_names_collected(self, db, prev):
        prepared = db.prepare(
            "SELECT z FROM Lb(prev, 't', :bars) WHERE v >= :cut AND z IN :zs"
        )
        assert prepared.param_names == {"bars", "cut", "zs"}

    def test_missing_params_raise_before_execution(self, db, prev):
        prepared = db.prepare("SELECT z FROM Lb(prev, 't', :bars)")
        with pytest.raises(PlanError, match="missing parameter"):
            prepared.run()
        with pytest.raises(PlanError, match="bars"):
            prepared.run(params={"other": 1})

    def test_per_run_options_override(self, db, prev):
        prepared = db.prepare(
            "SELECT z, COUNT(*) AS c FROM Lb(prev, 't', :bars) GROUP BY z",
            options=CAPTURE,
        )
        compiled = prepared.run(
            params={"bars": [0]},
            options=prepared.options.with_(backend="compiled"),
        )
        vector = prepared.run(params={"bars": [0]})
        assert compiled.table.to_rows() == vector.table.to_rows()

    def test_plan_prepare_and_explain(self, db, prev):
        plan = db.parse("SELECT z FROM Lb(prev, 't', :bars)")
        prepared = db.prepare(plan)
        assert "LineageScan" in prepared.explain()
        assert len(prepared.run(params={"bars": [0]})) == 2

    def test_rewrite_precomputed_still_pushes(self, db, prev):
        prepared = db.prepare(
            "SELECT z, COUNT(*) AS c FROM Lb(prev, 't', :bars) GROUP BY z"
        )
        res = prepared.run(params={"bars": [0]})
        assert res.timings.get("late_mat_subtrees") == 1.0
        off = prepared.run(
            params={"bars": [0]},
            options=prepared.options.with_(late_materialize=False),
        )
        assert "late_mat_subtrees" not in off.timings
        assert off.table.to_rows() == res.table.to_rows()

    def test_standalone_prepared_owns_a_cache(self, db, prev):
        prepared = db.prepare("SELECT z FROM Lb(prev, 't', :bars)")
        prepared.run(params={"bars": [0]})
        prepared.run(params={"bars": [0]})
        assert prepared.lineage_cache.stats()["hits"] == 1


class TestSession:
    def test_statements_share_rid_resolution(self, db, prev):
        session = db.session()
        a = session.prepare("SELECT z FROM Lb(prev, 't', :bars)")
        b = session.prepare(
            "SELECT v, COUNT(*) AS c FROM Lb(prev, 't', :bars) GROUP BY v"
        )
        a.run(params={"bars": [0]})
        b.run(params={"bars": [0]})  # same (result, relation, subset)
        stats = session.lineage_cache.stats()
        assert stats == {"hits": 1, "misses": 1, "entries": 1}

    def test_sql_memoizes_by_text(self, db, prev):
        session = db.session()
        stmt = "SELECT z FROM Lb(prev, 't', :bars)"
        session.sql(stmt, params={"bars": [0]})
        first = session._statements[api.normalize_statement(stmt)]
        session.sql(stmt, params={"bars": [1]})
        assert session._statements[api.normalize_statement(stmt)] is first

    def test_sql_memo_normalizes_whitespace_and_keyword_case(self, db, prev):
        """Generated SQL differing only in layout or keyword casing must
        hit the same memo entry (ROADMAP follow-up from PR 3)."""
        session = db.session()
        session.sql(
            "SELECT z FROM Lb(prev, 't', :bars)", params={"bars": [0]}
        )
        equivalents = [
            "select   z\n  from Lb(prev, 't', :bars)",
            "SELECT z FROM LB(prev, 't', :bars)",
            "  Select z  From  lb(prev, 't',  :bars)  ",
        ]
        for text in equivalents:
            res = session.sql(text, params={"bars": [0]})
            assert len(res) == 2
        assert len(session._statements) == 1  # all four share one entry

    def test_sql_memo_keeps_literals_and_identifiers_exact(self, db, prev):
        """Normalization must never conflate meaning-bearing case: string
        literals and identifiers stay byte-exact in the memo key."""
        db.create_table(
            "s",
            Table({"name": np.array(["Foo", "foo"], dtype=object)}),
        )
        session = db.session()
        lower = session.sql("SELECT name FROM s WHERE name = 'foo'")
        upper = session.sql("SELECT name FROM s WHERE name = 'Foo'")
        assert lower.table.column("name").tolist() == ["foo"]
        assert upper.table.column("name").tolist() == ["Foo"]
        assert len(session._statements) == 2
        # Identifier case distinguishes relations as well.
        assert api.normalize_statement(
            "SELECT z FROM t"
        ) != api.normalize_statement("SELECT z FROM T")
        # Whitespace inside literals is preserved too.
        assert "'a  b'" in api.normalize_statement("SELECT  'a  b'  FROM t")

    def test_sql_memo_keeps_param_name_case(self, db, prev):
        """Regression: a parameter named like a keyword (:MAX) must not
        fold into :max — the lexer keeps parameter-name case, so the two
        statements expect different params."""
        session = db.session()
        upper = session.sql(
            "SELECT z FROM t WHERE v < :MAX", params={"MAX": 3.0}
        )
        lower = session.sql(
            "SELECT z FROM t WHERE v < :max", params={"max": 2.0}
        )
        assert len(session._statements) == 2
        assert len(upper) == 2 and len(lower) == 1

    def test_reregistration_invalidates_cache(self, db, prev):
        session = db.session()
        stmt = "SELECT z FROM Lb(prev, 't', :bars)"
        session.sql(stmt, params={"bars": [0]})
        db.sql(
            "SELECT z, COUNT(*) AS c FROM t WHERE z = 3 GROUP BY z",
            options=CAPTURE.with_(name="prev"),
        )
        res = session.sql(stmt, params={"bars": [0]})
        # New 'prev' has one output bar (z=3, 3 rows): epoch bump forced
        # a fresh resolution instead of serving the old bar's 2 rows.
        assert len(res) == 3
        assert session.lineage_cache.stats()["hits"] == 0

    def test_stale_binding_reprepared_transparently(self, db, prev):
        session = db.session(options=CAPTURE)
        stmt = "SELECT * FROM Lf('t', prev, :rows)"
        assert len(session.sql(stmt, params={"rows": [0]})) == 1
        # Re-register with a *different schema*: the frozen Lf schema is
        # stale; Session.sql must re-prepare, not fail.
        db.sql("SELECT z FROM t", options=CAPTURE.with_(name="prev"))
        assert len(session.sql(stmt, params={"rows": [0]})) == 1
        # A standalone PreparedQuery surfaces the staleness instead.
        prepared = db.prepare(stmt)
        db.sql(
            "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
            options=CAPTURE.with_(name="prev"),
        )
        with pytest.raises(StaleBindingError):
            prepared.run(params={"rows": [0]})

    def test_session_execute_and_defaults(self, db, prev):
        session = db.session(options=CAPTURE)
        res = session.execute(db.parse("SELECT z FROM t"))
        assert res.lineage is not None  # session default applied

    def test_close_clears_caches(self, db, prev):
        session = db.session()
        session.sql("SELECT z FROM Lb(prev, 't', :bars)", params={"bars": [0]})
        with session:
            pass
        assert session._statements == {}
        assert len(session.lineage_cache) == 0


class TestLineageResolutionCache:
    def test_cached_arrays_are_read_only(self, db, prev):
        prepared = db.prepare(
            "SELECT * FROM Lb(prev, 't', :bars)", options=CAPTURE
        )
        res = prepared.run(params={"bars": [0]})
        rids = res.lineage.backward_index("t").values
        with pytest.raises(ValueError):
            rids[0] = 99

    def test_lru_bound(self):
        cache = LineageResolutionCache(max_entries=2)
        for i in range(4):
            cache.resolve(
                "r", object(), "backward", "t", bytes([i]),
                lambda i=i: np.array([i]),
            )
        assert len(cache) == 2

    def test_invalidate_by_name(self):
        cache = LineageResolutionCache()
        marker = object()
        cache.resolve("a", marker, "backward", "t", "*", lambda: np.array([1]))
        cache.resolve("b", marker, "backward", "t", "*", lambda: np.array([2]))
        cache.invalidate("a")
        assert len(cache) == 1

    def test_subset_key_small_subsets_stay_exact(self):
        a = LineageResolutionCache.subset_key(np.arange(16, dtype=np.int64))
        b = LineageResolutionCache.subset_key(np.arange(16, dtype=np.int64))
        c = LineageResolutionCache.subset_key(np.arange(1, 17, dtype=np.int64))
        assert a == b and a != c
        dtype, size, data = a
        assert dtype == np.dtype(np.int64).str and size == 16
        assert isinstance(data, bytes) and len(data) == 16 * 8

    def test_subset_key_large_subsets_hash_to_constant_size(self):
        """A 1M-rid brush must not pin a second megabyte-scale byte copy
        in every cache key: large subsets key by (dtype, length, digest)."""
        rids = np.arange(1_000_000, dtype=np.int64)
        key = LineageResolutionCache.subset_key(rids)
        dtype, size, digest = key
        assert dtype == np.dtype(np.int64).str
        assert size == 1_000_000
        assert isinstance(digest, bytes) and len(digest) == 16  # O(1)-sized
        assert key == LineageResolutionCache.subset_key(rids.copy())
        changed = rids.copy()
        changed[123_456] += 1
        assert key != LineageResolutionCache.subset_key(changed)

    def test_large_subset_resolution_still_memoizes(self):
        cache = LineageResolutionCache()
        marker = object()
        rids = np.arange(1_000_000, dtype=np.int64)
        key = LineageResolutionCache.subset_key(rids)
        calls = []

        def compute():
            calls.append(1)
            return np.array([7])

        cache.resolve("a", marker, "backward", "t", key, compute)
        cache.resolve("a", marker, "backward", "t", key, compute)
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1


class TestResultRegistryByteBudget:
    def _result(self, db, name=None, pin=False):
        return db.sql(
            "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
            options=CAPTURE.with_(name=name, pin=pin),
        )

    def test_byte_budget_evicts_lru(self, db):
        res = self._result(db)
        bytes_each = res.lineage.memory_bytes()
        db2 = Database(max_result_bytes=2 * bytes_each)
        db2.create_table("t", db.table("t"))
        for name in ("a", "b", "c"):
            self._result(db2, name=name)
        assert db2.results() == ["b", "c"]

    def test_pinned_exempt_from_byte_budget(self, db):
        res = self._result(db)
        db2 = Database(max_result_bytes=res.lineage.memory_bytes())
        db2.create_table("t", db.table("t"))
        self._result(db2, name="pinned", pin=True)
        self._result(db2, name="a")
        assert db2.results() == ["a", "pinned"]

    def test_budget_set_via_register_result(self, db):
        res = self._result(db)
        self._result(db, name="a")
        self._result(db, name="b")
        db.register_result(
            "c", res, max_result_bytes=res.lineage.memory_bytes()
        )
        assert db.results() == ["c", "prev"] or db.results() == ["c"]

    def test_invalid_budget_rejected(self):
        db = Database()
        with pytest.raises(PlanError, match="max_result_bytes"):
            db._results.set_max_result_bytes(0)

    def test_uncaptured_results_cost_nothing(self, db):
        db2 = Database(max_result_bytes=1)
        db2.create_table("t", db.table("t"))
        db2.sql("SELECT z FROM t", options=ExecOptions(name="plain"))
        assert "plain" in db2.results()  # 0 lineage bytes <= budget


class TestBaseEpochGuard:
    def _replace_same_shape(self, db):
        db.create_table(
            "t",
            Table(
                {
                    "z": np.array([7, 7, 7, 7, 7, 7], dtype=np.int64),
                    "v": np.zeros(6),
                }
            ),
            replace=True,
        )

    def test_same_shape_replacement_raises_in_lb(self, db, prev):
        self._replace_same_shape(db)
        with pytest.raises(PlanError, match="replaced"):
            db.sql("SELECT z FROM Lb(prev, 't', :bars)", params={"bars": [0]})

    def test_backward_table_raises_but_rids_survive(self, db, prev):
        before = prev.backward([0], "t").copy()
        self._replace_same_shape(db)
        assert np.array_equal(prev.backward([0], "t"), before)
        with pytest.raises(PlanError, match="replaced"):
            prev.backward_table([0], "t")

    def test_preserve_rids_keeps_lineage_consumable(self, db, prev):
        updated = Table(
            {
                "z": db.table("t").column("z").copy(),
                "v": db.table("t").column("v") + 1.0,
            }
        )
        db.create_table("t", updated, replace=True, preserve_rids=True)
        res = db.sql("SELECT z FROM Lb(prev, 't', :bars)", params={"bars": [0]})
        assert len(res) == 2

    def test_drop_and_recreate_raises(self, db, prev):
        table = db.table("t")
        db.drop_table("t")
        db.create_table("t", table)
        with pytest.raises(PlanError, match="replaced"):
            prev.backward_table([0], "t")


class TestPlanParamNames:
    def test_collects_all_slots(self, db, prev):
        plan = db.parse(
            "SELECT z, SUM(v + :off) AS s FROM Lb(prev, 't', :bars) "
            "WHERE v >= :cut AND z IN :zs GROUP BY z HAVING COUNT(*) > :h"
        )
        assert plan_param_names(plan) == {"off", "bars", "cut", "zs", "h"}

    def test_no_params(self, db):
        assert plan_param_names(db.parse("SELECT z FROM t")) == frozenset()


class TestParameterizedInList:
    @pytest.mark.parametrize("backend", ["vector", "compiled"])
    def test_in_param_both_backends(self, db, backend):
        res = db.sql(
            "SELECT z FROM t WHERE z IN :zs",
            params={"zs": [1, 3]},
            options=ExecOptions(backend=backend),
        )
        assert sorted(res.table.column("z").tolist()) == [1, 1, 3, 3, 3]

    def test_not_in_param(self, db):
        res = db.sql(
            "SELECT z FROM t WHERE z NOT IN :zs", params={"zs": (1, 3)}
        )
        assert res.table.column("z").tolist() == [2]

    @pytest.mark.parametrize("backend", ["vector", "compiled"])
    def test_numpy_scalars_in_list_binding(self, db, backend):
        # The compiled backend repr-interpolates the choices into
        # generated source; numpy scalars must normalize to plain ints.
        res = db.sql(
            "SELECT z FROM t WHERE z IN :zs",
            params={"zs": [np.int64(1), np.int64(3)]},
            options=ExecOptions(backend=backend),
        )
        assert sorted(res.table.column("z").tolist()) == [1, 1, 3, 3, 3]

    def test_unbound_in_param_raises(self, db):
        with pytest.raises(Exception, match="zs"):
            db.sql("SELECT z FROM t WHERE z IN :zs")

    def test_scalar_binding_rejected(self, db):
        with pytest.raises(Exception, match="list"):
            db.sql("SELECT z FROM t WHERE z IN :zs", params={"zs": 3})
