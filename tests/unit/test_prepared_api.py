"""The prepared-statement / session API surface: ExecOptions validation
and the one execute/sql signature, PreparedQuery caching, the memoized
``Database.sql`` and the Session defaults over it, the
LineageResolutionCache and its parameter fingerprints, registry byte
budgets, and base-relation epoch guards."""

import inspect

import numpy as np
import pytest

import repro.api as api
from repro.api import Database, ExecOptions, Session, plan_param_names
from repro.errors import (
    CatalogError,
    InvalidArgumentError,
    PlanError,
    RegistryFullError,
    SqlError,
    StaleBindingError,
)
from repro.lineage.cache import LineageResolutionCache, param_fingerprint
from repro.lineage.capture import CaptureConfig, CaptureMode
from repro.storage import Table
from reference import ENGINES, reference

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
        other = opts.with_(late_materialize=False, name="x")
        assert other.late_materialize is False and other.name == "x"
        assert other.capture is CaptureMode.INJECT
        assert opts.late_materialize is True and opts.name is None  # unchanged

    def test_invalid_capture_rejected(self):
        with pytest.raises(PlanError, match="invalid capture"):
            ExecOptions(capture="yes please")
        with pytest.raises(PlanError, match="invalid capture"):
            CAPTURE.with_(capture="yes please")

    def test_backend_is_not_an_option(self):
        """The product runs one executor: there is no backend to choose."""
        with pytest.raises(TypeError, match="backend"):
            ExecOptions(backend="compiled")
        with pytest.raises(TypeError, match="backend"):
            CAPTURE.with_(backend="vector")

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
            want = db.execute(prepared.plan, params={"bars": bars}, options=CAPTURE)
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
        materialized = prepared.run(
            params={"bars": [0]},
            options=prepared.options.with_(late_materialize=False),
        )
        pushed = prepared.run(params={"bars": [0]})
        assert "late_mat_subtrees" not in materialized.timings
        assert pushed.timings.get("late_mat_subtrees") == 1.0
        assert materialized.table.to_rows() == pushed.table.to_rows()

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

    def test_prepared_runs_through_the_database_cache(self, db, prev):
        prepared = db.prepare("SELECT z FROM Lb(prev, 't', :bars)")
        assert prepared.lineage_cache is db.lineage_cache
        prepared.run(params={"bars": [0]})
        prepared.run(params={"bars": [0]})
        assert prepared.lineage_cache.stats()["hits"] == 1


def _answer(result):
    """A result's rows and, per relation and output row, its backward
    rids with their dtype: equal answers are bit-identical."""
    lineage = result.lineage
    if lineage is None:
        return result.table.to_rows(), None
    rids = {
        relation: [
            (r.dtype.str, r.tobytes())
            for r in (lineage.backward([i], relation) for i in range(len(result)))
        ]
        for relation in lineage.relations
    }
    return result.table.to_rows(), rids


class TestSession:
    def test_statements_the_memo_declines_leave_the_cache_empty(self, db, prev):
        """A capture-on ``Lb`` brush, an ``Lf`` brush and a ``SUM``
        brush resolve their rids from the view's index on every run:
        the cache holds per-bar memos only, so through ``Database.sql``
        and a session, twice each, they leave it empty and answer like
        the uncached raw plan."""
        session = db.session(options=CAPTURE)
        brushes = [
            ("SELECT z, v FROM Lb(prev, 't', :bars)", {"bars": [0, 2]}, CAPTURE),
            ("SELECT * FROM Lf('t', prev, :rows)", {"rows": [0, 3]}, CAPTURE),
            (
                "SELECT z, SUM(v) AS s FROM Lb(prev, 't', :bars) GROUP BY z",
                {"bars": [1, 2]},
                ExecOptions(),
            ),
        ]
        for text, params, options in brushes:
            raw = _answer(db.execute(db.parse(text), params=params, options=options))
            for front in (db.sql, session.sql) * 2:
                assert _answer(front(text, params=params, options=options)) == raw
        assert len(db.lineage_cache) == 0
        assert db.lineage_cache.stats()["misses"] == 0

    def test_sql_memoizes_by_text(self, db, prev):
        session = db.session()
        stmt = "SELECT z FROM Lb(prev, 't', :bars)"
        session.sql(stmt, params={"bars": [0]})
        key = api.normalize_statement(stmt)
        first = db._statements.get(key, lambda: pytest.fail("not memoized"))
        session.sql(stmt, params={"bars": [1]})
        assert db._statements.get(key, lambda: pytest.fail("evicted")) is first

    def test_sql_memo_normalizes_whitespace_and_keyword_case(self, db, prev):
        """Generated SQL differing only in layout or keyword casing must
        hit the same memo entry (ROADMAP follow-up from PR 3)."""
        session = db.session()
        session.sql(
            "SELECT z FROM Lb(prev, 't', :bars)", params={"bars": [0]}
        )
        entries = len(db._statements)
        equivalents = [
            "select   z\n  from Lb(prev, 't', :bars)",
            "SELECT z FROM LB(prev, 't', :bars)",
            "  Select z  From  lb(prev, 't',  :bars)  ",
        ]
        for text in equivalents:
            res = session.sql(text, params={"bars": [0]})
            assert len(res) == 2
        assert len(db._statements) == entries  # all four share one entry

    def test_sql_memo_keeps_literals_and_identifiers_exact(self, db, prev):
        """Normalization must never conflate meaning-bearing case: string
        literals and identifiers stay byte-exact in the memo key."""
        db.create_table(
            "s",
            Table({"name": np.array(["Foo", "foo"], dtype=object)}),
        )
        session = db.session()
        entries = len(db._statements)
        lower = session.sql("SELECT name FROM s WHERE name = 'foo'")
        upper = session.sql("SELECT name FROM s WHERE name = 'Foo'")
        assert lower.table.column("name").tolist() == ["foo"]
        assert upper.table.column("name").tolist() == ["Foo"]
        assert len(db._statements) == entries + 2
        # Identifier case distinguishes relations as well.
        assert api.normalize_statement(
            "SELECT z FROM t"
        ) != api.normalize_statement("SELECT z FROM T")
        # Whitespace inside literals is preserved too.
        assert "'a  b'" in api.normalize_statement("SELECT  'a  b'  FROM t")

    def test_sql_memo_keeps_quoted_identifiers_exact(self, db, prev):
        """A quoted identifier is copied byte for byte into the memo key,
        as a string literal is: "YEAR" and "year" name different columns
        and never share an entry, and a "" escape survives."""
        db.create_table("k", Table({"YEAR": [1, 2], "year": [3, 4], 'a"b': [5, 6]}))
        session = db.session()
        entries = len(db._statements)
        upper = session.sql('SELECT "YEAR" FROM k')
        lower = session.sql('SELECT "year" FROM k')
        assert upper.table.column("YEAR").tolist() == [1, 2]
        assert lower.table.column("year").tolist() == [3, 4]
        assert len(db._statements) == entries + 2
        assert api.normalize_statement('select  "YEAR"  FROM k') == 'select "YEAR" from k'
        assert api.normalize_statement('SELECT "a""b"  FROM k') == 'select "a""b" from k'
        assert session.sql('SELECT "a""b" FROM k').table.column('a"b').tolist() == [5, 6]
        assert len(db._statements) == entries + 3

    def test_sql_memo_keeps_param_name_case(self, db, prev):
        """Regression: a parameter named like a keyword (:MAX) must not
        fold into :max — the lexer keeps parameter-name case, so the two
        statements expect different params."""
        session = db.session()
        entries = len(db._statements)
        upper = session.sql(
            "SELECT z FROM t WHERE v < :MAX", params={"MAX": 3.0}
        )
        lower = session.sql(
            "SELECT z FROM t WHERE v < :max", params={"max": 2.0}
        )
        assert len(db._statements) == entries + 2
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



class TestDatabaseSql:
    """``Database.sql`` is the memoized text path every front shares."""

    def test_repeated_text_binds_once_and_keeps_each_callers_text(self, db, prev):
        texts = ["SELECT z FROM t WHERE v > :cut", "select  z from t where v > :cut"]
        results = [db.sql(text, params={"cut": 2.0}) for text in texts]
        key = api.normalize_statement(texts[0])
        entry = db._statements.get(key, lambda: pytest.fail("not memoized"))
        assert entry.statement == texts[0]  # the text that bound it
        assert [r.statement for r in results] == texts  # what each call ran
        assert results[0].table.to_rows() == results[1].table.to_rows()

    def test_base_table_schema_change_rebinds(self, db):
        """A memoized plan bound ``k`` to ``u``; once ``t`` gains a ``k``
        too, running the old binding would silently read ``t.k``."""
        db.create_table("u", Table({"z": np.array([1, 2]), "k": np.array([10, 20])}))
        stmt = "SELECT k FROM t JOIN u ON t.z = u.z"
        assert sorted(db.sql(stmt).table.column("k").tolist()) == [10, 10, 20]
        widened = dict(db.table("t").columns(), k=np.arange(6))
        db.create_table("t", Table(widened), replace=True)
        with pytest.raises(SqlError, match="ambiguous column 'k'"):
            db.sql(stmt)

    def test_same_schema_replacement_rebinds(self, db):
        """Binding reads data: unique build keys bind the join as pk-fk.
        Replacing the build table with duplicate keys under the same
        schema must re-bind, not run the stale pk-fk plan."""
        stmt = "SELECT u.w, t.v FROM u JOIN t ON u.k = t.z"
        db.create_table("u", Table({"k": np.array([1, 2]), "w": np.array([10, 20])}))
        db.sql(stmt)
        dup = Table({"k": np.array([1, 1, 3]), "w": np.array([10, 11, 30])})
        db.create_table("u", dup, replace=True)
        fresh = db.execute(db.parse(stmt)).table.to_rows()
        assert len(fresh) == 7
        assert sorted(db.sql(stmt).table.to_rows()) == sorted(fresh)
        assert sorted(reference(db, stmt).table.to_rows()) == sorted(fresh)

    def test_dropped_objects_raise_like_a_fresh_parse(self, db, prev):
        db.sql("SELECT z FROM Lb(prev, 't', :bars)", params={"bars": [0]})
        db.drop_result("prev")
        with pytest.raises(SqlError, match="unknown result"):
            db.sql("SELECT z FROM Lb(prev, 't', :bars)", params={"bars": [0]})
        db.sql("SELECT z FROM t")
        db.drop_table("t")
        with pytest.raises(CatalogError, match="unknown table 't'"):
            db.sql("SELECT z FROM t")


def _array_key(values):
    """The fingerprint :func:`param_fingerprint` gives one array."""
    ((_, key),) = param_fingerprint({"a": values})
    return key


class TestLineageResolutionCache:
    def test_lru_bound(self, monkeypatch):
        monkeypatch.setattr(LineageResolutionCache, "MAX_ENTRIES", 2)
        cache = LineageResolutionCache()
        for i in range(4):
            cache.get(("s", i), lambda i=i: i, 0)
        assert len(cache) == 2
        assert cache.get(("s", 3), lambda: pytest.fail("evicted"), 0) == 3

    def test_subset_key_small_subsets_stay_exact(self):
        a = _array_key(np.arange(16, dtype=np.int64))
        b = _array_key(np.arange(16, dtype=np.int64))
        c = _array_key(np.arange(1, 17, dtype=np.int64))
        assert a == b and a != c
        dtype, size, data = a
        assert dtype == np.dtype(np.int64).str and size == 16
        assert isinstance(data, bytes) and len(data) == 16 * 8

    def test_subset_key_large_subsets_hash_to_constant_size(self):
        """A 1M-rid binding must not pin a second megabyte-scale byte copy
        in every memo key: large arrays key by (dtype, length, digest)."""
        rids = np.arange(1_000_000, dtype=np.int64)
        key = _array_key(rids)
        dtype, size, digest = key
        assert dtype == np.dtype(np.int64).str
        assert size == 1_000_000
        assert isinstance(digest, bytes) and len(digest) == 16  # O(1)-sized
        assert key == _array_key(rids.copy())
        changed = rids.copy()
        changed[123_456] += 1
        assert key != _array_key(changed)

    def test_large_subset_resolution_still_memoizes(self):
        cache = LineageResolutionCache()
        rids = np.arange(1_000_000, dtype=np.int64)
        calls = []

        def build():
            calls.append(1)
            return object()

        first = cache.get(("s", param_fingerprint({"a": rids})), build, 0)
        again = cache.get(("s", param_fingerprint({"a": rids.copy()})), build, 0)
        assert again is first and len(calls) == 1
        assert cache.stats()["hits"] == 1


class TestResultRegistryByteBudget:
    """``Database(max_result_bytes=B)`` admits an unpinned registration
    only while the unpinned results' lineage bytes stay within ``B``;
    nothing is ever evicted to make room."""

    def _result(self, db, name=None, pin=False):
        return db.sql(
            "SELECT z, COUNT(*) AS c FROM t GROUP BY z",
            options=CAPTURE.with_(name=name, pin=pin),
        )

    def _budgeted(self, db, budget):
        db2 = Database(max_result_bytes=budget)
        db2.create_table("t", db.table("t"))
        return db2

    def test_refused_registration_changes_nothing(self, db):
        bytes_each = self._result(db).lineage.memory_bytes()
        db2 = self._budgeted(db, 2 * bytes_each)
        self._result(db2, name="a")
        self._result(db2, name="b")
        with pytest.raises(RegistryFullError, match="'c' needs"):
            self._result(db2, name="c")
        assert db2.results() == ["a", "b"]
        assert db2._results.epoch("c") == 0
        db2.drop_result("a")  # the caller makes room
        self._result(db2, name="c")
        assert db2.results() == ["b", "c"]

    def test_a_full_budget_refuses_before_anything_executes(self, db, monkeypatch):
        bytes_each = self._result(db).lineage.memory_bytes()
        db2 = self._budgeted(db, 2 * bytes_each)
        self._result(db2, name="a")
        self._result(db2, name="b")
        runs = []
        real = api.run_plan
        monkeypatch.setattr(api, "run_plan", lambda *a, **k: runs.append(1) or real(*a, **k))
        prepared = db2.prepare("SELECT z, COUNT(*) AS c FROM t GROUP BY z")
        with pytest.raises(RegistryFullError, match="'c' needs at least 1 lineage bytes"):
            self._result(db2, name="c")
        with pytest.raises(RegistryFullError, match="'c' needs at least 1"):
            prepared.run(options=CAPTURE.with_(name="c"))
        assert runs == [] and db2.results() == ["a", "b"]
        # Capture off, pinned or unnamed, nothing is refused before it runs.
        db2.sql("SELECT z FROM t", options=ExecOptions(name="plain"))
        self._result(db2, name="c", pin=True)
        self._result(db2)
        assert len(runs) == 3 and db2.results() == ["a", "b", "c", "plain"]

    def test_reregistration_whose_freed_bytes_make_room_is_admitted(self, db):
        bytes_each = self._result(db).lineage.memory_bytes()
        db2 = self._budgeted(db, 2 * bytes_each)
        self._result(db2, name="a")
        self._result(db2, name="b")
        self._result(db2, name="a")  # a's own bytes do not count against it
        assert db2.results() == ["a", "b"]
        assert db2._results.epoch("a") == 2

    def test_pinned_exempt_from_byte_budget(self, db):
        db2 = self._budgeted(db, self._result(db).lineage.memory_bytes())
        self._result(db2, name="pinned", pin=True)
        self._result(db2, name="also_pinned", pin=True)
        self._result(db2, name="a")
        assert db2.results() == ["a", "also_pinned", "pinned"]

    def test_unpin_is_admitted_like_a_registration(self, db):
        db2 = self._budgeted(db, self._result(db).lineage.memory_bytes())
        self._result(db2, name="pinned", pin=True)
        self._result(db2, name="a")
        with pytest.raises(RegistryFullError, match="'pinned'"):
            db2.pin_result("pinned", False)
        assert "pinned" in db2._results._pinned
        db2.drop_result("a")
        db2.pin_result("pinned", False)
        assert "pinned" not in db2._results._pinned

    def test_reregistering_counts_only_new_bytes(self, db):
        db2 = self._budgeted(db, self._result(db).lineage.memory_bytes())
        self._result(db2, name="a")
        self._result(db2, name="a")  # replaces a's bytes, does not add
        assert db2.results() == ["a"]
        assert db2._results.epoch("a") == 2

    def test_uncaptured_results_cost_nothing(self, db):
        db2 = self._budgeted(db, 1)
        db2.sql("SELECT z FROM t", options=ExecOptions(name="plain"))
        db2.sql("SELECT v FROM t", options=ExecOptions(name="plain2"))
        assert db2.results() == ["plain", "plain2"]  # 0 lineage bytes each

    def test_the_constructor_is_the_only_bound(self, db):
        res = self._result(db)
        for keyword in ("max_results", "max_result_bytes"):
            with pytest.raises(TypeError, match=keyword):
                db.register_result("a", res, **{keyword: 1})
        with pytest.raises(TypeError, match="max_results"):
            Database(max_results=1)
        assert "a" not in db.results()

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(InvalidArgumentError, match="max_result_bytes"):
            Database(max_result_bytes=budget)

    def test_crossfilter_views_register_under_a_one_byte_budget(self, db):
        from repro.apps.crossfilter import CrossfilterSession

        db2 = Database(max_result_bytes=1)
        z = db.table("t").column("z")  # bars 1, 2, 3 hold 2, 1, 3 rows
        db2.create_table("t", Table({"z": z, "w": z % 2}))
        session = CrossfilterSession.from_database(db2, "t", ("z", "w"), "bt")
        with pytest.raises(RegistryFullError):
            self._result(db2, name="junk")
        counts = session.brush("z", 1)  # pinned views answer via SQL
        assert counts["w"].sum() == 1
        session.close()
        assert db2.results() == []


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
    @pytest.mark.parametrize("engine", ENGINES)
    def test_in_param_both_backends(self, db, engine):
        res = ENGINES[engine](db, "SELECT z FROM t WHERE z IN :zs", params={"zs": [1, 3]})
        assert sorted(res.table.column("z").tolist()) == [1, 1, 3, 3, 3]

    def test_not_in_param(self, db):
        res = db.sql(
            "SELECT z FROM t WHERE z NOT IN :zs", params={"zs": (1, 3)}
        )
        assert res.table.column("z").tolist() == [2]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_numpy_scalars_in_list_binding(self, db, engine):
        # The compiled engine repr-interpolates the choices into
        # generated source; numpy scalars must normalize to plain ints.
        res = ENGINES[engine](
            db,
            "SELECT z FROM t WHERE z IN :zs",
            params={"zs": [np.int64(1), np.int64(3)]},
        )
        assert sorted(res.table.column("z").tolist()) == [1, 1, 3, 3, 3]

    def test_unbound_in_param_raises(self, db):
        with pytest.raises(Exception, match="zs"):
            db.sql("SELECT z FROM t WHERE z IN :zs")

    def test_scalar_binding_rejected(self, db):
        with pytest.raises(Exception, match="list"):
            db.sql("SELECT z FROM t WHERE z IN :zs", params={"zs": 3})
