"""Dictionary codes of STR columns, memoized per table (``Table.codes``):
a stored table encodes each STR column once, a table selected from it by
``take`` / ``filter`` gathers its source's codes, and GROUP BY keys by
them — so a warm TPC-H Q1 runs no per-row string pass at all."""

import gc
import weakref

import numpy as np
import pytest

from repro import sanitize
from repro.api import Database, ExecOptions
from repro.datagen import load_tpch
from repro.errors import SchemaError
from repro.exec.vector import join, kernels
from repro.lineage.capture import CaptureMode
from repro.storage import Table
from repro.storage import table as table_module
from repro.storage.table import dictionary_encode
from repro.tpch import q1
from reference import reference


def _table(n=60, seed=0):
    rng = np.random.default_rng(seed)
    return Table({
        "s": np.array([f"v{i}" for i in rng.integers(0, 7, n)], dtype=object),
        "u": np.array(["x", "y", ""], dtype=object)[rng.integers(0, 3, n)],
        "x": rng.integers(0, 100, n),
    })


def _assert_same_classes(table, name):
    """``table.codes(name)`` is equal exactly where the column's values
    are, as the kernel's codes over the column are."""
    codes, width = table.codes(name)
    expected, _ = dictionary_encode(table.column(name))
    assert codes.dtype == np.int32 and codes.shape == expected.shape
    assert codes.size == 0 or 0 <= codes.min() <= codes.max() < width
    pairs = set(zip(codes.tolist(), expected.tolist(), strict=True))
    assert len(pairs) == len(set(codes.tolist())) == len(set(expected.tolist()))


@pytest.fixture
def encode_calls(monkeypatch):
    """The rows of every call of the string kernel, wherever it runs."""
    calls = []

    def counted(values, *args):
        calls.append(values.shape[0])
        return dictionary_encode(values, *args)

    for module in (table_module, kernels, join):
        monkeypatch.setattr(module, "dictionary_encode", counted)
    return calls


def test_kernel_numbers_values_by_first_occurrence():
    codes, index = dictionary_encode(np.array(["b", "a", "b", "c", "a"], dtype=object))
    assert codes.tolist() == [0, 1, 0, 2, 1]
    assert index == {"b": 0, "a": 1, "c": 2}
    codes, index = dictionary_encode(np.array([], dtype=object), np.int32)
    assert codes.dtype == np.int32 and codes.size == 0 and index == {}


def test_stored_table_encodes_each_column_once(encode_calls):
    table = _table()
    first = table.codes("s")
    assert table.codes("s") is first
    assert first[1] == len(set(table.column("s").tolist()))
    _assert_same_classes(table, "s")
    _assert_same_classes(table, "u")
    assert len(encode_calls) == 2


@pytest.mark.parametrize("chain", [
    ["take"],
    ["filter"],
    ["take", "filter", "take"],
    ["filter", "filter"],
    ["filter", "take", "take"],
])
def test_derived_tables_gather_their_sources_codes(chain, encode_calls):
    rng = np.random.default_rng(len(chain))
    tables = [_table(80, seed=3)]
    for step in chain:
        last = tables[-1]
        if step == "take":
            tables.append(last.take(rng.integers(0, last.num_rows, last.num_rows + 5)))
        else:
            tables.append(last.filter(rng.random(last.num_rows) < 0.6))
    derived = tables[-1]
    for name in ("s", "u"):
        _assert_same_classes(derived, name)
        assert derived.codes(name)[1] == tables[0].codes(name)[1]
    assert len(encode_calls) == 2  # the stored table's two columns only


def test_derived_table_encodes_itself_once_its_source_is_gone(encode_calls):
    source = _table(40, seed=5)
    derived = source.filter(source.column("x") >= 30).take([3, 0, 3, 1])
    del source
    gc.collect()
    _assert_same_classes(derived, "s")
    assert encode_calls == [4]


def test_derived_table_does_not_keep_a_replaced_table_alive():
    db = Database()
    db.create_table("t", _table(50, seed=7))
    old = weakref.ref(db.table("t"))
    derived = db.table("t").take([4, 2, 4, 0])
    db.create_table("t", _table(30, seed=8), replace=True)
    gc.collect()
    assert old() is None
    _assert_same_classes(derived, "s")
    fresh = db.table("t").filter(db.table("t").column("x") % 2 == 0)
    _assert_same_classes(fresh, "u")


def test_codes_of_a_non_str_column_raise():
    with pytest.raises(SchemaError, match="not a STR column"):
        _table().codes("x")


def test_tables_without_a_str_column_record_no_source():
    table = Table({"x": np.arange(5)})
    assert table.take([1, 2])._source is None
    assert table.filter(np.arange(5) > 2)._source is None


def test_memoized_codes_are_frozen_under_the_sanitizer():
    table = _table()
    with sanitize.force(True):
        assert not table.codes("s")[0].flags.writeable
        assert not table.take([0, 1]).codes("u")[0].flags.writeable


def test_warm_q1_runs_the_string_kernel_zero_times(encode_calls):
    db = Database()
    load_tpch(db, scale_factor=0.02, seed=11)
    prepared = db.prepare(q1())
    cold = prepared.run().table.to_rows()
    assert len(encode_calls) == 2  # l_returnflag and l_linestatus, once each
    del encode_calls[:]
    inject = ExecOptions(capture=CaptureMode.INJECT)
    assert prepared.run().table.to_rows() == cold
    warm = prepared.run(options=inject)
    assert warm.table.to_rows() == cold
    assert db.execute(q1(), options=inject).table.to_rows() == cold
    assert encode_calls == []
    compiled = reference(db, q1(), options=inject)
    groups = ["l_returnflag", "l_linestatus", "count_order"]  # float sums round apart
    exact = [r.table.select_columns(groups).to_rows() for r in (warm, compiled)]
    assert exact[0] == exact[1]
    for out in range(len(cold)):
        assert np.array_equal(
            warm.lineage.backward([out], "lineitem"),
            compiled.lineage.backward([out], "lineitem"),
        )


def test_derived_tables_share_their_sources_dictionary():
    table = _table(50, seed=9)
    table.mark_stored()
    codes, dictionary = table.shared_codes("s")
    assert table.shared_codes("s")[1] is dictionary and set(dictionary) == set(table.column("s"))
    middle = table.filter(table.column("x") >= 40)
    derived = middle.take([2, 0], names=["s", "x"])
    assert derived.schema.names == ["s", "x"]
    derived_codes, shared = derived.shared_codes("s")
    assert shared is dictionary
    assert [dictionary[v] for v in derived.column("s")] == derived_codes.tolist()


def test_a_transient_table_has_no_codes_to_share(encode_calls):
    transient = _table(30, seed=10)  # no catalog holds it
    assert transient.shared_codes("s") is None
    assert transient.filter(transient.column("x") > 5).shared_codes("u") is None
    assert encode_calls == []
    transient.codes("s")  # a GROUP BY encoded it: now there is something to share
    assert transient.take([1, 0]).shared_codes("s") is not None
    assert encode_calls == [30]


def test_str_predicates_read_a_stored_tables_codes_once(encode_calls):
    db = Database()
    db.create_table("t", _table(60, seed=11))
    text = "SELECT x FROM t WHERE s IN :ps AND u <> 'y'"
    expected = [
        (x,) for s, u, x in db.table("t").to_rows() if s in ("v1", "v9") and u != "y"
    ]
    assert db.sql(text, params={"ps": ["v1", "v9"]}).table.to_rows() == expected
    assert encode_calls == [60, 60]  # s and u, once each
    filtered = "SELECT x FROM (SELECT * FROM t WHERE x >= 50) AS f WHERE s = :p"
    rows = db.sql(filtered, params={"p": "v2"}).table.to_rows()
    assert rows == [(x,) for s, _, x in db.table("t").to_rows() if x >= 50 and s == "v2"]
    assert encode_calls == [60, 60]


def test_predicates_over_transient_tables_encode_nothing(encode_calls):
    """A join output and the pushed path's chain gathers compare objects:
    encoding rows read once would cost more than the compare."""
    db = Database()
    db.create_table("t", _table(60, seed=12))
    db.create_table("d", Table({"x": np.arange(0, 100, 7),
                                "name": np.array(["a", "b"] * 7 + ["a"], dtype=object)}))
    joined = db.sql("SELECT t.x, name FROM t JOIN d ON t.x = d.x WHERE name = 'a'")
    assert all(name == "a" for _, name in joined.table.to_rows())
    db.sql("SELECT u, COUNT(*) AS c FROM t GROUP BY u",
           options=ExecOptions(capture=CaptureMode.INJECT, name="v", pin=True))
    del encode_calls[:]
    brushed = db.sql("SELECT x FROM Lb(v, 't', 0) WHERE s <> 'v3'")
    assert encode_calls == []
    rids = db.result("v").backward([0], "t")
    assert brushed.table.column("x").tolist() == [
        x for x, s in zip(db.table("t").column("x")[rids], db.table("t").column("s")[rids],
                          strict=True) if s != "v3"
    ]


def test_a_selection_of_a_freed_selection_gathers_the_stored_tables_codes(encode_calls):
    """The outer WHERE selects from the subquery's filtered table, which
    is freed once read: its rows gather the stored table's codes through
    the composed selectors instead of encoding themselves."""
    db = Database()
    db.create_table("t", _table(100_000, seed=13))
    text = (
        "SELECT s, COUNT(*) AS c FROM (SELECT * FROM t WHERE x > 10) AS f "
        "WHERE x < 90 GROUP BY s"
    )
    cold = db.sql(text).table.to_rows()
    assert encode_calls == [100_000]  # t's s, once
    del encode_calls[:]
    for _ in range(2):
        assert db.sql(text).table.to_rows() == cold
    assert encode_calls == []
    t = db.table("t")
    kept = t.column("s")[(t.column("x") > 10) & (t.column("x") < 90)].tolist()
    assert sorted(cold) == sorted((s, kept.count(s)) for s in set(kept))
    middle = t.filter(t.column("x") > 10)
    derived = middle.take(np.flatnonzero(middle.column("x") < 90))
    del middle
    gc.collect()
    assert np.array_equal(derived.codes("s")[0], t.codes("s")[0][np.flatnonzero(
        (t.column("x") > 10) & (t.column("x") < 90))])
    assert encode_calls == []
