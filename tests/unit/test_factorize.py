"""``factorize_codes`` against a reference kept here: the full reversed
scatter of first occurrences and a stable rank, which the kernel
replaces with one count pass, first occurrences from the first chunks
of rows when the key has few groups, and in-place integer codes.  Also the
composite-key fold past 2**63, against the compiled reference and stdlib
:mod:`sqlite3`."""

import sqlite3
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.api import Database, ExecOptions
from repro.exec.vector import kernels
from repro.exec.vector.kernels import GroupLayout, codes_for, factorize, factorize_codes
from repro.lineage.capture import CaptureMode
from repro.storage import Table
from reference import reference


def _reference(codes: np.ndarray, width: int):
    """``(group_ids, num_groups, representatives, counts)`` by a full
    reversed scatter (the last write — the least position — wins) and a
    stable rank of the first positions."""
    first = np.full(width, -1, dtype=np.int64)
    first[codes[::-1]] = np.arange(codes.shape[0] - 1, -1, -1, dtype=np.int64)
    present = np.flatnonzero(first >= 0)
    order = np.argsort(first[present], kind="stable")
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0])
    code_map = np.full(width, -1, dtype=np.int64)
    code_map[present] = rank
    ids = code_map[codes]
    return ids, int(present.shape[0]), first[present][order], np.bincount(ids)


def _check(codes: np.ndarray, width: int) -> None:
    got = factorize_codes([(codes, width)])
    want = _reference(codes, width)
    assert got[1] == want[1]
    for g, w in zip((got[0], got[2], got[3]), (want[0], want[2], want[3]), strict=True):
        assert g.dtype == np.int64 and np.array_equal(g, w)
    layout = GroupLayout(got[0], got[1], got[3])
    assert np.array_equal(layout.counts(), np.bincount(got[0], minlength=got[1]))


def _few_groups(n: int, groups: int, seed: int = 0) -> np.ndarray:
    """``n`` codes over ``groups`` values, each seen in the first rows."""
    codes = np.random.default_rng(seed).integers(0, groups, n)
    codes[:groups] = np.arange(groups)
    return codes


def test_code_first_seen_at_the_last_row():
    n = 50_000
    codes = _few_groups(n, 49)
    codes[-1] = 49
    _check(codes, 50)


@pytest.mark.parametrize("position", [4_095, 4_096, 4_097, 8_191, 8_192, 10_000])
def test_code_first_seen_at_a_chunk_boundary(position):
    """First occurrences come from chunks of 4096, 4096, 8192, ... rows:
    a code first seen on either side of a chunk's edge, with every other
    code seen again in each later chunk (whose positions must not win)."""
    n = 80_000
    codes = _few_groups(n, 20)
    codes[position] = 20
    _check(codes, 21)


def test_codes_first_seen_in_several_chunks():
    n = 1 << 16
    codes = _few_groups(n, 7)
    for code, position in ((7, 5_000), (8, 9_000), (9, 17_000), (10, 40_000)):
        codes[position] = code
    _check(codes, 11)


def test_sorted_keys_with_high_cardinality():
    n = 200_000
    codes = np.sort(np.random.default_rng(1).integers(0, 60_000, n))
    _check(codes, 60_000)
    _check(codes[::-1].copy(), 60_000)


def test_width_beyond_the_present_codes():
    n = 10_000
    codes = np.random.default_rng(2).choice([3, 17, 4_000, 19_999], n)
    _check(codes, 20_000)
    few = _few_groups(n, 5) * 997  # few groups spread over a wide domain
    _check(few, int(few.max()) + 1)


@given(
    st.integers(1, 3_000).flatmap(
        lambda n: st.tuples(
            st.integers(1, 40).flatmap(
                lambda g: st.lists(st.integers(0, g - 1), min_size=n, max_size=n)
            ),
            st.integers(0, 3),
        )
    ),
    st.sampled_from([None, (1, 1), (1, 2), (1, 7), (4, 64)]),
)
@settings(deadline=None)
def test_factorize_codes_equals_reference(data, chunking):
    """``chunking`` shrinks ``(_ROWS_PER_GROUP, _FIRST_CHUNK_ROWS)`` so
    inputs this small scan for first occurrences in chunks too."""
    values, extra = data
    codes = np.asarray(values, dtype=np.int64)
    if chunking is None:
        _check(codes, int(codes.max()) + 1 + extra)
        return
    rows_per_group, first_chunk = chunking
    with (
        mock.patch.object(kernels, "_ROWS_PER_GROUP", rows_per_group),
        mock.patch.object(kernels, "_FIRST_CHUNK_ROWS", first_chunk),
    ):
        _check(codes, int(codes.max()) + 1 + extra)


def test_integer_column_is_its_own_code_array():
    column = np.array([4, 0, 7, 4, 2], dtype=np.int64)
    codes, width = codes_for(column)
    assert codes is column and width == 8
    shifted, width = codes_for(column - 3)  # a negative value: shifted
    assert shifted.tolist() == [4, 0, 7, 4, 2] and width == 8
    assert codes_for(np.array([5, 10**9]))[1] == 2  # a wide one: ranked


def test_offset_integer_column_keeps_its_span():
    """An offset past the span is subtracted, not aliased: a composite
    key's width is the product of its spans, so ``100_000..100_050`` by
    ``0..50`` stays a 2,601-code domain (the dense branch), not ~5.1M."""
    rng = np.random.default_rng(5)
    n = 100_000
    year = rng.integers(1992, 1999, n)
    codes, width = codes_for(year)
    assert width == 7 and not np.shares_memory(codes, year)
    assert np.array_equal(codes, year - 1992)
    k1, k2 = rng.integers(100_000, 100_051, n), rng.integers(0, 51, n)
    keys = [codes_for(k1), codes_for(k2)]
    assert [w for _, w in keys] == [51, 51]
    assert keys[1][0] is k2  # offset 0: its own code array
    near = np.arange(10, 21)  # an offset below the span: still aliased
    codes, width = codes_for(near)
    assert codes is near and width == 21
    ids, num, reps, counts = factorize_codes(keys)
    pairs = np.stack([k1, k2], axis=1)
    assert num == len(np.unique(pairs, axis=0)) and counts.sum() == n
    assert np.array_equal(pairs[reps][ids], pairs)


def test_codes_alias_a_frozen_catalog_column():
    """Under the sanitizer the catalog freezes its columns; integer codes
    are the column itself, so a write through them raises, and the
    GROUP BY over it answers as the compiled reference does."""
    rng = np.random.default_rng(3)
    table = Table({"k": rng.integers(0, 50, 5_000), "v": rng.integers(0, 9, 5_000)})
    with sanitize.force(True):
        db = Database()
        db.create_table("t", table)
        column = db.table("t").column("k")
        codes, width = codes_for(column)
        assert np.shares_memory(codes, column) and width == int(column.max()) + 1
        with pytest.raises(ValueError):
            codes[0] = 1
        text = "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY k"
        options = ExecOptions(capture=CaptureMode.INJECT)
        vec = db.sql(text, options=options)
        comp = reference(db, text, options=options)
        assert vec.table.to_rows() == comp.table.to_rows()
        assert not column.flags.writeable


def test_fold_past_2_63_redensifies():
    """``c0 * 2**40 + c1`` wraps 2**24 * 2**40 to 0: without re-densifying
    the first key, rows ``(2**24, 0)`` and ``(0, 0)`` would share a group."""
    keys = [(np.array([0, 2**24, 0]), 2**25), (np.array([0, 0, 1]), 2**40)]
    ids, num, reps, counts = factorize_codes(keys)
    assert ids.tolist() == [0, 1, 2] and num == 3
    assert reps.tolist() == [0, 1, 2] and counts.tolist() == [1, 1, 1]


def _colliding_table() -> Table:
    """70k rows, four columns of 70k distinct values: their widths'
    product passes 2**63, and code tuple (53780, 41647, 48707, 61616)
    folds to the same int64 as (0, 0, 0, 0) unless the fold re-densifies."""
    n = 70_000
    rng = np.random.default_rng(4)
    columns = {}
    for i, value in enumerate((53_780, 41_647, 48_707, 61_616)):
        column = rng.permutation(n).astype(np.int64)
        for row, wanted in ((0, 0), (1, value)):
            at = int(np.flatnonzero(column == wanted)[0])
            column[row], column[at] = column[at], column[row]
        columns[f"k{i}"] = column
    return Table(columns)


def test_four_wide_keys_against_compiled_and_sqlite():
    table = _colliding_table()
    db = Database()
    db.create_table("t", table)
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (k0 INTEGER, k1 INTEGER, k2 INTEGER, k3 INTEGER)")
    rows = [tuple(map(int, row)) for row in table.to_rows()]
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    for text in (
        "SELECT k0, k1, k2, k3, COUNT(*) AS c FROM t GROUP BY k0, k1, k2, k3",
        "SELECT DISTINCT k0, k1, k2, k3 FROM t",
    ):
        vec = db.sql(text).table.to_rows()
        comp = reference(db, text).table.to_rows()
        assert len(vec) == table.num_rows
        assert vec == comp
        assert Counter(vec) == Counter(conn.execute(text).fetchall())
    conn.close()
    ids, num, _, _ = factorize([table.column(f"k{i}") for i in range(4)])
    assert num == table.num_rows and ids[1] != ids[0]
