"""Property tests: vectorized evaluation vs compiled source fragments.

Random expression trees over random tables must evaluate identically via
``repro.expr.ast.evaluate`` (numpy) and ``repro.expr.compile.to_source``
(the compiled reference engine's per-row path) — the expression-level slice of
invariant I3.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr.ast import BinOp, Col, Const, Func, InList, Not, evaluate
from repro.expr.compile import to_source
from repro.storage import Table

# -- random expression trees -----------------------------------------------

numeric_leaf = st.one_of(
    st.just(Col("x")),
    st.just(Col("y")),
    st.integers(min_value=-20, max_value=20).map(Const),
    st.floats(
        min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
    ).map(lambda f: Const(round(f, 3))),
)


def numeric_expr(depth: int):
    if depth == 0:
        return numeric_leaf
    sub = numeric_expr(depth - 1)
    return st.one_of(
        numeric_leaf,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        sub.map(lambda e: Func("abs", [e])),
        sub.map(lambda e: Func("floor", [Func("abs", [e])])),
    )


def bool_expr(depth: int):
    n = numeric_expr(depth)
    comparison = st.tuples(
        st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]), n, n
    ).map(lambda t: BinOp(t[0], t[1], t[2]))
    if depth == 0:
        return comparison
    sub = bool_expr(depth - 1)
    return st.one_of(
        comparison,
        st.tuples(st.sampled_from(["and", "or"]), sub, sub).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        sub.map(Not),
        st.tuples(n, st.lists(st.integers(-5, 5), min_size=1, max_size=4)).map(
            lambda t: InList(t[0], tuple(t[1]))
        ),
    )


tables = st.lists(
    st.tuples(
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=-30, max_value=30),
    ),
    min_size=1,
    max_size=20,
)


def _compiled_eval(expr, table):
    src = to_source(expr, lambda c: f"row[{table.schema.index_of(c)}]")
    fn = eval(
        f"lambda row: {src}", {"_sqrt": math.sqrt, "_floor": math.floor}
    )
    return [fn(r) for r in table.to_rows()]


@given(tables, numeric_expr(3))
@settings(max_examples=150, deadline=None)
def test_numeric_expressions_agree(rows, expr):
    table = Table(
        {
            "x": np.array([r[0] for r in rows], dtype=np.int64),
            "y": np.array([r[1] for r in rows], dtype=np.int64),
        }
    )
    vectorized = evaluate(expr, table)
    compiled = _compiled_eval(expr, table)
    for a, b in zip(np.asarray(vectorized).tolist(), compiled, strict=True):
        assert a == pytest.approx(b), expr


@given(tables, bool_expr(2))
@settings(max_examples=150, deadline=None)
def test_boolean_expressions_agree(rows, expr):
    table = Table(
        {
            "x": np.array([r[0] for r in rows], dtype=np.int64),
            "y": np.array([r[1] for r in rows], dtype=np.int64),
        }
    )
    vectorized = np.asarray(evaluate(expr, table), dtype=bool).tolist()
    compiled = [bool(v) for v in _compiled_eval(expr, table)]
    assert vectorized == compiled, expr
