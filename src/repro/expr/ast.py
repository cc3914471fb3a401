"""Scalar expression AST with vectorized evaluation.

Expressions cover the subset the paper's queries need: column references,
constants, arithmetic, comparisons, boolean connectives, ``IN`` lists,
``sqrt``, and ``extract(year|month from date)`` where dates are stored as
``YYYYMMDD`` integers (see :mod:`repro.datagen.tpch`).

``evaluate`` computes an expression over a whole :class:`~repro.storage.table.Table`
column-at-a-time; the compiled backend instead renders expressions to Python
source via :mod:`repro.expr.compile`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError
from ..storage.table import ColumnType, Table

_ARITH = {"+", "-", "*", "/"}
_COMPARE = {"=", "<>", "<", "<=", ">", ">="}
_BOOL = {"and", "or"}


class Expr:
    """Base class for scalar expressions (immutable, hashable)."""

    __slots__ = ()

    def columns(self) -> FrozenSet[str]:
        """Names of all columns this expression reads."""
        out: set = set()
        _collect_columns(self, out)
        return frozenset(out)

    # Operator sugar so plans and tests read naturally.
    def __add__(self, other):  return BinOp("+", self, _wrap(other))
    def __sub__(self, other):  return BinOp("-", self, _wrap(other))
    def __mul__(self, other):  return BinOp("*", self, _wrap(other))
    def __truediv__(self, other):  return BinOp("/", self, _wrap(other))
    def __rsub__(self, other):  return BinOp("-", _wrap(other), self)
    def __radd__(self, other):  return BinOp("+", _wrap(other), self)
    def __rmul__(self, other):  return BinOp("*", _wrap(other), self)
    def eq(self, other):  return BinOp("=", self, _wrap(other))
    def ne(self, other):  return BinOp("<>", self, _wrap(other))
    def __lt__(self, other):  return BinOp("<", self, _wrap(other))
    def __le__(self, other):  return BinOp("<=", self, _wrap(other))
    def __gt__(self, other):  return BinOp(">", self, _wrap(other))
    def __ge__(self, other):  return BinOp(">=", self, _wrap(other))
    def and_(self, other):  return BinOp("and", self, _wrap(other))
    def or_(self, other):  return BinOp("or", self, _wrap(other))
    def isin(self, values: Iterable):  return InList(self, tuple(values))


def _wrap(value) -> "Expr":
    return value if isinstance(value, Expr) else Const(value)


class Col(Expr):
    """A reference to a column of the input relation."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"Col({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, Col) and other.name == self.name

    def __hash__(self):
        return hash(("col", self.name))


class Const(Expr):
    """A literal constant (int, float, or str)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Const({self.value!r})"

    def __eq__(self, other):
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self):
        return hash(("const", self.value))


class Param(Expr):
    """A named query parameter (``:p1``), bound at execution time.

    Parameterized predicates are central to the data-skipping optimization
    (paper Section 4.2): the *attribute* is known at capture time while the
    *value* arrives with each interaction.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"Param({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, Param) and other.name == self.name

    def __hash__(self):
        return hash(("param", self.name))


class BinOp(Expr):
    """Binary arithmetic / comparison / boolean operator."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH | _COMPARE | _BOOL:
            raise SchemaError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"

    def __eq__(self, other):
        return (
            isinstance(other, BinOp)
            and (other.op, other.left, other.right) == (self.op, self.left, self.right)
        )

    def __hash__(self):
        return hash(("binop", self.op, self.left, self.right))


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def __repr__(self):
        return f"Not({self.operand!r})"

    def __eq__(self, other):
        return isinstance(other, Not) and other.operand == self.operand

    def __hash__(self):
        return hash(("not", self.operand))


class Func(Expr):
    """Scalar function call.  Supported: sqrt, abs, year, month."""

    SUPPORTED = ("sqrt", "abs", "floor", "year", "month")

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        name = name.lower()
        if name not in self.SUPPORTED:
            raise SchemaError(f"unsupported function {name!r}")
        self.name = name
        self.args = tuple(args)

    def __repr__(self):
        return f"Func({self.name!r}, {list(self.args)!r})"

    def __eq__(self, other):
        return isinstance(other, Func) and (other.name, other.args) == (self.name, self.args)

    def __hash__(self):
        return hash(("func", self.name, self.args))


class InList(Expr):
    """``expr IN (v1, v2, ...)`` membership test.

    ``choices`` is either a tuple of literals or a :class:`Param` — the
    SQL form ``expr IN :name`` — whose value (any iterable of literals)
    is bound at execution time.  Parameterized IN lists are the natural
    slot for interactive *value* selections in prepared statements, the
    way the rid argument of ``Lb``/``Lf`` is for positional ones.
    """

    __slots__ = ("operand", "choices")

    def __init__(self, operand: Expr, choices):
        self.operand = operand
        self.choices = choices if isinstance(choices, Param) else tuple(choices)

    def __repr__(self):
        return f"InList({self.operand!r}, {self.choices!r})"

    def __eq__(self, other):
        return isinstance(other, InList) and (other.operand, other.choices) == (
            self.operand,
            self.choices,
        )

    def __hash__(self):
        return hash(("in", self.operand, self.choices))


def _collect_columns(expr: Expr, out: set) -> None:
    if isinstance(expr, Col):
        out.add(expr.name)
    elif isinstance(expr, BinOp):
        _collect_columns(expr.left, out)
        _collect_columns(expr.right, out)
    elif isinstance(expr, Not):
        _collect_columns(expr.operand, out)
    elif isinstance(expr, Func):
        for a in expr.args:
            _collect_columns(a, out)
    elif isinstance(expr, InList):
        _collect_columns(expr.operand, out)


def _in_choices(expr: InList, params: Optional[dict]) -> Tuple:
    """The concrete choice tuple of an IN list (resolving a Param).

    Elements are normalized to plain Python scalars: the compiled
    backend repr-interpolates the tuple into generated source, where a
    numpy scalar would render as ``np.int64(1)`` against a namespace
    that has no ``np``.
    """
    if not isinstance(expr.choices, Param):
        return expr.choices
    name = expr.choices.name
    if params is None or name not in params:
        raise SchemaError(f"unbound parameter :{name}")
    value = params[name]
    if isinstance(value, np.ndarray):
        return tuple(value.tolist())
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(
            v.item() if isinstance(v, np.generic) else v for v in value
        )
    raise SchemaError(
        f"IN-list parameter :{name} must bind a list of values, "
        f"got {type(value).__name__}"
    )


def collect_params(expr: Optional[Expr]) -> List[str]:
    """Names of all :class:`Param` placeholders in an expression tree."""
    names: List[str] = []

    def walk(e: Optional[Expr]) -> None:
        if e is None:
            return
        if isinstance(e, Param):
            names.append(e.name)
        elif isinstance(e, BinOp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Not):
            walk(e.operand)
        elif isinstance(e, Func):
            for a in e.args:
                walk(a)
        elif isinstance(e, InList):
            walk(e.operand)
            if isinstance(e.choices, Param):
                names.append(e.choices.name)

    walk(expr)
    return names


def bind_params(expr: Expr, params: dict) -> Expr:
    """Replace every :class:`Param` with the constant bound to its name."""
    if isinstance(expr, Param):
        if expr.name not in params:
            raise SchemaError(f"unbound parameter :{expr.name}")
        return Const(params[expr.name])
    if isinstance(expr, BinOp):
        return BinOp(expr.op, bind_params(expr.left, params), bind_params(expr.right, params))
    if isinstance(expr, Not):
        return Not(bind_params(expr.operand, params))
    if isinstance(expr, Func):
        return Func(expr.name, [bind_params(a, params) for a in expr.args])
    if isinstance(expr, InList):
        return InList(bind_params(expr.operand, params), _in_choices(expr, params))
    return expr


def evaluate(expr: Expr, table: Table, params: Optional[dict] = None) -> np.ndarray:
    """Evaluate an expression over every row of ``table`` (vectorized).

    ``=``, ``<>`` and ``IN`` between a bare STR column and string
    constants or ``:params`` read the table's shared dictionary codes
    (:meth:`~repro.storage.table.Table.shared_codes`): one dictionary
    lookup per string and one int compare per row.  Over a transient
    table, which has no codes to share, they compare Python objects row
    by row, as every other expression over a STR column does.
    """
    coded = _coded_compare(expr, table, params)
    if coded is not None:
        return coded
    n = table.num_rows
    if isinstance(expr, Col):
        return table.column(expr.name)
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, str):
            out = np.empty(n, dtype=object)
            out[:] = value
            return out
        dtype = np.float64 if isinstance(value, float) else np.int64
        return np.full(n, value, dtype=dtype)
    if isinstance(expr, Param):
        if params is None or expr.name not in params:
            raise SchemaError(f"unbound parameter :{expr.name}")
        return evaluate(Const(params[expr.name]), table)
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, table, params)
        right = evaluate(expr.right, table, params)
        return _apply_binop(expr.op, left, right)
    if isinstance(expr, Not):
        return ~evaluate(expr.operand, table, params).astype(bool)
    if isinstance(expr, Func):
        args = [evaluate(a, table, params) for a in expr.args]
        return _apply_func(expr.name, args)
    if isinstance(expr, InList):
        operand = evaluate(expr.operand, table, params)
        mask = np.zeros(n, dtype=bool)
        for choice in _in_choices(expr, params):
            mask |= operand == choice
        return mask
    raise SchemaError(f"cannot evaluate expression {expr!r}")


def _coded_compare(expr: Expr, table: Table, params: Optional[dict]) -> Optional[np.ndarray]:
    """The mask of a STR ``=`` / ``<>`` / ``IN`` over ``table``'s shared
    codes, or ``None`` when ``expr`` is not one or ``table`` shares none."""
    if isinstance(expr, BinOp) and expr.op in ("=", "<>"):
        column, other = (
            (expr.left, expr.right) if isinstance(expr.left, Col) else (expr.right, expr.left)
        )
        if isinstance(other, Param):
            if params is None or other.name not in params:
                return None  # the object path raises the canonical error
            other = Const(params[other.name])
        if not isinstance(other, Const):
            return None
        strings = (other.value,)
    elif isinstance(expr, InList):
        column = expr.operand
        strings = _in_choices(expr, params)
    else:
        return None
    if not (
        isinstance(column, Col)
        and all(isinstance(s, str) for s in strings)
        and column.name in table.schema
        and table.schema.type_of(column.name) is ColumnType.STR
    ):
        return None
    shared = table.shared_codes(column.name)
    if shared is None:
        return None
    codes, dictionary = shared
    hits = [dictionary[s] for s in strings if s in dictionary]
    if len(hits) <= 1:
        mask = codes == hits[0] if hits else np.zeros(codes.shape[0], dtype=bool)
    else:
        member = np.zeros(len(dictionary), dtype=bool)
        member[hits] = True
        mask = member[codes]
    return ~mask if isinstance(expr, BinOp) and expr.op == "<>" else mask


def _apply_binop(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "and":
        return left.astype(bool) & right.astype(bool)
    if op == "or":
        return left.astype(bool) | right.astype(bool)
    raise SchemaError(f"unknown operator {op!r}")


def _apply_func(name: str, args: List[np.ndarray]) -> np.ndarray:
    if name == "sqrt":
        return np.sqrt(args[0].astype(np.float64))
    if name == "abs":
        return np.abs(args[0])
    if name == "floor":
        return np.floor(args[0].astype(np.float64)).astype(np.int64)
    if name == "year":
        # Dates are YYYYMMDD integers throughout the library.
        return args[0] // 10000
    if name == "month":
        return (args[0] // 100) % 100
    raise SchemaError(f"unsupported function {name!r}")
