"""In-memory relations.

A :class:`Table` is Smoke's unit of storage: a schema plus one numpy array
per column.  Record ids (*rids*) are implicit array positions ``0..n-1``,
which is what makes rid-based lineage indexes cheap — a backward lookup is
an array ``take`` rather than a key lookup (paper Section 3.1).
"""

from __future__ import annotations

import enum
import weakref
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import sanitize
from ..errors import RidRangeError, SchemaError


class ColumnType(enum.Enum):
    """Logical column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STR = "str"

    @property
    def numpy_dtype(self):
        return _NUMPY_DTYPES[self._value_]

    @classmethod
    def infer(cls, array: np.ndarray) -> "ColumnType":
        """Infer the logical type of a numpy array."""
        kind = array.dtype.kind
        if kind in "iub":
            return cls.INT
        if kind == "f":
            return cls.FLOAT
        if kind in "OUS":
            return cls.STR
        raise SchemaError(f"unsupported numpy dtype {array.dtype!r}")


_NUMPY_DTYPES = {"int": np.int64, "float": np.float64, "str": object}


class Schema:
    """An ordered mapping of column name to :class:`ColumnType`."""

    __slots__ = ("_names", "_types", "_pos")

    def __init__(self, fields: Sequence[Tuple[str, ColumnType]]):
        names = [name for name, _ in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._names: List[str] = names
        self._types: List[ColumnType] = [ctype for _, ctype in fields]
        self._pos: Dict[str, int] = {n: i for i, n in enumerate(names)}

    @property
    def names(self) -> List[str]:
        return list(self._names)

    @property
    def fields(self) -> List[Tuple[str, ColumnType]]:
        return list(zip(self._names, self._types, strict=True))

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._pos

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Schema)
            and self._names == other._names
            and self._types == other._types
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{t.value}" for n, t in self.fields)
        return f"Schema({inner})"

    def type_of(self, name: str) -> ColumnType:
        try:
            return self._types[self._pos[name]]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; available: {self._names}"
            ) from None

    def index_of(self, name: str) -> int:
        if name not in self._pos:
            raise SchemaError(
                f"unknown column {name!r}; available: {self._names}"
            )
        return self._pos[name]

    def concat(self, other: "Schema", prefix_self: str = "", prefix_other: str = "") -> "Schema":
        """Schema of a join output, optionally disambiguating with prefixes."""
        fields = [(prefix_self + n, t) for n, t in self.fields]
        fields += [(prefix_other + n, t) for n, t in other.fields]
        return Schema(fields)


def _coerce_column(values, ctype: Optional[ColumnType] = None) -> np.ndarray:
    """Coerce arbitrary input into a canonical column array."""
    if isinstance(values, np.ndarray):
        arr = values
    else:
        values = list(values)
        if values and isinstance(values[0], str):
            arr = np.array(values, dtype=object)
        else:
            arr = np.asarray(values)
    if ctype is None:
        ctype = ColumnType.infer(arr)
    if ctype is ColumnType.STR:
        if arr.dtype != object:
            arr = arr.astype(object)
    else:
        arr = np.ascontiguousarray(arr, dtype=ctype.numpy_dtype)
    return arr


def dictionary_encode(values: np.ndarray, dtype=np.int64) -> Tuple[np.ndarray, Dict]:
    """``(codes, index)`` of a column of Python objects (or numpy
    strings): ``index`` maps each distinct value to its code, numbered
    ``0..len(index)-1`` in first-occurrence order, and ``codes`` holds
    each row's code as ``dtype``.  Hashing, not sorting: ordering objects
    runs a Python comparison per step.  This is the engine's one per-row
    pass over objects; every string-keyed kernel encodes through it."""
    items = values.tolist()
    index = {v: i for i, v in enumerate(dict.fromkeys(items))}
    return np.fromiter(map(index.__getitem__, items), dtype, len(items)), index


class Table:
    """A named-column, rid-addressable in-memory relation.

    Columns are immutable by convention: operators produce new tables rather
    than mutating inputs, so captured rid indexes stay valid for the
    lifetime of the table they reference.

    Immutability also lets a table memoize the dictionary codes of its
    STR columns (:meth:`codes`) with the dictionary that numbered them: a
    stored table encodes each such column once, and a table derived from
    one by :meth:`take` or :meth:`filter` gathers its codes from its
    source's and shares its dictionary instead of encoding its own rows.
    GROUP BY keys read the codes, and ``=`` / ``<>`` / ``IN`` against a
    string read them through :meth:`shared_codes`.  Per-object work is
    left in that one encode per STR column per stored table (and in a
    derived table whose source is gone); in predicates over a transient
    table (a join output, a chain gather), which compare objects rather
    than encode rows they read once; and in the kernels that encode values
    no table memoizes: join keys, DISTINCT, ORDER BY and the per-bar
    memo's fills.  Code numbering is arbitrary — a derived table keeps
    its source's — so consumers rely on code equality only, never order.
    """

    __slots__ = (
        "schema", "_columns", "_nrows", "_codes", "_source", "_stored", "__weakref__"
    )

    def __init__(self, columns: Mapping[str, np.ndarray], schema: Optional[Schema] = None):
        if schema is None:
            fields = []
            coerced: Dict[str, np.ndarray] = {}
            for name, values in columns.items():
                arr = _coerce_column(values)
                fields.append((name, ColumnType.infer(arr)))
                coerced[name] = arr
            schema = Schema(fields)
            columns = coerced
        else:
            coerced = {}
            for name, ctype in schema.fields:
                if name not in columns:
                    raise SchemaError(f"missing column {name!r} for schema {schema}")
                coerced[name] = _coerce_column(columns[name], ctype)
            columns = coerced
        lengths = {name: arr.shape[0] for name, arr in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths}")
        self.schema = schema
        self._columns = dict(columns)
        self._nrows = next(iter(lengths.values())) if lengths else 0
        # column -> ((codes, width), the dictionary mapping value -> code)
        self._codes: Optional[Dict[str, Tuple[Tuple[np.ndarray, int], Dict]]] = None
        # (weak reference to the source table, the rids or mask that
        # selected this table's rows from it); set only with a STR column
        self._source: Optional[tuple] = None
        self._stored = False

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        cols = {n: np.empty(0, dtype=t.numpy_dtype) for n, t in schema.fields}
        return cls(cols, schema)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "Table":
        rows = list(rows)
        cols = {}
        for i, (name, ctype) in enumerate(schema.fields):
            cols[name] = _coerce_column([row[i] for row in rows], ctype)
        return cls(cols, schema)

    # -- basic accessors -------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._nrows

    def __len__(self) -> int:
        return self._nrows

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; available: {self.schema.names}"
            ) from None

    def columns(self) -> Dict[str, np.ndarray]:
        return dict(self._columns)

    def row(self, rid: int) -> Tuple:
        if not 0 <= rid < self._nrows:
            raise RidRangeError(f"rid {rid} out of range [0, {self._nrows})")
        return tuple(self._columns[n][rid] for n in self.schema.names)

    def itertuples(self):
        """Iterate rows as tuples (used by the compiled backend and tests)."""
        arrays = [self._columns[n] for n in self.schema.names]
        return zip(*arrays, strict=True) if arrays else iter(())

    def to_rows(self) -> List[Tuple]:
        return list(self.itertuples())

    def codes(self, name: str) -> Tuple[np.ndarray, int]:
        """``(codes, width)`` of STR column ``name``: int32 codes below
        ``width`` with equal codes exactly where values are equal,
        computed on first use and memoized (frozen under
        ``REPRO_SANITIZE``).  A table derived by :meth:`take` or
        :meth:`filter` from a live source gathers the source's codes —
        one int gather — and shares its numbering and width, so some of
        its codes may be absent.  Two threads on a cold column may both
        compute it; either result is the same."""
        return self._coded(name)[0]

    def shared_codes(self, name: str) -> Optional[Tuple[np.ndarray, Dict]]:
        """``(codes, dictionary)`` of STR column ``name``, ``dictionary``
        mapping each value of the numbering to its code; ``None`` when
        this table has none to share.  A table has them when it memoizes
        them, when a catalog stores it (:meth:`mark_stored`: encoded once
        here), or when it was derived from a live table that has them.
        A transient table (a join output, a chain gather) answers
        ``None`` rather than encode rows its caller reads once."""
        if self._codes is None or name not in self._codes:
            source = self._source[0]() if self._source is not None else None
            if not self._stored and (source is None or source.shared_codes(name) is None):
                return None
        (codes, _), dictionary = self._coded(name)
        return codes, dictionary

    def mark_stored(self) -> None:
        """Record that a catalog holds this table, so that a predicate
        over one of its STR columns may encode it once
        (:meth:`shared_codes`)."""
        self._stored = True

    def _coded(self, name: str) -> Tuple[Tuple[np.ndarray, int], Dict]:
        """The memo entry ``((codes, width), dictionary)`` of ``name``,
        computed on first use: gathered from a live source's, which
        shares its dictionary, or encoded here."""
        entry = self._codes.get(name) if self._codes is not None else None
        if entry is not None:
            return entry
        if self.schema.type_of(name) is not ColumnType.STR:
            raise SchemaError(f"column {name!r} is not a STR column")
        source = self._source[0]() if self._source is not None else None
        if source is not None:
            (codes, width), dictionary = source._coded(name)
            entry = ((codes[self._source[1]], width), dictionary)
        else:
            codes, dictionary = dictionary_encode(self._columns[name], np.int32)
            entry = ((codes, len(dictionary)), dictionary)
        sanitize.freeze(entry[0][0])
        self._codes = {**(self._codes or {}), name: entry}
        return entry

    # -- relational helpers ----------------------------------------------------

    def take(self, rids, names: Optional[Sequence[str]] = None) -> "Table":
        """Gather rows by rid — the primitive behind every lineage lookup
        — of every column, or of ``names`` only (in that order)."""
        rids = np.asarray(rids, dtype=np.int64)
        return self._derive(rids, names)

    def filter(self, mask: np.ndarray, names: Optional[Sequence[str]] = None) -> "Table":
        """The rows ``mask`` keeps, of every column or of ``names`` only."""
        return self._derive(mask, names)

    def _derive(self, selector: np.ndarray, names: Optional[Sequence[str]]) -> "Table":
        """The rows ``selector`` picks, recording this table as their
        source for :meth:`codes` when there are STR columns to code.
        The reference is weak, so a derived table never keeps a replaced
        catalog table alive; the selector is kept as is, as callers hand
        over arrays they no longer write."""
        if names is None:
            schema = self.schema
            names = schema._names
        else:
            schema = Schema([(n, self.schema.type_of(n)) for n in names])
        table = Table({n: self._columns[n][selector] for n in names}, schema)
        if ColumnType.STR in schema._types:
            table._source = (weakref.ref(self), selector)
        return table

    def select_columns(self, names: Sequence[str]) -> "Table":
        fields = [(n, self.schema.type_of(n)) for n in names]
        return Table({n: self._columns[n] for n in names}, Schema(fields))

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        fields = [(mapping.get(n, n), t) for n, t in self.schema.fields]
        cols = {mapping.get(n, n): arr for n, arr in self._columns.items()}
        return Table(cols, Schema(fields))

    def with_column(self, name: str, values) -> "Table":
        arr = _coerce_column(values)
        if arr.shape[0] != self._nrows and self._nrows:
            raise SchemaError(
                f"column {name!r} has {arr.shape[0]} rows, table has {self._nrows}"
            )
        fields = self.schema.fields
        if name in self.schema:
            fields = [(n, ColumnType.infer(arr) if n == name else t) for n, t in fields]
        else:
            fields = fields + [(name, ColumnType.infer(arr))]
        cols = dict(self._columns)
        cols[name] = arr
        return Table(cols, Schema(fields))

    def equals(self, other: "Table", sort: bool = False) -> bool:
        """Deep equality; with ``sort=True`` compares as bags of rows."""
        if self.schema != other.schema or len(self) != len(other):
            return False
        mine, theirs = self.to_rows(), other.to_rows()
        if sort:
            mine, theirs = sorted(map(repr, mine)), sorted(map(repr, theirs))
        return mine == theirs

    def __repr__(self) -> str:
        return f"Table({self.schema}, rows={self._nrows})"

    def pretty(self, limit: int = 20) -> str:
        """Render a small ASCII preview, for examples and bench reports."""
        names = self.schema.names
        rows = [tuple(str(v) for v in row) for row in list(self.itertuples())[:limit]]
        widths = [
            max([len(n)] + [len(r[i]) for r in rows]) for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths, strict=True))
        sep = "-+-".join("-" * w for w in widths)
        body = [" | ".join(v.ljust(w) for v, w in zip(row, widths, strict=True)) for row in rows]
        suffix = [] if len(self) <= limit else [f"... ({len(self)} rows total)"]
        return "\n".join([header, sep] + body + suffix)


def concat_tables(tables: Sequence[Table]) -> Table:
    """Bag-union concatenation preserving rid order (A rows then B rows...)."""
    if not tables:
        raise SchemaError("concat_tables requires at least one table")
    schema = tables[0].schema
    for t in tables[1:]:
        if t.schema != schema:
            raise SchemaError(f"schema mismatch in concat: {t.schema} vs {schema}")
    cols = {}
    for name, ctype in schema.fields:
        parts = [t.column(name) for t in tables]
        if ctype is ColumnType.STR:
            cols[name] = np.concatenate([p.astype(object) for p in parts])
        else:
            cols[name] = np.concatenate(parts)
    return Table(cols, schema)
