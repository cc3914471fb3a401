"""Produce/consume code generation (paper Appendix A).

This engine transpiles a query *block* into one Python function whose
structure mirrors the paper's compiled plans: one ``for`` loop per
pipeline, pipeline breakers (hash-table builds) materializing between
loops, and lineage capture inlined in the same loops (the Inject listings
of Section 3.2 and Appendix F).  Python is our IR instead of C++/LLVM; the
*shape* of the emitted code is the point — tight integration with zero
cross-subsystem calls per tuple — while raw speed is the vector executor's
job (numpy kernels stand in for the paper's compiled C++ engine), and
this engine serves only as the tests' reference.

A block is a tree of per-row operators (scan, select, bag project, hash /
θ / cross joins) optionally rooted at one group-by.  Each operator
contributes code through the classic two calls:

* ``produce(ctx)`` — emit the code that drives its input(s);
* ``consume(ctx, row)`` — emit the code that handles one row, then call
  the parent's ``consume``.

``row`` carries the current column bindings *and* the current lineage
bindings: one rid expression per lineage source, which is exactly the
"propagate rids that point to R rather than the intermediate relation"
behaviour of Section 3.3.

Lineage scans (``Lb``/``Lf``) never reach code generation: the executor
materializes each one and hands this module a pre-lineaged
``SourceNode`` — the same contract breaker children use — so generated
blocks only ever loop over plain columnar sources.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...errors import PlanError
from ...expr.ast import Expr
from ...expr.compile import to_source
from ...plan.logical import AggCall

# ---------------------------------------------------------------------------


@dataclass
class Row:
    """Compile-time description of the tuple flowing through a pipeline.

    ``cols`` maps output column names to source expressions valid at the
    current program point; ``lins`` maps lineage source keys to rid
    expressions.
    """

    cols: Dict[str, str]
    lins: Dict[str, str]


class CodeContext:
    """Accumulates generated source and compiles it."""

    def __init__(self):
        self.lines: List[str] = []
        self.indent = 1
        self._counter = 0
        self.prologue: List[str] = []
        self.epilogue: List[str] = []

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def block(self, header: str) -> "_Block":
        return _Block(self, header)

    def render(self, name: str = "__block") -> str:
        body = (
            [f"def {name}(sources, params):"]
            + ["    " + l for l in self.prologue]
            + self.lines
            + ["    " + l for l in self.epilogue]
        )
        return "\n".join(body) + "\n"


class _Block:
    def __init__(self, ctx: CodeContext, header: str):
        self.ctx = ctx
        self.header = header

    def __enter__(self):
        self.ctx.emit(self.header)
        self.ctx.indent += 1
        return self

    def __exit__(self, *exc):
        self.ctx.indent -= 1
        return False


#: The one NaN object every NaN key is replaced by (see :func:`_nan_key`).
_NAN = float("nan")


def _nan_key(value):
    """``value``, or :data:`_NAN` when it is a NaN.  Dict lookups match a
    key by identity before equality, so NaN keys group and join with one
    another, as the vector kernels' do; any other value is its own key."""
    return _NAN if value != value else value


def compile_source(source: str, name: str = "__block") -> Callable:
    """Compile generated source into a callable (the "machine code")."""
    namespace = {"_sqrt": math.sqrt, "_floor": math.floor, "_nk": _nan_key}
    code = compile(source, f"<repro-codegen:{name}>", "exec")
    exec(code, namespace)
    # Popped: a function its own globals held would be a reference cycle.
    return namespace.pop(name)


# -- operator emitters -------------------------------------------------------
#
# Emitters form a linked parent chain; ``SourceNode`` leaves drive the
# loops.  All state (hash tables, output lists) lives in generated locals.


class Emitter:
    """A parent holds its children, so a child holds its ``parent``
    weakly: a strong back link would make every emitter tree a reference
    cycle, kept until the collector's next pass."""

    _parent: Optional[Callable[[], "Emitter"]] = None

    @property
    def parent(self) -> "Emitter":
        return self._parent()

    @parent.setter
    def parent(self, parent: "Emitter") -> None:
        self._parent = weakref.ref(parent)

    def produce(self, ctx: CodeContext) -> None:
        raise NotImplementedError

    def consume(self, ctx: CodeContext, row: Row) -> None:
        raise NotImplementedError


class SourceNode(Emitter):
    """Scan over a named source table (base relation or materialized
    intermediate).  ``lineage_key`` is None when this source's lineage is
    pruned."""

    def __init__(self, source_name: str, columns: Sequence[str], lineage_key: Optional[str]):
        self.source_name = source_name
        self.columns = list(columns)
        self.lineage_key = lineage_key

    def produce(self, ctx: CodeContext) -> None:
        arr = ctx.fresh("src")
        ctx.prologue.append(f"{arr} = sources[{self.source_name!r}]")
        i = ctx.fresh("i")
        cols = {}
        for c in self.columns:
            var = f"{arr}_{c}"
            ctx.prologue.append(f"{var} = {arr}[{c!r}]")
            cols[c] = f"{var}[{i}]"
        n = f"len({arr}[{self.columns[0]!r}])" if self.columns else "0"
        with ctx.block(f"for {i} in range({n}):"):
            lins = {self.lineage_key: i} if self.lineage_key else {}
            self.parent.consume(ctx, Row(cols=cols, lins=lins))


class SelectNode(Emitter):
    """``if predicate:`` guard inlined into the enclosing loop."""

    def __init__(self, predicate: Expr, params: Optional[dict]):
        self.predicate = predicate
        self.params = params

    def produce(self, ctx: CodeContext) -> None:
        self.child.produce(ctx)

    def consume(self, ctx: CodeContext, row: Row) -> None:
        pred = to_source(self.predicate, lambda c: _colref(row, c), self.params)
        with ctx.block(f"if {pred}:"):
            self.parent.consume(ctx, row)


class ProjectNode(Emitter):
    """Bag projection: rebind column names; lineage flows unchanged."""

    def __init__(self, exprs: Sequence[Tuple[Expr, str]], params: Optional[dict]):
        self.exprs = list(exprs)
        self.params = params

    def produce(self, ctx: CodeContext) -> None:
        self.child.produce(ctx)

    def consume(self, ctx: CodeContext, row: Row) -> None:
        cols = {}
        for expr, alias in self.exprs:
            src = to_source(expr, lambda c: _colref(row, c), self.params)
            var = ctx.fresh("p")
            ctx.emit(f"{var} = {src}")
            cols[alias] = var
        self.parent.consume(ctx, Row(cols=cols, lins=row.lins))


class HashJoinNode(Emitter):
    """Hash join: build on the left pipeline, probe from the right.

    The hash entry holds the build row's columns *and* its lineage rids
    (the ``i_rids`` augmentation of Figure 4d / Listing 10); pk-fk entries
    hold a single row (the "replace rid arrays with a single integer"
    optimization of Section 3.2.4).
    """

    def __init__(
        self,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        pkfk: bool,
        rename: Dict[str, str],
    ):
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.pkfk = pkfk
        self.rename = rename  # right-side output name -> right source name
        self._ht = None
        self._left_cols: List[str] = []
        self._left_lins: List[str] = []

    def produce(self, ctx: CodeContext) -> None:
        self._ht = ctx.fresh("ht")
        ctx.prologue.append(f"{self._ht} = {{}}")
        self._phase = "build"
        self.left.produce(ctx)
        self._phase = "probe"
        self.right.produce(ctx)

    def consume(self, ctx: CodeContext, row: Row) -> None:
        if self._phase == "build":
            self._consume_build(ctx, row)
        else:
            self._consume_probe(ctx, row)

    def _consume_build(self, ctx: CodeContext, row: Row) -> None:
        self._left_cols = list(row.cols)
        self._left_lins = list(row.lins)
        key = _key_tuple(row, self.left_keys)
        payload = (
            "(" + ", ".join([row.cols[c] for c in self._left_cols]
                            + [row.lins[k] for k in self._left_lins]) + ",)"
        )
        if self.pkfk:
            ctx.emit(f"{self._ht}[{key}] = {payload}")
        else:
            ctx.emit(f"{self._ht}.setdefault({key}, []).append({payload})")

    def _consume_probe(self, ctx: CodeContext, row: Row) -> None:
        key = _key_tuple(row, self.right_keys)
        entry = ctx.fresh("e")
        if self.pkfk:
            ctx.emit(f"{entry} = {self._ht}.get({key})")
            with ctx.block(f"if {entry} is not None:"):
                self._emit_match(ctx, row, entry)
        else:
            with ctx.block(f"for {entry} in {self._ht}.get({key}, ()):"):
                self._emit_match(ctx, row, entry)

    def _emit_match(self, ctx: CodeContext, row: Row, entry: str) -> None:
        cols = {}
        for pos, name in enumerate(self._left_cols):
            cols[name] = f"{entry}[{pos}]"
        for out_name, src_name in self.rename.items():
            cols[out_name] = row.cols[src_name]
        lins = {}
        base = len(self._left_cols)
        for pos, key in enumerate(self._left_lins):
            lins[key] = f"{entry}[{base + pos}]"
        lins.update(row.lins)
        self.parent.consume(ctx, Row(cols=cols, lins=lins))


class NestedLoopJoinNode(Emitter):
    """θ-join / cross product (Listing 7's doubly-nested loops).

    The *right* pipeline is buffered first, then the left pipeline drives
    the outer loop with the buffered rows iterated inside it, so output is
    emitted in left-major order — the order Listing 7 produces and the
    vector backend matches.
    """

    def __init__(self, predicate: Optional[Expr], rename: Dict[str, str], params: Optional[dict]):
        self.predicate = predicate
        self.rename = rename  # right-side output name -> right source name
        self.params = params
        self._buffer = None
        self._right_cols: List[str] = []
        self._right_lins: List[str] = []

    def produce(self, ctx: CodeContext) -> None:
        self._buffer = ctx.fresh("buf")
        ctx.prologue.append(f"{self._buffer} = []")
        self._phase = "buffer"
        self.right.produce(ctx)
        self._phase = "loop"
        self.left.produce(ctx)

    def consume(self, ctx: CodeContext, row: Row) -> None:
        if self._phase == "buffer":
            self._right_cols = list(row.cols)
            self._right_lins = list(row.lins)
            payload = (
                "(" + ", ".join([row.cols[c] for c in self._right_cols]
                                + [row.lins[k] for k in self._right_lins]) + ",)"
            )
            ctx.emit(f"{self._buffer}.append({payload})")
            return
        entry = ctx.fresh("e")
        with ctx.block(f"for {entry} in {self._buffer}:"):
            cols = dict(row.cols)
            inverse = {src: out for out, src in self.rename.items()}
            for pos, name in enumerate(self._right_cols):
                cols[inverse.get(name, name)] = f"{entry}[{pos}]"
            lins = dict(row.lins)
            base = len(self._right_cols)
            for pos, key in enumerate(self._right_lins):
                lins[key] = f"{entry}[{base + pos}]"
            if self.predicate is not None:
                pred = to_source(
                    self.predicate, lambda c: _colref(Row(cols, lins), c), self.params
                )
                with ctx.block(f"if {pred}:"):
                    self.parent.consume(ctx, Row(cols=cols, lins=lins))
            else:
                self.parent.consume(ctx, Row(cols=cols, lins=lins))


class CollectNode(Emitter):
    """Root of a per-row block: append output values and lineage rids.

    Generates Listing-2-style serial writes: output columns and backward
    rid lists grow in lockstep, so alignment between output rid ``k`` and
    its lineage is positional.
    """

    def __init__(self, out_columns: Sequence[str], lineage_keys: Sequence[str]):
        self.out_columns = list(out_columns)
        self.lineage_keys = list(lineage_keys)

    def produce(self, ctx: CodeContext) -> None:  # pragma: no cover
        raise PlanError("CollectNode is a sink; produce() starts at sources")

    def setup(self, ctx: CodeContext) -> None:
        self._col_vars = {}
        for c in self.out_columns:
            var = ctx.fresh("out")
            ctx.prologue.append(f"{var} = []")
            self._col_vars[c] = var
        self._lin_vars = {}
        for k in self.lineage_keys:
            var = ctx.fresh("bw")
            ctx.prologue.append(f"{var} = []")
            self._lin_vars[k] = var
        cols = "{" + ", ".join(f"{c!r}: {v}" for c, v in self._col_vars.items()) + "}"
        lins = "{" + ", ".join(f"{k!r}: {v}" for k, v in self._lin_vars.items()) + "}"
        ctx.epilogue.append(f"return {cols}, {lins}")

    def consume(self, ctx: CodeContext, row: Row) -> None:
        for c in self.out_columns:
            ctx.emit(f"{self._col_vars[c]}.append({row.cols[c]})")
        for k in self.lineage_keys:
            ctx.emit(f"{self._lin_vars[k]}.append({row.lins[k]})")


class GroupByNode(Emitter):
    """Group-by root: Listing 8's γ_ht build with ``rids`` per group.

    The hash entry is ``[key..., agg states..., rid lists per source]``;
    the epilogue is the γ_agg scan emitting output rows, finalizing
    aggregates, and handing buckets over as the backward index.
    """

    def __init__(
        self,
        keys: Sequence[Tuple[Expr, str]],
        aggs: Sequence[AggCall],
        lineage_keys: Sequence[str],
        params: Optional[dict],
    ):
        self.keys = list(keys)
        self.aggs = list(aggs)
        self.lineage_keys = list(lineage_keys)
        self.params = params

    def produce(self, ctx: CodeContext) -> None:  # pragma: no cover
        raise PlanError("GroupByNode is a sink; produce() starts at sources")

    def setup(self, ctx: CodeContext) -> None:
        self._ht = ctx.fresh("ght")
        seed = ""
        if not self.keys and all(a.func == "count" for a in self.aggs):
            # A keyless COUNT over no row still answers one row of zeros.
            inits = [_agg_init(a) for a in self.aggs] + ["[]" for _ in self.lineage_keys]
            seed = f"(): [{', '.join(inits)}]"
        ctx.prologue.append(f"{self._ht} = {{{seed}}}")
        # Epilogue: γ_agg scan over insertion-ordered dict.
        key_names = [a for _, a in self.keys]
        out_cols = key_names + [a.alias for a in self.aggs]
        lines = []
        lines.append(
            "out = {"
            + ", ".join(f"{c!r}: []" for c in out_cols)
            + "}"
        )
        lines.append(
            "buckets = {" + ", ".join(f"{k!r}: []" for k in self.lineage_keys) + "}"
        )
        lines.append(f"for _k, _st in {self._ht}.items():")
        for pos, name in enumerate(key_names):
            lines.append(f"    out[{name!r}].append(_k[{pos}])")
        for pos, agg in enumerate(self.aggs):
            lines.append(f"    out[{agg.alias!r}].append({_agg_final(agg, pos)})")
        n_aggs = len(self.aggs)
        for pos, k in enumerate(self.lineage_keys):
            lines.append(f"    buckets[{k!r}].append(_st[{n_aggs + pos}])")
        lines.append("return out, buckets")
        ctx.epilogue.extend(lines)

    def consume(self, ctx: CodeContext, row: Row) -> None:
        key_src = _key_tuple_exprs(
            [to_source(e, lambda c: _colref(row, c), self.params) for e, _ in self.keys]
        )
        st = ctx.fresh("st")
        inits = [_agg_init(a) for a in self.aggs] + ["[]" for _ in self.lineage_keys]
        ctx.emit(f"{st} = {self._ht}.get({key_src})")
        with ctx.block(f"if {st} is None:"):
            ctx.emit(f"{st} = [{', '.join(inits)}]")
            ctx.emit(f"{self._ht}[{key_src}] = {st}")
        for pos, agg in enumerate(self.aggs):
            arg = (
                to_source(agg.arg, lambda c: _colref(row, c), self.params)
                if agg.arg is not None
                else None
            )
            for line in _agg_update(agg, pos, st, arg):
                ctx.emit(line)
        n_aggs = len(self.aggs)
        for pos, k in enumerate(self.lineage_keys):
            ctx.emit(f"{st}[{n_aggs + pos}].append({row.lins[k]})")


# -- small helpers ------------------------------------------------------------


def _colref(row: Row, name: str) -> str:
    try:
        return row.cols[name]
    except KeyError:
        raise PlanError(
            f"column {name!r} not in scope; have {sorted(row.cols)}"
        ) from None


def _key_tuple(row: Row, names: Sequence[str]) -> str:
    return _key_tuple_exprs([row.cols[n] for n in names])


def _key_tuple_exprs(exprs: Sequence[str]) -> str:
    """A hash key: the tuple of ``exprs``, each NaN made one key."""
    return "(" + "".join(f"_nk({e}), " for e in exprs) + ")"


def _agg_init(agg: AggCall) -> str:
    return {
        "count": "0",
        "sum": "0",
        "avg": "[0, 0]",
        "min": "None",
        "max": "None",
        "count_distinct": "set()",
    }[agg.func]


def _agg_update(agg: AggCall, pos: int, st: str, arg: Optional[str]) -> List[str]:
    slot = f"{st}[{pos}]"
    if agg.func == "count":
        return [f"{slot} += 1"]
    if agg.func == "sum":
        return [f"{slot} += {arg}"]
    if agg.func == "avg":
        return [f"{slot}[0] += {arg}", f"{slot}[1] += 1"]
    if agg.func == "min":
        return [f"if {slot} is None or {arg} < {slot}: {st}[{pos}] = {arg}"]
    if agg.func == "max":
        return [f"if {slot} is None or {arg} > {slot}: {st}[{pos}] = {arg}"]
    if agg.func == "count_distinct":
        return [f"{slot}.add({arg})"]
    raise PlanError(f"unknown aggregate {agg.func!r}")


def _agg_final(agg: AggCall, pos: int) -> str:
    slot = f"_st[{pos}]"
    if agg.func == "avg":
        return f"({slot}[0] / {slot}[1])"
    if agg.func == "count_distinct":
        return f"len({slot})"
    return slot
