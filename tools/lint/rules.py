"""The seven repo-specific AST rules (see package docstring for noqa).

Every rule carries its error code, the invariant it enforces, and an
autofix hint in its docstring; ``python -m tools.lint --list-rules``
prints the summary lines.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

Finding = Tuple[int, int, str]

#: Builtin exception names banned at raise sites inside ``src/repro``
#: (RPR004).  ``NotImplementedError`` stays allowed: it marks abstract
#: methods, which is a programming-contract signal, not a library error.
BUILTIN_EXCEPTIONS = frozenset(
    {
        "ArithmeticError",
        "AssertionError",
        "AttributeError",
        "BaseException",
        "BufferError",
        "EOFError",
        "Exception",
        "IOError",
        "IndexError",
        "KeyError",
        "LookupError",
        "OSError",
        "OverflowError",
        "RuntimeError",
        "StopIteration",
        "TypeError",
        "ValueError",
        "ZeroDivisionError",
    }
)

#: In-place ndarray methods flagged on handout arrays (RPR002).
INPLACE_METHODS = frozenset({"sort", "resize", "fill", "partition", "byteswap"})


def dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` chains of Names/Attributes; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_np_arange(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and dotted(node.func) in ("np.arange", "numpy.arange")
    )


class Rule:
    """Base: a code, a path scope, and an AST check."""

    code: str = ""
    name: str = ""

    def applies(self, ctx) -> bool:
        raise NotImplementedError

    def check(self, ctx) -> Iterator[Finding]:
        raise NotImplementedError


class LineageComposeOnly(Rule):
    """Executor/late_mat code must build lineage via the shared folds.

    Invariant: :class:`~repro.lineage.composer.NodeLineage` index maps are
    constructed and combined only through ``compose_node`` /
    ``merge_binary`` / ``absorb`` / ``for_traced_scan`` /
    ``selection_locals`` / ``invert_rid_index`` — never by subscripting
    ``.backward`` / ``.forward`` directly or by hand-rolled
    scatter-assignment (``out[rids] = np.arange(...)``), the exact bug
    class of the PR-4 seed defect (compiled group-by scattering forward
    lineage into a 1-to-1 array where fan-out silently overwrites).

    Autofix hint: move the construction into
    ``src/repro/lineage/composer.py`` (or
    :func:`repro.lineage.indexes.scatter_forward`) and call the fold.
    """

    code = "RPR001"
    name = "lineage-compose-only"

    SCOPE = (
        "src/repro/exec/late_mat.py",
        "src/repro/exec/lineage_scan.py",
        "src/repro/exec/vector/executor.py",
        "src/repro/exec/compiled/executor.py",
    )

    def applies(self, ctx) -> bool:
        return ctx.is_file(*self.SCOPE)

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
                if (
                    len(targets) == 1
                    and isinstance(targets[0], ast.Subscript)
                    and _is_np_arange(node.value)
                ):
                    yield (
                        node.lineno, node.col_offset,
                        "scatter-assignment of np.arange into a subscript; "
                        "use repro.lineage.indexes.scatter_forward / "
                        "composer.selection_locals",
                    )
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in ("backward", "forward")
                ):
                    yield (
                        target.lineno, target.col_offset,
                        f"direct mutation of NodeLineage .{target.value.attr} "
                        "map; use the composer folds (compose_node / "
                        "merge_binary / absorb / for_traced_scan / "
                        "drop_setop_right_indexes)",
                    )


class NoInplaceOnHandout(Rule):
    """No in-place numpy ops on arrays handed out by caches/registries.

    Invariant: arrays returned by ``GrowableRidVector.view()`` /
    ``GrowableRidIndex.bucket()``, ``LineageResolutionCache.resolve()``,
    and ``resolve_scan_source`` are *shared* (zero-copy views or memoized
    entries, ``storage/growable.py`` and ``lineage/cache.py``); consumers
    must gather through them (fancy indexing copies), never mutate.  The
    read-only flag catches this at runtime only when ``REPRO_SANITIZE=1``;
    this rule catches it at review time.

    Autofix hint: copy first (``arr = handout.copy()``) or use an
    out-of-place op (``np.sort(arr)`` instead of ``arr.sort()``).
    """

    code = "RPR002"
    name = "no-inplace-on-handout"

    def applies(self, ctx) -> bool:
        return True

    def _handout_names(self, fn: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
                attr = value.func.attr
                receiver = dotted(value.func.value) or ""
                handed_out = (
                    attr in ("view", "bucket")
                    or (attr == "resolve" and "cache" in receiver.lower())
                )
                if handed_out:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "resolve_scan_source"
            ):
                for target in node.targets:
                    if isinstance(target, ast.Tuple) and len(target.elts) >= 2:
                        second = target.elts[1]
                        if isinstance(second, ast.Name):
                            names.add(second.id)
        return names

    def check(self, ctx) -> Iterator[Finding]:
        scopes = [ctx.tree] + [
            n
            for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            handouts = self._handout_names(scope)
            if not handouts:
                continue
            body = scope.body if isinstance(scope, ast.Module) else scope.body
            for node in ast.walk(ast.Module(body=list(body), type_ignores=[])):
                yield from self._check_node(node, handouts)

    def _check_node(self, node: ast.AST, handouts: Set[str]) -> Iterator[Finding]:
        def is_handout(expr: ast.AST) -> bool:
            return isinstance(expr, ast.Name) and expr.id in handouts

        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and is_handout(target.value):
                    yield (
                        target.lineno, target.col_offset,
                        f"in-place write into handout array "
                        f"{target.value.id!r}; copy before mutating",
                    )
        elif isinstance(node, ast.AugAssign):
            target = node.target
            base = target.value if isinstance(target, ast.Subscript) else target
            if is_handout(base):
                yield (
                    node.lineno, node.col_offset,
                    "augmented assignment mutates a handout array in place; "
                    "copy before mutating",
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in INPLACE_METHODS and is_handout(node.func.value):
                yield (
                    node.lineno, node.col_offset,
                    f".{node.func.attr}() mutates a handout array in place; "
                    f"use the out-of-place variant (np.{node.func.attr}) "
                    "or copy first",
                )


class TimingsRegistry(Rule):
    """Timings keys must come from the ``repro.exec.timings`` registry.

    Invariant: every read or write of an ``ExecResult.timings`` entry
    spells its key via a constant from ``src/repro/exec/timings.py``.
    String literals at these sites are how typo'd counters silently
    vanish from BENCH gates (the gate reads ``None``/``0`` and measures
    nothing).

    Autofix hint: add/import the constant from ``repro.exec.timings``
    (e.g. ``timings[LATE_MAT_JOINS]`` instead of
    ``timings["late_mat_joins"]``).
    """

    code = "RPR003"
    name = "timings-registry"

    def applies(self, ctx) -> bool:
        return not ctx.is_file("src/repro/exec/timings.py")

    @staticmethod
    def _is_timings(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id == "timings"
        if isinstance(expr, ast.Attribute):
            return expr.attr == "timings"
        return False

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Subscript) and self._is_timings(node.value):
                key = node.slice
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield (
                        node.lineno, node.col_offset,
                        f"string-literal timings key {key.value!r}; use a "
                        "repro.exec.timings constant",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and self._is_timings(node.func.value)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                yield (
                    node.lineno, node.col_offset,
                    f"string-literal timings key {node.args[0].value!r} in "
                    ".get(); use a repro.exec.timings constant",
                )
            elif isinstance(node, ast.Assign) and any(
                self._is_timings(t) for t in node.targets
            ):
                if isinstance(node.value, ast.Dict):
                    for key in node.value.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            yield (
                                key.lineno, key.col_offset,
                                f"string-literal timings key {key.value!r} in "
                                "dict literal; use a repro.exec.timings "
                                "constant",
                            )


class ReproErrorsOnly(Rule):
    """``raise`` sites in src/repro must use the errors.py taxonomy.

    Invariant: library failures derive from
    :class:`repro.errors.ReproError` so callers can catch library
    problems without catching programming errors (``errors.py``).  Bare
    builtin raises (``ValueError``, ``RuntimeError``, ...) leak
    un-catchable failure modes into the public surface.
    ``NotImplementedError`` (abstract methods) and re-raises are exempt.

    Autofix hint: pick (or add) the matching ``ReproError`` subclass —
    argument-domain mistakes map to ``InvalidArgumentError``.
    """

    code = "RPR004"
    name = "repro-errors-only"

    def applies(self, ctx) -> bool:
        return ctx.in_dir("src/repro/")

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in BUILTIN_EXCEPTIONS:
                yield (
                    node.lineno, node.col_offset,
                    f"raise of builtin {name}; use the repro.errors taxonomy "
                    "(e.g. InvalidArgumentError for bad argument domains)",
                )


class EpochThreading(Rule):
    """Catalog reads in exec/ and lineage/ must carry epochs.

    Invariant: executor and lineage code reads tables together with
    their replacement epoch
    (:meth:`repro.storage.catalog.Catalog.get_versioned`) so captured
    lineage records the epoch it indexed and consumers can reject stale
    rids.  A naked ``catalog.get(name)`` / ``catalog.resolve(name)``
    there reads a table whose identity can drift under the lineage that
    points at it.  (Binder/planner code outside exec//lineage/ may use
    ``get`` — schema inference holds no rids.)

    Autofix hint: ``table, epoch = catalog.get_versioned(name)`` and
    thread the epoch into the scan's ``NodeLineage``.
    """

    code = "RPR005"
    name = "epoch-threading"

    def applies(self, ctx) -> bool:
        return ctx.in_dir("src/repro/exec/", "src/repro/lineage/")

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "resolve")
            ):
                continue
            receiver = dotted(node.func.value)
            if receiver == "catalog" or (receiver or "").endswith(".catalog"):
                yield (
                    node.lineno, node.col_offset,
                    f"naked catalog.{node.func.attr}() in epoch-sensitive "
                    "code; use catalog.get_versioned(name) and thread the "
                    "epoch",
                )


class DurableWritesOnly(Rule):
    """Durable-path file writes must go through the fsync helpers.

    Invariant: modules on the durability path (``lineage/wal.py``,
    ``lineage/persist.py``) never open a file for writing directly — a
    bare ``open(path, "wb")`` / ``os.open(..., O_WRONLY)`` write is
    exactly the torn-on-crash, never-fsynced pattern the WAL exists to
    prevent.  All writes flow through ``durable_atomic_write`` (temp +
    fsync + rename), ``durable_open_append`` (the WAL's append handle),
    or ``durable_truncate`` — the helpers that own the fsync discipline
    and carry their own audited ``noqa`` markers.

    Autofix hint: call ``repro.lineage.wal.durable_atomic_write(path,
    data)`` (whole-file artifacts) or extend the helper set; never
    inline an ``open`` in durable code.
    """

    code = "RPR007"
    name = "durable-writes-only"

    SCOPE = (
        "src/repro/lineage/wal.py",
        "src/repro/lineage/persist.py",
    )

    #: open()/io.open() mode characters that make a handle writable.
    WRITE_MODE_CHARS = frozenset("wax+")

    def applies(self, ctx) -> bool:
        return ctx.is_file(*self.SCOPE)

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        """The mode string of an open()/io.open() call, '' when omitted,
        None when not statically known."""
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            mode = next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None
            )
        if mode is None:
            return ""
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted(node.func)
            if callee in ("open", "io.open"):
                mode = self._open_mode(node)
                if mode is None or self.WRITE_MODE_CHARS & set(mode):
                    shown = "dynamic" if mode is None else repr(mode)
                    yield (
                        node.lineno, node.col_offset,
                        f"writable open(mode={shown}) on the durable path; "
                        "use durable_atomic_write / durable_open_append / "
                        "durable_truncate (which own the fsync discipline)",
                    )
            elif callee in ("os.open", "os.fdopen"):
                yield (
                    node.lineno, node.col_offset,
                    f"{callee}() on the durable path; use the durable_* "
                    "helpers (which own the fsync discipline)",
                )


class StableGroupOrderOnly(Rule):
    """Rid inversions in exec/ and lineage/ must use the radix kernel.

    Invariant: ordering rids by a dense id (group, key, target rid) goes
    through :func:`repro.lineage.indexes.stable_group_order`, which is
    bit-identical to ``np.argsort(ids, kind="stable")`` but narrows the
    ids so numpy radix-sorts them in O(n).  A direct stable argsort over
    int64 ids is a comparison sort — the one line that made group-by
    capture cost 4-11x the query.  Stable argsorts that rank something
    other than dense ids (first-occurrence rids over ``num_groups``
    entries) stay legal with a justified noqa.

    Autofix hint: ``order = stable_group_order(ids, num_groups)``.
    """

    code = "RPR008"
    name = "stable-group-order-only"

    #: The kernel itself is the one sanctioned home of the argsort.
    KERNEL = ("src/repro/lineage/indexes.py", "stable_group_order")

    def applies(self, ctx) -> bool:
        return ctx.in_dir("src/repro/exec/", "src/repro/lineage/")

    @staticmethod
    def _is_stable_argsort(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr != "argsort":
            return False
        return any(
            kw.arg == "kind"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value == "stable"
            for kw in node.keywords
        )

    def check(self, ctx) -> Iterator[Finding]:
        exempt: Set[int] = set()
        if ctx.is_file(self.KERNEL[0]):
            for fn in ast.walk(ctx.tree):
                if isinstance(fn, ast.FunctionDef) and fn.name == self.KERNEL[1]:
                    exempt.update(id(n) for n in ast.walk(fn))
        for node in ast.walk(ctx.tree):
            if self._is_stable_argsort(node) and id(node) not in exempt:
                yield (
                    node.lineno, node.col_offset,
                    "stable argsort outside the kernel; order rids by a "
                    "dense id with lineage.indexes.stable_group_order",
                )


ALL_RULES: List[Rule] = [
    LineageComposeOnly(),
    NoInplaceOnHandout(),
    TimingsRegistry(),
    ReproErrorsOnly(),
    EpochThreading(),
    DurableWritesOnly(),
    StableGroupOrderOnly(),
]
