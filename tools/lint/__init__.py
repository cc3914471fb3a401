"""Repo-specific invariant linter (``python -m tools.lint src benchmarks``).

Smoke's correctness rests on cross-cutting invariants that generic
linters cannot see: lineage may only be composed through the shared
folds, handed-out rid arrays are read-only, timings counters must be
spelled from one registry, exceptions must come from the ``errors.py``
taxonomy, catalog reads in executor code must carry epochs,
durable-path modules must write files only through the fsync/rename
helpers, rids are ordered by dense id only through the inversion
kernel ``stable_group_order``, and only tests import the compiled
reference engine.  Each rule in :mod:`tools.lint.rules`
machine-checks one of them over the stdlib ``ast`` — no third-party
dependencies.

Suppression
-----------
A violation can be waived per line with an inline comment::

    something_flagged()  # repro: noqa RPR004 -- why this site is exempt

The justification after ``--`` is mandatory; a bare ``repro: noqa``
(with or without codes) is itself reported as ``RPR000``, so blanket
suppressions cannot accumulate silently.  Multiple codes separate with
commas: ``# repro: noqa RPR001,RPR003 -- reason``.

Exit status: 0 when no violations, 1 otherwise (2 for usage errors).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

#: Code reporting malformed suppressions (not a rule — the meta-check
#: that keeps every ``repro: noqa`` justified and targeted).
BAD_NOQA = "RPR000"

_NOQA_MARKER = "repro:"


@dataclass(frozen=True)
class Violation:
    """One reported lint finding."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: noqa`` comment on one physical line."""

    line: int
    codes: Tuple[str, ...]  # empty tuple = malformed (no codes given)
    justified: bool


class FileContext:
    """Everything the rules need to know about one source file."""

    def __init__(self, path: Path, display: str, source: str, tree: ast.Module):
        self.path = path
        self.display = display
        self.source = source
        self.tree = tree

    @property
    def posix(self) -> str:
        return self.path.as_posix()

    def in_dir(self, *fragments: str) -> bool:
        """True when the file lives under any of the given path fragments
        (``"src/repro/exec/"`` style, matched on the posix path)."""
        posix = self.posix
        return any(frag in posix for frag in fragments)

    def is_file(self, *suffixes: str) -> bool:
        """True when the posix path ends with any of the given suffixes."""
        posix = self.posix
        return any(posix.endswith(sfx) for sfx in suffixes)


def parse_suppressions(source: str) -> Dict[int, Suppression]:
    """Extract ``# repro: noqa`` comments per physical line via tokenize
    (comments are invisible to ``ast``)."""
    found: Dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return found
    for tok in comments:
        text = tok.string.lstrip("#").strip()
        if not text.startswith(_NOQA_MARKER):
            continue
        rest = text[len(_NOQA_MARKER):].strip()
        if not rest.lower().startswith("noqa"):
            continue
        rest = rest[4:].strip()
        justified = "--" in rest
        code_part = rest.split("--", 1)[0]
        codes = tuple(
            c.strip().upper()
            for c in code_part.replace(",", " ").split()
            if c.strip()
        )
        found[tok.start[0]] = Suppression(tok.start[0], codes, justified)
    return found


def _apply_suppressions(
    violations: List[Violation],
    suppressions: Dict[int, Suppression],
    display: str,
) -> List[Violation]:
    """Drop violations waived by a well-formed noqa on their line; report
    malformed or code-less noqa comments as RPR000."""
    kept: List[Violation] = []
    used: Set[int] = set()
    for v in violations:
        sup = suppressions.get(v.line)
        if sup is not None and sup.justified and v.code in sup.codes:
            used.add(sup.line)
            continue
        kept.append(v)
    for line, sup in sorted(suppressions.items()):
        if not sup.codes:
            kept.append(
                Violation(
                    display, line, 0, BAD_NOQA,
                    "repro: noqa must name the codes it waives "
                    "(e.g. '# repro: noqa RPR004 -- reason')",
                )
            )
        elif not sup.justified:
            kept.append(
                Violation(
                    display, line, 0, BAD_NOQA,
                    "repro: noqa needs a justification after '--' "
                    f"(waives {', '.join(sup.codes)})",
                )
            )
    kept.sort(key=lambda v: (v.line, v.col, v.code))
    return kept


def lint_source(
    source: str, path: Path, display: str | None = None
) -> List[Violation]:
    """Lint one file's source text (the unit-test entry point)."""
    from .rules import ALL_RULES

    display = display or path.as_posix()
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return [
            Violation(
                display, exc.lineno or 1, (exc.offset or 1) - 1,
                "RPR999", f"syntax error: {exc.msg}",
            )
        ]
    ctx = FileContext(path, display, source, tree)
    violations: List[Violation] = []
    for rule in ALL_RULES:
        if not rule.applies(ctx):
            continue
        for line, col, message in rule.check(ctx):
            violations.append(Violation(display, line, col, rule.code, message))
    return _apply_suppressions(violations, parse_suppressions(source), display)


def iter_python_files(paths: Sequence[str], root: Path) -> Iterator[Path]:
    for entry in paths:
        p = (root / entry) if not Path(entry).is_absolute() else Path(entry)
        if p.is_file() and p.suffix == ".py":
            yield p
        elif p.is_dir():
            yield from sorted(p.rglob("*.py"))


def run(paths: Sequence[str], root: Path | None = None) -> List[Violation]:
    """Lint every ``.py`` file under the given paths; returns findings."""
    root = root or Path.cwd()
    violations: List[Violation] = []
    for path in iter_python_files(paths, root):
        try:
            display = path.relative_to(root).as_posix()
        except ValueError:
            display = path.as_posix()
        source = path.read_text(encoding="utf-8")
        violations.extend(lint_source(source, Path(display), display))
    return violations


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    if argv and argv[0] == "--list-rules":
        from .rules import ALL_RULES

        for rule in ALL_RULES:
            summary = (rule.__doc__ or "").strip().splitlines()[0]
            print(f"{rule.code} {rule.name}: {summary}")
        return 0
    if not argv:
        print("usage: python -m tools.lint <path> [<path> ...]", file=sys.stderr)
        return 2
    violations = run(argv)
    for v in violations:
        print(v.render())
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0
