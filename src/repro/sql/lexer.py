"""SQL tokenizer for the subset the paper's queries use."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import SqlError

KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "as",
    "and", "or", "not", "in", "between", "join", "inner", "on", "union",
    "intersect", "except", "all", "count", "sum", "avg", "min", "max",
    "extract", "year", "month", "sqrt", "abs", "floor", "asc", "desc", "order",
    "limit",
}

#: Lineage-consuming table functions (paper Section 2.1): ``Lb(result,
#: relation)`` and ``Lf(relation, result)``.  Deliberately *not* keywords —
#: they only act as functions in FROM position when followed by ``(``, so
#: tables or columns named ``lb``/``lf`` keep working.
LINEAGE_TABLE_FUNCS = {"lb", "lf"}


def quote_identifier(name: str) -> str:
    """``name`` as a double-quoted identifier, which lexes as one ident
    token whatever it spells (a keyword, ``my col``, ``a"b``)."""
    return '"' + name.replace('"', '""') + '"'


def read_quoted(text: str, start: int) -> Tuple[Optional[str], int]:
    """The body of the quoted token opening at ``text[start]`` (a doubled
    quote character is one escaped quote) and the index just past its
    closing quote; ``(None, len(text))`` when it is never closed."""
    quote = text[start]
    parts = []
    j = start + 1
    while True:
        k = text.find(quote, j)
        if k < 0:
            return None, len(text)
        parts.append(text[j:k])
        if not text.startswith(quote, k + 1):
            return "".join(parts), k + 1
        parts.append(quote)
        j = k + 2


_PUNCT = {
    "<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*", "+", "-",
    "/", ".", ";",
}


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'keyword', 'int', 'float', 'string', 'param', 'punct', 'eof'
    value: str
    position: int
    quoted: bool = False  # a "double-quoted" ident: never a table function

    def is_kw(self, *names: str) -> bool:
        return self.kind == "keyword" and self.value in names

    def is_punct(self, *values: str) -> bool:
        return self.kind == "punct" and self.value in values

    def is_lineage_func(self) -> bool:
        return (
            self.kind == "ident"
            and not self.quoted
            and self.value.lower() in LINEAGE_TABLE_FUNCS
        )


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i : i + 2] == "--":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            value, end = read_quoted(text, i)
            if value is None:
                raise SqlError("unterminated string literal", i)
            tokens.append(Token("string", value, i))
            i = end
            continue
        if ch == '"':
            value, end = read_quoted(text, i)
            if value is None:
                raise SqlError("unterminated quoted identifier", i)
            if not value:
                raise SqlError("empty quoted identifier", i)
            tokens.append(Token("ident", value, i, quoted=True))
            i = end
            continue
        if ch == ":":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise SqlError("empty parameter name after ':'", i)
            tokens.append(Token("param", text[i + 1 : j], i))
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit is punctuation (t.col).
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            literal = text[i:j]
            kind = "float" if "." in literal else "int"
            tokens.append(Token(kind, literal, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, i))
            else:
                tokens.append(Token("ident", word, i))
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT:
            tokens.append(Token("punct", two, i))
            i += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        raise SqlError(f"unexpected character {ch!r}", i)
    tokens.append(Token("eof", "", n))
    return tokens
