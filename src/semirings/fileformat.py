"""Textual semiring files.

Layout: full-line comments starting with '#'; `order N`; `elements` plus N
labels on the same line; `zero LABEL`; `one LABEL`; `add` and `mul`, each
followed by N rows of N labels.  A token is a maximal run of non-space
characters, in which a bracket group, (...) or [...], may also hold
spaces, so labels like "[1 1;0 0]" and "(1+x)*x" survive the round trip.
"""

from __future__ import annotations

import re

from .core import (
    FiniteSemiring,
    InvalidSemiringError,
    SemiringError,
    make_semiring,
    token_end,
)


_NON_SPACE = re.compile(r"\S")


class ParseError(SemiringError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


def _tokenize(line: str, lineno: int) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i = 0
    while m := _NON_SPACE.search(line, i):
        start = m.start()
        try:
            i = token_end(line, start)
        except ValueError as exc:
            pos = exc.args[0]
            raise ParseError(lineno, pos + 1, f"unbalanced {line[pos]!r}") from None
        tokens.append((line[start:i], start + 1))
    return tokens


def _logical_lines(text: str) -> list[tuple[int, list[tuple[str, int]]]]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith("#") or not line.strip():
            continue
        out.append((lineno, _tokenize(line, lineno)))
    return out


def parse_semiring_tables(text: str):
    """Parse the document structure without judging the axioms.

    Returns (add, mul, zero, one, labels) with tables as index lists.
    """
    lines = _logical_lines(text)
    pos = 0

    def next_line(what: str) -> tuple[int, list[tuple[str, int]]]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(last, 1, f"unexpected end of file, expected {what}")
        entry = lines[pos]
        pos += 1
        return entry

    lineno, toks = next_line("'order N'")
    if len(toks) != 2 or toks[0][0] != "order":
        raise ParseError(lineno, toks[0][1] if toks else 1, "expected 'order N'")
    try:
        order = int(toks[1][0])
    except ValueError:
        raise ParseError(lineno, toks[1][1], f"bad order {toks[1][0]!r}") from None
    if order < 1:
        raise ParseError(lineno, toks[1][1], "order must be positive")

    lineno, toks = next_line("'elements ...'")
    if not toks or toks[0][0] != "elements":
        raise ParseError(lineno, toks[0][1] if toks else 1, "expected 'elements'")
    if len(toks) != order + 1:
        raise ParseError(lineno, toks[0][1],
                         f"expected {order} labels, found {len(toks) - 1}")
    labels = []
    index: dict[str, int] = {}
    for tok, col in toks[1:]:
        if tok in index:
            raise ParseError(lineno, col, f"duplicate label {tok!r}")
        index[tok] = len(labels)
        labels.append(tok)

    def lookup(tok: str, lineno: int, col: int) -> int:
        if tok not in index:
            raise ParseError(lineno, col, f"unknown label {tok!r}")
        return index[tok]

    def named_element(keyword: str) -> int:
        lineno, toks = next_line(f"'{keyword} LABEL'")
        if len(toks) != 2 or toks[0][0] != keyword:
            raise ParseError(lineno, toks[0][1] if toks else 1,
                             f"expected '{keyword} LABEL'")
        return lookup(toks[1][0], lineno, toks[1][1])

    zero = named_element("zero")
    one = named_element("one")

    def table(keyword: str) -> list[list[int]]:
        lineno, toks = next_line(f"'{keyword}'")
        if len(toks) != 1 or toks[0][0] != keyword:
            raise ParseError(lineno, toks[0][1] if toks else 1,
                             f"expected '{keyword}'")
        rows = []
        for _ in range(order):
            lineno, toks = next_line(f"a row of the {keyword} table")
            if len(toks) != order:
                raise ParseError(lineno, toks[0][1] if toks else 1,
                                 f"expected {order} entries, found {len(toks)}")
            rows.append([lookup(tok, lineno, col) for tok, col in toks])
        return rows

    add = table("add")
    mul = table("mul")
    if pos != len(lines):
        lineno, toks = lines[pos]
        raise ParseError(lineno, toks[0][1] if toks else 1, "trailing content")
    return add, mul, zero, one, tuple(labels)


def parse_semiring_file(text: str) -> FiniteSemiring:
    """Parse and validate; axiom failures become positioned errors."""
    add, mul, zero, one, labels = parse_semiring_tables(text)
    try:
        return make_semiring(add, mul, zero, one, labels)
    except InvalidSemiringError as exc:
        first = exc.report.violations[0]
        witness = ", ".join(labels[i] for i in first.witness)
        err = ParseError(1, 1, f"axioms violated: {first.axiom} "
                               f"at witness ({witness})")
        err.report = exc.report
        raise err from exc


def serialize_semiring(S: FiniteSemiring, comment: str | None = None) -> str:
    """Document that parse_semiring_file maps back to S exactly."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}" if part else "#")
    lines.append(f"order {S.order}")
    lines.append("elements " + " ".join(S.labels))
    lines.append(f"zero {S.labels[S.zero]}")
    lines.append(f"one {S.labels[S.one]}")
    for keyword, tbl in (("add", S.add), ("mul", S.mul)):
        lines.append(keyword)
        for row in tbl:
            lines.append(" ".join(S.labels[v] for v in row))
    return "\n".join(lines) + "\n"
