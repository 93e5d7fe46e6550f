"""Textual semiring files.

Layout: full-line comments starting with '#'; `order N`; `elements` plus N
labels on the same line; `zero LABEL`; `one LABEL`; `add` and `mul`, each
followed by N rows of N labels.  A token is a maximal run of non-space
characters, in which a bracket group, (...) or [...], may also hold
spaces, so labels like "[1 1;0 0]" and "(1+x)*x" survive the round trip.

The parser splits each line into plain strings, by `str.split` when it has
no bracket and by one regular expression when its groups nest at most two
deep, and maps each table row through the label dict in one call.  The
positioned tokenizer `_tokenize` splits every other line, and gives the
column of an error, so errors read the same whichever way a line is split.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .core import (
    FiniteSemiring,
    InvalidSemiringError,
    SemiringError,
    ascii_int,
    make_semiring,
    token_end,
)


_NON_SPACE = re.compile(r"\S")
_BRACKET = re.compile(r"[()\[\]]")


# A token whose bracket groups nest at most two deep.  Each alternative
# starts with a different kind of character and a group's content holds no
# bracket outside its inner groups, so a match is the maximal run.
_INNER_GROUP = r"\([^()\[\]]*\)|\[[^()\[\]]*\]"
_GROUP = (rf"\((?:[^()\[\]]|{_INNER_GROUP})*\)"
          rf"|\[(?:[^()\[\]]|{_INNER_GROUP})*\]")
_TOKEN = re.compile(rf"(?:[^\s()\[\]]|{_GROUP})+")


class ParseError(SemiringError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


def _tokenize(line: str, lineno: int) -> list[tuple[str, int]]:
    """The tokens of a line with their 1-based columns, by `token_end`;
    raises ParseError at an unbalanced bracket."""
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


def _split(line: str, lineno: int) -> list[str]:
    """The tokens `_tokenize` finds, as plain strings: by `str.split` on a
    line without brackets, by one regular expression on a line that is all
    tokens of the common shapes, else by `_tokenize` itself."""
    if _BRACKET.search(line) is None:
        return line.split()
    tokens = _TOKEN.findall(line)
    # findall skips what no token covers (a stray or mismatched bracket, a
    # group nested too deep), so the tokens are the whole line iff, with
    # whitespace dropped from both, they spell it
    if "".join("".join(tokens).split()) == "".join(line.split()):
        return tokens
    return [tok for tok, _ in _tokenize(line, lineno)]


class _Line(NamedTuple):
    """A line that is not blank or a comment, with its plain tokens."""

    lineno: int
    text: str
    tokens: list[str]

    def col(self, k: int = 0) -> int:
        """Column of token k, or 1 if there is none.  Columns serve only
        error messages, so the positioned tokenizer finds them then."""
        return _tokenize(self.text, self.lineno)[k][1] if self.tokens else 1


def _logical_lines(text: str) -> list[_Line]:
    """Every line that is not blank or a comment, each tokenized before
    any is judged."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith("#") or not line.strip():
            continue
        out.append(_Line(lineno, line, _split(line, lineno)))
    return out


def parse_semiring_tables(text: str):
    """Parse the document structure without judging the axioms.

    Returns (add, mul, zero, one, labels) with tables as index lists.
    Each line is split into plain tokens and each table row is mapped
    through the label dict in one call; the positioned tokenizer runs again
    only on the line an error is reported on, for the column.
    """
    lines = _logical_lines(text)
    pos = 0

    def next_line(what: str) -> _Line:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1].lineno if lines else 1
            raise ParseError(last, 1, f"unexpected end of file, expected {what}")
        pos += 1
        return lines[pos - 1]

    line = next_line("'order N'")
    toks = line.tokens
    if len(toks) != 2 or toks[0] != "order":
        raise ParseError(line.lineno, line.col(), "expected 'order N'")
    try:
        order = ascii_int(toks[1])
    except ValueError:
        raise ParseError(line.lineno, line.col(1),
                         f"bad order {toks[1]!r}") from None
    if order < 1:
        raise ParseError(line.lineno, line.col(1), "order must be positive")

    line = next_line("'elements ...'")
    toks = line.tokens
    if not toks or toks[0] != "elements":
        raise ParseError(line.lineno, line.col(), "expected 'elements'")
    if len(toks) != order + 1:
        raise ParseError(line.lineno, line.col(),
                         f"expected {order} labels, found {len(toks) - 1}")
    labels = toks[1:]
    index: dict[str, int] = {}
    for k, tok in enumerate(labels, start=1):
        if tok in index:
            raise ParseError(line.lineno, line.col(k), f"duplicate label {tok!r}")
        if tok.startswith("#"):  # as a row's first label, it starts a comment
            raise ParseError(line.lineno, line.col(k), f"label {tok!r} starts with '#'")
        index[tok] = k - 1

    def indices(line: _Line, start: int = 0) -> list[int]:
        """The labels of a line from token `start` on, as indices."""
        toks = line.tokens[start:]
        try:
            return list(map(index.__getitem__, toks))
        except KeyError as exc:
            tok = exc.args[0]
            raise ParseError(line.lineno, line.col(start + toks.index(tok)),
                             f"unknown label {tok!r}") from None

    def named_element(keyword: str) -> int:
        line = next_line(f"'{keyword} LABEL'")
        if len(line.tokens) != 2 or line.tokens[0] != keyword:
            raise ParseError(line.lineno, line.col(),
                             f"expected '{keyword} LABEL'")
        return indices(line, 1)[0]

    zero = named_element("zero")
    one = named_element("one")

    def table(keyword: str) -> list[list[int]]:
        line = next_line(f"'{keyword}'")
        if line.tokens != [keyword]:
            raise ParseError(line.lineno, line.col(), f"expected '{keyword}'")
        rows = []
        for _ in range(order):
            line = next_line(f"a row of the {keyword} table")
            if len(line.tokens) != order:
                raise ParseError(line.lineno, line.col(), f"expected {order} "
                                 f"entries, found {len(line.tokens)}")
            rows.append(indices(line))
        return rows

    add = table("add")
    mul = table("mul")
    if pos != len(lines):
        raise ParseError(lines[pos].lineno, lines[pos].col(), "trailing content")
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
