"""Fuzzing of the semiring file format.

Any text either parses to a semiring or raises ParseError, and the plain
string tokenizer the parser uses agrees with the positioned tokenizer,
error position and message included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirings import (
    FiniteSemiring,
    from_preset,
    make_semiring,
    parse_semiring_file,
    serialize_semiring,
    zmod,
)
from semirings.fileformat import (
    ParseError,
    _split,
    _tokenize,
    parse_semiring_tables,
)

SEMIRINGS = (
    from_preset("bool"), zmod(3), from_preset("t2b"), from_preset("z2x-sq"),
    make_semiring(zmod(2).add, zmod(2).mul, 0, 1, ("[0 (a)]", "([b [c]],d)")),
)
DOCUMENTS = [serialize_semiring(S) for S in SEMIRINGS]

# The Boolean algebra of order 4 with a label that starts with '#'.  No
# table row starts with it, so no line of the document reads as a comment,
# but `make_semiring` refuses the label.
HASH_LABEL_DOCUMENT = """order 4
elements a 0 #y 1
zero 0
one 1
add
a a 1 1
a 0 #y 1
1 #y #y 1
1 1 1 1
mul
a 0 0 a
0 0 0 0
0 0 #y #y
a 0 #y 1
"""

# Pieces of lines: keywords, labels, brackets nested and unbalanced, and
# whitespace that str.split and the regular expressions must agree on.
FRAGMENTS = ["order", "elements", "zero", "one", "add", "mul", "#", "0", "1",
             "2", "-1", "1_0", "x", "1+x", "(", ")", "[", "]", "[0 0]",
             "(1+x)*x", "((a))", "[(a b) c]", "[((a)) b]", "(]", "[)", " ",
             "  ", "\t", "\x1f", "\u3000", ";", ","]

fragment_lines = st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join)
bracket_lines = st.text(" \t\x1f()[]ab;#", max_size=30)


def _grouped(inner):
    """Runs of `inner`, some wrapped in a bracket group that either closer
    ends, or none, or two closers in either order."""
    group = st.tuples(st.sampled_from("(["), inner,
                      st.sampled_from([")", "]", "", ")]", "])"])).map("".join)
    return st.lists(inner | group, max_size=3).map("".join)


# Text and whitespace in bracket groups nested several deep, often
# unbalanced.
nested_lines = st.recursive(st.text(" \tab;", max_size=3), _grouped,
                            max_leaves=8)


@st.composite
def edited_documents(draw):
    """A valid document with a few words or lines replaced, or lines
    inserted or deleted."""
    S = draw(st.sampled_from(SEMIRINGS))
    lines = serialize_semiring(S).splitlines()
    # one of the document's labels, so that tables break, or a fragment
    word = st.sampled_from(S.labels) | st.sampled_from(FRAGMENTS)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("word", "replace", "insert", "delete")))
        if edit == "insert" or k == len(lines):
            lines.insert(k, draw(fragment_lines | bracket_lines))
        elif edit == "word":
            words = lines[k].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(word)
            lines[k] = " ".join(words)
        elif edit == "replace":
            lines[k] = draw(fragment_lines | bracket_lines)
        else:
            del lines[k]
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\r\n")))


@settings(max_examples=400, deadline=None)
@given(text=st.text(max_size=80) | fragment_lines | edited_documents())
def test_any_text_parses_or_raises_parse_error(text):
    try:
        S = parse_semiring_file(text)
    except ParseError:
        return
    assert isinstance(S, FiniteSemiring)
    assert parse_semiring_file(serialize_semiring(S)) == S


@pytest.mark.parametrize("parse", (parse_semiring_tables, parse_semiring_file))
def test_a_label_starting_with_a_hash_is_a_parse_error(parse):
    with pytest.raises(ParseError) as err:
        parse(HASH_LABEL_DOCUMENT)
    assert (err.value.line, err.value.col, err.value.message) == \
        (2, 14, "label '#y' starts with '#'")


def _outcome(tokenizer, line: str):
    try:
        return tokenizer(line), None
    except ParseError as exc:
        return None, (exc.line, exc.col, exc.message)


@settings(max_examples=600, deadline=None)
@given(line=nested_lines | bracket_lines | fragment_lines,
       lineno=st.integers(1, 99))
def test_string_tokens_match_the_positioned_tokenizer(line, lineno):
    tokens, error = _outcome(lambda s: _tokenize(s, lineno), line)
    want = (None if tokens is None else [tok for tok, _ in tokens], error)
    assert _outcome(lambda s: _split(s, lineno), line) == want


def test_every_document_parses_back():
    for text in DOCUMENTS:
        assert serialize_semiring(parse_semiring_file(text)) == text
