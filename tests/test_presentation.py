import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirings import (
    DomainError,
    boolean_semiring,
    presentation,
    zmod,
)
from semirings.presentation import parse_term

from oracles import term_tokens_brute

BXY_RELATIONS = [("x+y", "0"), ("x*y", "0"), ("y*x", "0"),
                 ("x*x", "0"), ("y*y", "0")]


def eval_in_table(S, term, images):
    if term == ("0",):
        return S.zero
    if term == ("1",):
        return S.one
    if term[0] == "g":
        return images[term[1]]
    left = eval_in_table(S, term[1], images)
    right = eval_in_table(S, term[2], images)
    return S.plus(left, right) if term[0] == "+" else S.times(left, right)


def test_bxy_presentation_collapses_generators():
    result = presentation(("x", "y"), BXY_RELATIONS, additively_idempotent=True)
    assert result.status == "finite"
    # regression answer: additive idempotency plus x+y=0 forces x = y = 0,
    # leaving exactly the two-element all-idempotent semiring
    assert dict(result.collapsed_generators) == {"x": "0", "y": "0"}
    S = result.semiring
    B = boolean_semiring()
    assert S.order == 2
    assert S.add == B.add and S.mul == B.mul


def test_bxy_relations_hold_in_output():
    result = presentation(("x", "y"), BXY_RELATIONS, additively_idempotent=True)
    S = result.semiring
    images = {name: S.index_of(image)
              for name, image in result.collapsed_generators}
    for name in ("x", "y"):
        if name not in images:
            images[name] = S.index_of(name)
    for lhs, rhs in BXY_RELATIONS:
        assert eval_in_table(S, parse_term(lhs, ("x", "y")), images) == \
            eval_in_table(S, parse_term(rhs, ("x", "y")), images)


def test_free_idempotent_generator_exceeds_any_bound():
    # 1, 1+e, 1+e+e, ... stay distinct without additive idempotency
    for bound in (8, 32, 64):
        result = presentation(("e",), [("e*e", "e")],
                              additively_idempotent=False,
                              universe_bound=bound)
        assert result.status == "exceeds-bound"
        assert result.semiring is None
        assert result.universe_bound == bound


def test_empty_presentation_with_additive_idempotency_is_boolean():
    result = presentation((), [], additively_idempotent=True)
    assert result.status == "finite"
    B = boolean_semiring()
    assert result.semiring.add == B.add and result.semiring.mul == B.mul
    assert result.collapsed_generators == ()


def test_characteristic_two_presentation():
    result = presentation((), [("1+1", "0")])
    assert result.status == "finite"
    Z2 = zmod(2)
    assert result.semiring.add == Z2.add and result.semiring.mul == Z2.mul


def test_collapse_to_trivial():
    result = presentation((), [("1", "0")], additively_idempotent=True)
    assert result.status == "finite"
    assert result.semiring.order == 1


def test_single_generator_forced_to_one():
    result = presentation(("u",), [("u", "1")], additively_idempotent=True)
    assert result.status == "finite"
    assert dict(result.collapsed_generators) == {"u": "1"}
    assert result.semiring.order == 2


def test_presentation_rejects_tiny_bound():
    with pytest.raises(DomainError):
        presentation(("x",), [], universe_bound=1)


def test_presentation_rejects_bad_generator_names():
    with pytest.raises(DomainError):
        presentation(("0",), [])
    with pytest.raises(DomainError):
        presentation(("x", "x"), [])


def test_parse_term_shapes():
    gens = ("x", "y")
    assert parse_term("x", gens) == ("g", "x")
    assert parse_term("x+y*x", gens) == \
        ("+", ("g", "x"), ("*", ("g", "y"), ("g", "x")))
    assert parse_term("(x+y)*x", gens) == \
        ("*", ("+", ("g", "x"), ("g", "y")), ("g", "x"))
    # labels render products with their sum operands in parentheses
    labels = presentation(("x",), [("x*x*x", "x")],
                          additively_idempotent=True).semiring.labels
    assert "(1+x)*x" in labels and "(1+x)*(1+x)" in labels


def test_parse_term_errors():
    with pytest.raises(DomainError):
        parse_term("x+", ("x",))
    with pytest.raises(DomainError):
        parse_term("z", ("x",))
    with pytest.raises(DomainError):
        parse_term("x)", ("x",))
    with pytest.raises(DomainError):
        parse_term("x ? y", ("x", "y"))


def test_unclosed_parenthesis_names_the_token_found():
    with pytest.raises(DomainError) as err:
        parse_term("(x y", ("x", "y"))
    assert str(err.value) == "expected ')', got 'y' in '(x y'"


def test_unicode_whitespace_separates_tokens():
    assert parse_term("x\u00a0+\u2003y", ("x", "y")) == \
        parse_term("x+y", ("x", "y"))


# letters, digits, whitespace and marks from outside ASCII, and two
# characters that no term may hold
TERM_ALPHABET = (string.ascii_letters + string.digits + "_+*() \t"
                 + "\u00a0\u2003\u00b2\u0663\u00e9\u0301?-")


@settings(max_examples=400, deadline=None)
@given(text=st.text(TERM_ALPHABET, max_size=12))
def test_parse_term_refuses_what_the_character_scan_refuses(text):
    try:
        term_tokens_brute(text)
    except ValueError as refused:
        ch = refused.args[0]
        with pytest.raises(DomainError) as err:
            parse_term(text, ("x", "y"))
        assert str(err.value) == \
            f"unexpected character {ch!r} in term {text!r}"
        return
    try:
        parse_term(text, ("x", "y"))
    except DomainError as err:
        assert "unexpected character" not in str(err)
