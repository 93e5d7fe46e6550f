"""Relations between a direct product and its factors.

These are checked against `src/` itself, not against an independent
oracle: the flags, classes, isomorphisms and keys of S x T are compared
with those that the same code computes for S and T.  They hold at any
order, so CI applies `assert_flags_are_conjunctions` and
`assert_classes_are_pairs` to products of about a thousand elements,
where `tests/oracles.py` cannot reach.
"""

import pytest

from semirings import (
    canonical_form,
    direct_product,
    element_classes,
    enumerate_semirings,
    isomorphic,
)
from semirings.ops import CLAUSES, check_clause

FACTORS = [S for n in (2, 3) for S in enumerate_semirings(n)]
PAIRS = [(S, T) for S in FACTORS for T in FACTORS]

CLASS_SETS = ("idempotents", "nilpotents", "nilidempotents",
              "additively_invertible", "center", "units")
CLASS_WITNESSES = ("additive_inverse_witness", "unit_witness")


def pair_index(P, S, T) -> list[list[int]]:
    """pair[a][b]: the element (a, b) of P = direct_product(S, T), found by
    its label."""
    return [[P.index_of(f"({s},{t})") for t in T.labels] for s in S.labels]


def assert_flags_are_conjunctions(P, factors) -> None:
    """Each scan flag of the product P of `factors` holds iff it holds on
    every factor."""
    for name, (flag, _) in CLAUSES.items():
        want = all(check_clause(F, name).holds for F in factors)
        assert check_clause(P, name).holds == want, flag


def assert_classes_are_pairs(P, S, T) -> None:
    """The element classes of P = S x T are the pairs of the classes of S
    and T, with the pairs of their witnesses, and the nilpotency index of
    (a, b) is the larger of those of a and b."""
    pair = pair_index(P, S, T)
    got, left, right = element_classes(P), element_classes(S), element_classes(T)
    for field in CLASS_SETS:
        want = {pair[a][b] for a in getattr(left, field)
                for b in getattr(right, field)}
        assert set(getattr(got, field)) == want, field
    for field in CLASS_WITNESSES:
        u, v = getattr(left, field), getattr(right, field)
        assert getattr(got, field) == {pair[a][b]: pair[u[a]][v[b]]
                                       for a in u for b in v}, field
    u, v = left.nilpotency_index, right.nilpotency_index
    assert got.nilpotency_index == {pair[a][b]: max(u[a], v[b])
                                    for a in u for b in v}


def _is_isomorphism(f, A, B) -> bool:
    return (f[A.zero] == B.zero and f[A.one] == B.one
            and sorted(f) == list(B.elements)
            and all(f[A.add[a][b]] == B.add[f[a]][f[b]]
                    and f[A.mul[a][b]] == B.mul[f[a]][f[b]]
                    for a in A.elements for b in A.elements))


@pytest.mark.parametrize("S,T", PAIRS, ids=[
    f"{i}x{j}" for i in range(len(FACTORS)) for j in range(len(FACTORS))])
def test_product_relations(S, T):
    P, Q = direct_product(S, T), direct_product(T, S)
    assert_flags_are_conjunctions(P, (S, T))
    assert_classes_are_pairs(P, S, T)
    # the swap (a, b) -> (b, a) is an isomorphism S x T -> T x S
    st, ts = pair_index(P, S, T), pair_index(Q, T, S)
    swap = [0] * P.order
    for a in S.elements:
        for b in T.elements:
            swap[st[a][b]] = ts[b][a]
    assert _is_isomorphism(swap, P, Q)
    found = isomorphic(P, Q)
    assert found is not None and _is_isomorphism(found, P, Q)
    assert canonical_form(P) == canonical_form(Q)
