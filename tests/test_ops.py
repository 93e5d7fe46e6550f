import functools
import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirings import (
    DomainError,
    ElementSet,
    add_closure,
    direct_product,
    element_classes,
    enumerate_semirings,
    from_preset,
    is_nilpotent,
    isomorphic,
    lift_nilidempotent,
    mult_closure,
    nilorthogonal_complement,
    nilorthogonal_complements,
    orthogonal_complement,
    orthogonal_decompositions,
    generation_certificate,
    invert_unipotent,
    peirce_decompose,
    reindex,
    zmod,
)
from semirings.ops import (
    FACTOR_ISO_BOOL,
    FACTOR_NO_NONTRIVIAL_IDEMPOTENTS,
    GEN_IDEMPOTENTS,
    MODE_ADD,
    MODE_MULT,
)

from oracles import (
    closure_by_sets,
    doubled_one_semiring,
    fixture_semirings,
    isomorphism_brute,
    max_min_chain_semiring,
)

FIXTURES = fixture_semirings()


def idem_set(S) -> ElementSet:
    return element_classes(S).idempotents


# ----------------------------------------------------------------- closures

def test_mult_closure_triangular_bool_reaches_everything(t2b):
    assert list(mult_closure(t2b, idem_set(t2b))) == list(t2b.elements)


def test_mult_closure_idempotents_of_crt_ring_stays_small(z3x):
    closed = mult_closure(z3x, idem_set(z3x))
    assert closure_by_sets(z3x, idem_set(z3x), "mul") == frozenset(closed)
    assert sorted(z3x.labels[e] for e in closed) == \
        sorted(["0", "1", "2+x", "2+2x"])
    assert len(closed) == 4  # in particular, not all 9


@pytest.mark.parametrize("name,S", FIXTURES)
def test_closure_of_full_set_is_identity(name, S):
    full = ElementSet.full(S.order)
    assert mult_closure(S, full) == full
    assert add_closure(S, full) == full


def test_add_closure_matrix_ring_reaches_everything(m2z2):
    assert len(add_closure(m2z2, idem_set(m2z2))) == 16


def test_add_closure_triangular_bool_misses_strict_upper(t2b):
    closed = add_closure(t2b, idem_set(t2b))
    assert closure_by_sets(t2b, idem_set(t2b), "add") == frozenset(closed)
    assert closed == idem_set(t2b)


def test_add_closure_of_zero_alone(t2b):
    assert list(add_closure(t2b, ElementSet.of([t2b.zero], t2b.order))) == \
        [t2b.zero]


def test_closure_rejects_empty_generators(bool_sr):
    with pytest.raises(DomainError):
        mult_closure(bool_sr, ElementSet.empty(bool_sr.order))


def test_closure_rejects_a_set_over_another_carrier(bool_sr):
    with pytest.raises(DomainError) as err:
        mult_closure(bool_sr, ElementSet.of([0], 3))
    assert str(err.value) == "generator set indexes a different carrier"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_laws_on_random_subsets(data):
    name, S = data.draw(st.sampled_from(FIXTURES))
    members = data.draw(st.sets(st.integers(0, S.order - 1), min_size=1))
    G = ElementSet.of(members, S.order)
    extra = data.draw(st.sets(st.integers(0, S.order - 1)))
    H = G.union(ElementSet.of(extra, S.order))
    for closure in (mult_closure, add_closure):
        closed = closure(S, G)
        assert G.issubset(closed)
        assert closure(S, closed) == closed
        assert closed.issubset(closure(S, H))
        assert frozenset(closed) == closure_by_sets(
            S, G, "mul" if closure is mult_closure else "add")


# ------------------------------------------------------------- generation

def test_generation_triangular_bool_multiplicative(t2b):
    cert = generation_certificate(t2b, MODE_MULT, GEN_IDEMPOTENTS)
    assert cert.generated
    a = t2b.index_of("[0 1;0 0]")
    assert len(cert.expressions[a]) == 2
    assert t2b.product(cert.expressions[a]) == a


def test_generation_triangular_bool_additive_uncovered(t2b):
    cert = generation_certificate(t2b, MODE_ADD, GEN_IDEMPOTENTS)
    assert not cert.generated
    assert [t2b.labels[e] for e in cert.uncovered] == ["[0 1;0 0]"]


def test_generation_boolean_trivial(bool_sr):
    for mode in (MODE_MULT, MODE_ADD):
        assert generation_certificate(bool_sr, mode, GEN_IDEMPOTENTS).generated


@pytest.mark.parametrize("name,S", FIXTURES)
@pytest.mark.parametrize("mode", (MODE_MULT, MODE_ADD))
def test_generation_expressions_reevaluate(name, S, mode):
    cert = generation_certificate(S, mode, GEN_IDEMPOTENTS)
    rebuild = S.product if mode == MODE_MULT else S.sum
    for element, expr in cert.expressions.items():
        assert rebuild(expr) == element
    assert cert.generated == (len(cert.expressions) == S.order)


def test_generation_rejects_unknown_mode(bool_sr):
    with pytest.raises(DomainError):
        generation_certificate(bool_sr, "sideways", GEN_IDEMPOTENTS)


def test_generation_rejects_unknown_generator_class(bool_sr):
    with pytest.raises(DomainError) as err:
        generation_certificate(bool_sr, MODE_MULT, "units")
    assert str(err.value) == "unknown generator class 'units'"


# ------------------------------------------------------------ complements

def test_orthogonal_complement_absent_for_top_row(t2b):
    assert orthogonal_complement(t2b, t2b.index_of("[1 1;0 0]")) is None


@pytest.mark.parametrize("name,S", FIXTURES)
def test_orthogonal_complement_of_one_is_zero(name, S):
    witness = orthogonal_complement(S, S.one)
    assert witness is not None and witness.f == S.zero


def test_orthogonal_complement_diagonal_unit(t2b):
    witness = orthogonal_complement(t2b, t2b.index_of("[1 0;0 0]"))
    assert witness is not None
    assert t2b.labels[witness.f] == "[0 0;0 1]"


def test_orthogonal_complement_rejects_non_idempotent(t2b):
    with pytest.raises(DomainError):
        orthogonal_complement(t2b, t2b.index_of("[0 1;0 0]"))


def test_nilorthogonal_complement_top_row(t2b):
    e = t2b.index_of("[1 1;0 0]")
    witness = nilorthogonal_complement(t2b, e)
    assert witness is not None
    everything = nilorthogonal_complements(t2b, e)
    assert witness == everything[0]
    pairs = {(t2b.labels[w.f], t2b.labels[w.x]) for w in everything}
    assert ("[0 1;0 1]", "[0 1;0 0]") in pairs
    # every enumerated witness satisfies the defining equations
    classes = element_classes(t2b)
    for w in everything:
        assert w.f in classes.nilidempotents
        assert w.x in classes.nilpotents
        assert t2b.plus(e, w.f) == t2b.plus(t2b.one, w.x)
        assert t2b.times(e, w.f) in classes.nilpotents
        assert t2b.times(w.f, e) in classes.nilpotents


@pytest.mark.parametrize("name,S", FIXTURES)
def test_nilorthogonal_complement_of_one(name, S):
    witness = nilorthogonal_complement(S, S.one)
    assert witness is not None
    assert witness.f == S.zero and witness.x == S.zero


def test_nilorthogonal_complement_of_zero(z2x):
    witness = nilorthogonal_complement(z2x, z2x.zero)
    assert witness is not None
    assert witness.f == z2x.one and witness.x == z2x.zero


# ----------------------------------------------------------- decompositions

def test_decompositions_of_one_in_crt_ring(z3x):
    decomps = orthogonal_decompositions(z3x, z3x.one, 2)
    rendered = [tuple(z3x.labels[e] for e in d) for d in decomps]
    assert ("1",) in rendered
    assert ("2+x", "2+2x") in rendered
    assert len(decomps) == 2


@pytest.mark.parametrize("name,S", FIXTURES)
def test_decompositions_of_zero_are_empty(name, S):
    assert orthogonal_decompositions(S, S.zero, 3) == []


def test_decompositions_of_identity_matrix(t2b):
    decomps = orthogonal_decompositions(t2b, t2b.one, 2)
    rendered = [tuple(t2b.labels[e] for e in d) for d in decomps]
    assert ("[1 0;0 0]", "[0 0;0 1]") in rendered


def test_decompositions_stop_at_the_idempotent_count():
    # longer sets of distinct nonzero idempotents do not exist
    assert orthogonal_decompositions(zmod(6), 1, 10**9) == [(1,), (3, 4)]


def test_decompositions_reject_a_max_len_below_one(z3x):
    with pytest.raises(DomainError) as err:
        orthogonal_decompositions(z3x, z3x.one, 0)
    assert str(err.value) == "max_len must be at least 1"


def test_decompositions_members_verify(z3x):
    for d in orthogonal_decompositions(z3x, z3x.one, 3):
        assert z3x.sum(d) == z3x.one
        for i, u in enumerate(d):
            assert z3x.times(u, u) == u and u != z3x.zero
            for v in d[i + 1:]:
                assert z3x.times(u, v) == z3x.zero


# ----------------------------------------------------------------- lifting

def test_lift_unipotent_nilidempotent(z2x):
    trace = lift_nilidempotent(z2x, z2x.index_of("1+x"))
    assert z2x.labels[trace.f] == "1"
    assert z2x.labels[trace.correction] == "x"
    assert trace.iterations == 1


def test_lift_nilpotent_nilidempotent(z2x):
    trace = lift_nilidempotent(z2x, z2x.index_of("x"))
    assert trace.f == z2x.zero
    assert z2x.labels[trace.correction] == "x"


@pytest.mark.parametrize("name,S", FIXTURES)
def test_lift_of_idempotent_is_itself(name, S):
    for e in element_classes(S).idempotents:
        trace = lift_nilidempotent(S, e)
        assert trace.f == e
        assert trace.correction == S.zero
        assert trace.iterations == 0


def test_lift_trace_invariants(z2x, z4):
    for S in (z2x, z4):
        for g in element_classes(S).nilidempotents:
            trace = lift_nilidempotent(S, g)
            assert S.times(trace.f, trace.f) == trace.f
            assert S.plus(trace.g0, trace.correction) == trace.f
            assert is_nilpotent(S, trace.correction)
            gk, zk = trace.g0, trace.z0
            assert S.times(gk, gk) == S.plus(gk, zk)
            for g_next, z_next, _ in trace.steps:
                assert S.times(g_next, g_next) == S.plus(g_next, z_next)


def test_lift_rejects_non_nilidempotent(t2b):
    with pytest.raises(DomainError):
        lift_nilidempotent(t2b, t2b.index_of("[0 1;0 0]"))


def test_lift_rejects_noncentral_defect(m2z2):
    # E12 squares to zero = E12 + E12, but its only defect is not central
    with pytest.raises(DomainError):
        lift_nilidempotent(m2z2, m2z2.index_of("[0 1;0 0]"))


# ---------------------------------------------------------------- inversion

def test_invert_in_poly_quotient(z2x):
    x = z2x.index_of("x")
    assert z2x.labels[invert_unipotent(z2x, x)] == "1+x"


@pytest.mark.parametrize("name,S", FIXTURES)
def test_invert_zero_gives_one(name, S):
    assert invert_unipotent(S, S.zero) == S.one


def test_invert_in_zmod4(z4):
    assert invert_unipotent(z4, 2) == 3


@pytest.mark.parametrize("modulus,x,inverse",
                         [(8, 2, 3), (16, 2, 11), (27, 3, 7), (32, 2, 11)])
def test_invert_telescopes_over_several_factors(modulus, x, inverse):
    S = zmod(modulus)
    assert element_classes(S).nilpotency_index[x] >= 3
    u = S.plus(S.one, x)
    two_sided = [v for v in S.elements
                 if S.times(u, v) == S.one and S.times(v, u) == S.one]
    assert two_sided == [inverse]
    assert invert_unipotent(S, x) == inverse


def test_invert_postcondition_everywhere():
    for name, S in FIXTURES:
        classes = element_classes(S)
        for x in classes.nilpotents:
            if x not in classes.additively_invertible:
                continue
            y = invert_unipotent(S, x)
            u = S.plus(S.one, x)
            assert S.times(u, y) == S.one and S.times(y, u) == S.one


def test_invert_rejects_bad_inputs(t2b, bool_sr):
    with pytest.raises(DomainError):
        invert_unipotent(bool_sr, 1)  # not nilpotent
    with pytest.raises(DomainError):
        invert_unipotent(t2b, t2b.index_of("[0 1;0 0]"))  # not in V


# ------------------------------------------------------------------- Peirce

def test_peirce_product_of_booleans(bool_sr):
    P = direct_product(bool_sr, bool_sr)
    result = peirce_decompose(P)
    assert len(result.factors) == 2
    assert set(P.labels[e] for e in result.primitives) == {"(1,0)", "(0,1)"}
    assert result.factor_classification == (FACTOR_ISO_BOOL, FACTOR_ISO_BOOL)


def test_peirce_crt_ring(z3x):
    result = peirce_decompose(z3x)
    assert [F.order for F in result.factors] == [3, 3]
    assert result.factor_classification == \
        (FACTOR_NO_NONTRIVIAL_IDEMPOTENTS,) * 2


def test_peirce_boolean_semiring(bool_sr):
    result = peirce_decompose(bool_sr)
    assert result.primitives == (1,)
    assert result.factor_classification == (FACTOR_ISO_BOOL,)


def test_peirce_factor_orders_multiply(z3x, bool_sr, z4):
    for S in (z3x, bool_sr, z4, direct_product(bool_sr, zmod(2))):
        result = peirce_decompose(S)
        total = 1
        for F in result.factors:
            total *= F.order
        assert total == S.order
        # factors never contain a nontrivial idempotent
        for F in result.factors:
            for e in F.elements:
                if F.times(e, e) == e:
                    assert e in (F.zero, F.one)


def test_peirce_rejects_noncommutative(t2b):
    with pytest.raises(DomainError) as err:
        peirce_decompose(t2b)
    assert str(err.value) == \
        "not commutative: '[1 0;0 0]' and '[0 1;0 0]' do not commute"


def test_peirce_rejects_uncomplemented_idempotent():
    chain = max_min_chain_semiring()
    with pytest.raises(DomainError) as err:
        peirce_decompose(chain)
    assert "'e'" in str(err.value)


# -------------------------------------------------------------- isomorphism

def test_boolean_not_isomorphic_to_z2(bool_sr, z2):
    assert isomorphic(bool_sr, z2) is None


@pytest.mark.parametrize("name,S", FIXTURES)
def test_identity_isomorphism(name, S):
    mapping = isomorphic(S, S)
    assert mapping is not None


def test_crt_isomorphism_witness(z3x):
    P = direct_product(zmod(3), zmod(3))
    mapping = isomorphic(z3x, P)
    assert mapping is not None
    for a in z3x.elements:
        for b in z3x.elements:
            assert mapping[z3x.plus(a, b)] == P.plus(mapping[a], mapping[b])
            assert mapping[z3x.times(a, b)] == P.times(mapping[a], mapping[b])


def test_isomorphism_survives_relabeling():
    rng = random.Random(7)
    for name, S in FIXTURES:
        rest = [e for e in S.elements if e not in (S.zero, S.one)]
        rng.shuffle(rest)
        perm = [0] * S.order
        perm[S.zero] = 0
        if S.one != S.zero:
            perm[S.one] = 1
        taken = 2 if S.one != S.zero else 1
        for i, e in enumerate(rest):
            perm[e] = taken + i
        T = reindex(S, perm)
        forward = isomorphic(S, T)
        backward = isomorphic(T, S)
        assert forward is not None and backward is not None
        # the witness is invertible, and its inverse preserves both tables
        inverse = [0] * S.order
        for a, image in enumerate(forward):
            inverse[image] = a
        for a in T.elements:
            for b in T.elements:
                assert inverse[T.plus(a, b)] == S.plus(inverse[a], inverse[b])
                assert inverse[T.times(a, b)] == S.times(inverse[a], inverse[b])


def test_isomorphism_order_mismatch(bool_sr, z4):
    assert isomorphic(bool_sr, z4) is None


def test_non_isomorphic_same_order(z4, z2x):
    # zmod(4) has a unit of additive order 4, the poly quotient does not
    assert isomorphic(z4, z2x) is None
    assert isomorphic(z2x, direct_product(zmod(2), zmod(2))) is None


def _carries(f, A, B) -> bool:
    return all(f[A.plus(a, b)] == B.plus(f[a], f[b])
               and f[A.times(a, b)] == B.times(f[a], f[b])
               for a in A.elements for b in A.elements)


def test_isomorphism_backtracks_from_a_failed_leaf():
    # In the copy 1 + 1 = 3: mapping 2 to 2 and 3 to 3 passes every check
    # made while the map grows, and only the full-table check at the leaf
    # rejects it.
    S = doubled_one_semiring()
    T = reindex(S, [0, 1, 3, 2, 4])
    for A, B in ((S, T), (T, S)):
        f = isomorphic(A, B)
        assert f == (0, 1, 3, 2, 4)
        assert _carries(f, A, B)


@functools.cache
def _catalog(order: int):
    return enumerate_semirings(order, max_order=5)


def _relabelled(S, rng):
    perm = list(S.elements)
    rng.shuffle(perm)
    return reindex(S, perm)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_isomorphism_witness_is_the_brute_force_one(order):
    rng = random.Random(order)
    for S in _catalog(order):
        T = _relabelled(S, rng)
        for A, B in ((S, T), (T, S)):
            f = isomorphic(A, B)
            assert f is not None and f == isomorphism_brute(A, B)
            assert _carries(f, A, B)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_distinct_catalog_semirings_are_not_isomorphic(order):
    rng = random.Random(order)
    copies = [_relabelled(S, rng) for S in _catalog(order)]
    for A, B in itertools.permutations(copies, 2):
        assert isomorphic(A, B) is None
        assert isomorphism_brute(A, B) is None


def test_isomorphism_witness_takes_small_blocks_first():
    # Z/3 x Z/3 has two automorphisms and blocks of several sizes, so which
    # isomorphism is the least depends on the order the elements are taken.
    P, Q = from_preset("z3x-sqm1"), from_preset("product:zmod:3,zmod:3")
    rng = random.Random(9)
    pairs = [(P, Q)] + [(S, _relabelled(S, rng)) for S in (P, Q) for _ in range(4)]
    for S, T in pairs:
        for A, B in ((S, T), (T, S)):
            assert isomorphic(A, B) == isomorphism_brute(A, B)


def test_isomorphism_search_depth_is_not_bounded_by_the_stack():
    # A search recursing once per element would need 62 more frames here;
    # large carriers such as zmod:1024 would hit the default limit.
    S = zmod(64)
    T = _relabelled(S, random.Random(3))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        f = isomorphic(S, T)
    finally:
        sys.setrecursionlimit(limit)
    assert f is not None and _carries(f, S, T)
