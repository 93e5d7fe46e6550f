import pytest

from semirings import (
    ElementSet,
    MalformedTableError,
    additive_inverse,
    element_classes,
    is_boolean,
    is_commutative,
    is_nilpotent,
    make_semiring,
    nilpotency_index,
    power,
    reindex,
    scalar_repeat,
    validate,
    zmod,
)
from semirings.core import DomainError

from oracles import axiom_sweep, fixture_semirings, nilpotent_by_long_sweep

FIXTURES = fixture_semirings()


# ---------------------------------------------------------------- validate

def test_validate_boolean_tables():
    report = validate(((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1)
    assert report.valid
    assert report.violations == ()


def test_validate_trivial_semiring():
    assert validate(((0,),), ((0,),), 0, 0).valid


def test_boolean_with_wrapped_addition_is_z2():
    # rewriting 1+1 to 0 in the two-element tables gives exactly zmod(2)
    report = validate(((0, 1), (1, 0)), ((0, 0), (0, 1)), 0, 1)
    assert report.valid
    S = make_semiring(((0, 1), (1, 0)), ((0, 0), (0, 1)), 0, 1)
    assert S.add == zmod(2).add and S.mul == zmod(2).mul


def test_validate_rejects_non_square():
    with pytest.raises(MalformedTableError):
        validate(((0, 1), (1,)), ((0, 0), (0, 1)), 0, 1)


def test_validate_rejects_out_of_range_entry():
    with pytest.raises(MalformedTableError):
        validate(((0, 1), (1, 7)), ((0, 0), (0, 1)), 0, 1)


def test_validate_rejects_bad_distinguished_elements():
    with pytest.raises(MalformedTableError):
        validate(((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 2)


def test_validate_reports_axiom_violation_with_witness():
    report = validate(((0, 1), (1, 1)), ((0, 0), (0, 0)), 0, 1)
    assert not report.valid
    names = {v.axiom for v in report.violations}
    assert "mul-identity" in names


def test_validate_collects_every_instance():
    # breaking commutativity in one asymmetric cell is seen from both sides
    report = validate(((0, 1, 2), (1, 2, 0), (2, 1, 1)),
                      [[0] * 3] * 3, 0, 1)
    comm = [v for v in report.violations if v.axiom == "add-commutativity"]
    assert len(comm) >= 2


@pytest.mark.parametrize("name,S", FIXTURES)
def test_axiom_sweep_on_fixtures(name, S):
    assert axiom_sweep(S) == []


def test_make_semiring_rejects_duplicate_labels():
    with pytest.raises(MalformedTableError):
        make_semiring(((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1, ("0", "0"))


# ---------------------------------------------------------- element classes

def test_classes_are_computed_once(t2b):
    assert element_classes(t2b) is element_classes(t2b)


def test_classes_triangular_bool(t2b):
    classes = element_classes(t2b)
    assert len(classes.idempotents) == 7
    non_idem = list(classes.idempotents.complement())
    assert [t2b.labels[e] for e in non_idem] == ["[0 1;0 0]"]
    assert sorted(t2b.labels[e] for e in classes.nilpotents) == \
        ["[0 0;0 0]", "[0 1;0 0]"]


def test_classes_z2_poly_quotient(z2x):
    classes = element_classes(z2x)
    assert [z2x.labels[e] for e in classes.nilpotents] == ["0", "x"]
    assert len(classes.nilidempotents) == 4  # every element, e.g. (1+x)^2 = 1
    assert [z2x.labels[e] for e in classes.idempotents] == ["0", "1"]


@pytest.mark.parametrize("name,S", FIXTURES)
def test_zero_and_one_always_idempotent(name, S):
    classes = element_classes(S)
    assert S.zero in classes.idempotents
    assert S.one in classes.idempotents
    assert S.zero in classes.nilpotents


@pytest.mark.parametrize("name,S", FIXTURES)
def test_class_subset_relations(name, S):
    classes = element_classes(S)
    assert classes.idempotents.issubset(classes.nilidempotents)
    if S.zero != S.one:
        assert not classes.units.intersection(classes.nilpotents)
    for a, b in classes.additive_inverse_witness.items():
        assert S.plus(a, b) == S.zero
    for u, v in classes.unit_witness.items():
        assert S.times(u, v) == S.one and S.times(v, u) == S.one
    for x, k in classes.nilpotency_index.items():
        assert 1 <= k <= S.order
        assert power(S, x, k) == S.zero


def test_zmod4_nilpotents(z4):
    classes = element_classes(z4)
    assert sorted(classes.nilpotents) == [0, 2]
    assert classes.nilpotency_index[2] == 2


def test_zmod2_nilpotents(z2):
    assert sorted(element_classes(z2).nilpotents) == [0]


def test_zmod1_is_trivial():
    S = zmod(1)
    assert S.order == 1 and S.zero == S.one
    assert is_boolean(S) and is_commutative(S)


# ------------------------------------------------------------- nilpotency

def test_nilpotency_of_strictly_triangular_matrix(t2b):
    a = t2b.index_of("[0 1;0 0]")
    assert nilpotency_index(t2b, a) == 2


@pytest.mark.parametrize("name,S", FIXTURES)
def test_zero_is_nilpotent_of_index_one(name, S):
    assert nilpotency_index(S, S.zero) == 1


def test_one_is_not_nilpotent_in_bool(bool_sr):
    assert not is_nilpotent(bool_sr, 1)


@pytest.mark.parametrize("name,S", FIXTURES)
def test_nilpotency_bound_agrees_with_long_sweep(name, S):
    for a in S.elements:
        assert nilpotency_index(S, a) == nilpotent_by_long_sweep(S, a)


# ------------------------------------------------------ scalar arithmetic

def test_scalar_repeat_in_bool(bool_sr):
    assert scalar_repeat(bool_sr, 2, 1) == 1


@pytest.mark.parametrize("name,S", FIXTURES)
def test_scalar_repeat_zero_is_empty_sum(name, S):
    for a in S.elements:
        assert scalar_repeat(S, 0, a) == S.zero


def test_scalar_repeat_characteristic_two(z2x):
    x = z2x.index_of("x")
    assert scalar_repeat(z2x, 2, x) == z2x.zero


def test_scalar_repeat_rejects_negative(bool_sr):
    with pytest.raises(DomainError):
        scalar_repeat(bool_sr, -1, 0)


def test_additive_inverse_examples(z2x, bool_sr):
    x = z2x.index_of("x")
    assert additive_inverse(z2x, x) == x
    assert additive_inverse(z2x, z2x.zero) == z2x.zero
    assert additive_inverse(bool_sr, 1) is None


@pytest.mark.parametrize("name,S", FIXTURES)
def test_additive_inverse_matches_class_report(name, S):
    witness = element_classes(S).additive_inverse_witness
    for a in S.elements:
        assert additive_inverse(S, a) == witness.get(a)


def test_power_examples(bool_sr, t2b):
    assert power(bool_sr, 1, 5) == 1
    a = t2b.index_of("[0 1;0 0]")
    assert power(t2b, a, 2) == t2b.zero
    for S in (bool_sr, t2b):
        for e in S.elements:
            assert power(S, e, 0) == S.one


def test_power_rejects_negative(bool_sr):
    with pytest.raises(DomainError):
        power(bool_sr, 1, -1)


# ------------------------------------------------------------- predicates

def test_boolean_predicate(bool_sr, z2, t2b):
    assert is_boolean(bool_sr)
    assert is_boolean(z2)
    assert not is_boolean(t2b)


def test_commutativity_predicate(t2b, m2z2, z3x):
    assert not is_commutative(t2b)
    assert not is_commutative(m2z2)
    assert is_commutative(z3x)


# ----------------------------------------------------------- element sets

def test_element_set_operations():
    a = ElementSet.of([0, 2], 4)
    b = ElementSet.of([1, 2], 4)
    assert list(a.union(b)) == [0, 1, 2]
    assert list(a.intersection(b)) == [2]
    assert list(a.difference(b)) == [0]
    assert list(a.complement()) == [1, 3]
    assert a.issubset(a.union(b))
    assert len(a) == 2 and 2 in a and 3 not in a


def test_element_set_carrier_mismatch():
    with pytest.raises(ValueError):
        ElementSet.of([0], 2).union(ElementSet.of([0], 3))
    with pytest.raises(ValueError):
        ElementSet.of([5], 3)


def test_reindex_is_isomorphic_copy(z2x):
    perm = [2, 0, 3, 1]
    T = reindex(z2x, perm)
    assert axiom_sweep(T) == []
    assert T.labels[perm[0]] == z2x.labels[0]
    assert T.zero == perm[z2x.zero] and T.one == perm[z2x.one]
