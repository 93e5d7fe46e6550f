"""Theorem verdicts on the named fixtures, and the structural consequences
that must hold on every catalog semiring where the hypotheses do."""

import pytest

import semirings.ops as ops
from semirings import (
    DomainError,
    check_theorem,
    element_classes,
    enumerate_semirings,
    from_preset,
    is_boolean,
    is_nilpotent,
    lift_nilidempotent,
    orthogonal_complement,
    peirce_decompose,
)
from semirings.ops import (
    CONCL_BOOLEAN,
    CONCL_COMMUTATIVE,
    FACTOR_ISO_BOOL,
    FACTOR_ISO_Z2,
    GEN_IDEMPOTENTS,
    HYP_ADD_GEN_IDEM,
    HYP_NIL_IN_Z,
    HYP_ORTH_COMPLEMENTS,
    MODE_MULT,
    THEOREM_IDS,
    VERDICT_CONFIRMED,
    VERDICT_VACUOUS,
    VERDICT_VIOLATION,
)

from oracles import fixture_semirings


def clause(report_clauses, name):
    for c in report_clauses:
        if c.name == name:
            return c
    raise AssertionError(f"no clause named {name!r}")


def test_triangular_bool_main_is_vacuous(t2b):
    report = check_theorem(t2b, "main")
    assert report.verdict == VERDICT_VACUOUS
    generation, complements = report.hypotheses
    assert generation.holds
    assert not complements.holds
    assert t2b.labels[complements.witness[0]] == "[1 1;0 0]"
    assert not clause(report.conclusions, CONCL_COMMUTATIVE).holds
    assert not clause(report.conclusions, CONCL_BOOLEAN).holds


def test_boolean_main_confirmed(bool_sr):
    assert check_theorem(bool_sr, "main").verdict == VERDICT_CONFIRMED


def test_matrix_ring_additivecom_vacuous_with_exact_witness(m2z2):
    report = check_theorem(m2z2, "additivecom")
    assert report.verdict == VERDICT_VACUOUS
    assert clause(report.hypotheses, HYP_ADD_GEN_IDEM).holds
    assert clause(report.hypotheses, HYP_ORTH_COMPLEMENTS).holds
    failing = [h for h in report.hypotheses if not h.holds]
    assert [h.name for h in failing] == [HYP_NIL_IN_Z]
    assert m2z2.labels[failing[0].witness[0]] == "[0 1;0 0]"
    assert not clause(report.conclusions, CONCL_COMMUTATIVE).holds


def test_poly_quotient_mainnilid_confirmed(z2x):
    report = check_theorem(z2x, "mainnilid")
    assert report.verdict == VERDICT_CONFIRMED
    # commutative is concluded, Boolean is not part of this statement
    assert [c.name for c in report.conclusions] == [CONCL_COMMUTATIVE]
    assert not is_boolean(z2x)


def test_crt_ring_additivecom_confirmed(z3x):
    report = check_theorem(z3x, "additivecom")
    assert report.verdict == VERDICT_CONFIRMED
    assert not is_boolean(z3x)
    nontrivial = [e for e in element_classes(z3x).idempotents
                  if e not in (z3x.zero, z3x.one)]
    assert len(nontrivial) >= 2


def test_unknown_theorem_id(bool_sr):
    with pytest.raises(DomainError):
        check_theorem(bool_sr, "everything")


CLAUSE_FINDERS = ("non_idempotent_element", "noncommuting_pair", "_ungenerated",
                  "idempotent_without_orthogonal_complement",
                  "idempotent_without_nilorthogonal_complement",
                  "nilpotent_outside_center", "nilpotent_outside_v_and_z")


def test_each_clause_is_evaluated_once(monkeypatch):
    calls = []
    for name in CLAUSE_FINDERS:
        monkeypatch.setattr(
            ops, name, lambda S, *args, name=name, finder=getattr(ops, name):
            calls.append((name, args)) or finder(S, *args))
    # A fresh semiring, not a session fixture: the clause checks stay with it.
    S = from_preset("product:bool,zmod:3")
    check_theorem(S, "main")
    assert sorted(calls) == sorted([
        ("_ungenerated", (MODE_MULT, GEN_IDEMPOTENTS)),
        ("idempotent_without_orthogonal_complement", ()),
        ("noncommuting_pair", ()), ("non_idempotent_element", ())])
    for theorem in THEOREM_IDS:
        check_theorem(S, theorem)
    peirce_decompose(S)
    assert len(calls) == len(set(calls)) == 9


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_no_violation_on_fixtures(theorem):
    for name, S in fixture_semirings():
        assert check_theorem(S, theorem).verdict != VERDICT_VIOLATION


def catalog_up_to(order):
    out = []
    for n in range(2, order + 1):
        out.extend(enumerate_semirings(n))
    return out


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_no_violation_in_catalog(theorem):
    for S in catalog_up_to(4):
        assert check_theorem(S, theorem).verdict != VERDICT_VIOLATION


def semirings_where_main_hypotheses_hold():
    chosen = [S for _, S in fixture_semirings()] + catalog_up_to(4)
    return [S for S in chosen
            if all(h.holds for h in check_theorem(S, "main").hypotheses)]


def test_wedge_products_vanish_under_main_hypotheses():
    # with e idempotent, f its complement: e x f = 0 and e x = x e
    for S in semirings_where_main_hypotheses_hold():
        for e in element_classes(S).idempotents:
            witness = orthogonal_complement(S, e)
            assert witness is not None
            f = witness.f
            for x in S.elements:
                assert S.times(S.times(e, x), f) == S.zero
                assert S.times(e, x) == S.times(x, e)


def test_shifted_idempotents_keep_complements_under_main_hypotheses():
    # e + e x f is idempotent and again has an orthogonal complement
    for S in semirings_where_main_hypotheses_hold():
        for e in element_classes(S).idempotents:
            f = orthogonal_complement(S, e).f
            for x in S.elements:
                shifted = S.plus(e, S.times(S.times(e, x), f))
                assert S.times(shifted, shifted) == shifted
                assert orthogonal_complement(S, shifted) is not None


def catalog_with_central_invertible_nilpotents():
    out = []
    for S in catalog_up_to(4):
        classes = element_classes(S)
        if all(x in classes.additively_invertible and x in classes.center
               for x in classes.nilpotents):
            out.append((S, classes))
    return out


def test_every_nilidempotent_lifts_when_nilpotents_are_tame():
    candidates = catalog_with_central_invertible_nilpotents()
    assert candidates
    for S, classes in candidates:
        for g in classes.nilidempotents:
            trace = lift_nilidempotent(S, g)
            assert S.times(trace.f, trace.f) == trace.f
            assert S.plus(trace.g0, trace.correction) == trace.f
            assert trace.correction in classes.nilpotents
            for g_next, z_next, _ in trace.steps:
                assert S.times(g_next, g_next) == S.plus(g_next, z_next)


def test_lift_preserves_nilorthogonality():
    # if eg and ge are nilpotent for an idempotent e, the corrected f = g + n
    # keeps ef and fe nilpotent
    for S, classes in catalog_with_central_invertible_nilpotents():
        for g in classes.nilidempotents:
            f = lift_nilidempotent(S, g).f
            for e in classes.idempotents:
                if is_nilpotent(S, S.times(e, g)) and \
                        is_nilpotent(S, S.times(g, e)):
                    assert is_nilpotent(S, S.times(e, f))
                    assert is_nilpotent(S, S.times(f, e))


def test_peirce_factors_under_main_hypotheses():
    for S in semirings_where_main_hypotheses_hold():
        result = peirce_decompose(S)
        for classification in result.factor_classification:
            assert classification in (FACTOR_ISO_BOOL, FACTOR_ISO_Z2)
