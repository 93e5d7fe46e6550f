"""Element classes, invariant vectors and the element-level queries
against the exhaustive oracles.

The library reads every class off the invariant vectors, which come from
one walk of each element's two orbits; `classify_brute` and
`invariant_vectors_brute` search for each fact separately.  They must
agree field for field, in the key order of every witness dict, and vector
for vector.  The queries that read the cached classes (nilpotency,
inverses, commutativity, complements, the clause finders, decompositions,
Peirce factor classes) must give the witnesses of the oracles' own scans,
and the theorem reports and scan flags built on them those of
`check_theorem_brute`.
"""

import random
from dataclasses import fields, replace
from functools import cache

import pytest

import semirings.core as core
from oracles import (
    CLAUSES_BRUTE,
    additive_inverse_by_scan,
    check_theorem_brute,
    classify_brute,
    classify_factor_brute,
    fixture_semirings,
    idempotent_without_nilorthogonal_complement_brute,
    idempotent_without_orthogonal_complement_brute,
    invariant_blocks_brute,
    invariant_vectors_brute,
    nilorthogonal_complements_brute,
    nilpotent_by_long_sweep,
    nilpotent_outside_center_brute,
    nilpotent_outside_v_and_z_brute,
    non_idempotent_element_brute,
    noncommuting_pair_brute,
    orthogonal_complement_brute,
    orthogonal_decompositions_brute,
    scan_flags_brute,
)
from semirings import (
    ClassReport,
    DomainError,
    additive_inverse,
    canonical_form,
    check_theorem,
    element_classes,
    enumerate_semirings,
    from_preset,
    is_nilpotent,
    isomorphic,
    nilpotency_index,
    reindex,
)
from semirings.census import _scan_entry
from semirings.ops import (
    THEOREM_IDS,
    _classify_factor,
    idempotent_without_nilorthogonal_complement,
    idempotent_without_orthogonal_complement,
    invariant_vectors,
    nilpotent_outside_center,
    nilpotent_outside_v_and_z,
    nilorthogonal_complements,
    non_idempotent_element,
    noncommuting_pair,
    orthogonal_complement,
    orthogonal_decompositions,
)

# The presets of the build and canon benchmark workloads.
BUILD_PRESETS = ("matrix:zmod:3,2", "triangular:bool,3", "zmod:64", "zmod:100",
                 "zmod:128", "product:t2b,zmod:4", "product:m2z2,bool",
                 "triangular:zmod:3,2")
CANON_PRESETS = ("m2z2", "product:t2b,zmod:2", "product:z3x-sqm1,bool",
                 "product:zmod:4,zmod:4", "product:z2x-sq,z2x-sq")
CATALOG = tuple(f"catalog:{order}:{i}" for order in range(1, 5)
                for i in range(len(enumerate_semirings(order))))
QUERY_CASES = CATALOG + BUILD_PRESETS + CANON_PRESETS
CASES = QUERY_CASES + ("zmod:8", "zmod:12")


@cache
def _semiring(name: str):
    if name.startswith("catalog:"):
        _, order, i = name.split(":")
        return enumerate_semirings(int(order))[int(i)]
    return from_preset(name)


def _variants(S):
    """S itself and three seeded relabelings of it, each a fresh object."""
    yield S
    for seed in range(3):
        perm = list(S.elements)
        random.Random(seed).shuffle(perm)
        yield reindex(S, perm)


def _assert_classes_and_vectors_match(S):
    got, want = element_classes(S), classify_brute(S)
    for field in fields(ClassReport):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert g == w, field.name
        if isinstance(w, dict):
            assert list(g) == list(w), field.name
    # repr tells True from 1, so the vectors are equal entry for entry
    assert repr(invariant_vectors(S)) == repr(invariant_vectors_brute(S))


@pytest.mark.parametrize("name", CASES)
def test_classes_and_vectors_match_the_oracle(name):
    for S in _variants(_semiring(name)):
        _assert_classes_and_vectors_match(S)


@pytest.mark.parametrize("name", CASES)
def test_classes_match_the_oracle_after_the_vectors(name):
    # the vectors come first; classifying later reads them
    for S in _variants(replace(_semiring(name))):
        vectors = invariant_vectors(S)
        assert repr(vectors) == repr(invariant_vectors_brute(S))
        _assert_classes_and_vectors_match(S)


def test_order_5_catalog_classes_and_vectors_match_the_oracle():
    for S in enumerate_semirings(5, 5):
        _assert_classes_and_vectors_match(S)


@pytest.mark.parametrize("source", ("fixtures", 1, 2, 3, 4, 5))
def test_blocks_match_the_oracle(source):
    semirings = ([S for _, S in fixture_semirings()] if source == "fixtures"
                 else enumerate_semirings(source, source))
    for S in semirings:
        for T in _variants(S):
            # repr tells True from 1, so the vectors are equal entry for entry
            assert repr(T._blocks) == repr(invariant_blocks_brute(T))


def _counted(monkeypatch, name):
    """Patch core's function `name` to record each semiring it is given."""
    calls = []
    function = getattr(core, name)
    monkeypatch.setattr(core, name, lambda S: calls.append(S) or function(S))
    return calls


def test_invariant_vectors_are_computed_once(monkeypatch):
    classified = _counted(monkeypatch, "_classify")
    walked = _counted(monkeypatch, "_orbits")
    # the key and the isomorphism search need the vectors alone, and share
    # one partition of them into blocks
    S = from_preset("product:t2b,zmod:2")
    canonical_form(S)
    blocks = S._blocks
    R = reindex(S, reversed(S.elements))
    for _ in range(3):
        assert isomorphic(S, S) is not None
        assert isomorphic(S, R) is not None and isomorphic(R, S) is not None
    invariant_vectors(S)
    assert S._blocks is blocks
    assert classified == [] and list(map(id, walked)) == [id(S), id(R)]
    # the class report reads the same vectors: S is not walked again
    assert element_classes(S) == classify_brute(S)
    assert classified == [S] and list(map(id, walked)) == [id(S), id(R)]
    # classifying first walks the orbits once for both
    T = from_preset("product:t2b,zmod:2")
    element_classes(T)
    invariant_vectors(T)
    canonical_form(T)
    assert isomorphic(T, T) is not None
    assert len(classified) == 2 and classified[1] is T
    assert len(walked) == 3 and walked[2] is T


def test_invariant_vectors_are_a_fresh_list():
    S = from_preset("zmod:6")
    invariant_vectors(S).clear()
    assert len(invariant_vectors(S)) == 6


@pytest.mark.parametrize("name", QUERY_CASES)
def test_element_queries_match_the_oracle_scans(name):
    for S in _variants(_semiring(name)):
        for a in S.elements:
            k = nilpotent_by_long_sweep(S, a)
            assert nilpotency_index(S, a) == k
            assert is_nilpotent(S, a) == (k is not None)
            assert additive_inverse(S, a) == additive_inverse_by_scan(S, a)
        assert noncommuting_pair(S) == noncommuting_pair_brute(S)
        assert non_idempotent_element(S) == non_idempotent_element_brute(S)
        assert idempotent_without_orthogonal_complement(S) == \
            idempotent_without_orthogonal_complement_brute(S)
        assert idempotent_without_nilorthogonal_complement(S) == \
            idempotent_without_nilorthogonal_complement_brute(S)
        assert nilpotent_outside_center(S) == nilpotent_outside_center_brute(S)
        assert nilpotent_outside_v_and_z(S) == nilpotent_outside_v_and_z_brute(S)
        assert _classify_factor(S) == classify_factor_brute(S)
        for e in S.elements:
            if S.times(e, e) != e:
                with pytest.raises(DomainError):
                    orthogonal_complement(S, e)
                continue
            witness = orthogonal_complement(S, e)
            f = orthogonal_complement_brute(S, e)
            assert (None if witness is None else witness.f) == f
            assert [(w.f, w.x) for w in nilorthogonal_complements(S, e)] == \
                nilorthogonal_complements_brute(S, e)


@pytest.mark.parametrize("name", QUERY_CASES)
def test_orthogonal_decompositions_match_the_subset_search(name):
    for S in _variants(_semiring(name)):
        for max_len in range(1, 5):
            want = orthogonal_decompositions_brute(S, max_len)
            for b in S.elements:
                assert orthogonal_decompositions(S, b, max_len) == want[b]


@pytest.mark.parametrize("name", QUERY_CASES)
def test_theorem_reports_and_scan_flags_match_the_oracle(name):
    for S in _variants(_semiring(name)):
        entry, _ = _scan_entry("", S, THEOREM_IDS)
        assert tuple(entry.flags) == tuple(CLAUSES_BRUTE)
        assert entry.flags == scan_flags_brute(S)
        for theorem in THEOREM_IDS:
            want = check_theorem_brute(S, theorem)
            assert check_theorem(S, theorem) == want
            assert entry.verdicts[theorem] == want.verdict
