"""Element classes and invariant vectors against the exhaustive oracles.

The library reads every class and both orbit profiles off one walk of
each element's two orbits; `classify_brute` and `invariant_vectors_brute`
search for each fact separately.  They must agree field for field, in
the key order of every witness dict, and vector for vector.
"""

import random
from dataclasses import fields
from functools import cache

import pytest

import semirings.core as core
from oracles import classify_brute, invariant_vectors_brute
from semirings import (
    ClassReport,
    canonical_form,
    element_classes,
    enumerate_semirings,
    from_preset,
    isomorphic,
    reindex,
)
from semirings.ops import invariant_vectors

# The presets of the build and canon benchmark workloads.
BUILD_PRESETS = ("matrix:zmod:3,2", "triangular:bool,3", "zmod:64", "zmod:100",
                 "zmod:128", "product:t2b,zmod:4", "product:m2z2,bool",
                 "triangular:zmod:3,2")
CANON_PRESETS = ("m2z2", "product:t2b,zmod:2", "product:z3x-sqm1,bool",
                 "product:zmod:4,zmod:4", "product:z2x-sq,z2x-sq")
CATALOG = tuple(f"catalog:{order}:{i}" for order in range(1, 5)
                for i in range(len(enumerate_semirings(order))))
CASES = CATALOG + BUILD_PRESETS + CANON_PRESETS + ("zmod:8", "zmod:12")


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


@pytest.mark.parametrize("name", CASES)
def test_classes_and_vectors_match_the_oracle(name):
    for S in _variants(_semiring(name)):
        got, want = element_classes(S), classify_brute(S)
        for field in fields(ClassReport):
            g, w = getattr(got, field.name), getattr(want, field.name)
            assert g == w, field.name
            if isinstance(w, dict):
                assert list(g) == list(w), field.name
        # repr tells True from 1, so the vectors are equal entry for entry
        assert repr(invariant_vectors(S)) == repr(invariant_vectors_brute(S))


def test_invariant_vectors_are_computed_once(monkeypatch):
    calls = []
    classify = core._classify
    monkeypatch.setattr(core, "_classify",
                        lambda S: calls.append(S) or classify(S))
    S = from_preset("product:t2b,zmod:2")
    element_classes(S)
    invariant_vectors(S)
    canonical_form(S)
    assert isomorphic(S, S) is not None
    assert len(calls) == 1 and calls[0] is S


def test_invariant_vectors_are_a_fresh_list():
    S = from_preset("zmod:6")
    invariant_vectors(S).clear()
    assert len(invariant_vectors(S)) == 6
