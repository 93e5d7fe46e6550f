"""Correctness gates of the benchmark.

Each gate takes a program output plus a reference and returns a list of
failure notes; an empty list means the output passed.  The references are
either recorded values (expected.json), known sequences, or recomputed
here from first principles without calling the code under test.  Gates
never raise on a wrong output, so a failure is counted and the run goes on.
"""

from __future__ import annotations

import hashlib
import json

# OEIS A058131: commutative monoids of order n up to isomorphism.
A058131 = {1: 1, 2: 2, 3: 5, 4: 19}

# The census counts of the paper's catalog, trivial semiring included.
CENSUS_COUNTS = {1: 1, 2: 2, 3: 6, 4: 40}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def differ(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


def census_gate(report, tallies: dict) -> list[str]:
    """scan(range(1, 5), ..., include_trivial=True) against the catalog
    counts and the verdict tallies recorded for this catalog."""
    bad = differ("census counts", dict(report.counts), CENSUS_COUNTS)
    bad += differ("verdict tallies", report.tallies, tallies)
    bad += differ("violations", report.violations, ())
    return bad


def counts_gate(what: str, counts: dict, reference: dict) -> list[str]:
    return differ(what, counts, {n: reference[n] for n in counts})


def iso_witness_gate(S, T, mapping) -> list[str]:
    """The mapping is a bijection S -> T fixing zero and one and carrying
    both tables of S onto those of T."""
    if mapping is None:
        return ["isomorphic copies reported as non-isomorphic"]
    n = S.order
    if T.order != n or sorted(mapping) != list(range(n)):
        return ["witness is not a bijection of the carrier"]
    if mapping[S.zero] != T.zero or mapping[S.one] != T.one:
        return ["witness does not fix zero and one"]
    for a in range(n):
        fa = mapping[a]
        for b in range(n):
            fb = mapping[b]
            if mapping[S.add[a][b]] != T.add[fa][fb] \
                    or mapping[S.mul[a][b]] != T.mul[fa][fb]:
                return [f"witness breaks a table at ({a},{b})"]
    return []


def negative_gate(mapping) -> list[str]:
    """Distinct catalog entries are pairwise non-isomorphic."""
    return [] if mapping is None else ["non-isomorphic pair given a witness"]


def key_gate(key, reference) -> list[str]:
    if not isinstance(key, bytes) or not key:
        return ["canonical key is not a non-empty bytes value"]
    return [] if key == reference else ["copy's key differs from its base's"]


def reference_sweep(add, mul, zero: int, one: int) -> list[tuple]:
    """Every violated axiom instance, by direct O(n^3) loops, as
    (axiom, witness) pairs; witnesses are padded with 0 to triples."""
    n = len(add)
    rng = range(n)
    bad: list[tuple] = []
    for a in rng:
        if add[zero][a] != a or add[a][zero] != a:
            bad.append(("add-identity", (a, 0, 0)))
        if mul[one][a] != a or mul[a][one] != a:
            bad.append(("mul-identity", (a, 0, 0)))
        if mul[zero][a] != zero:
            bad.append(("left-annihilation", (a, 0, 0)))
        if mul[a][zero] != zero:
            bad.append(("right-annihilation", (a, 0, 0)))
        for b in rng:
            if add[a][b] != add[b][a]:
                bad.append(("add-commutativity", (a, b, 0)))
    for a in rng:
        add_a, mul_a = add[a], mul[a]
        for b in rng:
            add_b, mul_b = add[b], mul[b]
            # (a+b)+c = a+(b+c), (ab)c = a(bc), a(b+c) = ab+ac, (a+b)c = ac+bc
            checks = (
                ("add-associativity",
                 [c for c, x in enumerate(add[add_a[b]]) if x != add_a[add_b[c]]]),
                ("mul-associativity",
                 [c for c, x in enumerate(mul[mul_a[b]]) if x != mul_a[mul_b[c]]]),
                ("left-distributivity",
                 [c for c in rng if mul_a[add_b[c]] != add[mul_a[b]][mul_a[c]]]),
                ("right-distributivity",
                 [c for c, x in enumerate(mul[add_a[b]]) if x != add[mul_a[c]][mul_b[c]]]),
            )
            for axiom, cs in checks:
                bad.extend((axiom, (a, b, c)) for c in cs)
    return bad


def violations_gate(report, reference: list[tuple]) -> list[str]:
    """validate's report lists exactly the reference sweep's instances."""
    got = sorted((v.axiom, tuple(v.witness)) for v in report.violations)
    bad = differ("valid flag", report.valid, not reference)
    if got != sorted(reference):
        bad.append(f"violation list differs: {len(got)} listed, "
                   f"{len(reference)} in the reference sweep")
    return bad


def roundtrip_gate(S, parsed) -> list[str]:
    return [] if parsed == S else ["parse(serialize(S)) != S"]


def classes_gate(S, classes) -> list[str]:
    """Idempotents, centre, nilpotents and units recomputed from the tables."""
    els = range(S.order)
    mul = S.mul

    def nilpotent(a: int) -> bool:
        x = a
        for _ in els:
            if x == S.zero:
                return True
            x = mul[x][a]
        return x == S.zero

    want = {
        "idempotents": [a for a in els if mul[a][a] == a],
        "center": [a for a in els if all(mul[a][b] == mul[b][a] for b in els)],
        "nilpotents": [a for a in els if nilpotent(a)],
        "units": [u for u in els
                  if any(mul[u][v] == S.one == mul[v][u] for v in els)],
    }
    bad = []
    for name, members in want.items():
        bad += differ(name, sorted(getattr(classes, name)), members)
    return bad


def cli_gate(expected: dict, code: int, stdout: str, stderr: str) -> list[str]:
    """A CLI process gave a report, not a traceback, with the recorded exit
    code, verdict and result block.  An expectation without a result block
    (an input documented to fail at the recorded commit) asks only for a
    clean error report: exit code 1 and verdict "error"."""
    if "Traceback (most recent call last)" in stderr:
        return ["process printed a traceback: " + stderr.strip().splitlines()[-1]]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not a JSON report"]
    if not isinstance(report, dict):
        return ["stdout is not a JSON report"]
    bad = differ("exit code", code, expected["code"])
    bad += differ("verdict", report.get("verdict"), expected["verdict"])
    if "result" in expected:
        bad += differ("result block", report.get("result"), expected["result"])
    return bad
