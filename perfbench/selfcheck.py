"""Gate self-check: every gate must reject a wrong output or reference.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Feeds each gate one true output, which must pass, and corrupted outputs or
wrong references, each of which must be reported as a failure.  Exits 1 if
a gate passes something it should reject, so a gate that passes everything
is caught.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import gates
import passes
import run
from semirings import (
    ElementSet,
    cli,
    element_classes,
    enumerate_semirings,
    from_preset,
    isomorphic,
    reindex,
    scan,
    validate,
)
from semirings.census import enumerate_commutative_monoids
from semirings.ops import THEOREM_IDS

results: list[tuple[str, bool]] = []


def expect(what: str, notes: list[str], should_fail: bool) -> None:
    results.append((what, bool(notes) == should_fail))


def main() -> int:
    expected = passes.EXPECTED

    report = scan(range(1, 5), THEOREM_IDS, include_trivial=True)
    tallies = expected["census"]["tallies"]
    expect("census: true report", gates.census_gate(report, tallies), False)
    wrong = json.loads(json.dumps(tallies))
    wrong["main"]["confirmed"] += 1
    expect("census: wrong tallies", gates.census_gate(report, wrong), True)
    expect("census: a violation", gates.census_gate(
        dataclasses.replace(report, violations=({"theorem": "main"},)), tallies), True)
    expect("census: a lost semiring", gates.census_gate(
        dataclasses.replace(report, counts={**report.counts, 4: 39}), tallies), True)

    monoids = {n: len(enumerate_commutative_monoids(n)) for n in range(1, 5)}
    expect("monoids: true counts",
           gates.counts_gate("monoids", monoids, gates.A058131), False)
    expect("monoids: one extra",
           gates.counts_gate("monoids", {**monoids, 4: 20}, gates.A058131), True)

    S = from_preset("t2b")
    copy = reindex(S, [3, 2, 1, 7, 6, 5, 4, 0])
    mapping = isomorphic(S, copy)
    expect("iso: true witness", gates.iso_witness_gate(S, copy, mapping), False)
    swapped = list(mapping)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    expect("iso: two images swapped", gates.iso_witness_gate(S, copy, swapped), True)
    expect("iso: not a bijection",
           gates.iso_witness_gate(S, copy, [mapping[0]] * S.order), True)
    expect("iso: no witness", gates.iso_witness_gate(S, copy, None), True)
    expect("iso-neg: None", gates.negative_gate(None), False)
    expect("iso-neg: a witness", gates.negative_gate(mapping), True)

    A, B = enumerate_semirings(3)[:2]
    key = passes.canonical_form(A)
    expect("key: equal", gates.key_gate(key, passes.canonical_form(reindex(A, [2, 0, 1]))),
           False)
    expect("key: another base's", gates.key_gate(key, passes.canonical_form(B)), True)
    expect("key: not bytes", gates.key_gate(key.hex(), key), True)

    add = [list(row) for row in S.add]
    mul = [list(row) for row in S.mul]
    mul[2][3] = (mul[2][3] + 1) % S.order
    reference = gates.reference_sweep(add, mul, S.zero, S.one)
    axiom = validate(add, mul, S.zero, S.one)
    expect("sweep: a valid table is clean",
           gates.reference_sweep(S.add, S.mul, S.zero, S.one), False)
    expect("sweep: a perturbed table is not", reference, True)
    expect("validate: true report", gates.violations_gate(axiom, reference), False)
    expect("validate: one instance dropped", gates.violations_gate(
        dataclasses.replace(axiom, violations=axiom.violations[1:]), reference), True)
    expect("validate: reference short of one",
           gates.violations_gate(axiom, reference[1:]), True)
    expect("validate: called valid", gates.violations_gate(
        dataclasses.replace(axiom, valid=True), reference), True)

    parsed = passes.parse_semiring_file(passes.serialize_semiring(S))
    expect("roundtrip: equal", gates.roundtrip_gate(S, parsed), False)
    expect("roundtrip: another semiring", gates.roundtrip_gate(S, copy), True)

    classes = element_classes(S)
    expect("classes: true report", gates.classes_gate(S, classes), False)
    for field in ("idempotents", "center", "nilpotents", "units"):
        lost = dataclasses.replace(classes, **{field: ElementSet.empty(S.order)})
        expect(f"classes: no {field}", gates.classes_gate(S, lost), True)

    argv = passes.CLI_COMMANDS["invert"] + ["--json"]
    code, doc = cli.run(argv)
    out = cli.emit_report(doc, "json")
    want = expected["cli"]["invert"]
    expect("cli: true report", gates.cli_gate(want, code, out, ""), False)
    expect("cli: wrong exit code", gates.cli_gate(want, 2, out, ""), True)
    changed = json.loads(out)
    changed["result"]["inverse"] = "1"
    expect("cli: changed result", gates.cli_gate(want, code, json.dumps(changed), ""),
           True)
    expect("cli: traceback", gates.cli_gate(
        want, code, out, "Traceback (most recent call last):\n  ValueError: x"), True)
    expect("cli: no report", gates.cli_gate(want, 1, "", ""), True)
    expect("cli: known defect, clean error", gates.cli_gate(
        expected["cli"]["malformed-zmod"], 1, json.dumps({"verdict": "error"}), ""),
        False)

    base = {"pass": 0, "failed_jobs": [], "notes": [], "keys": {"m2z2": "k1"}}
    other = dict(base, **{"pass": 1, "keys": {"m2z2": "k2"}})
    failed, unexpected, _ = run.failures([base, other], set())
    expect("keys: differ across passes", ["failed"] * unexpected, True)
    known = dict(base, failed_jobs=["cli.process:malformed-zmod"])
    failed, unexpected, _ = run.failures([known], set(expected["known_defects"]))
    expect("known defect: not unexpected", ["failed"] * unexpected, False)
    new = dict(base, failed_jobs=["cli.process:lift"])
    failed, unexpected, _ = run.failures([new], set(expected["known_defects"]))
    expect("other failure: unexpected", ["failed"] * unexpected, True)

    for what, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    missed = [what for what, ok in results if not ok]
    print(f"{len(results) - len(missed)} of {len(results)} gate checks behave")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
