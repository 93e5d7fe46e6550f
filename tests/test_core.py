import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirings import (
    ElementSet,
    MalformedTableError,
    additive_inverse,
    element_classes,
    enumerate_semirings,
    from_preset,
    is_boolean,
    is_commutative,
    is_nilpotent,
    make_semiring,
    nilpotency_index,
    parse_semiring_file,
    power,
    reindex,
    scalar_repeat,
    serialize_semiring,
    validate,
    zmod,
)
from semirings import core
from semirings.core import AxiomReport, DomainError

from oracles import (
    additive_inverse_by_scan,
    axiom_sweep,
    axiom_violations,
    fixture_semirings,
    nilpotent_by_long_sweep,
    structure_error_brute,
)

FIXTURES = fixture_semirings()

# Catalog and preset semirings of order at most 32, with every order from 2
# to 7 among them.
ORACLE_PRESETS = ("bool", "zmod:5", "zmod:6", "zmod:7", "zmod:9", "zmod:32",
                  "t2b", "m2z2", "z2x-sq", "z3x-sqm1", "bxy-presentation",
                  "triangular:zmod:3,2", "product:t2b,zmod:4",
                  "product:m2z2,bool", "product:bool,bool,bool,bool,bool")
ORACLE_BASES = st.one_of(
    st.sampled_from([S for n in (2, 3, 4) for S in enumerate_semirings(n)]),
    st.sampled_from([from_preset(name) for name in ORACLE_PRESETS]))


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


def _z5_with(cells=(), rows=(), zero=0, one=1):
    """zmod(5)'s tables as lists, with cells ((table, i, j), value) set and
    rows (table, i, row) replaced."""
    S = zmod(5)
    tables = {"add": [list(r) for r in S.add], "mul": [list(r) for r in S.mul]}
    for (name, i, j), v in cells:
        tables[name][i][j] = v
    for name, i, row in rows:
        tables[name][i] = row
    return tables["add"], tables["mul"], zero, one


STRUCTURE_CASES = {
    "short row": _z5_with(rows=[("add", 2, [2, 3, 4, 0])]),
    "long mul row": _z5_with(rows=[("mul", 4, [0, 4, 3, 2, 1, 0])]),
    "negative": _z5_with(cells=[(("mul", 3, 1), -1)]),
    "equal to n": _z5_with(cells=[(("add", 1, 4), 5)]),
    "float": _z5_with(cells=[(("add", 0, 1), 1.0)]),
    "str": _z5_with(cells=[(("mul", 1, 1), "1")]),
    "None": _z5_with(cells=[(("mul", 0, 4), None)]),
    "bool": _z5_with(cells=[(("add", 0, 1), True), (("mul", 1, 0), False)]),
    "bool then out of range": _z5_with(cells=[(("add", 3, 0), True),
                                              (("add", 3, 2), 7)]),
    "float then negative": _z5_with(cells=[(("mul", 2, 1), 2.0),
                                           (("mul", 2, 3), -3)]),
    "add before mul": _z5_with(cells=[(("mul", 0, 0), 9), (("add", 4, 4), 9)],
                               rows=[("mul", 1, [0, 1])]),
    "earlier row first": _z5_with(cells=[(("add", 3, 0), -1),
                                         (("add", 1, 4), 6)]),
    "bad zero": _z5_with(zero=5),
    "negative zero": _z5_with(zero=-1),
    "float one": _z5_with(one=1.0),
    "bool one": _z5_with(one=True),
    "str one": _z5_with(one="1"),
    "mul shorter": ([[0]], [], 0, 0),
    "empty": ([], [], 0, 0),
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_CASES))
def test_structure_check_matches_the_cell_by_cell_oracle(case):
    add, mul, zero, one = STRUCTURE_CASES[case]
    expected = structure_error_brute(add, mul, zero, one)
    if expected is None:
        assert core._check_structure(add, mul, zero, one) == len(add)
        return
    with pytest.raises(MalformedTableError) as caught:
        validate(add, mul, zero, one)
    assert str(caught.value) == expected


def test_structure_check_names_the_first_of_random_bad_cells():
    rng = random.Random(11)
    bad_values = (-1, 5, 6, 1.0, "2", None, True, False)
    for _ in range(300):
        cells = [((rng.choice(("add", "mul")), rng.randrange(5),
                   rng.randrange(5)), rng.choice(bad_values))
                 for _ in range(rng.randint(1, 4))]
        add, mul, zero, one = _z5_with(cells=cells,
                                       zero=rng.choice((0, 0, 0, 5)))
        expected = structure_error_brute(add, mul, zero, one)
        if expected is None:
            assert core._check_structure(add, mul, zero, one) == 5
            continue
        with pytest.raises(MalformedTableError) as caught:
            core._check_structure(add, mul, zero, one)
        assert str(caught.value) == expected


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


def _as_pairs(report: AxiomReport) -> list[tuple]:
    return [(v.axiom, v.witness) for v in report.violations]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_validate_matches_the_sweep_on_perturbed_tables(data):
    S = data.draw(ORACLE_BASES)
    add = [list(row) for row in S.add]
    mul = [list(row) for row in S.mul]
    cell = st.tuples(st.sampled_from((add, mul)), st.integers(0, S.order - 1),
                     st.integers(0, S.order - 1), st.integers(0, S.order - 1))
    for table, i, j, value in data.draw(st.lists(cell, min_size=1, max_size=3)):
        table[i][j] = value
    report = validate(add, mul, S.zero, S.one)
    want = axiom_violations(add, mul, S.zero, S.one)
    assert _as_pairs(report) == want
    assert report.valid == (not want)


# The presets of the benchmark's build workload, all of order 27 to 128.
BUILD_PRESETS = {name: from_preset(name) for name in (
    "matrix:zmod:3,2", "triangular:bool,3", "zmod:64", "zmod:100", "zmod:128",
    "product:t2b,zmod:4", "product:m2z2,bool", "triangular:zmod:3,2")}


FOUR_LAWS = ("add-associativity", "mul-associativity", "left-distributivity",
             "right-distributivity")


@pytest.mark.parametrize("cells", [1, 2, 3])
@pytest.mark.parametrize("name", BUILD_PRESETS)
def test_screened_sweep_matches_the_oracle(name, cells):
    S = BUILD_PRESETS[name]
    rng = random.Random(f"{name}/{cells}")
    add = [list(row) for row in S.add]
    mul = [list(row) for row in S.mul]
    for _ in range(cells):
        table = rng.choice((add, mul))
        i, j = rng.randrange(S.order), rng.randrange(S.order)
        table[i][j] = (table[i][j] + rng.randrange(1, S.order)) % S.order
    want = axiom_violations(add, mul, S.zero, S.one)
    assert want  # each seeded change here breaks a law
    assert _as_pairs(validate(add, mul, S.zero, S.one)) == want
    # the rows the screen hands back at every element differ exactly at
    # the broken associative and distributive instances
    rng = range(S.order)
    named = set()
    plus, times = core._rows(add, S.order), core._rows(mul, S.order)
    for law, a, i, left, right in core._breaks(plus, times, S.order, rng, rng):
        for j in rng:
            if left[j] != right[j]:
                named.add((FOUR_LAWS[law], (a, i, j) if law < 3 else (a, j, i)))
    assert named == {(law, w) for law, w in want if law in FOUR_LAWS}


@pytest.mark.parametrize("name", BUILD_PRESETS)
def test_screened_sweep_passes_valid_tables(name):
    S = BUILD_PRESETS[name]
    n = S.order
    assert core._sweep(core._rows(S.add, n), core._rows(S.mul, n), n) == []
    assert core._sweep(core._rows([list(row) for row in S.add], n),
                       core._rows(S.mul, n), n) == []


@pytest.mark.parametrize("cell", [
    ("mul", 3, 5),  # passes the short laws, fails Light's test
    ("add", 0, 3),  # fails the additive identity law
])
def test_validate_prepares_each_table_once(cell, monkeypatch):
    S = zmod(16)
    tables = {"add": [list(row) for row in S.add],
              "mul": [list(row) for row in S.mul]}
    name, i, j = cell
    tables[name][i][j] = (tables[name][i][j] + 1) % S.order
    add, mul = tables["add"], tables["mul"]
    assert (not core._short_violations(add, mul, S.zero, S.one, S.order)
            ) == (name == "mul")
    prepared, short = [], []
    rows, short_violations = core._rows, core._short_violations

    def counting_rows(table, n):
        prepared.append(table)
        return rows(table, n)

    def counting_short_violations(*args):
        short.append(args)
        return short_violations(*args)

    monkeypatch.setattr(core, "_rows", counting_rows)
    monkeypatch.setattr(core, "_short_violations", counting_short_violations)
    report = validate(add, mul, S.zero, S.one)
    want = axiom_violations(add, mul, S.zero, S.one)
    assert want and _as_pairs(report) == want
    assert [t is add for t in prepared].count(True) == 1
    assert [t is mul for t in prepared].count(True) == 1
    assert len(short) == 1


def test_broken_cell_outside_the_generators_is_found():
    S = zmod(16)
    gens = core._generators(S.mul, (S.zero, S.one), S.order)
    i, j = [x for x in S.elements if x not in gens][:2]
    mul = [list(row) for row in S.mul]
    mul[i][j] = (mul[i][j] + 1) % S.order
    gens = core._generators(mul, (S.zero, S.one), S.order)
    assert i not in gens and j not in gens
    report = validate(S.add, mul, S.zero, S.one)
    assert not report.valid
    assert _as_pairs(report) == axiom_violations(S.add, mul, S.zero, S.one)


@pytest.mark.parametrize("k", range(2, 9))
def test_boolean_powers_have_small_generating_sets(k):
    # Index order would take every element of B^k as a generator of *.
    S = from_preset("product:" + ",".join(["bool"] * k))
    assert len(core._generators(S.add, (S.zero,), S.order)) <= 2 * k
    assert len(core._generators(S.mul, (S.zero, S.one), S.order)) <= 2 * k


def _maps_of_z3(flip: bool):
    """The nine maps of Z/3 fixing 0, with pointwise sum and composition as
    product.  Composition distributes over sums on one side only, failing
    at the non-additive maps; flip swaps the side."""
    maps = [(0, u, v) for u in range(3) for v in range(3)]
    index = {f: i for i, f in enumerate(maps)}
    add = [[index[tuple((s + t) % 3 for s, t in zip(f, g))] for g in maps]
           for f in maps]
    mul = [[index[tuple(f[t] for t in g)] for g in maps] for f in maps]
    if flip:
        mul = [list(col) for col in zip(*mul)]
    return add, mul, index[(0, 0, 0)], index[(0, 1, 2)]


def _fano_sums():
    """0, 1 and the seven points of the Fano plane as 2..8: a point plus
    itself is itself, two points add to the third point on their line, 1
    absorbs every nonzero element, and points multiply to 0.  Addition is
    commutative but not associative; every other law holds."""
    lines = ((2, 3, 4), (2, 5, 6), (2, 7, 8), (3, 5, 7), (3, 6, 8), (4, 5, 8),
             (4, 6, 7))
    add = [[x if y in (0, x) else y if x == 0 else 1 for y in range(9)]
           for x in range(9)]
    for line in lines:
        for p in line:
            for q in line:
                if p != q:
                    add[p][q] = sum(line) - p - q
    mul = [[y if x == 1 else x if y == 1 else 0 for y in range(9)]
           for x in range(9)]
    return add, mul, 0, 1


def _gf2_algebra():
    """The GF(2)-span of 1, a, b with a*a = b, b*a = a and a*b = b*b = 0,
    as 3-bit masks: addition is xor and the product is bilinear, so every
    law but multiplicative associativity holds; (a*a)*a = a, a*(a*a) = 0."""
    products = {(2, 2): 4, (4, 2): 2, (2, 4): 0, (4, 4): 0}

    def times(x: int, y: int) -> int:
        out = 0
        for i in (1, 2, 4):
            for j in (1, 2, 4):
                if x & i and y & j:
                    out ^= i * j if 1 in (i, j) else products[i, j]
        return out

    add = [[x ^ y for y in range(8)] for x in range(8)]
    mul = [[times(x, y) for y in range(8)] for x in range(8)]
    return add, mul, 0, 1


def _first_nonzero_sums():
    """Z/11 under multiplication, with x + y the first of x, y that is not
    0.  Having no zero divisors, the product distributes over this sum on
    both sides; every law but additive commutativity holds."""
    add = [[x or y for y in range(11)] for x in range(11)]
    mul = [[x * y % 11 for y in range(11)] for x in range(11)]
    return add, mul, 0, 1


@pytest.mark.parametrize("tables,axiom", [
    (_maps_of_z3(False), "left-distributivity"),
    (_maps_of_z3(True), "right-distributivity"),
    (_fano_sums(), "add-associativity"),
    (_gf2_algebra(), "mul-associativity"),
    (_first_nonzero_sums(), "add-commutativity"),
], ids=["left-dist", "right-dist", "add-assoc", "mul-assoc", "add-comm"])
def test_tables_breaking_one_law_are_swept(tables, axiom):
    want = axiom_violations(*tables)
    assert {law for law, witness in want} == {axiom}
    assert _as_pairs(validate(*tables)) == want


def test_valid_tables_take_the_fast_path(monkeypatch):
    # a false alarm of the screen at the generators would send a valid
    # table to the full sweep
    def no_sweep(*args):
        raise AssertionError("the full sweep ran")

    monkeypatch.setattr(core, "_sweep", no_sweep)
    small = [S for n in range(1, 5) for S in enumerate_semirings(n)]
    for S in [*small, zmod(7), *BUILD_PRESETS.values()]:
        assert validate(S.add, S.mul, S.zero, S.one) == AxiomReport(True, ())


# Orders on both sides of 256, where `_rows` switches from bytes to tuples.
@pytest.mark.parametrize("n", [8, 255, 256, 257])
def test_rows_compose_on_both_sides_of_the_byte_split(n):
    rng = random.Random(n)
    table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    # the last row is row 1 composed with row 0, so a composition can
    # equal a row
    table[-1] = [table[1][i] for i in table[0]]
    rows, data, at = core._rows(table, n)
    assert isinstance(rows[0], bytes) == (n <= 256)
    pairs = [(0, 1)] + [(rng.randrange(n), rng.randrange(n)) for _ in range(5)]
    for x, r in pairs:
        got = at[x](data[r])
        want = tuple(table[r][i] for i in table[x])
        assert len(got) == n and all(g == w for g, w in zip(got, want))
        for y in range(n):
            assert (got == rows[y]) == (want == tuple(table[y]))


@pytest.mark.parametrize("name", ["zmod:256", "zmod:257"])
def test_valid_tables_at_the_byte_split_take_the_fast_path(name, monkeypatch):
    S = from_preset(name)

    def no_sweep(*args):
        raise AssertionError("the full sweep ran")

    monkeypatch.setattr(core, "_sweep", no_sweep)
    assert validate(S.add, S.mul, S.zero, S.one) == AxiomReport(True, ())


def _breaks(add, mul, zero, one, axiom, witness) -> bool:
    """Whether the instance `witness` of `axiom` fails, read off the tables
    cell by cell."""
    a, b, c = witness
    holds = {
        "add-identity": add[zero][a] == a == add[a][zero],
        "mul-identity": mul[one][a] == a == mul[a][one],
        "left-annihilation": mul[zero][a] == zero,
        "right-annihilation": mul[a][zero] == zero,
        "add-commutativity": add[a][b] == add[b][a],
        "add-associativity": add[add[a][b]][c] == add[a][add[b][c]],
        "mul-associativity": mul[mul[a][b]][c] == mul[a][mul[b][c]],
        "left-distributivity": mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]],
        "right-distributivity": mul[add[a][b]][c] == add[mul[a][c]][mul[b][c]],
    }
    return not holds[axiom]


def test_perturbed_table_above_the_byte_split_lists_real_violations():
    S = zmod(257)
    rng = random.Random(257)
    mul = [list(row) for row in S.mul]
    i, j = rng.randrange(2, 257), rng.randrange(2, 257)
    mul[i][j] = (mul[i][j] + rng.randrange(1, 257)) % 257
    report = validate(S.add, mul, S.zero, S.one)
    assert not report.valid and report.violations
    for v in report.violations:
        assert _breaks(S.add, mul, S.zero, S.one, v.axiom, v.witness), v


# ------------------------------------------------------------------ labels

@pytest.mark.parametrize("label", ["", "a b", " a", "a ", "#a", "(a", "a)",
                                   "[a", "a]", "(a]", "[a\nb]", "a\tb", 7])
def test_make_semiring_rejects_labels_that_cannot_round_trip(label):
    with pytest.raises(MalformedTableError):
        make_semiring(zmod(2).add, zmod(2).mul, 0, 1, ("0", label))


@pytest.mark.parametrize("labels", [("[0 0]", "[1 1]"), ("0", "(1+x)*x"),
                                    ("a#", "([a b],[c])")])
def test_bracketed_and_compound_labels_round_trip(labels):
    S = make_semiring(zmod(2).add, zmod(2).mul, 0, 1, labels)
    assert parse_semiring_file(serialize_semiring(S)) == S


@settings(max_examples=150, deadline=None)
@given(labels=st.lists(st.text(" \t\n\u2028#()[]ab", max_size=5),
                       min_size=1, max_size=4, unique=True))
def test_labels_round_trip_or_are_refused(labels):
    base = zmod(len(labels))
    try:
        S = make_semiring(base.add, base.mul, base.zero, base.one, labels)
    except MalformedTableError:
        return
    assert parse_semiring_file(serialize_semiring(S)) == S


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
        assert additive_inverse(S, a) == witness.get(a) == \
            additive_inverse_by_scan(S, a)


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


@pytest.mark.parametrize("perm", ([0.0, 1.0], [True, False], [1, False]))
def test_reindex_refuses_entries_that_are_not_ints(perm):
    with pytest.raises(DomainError, match="permutation"):
        reindex(zmod(2), perm)
