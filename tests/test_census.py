import hashlib
import inspect
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirings import (
    DomainError,
    InternalCheckError,
    boolean_semiring,
    canonical_form,
    canonical_relabel,
    direct_product,
    enumerate_semirings,
    from_preset,
    generation_certificate,
    is_boolean,
    is_commutative,
    isomorphic,
    make_semiring,
    poly_quotient,
    reindex,
    scan,
    validate,
    zmod,
)
from semirings.cli import run
from semirings.census import (
    SCAN_FLAGS,
    _GENERIC_LABELS,
    _canonical_search,
    _catalog,
    _cell_holds,
    _complete_mul_tables,
    _completions,
    _endomorphisms,
    _leader_step,
    _least_relabeling,
    _sum_index,
    _walks,
    enumerate_commutative_monoids,
)
from semirings.ops import (
    GEN_IDEMPOTENTS,
    GEN_NILIDEMPOTENTS,
    MODE_ADD,
    MODE_MULT,
    THEOREM_IDS,
    VERDICT_CONFIRMED,
    VERDICT_VIOLATION,
    check_theorem,
    idempotent_without_nilorthogonal_complement,
    idempotent_without_orthogonal_complement,
    nilpotent_outside_center,
    nilpotent_outside_v_and_z,
)

from oracles import (
    automorphisms_brute,
    axiom_violations,
    brute_force_semiring_keys,
    canonical_search_brute,
    check_theorem_brute,
    commutative_monoids_brute,
    decided_instances_hold,
    endomorphisms_brute,
    fixture_semirings,
    leader_walk_brute,
    least_relabeling_brute,
    mul_completions_brute,
    multiplication_first_keys,
    scan_flags_brute,
)

# Regression constants, frozen after the raw brute force over all order<=3
# table pairs agreed with the staged enumeration.
CENSUS_COUNTS = {1: 1, 2: 2, 3: 6, 4: 40}


def test_order_one_catalog_is_trivial():
    catalog = enumerate_semirings(1)
    assert len(catalog) == 1
    assert catalog[0].order == 1 and catalog[0].zero == catalog[0].one


def test_order_two_catalog_is_exactly_bool_and_z2():
    keys = {canonical_form(S) for S in enumerate_semirings(2)}
    assert keys == {canonical_form(boolean_semiring()),
                    canonical_form(zmod(2))}


@pytest.mark.parametrize("order", (1, 2, 3, 4))
def test_census_counts(order):
    assert len(enumerate_semirings(order)) == CENSUS_COUNTS[order]


@pytest.mark.parametrize("order", (2, 3))
def test_staged_enumeration_agrees_with_raw_brute_force(order):
    staged = {canonical_form(S) for S in enumerate_semirings(order)}
    assert staged == brute_force_semiring_keys(order)


def test_enumeration_rejects_orders_above_maximum():
    with pytest.raises(DomainError):
        enumerate_semirings(5)


def test_catalog_entries_are_valid_and_canonical():
    for order in (2, 3, 4):
        catalog = enumerate_semirings(order)
        keys = [canonical_form(S) for S in catalog]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for S in catalog:
            assert validate(S.add, S.mul, S.zero, S.one).valid
            assert S.zero == 0 and S.one == 1


def test_known_constructions_appear_at_order_four():
    keys = {canonical_form(S) for S in enumerate_semirings(4)}
    B = boolean_semiring()
    for S in (direct_product(B, B), direct_product(zmod(2), zmod(2)),
              zmod(4), poly_quotient(zmod(2), [0, 0, 1])):
        assert canonical_form(S) in keys


def test_commutative_monoid_stage():
    assert len(enumerate_commutative_monoids(1)) == 1
    assert len(enumerate_commutative_monoids(2)) == 2
    for table in enumerate_commutative_monoids(3):
        n = len(table)
        for a in range(n):
            assert table[0][a] == a
            for b in range(n):
                assert table[a][b] == table[b][a]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_monoid_stage_matches_brute_force(n):
    assert enumerate_commutative_monoids(n) == commutative_monoids_brute(n)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_mul_stage_matches_brute_force(n):
    # Same tables in the same order, so the census keeps the same first
    # table of each class.
    for add in commutative_monoids_brute(n):
        for one in range(1, n):
            assert list(_complete_mul_tables(add, n, one)) == \
                list(mul_completions_brute(add, n, one))


def test_completions_check_the_preset_cells():
    # (0, 0, 1) breaks associativity and reads no free cell, so only the
    # full check before the first branch rejects these tables.
    broken = [[1, 1, 2], [1, 0, 2], [2, 2, -1]]
    assert list(_completions(broken, [((2, 2),)], 3)) == []
    assert list(_completions([[1, 1], [1, 0]], [], 2)) == []
    # The constant 1 is associative, but over Z/2 (1+1)a = 1 is not
    # 1a + 1a = 0, so only right distributivity rejects it.
    add, constant = [[0, 1], [1, 0]], [[1, 1], [1, 1]]
    assert list(_completions(constant, [], 2)) == [((1, 1), (1, 1))]
    assert list(_completions(constant, [], 2, add=add,
                             sums=_sum_index(add, 2))) == []


def test_monoid_counts_match_oeis_a058131():
    counts = [len(enumerate_commutative_monoids(n)) for n in range(1, 7)]
    assert counts == [1, 2, 5, 19, 78, 421]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_mul_stage_leaders_are_the_first_table_of_each_class(n):
    # With the stabiliser of `one` in Aut(add) as its group, the search
    # yields exactly the first table of each isomorphism class that the
    # plain search meets, for each `one` least in its Aut(add) orbit.
    for add in commutative_monoids_brute(n):
        aut = automorphisms_brute((add,), n)  # the identity first
        for one in range(1, n):
            if any(p[one] < one for p in aut):
                continue
            stabiliser = [p for p in aut[1:] if p[one] == one]
            first = {}
            for mul in mul_completions_brute(add, n, one):
                key, _ = canonical_search_brute(make_semiring(add, mul, 0, one))
                first.setdefault(key, mul)
            assert list(_complete_mul_tables(add, n, one, stabiliser)) == \
                list(first.values())


def _labelled_semiring_count(n):
    """Semirings on {0..n-1} with zero 0, counted by the completion search
    with no group over every labelled monoid and every choice of one."""
    table = [[-1] * n for _ in range(n)]
    for a in range(n):
        table[0][a] = table[a][0] = a
    cells = [((i, j), (j, i)) for i in range(1, n) for j in range(i, n)]
    return sum(1 for add in _completions(table, cells, n)
               for one in range(1, n)
               for _ in _complete_mul_tables(add, n, one))


@pytest.mark.parametrize("n, labelled", ((2, 2), (3, 12), (4, 231), (5, 6876)))
def test_catalog_passes_the_orbit_count(n, labelled):
    # Each class S has (n-1)!/|Aut(S)| copies with zero at 0, so a class
    # merged with another or split in two would break the sum.
    copies = sum(math.factorial(n - 1)
                 // len(automorphisms_brute((S.add, S.mul), n))
                 for S in enumerate_semirings(n, n))
    assert copies == _labelled_semiring_count(n) == labelled


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_catalog_matches_the_multiplication_first_census(n):
    # an enumeration in the other order, sharing no code with the census
    keys = multiplication_first_keys(n)
    assert len(keys) == CENSUS_COUNTS[n] and keys == set(_catalog(n, n))


def test_order_five_catalog_is_pinned():
    # Recorded when every labelled table was built and deduplicated.
    keys = _catalog(5, 5)
    assert len(keys) == 295
    assert hashlib.sha256(b"".join(keys)).hexdigest() == \
        "0da552b5cf2e51a70aa12faea6db2d51c9c95de1749b8d110015298ab714936d"


def test_catalog_representatives_satisfy_every_axiom():
    # The catalog builds its leaders without checking their axioms, relying
    # on the construction; the independent oracle checks what it built.
    representatives = [S for n in range(1, 6) for S in enumerate_semirings(n, 5)]
    assert len(representatives) == 344
    for S in representatives:
        assert axiom_violations(S.add, S.mul, S.zero, S.one) == [], S


def test_catalog_refuses_two_leaders_with_one_key(monkeypatch):
    import semirings.census as census

    monkeypatch.setattr(census, "_canonical_search",
                        lambda S: (b"same", list(S.elements)))
    with pytest.raises(InternalCheckError, match="share a canonical key"):
        _catalog(3, 3)


@pytest.mark.parametrize("call, order, message", (
    (enumerate_semirings, True, "integer"),
    (enumerate_semirings, 2.0, "integer"),
    (enumerate_semirings, "3", "integer"),
    (enumerate_semirings, 0, "positive"),
    (enumerate_commutative_monoids, 0, "positive"),
    (enumerate_commutative_monoids, -1, "positive"),
    (enumerate_commutative_monoids, True, "integer"),
    (enumerate_commutative_monoids, 3.0, "integer"),
    (lambda order: _catalog(order, 4), False, "integer"),
    (lambda max_order: enumerate_semirings(2, max_order=max_order), None,
     "integer"),
    (lambda max_order: enumerate_semirings(2, max_order), "4", "integer"),
    (lambda max_order: enumerate_semirings(1, max_order), True, "integer"),
    (lambda max_order: scan([2], max_order=max_order), 2.5, "integer"),
))
def test_bad_orders_are_refused(call, order, message):
    # the refusal names the argument that the case varies: max_order, or
    # else the order, whatever the function calls it
    varied = next(iter(inspect.signature(call).parameters))
    named = "max_order" if varied == "max_order" else "order"
    with pytest.raises(DomainError, match=f"^{named} must be .*{message}"):
        call(order)


def test_scan_refuses_large_orders_before_any_catalog(monkeypatch):
    import semirings.census as census

    calls = []
    catalog = census._catalog
    monkeypatch.setattr(census, "_catalog",
                        lambda *args: calls.append(args) or catalog(*args))
    with pytest.raises(DomainError,
                       match="^order 7 above configured maximum 4$"):
        scan([2, 4, 7], max_order=4)
    assert calls == []


def _relabeled_monoid(add, perm):
    n = len(add)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[add[a][b]]
    return table


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cell_check_matches_the_rescan(data):
    # Cells are set one at a time into a table whose decided instances all
    # hold; the check of the new cell must accept exactly when a rescan of
    # every decided instance does.  With an addition, each row only ever
    # agrees with some endomorphism of it on its set cells, as in the
    # multiplication stage, so the left distributive law holds throughout.
    n = data.draw(st.integers(2, 5), label="n")
    add = sums = None
    if data.draw(st.booleans(), label="with add"):
        monoid = data.draw(st.sampled_from(enumerate_commutative_monoids(n)))
        perm = [0] + data.draw(st.permutations(range(1, n)), label="perm")
        add = _relabeled_monoid(monoid, perm)
        sums = _sum_index(add, n)
        ends = endomorphisms_brute(add, n)
    t = [[-1] * n for _ in range(n)]
    holders = [[] for _ in range(n)]  # the set cells holding each value
    everything = [(a, a) for a in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in data.draw(st.lists(st.sampled_from(cells), max_size=2 * n * n),
                          label="cells"):
        if t[i][j] >= 0:
            continue
        values = range(n) if add is None else sorted(
            {f[j] for f in ends
             if all(x in (-1, y) for x, y in zip(t[i], f))})
        if not values:
            continue
        v = data.draw(st.sampled_from(values), label="value")
        t[i][j] = v
        holders[v].append((i, j))
        holds = _cell_holds(t, i, j, holders, add, sums)
        assert holds == decided_instances_hold(t, add, n, everything)
        if not holds:
            t[i][j] = -1
            holders[v].pop()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_leader_step_matches_a_walk_from_the_start(data):
    # Fill positions are set in order, each to a random value; other cells
    # are preset, some of them free for good.  Carrying the open
    # relabelings down must prune exactly where walking the whole group
    # from position 0 finds a smaller image.
    n = data.draw(st.integers(2, 5), label="n")
    cells = [(i, j) for i in range(n) for j in range(n)]
    preset = data.draw(st.sets(st.sampled_from(cells)), label="preset")
    spots = [cell for cell in cells if cell not in preset]
    t = [[-1] * n for _ in range(n)]
    for i, j in sorted(preset):
        t[i][j] = data.draw(st.integers(-1, n - 1), label="preset value")
    group = data.draw(st.lists(st.permutations(range(n)), max_size=8),
                      label="group")
    live = _walks(group, spots, n)
    for k, (i, j) in enumerate(spots):
        t[i][j] = data.draw(st.integers(0, n - 1), label="value")
        live = _leader_step(t, live, k)
        assert (live is not None) == leader_walk_brute(t, spots, group)
        if live is None:
            break


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_endomorphisms_match_brute_force(n):
    for monoid in enumerate_commutative_monoids(n):
        for perm in ([0, *range(1, n)], [0, *range(n - 1, 0, -1)]):
            add = _relabeled_monoid(monoid, perm)
            ends = _endomorphisms(add, n, _sum_index(add, n))
            assert ends == endomorphisms_brute(add, n)
            assert [f for f in ends if len(set(f)) == n] == \
                automorphisms_brute((add,), n)


def test_reindex_classifies_nothing_itself():
    S = zmod(6)
    T = reindex(S, [0, 5, 4, 3, 2, 1])
    assert "_classes" not in vars(T) and "_vectors" not in vars(T)


# ----------------------------------------------------------- canonical keys

def test_keys_separate_bool_from_z2():
    assert canonical_form(boolean_semiring()) != canonical_form(zmod(2))


def test_key_is_relabeling_invariant():
    rng = random.Random(11)
    for name, S in fixture_semirings():
        rest = [e for e in S.elements if e not in (S.zero, S.one)]
        rng.shuffle(rest)
        perm = [0] * S.order
        perm[S.zero] = 0
        if S.one != S.zero:
            perm[S.one] = 1
        base = 2 if S.one != S.zero else 1
        for i, e in enumerate(rest):
            perm[e] = base + i
        assert canonical_form(reindex(S, perm)) == canonical_form(S)


def test_key_identifies_crt_isomorphs(z3x):
    assert canonical_form(z3x) == canonical_form(
        direct_product(zmod(3), zmod(3)))


def test_canonical_keys_refuse_orders_above_255():
    S = zmod(256)
    for key in (canonical_form, canonical_relabel):
        with pytest.raises(DomainError, match="order at most 255, not 256"):
            key(S)


def test_canonical_relabel_is_isomorphic(z3x):
    R = canonical_relabel(z3x)
    assert isomorphic(R, z3x) is not None
    assert canonical_form(R) == canonical_form(z3x)


def _shuffled(S, rng):
    perm = list(range(S.order))
    rng.shuffle(perm)
    return reindex(S, perm)


@pytest.mark.parametrize("order", (1, 2, 3, 4))
def test_canonical_search_matches_brute_force_on_the_catalog(order):
    rng = random.Random(order)
    for S in enumerate_semirings(order):
        for _ in range(3):
            T = _shuffled(S, rng)
            assert _canonical_search(T) == canonical_search_brute(T)


@pytest.mark.parametrize("preset", ("product:zmod:4,zmod:4",
                                    "product:z2x-sq,z2x-sq"))
def test_canonical_search_matches_brute_force_on_products(preset):
    S = from_preset(preset)
    for T in (S, _shuffled(S, random.Random(7))):
        assert _canonical_search(T) == canonical_search_brute(T)


def test_canonical_search_breaks_ties_like_brute_force():
    # This product has several relabelings that reach the least key, and
    # under many relabelings of its input the search meets one of them
    # before the one with the least positions, which it must return.
    P = direct_product(enumerate_semirings(4)[3], enumerate_semirings(3)[0])
    rng = random.Random(0)
    for _ in range(10):
        T = _shuffled(P, rng)
        assert _canonical_search(T) == canonical_search_brute(T)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_monoid_stage_relabeling_matches_brute_force(n):
    rng = random.Random(n)
    for table in enumerate_commutative_monoids(n):
        perm = [0] + rng.sample(range(1, n), n - 1)
        relabeled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabeled[perm[a]][perm[b]] = perm[table[a][b]]
        args = ((relabeled,), n, {0: 0}, [list(range(1, n))])
        # zero, pinned at 0, is the leading block of one element
        assert _least_relabeling((relabeled,), n, [[0], list(range(1, n))]) \
            == least_relabeling_brute(*args)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_census_leaders_are_their_own_normal_forms(n):
    monoids = enumerate_commutative_monoids(n)
    for table in monoids:
        key, _ = least_relabeling_brute((table,), n, {0: 0},
                                        [list(range(1, n))])
        assert key == bytes([n, *(v for row in table for v in row)])
    assert all(a < b for a, b in zip(monoids, monoids[1:]))
    keys = _catalog(n, n)
    assert all(type(key) is bytes for key in keys) and keys == sorted(keys)
    for key, S in zip(keys, enumerate_semirings(n, n), strict=True):
        cells = [v for table in (S.add, S.mul) for row in table for v in row]
        assert key == bytes([n, *cells])
        assert (S.zero, S.one, S.labels) == (0, 1 % n, _GENERIC_LABELS[:n])


def test_least_relabeling_matches_brute_force_on_random_tables():
    # Few distinct values make many relabelings tie on the key, and the
    # blocks are not sorted, so the tie-break by position in the block is
    # exercised too.
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 5)
        values = rng.randint(1, n)
        tables = [[[rng.randrange(values) for _ in range(n)]
                   for _ in range(n)] for _ in range(rng.randint(1, 2))]
        elements = rng.sample(range(n), n)
        npinned = rng.randint(0, min(2, n))
        pinned = {e: i for i, e in enumerate(elements[:npinned])}
        rest = elements[npinned:]
        blocks = []
        while rest:
            cut = rng.randint(1, len(rest))
            blocks.append(rest[:cut])
            rest = rest[cut:]
        # the pinned elements, in order, lead as blocks of one element
        assert _least_relabeling(tables, n, [[e] for e in elements[:npinned]]
                                 + blocks) \
            == least_relabeling_brute(tables, n, pinned, blocks)


# sha256 of canonical_form and the labels of canonical_relabel, recorded
# with the exhaustive search (51,840, 86,400 and 17,280 relabelings).
PINNED_CANONICAL_FORMS = {
    "m2z2": (
        "c091d4f1c1ee87f7ba01d86ec2f67506fd8e10d86ac08f3b4f9d2c5d2204a058",
        ("[0 0;0 0]", "[1 0;0 1]", "[0 1;1 0]", "[1 1;0 1]", "[1 0;1 1]",
         "[0 1;1 1]", "[1 1;1 0]", "[1 1;1 1]", "[0 1;0 0]", "[0 0;1 0]",
         "[0 0;0 1]", "[1 0;0 0]", "[1 0;1 0]", "[0 0;1 1]", "[1 1;0 0]",
         "[0 1;0 1]")),
    "product:t2b,zmod:2": (
        "b1a44b14c70f11240896e66901d4d00765a45d221b38936053f683488181c98b",
        ("([0 0;0 0],0)", "([1 0;0 1],1)", "([0 1;0 0],1)", "([0 1;0 0],0)",
         "([1 0;0 1],0)", "([1 1;0 1],0)", "([1 0;0 0],0)", "([0 0;0 1],0)",
         "([1 1;0 0],0)", "([0 1;0 1],0)", "([1 1;0 1],1)", "([1 0;0 0],1)",
         "([0 0;0 1],1)", "([1 1;0 0],1)", "([0 1;0 1],1)", "([0 0;0 0],1)")),
    "product:z3x-sqm1,bool": (
        "43aa016b389f16df672d762351657510f47070efbae92cd7c7759d113528d780",
        ("(0,0)", "(1,1)", "(1+x,1)", "(1+2x,1)", "(2,1)", "(x,1)", "(2x,1)",
         "(x,0)", "(2x,0)", "(2,0)", "(1+x,0)", "(1+2x,0)", "(0,1)",
         "(2+x,1)", "(2+2x,1)", "(1,0)", "(2+x,0)", "(2+2x,0)")),
}


@pytest.mark.parametrize("preset", tuple(PINNED_CANONICAL_FORMS))
def test_canonical_forms_of_large_blocks_are_pinned(preset):
    digest, labels = PINNED_CANONICAL_FORMS[preset]
    S = from_preset(preset)
    assert hashlib.sha256(canonical_form(S)).hexdigest() == digest
    assert canonical_relabel(S).labels == labels
    copy = _shuffled(S, random.Random(5))
    assert hashlib.sha256(canonical_form(copy)).hexdigest() == digest


@pytest.mark.parametrize("order", (2, 3, 4))
def test_key_equality_agrees_with_isomorphism_search(order):
    catalog = enumerate_semirings(order)
    rng = random.Random(order)
    for _ in range(100):
        S = rng.choice(catalog)
        T = rng.choice(catalog)
        # shuffle T so the comparison is not between canonical forms
        rest = list(range(2, T.order))
        rng.shuffle(rest)
        perm = [0, 1] + rest
        T = reindex(T, perm)
        same_key = canonical_form(S) == canonical_form(T)
        assert same_key == (isomorphic(S, T) is not None)


# -------------------------------------------------------------------- scans

def test_scan_order_two():
    report = scan([2])
    assert report.counts == {2: 2}
    assert len(report.entries) == 2
    assert not report.violations
    for entry in report.entries:
        assert entry.verdicts["main"] == VERDICT_CONFIRMED


def test_scan_excludes_trivial_by_default():
    report = scan([1])
    assert report.counts == {1: 0}
    assert report.entries == ()
    included = scan([1], include_trivial=True)
    assert included.counts == {1: 1}
    assert len(included.entries) == 1


def test_scan_orders_two_to_four_has_no_violations():
    report = scan([2, 3, 4])
    assert report.violations == ()
    total = sum(report.counts.values())
    assert total == len(report.entries) == 2 + 6 + 40
    for theorem in THEOREM_IDS:
        tally = report.tallies[theorem]
        assert tally["VIOLATION"] == 0
        assert tally["confirmed"] + tally["vacuous"] == total


def test_scan_flags_match_the_public_predicates():
    report = scan([2, 3, 4])
    catalog = [S for order in (2, 3, 4) for S in enumerate_semirings(order)]
    assert len(catalog) == len(report.entries)
    for S, entry in zip(catalog, report.entries):
        assert entry.key == canonical_form(S).hex()
        expected = {
            "boolean": is_boolean(S),
            "commutative": is_commutative(S),
            "mult-gen-idempotents":
                generation_certificate(S, MODE_MULT, GEN_IDEMPOTENTS).generated,
            "mult-gen-nilidempotents":
                generation_certificate(S, MODE_MULT,
                                       GEN_NILIDEMPOTENTS).generated,
            "add-gen-idempotents":
                generation_certificate(S, MODE_ADD, GEN_IDEMPOTENTS).generated,
            "orthogonal-complements":
                idempotent_without_orthogonal_complement(S) is None,
            "nilorthogonal-complements":
                idempotent_without_nilorthogonal_complement(S) is None,
            "nil-in-z": nilpotent_outside_center(S) is None,
            "nil-in-vz": nilpotent_outside_v_and_z(S) is None,
        }
        assert tuple(entry.flags) == SCAN_FLAGS
        assert entry.flags == expected
        for theorem in THEOREM_IDS:
            assert entry.verdicts[theorem] == check_theorem(S, theorem).verdict


def test_scan_matches_the_theorem_oracle():
    report = scan(range(1, 5), include_trivial=True)
    catalog = [S for order in range(1, 5) for S in enumerate_semirings(order)]
    assert len(catalog) == len(report.entries) == 1 + 2 + 6 + 40
    for S, entry in zip(catalog, report.entries):
        assert entry.flags == scan_flags_brute(S)
        assert entry.verdicts == {
            theorem: check_theorem_brute(S, theorem).verdict
            for theorem in THEOREM_IDS}


def test_scan_matches_the_theorem_oracle_at_order_5():
    report = scan([5], include_trivial=True, max_order=5)
    assert len(report.entries) == 295
    for entry, S in zip(report.entries, enumerate_semirings(5, 5)):
        assert entry.flags == scan_flags_brute(S)
        assert entry.verdicts == {
            theorem: check_theorem_brute(S, theorem).verdict
            for theorem in THEOREM_IDS}


def test_scan_lists_every_violation(monkeypatch):
    import semirings.ops as ops

    monkeypatch.setattr(ops, "noncommuting_pair", lambda S: (S.zero, S.one))
    # Every semiring below is built afresh, so the patched clause checks
    # stay with semirings no other test sees.
    report = scan([2, 3])
    expected = [(entry.key, theorem)
                for entry in report.entries for theorem in THEOREM_IDS
                if entry.verdicts[theorem] == VERDICT_VIOLATION]
    hypotheses_hold = [
        (canonical_form(S).hex(), theorem)
        for order in (2, 3) for S in enumerate_semirings(order)
        for theorem in THEOREM_IDS
        if all(h.holds for h in check_theorem(S, theorem).hypotheses)]
    assert expected == hypotheses_hold
    assert [(v["key"], v["theorem"]) for v in report.violations] == expected
    assert len({key for key, _ in expected}) > 1
    for v in report.violations:
        assert v["failed_conclusions"][0] == "commutative"
    code, cli_report = run(["census", "--max-order", "3"])
    assert code == 2 and cli_report["verdict"] == "violation"
    assert len(cli_report["result"]["violations"]) == len(expected)


@pytest.mark.parametrize("orders, message", (
    ([2, 2], "distinct"), ((3, 2, 3), "distinct"),
    ([2.0], "integer"), ([True], "integer"), (["2"], "integer")))
def test_scan_rejects_bad_orders(orders, message):
    with pytest.raises(DomainError, match=message):
        scan(orders)


def test_scan_reads_a_one_shot_theorem_iterable():
    # theorem ids are read more than once, so a generator must give the
    # same report as a list rather than a scan that checks nothing
    report = scan([2, 3], (t for t in ["main"]))
    assert report == scan([2, 3], ["main"])
    assert report.tallies["main"]["confirmed"] > 0


def test_scan_holds_one_representative_at_a_time(monkeypatch):
    import semirings.census as census

    spell = census._representative
    built = []

    def tracked(key):
        assert all(ref() is None for ref in built), "an earlier one is alive"
        S = spell(key)
        built.append(weakref.ref(S))
        return S

    monkeypatch.setattr(census, "_representative", tracked)
    report = scan([2, 3, 4])
    assert len(built) == len(report.entries) == 2 + 6 + 40


def test_scan_rejects_unknown_theorem():
    with pytest.raises(DomainError):
        scan([2], theorem_ids=("main", "lemma9"))


def test_scan_flags_are_consistent_with_verdicts():
    report = scan([2, 3])
    for entry in report.entries:
        hypotheses_hold = (entry.flags["mult-gen-idempotents"]
                           and entry.flags["orthogonal-complements"])
        if hypotheses_hold:
            assert entry.verdicts["main"] == VERDICT_CONFIRMED
            assert entry.flags["boolean"] and entry.flags["commutative"]
