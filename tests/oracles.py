"""Independent oracles the tests check library results against.

Everything here recomputes expectations from first principles (plain set
fixed points, raw table sweeps, term expansion, every relabeling
flattened, every law instance rescanned) without going through the code
paths under test.
"""

from __future__ import annotations

import itertools

from semirings import (
    ClassReport,
    ElementSet,
    FiniteSemiring,
    boolean_semiring,
    make_semiring,
    matrix_semiring,
    poly_quotient,
    triangular_semiring,
    validate,
    zmod,
)
from semirings.ops import (
    CONCL_BOOLEAN,
    CONCL_COMMUTATIVE,
    HYP_ADD_GEN_IDEM,
    HYP_MULT_GEN_IDEM,
    HYP_MULT_GEN_NILIDEM,
    HYP_NIL_IN_V_AND_Z,
    HYP_NIL_IN_Z,
    HYP_NILORTH_COMPLEMENTS,
    HYP_ORTH_COMPLEMENTS,
    THEOREMS,
    ClauseCheck,
    TheoremReport,
)


def closure_by_sets(S: FiniteSemiring, generators, op_name: str) -> frozenset:
    """Fixed point with plain python sets, one growing pass at a time."""
    op = S.times if op_name == "mul" else S.plus
    members = set(generators)
    while True:
        grown = set(members)
        for a in members:
            for b in members:
                grown.add(op(a, b))
        if grown == members:
            return frozenset(members)
        members = grown


def structure_error_brute(add, mul, zero, one) -> str | None:
    """The message of the first structural fault that `validate` refuses
    with `MalformedTableError`, found cell by cell, or None."""
    n = len(add)
    if n == 0:
        return "tables must have at least one element"
    if len(mul) != n:
        return "add and mul tables must have equal order"
    for name, table in (("add", add), ("mul", mul)):
        for i, row in enumerate(table):
            if len(row) != n:
                return f"{name} row {i} has length {len(row)}, expected {n}"
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    return f"{name}[{i}][{j}] = {v!r} is not an element index"
    for name, v in (("zero", zero), ("one", one)):
        if not isinstance(v, int) or not 0 <= v < n:
            return f"{name} = {v!r} is not an element index"
    return None


def axiom_violations(add, mul, zero: int, one: int) -> list[tuple]:
    """Every violated axiom instance as (axiom, witness), in the order of
    the plain O(n^3) sweep that `validate` reports; witnesses are padded
    with 0 to triples."""
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
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                bad.append(("add-commutativity", (a, b, 0)))
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    bad.append(("add-associativity", (a, b, c)))
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    bad.append(("mul-associativity", (a, b, c)))
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    bad.append(("left-distributivity", (a, b, c)))
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    bad.append(("right-distributivity", (a, b, c)))
    return bad


def axiom_sweep(S: FiniteSemiring) -> list[tuple]:
    """Every violated axiom instance of S, by `axiom_violations`."""
    return axiom_violations(S.add, S.mul, S.zero, S.one)


def tabulate_brute(elements, plus, times, zero, one, label) -> FiniteSemiring:
    """The semiring `tabulate` builds, with plus and times evaluated on
    every cell instead of on the rows of a generating set."""
    carrier = [zero] + ([one] if one != zero else [])
    carrier += [x for x in elements if x != zero and x != one]
    index = {x: i for i, x in enumerate(carrier)}
    add = [[index[plus(a, b)] for b in carrier] for a in carrier]
    mul = [[index[times(a, b)] for b in carrier] for a in carrier]
    return make_semiring(add, mul, 0, index[one], map(label, carrier))


def matrix_semiring_brute(S: FiniteSemiring, n: int,
                          triangular: bool) -> FiniteSemiring:
    """The n-by-n (upper triangular if asked) matrices over S, every cell
    of both tables computed from the definitions through `tabulate_brute`:
    the entrywise sum, and the row-by-column product over all n terms."""
    positions = [(i, j) for i in range(n) for j in range(n)
                 if i <= j or not triangular]

    def decode(e: int):
        mat = [[S.zero] * n for _ in range(n)]
        for p, (i, j) in enumerate(positions):
            mat[i][j] = (e // S.order ** p) % S.order
        return tuple(tuple(row) for row in mat)

    def madd(a, b):
        return tuple(tuple(S.plus(x, y) for x, y in zip(ra, rb))
                     for ra, rb in zip(a, b))

    def mmul(a, b):
        return tuple(tuple(S.sum(S.times(a[i][k], b[k][j]) for k in range(n))
                           for j in range(n))
                     for i in range(n))

    zero = tuple((S.zero,) * n for _ in range(n))
    one = tuple(tuple(S.one if i == j else S.zero for j in range(n))
                for i in range(n))
    return tabulate_brute(map(decode, range(S.order ** len(positions))), madd,
                          mmul, zero, one, lambda mat: "[" + ";".join(
                        " ".join(S.labels[v] for v in row) for row in mat) + "]")


def additive_inverse_by_scan(S: FiniteSemiring, a: int) -> int | None:
    """Smallest-index b with a + b = 0, or None."""
    return next((b for b in S.elements if S.plus(a, b) == S.zero), None)


def classify_brute(S: FiniteSemiring) -> ClassReport:
    """The class report by separate exhaustive searches: the power sweep
    of `nilpotent_by_long_sweep`, the smallest-index scan of
    `additive_inverse_by_scan` and a scan of every pair for two-sided unit
    inverses."""
    idem = [e for e in S.elements if S.times(e, e) == e]
    nil_index: dict[int, int] = {}
    for a in S.elements:
        k = nilpotent_by_long_sweep(S, a)
        if k is not None:
            nil_index[a] = k
    nilpotents = sorted(nil_index)
    nilidem = [e for e in S.elements
               if any(S.times(e, e) == S.plus(e, x) for x in nilpotents)]
    add_inv: dict[int, int] = {}
    for a in S.elements:
        b = additive_inverse_by_scan(S, a)
        if b is not None:
            add_inv[a] = b
    center = [a for a in S.elements
              if all(S.times(a, b) == S.times(b, a) for b in S.elements)]
    unit_wit: dict[int, int] = {}
    for u in S.elements:
        for v in S.elements:
            if S.times(u, v) == S.one and S.times(v, u) == S.one:
                unit_wit[u] = v
                break
    n = S.order
    return ClassReport(
        idempotents=ElementSet.of(idem, n),
        nilpotents=ElementSet.of(nilpotents, n),
        nilidempotents=ElementSet.of(nilidem, n),
        additively_invertible=ElementSet.of(add_inv, n),
        additive_inverse_witness=add_inv,
        center=ElementSet.of(center, n),
        units=ElementSet.of(unit_wit, n),
        unit_witness=unit_wit,
        nilpotency_index=nil_index,
    )


def _invariant_vector(S: FiniteSemiring, a: int,
                      classes: ClassReport) -> tuple:
    def orbit_profile(step):
        seen: dict[int, int] = {}
        x = a
        i = 0
        while x not in seen:
            seen[x] = i
            x = step(x)
            i += 1
        return (seen[x], i - seen[x])  # (tail length, cycle length)

    return (
        a in classes.idempotents,
        classes.nilpotency_index.get(a, 0),
        a in classes.additively_invertible,
        a in classes.units,
        orbit_profile(lambda x: S.plus(x, a)),
        orbit_profile(lambda x: S.times(x, a)),
    )


def invariant_vectors_brute(S: FiniteSemiring) -> list[tuple]:
    """Per element: idempotent, nilpotency index (0 if none), additively
    invertible, unit, and the (tail, cycle) lengths of its additive and
    multiplicative orbits, each orbit walked again from scratch over the
    class report of `classify_brute`."""
    classes = classify_brute(S)
    return [_invariant_vector(S, a, classes) for a in S.elements]


def invariant_blocks_brute(S: FiniteSemiring) -> list[tuple[tuple, list[int]]]:
    """The invariant-vector blocks as (vector, elements in ascending
    order): zero alone, then one alone unless S is trivial, then the other
    elements grouped by their vectors from `invariant_vectors_brute`, in
    sorted order of the vectors."""
    vecs = invariant_vectors_brute(S)
    first = [S.zero] if S.is_trivial else [S.zero, S.one]
    rest = [e for e in S.elements if e not in first]
    return [(vecs[e], [e]) for e in first] + [
        (v, [e for e in rest if vecs[e] == v])
        for v in sorted({vecs[e] for e in rest})]


def isomorphism_brute(S: FiniteSemiring,
                      T: FiniteSemiring) -> tuple[int, ...] | None:
    """The isomorphism S -> T that `isomorphic` promises, or None: every
    bijection sending zero to zero and one to one is tried, and the first
    that carries both tables is returned, with the other elements of S
    ordered by how many elements of T share their invariant vector (from
    `invariant_vectors_brute`), ties by index, and the tuples of their
    images in lexicographic order."""
    if S.order != T.order:
        return None
    vec_s, vec_t = invariant_vectors_brute(S), invariant_vectors_brute(T)
    rest = [a for a in S.elements if a not in (S.zero, S.one)]
    rest.sort(key=lambda a: vec_t.count(vec_s[a]))
    targets = [b for b in T.elements if b not in (T.zero, T.one)]
    for images in itertools.permutations(targets):
        f = [0] * S.order
        f[S.zero], f[S.one] = T.zero, T.one
        for a, b in zip(rest, images):
            f[a] = b
        if all(f[S.plus(a, b)] == T.plus(f[a], f[b])
               and f[S.times(a, b)] == T.times(f[a], f[b])
               for a in S.elements for b in S.elements):
            return tuple(f)
    return None


def nilpotent_by_long_sweep(S: FiniteSemiring, a: int) -> int | None:
    """Nilpotency via a 2*order power sweep, twice the claimed exact bound."""
    x = a
    for k in range(1, 2 * S.order + 1):
        if x == S.zero:
            return k
        x = S.times(x, a)
    return None


def noncommuting_pair_brute(S: FiniteSemiring) -> tuple[int, int] | None:
    """First (a, b) in row-major order with ab != ba, by a scan of every
    pair."""
    for a in S.elements:
        for b in S.elements:
            if S.times(a, b) != S.times(b, a):
                return (a, b)
    return None


def non_idempotent_element_brute(S: FiniteSemiring) -> int | None:
    return next((a for a in S.elements if S.times(a, a) != a), None)


def orthogonal_complement_brute(S: FiniteSemiring, e: int) -> int | None:
    """Smallest-index f with ff = f, e + f = 1 and ef = fe = 0."""
    for f in S.elements:
        if (S.times(f, f) == f and S.plus(e, f) == S.one
                and S.times(e, f) == S.zero and S.times(f, e) == S.zero):
            return f
    return None


def idempotent_without_orthogonal_complement_brute(S: FiniteSemiring) -> int | None:
    for e in S.elements:
        if S.times(e, e) == e and orthogonal_complement_brute(S, e) is None:
            return e
    return None


def nilorthogonal_complements_brute(S: FiniteSemiring,
                                    e: int) -> list[tuple[int, int]]:
    """Every (f, x) in index order with f nilidempotent, x nilpotent,
    e + f = 1 + x and ef, fe nilpotent; classes from `classify_brute`."""
    classes = classify_brute(S)
    nil = classes.nilpotents
    return [(f, x) for f in S.elements if f in classes.nilidempotents
            and S.times(e, f) in nil and S.times(f, e) in nil
            for x in nil if S.plus(S.one, x) == S.plus(e, f)]


def idempotent_without_nilorthogonal_complement_brute(
        S: FiniteSemiring) -> int | None:
    for e in S.elements:
        if S.times(e, e) == e and not nilorthogonal_complements_brute(S, e):
            return e
    return None


def nilpotent_outside_center_brute(S: FiniteSemiring) -> int | None:
    classes = classify_brute(S)
    for x in classes.nilpotents:
        if x not in classes.center:
            return x
    return None


def nilpotent_outside_v_and_z_brute(S: FiniteSemiring) -> int | None:
    classes = classify_brute(S)
    for x in classes.nilpotents:
        if x not in classes.additively_invertible or x not in classes.center:
            return x
    return None


def classify_factor_brute(F: FiniteSemiring) -> str:
    """The Peirce factor class by comparing canonical keys of
    `canonical_search_brute` with the Boolean semiring's and Z/2's, then
    counting idempotents by a scan."""
    for name, T in (("iso-to-bool", boolean_semiring()), ("iso-to-z2", zmod(2))):
        if (F.order == T.order and canonical_search_brute(F)[0]
                == canonical_search_brute(T)[0]):
            return name
    if sum(F.times(e, e) == e for e in F.elements) > 2:
        return "other"
    return "other-no-nontrivial-idempotents"


def ungenerated_brute(S: FiniteSemiring, op_name: str,
                      generators) -> int | None:
    """Least element outside the closure of generators, by `closure_by_sets`."""
    covered = closure_by_sets(S, generators, op_name)
    return next((a for a in S.elements if a not in covered), None)


def _idempotents_brute(S: FiniteSemiring) -> list[int]:
    return [e for e in S.elements if S.times(e, e) == e]


# scan flag -> (clause name, brute finder), in scan-flag order
CLAUSES_BRUTE = {
    "boolean": (CONCL_BOOLEAN, non_idempotent_element_brute),
    "commutative": (CONCL_COMMUTATIVE, noncommuting_pair_brute),
    "mult-gen-idempotents":
        (HYP_MULT_GEN_IDEM,
         lambda S: ungenerated_brute(S, "mul", _idempotents_brute(S))),
    "mult-gen-nilidempotents":
        (HYP_MULT_GEN_NILIDEM,
         lambda S: ungenerated_brute(S, "mul",
                                     list(classify_brute(S).nilidempotents))),
    "add-gen-idempotents":
        (HYP_ADD_GEN_IDEM,
         lambda S: ungenerated_brute(S, "add", _idempotents_brute(S))),
    "orthogonal-complements":
        (HYP_ORTH_COMPLEMENTS, idempotent_without_orthogonal_complement_brute),
    "nilorthogonal-complements":
        (HYP_NILORTH_COMPLEMENTS,
         idempotent_without_nilorthogonal_complement_brute),
    "nil-in-z": (HYP_NIL_IN_Z, nilpotent_outside_center_brute),
    "nil-in-vz": (HYP_NIL_IN_V_AND_Z, nilpotent_outside_v_and_z_brute),
}


def scan_flags_brute(S: FiniteSemiring) -> dict[str, bool]:
    """Every scan flag, each from its clause's brute finder."""
    return {flag: finder(S) is None
            for flag, (_, finder) in CLAUSES_BRUTE.items()}


def check_theorem_brute(S: FiniteSemiring, theorem: str) -> TheoremReport:
    """The theorem report from `THEOREMS` and the brute finders: each
    clause found afresh, the verdict by the definitions (vacuous when a
    hypothesis fails, VIOLATION when only a conclusion does)."""
    finders = dict(CLAUSES_BRUTE.values())

    def check(name: str) -> ClauseCheck:
        witness = finders[name](S)
        if isinstance(witness, int):
            witness = (witness,)
        return ClauseCheck(name, witness is None, witness)

    hyp_names, concl_names = THEOREMS[theorem]
    hypotheses = tuple(map(check, hyp_names))
    conclusions = tuple(map(check, concl_names))
    if not all(h.holds for h in hypotheses):
        verdict = "vacuous"
    elif all(c.holds for c in conclusions):
        verdict = "confirmed"
    else:
        verdict = "VIOLATION"
    return TheoremReport(theorem=theorem, hypotheses=hypotheses,
                         conclusions=conclusions, verdict=verdict)


def orthogonal_decompositions_brute(
        S: FiniteSemiring, max_len: int) -> dict[int, list[tuple[int, ...]]]:
    """For every b, the sets of nonzero mutually orthogonal idempotents
    summing to b, of size up to max_len, by size then lexicographically:
    every subset of each size is tried and tested pair by pair."""
    idems = [e for e in S.elements if e != S.zero and S.times(e, e) == e]
    found: dict[int, list[tuple[int, ...]]] = {b: [] for b in S.elements}
    for r in range(1, min(max_len, len(idems)) + 1):
        for combo in itertools.combinations(idems, r):
            if any(S.times(u, v) != S.zero or S.times(v, u) != S.zero
                   for u, v in itertools.combinations(combo, 2)):
                continue
            found[S.sum(combo)].append(combo)
    return found


def _flatten(tables, n: int, perm: list[int]) -> bytes:
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    out = bytearray([n])
    for table in tables:
        for i in range(n):
            row = table[inv[i]]
            for j in range(n):
                out.append(perm[row[inv[j]]])
    return bytes(out)


def least_relabeling_brute(tables, n: int, pinned: dict[int, int],
                           blocks: list[list[int]]) -> tuple[bytes, list[int]]:
    """Least flattened relabeling of tables over the bijections that keep
    each pinned element at its given index and send the blocks, in order,
    onto the consecutive indices after the pinned ones: every such
    bijection is flattened, and the first least one in `itertools.product`
    order is returned."""
    base = [0] * n
    for e, p in pinned.items():
        base[e] = p
    best_key: bytes | None = None
    best_perm: list[int] | None = None
    for arrangement in itertools.product(
            *[itertools.permutations(b) for b in blocks]):
        perm = list(base)
        p = len(pinned)
        for block in arrangement:
            for e in block:
                perm[e] = p
                p += 1
        key = _flatten(tables, n, perm)
        if best_key is None or key < best_key:
            best_key = key
            best_perm = perm
    assert best_key is not None and best_perm is not None
    return best_key, best_perm


def canonical_search_brute(S: FiniteSemiring) -> tuple[bytes, list[int]]:
    """The canonical key and permutation by `least_relabeling_brute`, with
    zero pinned at 0, one at 1 and the rest in invariant-vector blocks."""
    vecs = invariant_vectors_brute(S)
    pinned = {S.zero: 0}
    if S.one != S.zero:
        pinned[S.one] = 1
    blocks: dict[tuple, list[int]] = {}
    for e in S.elements:
        if e not in pinned:
            blocks.setdefault(vecs[e], []).append(e)
    return least_relabeling_brute((S.add, S.mul), S.order, pinned,
                                  [blocks[v] for v in sorted(blocks)])


def automorphisms_brute(tables, n: int) -> list[tuple[int, ...]]:
    """Every permutation p of {0..n-1} with p[t[a][b]] == t[p[a]][p[b]]
    for each table t and all a, b, found by trying all n! of them."""
    return [p for p in itertools.permutations(range(n))
            if all(p[t[a][b]] == t[p[a]][p[b]]
                   for t in tables for a in range(n) for b in range(n))]


def commutative_monoids_brute(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Commutative monoid tables on {0..n-1} with identity 0, one per
    isomorphism class fixing 0: every symmetric table with identity 0 is
    checked for associativity in full, and the first of each class, keyed
    by `least_relabeling_brute`, is kept, in key order."""
    if n == 1:
        return [((0,),)]
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    found: dict[bytes, tuple[tuple[int, ...], ...]] = {}
    for values in itertools.product(range(n), repeat=len(cells)):
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            table[0][a] = table[a][0] = a
        for (i, j), v in zip(cells, values):
            table[i][j] = table[j][i] = v
        ok = True
        for a in range(n):
            for b in range(n):
                tab = table[a][b]
                for c in range(n):
                    if table[tab][c] != table[a][table[b][c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        frozen = tuple(tuple(row) for row in table)
        key, _ = least_relabeling_brute((frozen,), n, {0: 0},
                                        [list(range(1, n))])
        found.setdefault(key, frozen)
    return [found[k] for k in sorted(found)]


def mul_completions_brute(add, n: int, one: int):
    """Backtrack over the free multiplication cells in row-major order,
    values ascending, pruning each partial table by a rescan of every
    associativity and distributivity instance whose operands are already
    determined."""
    mul = [[-1] * n for _ in range(n)]
    for a in range(n):
        mul[0][a] = mul[a][0] = 0
        mul[one][a] = mul[a][one] = a
    free = [(i, j) for i in range(n) for j in range(n) if mul[i][j] == -1]

    def consistent() -> bool:
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                for c in range(n):
                    bc = mul[b][c]
                    if ab != -1 and bc != -1 and mul[ab][c] != -1 \
                            and mul[a][bc] != -1 and mul[ab][c] != mul[a][bc]:
                        return False
                    # a(b+c) == ab + ac
                    s = add[b][c]
                    if mul[a][s] != -1 and ab != -1 and mul[a][c] != -1 \
                            and mul[a][s] != add[ab][mul[a][c]]:
                        return False
                    # (a+b)c == ac + bc
                    t = add[a][b]
                    if mul[t][c] != -1 and mul[a][c] != -1 and bc != -1 \
                            and mul[t][c] != add[mul[a][c]][mul[b][c]]:
                        return False
        return True

    def fill(k: int):
        if k == len(free):
            yield tuple(tuple(row) for row in mul)
            return
        i, j = free[k]
        for v in range(n):
            mul[i][j] = v
            if consistent():
                yield from fill(k + 1)
        mul[i][j] = -1

    yield from fill(0)


def decided_instances_hold(t, add, n: int, cells) -> bool:
    """Whether the decided instances (a, b, c) of associativity of the
    partial table `t` (-1 marks a free cell) and, unless `add` is None, of
    both distributive laws over `add` hold, for a the row or c the column
    of a position in `cells`: a rescan of O(n^2) instances per row and
    column.  With every (a, a) in `cells` it checks every decided
    instance."""
    rows = {i for i, _ in cells}
    cols = {j for _, j in cells}
    for a in range(n):
        ta = t[a]
        for c in range(n) if a in rows else cols:
            ac = ta[c]
            for b in range(n):
                ab, bc = ta[b], t[b][c]
                if ab >= 0 and bc >= 0:
                    x, y = t[ab][c], ta[bc]
                    if x >= 0 and y >= 0 and x != y:
                        return False
                if add is None or ac < 0:
                    continue
                x = ta[add[b][c]]  # a(b+c) == ab + ac
                if ab >= 0 and x >= 0 and x != add[ab][ac]:
                    return False
                x = t[add[a][b]][c]  # (a+b)c == ac + bc
                if bc >= 0 and x >= 0 and x != add[ac][bc]:
                    return False
    return True


def endomorphisms_brute(add, n: int) -> list[tuple[int, ...]]:
    """Every map f of {0..n-1} with f(0) = 0 and f(a+b) = f(a) + f(b) for
    all a, b, found by trying all n^(n-1) of them, in ascending order."""
    return [f for f in ((0, *rest) for rest in
                        itertools.product(range(n), repeat=n - 1))
            if all(f[add[a][b]] == add[f[a]][f[b]]
                   for a in range(n) for b in range(n))]


def leader_walk_brute(t, spots, group) -> bool:
    """False if some relabeling p in `group` (old to new) shows, walking
    the fill positions `spots` from the first, an image cell smaller than
    the table's before it meets an image cell that reads a free cell (-1)
    or is larger; else True.  Every relabeling is walked afresh."""
    n = len(t)
    for p in group:
        inv = [0] * n
        for old, new in enumerate(p):
            inv[new] = old
        for i, j in spots:
            x = t[inv[i]][inv[j]]
            if x < 0:
                break
            x = p[x] - t[i][j]
            if x:
                if x < 0:
                    return False
                break
    return True


def brute_force_semiring_keys(n: int) -> set[bytes]:
    """Canonical keys of every semiring on {0..n-1}, from raw table pairs.

    No staging and no isomorphism reduction: each of the n^(n*n) addition
    tables is scanned for the additive axioms (identity at any position),
    each multiplication table for a two-sided identity, and every surviving
    pair goes through the full validator.  Keys come from
    `canonical_search_brute`, not from the library's search.
    """
    rng = range(n)
    flats = list(itertools.product(rng, repeat=n * n))

    def as_table(flat):
        return [list(flat[i * n:(i + 1) * n]) for i in rng]

    adds = []
    for flat in flats:
        t = as_table(flat)
        zeros = [z for z in rng if all(t[z][a] == a == t[a][z] for a in rng)]
        if not zeros:
            continue
        if any(t[a][b] != t[b][a] for a in rng for b in rng):
            continue
        if any(t[t[a][b]][c] != t[a][t[b][c]]
               for a in rng for b in rng for c in rng):
            continue
        adds.append((t, zeros[0]))

    keys: set[bytes] = set()
    for flat in flats:
        m = as_table(flat)
        ones = [e for e in rng if all(m[e][a] == a == m[a][e] for a in rng)]
        if not ones:
            continue
        if any(m[m[a][b]][c] != m[a][m[b][c]]
               for a in rng for b in rng for c in rng):
            continue
        for t, z in adds:
            if validate(t, m, z, ones[0]).valid:
                S = make_semiring(t, m, z, ones[0])
                keys.add(canonical_search_brute(S)[0])
    return keys


def multiplication_first_keys(n: int) -> set[bytes]:
    """Canonical keys of every semiring of order n with zero at 0 and one
    at 1 % n, by a census that fixes the multiplication first.

    Every associative `*` with 0 absorbing and identity 1 % n is built cell
    by cell, then for each of them every commutative, associative `+` with
    identity 0 that distributes over it on both sides.  A partial table
    (-1 marks a free cell) is dropped as soon as a law instance all of
    whose cells are set fails, found by a rescan of every instance.  No
    relabeling is reduced away; keys come from `canonical_search_brute`.
    """
    one = 1 % n
    rng = range(n)

    def fills(t, cells, holds):
        """Every way to give each group of positions in `cells` one value,
        in order, with holds(t) after each; t itself is yielded."""
        if not cells:
            yield t
            return
        for v in rng:
            for a, b in cells[0]:
                t[a][b] = v
            if holds(t):
                yield from fills(t, cells[1:], holds)
        for a, b in cells[0]:
            t[a][b] = -1

    def associative(t) -> bool:
        for a in rng:
            ta = t[a]
            for b in rng:
                ab, tb = ta[b], t[b]
                if ab < 0:
                    continue
                for c in rng:
                    bc = tb[c]
                    if bc >= 0:
                        x, y = t[ab][c], ta[bc]
                        if x != y and x >= 0 and y >= 0:
                            return False
        return True

    def distributive(add) -> bool:
        for a in rng:
            ma = mul[a]
            for b in rng:
                ab, ba = ma[b], mul[b][a]
                for c in rng:
                    s = add[b][c]
                    if s < 0:
                        continue
                    x = add[ab][ma[c]]  # a(b+c) == ab + ac
                    if x >= 0 and x != ma[s]:
                        return False
                    x = add[ba][mul[c][a]]  # (b+c)a == ba + ca
                    if x >= 0 and x != mul[s][a]:
                        return False
        return True

    mul = [[-1] * n for _ in rng]
    add = [[-1] * n for _ in rng]
    for a in rng:
        mul[0][a] = mul[a][0] = 0
        mul[one][a] = mul[a][one] = a
        add[0][a] = add[a][0] = a
    mul_cells = [[(a, b)] for a in rng for b in rng if mul[a][b] < 0]
    add_cells = [[(a, b), (b, a)] for a in range(1, n) for b in range(a, n)]
    keys: set[bytes] = set()
    for _ in fills(mul, mul_cells, associative):
        for _ in fills(add, add_cells,
                       lambda t: distributive(t) and associative(t)):
            S = make_semiring(add, mul, 0, one)
            keys.add(canonical_search_brute(S)[0])
    return keys


def expand_triple_product(u: tuple[int, int, int],
                          v: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product of a+bx+cy elements by full term expansion.

    Elements become multisets of words over {x, y} (the empty word is the
    constant 1); concatenation rewrites by xx->x, xy->x, yx->y, yy->y, so
    a nonempty word equals its first letter.
    """
    def words(t):
        a, b, c = t
        return {"": a, "x": b, "y": c}

    out = {"": 0, "x": 0, "y": 0}
    for w1, c1 in words(u).items():
        for w2, c2 in words(v).items():
            w = w1 + w2
            while len(w) > 1:
                w = w[0]
            out[w] += c1 * c2
    return (out[""], out["x"], out["y"])


def fixture_semirings() -> list[tuple[str, FiniteSemiring]]:
    return [
        ("bool", boolean_semiring()),
        ("z2", zmod(2)),
        ("z4", zmod(4)),
        ("z6", zmod(6)),
        ("z2x-sq", poly_quotient(zmod(2), [0, 0, 1])),
        ("z3x-sqm1", poly_quotient(zmod(3), [-1, 0, 1])),
        ("t2b", triangular_semiring(boolean_semiring(), 2)),
        ("m2z2", matrix_semiring(zmod(2), 2)),
    ]


def max_min_chain_semiring() -> FiniteSemiring:
    """The chain 0 < e < 1 with max as addition and min as multiplication;
    commutative, but the middle idempotent has no orthogonal complement."""
    add = [[max(i, j) for j in range(3)] for i in range(3)]
    mul = [[min(i, j) for j in range(3)] for i in range(3)]
    return make_semiring(add, mul, 0, 2, ("0", "e", "1"))


def doubled_one_semiring() -> FiniteSemiring:
    """Order 5: 1 + 1 = 2, every other sum of two nonzero elements is 4,
    and so is every product of two elements outside {0, 1}.  The elements
    2 and 3 share their invariant vector; only the sum 1 + 1 tells them
    apart."""
    add = [[int(c) for c in row] for row in "01234 12444 24444 34444 44444".split()]
    mul = [[int(c) for c in row] for row in "00000 01234 02444 03444 04444".split()]
    return make_semiring(add, mul, 0, 1)
