"""Constructive procedures and theorem checks over finite semirings:
closures and generation certificates, orthogonal and nilorthogonal
complements, nilidempotent lifting, unipotent inversion, Peirce
factorization, isomorphism search, and per-theorem verdicts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    CONCL_BOOLEAN,
    CONCL_COMMUTATIVE,
    HYP_ADD_GEN_IDEM,
    HYP_MULT_GEN_IDEM,
    HYP_MULT_GEN_NILIDEM,
    HYP_NIL_IN_V_AND_Z,
    HYP_NIL_IN_Z,
    HYP_NILORTH_COMPLEMENTS,
    HYP_ORTH_COMPLEMENTS,
    THEOREM_IDS,
    THEOREMS,
    DomainError,
    ElementSet,
    FiniteSemiring,
    InternalCheckError,
    additive_inverse,
    element_classes,
    invariant_vectors,  # re-exported: `semirings.ops.invariant_vectors`
    is_nilpotent,
    nilpotency_index,
    noncommuting_pair,
    non_idempotent_element,
    power,
    scalar_repeat,
    tabulate,
)

MODE_MULT = "multiplicative"
MODE_ADD = "additive"
GEN_IDEMPOTENTS = "idempotents"
GEN_NILIDEMPOTENTS = "nilidempotents"

VERDICT_CONFIRMED = "confirmed"
VERDICT_VACUOUS = "vacuous"
VERDICT_VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class GenerationCertificate:
    mode: str
    generator_class: str
    generated: bool
    expressions: dict[int, tuple[int, ...]]
    uncovered: ElementSet


@dataclass(frozen=True)
class ComplementWitness:
    e: int
    f: int
    kind: str  # "orthogonal" | "nilorthogonal"
    x: int     # nilpotent correction; 0 for orthogonal


@dataclass(frozen=True)
class LiftTrace:
    g0: int
    z0: int
    steps: tuple[tuple[int, int, int], ...]  # (g_k, z_k, w_k) per iteration
    f: int
    correction: int
    iterations: int


@dataclass(frozen=True)
class PeirceResult:
    primitives: tuple[int, ...]
    factors: tuple[FiniteSemiring, ...]
    carriers: tuple[tuple[int, ...], ...]  # factor index -> parent elements
    iso: dict[int, tuple[int, ...]]
    factor_classification: tuple[str, ...]


@dataclass(frozen=True)
class ClauseCheck:
    name: str
    holds: bool
    witness: tuple[int, ...] | None  # counterexample when the clause fails


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    hypotheses: tuple[ClauseCheck, ...]
    conclusions: tuple[ClauseCheck, ...]
    verdict: str


def _words(op, gens) -> dict[int, tuple[int, ...]]:
    """Breadth-first search over right-extension by a generator, keeping
    one shortest word per element reached.

    Every length-k word is a length-(k-1) word extended by one generator,
    so the first word found for an element is a shortest one.  The reach
    is the closure of gens under op whenever op is associative.
    """
    words: dict[int, tuple[int, ...]] = {}
    queue: list[int] = []
    for g in gens:
        if g not in words:
            words[g] = (g,)
            queue.append(g)
    head = 0
    while head < len(queue):
        e = queue[head]
        head += 1
        for g in gens:
            c = op(e, g)
            if c not in words:
                words[c] = words[e] + (g,)
                queue.append(c)
    return words


def _closure(S: FiniteSemiring, G: ElementSet, op) -> ElementSet:
    if G.carrier_order != S.order:
        raise DomainError("generator set indexes a different carrier")
    if not G:
        raise DomainError("closure of the empty set is undefined here")
    return ElementSet.of(_words(op, list(G)), S.order)


def mult_closure(S: FiniteSemiring, G: ElementSet) -> ElementSet:
    """Least superset of G closed under multiplication."""
    return _closure(S, G, S.times)


def add_closure(S: FiniteSemiring, G: ElementSet) -> ElementSet:
    """Least superset of G closed under addition."""
    return _closure(S, G, S.plus)


def _generator_set(S: FiniteSemiring, generator_class: str) -> ElementSet:
    classes = element_classes(S)
    if generator_class == GEN_IDEMPOTENTS:
        return classes.idempotents
    if generator_class == GEN_NILIDEMPOTENTS:
        return classes.nilidempotents
    raise DomainError(f"unknown generator class {generator_class!r}")


def generation_certificate(S: FiniteSemiring, mode: str,
                           generator_class: str) -> GenerationCertificate:
    """Breadth-first closure keeping one shortest expression per element.

    Expressions are sequences of generators whose ordered product (additive
    mode: sum) re-evaluates to the element.
    """
    if mode == MODE_MULT:
        op = S.times
    elif mode == MODE_ADD:
        op = S.plus
    else:
        raise DomainError(f"unknown generation mode {mode!r}")
    expressions = _words(op, list(_generator_set(S, generator_class)))
    covered = ElementSet.of(expressions, S.order)
    uncovered = covered.complement()
    return GenerationCertificate(mode=mode, generator_class=generator_class,
                                 generated=not uncovered,
                                 expressions=expressions, uncovered=uncovered)


def _require_idempotent(S: FiniteSemiring, e: int) -> None:
    if e not in element_classes(S).idempotents:
        raise DomainError(f"element {S.labels[e]!r} is not idempotent")


def orthogonal_complement(S: FiniteSemiring, e: int) -> ComplementWitness | None:
    """Smallest-index idempotent f with e + f = 1 and ef = fe = 0."""
    _require_idempotent(S, e)
    for f in element_classes(S).idempotents:
        if (S.plus(e, f) == S.one
                and S.times(e, f) == S.zero and S.times(f, e) == S.zero):
            return ComplementWitness(e=e, f=f, kind="orthogonal", x=S.zero)
    return None


def _nilorth_candidates(S: FiniteSemiring, e: int):
    classes = element_classes(S)
    for f in classes.nilidempotents:
        # fe is nilpotent whenever ef is: (ef)^k = 0 gives
        # (fe)^(k+1) = f (ef)^k e = 0, so ef alone decides
        if S.times(e, f) not in classes.nilpotents:
            continue
        ef_sum = S.plus(e, f)
        for x in classes.nilpotents:
            if S.plus(S.one, x) == ef_sum:
                yield ComplementWitness(e=e, f=f, kind="nilorthogonal", x=x)


def nilorthogonal_complement(S: FiniteSemiring, e: int) -> ComplementWitness | None:
    """First (f, x) in lexicographic index order with f nilidempotent,
    x nilpotent, e + f = 1 + x, and ef, fe both nilpotent."""
    _require_idempotent(S, e)
    return next(_nilorth_candidates(S, e), None)


def nilorthogonal_complements(S: FiniteSemiring, e: int) -> list[ComplementWitness]:
    """All valid (f, x) witnesses, in lexicographic index order."""
    _require_idempotent(S, e)
    return list(_nilorth_candidates(S, e))


def orthogonal_decompositions(S: FiniteSemiring, b: int,
                              max_len: int) -> list[tuple[int, ...]]:
    """All sets of nonzero mutually orthogonal idempotents summing to b,
    of size up to max_len, as sorted tuples by size, then lexicographically.

    A set grows only by later idempotents orthogonal to all its members, so
    only orthogonal sets are visited, in lexicographic order."""
    if max_len < 1:
        raise DomainError("max_len must be at least 1")
    found: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], total: int, later: list[int]) -> None:
        # later: the idempotents after chosen[-1] orthogonal to all of chosen
        for i, e in enumerate(later):
            grown, grown_total = chosen + (e,), S.plus(total, e)
            if grown_total == b:
                found.append(grown)
            if len(grown) < max_len:
                extend(grown, grown_total,
                       [f for f in later[i + 1:] if S.times(e, f) == S.zero
                        and S.times(f, e) == S.zero])

    extend((), S.zero, [e for e in element_classes(S).idempotents if e != S.zero])
    found.sort(key=len)
    return found


def _lift_cap(S: FiniteSemiring, z: int) -> int:
    nu = element_classes(S).nilpotency_index[z]
    # ceil(log2(nu)) + 2; the defect shrinks as z^(2^k) * s per iteration.
    return max(0, (nu - 1).bit_length()) + 2


def _try_lift(S: FiniteSemiring, g: int, z: int) -> LiftTrace | None:
    """Run the correction iteration from defect z; None if the cap is hit."""
    if z == S.zero:
        return LiftTrace(g0=g, z0=z, steps=(), f=g, correction=S.zero,
                         iterations=0)
    cap = _lift_cap(S, z)
    gk, zk = g, z
    steps: list[tuple[int, int, int]] = []
    ws: list[int] = []
    for _ in range(cap):
        neg_zk = additive_inverse(S, zk)
        if neg_zk is None:
            return None
        w = S.plus(zk, scalar_repeat(S, 2, S.times(gk, neg_zk)))
        gk = S.plus(gk, w)
        zk_sq = S.times(zk, zk)
        neg_zk_sq = additive_inverse(S, zk_sq)
        if neg_zk_sq is None:
            return None
        zk = S.plus(scalar_repeat(S, 4, S.times(zk_sq, zk)),
                    scalar_repeat(S, 3, neg_zk_sq))
        ws.append(w)
        steps.append((gk, zk, w))
        if S.times(gk, gk) != S.plus(gk, zk):
            raise InternalCheckError(
                "lift iteration lost its defect equation; this contradicts "
                "the derivation it implements")
        if zk == S.zero:
            correction = S.sum(ws)
            f = gk
            if S.times(f, f) != f or S.plus(g, correction) != f \
                    or not is_nilpotent(S, correction):
                raise InternalCheckError("lift postconditions failed")
            return LiftTrace(g0=g, z0=z, steps=tuple(steps), f=f,
                             correction=correction, iterations=len(steps))
    return None


def lift_nilidempotent(S: FiniteSemiring, g: int) -> LiftTrace:
    """Correct a nilidempotent g into an idempotent f = g + n, n nilpotent.

    Defect candidates z with g*g = g + z are tried in index order; a
    candidate is admissible when z is nilpotent, additively invertible and
    central.  The iteration g <- g + (z + 2g(-z)) squeezes the defect to
    zero within ceil(log2(nilpotency index)) + 2 rounds.
    """
    classes = element_classes(S)
    g_sq = S.times(g, g)
    if g not in classes.nilidempotents:
        raise DomainError(f"element {S.labels[g]!r} is not nilidempotent")
    admissible = [z for z in classes.nilpotents
                  if g_sq == S.plus(g, z)
                  and z in classes.additively_invertible
                  and z in classes.center]
    if not admissible:
        raise DomainError(
            f"no admissible defect for {S.labels[g]!r}: need a central, "
            "additively invertible nilpotent z with g*g = g + z")
    for z in admissible:
        trace = _try_lift(S, g, z)
        if trace is not None:
            return trace
    raise InternalCheckError(
        "every admissible defect exceeded the iteration cap; this "
        "contradicts the termination argument")


def invert_unipotent(S: FiniteSemiring, x: int) -> int:
    """Two-sided inverse of 1 + x for nilpotent, additively invertible x.

    Uses the telescoping product (1 + (-x))(1 + x^2)(1 + x^4)... whose
    product with 1 + x collapses to 1 - x^(2^k) = 1.
    """
    nu = nilpotency_index(S, x)
    if nu is None:
        raise DomainError(f"element {S.labels[x]!r} is not nilpotent")
    neg_x = additive_inverse(S, x)
    if neg_x is None:
        raise DomainError(f"element {S.labels[x]!r} is not additively invertible")
    k = max(1, (nu - 1).bit_length())
    y = S.plus(S.one, neg_x)
    for j in range(1, k):
        y = S.times(y, S.plus(S.one, power(S, x, 2 ** j)))
    u = S.plus(S.one, x)
    if S.times(u, y) != S.one or S.times(y, u) != S.one:
        raise InternalCheckError("telescoping product is not an inverse; "
                                 "this contradicts the construction")
    return y


FACTOR_ISO_BOOL = "iso-to-bool"
FACTOR_ISO_Z2 = "iso-to-z2"
FACTOR_NO_NONTRIVIAL_IDEMPOTENTS = "other-no-nontrivial-idempotents"
FACTOR_OTHER = "other"


def _classify_factor(F: FiniteSemiring) -> str:
    """The Boolean semiring and Z/2 are the semirings of order 2: zero and
    one fix the multiplication, and 1 + 1 is one or zero."""
    if F.order == 2:
        return FACTOR_ISO_BOOL if F.plus(F.one, F.one) == F.one else FACTOR_ISO_Z2
    if len(element_classes(F).idempotents) > 2:  # more than zero and one
        return FACTOR_OTHER
    return FACTOR_NO_NONTRIVIAL_IDEMPOTENTS


def peirce_decompose(S: FiniteSemiring) -> PeirceResult:
    """Split a commutative semiring along its primitive idempotents.

    Requires every idempotent to have an orthogonal complement; both
    preconditions are read off their clauses (`check_clause`).  Primitive
    means minimal nonzero under e <= f iff ef = e.  The factor at e is the
    carrier e*S with identity e; the map s -> (e_1 s, ..., e_k s) is
    verified to be an isomorphism onto the direct product.
    """
    commutative = check_clause(S, CONCL_COMMUTATIVE)
    if not commutative.holds:
        a, b = commutative.witness
        raise DomainError(
            f"not commutative: {S.labels[a]!r} and {S.labels[b]!r} do not commute")
    complemented = check_clause(S, HYP_ORTH_COMPLEMENTS)
    if not complemented.holds:
        e, = complemented.witness
        raise DomainError(
            f"idempotent {S.labels[e]!r} has no orthogonal complement")
    nonzero = [e for e in element_classes(S).idempotents if e != S.zero]
    primitives = [e for e in nonzero
                  if all(g == e or S.times(g, e) != g for g in nonzero)]
    for u, v in itertools.combinations(primitives, 2):
        if S.times(u, v) != S.zero or S.times(v, u) != S.zero:
            raise InternalCheckError(
                "primitive idempotents are not pairwise orthogonal")
    if S.sum(primitives) != S.one:
        raise InternalCheckError("primitive idempotents do not sum to 1")

    factors: list[FiniteSemiring] = []
    carriers: list[tuple[int, ...]] = []
    for e in primitives:
        # listed in the factor's element order
        rest = {S.times(e, s) for s in S.elements} - {S.zero, e}
        carrier = (S.zero, e, *sorted(rest))
        factors.append(tabulate(carrier, S.plus, S.times, S.zero, e, S.label))
        carriers.append(carrier)

    iso: dict[int, tuple[int, ...]] = {}
    for s in S.elements:
        image = []
        for e, factor, carrier in zip(primitives, factors, carriers):
            component = S.times(e, s)
            image.append(carrier.index(component))
        iso[s] = tuple(image)

    expected = 1
    for factor in factors:
        expected *= factor.order
    if expected != S.order or len(set(iso.values())) != S.order:
        raise InternalCheckError("Peirce map is not a bijection")
    for a in S.elements:
        for b in S.elements:
            sum_img = tuple(F.plus(x, y) for F, x, y
                            in zip(factors, iso[a], iso[b]))
            prod_img = tuple(F.times(x, y) for F, x, y
                             in zip(factors, iso[a], iso[b]))
            if iso[S.plus(a, b)] != sum_img or iso[S.times(a, b)] != prod_img:
                raise InternalCheckError("Peirce map is not a homomorphism")

    classification = tuple(_classify_factor(F) for F in factors)
    return PeirceResult(primitives=tuple(primitives), factors=tuple(factors),
                        carriers=tuple(carriers), iso=iso,
                        factor_classification=classification)


def isomorphic(S: FiniteSemiring, T: FiniteSemiring) -> tuple[int, ...] | None:
    """An isomorphism S -> T as the tuple of images, or None.

    The invariant-vector blocks of S and T must agree in vector and size,
    and each element of S maps into the matching block of T, so zero goes
    to zero and one to one, each alone in its block.  The elements of S,
    by the size of their block, ties by index, try the unused elements of
    that block in ascending order.  An image stays only if the sums and
    products of its element with every mapped one map consistently; a
    full map is returned only if it carries both tables, else the search
    backtracks.  As no pruning drops an extendable prefix, the witness is
    the isomorphism whose images, in that order, are lexicographically
    least.
    """
    if ([(v, len(b)) for v, b in S._blocks]
            != [(v, len(b)) for v, b in T._blocks]):
        return None
    targets: list[list[int]] = [[]] * S.order  # element of S -> block of T
    for (_, mine), (_, theirs) in zip(S._blocks, T._blocks):
        for a in mine:
            targets[a] = theirs
    elements = sorted(S.elements, key=lambda a: len(targets[a]))
    mapping, inv = [-1] * S.order, [-1] * T.order  # S -> T, T -> S
    tries: list = []  # the untried images of elements[0], elements[1], ...

    def fits(a: int, done: list[int]) -> bool:
        b = mapping[a]
        for u in done:
            v = mapping[u]
            # + is commutative, so one operand order checks each sum
            for s, t in ((S.add[a][u], T.add[b][v]), (S.mul[a][u], T.mul[b][v]),
                         (S.mul[u][a], T.mul[v][b])):
                if mapping[s] != t and (mapping[s] >= 0 or inv[t] >= 0):
                    return False
        return True

    def advance(i: int) -> bool:
        """Move elements[i] to its next unused image that fits, if any."""
        a = elements[i]
        if mapping[a] >= 0:
            inv[mapping[a]] = -1
            mapping[a] = -1
        for b in tries[i]:
            if inv[b] < 0:
                mapping[a], inv[b] = b, a
                if fits(a, elements[:i + 1]):
                    return True
                mapping[a], inv[b] = -1, -1
        return False

    def carries() -> bool:
        image = mapping.__getitem__
        return all(list(map(image, s[a])) == list(map(t[b].__getitem__, mapping))
                   for s, t in ((S.add, T.add), (S.mul, T.mul))
                   for a, b in enumerate(mapping))

    # Depth-first without recursion, so carriers of any size fit the stack.
    while True:
        if len(tries) < S.order:
            tries.append(iter(targets[elements[len(tries)]]))
        elif carries():
            return tuple(mapping)
        while tries and not advance(len(tries) - 1):
            tries.pop()
        if not tries:
            return None


def idempotent_without_orthogonal_complement(S: FiniteSemiring) -> int | None:
    return next((e for e in element_classes(S).idempotents
                 if orthogonal_complement(S, e) is None), None)


def idempotent_without_nilorthogonal_complement(S: FiniteSemiring) -> int | None:
    return next((e for e in element_classes(S).idempotents
                 if next(_nilorth_candidates(S, e), None) is None), None)


def nilpotent_outside_center(S: FiniteSemiring) -> int | None:
    classes = element_classes(S)
    return min(classes.nilpotents.difference(classes.center), default=None)


def nilpotent_outside_v_and_z(S: FiniteSemiring) -> int | None:
    classes = element_classes(S)
    v_and_z = classes.additively_invertible.intersection(classes.center)
    return min(classes.nilpotents.difference(v_and_z), default=None)


def _ungenerated(S: FiniteSemiring, mode: str, generator_class: str) -> int | None:
    cert = generation_certificate(S, mode, generator_class)
    return None if cert.generated else min(cert.uncovered)


# clause name -> (scan flag, finder of a counterexample: an element, a
# pair, or None when the clause holds), in scan-flag order.  Finders are
# looked up at call time so that replacing one on this module replaces it
# everywhere.
CLAUSES = {
    CONCL_BOOLEAN: ("boolean", lambda S: non_idempotent_element(S)),
    CONCL_COMMUTATIVE: ("commutative", lambda S: noncommuting_pair(S)),
    HYP_MULT_GEN_IDEM: ("mult-gen-idempotents",
                        lambda S: _ungenerated(S, MODE_MULT, GEN_IDEMPOTENTS)),
    HYP_MULT_GEN_NILIDEM: ("mult-gen-nilidempotents",
                           lambda S: _ungenerated(S, MODE_MULT,
                                                  GEN_NILIDEMPOTENTS)),
    HYP_ADD_GEN_IDEM: ("add-gen-idempotents",
                       lambda S: _ungenerated(S, MODE_ADD, GEN_IDEMPOTENTS)),
    HYP_ORTH_COMPLEMENTS:
        ("orthogonal-complements",
         lambda S: idempotent_without_orthogonal_complement(S)),
    HYP_NILORTH_COMPLEMENTS:
        ("nilorthogonal-complements",
         lambda S: idempotent_without_nilorthogonal_complement(S)),
    HYP_NIL_IN_Z: ("nil-in-z", lambda S: nilpotent_outside_center(S)),
    HYP_NIL_IN_V_AND_Z: ("nil-in-vz", lambda S: nilpotent_outside_v_and_z(S)),
}


def check_clause(S: FiniteSemiring, name: str) -> ClauseCheck:
    """Evaluate one clause of `CLAUSES` on S.

    Each clause is evaluated at most once per semiring, when first asked
    for; the check is kept with S and shared by every later caller."""
    checks = S._clauses
    if name not in checks:
        witness = CLAUSES[name][1](S)
        if isinstance(witness, int):
            witness = (witness,)
        checks[name] = ClauseCheck(name, witness is None, witness)
    return checks[name]


def check_theorem(S: FiniteSemiring, theorem: str) -> TheoremReport:
    """Evaluate one theorem's hypotheses and conclusions on S, each
    through `check_clause`.

    confirmed: everything holds.  vacuous: some hypothesis fails.
    VIOLATION: hypotheses hold but a conclusion fails, which would refute
    the statement being tested.
    """
    try:
        hyp_names, concl_names = THEOREMS[theorem]
    except KeyError:
        raise DomainError(f"unknown theorem id {theorem!r}") from None
    hypotheses = tuple(check_clause(S, name) for name in hyp_names)
    conclusions = tuple(check_clause(S, name) for name in concl_names)
    if all(h.holds for h in hypotheses):
        verdict = VERDICT_CONFIRMED if all(c.holds for c in conclusions) \
            else VERDICT_VIOLATION
    else:
        verdict = VERDICT_VACUOUS
    return TheoremReport(theorem=theorem, hypotheses=hypotheses,
                         conclusions=conclusions, verdict=verdict)
