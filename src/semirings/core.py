"""Finite semirings as explicit operation tables.

A semiring is a carrier {0, .., order-1} with addition and multiplication
given by full Cayley tables: (S, +) a commutative monoid with identity
`zero`, (S, *) a monoid with identity `one`, two-sided distributivity, and
`zero` annihilating everything.  Everything in this module is a pure read
over immutable tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator


class SemiringError(Exception):
    """Base class for every error this package raises on purpose."""


class MalformedTableError(SemiringError):
    """Tables are structurally broken, before any axiom is judged."""


class InvalidSemiringError(SemiringError):
    """Well-formed tables that violate at least one semiring axiom."""

    def __init__(self, report: "AxiomReport"):
        self.report = report
        first = report.violations[0]
        super().__init__(
            f"{len(report.violations)} axiom violation(s), "
            f"first: {first.axiom} at witness {first.witness}"
        )


class DomainError(SemiringError):
    """An operation was applied outside its documented domain."""


class InternalCheckError(SemiringError):
    """A check that provably cannot fail did fail; a bug, not bad input."""


@dataclass(frozen=True)
class AxiomViolation:
    # witness is always a triple; axioms quantifying fewer than three
    # elements pad the unused trailing positions with 0.
    axiom: str
    witness: tuple[int, int, int]


@dataclass(frozen=True)
class AxiomReport:
    valid: bool
    violations: tuple[AxiomViolation, ...]


@dataclass(frozen=True)
class ElementSet:
    """Subset of a fixed carrier, stored as a bitmask."""

    mask: int
    carrier_order: int

    @classmethod
    def empty(cls, order: int) -> "ElementSet":
        return cls(0, order)

    @classmethod
    def full(cls, order: int) -> "ElementSet":
        return cls((1 << order) - 1, order)

    @classmethod
    def of(cls, members: Iterable[int], order: int) -> "ElementSet":
        mask = 0
        for i in members:
            if not 0 <= i < order:
                raise ValueError(f"element {i} outside carrier of order {order}")
            mask |= 1 << i
        return cls(mask, order)

    def _same_carrier(self, other: "ElementSet") -> None:
        if self.carrier_order != other.carrier_order:
            raise ValueError("set operations require equal carrier orders")

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.carrier_order and bool((self.mask >> i) & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def add(self, i: int) -> "ElementSet":
        if not 0 <= i < self.carrier_order:
            raise ValueError(f"element {i} outside carrier")
        return ElementSet(self.mask | (1 << i), self.carrier_order)

    def union(self, other: "ElementSet") -> "ElementSet":
        self._same_carrier(other)
        return ElementSet(self.mask | other.mask, self.carrier_order)

    def intersection(self, other: "ElementSet") -> "ElementSet":
        self._same_carrier(other)
        return ElementSet(self.mask & other.mask, self.carrier_order)

    def difference(self, other: "ElementSet") -> "ElementSet":
        self._same_carrier(other)
        return ElementSet(self.mask & ~other.mask, self.carrier_order)

    def complement(self) -> "ElementSet":
        return ElementSet(~self.mask & ((1 << self.carrier_order) - 1),
                          self.carrier_order)

    def issubset(self, other: "ElementSet") -> bool:
        self._same_carrier(other)
        return self.mask & ~other.mask == 0


@dataclass(frozen=True)
class FiniteSemiring:
    """Validated operation tables with distinguished zero and one.

    Immutable; construct through :func:`make_semiring` so the axioms are
    checked exactly once.
    """

    order: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    labels: tuple[str, ...]

    def plus(self, a: int, b: int) -> int:
        return self.add[a][b]

    def times(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def sum(self, xs: Iterable[int]) -> int:
        acc = self.zero
        for x in xs:
            acc = self.add[acc][x]
        return acc

    def product(self, xs: Iterable[int]) -> int:
        acc = self.one
        for x in xs:
            acc = self.mul[acc][x]
        return acc

    @property
    def elements(self) -> range:
        return range(self.order)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def label(self, i: int) -> str:
        return self.labels[i]

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def _classes(self) -> tuple[ClassReport, list[tuple]]:
        return _classify(self)

    @cached_property
    def _clauses(self) -> dict:
        """Clause name -> its check, filled in by `ops.check_clause`."""
        return {}

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise DomainError(f"unknown element label {label!r}") from None

    def __repr__(self) -> str:
        return f"FiniteSemiring(order={self.order}, labels={list(self.labels)})"


@dataclass(frozen=True)
class ClassReport:
    """The distinguished subsets of a semiring, computed exhaustively."""

    idempotents: ElementSet
    nilpotents: ElementSet
    nilidempotents: ElementSet
    additively_invertible: ElementSet
    additive_inverse_witness: dict[int, int]
    center: ElementSet
    units: ElementSet
    unit_witness: dict[int, int]
    nilpotency_index: dict[int, int]


def _tables_as_tuples(table) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in table)


def _check_structure(add, mul, zero: int, one: int) -> int:
    n = len(add)
    if n == 0:
        raise MalformedTableError("tables must have at least one element")
    if len(mul) != n:
        raise MalformedTableError("add and mul tables must have equal order")
    for name, table in (("add", add), ("mul", mul)):
        for i, row in enumerate(table):
            if len(row) != n:
                raise MalformedTableError(f"{name} row {i} has length "
                                          f"{len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise MalformedTableError(
                        f"{name}[{i}][{j}] = {v!r} is not an element index")
    for name, v in (("zero", zero), ("one", one)):
        if not isinstance(v, int) or not 0 <= v < n:
            raise MalformedTableError(f"{name} = {v!r} is not an element index")
    return n


# Below this order the plain sweep is cheaper than finding generators.
_SWEEP_BELOW = 8


def validate(add, mul, zero: int, one: int) -> AxiomReport:
    """Check every semiring axiom, listing all violated instances.

    From order 8 on, a fast path checks the identity, annihilation and
    additive commutativity laws in full, and the associative and
    distributive laws only at the elements of a generating set, in
    O(n^2 |G|) steps instead of O(n^3); that is a proof that the tables are
    a semiring, not a sample (see `_generated_laws_hold`).  If any of its
    checks fails, and always on smaller carriers, `_sweep` lists every
    violated instance in the order of the plain O(n^3) loops; from order 8
    on it first screens each law by whole rows and loops over c only where
    a screen fails.  Either way the report is the same.

    Structural problems (non-square tables, out-of-range entries) raise
    MalformedTableError instead of being reported as axiom violations.
    """
    n = _check_structure(add, mul, zero, one)
    if n >= _SWEEP_BELOW and _generated_laws_hold(add, mul, zero, one, n):
        return AxiomReport(valid=True, violations=())
    bad = _sweep(add, mul, zero, one, n)
    return AxiomReport(valid=not bad, violations=tuple(bad))


def _generators(table, seeds: Iterable[int], n: int) -> list[int]:
    """A generating set of (carrier, table), found greedily.

    Takes the seeds, then the least element not yet reached, until every
    element is reached: is a generator or a reached element times a
    generator on the right.
    """
    gens: list[int] = []
    found: list[int] = []
    reached = [False] * n
    for g in (*seeds, *range(n)):
        if len(found) == n:
            break
        if reached[g]:
            continue
        i = len(found)
        for v in [g] + [table[r][g] for r in found]:
            if not reached[v]:
                reached[v] = True
                found.append(v)
        gens.append(g)
        while i < len(found):
            row = table[found[i]]
            for h in gens:
                v = row[h]
                if not reached[v]:
                    reached[v] = True
                    found.append(v)
            i += 1
    return gens


def _generated_table(carrier, index, op, seeds) -> list[tuple[int, ...]]:
    """The table of an associative operation op on `carrier`, evaluating
    op only on the rows of a generating set.

    The generating set is the greedy one `_generators` would find in the
    finished table.  Every other x is first reached as x = x'g, with x'
    reached before it and g a generator; associativity gives
    (x'g)y = x'(gy), so row(x)[y] = row(x')[row(g)[y]] and row(x) is one
    gather of row(x') along row(g).  For matrices over a semiring, sum and
    product are associative, so this is the table `tabulate` would build.
    """
    n = len(carrier)
    rows: list = [None] * n
    gathers: dict[int, itemgetter] = {}  # generator -> gather along its row
    found: list[int] = []
    for g in (*seeds, *range(n)):
        if len(found) == n:
            break
        if rows[g] is not None:
            continue
        x = carrier[g]
        rows[g] = tuple(index[op(x, y)] for y in carrier)
        i = len(found)
        found.append(g)
        gathers[g] = gather = itemgetter(*rows[g])
        for r in found[:i]:
            v = rows[r][g]
            if rows[v] is None:
                rows[v] = gather(rows[r])
                found.append(v)
        while i < len(found):
            row = rows[found[i]]
            for h, gather in gathers.items():
                v = row[h]
                if rows[v] is None:
                    rows[v] = gather(row)
                    found.append(v)
            i += 1
    return rows


def _generated_laws_hold(add, mul, zero: int, one: int, n: int) -> bool:
    """True only if the tables form a semiring; False means "sweep".

    Call g good for a law if it holds at g for all x, y.  Good sets are
    closed under the operation (Light's test): if g, h are good for
    (xg)y = x(gy), then (x(gh))y = ((xg)h)y = (xg)(hy) = x(g(hy)) = x((gh)y),
    and likewise for +.  Given associativity, g, h good for g(x+y) = gx+gy
    give (gh)(x+y) = g(hx+hy) = (gh)x+(gh)y, and the same on the right.  A
    closed set holding a generating set is the whole carrier.
    """
    add_zero, mul_zero, mul_one = add[zero], mul[zero], mul[one]
    for a in range(n):
        if (add_zero[a] != a or add[a][zero] != a or mul_one[a] != a
                or mul[a][one] != a or mul_zero[a] != zero or mul[a][zero] != zero):
            return False
    for a in range(n):
        row = add[a]
        if any(row[b] != add[b][a] for b in range(a)):
            return False
    for g in _generators(add, (zero,), n):
        # (x+g)+y = x+(g+y), as rows over y
        plus_g = itemgetter(*add[g])
        if any(tuple(add[ax[g]]) != plus_g(ax) for ax in add):
            return False
    gens = _generators(mul, (zero, one), n)
    for g in gens:
        # (xg)y = x(gy), as rows over y
        times_g = itemgetter(*mul[g])
        if any(tuple(mul[mx[g]]) != times_g(mx) for mx in mul):
            return False
    sides = []
    for g in gens:
        left, right = mul[g], tuple(map(itemgetter(g), mul))
        sides.append((left, itemgetter(*left), right, itemgetter(*right)))
    for x, ax in enumerate(add):
        plus_x = itemgetter(*ax)
        for left, at_left, right, at_right in sides:
            # g(x+y) = gx+gy and (x+y)g = xg+yg, as rows over y
            if (plus_x(left) != at_left(add[left[x]])
                    or plus_x(right) != at_right(add[right[x]])):
                return False
    return True


def _sweep(add, mul, zero: int, one: int, n: int) -> list[AxiomViolation]:
    """Every violated axiom instance, in the order of direct O(n^3) loops.

    The loop over c runs for each (a, b) below order `_SWEEP_BELOW`, and
    from there on only for the (a, b) that `_suspects` keeps; every other
    (a, b) holds all four laws for every c, so the list is the same.
    """
    rng = range(n)
    bad: list[AxiomViolation] = []

    for a in rng:
        if add[zero][a] != a or add[a][zero] != a:
            bad.append(AxiomViolation("add-identity", (a, 0, 0)))
        if mul[one][a] != a or mul[a][one] != a:
            bad.append(AxiomViolation("mul-identity", (a, 0, 0)))
        if mul[zero][a] != zero:
            bad.append(AxiomViolation("left-annihilation", (a, 0, 0)))
        if mul[a][zero] != zero:
            bad.append(AxiomViolation("right-annihilation", (a, 0, 0)))
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                bad.append(AxiomViolation("add-commutativity", (a, b, 0)))
    suspects = [rng] * n if n < _SWEEP_BELOW else _suspects(add, mul, n)
    for a in rng:
        adda, mula = add[a], mul[a]
        for b in suspects[a]:
            addb, mulb = add[b], mul[b]
            # rows for (a+b)+c, (ab)c, ab+ac and (a+b)c
            add_ab, mul_ab = add[adda[b]], mul[mula[b]]
            add_mab, mul_aab = add[mula[b]], mul[adda[b]]
            for c in rng:
                if add_ab[c] != adda[addb[c]]:
                    bad.append(AxiomViolation("add-associativity", (a, b, c)))
                if mul_ab[c] != mula[mulb[c]]:
                    bad.append(AxiomViolation("mul-associativity", (a, b, c)))
                if mula[addb[c]] != add_mab[mula[c]]:
                    bad.append(AxiomViolation("left-distributivity", (a, b, c)))
                if mul_aab[c] != add[mula[c]][mulb[c]]:
                    bad.append(AxiomViolation("right-distributivity", (a, b, c)))
    return bad


def _suspects(add, mul, n: int) -> list[list[int]]:
    """For each a, the b, in order, at which some c breaks associativity
    or distributivity, found by comparing whole rows.

    at_x = itemgetter(*x) composes a row with x: at_x(r)[i] = r[x[i]].  One
    getter per row of + and * and per column of *, built once, gives the
    three laws for each (a, b) as rows over c, and right distributivity,
    (a+b)c = ac + bc, for each (a, c) as rows over b, from column c of *.
    """
    add = [tuple(row) for row in add]
    mul = [tuple(row) for row in mul]
    cols = list(zip(*mul))
    at_add = [itemgetter(*row) for row in add]
    at_mul = [itemgetter(*row) for row in mul]
    suspects: list[set[int]] = [set() for _ in range(n)]
    for col in cols:
        at_col = itemgetter(*col)
        for a, at_adda in enumerate(at_add):
            left, right = at_adda(col), at_col(add[col[a]])
            if left != right:
                suspects[a].update(b for b in range(n) if left[b] != right[b])
    for a in range(n):
        adda, mula, at_mula, bad = add[a], mul[a], at_mul[a], suspects[a]
        for b in range(n):
            at_addb = at_add[b]
            # (a+b)+c = a+(b+c), (ab)c = a(bc) and a(b+c) = ab+ac
            if (add[adda[b]] != at_addb(adda) or mul[mula[b]] != at_mul[b](mula)
                    or at_addb(mula) != at_mula(add[mula[b]])):
                bad.add(b)
    return [sorted(bad) for bad in suspects]


_CLOSERS = {"(": ")", "[": "]"}
# The characters that can end a token or change its bracket depth, outside
# and inside a bracket group.
_TOKEN_STOP = (re.compile(r"[\s()\[\]]"), re.compile(r"[()\[\]]"))


def token_end(text: str, start: int) -> int:
    """End of the file-format token that starts at text[start].

    A token is a maximal run of non-space characters, in which a bracket
    group, (...) or [...], may also hold spaces.  Raises ValueError, with
    the position of the offending bracket as its argument, at a closing
    bracket that does not match or an opening one that is never closed.
    """
    pending: list[int] = []  # positions of the open brackets
    i = start
    while m := _TOKEN_STOP[bool(pending)].search(text, i):
        i = m.start()
        ch = text[i]
        if ch in _CLOSERS:
            pending.append(i)
        elif ch in ")]":
            if not pending or _CLOSERS[text[pending.pop()]] != ch:
                raise ValueError(i)
        else:
            return i  # whitespace outside every group
        i += 1
    if pending:
        raise ValueError(pending[-1])
    return len(text)


def _is_plain_label(label) -> bool:
    """A label survives the file format: it is one token, on one line, and
    cannot start a comment line."""
    if (not isinstance(label, str) or label.splitlines() != [label]
            or label.startswith("#")):
        return False
    try:
        return token_end(label, 0) == len(label)
    except ValueError:
        return False


def make_semiring(add, mul, zero: int, one: int,
                  labels: Iterable[str] | None = None) -> FiniteSemiring:
    """Validate tables and build a FiniteSemiring, or raise.

    Labels must be distinct and must round-trip through the file format:
    non-empty, no whitespace outside brackets, balanced brackets, no line
    break, no leading '#'.
    """
    report = validate(add, mul, zero, one)
    if not report.valid:
        raise InvalidSemiringError(report)
    n = len(add)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
    if len(labels) != n:
        raise MalformedTableError(f"{len(labels)} labels for order {n}")
    if len(set(labels)) != n:
        raise MalformedTableError("labels must be pairwise distinct")
    for lab in labels:
        if not _is_plain_label(lab):
            raise MalformedTableError(
                f"label {lab!r} does not survive the file format")
    return FiniteSemiring(order=n, add=_tables_as_tuples(add),
                          mul=_tables_as_tuples(mul),
                          zero=zero, one=one, labels=labels)


def reindex(S: FiniteSemiring, perm: Iterable[int]) -> FiniteSemiring:
    """Relabel S along perm (perm[old] = new index); an isomorphic copy."""
    perm = tuple(perm)
    if sorted(perm) != list(S.elements):
        raise DomainError("perm must be a permutation of the carrier")
    inv = [0] * S.order
    for old, new in enumerate(perm):
        inv[new] = old
    add = tuple(tuple(perm[S.add[inv[i]][inv[j]]] for j in S.elements)
                for i in S.elements)
    mul = tuple(tuple(perm[S.mul[inv[i]][inv[j]]] for j in S.elements)
                for i in S.elements)
    labels = tuple(S.labels[inv[i]] for i in S.elements)
    return FiniteSemiring(order=S.order, add=add, mul=mul,
                          zero=perm[S.zero], one=perm[S.one], labels=labels)


def _carrier(elements, zero, one) -> tuple[list, dict]:
    """The carrier order of `tabulate`, and each element's index in it."""
    carrier = [zero] + ([one] if one != zero else [])
    carrier += [x for x in elements if x != zero and x != one]
    return carrier, {x: i for i, x in enumerate(carrier)}


def tabulate(elements, plus, times, zero, one, label) -> FiniteSemiring:
    """Build the semiring on `elements` under the operations plus, times.

    Elements are any hashable values, listed once each, closed under both
    operations and holding zero and one.  The carrier is ordered zero,
    then one unless it equals zero, then the other elements in the order
    given, so zero gets index 0 and one index 1 (0 when the semiring is
    trivial).  `label(x)` names element x.  The tables go through
    `make_semiring`, which validates them and checks the labels.
    """
    carrier, index = _carrier(elements, zero, one)
    add = [[index[plus(a, b)] for b in carrier] for a in carrier]
    mul = [[index[times(a, b)] for b in carrier] for a in carrier]
    return make_semiring(add, mul, 0, index[one], map(label, carrier))


def nilpotency_index(S: FiniteSemiring, a: int) -> int | None:
    """Smallest k with a^k = 0, or None; read off the class report."""
    return element_classes(S).nilpotency_index.get(a)


def is_nilpotent(S: FiniteSemiring, a: int) -> bool:
    return a in element_classes(S).nilpotents


def scalar_repeat(S: FiniteSemiring, n: int, a: int) -> int:
    """n-fold sum a + a + ... + a; the empty sum (n = 0) is zero."""
    if n < 0:
        raise DomainError("repeat count must be nonnegative")
    acc = S.zero
    for _ in range(n):
        acc = S.plus(acc, a)
    return acc


def additive_inverse(S: FiniteSemiring, a: int) -> int | None:
    """The b with a + b = 0, or None, read off the class report; being
    unique, it is also the smallest-index such b."""
    return element_classes(S).additive_inverse_witness.get(a)


def power(S: FiniteSemiring, a: int, k: int) -> int:
    """a^k with a^0 = 1, by repeated squaring."""
    if k < 0:
        raise DomainError("exponent must be nonnegative")
    result = S.one
    base = a
    while k:
        if k & 1:
            result = S.times(result, base)
        base = S.times(base, base)
        k >>= 1
    return result


def element_classes(S: FiniteSemiring) -> ClassReport:
    """Classify every element (see `_classify`).

    The report is computed once per semiring and shared by every caller.
    """
    return S._classes[0]


def invariant_vectors(S: FiniteSemiring) -> list[tuple]:
    """Per element: idempotent, nilpotency index (0 if none), additively
    invertible, unit, and the (tail, cycle) lengths of its additive and
    multiplicative orbits; computed once, with the class report."""
    return list(S._classes[1])


def _orbit(row, x: int) -> tuple[list[int], int]:
    """The walk x, row[x], ... up to its first repeat, and its tail length."""
    seen: dict[int, int] = {}
    while x not in seen:
        seen[x] = len(seen)
        x = row[x]
    return list(seen), seen[x]


def _classify(S: FiniteSemiring) -> tuple[ClassReport, list[tuple]]:
    """The class report and the invariant vectors, from one walk of the
    multiples a, 2a, 3a, ... and one of the powers a, a^2, a^3, ... of
    each element a, each up to its first repeat.

    An identity on an orbit ends it, as the next step returns to a, and so
    does zero on the powers, being absorbing.  Conversely each element of
    a finite group has the identity among its powers (Clifford & Preston,
    The Algebraic Theory of Semigroups I, 1.6), here the group of units of
    (S, +) or of (S, *).  So a is additively invertible iff its multiples
    end at zero, a unit iff its powers end at one, nilpotent iff its
    powers end at zero, of index their number, and idempotent iff its
    powers are a alone.  The inverse is the element before the identity,
    (k-1)a when ka = 0 and u^(k-1) when u^k = 1, or a itself when a is
    the identity.  Inverses are unique, so they are the witnesses that a
    search for the least index would find.
    """
    nil_index: dict[int, int] = {}
    add_inv: dict[int, int] = {}
    unit_wit: dict[int, int] = {}
    vectors = []
    for a in S.elements:
        multiples, add_tail = _orbit(S.add[a], a)
        powers, mul_tail = _orbit(S.mul[a], a)
        # orbit[-2:][0] is the element before the last, or a if alone
        if multiples[-1] == S.zero:
            add_inv[a] = multiples[-2:][0]
        if powers[-1] == S.one:
            unit_wit[a] = powers[-2:][0]
        if powers[-1] == S.zero:
            nil_index[a] = len(powers)
        vectors.append((len(powers) == 1, nil_index.get(a, 0), a in add_inv,
                        a in unit_wit, (add_tail, len(multiples) - add_tail),
                        (mul_tail, len(powers) - mul_tail)))
    # e + x over the nilpotents x, gathered from row e; zero is nilpotent,
    # so listing it again changes no sum and keeps the result a tuple
    nil_sums = itemgetter(S.zero, *nil_index)
    nilidem = [e for e in S.elements if S.mul[e][e] in nil_sums(S.add[e])]
    idem = [a for a, vector in enumerate(vectors) if vector[0]]
    center = [a for a, row in enumerate(S.mul)
              if row == tuple(map(itemgetter(a), S.mul))]
    n = S.order
    report = ClassReport(
        idempotents=ElementSet.of(idem, n),
        nilpotents=ElementSet.of(nil_index, n),
        nilidempotents=ElementSet.of(nilidem, n),
        additively_invertible=ElementSet.of(add_inv, n),
        additive_inverse_witness=add_inv,
        center=ElementSet.of(center, n),
        units=ElementSet.of(unit_wit, n),
        unit_witness=unit_wit,
        nilpotency_index=nil_index,
    )
    return report, vectors


def noncommuting_pair(S: FiniteSemiring) -> tuple[int, int] | None:
    """The first (a, b) in index order with ab != ba, or None; a is the
    least element outside the centre."""
    a = min(element_classes(S).center.complement(), default=None)
    if a is None:
        return None
    return next((a, b) for b in S.elements if S.mul[a][b] != S.mul[b][a])


def is_commutative(S: FiniteSemiring) -> bool:
    return noncommuting_pair(S) is None


def non_idempotent_element(S: FiniteSemiring) -> int | None:
    """The least element a with a*a != a, or None."""
    return min(element_classes(S).idempotents.complement(), default=None)


def is_boolean(S: FiniteSemiring) -> bool:
    """Every element idempotent."""
    return non_idempotent_element(S) is None
