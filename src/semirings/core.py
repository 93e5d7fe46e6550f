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
from itertools import compress
from operator import itemgetter, ne
from typing import Iterable, Iterator

# The theorems and the largest census order live here rather than in `ops`
# and `census`, which re-export them, so that the CLI can build its parser
# without importing either.
HYP_MULT_GEN_IDEM = "mult-generated by idempotents"
HYP_MULT_GEN_NILIDEM = "mult-generated by nilidempotents"
HYP_ADD_GEN_IDEM = "add-generated by idempotents"
HYP_ORTH_COMPLEMENTS = "every idempotent has an orthogonal complement"
HYP_NILORTH_COMPLEMENTS = "every idempotent has a nilorthogonal complement"
HYP_NIL_IN_V_AND_Z = "Nil ⊆ V ∩ Z"
HYP_NIL_IN_Z = "Nil ⊆ Z"
CONCL_COMMUTATIVE = "commutative"
CONCL_BOOLEAN = "Boolean"

# theorem id -> (hypothesis clause names, conclusion clause names)
THEOREMS = {
    "main": ((HYP_MULT_GEN_IDEM, HYP_ORTH_COMPLEMENTS),
             (CONCL_COMMUTATIVE, CONCL_BOOLEAN)),
    "main2": ((HYP_MULT_GEN_IDEM, HYP_NILORTH_COMPLEMENTS, HYP_NIL_IN_V_AND_Z),
              (CONCL_COMMUTATIVE, CONCL_BOOLEAN)),
    "mainnilid": ((HYP_MULT_GEN_NILIDEM, HYP_NILORTH_COMPLEMENTS,
                   HYP_NIL_IN_V_AND_Z),
                  (CONCL_COMMUTATIVE,)),
    "additivecom": ((HYP_ADD_GEN_IDEM, HYP_ORTH_COMPLEMENTS, HYP_NIL_IN_Z),
                    (CONCL_COMMUTATIVE,)),
}
THEOREM_IDS = tuple(THEOREMS)

DEFAULT_MAX_ORDER = 4


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
    def _classes(self) -> ClassReport:
        return _classify(self)

    @cached_property
    def _vectors(self) -> list[tuple]:
        return list(_orbits(self))

    @cached_property
    def _blocks(self) -> list[tuple[tuple, list[int]]]:
        """The invariant-vector blocks as (vector, elements in index order):
        zero alone, then one alone unless S is trivial, then the others in
        sorted order of their vectors.  Keys and isomorphisms search
        within them."""
        lead = dict.fromkeys((self.zero, self.one))
        blocks: dict[tuple, list[int]] = {}
        for e, vector in enumerate(self._vectors):
            if e not in lead:
                blocks.setdefault(vector, []).append(e)
        return [(self._vectors[e], [e]) for e in lead] + sorted(blocks.items())

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
            # Screen the row in C; only a row that fails is walked cell by
            # cell, which names its first bad cell or passes int subclasses.
            if (len(row) == n and set(map(type, row)) == {int}
                    and min(row) >= 0 and max(row) < n):
                continue
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


def validate(add, mul, zero: int, one: int) -> AxiomReport:
    """Check every semiring axiom, listing all violated instances.

    Each table is prepared once by `_rows`.  The laws in one or two
    elements are checked in full by `_short_violations`.  If none fails,
    the row screen `_breaks`, which hands back the two sides of an
    associative or distributive law as whole rows wherever they differ,
    runs at the generators of + and of * up to its first break, in
    O(n^2 |G|) steps instead of O(n^3).  Passing there is a proof that
    the tables are a semiring (Light's test, Clifford & Preston I, 1.2).
    Call g good for a law if it holds at g for all x, y.  Good sets are
    closed under the operation: if g, h are good for (xg)y = x(gy), then
    (x(gh))y = ((xg)h)y = (xg)(hy) = x(g(hy)) = x((gh)y), and likewise for
    +.  Given associativity, g, h good for g(x+y) = gx+gy give (gh)(x+y) =
    g(hx+hy) = (gh)x+(gh)y, and the same on the right.  A closed set
    holding a generating set is the whole carrier.  On the smallest
    carriers the generators are most of the elements, and the test costs
    about as much as one `_sweep`.  If anything failed, `_sweep` runs the
    screen at every element over the same rows and lists every violated
    instance in the order of plain O(n^3) loops.

    Structural problems (non-square tables, out-of-range entries) raise
    MalformedTableError instead of being reported as axiom violations.
    """
    n = _check_structure(add, mul, zero, one)
    plus, times = _rows(add, n), _rows(mul, n)
    short = _short_violations(add, mul, zero, one, n)
    if not short:
        light = _breaks(plus, times, n, _generators(plus[0], (zero,), n),
                        _generators(times[0], (zero, one), n))
        if next(light, None) is None:
            return AxiomReport(valid=True, violations=())
    violations = short + _sweep(plus, times, n)
    return AxiomReport(valid=not violations, violations=tuple(violations))


def _walk(rows, seeds: Iterable[int], n: int):
    """The greedy right-extension walk of an operation's table `rows`.

    The next generator g is the next seed, then the least element not yet
    reached.  The walk reaches g, then rg for each r reached before g,
    then rh for each newly reached r and each generator h so far, until
    nothing new turns up.  Yields (x, r, g) for each newly reached x: r is
    None when x is the new generator g, else x = rg.  A row is read only
    after its element has been yielded, so `rows` may be filled in as the
    walk goes.
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
        gens.append(g)
        steps = [(g, None, g)] + [(rows[r][g], r, g) for r in found]
        while True:
            for x, r, h in steps:
                if not reached[x]:
                    reached[x] = True
                    found.append(x)
                    yield x, r, h
            if i == len(found):
                break
            r = found[i]
            steps = [(rows[r][h], r, h) for h in gens]
            i += 1


def _generators(table, seeds: Iterable[int], n: int) -> list[int]:
    """A generating set of (carrier, table), found greedily by `_walk`:
    every element is a generator or a reached element times a generator
    on the right.  After the seeds, candidates come in decreasing order of
    the size of their row's image, the right ideal xS, ties in index
    order: on a semilattice-like table the elements high in the order
    then come first, the rest are reached as their products, and the set
    stays small."""
    ranked = sorted(range(n), key=lambda x: len(set(table[x])), reverse=True)
    return [g for _, r, g in _walk(table, (*seeds, *ranked), n) if r is None]


def _rows(table, n: int):
    """The rows of a table of order n, ready to be composed: (rows, data, at).

    at[x](data[r]) is row r composed with row x, holding r[x[i]] at i, and
    compares equal to rows[y] exactly when that is row y.  Up to order 256
    a row is `bytes` and composing is one `bytes.translate` call, data[r]
    being row r padded to a 256-byte translation table; above that rows
    are tuples and at[x] is `itemgetter(*x)`.
    """
    if n <= 256:
        rows = [bytes(row) for row in table]
        pad = bytes(256 - n)
        return rows, [row + pad for row in rows], [row.translate for row in rows]
    rows = [tuple(row) for row in table]
    return rows, rows, [itemgetter(*row) for row in rows]


def _short_violations(add, mul, zero: int, one: int, n: int) -> list:
    """The violated instances of the laws in one or two elements, in the
    order of plain loops: the identity and annihilation laws at each a,
    then additive commutativity at each (a, b).  The loop over b runs only
    on a row of + that differs from its column."""
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
    for a, (row, col) in enumerate(zip(add, zip(*add))):
        if tuple(row) != col:
            bad.extend(AxiomViolation("add-commutativity", (a, b, 0))
                       for b in rng if row[b] != col[b])
    return bad


def _breaks(plus, times, n: int, add_at, mul_at):
    """The breaks of the four laws, as (law, a, b, left, right), over the
    tables of + and * prepared by `_rows`: `left` and `right` are the rows
    over c of the two sides of law 0, (a+b)+c = a+(b+c), for b in
    `add_at`, of law 1, (ab)c = a(bc), for b in `mul_at`, and of law 2,
    a(b+c) = ab+ac, for a in `mul_at`, whenever they differ.  Law 3,
    (a+b)c = ac+bc, for c in `mul_at`, is compared over b, from the
    columns of *, and yields (3, a, c, left, right).  Each side is a row
    composed as `_rows` says.  Lazy, so a caller can stop at the first
    break."""
    add, add_data, at_add = plus
    mul, mul_data, at_mul = times
    add_at, mul_at = set(add_at), set(mul_at)
    rows = list(zip(range(n), add, add_data, mul, mul_data, at_add))
    for k in sorted(add_at.union(mul_at)):
        k_add, k_mul = k in add_at, k in mul_at
        at_ak, at_mk, mul_k, mk_data = at_add[k], at_mul[k], mul[k], mul_data[k]
        for x, add_x, ax_data, mul_x, mx_data, at_ax in rows:
            # (x+k)+c = x+(k+c), (xk)c = x(kc) and k(x+c) = kx+kc
            if k_add and (left := add[add_x[k]]) != (right := at_ak(ax_data)):
                yield 0, x, k, left, right
            if k_mul:
                if (left := mul[mul_x[k]]) != (right := at_mk(mx_data)):
                    yield 1, x, k, left, right
                if ((left := at_ax(mk_data))
                        != (right := at_mk(add_data[mul_k[x]]))):
                    yield 2, k, x, left, right
    cols = _rows((map(itemgetter(c), mul) for c in mul_at), n)
    for c, col, col_data, at_col in zip(mul_at, *cols):
        for a, (at_a, col_a) in enumerate(zip(at_add, col)):
            if (left := at_a(col_data)) != (right := at_col(add_data[col_a])):
                yield 3, a, c, left, right


_LAWS = ("add-associativity", "mul-associativity", "left-distributivity",
         "right-distributivity")


def _sweep(plus, times, n: int) -> list[AxiomViolation]:
    """Every violated instance of the four laws of `_breaks`, over the
    tables prepared by `_rows`, in the order of direct O(n^3) loops.

    `_breaks` runs at every element, and each instance is read off the
    rows it hands back: law 0, 1 or 2 at (a, b) is broken at each c where
    the two rows differ, law 3 at (a, c) at each such b.  Each instance is
    one int, ordered as (a, b, c, law), so sorting them gives the order of
    the loops.
    """
    rng = range(n)
    bad: list[AxiomViolation] = []
    found: list[int] = []
    for law, a, i, left, right in _breaks(plus, times, n, rng, rng):
        # the rows run over c at b = i, or over b at c = i for law 3
        base, step = (((a * n + i) * n * 4 + law, 4) if law < 3
                      else ((a * n * n + i) * 4 + law, 4 * n))
        found.extend(base + step * j
                     for j in compress(rng, map(ne, left, right)))
    for key in sorted(found):
        key, law = divmod(key, 4)
        key, c = divmod(key, n)
        bad.append(AxiomViolation(_LAWS[law], (*divmod(key, n), c)))
    return bad


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


def ascii_int(text: str) -> int:
    """An integer spelled -?[0-9]+ in ASCII, in a preset or a semiring file;
    int() alone would also take "+3", " 7", "5_0" and non-ASCII digits."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(text)
    return int(text)


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
    """Relabel S along perm (perm[old] = new index); an isomorphic copy.
    The copy is a new semiring: its classes and invariant vectors are
    computed from its own tables when first asked for.  Entries must be
    ints (a bool is not one)."""
    perm = tuple(perm)
    if (any(not isinstance(p, int) or isinstance(p, bool) for p in perm)
            or sorted(perm) != list(S.elements)):
        raise DomainError("perm must be a permutation of the carrier")
    inv = [0] * S.order
    for old, new in enumerate(perm):
        inv[new] = old
    add, mul = (tuple(tuple([perm[row[j]] for j in inv])
                      for row in [table[i] for i in inv])
                for table in (S.add, S.mul))
    return FiniteSemiring(order=S.order, add=add, mul=mul,
                          zero=perm[S.zero], one=perm[S.one],
                          labels=tuple([S.labels[i] for i in inv]))


def tabulate(elements, plus, times, zero, one, label) -> FiniteSemiring:
    """Build the semiring on `elements` under the operations plus, times.

    Elements are any hashable values, listed once each, closed under both
    operations and holding zero and one.  The carrier is ordered zero,
    then one unless it equals zero, then the other elements in the order
    given, so zero gets index 0 and one index 1 (0 when the semiring is
    trivial).  `label(x)` names element x.

    Precondition: both operations are associative, and * distributes over
    + on the left.  Each table is built from the rows of the generating
    set that `_walk` finds, seeded with zero for + and with zero, one for
    *: every other x is reached as x = rg, with r reached before it and g
    a generator, so associativity, (rg)y = r(gy), makes row(x) one gather
    of row(r) along row(g).  The row of + at a generator is evaluated in
    full.  The row of * at a generator x is evaluated only at the
    generators h of +: every other y is reached by the walk of + as
    y = r + h, and left distributivity, x(r+h) = xr + xh, reads xy off
    the + table.  The callers meet both: zmod and the Boolean semiring use
    integer sums, products, max and min; polynomial residues form a
    quotient ring; products, Peirce factors eS and matrices compute with
    the operations of semirings that were validated; and a presentation's
    closure has stabilized with every associativity and distributivity
    instance over its class representatives asserted.  The tables go
    through `make_semiring`, which validates them and checks the labels.
    """
    carrier = [zero] + ([one] if one != zero else [])
    carrier += [x for x in elements if x != zero and x != one]
    index = {x: i for i, x in enumerate(carrier)}
    n = len(carrier)

    def table(seeds, generator_row):
        """The rows of an operation, and the walk that filled them."""
        rows: list = [None] * n
        gathers: dict[int, itemgetter] = {}  # generator -> gather along its row
        steps = []
        for x, r, g in _walk(rows, seeds, n):
            steps.append((x, r, g))
            if r is None:
                rows[x] = generator_row(carrier[x])
                gathers[g] = itemgetter(*rows[x])
            else:
                rows[x] = gathers[g](rows[r])
        return rows, steps

    add, add_walk = table((0,), lambda x: tuple(index[plus(x, y)]
                                                for y in carrier))

    def mul_row(x) -> tuple[int, ...]:
        row = [0] * n
        for y, r, h in add_walk:  # y = r + h, or the generator h
            row[y] = (index[times(x, carrier[y])] if r is None
                      else add[row[r]][row[h]])
        return tuple(row)

    one = index[one]
    return make_semiring(add, table((0, one), mul_row)[0], 0, one,
                         map(label, carrier))


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
    return S._classes


def invariant_vectors(S: FiniteSemiring) -> list[tuple]:
    """Per element: idempotent, nilpotency index (0 if none), additively
    invertible, unit, and the (tail, cycle) lengths of its additive and
    multiplicative orbits.  Computed once per semiring, from one walk of
    each element's orbits, and shared with `_classify`."""
    return list(S._vectors)


def _orbit(row, x: int) -> tuple[int, int, int]:
    """The walk x, row[x], ... up to its first repeat: its length, its tail
    length and its last element."""
    seen: dict[int, int] = {}
    while x not in seen:
        seen[x] = len(seen)
        last, x = x, row[x]
    return len(seen), seen[x], last


def _orbits(S: FiniteSemiring):
    """For each element a in turn, its invariant vector, read off the walks
    of its multiples a, 2a, 3a, ... and its powers a, a^2, a^3, ..., each
    up to its first repeat (see `_classify`)."""
    zero, one = S.zero, S.one
    for a, add_row, mul_row in zip(S.elements, S.add, S.mul):
        m, add_tail, add_end = _orbit(add_row, a)
        k, mul_tail, end = _orbit(mul_row, a)
        yield (k == 1, k if end == zero else 0, add_end == zero, end == one,
               (add_tail, m - add_tail), (mul_tail, k - mul_tail))


def _classify(S: FiniteSemiring) -> ClassReport:
    """The class report, read off the invariant vectors.

    An identity on an orbit ends it, as the next step returns to a, and so
    does zero on the powers, being absorbing.  Conversely each element of
    a finite group has the identity among its powers (Clifford & Preston,
    The Algebraic Theory of Semigroups I, 1.6), here the group of units of
    (S, +) or of (S, *).  So a is additively invertible iff its multiples
    end at zero, a unit iff its powers end at one, nilpotent iff its
    powers end at zero, of index their number, and idempotent iff its
    powers are a alone.  The witnesses are the first zero in row a of +
    and the first one in row a of *: an inverse is unique, and in a finite
    monoid a right inverse is two-sided, so each is the only candidate.
    """
    vectors = S._vectors
    nil_index = {a: v[1] for a, v in enumerate(vectors) if v[1]}
    add_inv = {a: S.add[a].index(S.zero)
               for a, v in enumerate(vectors) if v[2]}
    unit_wit = {a: S.mul[a].index(S.one) for a, v in enumerate(vectors) if v[3]}
    # e + x over the nilpotents x, gathered from row e; zero is nilpotent,
    # so listing it again changes no sum and keeps the result a tuple
    nil_sums = itemgetter(S.zero, *nil_index)
    nilidem = [e for e in S.elements if S.mul[e][e] in nil_sums(S.add[e])]
    idem = [a for a, v in enumerate(vectors) if v[0]]
    center = [a for a, (row, col) in enumerate(zip(S.mul, zip(*S.mul)))
              if row == col]
    n = S.order
    return ClassReport(
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
