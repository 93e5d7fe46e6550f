"""Finitely presented semirings via congruence closure.

Elements of the quotient are classes of terms built from the generators,
0 and 1 by + and *.  Each round instantiates the semiring axioms (and
additive idempotency when requested) over one representative per class,
asserts the defining relations, and lets ground congruence closure merge;
the run ends when a round changes nothing, or when the number of live
classes passes the configured bound.  A finished table is validated and
the relations are re-checked against it, so a "finite" answer is exact:
any incompleteness would surface as a failed check, never as a wrong
table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DomainError,
    FiniteSemiring,
    InternalCheckError,
    tabulate,
)

DEFAULT_UNIVERSE_BOUND = 64
_MAX_ROUNDS = 1000

Term = tuple  # ("0",), ("1",), ("g", name), ("+", l, r), ("*", l, r)

ZERO: Term = ("0",)
ONE: Term = ("1",)


@dataclass(frozen=True)
class PresentationResult:
    status: str  # "finite" | "exceeds-bound"
    semiring: FiniteSemiring | None
    collapsed_generators: tuple[tuple[str, str], ...]
    universe_bound: int


class _BoundExceeded(Exception):
    pass


def render_term(t: Term) -> str:
    """Compact infix form; products parenthesize sum operands."""
    if t[0] == "0":
        return "0"
    if t[0] == "1":
        return "1"
    if t[0] == "g":
        return t[1]
    if t[0] == "+":
        return f"{render_term(t[1])}+{render_term(t[2])}"
    def wrap(u: Term) -> str:
        s = render_term(u)
        return f"({s})" if u[0] == "+" else s
    return f"{wrap(t[1])}*{wrap(t[2])}"


def parse_term(text: str, generators: tuple[str, ...]) -> Term:
    """Parse '0', '1', generator names, +, * and parentheses; * binds tighter."""
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+*()":
            tokens.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise DomainError(f"unexpected character {ch!r} in term {text!r}")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise DomainError(f"unexpected end of term {text!r}")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise DomainError(f"expected {expected!r}, got {tok!r} in {text!r}")
        pos += 1
        return tok

    def factor() -> Term:
        tok = take()
        if tok == "(":
            t = expr()
            take(")")
            return t
        if tok == "0":
            return ZERO
        if tok == "1":
            return ONE
        if tok in generators:
            return ("g", tok)
        raise DomainError(f"unknown symbol {tok!r} in term {text!r}")

    def product() -> Term:
        t = factor()
        while peek() == "*":
            take()
            t = ("*", t, factor())
        return t

    def expr() -> Term:
        t = product()
        while peek() == "+":
            take()
            t = ("+", t, product())
        return t

    result = expr()
    if pos != len(tokens):
        raise DomainError(f"trailing input {tokens[pos]!r} in term {text!r}")
    return result


class _CongruenceClosure:
    """Union-find over terms with signature-based congruence propagation."""

    def __init__(self, class_bound: int):
        self.class_bound = class_bound
        self.terms: list[Term] = []
        self.ids: dict[Term, int] = {}
        self.parent: list[int] = []
        self.size: list[int] = []
        self.term_keys: list[tuple] = []    # per term: (size, rendering)
        self.best: list[Term] = []          # per root: minimal member term
        self.key: list[tuple] = []          # per root: the key of best
        self.sig: dict[tuple, int] = {}      # (op, root_l, root_r) -> exemplar
        self.uses: dict[int, list[int]] = {}  # root -> compound ids over it
        self.n_classes = 0
        self.added_any = False
        self.merged_any = False

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def add(self, t: Term) -> int:
        known = self.ids.get(t)
        if known is not None:
            return known
        if t[0] in ("+", "*"):
            left = self.add(t[1])
            right = self.add(t[2])
            (lsize, ltext), (rsize, rtext) = (self.term_keys[left],
                                              self.term_keys[right])
            if t[0] == "*":  # as render_term: products wrap sum operands
                ltext = f"({ltext})" if t[1][0] == "+" else ltext
                rtext = f"({rtext})" if t[2][0] == "+" else rtext
            key = (1 + lsize + rsize, f"{ltext}{t[0]}{rtext}")
        else:
            key = (1, render_term(t))
        i = len(self.terms)
        self.terms.append(t)
        self.ids[t] = i
        self.parent.append(i)
        self.size.append(1)
        self.term_keys.append(key)
        self.best.append(t)
        self.key.append(key)
        self.uses[i] = []
        self.n_classes += 1
        self.added_any = True
        if self.n_classes > self.class_bound:
            raise _BoundExceeded
        if t[0] in ("+", "*"):
            rl, rr = self.find(left), self.find(right)
            self.uses[rl].append(i)
            if rr != rl:
                self.uses[rr].append(i)
            sig = (t[0], rl, rr)
            exemplar = self.sig.get(sig)
            if exemplar is None:
                self.sig[sig] = i
            else:
                self.union(i, exemplar)
        return i

    def union(self, a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            u, v = stack.pop()
            ru, rv = self.find(u), self.find(v)
            if ru == rv:
                continue
            if self.size[ru] < self.size[rv]:
                ru, rv = rv, ru
            # rv is absorbed into ru
            self.parent[rv] = ru
            self.size[ru] += self.size[rv]
            if self.key[rv] < self.key[ru]:  # on a tie ru keeps its term
                self.best[ru], self.key[ru] = self.best[rv], self.key[rv]
            self.n_classes -= 1
            self.merged_any = True
            moved = self.uses.pop(rv, [])
            for cid in moved:
                t = self.terms[cid]
                key = (t[0], self.find(self.ids[t[1]]), self.find(self.ids[t[2]]))
                exemplar = self.sig.get(key)
                if exemplar is None or self.find(exemplar) == self.find(cid):
                    self.sig[key] = cid
                else:
                    stack.append((cid, exemplar))
            self.uses[ru].extend(moved)

    def assert_eq(self, t1: Term, t2: Term) -> None:
        self.union(self.add(t1), self.add(t2))

    def root_of(self, t: Term) -> int:
        return self.find(self.ids[t])

    def representatives(self) -> list[Term]:
        roots = {self.find(i) for i in range(len(self.terms))}
        return [self.best[r] for r in sorted(roots, key=self.key.__getitem__)]


def _instantiate_axioms(cc: _CongruenceClosure, reps: list[Term],
                        additively_idempotent: bool) -> None:
    for a in reps:
        cc.assert_eq(("+", ZERO, a), a)
        cc.assert_eq(("+", a, ZERO), a)
        cc.assert_eq(("*", ONE, a), a)
        cc.assert_eq(("*", a, ONE), a)
        cc.assert_eq(("*", ZERO, a), ZERO)
        cc.assert_eq(("*", a, ZERO), ZERO)
        if additively_idempotent:
            cc.assert_eq(("+", a, a), a)
    for a in reps:
        for b in reps:
            cc.assert_eq(("+", a, b), ("+", b, a))
    for a in reps:
        for b in reps:
            for c in reps:
                cc.assert_eq(("+", ("+", a, b), c), ("+", a, ("+", b, c)))
                cc.assert_eq(("*", ("*", a, b), c), ("*", a, ("*", b, c)))
                cc.assert_eq(("*", a, ("+", b, c)),
                             ("+", ("*", a, b), ("*", a, c)))
                cc.assert_eq(("*", ("+", a, b), c),
                             ("+", ("*", a, c), ("*", b, c)))


def _build_table(cc: _CongruenceClosure) -> FiniteSemiring:
    """The table of the stabilized closure, one element per class, other
    classes in the order of their least terms.  Every associativity
    instance over the representatives holds, as `tabulate` requires."""
    def op(symbol: str):
        return lambda ra, rb: cc.root_of((symbol, cc.best[ra], cc.best[rb]))

    return tabulate([cc.root_of(t) for t in cc.representatives()],
                    op("+"), op("*"), cc.root_of(ZERO), cc.root_of(ONE),
                    lambda r: cc.key[r][1])


def _collapsed_generators(cc: _CongruenceClosure,
                          generators: tuple[str, ...]) -> tuple:
    """Each generator whose class has a smaller least term, with that term."""
    collapsed = []
    for name in generators:
        g = ("g", name)
        if g in cc.ids and cc.best[cc.root_of(g)] != g:
            collapsed.append((name, cc.key[cc.root_of(g)][1]))
    return tuple(collapsed)


def presentation(generators, relations, additively_idempotent: bool = False,
                 universe_bound: int = DEFAULT_UNIVERSE_BOUND) -> PresentationResult:
    """Quotient of the free semiring on `generators` by `relations`.

    Relations are (lhs, rhs) pairs of term strings over the generators,
    0, 1, + and *.  With additively_idempotent the law a + a = a is imposed
    globally.  Returns the finite table when the closure stabilizes within
    `universe_bound` distinct classes, else reports exceeds-bound;
    generators merged with another class are listed with their images.
    """
    if universe_bound < 2:
        raise DomainError("universe bound must be at least 2")
    generators = tuple(generators)
    if len(set(generators)) != len(generators):
        raise DomainError("generator names must be distinct")
    for name in generators:
        if name in ("0", "1") or not name.isidentifier():
            raise DomainError(f"bad generator name {name!r}")
    relation_terms = [(parse_term(lhs, generators), parse_term(rhs, generators))
                      for lhs, rhs in relations]

    cc = _CongruenceClosure(universe_bound)
    try:
        cc.add(ZERO)
        cc.add(ONE)
        for name in generators:
            cc.add(("g", name))
        for lhs, rhs in relation_terms:
            cc.assert_eq(lhs, rhs)
        for _ in range(_MAX_ROUNDS):
            cc.added_any = False
            cc.merged_any = False
            reps = cc.representatives()
            _instantiate_axioms(cc, reps, additively_idempotent)
            for lhs, rhs in relation_terms:
                cc.assert_eq(lhs, rhs)
            if not cc.added_any and not cc.merged_any:
                semiring = _build_table(cc)
                for lhs, rhs in relation_terms:
                    if cc.root_of(lhs) != cc.root_of(rhs):
                        raise InternalCheckError(
                            "stabilized closure does not satisfy a relation")
                return PresentationResult(
                    status="finite", semiring=semiring,
                    collapsed_generators=_collapsed_generators(cc, generators),
                    universe_bound=universe_bound)
        raise InternalCheckError(
            "presentation closure neither stabilized nor exceeded its bound")
    except _BoundExceeded:
        return PresentationResult(
            status="exceeds-bound", semiring=None,
            collapsed_generators=_collapsed_generators(cc, generators),
            universe_bound=universe_bound)
