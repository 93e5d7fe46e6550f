"""Finitely presented semirings via congruence closure.

Elements of the quotient are classes of terms built from the generators,
0 and 1 by + and *.  A relation's sides are read by `parse_term`, whose
tokens come from one regular expression, and a class is labelled by its
least term, rendered as its nodes are added (`_CongruenceClosure.node`).
The defining relations are asserted once, then each round instantiates
the semiring axioms (and additive idempotency when requested) over one
representative per class, and ground congruence closure merges, over
hash-consed term nodes (Downey, Sethi & Tarjan, "Variations on the
common subexpression problem", J. ACM 27(4), 1980).  An instance over
representatives that were all representatives in the round before was
asserted then, so a round asserts only the others.  The run ends when a
round changes nothing, or when the number of live classes passes the
configured bound.  A finished table is validated and the relations are
re-checked against it, so a "finite" answer is exact: any incompleteness
would surface as a failed check, never as a wrong table.
"""

from __future__ import annotations

import re
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

# A token is a word (\w is exactly isalnum() or "_") or one of +*();
# whitespace separates tokens, and any other character is refused.
_TOKEN = re.compile(r"(\w+|[+*()])|(\S)")


@dataclass(frozen=True)
class PresentationResult:
    status: str  # "finite" | "exceeds-bound"
    semiring: FiniteSemiring | None
    collapsed_generators: tuple[tuple[str, str], ...]
    universe_bound: int


class _BoundExceeded(Exception):
    pass


def parse_term(text: str, generators: tuple[str, ...]) -> Term:
    """Parse '0', '1', generator names, +, * and parentheses; * binds tighter."""
    tokens = []
    for tok, refused in _TOKEN.findall(text):
        if refused:
            raise DomainError(f"unexpected character {refused!r} in term {text!r}")
        tokens.append(tok)
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
    """Union-find over hash-consed term nodes, with signature-based
    congruence propagation (Downey, Sethi & Tarjan, J. ACM 27(4), 1980).

    A node is a leaf term, ("0",), ("1",) or ("g", name), or a compound
    (op, left id, right id), so a node is hashed in constant time however
    deep its term is.  Ids count up in the order nodes are first added,
    children before parents.
    """

    def __init__(self, class_bound: int):
        self.class_bound = class_bound
        self.nodes: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.parent: list[int] = []
        self.size: list[int] = []
        self.term_keys: list[tuple] = []    # per node: (size, rendering)
        self.best: list[int] = []           # per root: its minimal member
        self.sig: dict[tuple, int] = {}      # (op, root_l, root_r) -> exemplar
        self.uses: dict[int, list[int]] = {}  # root -> compound ids over it
        self.n_classes = 0
        self.changed = False  # a node added or two classes merged

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def add(self, t: Term) -> int:
        """The id of term t, adding the nodes it is built from."""
        if t[0] in ("+", "*"):
            return self.node(t[0], self.add(t[1]), self.add(t[2]))
        known = self.ids.get(t)  # a leaf renders as its last field
        return self._new(t, (1, t[-1])) if known is None else known

    def node(self, op: str, left: int, right: int) -> int:
        """The id of the compound node (op, left, right)."""
        known = self.ids.get((op, left, right))
        if known is not None:
            return known
        (lsize, ltext), (rsize, rtext) = (self.term_keys[left],
                                          self.term_keys[right])
        # the one place terms are rendered: products wrap sum operands
        if op == "*":
            ltext = f"({ltext})" if self.nodes[left][0] == "+" else ltext
            rtext = f"({rtext})" if self.nodes[right][0] == "+" else rtext
        i = self._new((op, left, right),
                      (1 + lsize + rsize, f"{ltext}{op}{rtext}"))
        rl, rr = self.find(left), self.find(right)
        self.uses[rl].append(i)
        if rr != rl:
            self.uses[rr].append(i)
        exemplar = self.sig.get((op, rl, rr))
        if exemplar is None:
            self.sig[op, rl, rr] = i
        else:
            self.union(i, exemplar)
        return i

    def _new(self, node: tuple, key: tuple) -> int:
        i = len(self.nodes)
        self.nodes.append(node)
        self.ids[node] = i
        self.parent.append(i)
        self.size.append(1)
        self.term_keys.append(key)
        self.best.append(i)
        self.uses[i] = []
        self.n_classes += 1
        self.changed = True
        if self.n_classes > self.class_bound:
            raise _BoundExceeded
        return i

    def union(self, a: int, b: int) -> None:
        stack = [(a, b)]
        keys = self.term_keys
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
            if keys[self.best[rv]] < keys[self.best[ru]]:  # a tie keeps ru's
                self.best[ru] = self.best[rv]
            self.n_classes -= 1
            self.changed = True
            moved = self.uses.pop(rv, [])
            for cid in moved:
                op, left, right = self.nodes[cid]
                key = (op, self.find(left), self.find(right))
                exemplar = self.sig.get(key)
                if exemplar is None or self.find(exemplar) == self.find(cid):
                    self.sig[key] = cid
                else:
                    stack.append((cid, exemplar))
            self.uses[ru].extend(moved)

    def representatives(self) -> list[int]:
        """The least member of each class, in the order of their keys."""
        roots = {self.find(i) for i in range(len(self.nodes))}
        best, keys = self.best, self.term_keys
        return sorted((best[r] for r in roots), key=keys.__getitem__)

    def label(self, i: int) -> str:
        """The least term of i's class, rendered."""
        return self.term_keys[self.best[self.find(i)]][1]


def _instantiate_axioms(cc: _CongruenceClosure, reps: list[int], old: set,
                        additively_idempotent: bool) -> None:
    """Assert every axiom instance over the representatives `reps`, in the
    order of plain loops, except each instance over the representatives
    `old` of the round before alone: that one was asserted then, so its
    nodes exist and are merged, and asserting it again changes nothing."""
    node, union = cc.node, cc.union
    zero, one = cc.ids[ZERO], cc.ids[ONE]
    new = [a for a in reps if a not in old]
    for a in new:
        union(node("+", zero, a), a)
        union(node("+", a, zero), a)
        union(node("*", one, a), a)
        union(node("*", a, one), a)
        union(node("*", zero, a), zero)
        union(node("*", a, zero), zero)
        if additively_idempotent:
            union(node("+", a, a), a)
    for a in reps:
        for b in (new if a in old else reps):
            union(node("+", a, b), node("+", b, a))
    for a in reps:
        for b in reps:
            for c in (new if a in old and b in old else reps):
                union(node("+", node("+", a, b), c),
                      node("+", a, node("+", b, c)))
                union(node("*", node("*", a, b), c),
                      node("*", a, node("*", b, c)))
                union(node("*", a, node("+", b, c)),
                      node("+", node("*", a, b), node("*", a, c)))
                union(node("*", node("+", a, b), c),
                      node("+", node("*", a, c), node("*", b, c)))


def _build_table(cc: _CongruenceClosure) -> FiniteSemiring:
    """The table of the stabilized closure, one element per class, other
    classes in the order of their least terms.  Every associativity and
    distributivity instance over the representatives holds, as `tabulate`
    requires: its two sides are merged nodes, and the closure is
    congruent, so the classes of their subterms compose alike."""
    def op(symbol: str):
        return lambda ra, rb: cc.find(cc.ids[symbol, cc.best[ra], cc.best[rb]])

    return tabulate(map(cc.find, cc.representatives()), op("+"), op("*"),
                    cc.find(cc.ids[ZERO]), cc.find(cc.ids[ONE]), cc.label)


def _collapsed_generators(cc: _CongruenceClosure,
                          generators: tuple[str, ...]) -> tuple:
    """Each generator whose class has a smaller least term, with that term."""
    collapsed = []
    for name in generators:
        g = cc.ids.get(("g", name))
        if g is not None and cc.best[cc.find(g)] != g:
            collapsed.append((name, cc.label(g)))
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
        # once merged, the two sides of a relation stay merged
        sides = []
        for lhs, rhs in relation_terms:
            sides.append((cc.add(lhs), cc.add(rhs)))
            cc.union(*sides[-1])
        old: set[int] = set()
        for _ in range(_MAX_ROUNDS):
            cc.changed = False
            reps = cc.representatives()
            _instantiate_axioms(cc, reps, old, additively_idempotent)
            old = set(reps)
            if not cc.changed:
                semiring = _build_table(cc)
                for lhs, rhs in sides:
                    if cc.find(lhs) != cc.find(rhs):
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
