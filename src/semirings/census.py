"""Census of small semirings up to isomorphism, and theorem scans over it.

Enumeration is staged: first the commutative addition monoids with identity
at index 0, up to relabeling that fixes 0; then, per additive table and per
choice of the multiplicative identity, a backtracking fill of the
multiplication table pruned cell-by-cell by associativity and
distributivity.  Duplicates collapse under a canonical key, the
lexicographically least relabeling fixing zero at 0 and one at 1.  Both
stages find their least relabelings with one search, `_least_relabeling`.

A scan evaluates every clause of the theorem table once per semiring and
reads both the theorem verdicts and the entry flags off those clauses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import DomainError, FiniteSemiring, make_semiring, reindex
from .fileformat import serialize_semiring
from .ops import (
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
    VERDICT_VIOLATION,
    check_clause,
    invariant_vectors,
    judge_theorem,
)

DEFAULT_MAX_ORDER = 4

_GENERIC_LABELS = ("0", "1", "a", "b", "c", "d", "e", "f")


@dataclass(frozen=True)
class ScanEntry:
    order: int
    key: str  # canonical key, hex
    flags: dict[str, bool]
    verdicts: dict[str, str]


@dataclass(frozen=True)
class ScanReport:
    orders: tuple[int, ...]
    counts: dict[int, int]
    entries: tuple[ScanEntry, ...]
    tallies: dict[str, dict[str, int]]
    violations: tuple[dict, ...]


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


def _least_relabeling(tables, n: int, pinned: dict[int, int],
                      blocks: list[list[int]]) -> tuple[bytes, list[int]]:
    """Least flattened relabeling of tables over the bijections that keep
    each pinned element at its given index and send the blocks, in order,
    onto the consecutive indices after the pinned ones."""
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


def _canonical_search(S: FiniteSemiring) -> tuple[bytes, list[int]]:
    vecs = invariant_vectors(S)
    pinned = {S.zero: 0}
    if S.one != S.zero:
        pinned[S.one] = 1
    blocks: dict[tuple, list[int]] = {}
    for e in S.elements:
        if e not in pinned:
            blocks.setdefault(vecs[e], []).append(e)
    return _least_relabeling((S.add, S.mul), S.order, pinned,
                             [blocks[v] for v in sorted(blocks)])


def canonical_form(S: FiniteSemiring) -> bytes:
    """Canonical key: least relabeled table pair over bijections fixing
    zero at 0 and one at 1, searched within invariant-vector blocks.

    Keys of two validated semirings are equal iff the semirings are
    isomorphic: the candidate permutation set is itself an isomorphism
    invariant, so isomorphic inputs minimize over the same relabelings.
    """
    return _canonical_search(S)[0]


def canonical_relabel(S: FiniteSemiring) -> FiniteSemiring:
    """The canonical representative of S's isomorphism class."""
    _, perm = _canonical_search(S)
    return reindex(S, perm)


def enumerate_commutative_monoids(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Commutative monoid tables on {0..n-1} with identity 0, one table per
    isomorphism class (isomorphisms fix 0)."""
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
        key, _ = _least_relabeling((frozen,), n, {0: 0}, [list(range(1, n))])
        found.setdefault(key, frozen)
    return [found[k] for k in sorted(found)]


def _complete_mul_tables(add, n: int, one: int):
    """Backtrack over the free multiplication cells, pruning each partial
    table by every associativity and distributivity instance whose operands
    are already determined."""
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


def enumerate_semirings(order: int,
                        max_order: int = DEFAULT_MAX_ORDER) -> list[FiniteSemiring]:
    """All semirings of the given order up to isomorphism, as canonical
    representatives sorted by canonical key."""
    if order > max_order:
        raise DomainError(f"order {order} above configured maximum {max_order}")
    if order < 1:
        raise DomainError("order must be positive")
    if order == 1:
        return [make_semiring(((0,),), ((0,),), 0, 0, ("0",))]
    found: dict[bytes, FiniteSemiring] = {}
    labels = _GENERIC_LABELS[:order]
    for add in enumerate_commutative_monoids(order):
        for one in range(1, order):
            for mul in _complete_mul_tables(add, order, one):
                S = make_semiring(add, mul, 0, one, None)
                key, perm = _canonical_search(S)
                if key not in found:
                    canon = reindex(S, perm)
                    found[key] = FiniteSemiring(
                        order=canon.order, add=canon.add, mul=canon.mul,
                        zero=canon.zero, one=canon.one, labels=labels)
    return [found[k] for k in sorted(found)]


# scan flag -> the theorem-table clause it reports
_FLAG_CLAUSES = {
    "boolean": CONCL_BOOLEAN,
    "commutative": CONCL_COMMUTATIVE,
    "mult-gen-idempotents": HYP_MULT_GEN_IDEM,
    "mult-gen-nilidempotents": HYP_MULT_GEN_NILIDEM,
    "add-gen-idempotents": HYP_ADD_GEN_IDEM,
    "orthogonal-complements": HYP_ORTH_COMPLEMENTS,
    "nilorthogonal-complements": HYP_NILORTH_COMPLEMENTS,
    "nil-in-z": HYP_NIL_IN_Z,
    "nil-in-vz": HYP_NIL_IN_V_AND_Z,
}
SCAN_FLAGS = tuple(_FLAG_CLAUSES)


def _scan_entry(S: FiniteSemiring, theorem_ids) -> tuple[ScanEntry, list[dict]]:
    key = canonical_form(S).hex()
    checks = {name: check_clause(S, name) for name in _FLAG_CLAUSES.values()}
    verdicts = {}
    violations = []
    for theorem in theorem_ids:
        report = judge_theorem(theorem, checks)
        verdicts[theorem] = report.verdict
        if report.verdict == VERDICT_VIOLATION:
            violations.append({
                "order": S.order,
                "key": key,
                "theorem": theorem,
                "failed_conclusions": [c.name for c in report.conclusions
                                       if not c.holds],
                "semiring": serialize_semiring(S),
            })
    flags = {flag: checks[name].holds for flag, name in _FLAG_CLAUSES.items()}
    entry = ScanEntry(order=S.order, key=key, flags=flags, verdicts=verdicts)
    return entry, violations


def scan(orders, theorem_ids=THEOREM_IDS, include_trivial: bool = False,
         max_order: int = DEFAULT_MAX_ORDER) -> ScanReport:
    """Run the chosen theorems over every catalog semiring of the given
    orders.  Entries come in catalog order, and `violations` lists every
    (semiring, theorem) pair whose hypotheses hold but whose conclusions
    fail."""
    orders = tuple(orders)
    for theorem in theorem_ids:
        if theorem not in THEOREM_IDS:
            raise DomainError(f"unknown theorem id {theorem!r}")
    catalog: list[FiniteSemiring] = []
    counts: dict[int, int] = {}
    for order in orders:
        batch = enumerate_semirings(order, max_order=max_order)
        if not include_trivial:
            batch = [S for S in batch if S.order > 1]
        counts[order] = len(batch)
        catalog.extend(batch)

    results = [_scan_entry(S, theorem_ids) for S in catalog]
    entries = tuple(entry for entry, _ in results)
    violations = [v for _, batch in results for v in batch]
    tallies: dict[str, dict[str, int]] = {}
    for theorem in theorem_ids:
        tally = {"confirmed": 0, "vacuous": 0, "VIOLATION": 0}
        for entry in entries:
            tally[entry.verdicts[theorem]] += 1
        tallies[theorem] = tally
    return ScanReport(orders=orders, counts=counts, entries=entries,
                      tallies=tallies, violations=tuple(violations))
