"""Census of small semirings up to isomorphism, and theorem scans over it.

Enumeration is staged: first the commutative addition monoids with identity
at index 0, up to relabeling that fixes 0; then, per additive table and per
choice of the multiplicative identity, the multiplication tables.  Both
stages fill a partial table with one backtracking search, `_completions`,
that checks only the law instances reading the cell just set, and keeps a
completion only if it is the lex-leader of its orbit under the stage's
relabelings (orderly generation, after Read's "Every one a winner"): all
relabelings fixing 0 for the monoids, and for the multiplications the
automorphisms of the addition that fix one, with one tried only at the
least element of its orbit.  So each class is built once, and no table is
thrown away as a duplicate.  The output is the same as keeping the first
table of each class from a search with no group: values are tried in
ascending order, so that first table is the least of its class in fill
order, which is the leader.  On 2 vCPUs under CPython 3.11 the monoids of
order 6 take about 0.5 s and the whole order-6 catalog 3-4 s (16 s and
21 s when every labelled table was built and deduplicated); order 5
takes 0.04 s and 0.2 s.

Each class is named by a canonical key, the lexicographically least
relabeling fixing zero at 0 and one at 1 within invariant-vector blocks,
found by one branch and bound, `_least_relabeling`, that builds the key
cell by cell and prunes every partial relabeling whose prefix is already
larger, so it reaches the same key, and on ties the same permutation, as
trying every relabeling would.  The key sorts the output; two leaders with
one key would be a defect, and raise InternalCheckError.

A scan judges each theorem with `ops.check_theorem` and reads the entry
flags off the same clause checks, which `ops.check_clause` evaluates once
per semiring, so every clause of `ops.CLAUSES` runs once per entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    DEFAULT_MAX_ORDER,
    THEOREM_IDS,
    DomainError,
    FiniteSemiring,
    InternalCheckError,
    make_semiring,
    reindex,
)
from .ops import (
    CLAUSES,
    VERDICT_VIOLATION,
    check_clause,
    check_theorem,
    invariant_vectors,
)

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


def _least_relabeling(tables, n: int, pinned: dict[int, int],
                      blocks: list[list[int]]) -> tuple[bytes, list[int]]:
    """Least flattened relabeling of tables over the bijections that keep
    each pinned element at its given index and send the blocks, in order,
    onto the consecutive indices after the pinned ones.  Among the
    bijections that reach the least key, the one returned has the least
    tuple of positions within the blocks, label by label, which is the
    first one in `itertools.product` order over the block permutations.

    Branch and bound: the key `[n] + cells`, table by table and row by
    row, is built cell by cell under a partial bijection `perm` (old to
    new) and `inv` (new to old), with the pinned elements and the blocks
    of one element set from the start.  A cell that needs an unlabeled
    row or column label branches on the free elements of that label's
    block, unless two or more are free and all give the cell the same
    value; a cell whose value has no label yet branches on the free
    labels of its block in ascending order.  Once every label is set, the
    key is read off whole rows at a time.  While the prefix equals the
    best key's prefix, a larger cell prunes the subtree.  A value that
    every free element gives stays the cell's value under every
    completion, because labels are only ever added.
    """
    perm = [-1] * n
    inv = [-1] * n
    for e, p in pinned.items():
        perm[e] = p
        inv[p] = e
    owner: list[list[int]] = [[]] * n  # label -> its block
    span = [(0, 0)] * n  # element -> its block's labels
    rank = [0] * n  # element -> position in its block
    p = len(pinned)
    for block in blocks:
        if len(block) == 1:
            perm[block[0]], inv[p] = p, block[0]
        else:
            for i, e in enumerate(block):
                owner[p + i] = block
                span[e] = (p, p + len(block))
                rank[e] = i
        p += len(block)
    rows = [(table, r) for table in tables for r in range(n)]
    size = len(rows) * n + 1
    cur = bytearray(size)
    cur[0] = n
    best = bytearray()
    best_inv: list[int] = []

    def settled(label: int, free: list[int], table, r: int, c: int):
        """The cell's value if it is the same for every one of two or
        more free elements that could take `label`, else None."""
        if len(free) == 1 or r != c and inv[r] < 0 and inv[c] < 0:
            return None
        value = -1
        for e in free:
            w = table[e if r == label else inv[r]][e if c == label else inv[c]]
            x = label if w == e else perm[w]
            if x < 0 or value not in (-1, x):
                return None
            value = x
        return value

    def search(pos: int, tight: bool) -> None:
        nonlocal best, best_inv
        while pos < size:
            k, c = divmod(pos - 1, n)
            table, r = rows[k]
            if c == 0 and -1 not in inv:
                end = pos + n if tight else size
                seg = bytes([perm[row[j]] for t, i in rows[k:(end - 1) // n]
                             for row in (t[inv[i]],) for j in inv])
                if tight:
                    if seg > best[pos:end]:
                        return
                    tight = seg == best[pos:end]
                cur[pos:end] = seg
                pos = end
                continue
            a, b = inv[r], inv[c]
            if a < 0 or b < 0:
                label = r if a < 0 else c
                free = [e for e in owner[label] if perm[e] < 0]
                value = settled(label, free, table, r, c)
                if value is None:
                    for e in free:
                        perm[e], inv[label] = label, e
                        search(pos, tight)
                        perm[e] = -1
                        # the child set best or was compared with it, so
                        # best now shares this prefix
                        tight = True
                    inv[label] = -1
                    return
            else:
                v = table[a][b]
                value = perm[v]
                if value < 0:
                    for label in range(*span[v]):
                        if inv[label] >= 0:
                            continue
                        if tight and label > best[pos]:
                            break
                        perm[v], inv[label] = label, v
                        search(pos, tight)
                        inv[label] = -1
                        tight = True
                    perm[v] = -1
                    return
            if tight:
                if value > best[pos]:
                    return
                tight = value == best[pos]
            cur[pos] = value
            pos += 1
        if not tight:
            best, best_inv = bytearray(cur), list(inv)
        elif [rank[e] for e in inv] < [rank[e] for e in best_inv]:
            best_inv = list(inv)

    search(1, False)
    best_perm = [0] * n
    for new, old in enumerate(best_inv):
        best_perm[old] = new
    return bytes(best), best_perm


def _canonical_search(S: FiniteSemiring) -> tuple[bytes, list[int]]:
    if S.order > 255:  # a key holds the order and each label in one byte
        raise DomainError(f"canonical keys need order at most 255, not {S.order}")
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
    zero at 0 and one at 1 and sending the invariant-vector blocks, in
    sorted order of their vectors, onto consecutive labels.

    Keys of two validated semirings are equal iff the semirings are
    isomorphic: the candidate permutation set is itself an isomorphism
    invariant, so isomorphic inputs minimize over the same relabelings.
    The minimum is found by branch and bound rather than by flattening
    every candidate; among relabelings that tie on the key,
    `canonical_relabel` uses the one with the lex-least tuple of block
    positions, the first in the order of the exhaustive search.  Orders
    above 255 raise DomainError, as each label is one byte of the key.
    """
    return _canonical_search(S)[0]


def canonical_relabel(S: FiniteSemiring) -> FiniteSemiring:
    """The canonical representative of S's isomorphism class."""
    _, perm = _canonical_search(S)
    return reindex(S, perm)


def _laws_hold(t, add, n: int, cells) -> bool:
    """Whether the decided instances (a, b, c) of associativity of the
    partial table `t` and, unless `add` is None, of both distributive laws
    over `add` hold, for a the row or c the column of a position in
    `cells`.  Those are all the instances that read `cells`: associativity
    reads (a,b), (b,c), (ab,c) and (a,bc), left distributivity row a, and
    right distributivity column c."""
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


def _completions(t, cells, add, n: int, group=()):
    """Each completion of the partial table `t` (-1 marks a free cell)
    that passes `_laws_hold` and is the lex-leader of its orbit under
    `group`, as a tuple of tuples, giving the positions of each tuple in
    `cells` one value, tried in ascending order.  Setting a tuple decides
    only instances that read it, so checking those keeps every decided
    instance true.  The base case is a full check of the preset cells, for
    instances such as a(1+1) = a+a with 1+1 in {0, 1}, which read no free
    cell.

    `group` lists relabelings p (old to new, a sequence) that keep the
    preset cells and the laws, so each maps a completion c to the
    completion p.c with (p.c)[p[i]][p[j]] = p[c[i][j]].  A completion is a
    leader when no p.c is smaller in fill order, the order of the first
    position of each tuple in `cells`.  After each value is set, the
    search walks those positions, comparing p's image cell with the
    table's, and stops at the first image cell that reads a free cell or
    is larger (a free table cell reads -1, below every image); it prunes
    at the first image cell that is smaller.  Every cell that walk read
    is set and stays set, so p.c is then smaller for every completion c
    of the partial table, and the subtree holds no leader; at a full
    table the walk decides p.c < c exactly.

    So the search yields the leaders, and only them.  Values are tried in
    ascending order, so completions come in fill order and the leader of
    an orbit is its first completion.  Where `group` holds every
    relabeling that keeps the presets and the laws, the orbits are the
    isomorphism classes, and the leaders are the tables that a search
    with no group would keep if it kept the first table of each class."""
    spots = [tup[0] for tup in cells]
    images = []
    for p in group:
        inv = [0] * n
        for old, new in enumerate(p):
            inv[new] = old
        images.append((p, [(inv[i], inv[j]) for i, j in spots]))

    def leader() -> bool:
        for p, reads in images:
            for (a, b), (i, j) in zip(reads, spots):
                x = t[a][b]
                if x < 0:
                    break
                x = p[x] - t[i][j]
                if x:
                    if x < 0:
                        return False
                    break
        return True

    def fill(k: int):
        if k == len(cells):
            yield tuple(tuple(row) for row in t)
            return
        for v in range(n):
            for i, j in cells[k]:
                t[i][j] = v
            if _laws_hold(t, add, n, cells[k]) and leader():
                yield from fill(k + 1)
        for i, j in cells[k]:
            t[i][j] = -1

    if _laws_hold(t, add, n, [(a, a) for a in range(n)]):
        yield from fill(0)


def _relabelings(n: int) -> list[tuple[int, ...]]:
    """The permutations of {0..n-1} that fix 0, other than the identity."""
    return [(0, *p) for p in itertools.permutations(range(1, n))][1:]


def enumerate_commutative_monoids(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Commutative monoid tables on {0..n-1} with identity 0, one table per
    isomorphism class (isomorphisms fix 0): the leaders under every
    relabeling that fixes 0, sorted by canonical key."""
    table = [[-1] * n for _ in range(n)]
    for a in range(n):
        table[0][a] = table[a][0] = a
    cells = [((i, j), (j, i)) for i in range(1, n) for j in range(i, n)]
    blocks = [list(range(1, n))]
    return sorted(_completions(table, cells, None, n, _relabelings(n)),
                  key=lambda m: _least_relabeling((m,), n, {0: 0}, blocks)[0])


def _complete_mul_tables(add, n: int, one: int, group=()):
    """The multiplication tables with zero 0 and identity `one` that make
    `add` a semiring, free cells filled in row-major order; with a group
    of automorphisms of `add` that fix `one`, only the leaders."""
    mul = [[-1] * n for _ in range(n)]
    for a in range(n):
        mul[0][a] = mul[a][0] = 0
        mul[one][a] = mul[a][one] = a
    cells = [((i, j),) for i in range(n) for j in range(n) if mul[i][j] < 0]
    return _completions(mul, cells, add, n, group)


def _catalog(order: int, max_order: int) -> list[tuple[bytes, FiniteSemiring]]:
    """(canonical key, canonical representative) for each isomorphism
    class of the given order, sorted by key.

    An isomorphism between two semirings with zero 0 takes one addition
    table to the other, so it joins only semirings over the same monoid
    class, and there it is an automorphism p of `add` with one' = p[one].
    So `one` is tried only at the least element of its orbit under
    Aut(add), and the stabiliser of `one` is the group of the leader
    search: each leader is a class of its own."""
    if order > max_order:
        raise DomainError(f"order {order} above configured maximum {max_order}")
    if order < 1:
        raise DomainError("order must be positive")
    if order == 1:
        S = make_semiring(((0,),), ((0,),), 0, 0, ("0",))
        return [(canonical_form(S), S)]
    found: dict[bytes, FiniteSemiring] = {}
    labels = _GENERIC_LABELS[:order]
    pairs = [(a, b) for a in range(order) for b in range(order)]
    relabelings = _relabelings(order)
    for add in enumerate_commutative_monoids(order):
        aut = [p for p in relabelings
               if all(p[add[a][b]] == add[p[a]][p[b]] for a, b in pairs)]
        for one in range(1, order):
            if any(p[one] < one for p in aut):
                continue
            stabiliser = [p for p in aut if p[one] == one]
            for mul in _complete_mul_tables(add, order, one, stabiliser):
                S = make_semiring(add, mul, 0, one, None)
                key, perm = _canonical_search(S)
                if key in found:
                    raise InternalCheckError(
                        "two leaders of the census share a canonical key")
                canon = reindex(S, perm)
                found[key] = FiniteSemiring(
                    order=canon.order, add=canon.add, mul=canon.mul,
                    zero=canon.zero, one=canon.one, labels=labels)
    return sorted(found.items())


def enumerate_semirings(order: int,
                        max_order: int = DEFAULT_MAX_ORDER) -> list[FiniteSemiring]:
    """All semirings of the given order up to isomorphism, as canonical
    representatives sorted by canonical key."""
    return [S for _, S in _catalog(order, max_order)]


SCAN_FLAGS = tuple(flag for flag, _ in CLAUSES.values())


def _scan_entry(key: str, S: FiniteSemiring,
                theorem_ids) -> tuple[ScanEntry, list[dict]]:
    verdicts = {}
    violations = []
    for theorem in theorem_ids:
        report = check_theorem(S, theorem)
        verdicts[theorem] = report.verdict
        if report.verdict == VERDICT_VIOLATION:
            from .fileformat import serialize_semiring
            violations.append({
                "order": S.order,
                "key": key,
                "theorem": theorem,
                "failed_conclusions": [c.name for c in report.conclusions
                                       if not c.holds],
                "semiring": serialize_semiring(S),
            })
    flags = {flag: check_clause(S, name).holds
             for name, (flag, _) in CLAUSES.items()}
    entry = ScanEntry(order=S.order, key=key, flags=flags, verdicts=verdicts)
    return entry, violations


def scan(orders, theorem_ids=THEOREM_IDS, include_trivial: bool = False,
         max_order: int = DEFAULT_MAX_ORDER) -> ScanReport:
    """Run the chosen theorems over every catalog semiring of the given
    orders.  Entries come in catalog order, and `violations` lists every
    (semiring, theorem) pair whose hypotheses hold but whose conclusions
    fail.  Orders must be distinct integers."""
    orders = tuple(orders)
    for order in orders:
        if not isinstance(order, int) or isinstance(order, bool):
            raise DomainError(f"order must be an integer, not {order!r}")
    if len(set(orders)) != len(orders):
        raise DomainError(f"orders must be distinct, not {list(orders)}")
    for theorem in theorem_ids:
        if theorem not in THEOREM_IDS:
            raise DomainError(f"unknown theorem id {theorem!r}")
    catalog: list[tuple[bytes, FiniteSemiring]] = []
    counts: dict[int, int] = {}
    for order in orders:
        batch = _catalog(order, max_order)
        if not include_trivial:
            batch = [(key, S) for key, S in batch if S.order > 1]
        counts[order] = len(batch)
        catalog.extend(batch)

    results = [_scan_entry(key.hex(), S, theorem_ids) for key, S in catalog]
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
