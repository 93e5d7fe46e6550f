"""Census of small semirings up to isomorphism, and theorem scans over it.

Enumeration is staged: first the commutative addition monoids with identity
at index 0, up to relabeling that fixes 0; then, per additive table and per
choice of the multiplicative identity, the multiplication tables.  One
search, `_completions`, runs both stages: it fills a partial table cell by
cell, values in ascending order, and after each preset or filled cell
checks only the law instances that read it, found through watch lists
(`_cell_holds`).  Each row takes its values from a trie: every value for
the monoids, whose cells are set with their mirrors, and for the
multiplications the endomorphisms of the addition that send one to the
row's element, which builds in left distributivity.  A completion is kept
only if it is the lex-leader of its orbit under the stage's relabelings
(orderly generation, after Read's "Every one a winner"): all relabelings
fixing 0 for the monoids, and for the multiplications the automorphisms
of the addition that fix one, with one tried only at the least element
of its orbit.  Each node hands down the relabelings whose comparison is
still open, with the position where it is open (`_leader_step`).  So
each class is built once, and no table is thrown away as a duplicate.
The output is the same as keeping the first table of each class from a
search with no group: values are tried in ascending order, so that first
table is the least of its class in fill order, which is the leader.  What
depends only on the addition (the sum index, the endomorphisms and the
automorphisms among them) is built once per monoid.  A leader is a
semiring by construction (the preset rows of 0 and one, rows that are
endomorphisms of the addition, and the associativity and right
distributivity checks of the fill), so the catalog builds it as a
`FiniteSemiring` without checking its axioms a second time.

Each class is named by a canonical key, the lexicographically least
relabeling within the invariant-vector blocks of `FiniteSemiring._blocks`,
where zero and one lead alone and so stay at 0 and 1, found by one branch
and bound, `_least_relabeling`, that builds the key cell by cell and
prunes every partial relabeling whose prefix is already larger, so it
reaches the same key, and on ties the same permutation, as trying every
relabeling would.  The catalog is the sorted keys alone;
two leaders with one key would be a defect, and raise InternalCheckError.
A key needs only the invariant vectors, so building the catalog
classifies nothing.  Each key spells its class's representative, and a
scan builds, classifies and drops them one at a time.

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
    _walk,
    reindex,
)
from .ops import (
    CLAUSES,
    VERDICT_VIOLATION,
    check_clause,
    check_theorem,
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


def _least_relabeling(tables, n: int,
                      blocks: list[list[int]]) -> tuple[bytes, list[int]]:
    """Least flattened relabeling of tables over the bijections that send
    the blocks, in order, onto consecutive indices from 0.  Among the
    bijections that reach the least key, the one returned has the least
    tuple of positions within the blocks, label by label, which is the
    first one in `itertools.product` order over the block permutations.

    Branch and bound: the key `[n] + cells`, table by table and row by
    row, is built cell by cell under a partial bijection `perm` (old to
    new) and `inv` (new to old), with the blocks of one element set from
    the start.  A cell that needs an unlabeled row or column label
    branches on the free elements of that label's block, unless two or
    more are free and all give the cell the same value; a cell whose value
    has no label yet branches on the free labels of its block in ascending
    order.  Once every label is set, the key is read off whole rows at a
    time.  While the prefix equals the best key's prefix, a larger cell
    prunes the subtree.  A value that every free element gives stays the
    cell's value under every completion, as labels are only ever added.
    """
    perm = [-1] * n
    inv = [-1] * n
    owner: list[list[int]] = [[]] * n  # label -> its block
    span = [(0, 0)] * n  # element -> its block's labels
    rank = [0] * n  # element -> position in its block
    p = 0
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
    return _least_relabeling((S.add, S.mul), S.order,
                             [block for _, block in S._blocks])


def canonical_form(S: FiniteSemiring) -> bytes:
    """Canonical key: least relabeled table pair over bijections sending
    the invariant-vector blocks onto consecutive labels: zero's block of
    one element, then one's, then the others in sorted order of their
    vectors.

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


def _sum_index(add, n: int) -> list[list[tuple[int, int, int]]]:
    """For each element x of the commutative monoid `add`, the triples
    (a, b, a + b) with a <= b and x among a, b and a + b: the instances of
    f(a + b) = f(a) + f(b) that read f at x."""
    index: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            s = add[a][b]
            for x in {a, b, s}:
                index[x].append((a, b, s))
    return index


def _cell_holds(t, i: int, j: int, holders, add=None, sums=None) -> bool:
    """Whether every decided instance of associativity of the partial table
    `t` (-1 marks a free cell) that reads the set cell (i, j) holds and,
    unless `add` is None, every decided instance of right distributivity,
    (a+b)c = ac + bc, over the commutative `add`.

    (ab)c = a(bc) reads (a, b), (b, c), (ab, c) and (a, bc), so the cell is
    read at (i, j, c) and (a, i, j) for every a and c, at (a, b, j) for each
    set cell (a, b) that holds i, and at (i, b, c) for each set cell (b, c)
    that holds j; `holders[v]` lists the set cells that hold v.  Right
    distributivity reads column c at rows a, b and a + b, so the cell is
    read at c = j and the triples `sums[i]` of `_sum_index(add, n)`.  An
    instance is decided once its last cell is set, so checking each cell
    as it is set keeps every decided instance true."""
    ti, tj = t[i], t[j]
    v = ti[j]
    tv = t[v]
    for c, jc in enumerate(tj):  # (ij)c = i(jc)
        if jc >= 0:
            x, y = tv[c], ti[jc]
            if x != y and x >= 0 and y >= 0:
                return False
    for ta in t:  # (ai)j = a(ij)
        ai = ta[i]
        if ai >= 0:
            x, y = t[ai][j], ta[v]
            if x != y and x >= 0 and y >= 0:
                return False
    for a, b in holders[i]:  # (ab)j = a(bj) with ab = i
        bj = t[b][j]
        if bj >= 0:
            x = t[a][bj]
            if x != v and x >= 0:
                return False
    for b, c in holders[j]:  # (ib)c = i(bc) with bc = j
        ib = ti[b]
        if ib >= 0:
            x = t[ib][c]
            if x != v and x >= 0:
                return False
    if add is not None:
        for a, b, s in sums[i]:  # (a+b)j = aj + bj
            x, y, z = t[a][j], t[b][j], t[s][j]
            if x >= 0 and y >= 0 and z >= 0 and z != add[x][y]:
                return False
    return True


def _leader_step(t, live, k: int):
    """The relabelings of `live` whose comparison stays open once the fill
    positions up to k of `t` are set, or None if one of them shows that
    the table's orbit holds a smaller completion.

    Each entry is (p, walk, pos): p a relabeling (old to new), walk[q] =
    (a, b, i, j) with (i, j) the cell at fill position q and (a, b) the
    cell that p carries onto it, and pos the first position where p's
    comparison is open.  Every position before pos is set and reads the
    same under p, and positions are set in order, so the walk resumes at
    pos, which is at most k (`_walks` opens every entry at 0, and a step
    to k - 1 passes on only entries open at k or before): an image cell
    that is free leaves the comparison open there; an image that reads
    larger than the set table cell makes p.c larger for every completion
    c, and p is dropped; one that reads smaller makes p.c smaller for
    every completion, so the subtree holds no leader.  A relabeling that
    reads the same at every position fixes the table and is dropped
    too."""
    out = []
    for p, walk, pos in live:
        while pos <= k:
            a, b, i, j = walk[pos]
            x = t[a][b]
            if x < 0:
                out.append((p, walk, pos))
                break
            x = p[x] - t[i][j]
            if x:
                if x < 0:
                    return None
                break
            pos += 1
        else:
            if pos < len(walk):
                out.append((p, walk, pos))
    return out


def _walks(group, spots, n: int) -> list:
    """The `_leader_step` entries of the relabelings in `group` for the
    fill positions `spots`, each open at position 0."""
    live = []
    for p in group:
        inv = [0] * n
        for old, new in enumerate(p):
            inv[new] = old
        live.append((p, [(inv[i], inv[j], i, j) for i, j in spots], 0))
    return live


def _completions(t, cells, n: int, group=(), roots=None, add=None,
                 sums=None):
    """Each completion of the partial table `t` (-1 marks a free cell)
    that is associative and, unless `add` is None, right distributive over
    the commutative `add` (`sums` is `_sum_index(add, n)`), and is the
    lex-leader of its orbit under `group`, as a tuple of tuples.  Each
    tuple in `cells` is a position, or a position and its mirror, set to
    one value.  `roots[i]` is the `_trie` of row i's values at its cells,
    which come one after another in `cells`; None allows every value.

    The search sets the preset cells of `t` one at a time, then the tuples
    of `cells` in order, and checks with `_cell_holds` only the instances
    that read the cell just set; so every decided instance holds at every
    node, including those that read only preset cells.  On a symmetric
    table the mirror (c, b, a) of an associativity instance (a, b, c)
    reads the mirrors of its cells and holds exactly when it does, so a
    tuple's first position is the only one checked.  Right distributivity
    has no such mirror, so `add` goes with tuples of one position.

    `group` lists relabelings p (old to new, a sequence) that keep the
    preset cells, the laws and the row candidates, so each maps a
    completion c to the completion p.c with (p.c)[p[i]][p[j]] = p[c[i][j]].
    A completion is a leader when no p.c is smaller in fill order, the
    order of the first position of each tuple in `cells`.  Each node
    passes on, by `_leader_step`, the relabelings whose comparison with
    the partial table is still open, and prunes when one reads smaller:
    every cell read is set and stays set, so p.c is then smaller for every
    completion c of the partial table, and the subtree holds no leader; at
    a full table the comparison is decided for every relabeling.

    So the search yields the leaders, and only them.  Values are tried in
    ascending order, so completions come in fill order and the leader of
    an orbit is its first completion.  Where `group` holds every
    relabeling that keeps the presets and the laws, the orbits are the
    isomorphism classes, and the leaders are the tables that a search
    with no group would keep if it kept the first table of each class."""
    if roots is None:
        roots = [[(v, None) for v in range(n)]] * n
    preset, t = t, [[-1] * n for _ in range(n)]
    holders: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(preset):
        for j, v in enumerate(row):
            if v >= 0:
                t[i][j] = v
                holders[v].append((i, j))
                if not _cell_holds(t, i, j, holders, add, sums):
                    return

    def fill(k: int, live, node):
        if k == len(cells):
            yield tuple(tuple(row) for row in t)
            return
        tup = cells[k]
        i, j = tup[0]
        for v, rest in roots[i] if node is None else node:
            for a, b in tup:
                t[a][b] = v
            held = holders[v]
            held += tup
            if _cell_holds(t, i, j, holders, add, sums):
                nxt = _leader_step(t, live, k)
                if nxt is not None:
                    yield from fill(k + 1, nxt, rest)
            del held[-len(tup):]
        for a, b in tup:
            t[a][b] = -1

    yield from fill(0, _walks(group, [tup[0] for tup in cells], n), None)


def _check_order(order, name: str = "order") -> None:
    """Refuse an order that is not a positive int (a bool is not one)."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise DomainError(f"{name} must be an integer, not {order!r}")
    if order < 1:
        raise DomainError(f"{name} must be positive, not {order}")


def _check_orders(orders, max_order) -> None:
    """Refuse what `_check_order` refuses, and any order above max_order."""
    _check_order(max_order, "max_order")
    for order in orders:
        _check_order(order)
        if order > max_order:
            raise DomainError(f"order {order} above configured maximum {max_order}")


def enumerate_commutative_monoids(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Commutative monoid tables on {0..n-1} with identity 0, one table per
    isomorphism class (isomorphisms fix 0): the leaders under every
    relabeling that fixes 0, in fill order.

    Each leader is also its class's least relabeling, flattened: every
    relabeling here keeps row and column 0, and a cell below the diagonal
    repeats one earlier in row-major order, so flattened tables compare as
    their fill positions do.  So the leaders come sorted by that key."""
    _check_order(n)
    table = [[-1] * n for _ in range(n)]
    for a in range(n):
        table[0][a] = table[a][0] = a
    cells = [((i, j), (j, i)) if i < j else ((i, i),)
             for i in range(1, n) for j in range(i, n)]
    # the relabelings that fix 0, less the identity, which comes first
    group = [(0, *p) for p in itertools.permutations(range(1, n))][1:]
    return list(_completions(table, cells, n, group))


def _endomorphisms(add, n: int, sums) -> list[tuple[int, ...]]:
    """The endomorphisms f of the commutative monoid `add` on {0..n-1}
    with identity 0, in ascending order; `sums` is `_sum_index(add, n)`.
    Each element is reached by `_walk` as a generator or as r + g, r
    reached before it and g a generator, so f branches only at the
    generators and f(r + g) = f(r) + f(g) sets the rest; f(a + b) =
    f(a) + f(b) is checked at each triple of `sums` when the last of its
    three elements is set."""
    f = [0] * n
    steps = []
    done = {0}
    for x, r, g in itertools.islice(_walk(add, (0,), n), 1, None):
        done.add(x)
        steps.append((x, r, g, [t for t in sums[x] if done.issuperset(t)]))
    found: list[tuple[int, ...]] = []

    def extend(k: int) -> None:
        if k == len(steps):
            found.append(tuple(f))
            return
        x, r, g, checks = steps[k]
        for v in range(n) if r is None else (add[f[r]][f[g]],):
            f[x] = v
            for a, b, s in checks:
                if f[s] != add[f[a]][f[b]]:
                    break
            else:
                extend(k + 1)

    extend(0)
    return sorted(found)


def _trie(rows) -> list:
    """The sorted, equally long, nonempty sequences `rows` as a trie: a
    list of (value, subtrie) pairs in ascending order of value, the
    subtrie None after the last position."""
    root: list = []
    for row in rows:
        node = root
        for v in row[:-1]:
            if not node or node[-1][0] != v:
                node.append((v, []))
            node = node[-1][1]
        if not node or node[-1][0] != row[-1]:
            node.append((row[-1], None))
    return root


def _complete_mul_tables(add, n: int, one: int, group=(), ends=None,
                         sums=None):
    """The multiplication tables with zero 0 and identity `one` that make
    the commutative monoid `add` a semiring, free cells filled in
    row-major order; with a group of automorphisms of `add` that fix
    `one`, only the leaders (see `_completions`).  `sums` is
    `_sum_index(add, n)` and `ends` `_endomorphisms(add, n, sums)`, both
    built here if not given.

    Left distributivity, a(b+c) = ab + ac, says that row a is an
    endomorphism of (S, +); it sends 0 to 0 and `one` to a.  So the free
    cells of row a take only the values of the endomorphisms that send
    `one` to a, read from a trie of them that follows the row's set cells,
    and there are no tables if some row has no such endomorphism.
    `_completions` checks associativity and right distributivity, the
    preset rows and columns of 0 and `one` included."""
    if sums is None:
        sums = _sum_index(add, n)
    if ends is None:
        ends = _endomorphisms(add, n, sums)
    t = [[-1] * n for _ in range(n)]
    for a in range(n):
        t[0][a] = t[a][0] = 0
        t[one][a] = t[a][one] = a
    free = [x for x in range(1, n) if x != one]
    rows: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for f in ends:
        rows[f[one]].append(f)
    if not all(rows[x] for x in free):
        return
    roots = {x: _trie([[f[c] for c in free] for f in rows[x]]) for x in free}
    yield from _completions(t, [((i, j),) for i in free for j in free], n,
                            group, roots, add, sums)


def _catalog(order: int, max_order: int) -> list[bytes]:
    """The sorted canonical keys of the isomorphism classes of this order.

    An isomorphism between two semirings with zero 0 takes one addition
    table to the other, so it joins only semirings over the same monoid
    class, and there it is an automorphism p of `add` with one' = p[one].
    The automorphisms are the endomorphisms that are bijections.  So
    `one` is tried only at the least element of its orbit under Aut(add),
    and the stabiliser of `one` is the group of the leader search: each
    leader is a class of its own.

    A leader is built as a `FiniteSemiring` with no second axiom check,
    being a semiring by construction: `enumerate_commutative_monoids`
    gives a commutative monoid with identity 0; `_complete_mul_tables`
    presets the rows and columns of 0 and `one`, so 0 annihilates and
    `one` is the identity, and takes each row from the endomorphisms of
    `+`, so * distributes on the left; and `_completions` checks every
    associativity and right distributivity instance as it fills a cell.
    The tests hold the representatives to an independent axiom oracle."""
    _check_orders((order,), max_order)
    found: set[bytes] = set()
    identity = tuple(range(order))
    for add in enumerate_commutative_monoids(order):
        sums = _sum_index(add, order)
        ends = _endomorphisms(add, order, sums)
        aut = [f for f in ends if len(set(f)) == order and f != identity]
        for one in range(1 % order, order):
            if any(p[one] < one for p in aut):
                continue
            stabiliser = [p for p in aut if p[one] == one]
            for mul in _complete_mul_tables(add, order, one, stabiliser, ends,
                                            sums):
                key = canonical_form(FiniteSemiring(
                    order, add, mul, 0, one, _GENERIC_LABELS[:order]))
                if key in found:
                    raise InternalCheckError(
                        "two leaders of the census share a canonical key")
                found.add(key)
    return sorted(found)


def _representative(key: bytes) -> FiniteSemiring:
    """The catalog semiring that a canonical key spells: its `+` and `*`
    rows, zero at 0, one at 1 % order and generic labels."""
    n = key[0]
    rows = [tuple(key[i:i + n]) for i in range(1, len(key), n)]
    return FiniteSemiring(order=n, add=tuple(rows[:n]), mul=tuple(rows[n:]),
                          zero=0, one=1 % n, labels=_GENERIC_LABELS[:n])


def enumerate_semirings(order: int,
                        max_order: int = DEFAULT_MAX_ORDER) -> list[FiniteSemiring]:
    """All semirings of the given order up to isomorphism, as canonical
    representatives sorted by canonical key."""
    return [_representative(key) for key in _catalog(order, max_order)]


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
    theorem_ids = tuple(theorem_ids)
    _check_orders(orders, max_order)
    if len(set(orders)) != len(orders):
        raise DomainError(f"orders must be distinct, not {list(orders)}")
    for theorem in theorem_ids:
        if theorem not in THEOREM_IDS:
            raise DomainError(f"unknown theorem id {theorem!r}")
    keys: list[bytes] = []
    counts: dict[int, int] = {}
    for order in orders:
        batch = _catalog(order, max_order)
        if not include_trivial:
            batch = [key for key in batch if key[0] > 1]
        counts[order] = len(batch)
        keys.extend(batch)

    tallies = {theorem: {"confirmed": 0, "vacuous": 0, "VIOLATION": 0}
               for theorem in theorem_ids}
    entries, violations = [], []
    for key in keys:  # one representative alive at a time
        entry, hits = _scan_entry(key.hex(), _representative(key), theorem_ids)
        entries.append(entry)
        violations.extend(hits)
        for theorem, verdict in entry.verdicts.items():
            tallies[theorem][verdict] += 1
    return ScanReport(orders=orders, counts=counts, entries=tuple(entries),
                      tallies=tallies, violations=tuple(violations))
