"""Constructors for the semirings used throughout: presets, residue rings,
polynomial quotients, matrix and triangular semirings, direct products."""

from __future__ import annotations

from .core import DomainError, FiniteSemiring, ascii_int, tabulate

DEFAULT_MAX_ELEMENTS = 4096


def _check_size(count: int, max_elements: int = DEFAULT_MAX_ELEMENTS) -> None:
    """Refuse a carrier over the cap before any table is built."""
    if count > max_elements:
        n = count if count < 2**60 else f"at least 2^{count.bit_length() - 1}"
        raise DomainError(f"{n} elements exceeds the size cap {max_elements}")


def boolean_semiring() -> FiniteSemiring:
    """The two-element semiring {0, 1} with 1 + 1 = 1."""
    return tabulate((0, 1), max, min, 0, 1, str)


def zmod(n: int) -> FiniteSemiring:
    """Integers mod n; zmod(1) is the trivial semiring."""
    if n < 1:
        raise DomainError("modulus must be at least 1")
    _check_size(n)
    return tabulate(range(n), lambda a, b: (a + b) % n, lambda a, b: a * b % n,
                    0, 1 % n, str)


def _require_zmod(base: FiniteSemiring) -> int:
    Z = zmod(base.order)
    if (base.add, base.mul, base.zero, base.one) != (Z.add, Z.mul, Z.zero, Z.one):
        raise DomainError("base must carry the zmod(n) tables")
    return Z.order


def _poly_label(coeffs: tuple[int, ...]) -> str:
    parts = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            var = "x" if d == 1 else f"x^{d}"
            parts.append(var if c == 1 else f"{c}{var}")
    return "+".join(parts) if parts else "0"


def poly_quotient(base: FiniteSemiring, modulus: list[int]) -> FiniteSemiring:
    """Residues of base[x] modulo a monic polynomial.

    `modulus` lists coefficients from the constant term up; entries are
    reduced mod n first, so x^2 - 1 over zmod(3) may be given as [-1, 0, 1].
    """
    n = _require_zmod(base)
    mod = [c % n for c in modulus]
    d = len(mod) - 1
    if d < 1:
        raise DomainError("modulus must have degree at least 1")
    if mod[-1] != 1:
        raise DomainError("modulus must be monic")

    _check_size(n ** d)

    def times(u, v):
        raw = [0] * (2 * d - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                raw[i + j] += a * b
        # monic division: x^d = -(mod[0] + ... + mod[d-1] x^(d-1))
        for deg in range(2 * d - 2, d - 1, -1):
            c = raw[deg] % n
            for i in range(d):
                raw[deg - d + i] -= c * mod[i]
        return tuple(c % n for c in raw[:d])

    # coefficient tuples, constant term first, counting in base n
    return tabulate([tuple((e // n ** i) % n for i in range(d))
                     for e in range(n ** d)],
                    lambda u, v: tuple((a + b) % n for a, b in zip(u, v)),
                    times, (0,) * d, (1 % n,) + (0,) * (d - 1), _poly_label)


def _matrix_label(S: FiniteSemiring, mat) -> str:
    return "[" + ";".join(" ".join(S.labels[v] for v in row) for row in mat) + "]"


def _matrix_semiring(S: FiniteSemiring, n: int, triangular: bool,
                     max_elements: int) -> FiniteSemiring:
    """The n-by-n matrices over S, upper triangular if asked.

    The number of free entries is refused over the cap before anything is
    built: over the trivial base the carrier has one element whatever n
    is, but the entries and product terms still grow with n.
    """
    if n < 1:
        raise DomainError("matrix dimension must be at least 1")
    entries = n * (n + 1) // 2 if triangular else n * n
    if entries > max_elements:
        raise DomainError(f"{entries} matrix entries exceeds the size cap "
                          f"{max_elements}")
    count = S.order ** entries
    _check_size(count, max_elements)
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

    # the k with (i, k) and (k, j) both free; every other term of entry
    # (i, j) of a product has the factor S.zero, which annihilates
    free = set(positions)
    terms = [[[k for k in range(n) if (i, k) in free and (k, j) in free]
              for j in range(n)] for i in range(n)]

    def mmul(a, b):
        return tuple(tuple(S.sum(S.times(a[i][k], b[k][j]) for k in terms[i][j])
                           for j in range(n))
                     for i in range(n))

    zero = tuple((S.zero,) * n for _ in range(n))
    one = tuple(tuple(S.one if i == j else S.zero for j in range(n))
                for i in range(n))
    return tabulate(map(decode, range(count)), madd, mmul, zero, one,
                    lambda mat: _matrix_label(S, mat))


def matrix_semiring(S: FiniteSemiring, n: int,
                    max_elements: int = DEFAULT_MAX_ELEMENTS) -> FiniteSemiring:
    """Full n-by-n matrices over S with entrywise sum and row-by-column product."""
    return _matrix_semiring(S, n, False, max_elements)


def triangular_semiring(S: FiniteSemiring, n: int,
                        max_elements: int = DEFAULT_MAX_ELEMENTS) -> FiniteSemiring:
    """Upper triangular n-by-n matrices over S."""
    return _matrix_semiring(S, n, True, max_elements)


def direct_product(S: FiniteSemiring, T: FiniteSemiring) -> FiniteSemiring:
    """Componentwise operations on pairs, labelled "(s,t)"."""
    _check_size(S.order * T.order)
    return tabulate(
        [(a, b) for b in T.elements for a in S.elements],
        lambda p, q: (S.plus(p[0], q[0]), T.plus(p[1], q[1])),
        lambda p, q: (S.times(p[0], q[0]), T.times(p[1], q[1])),
        (S.zero, T.zero), (S.one, T.one),
        lambda p: f"({S.labels[p[0]]},{T.labels[p[1]]})")


def from_preset(name: str):
    """Resolve a preset name to a FiniteSemiring or a symbolic model.

    Composite presets: product:A,B[,C...] of comma-free components, and
    matrix:BASE,n and triangular:BASE,n, which nest to any depth.
    The presentation and symbolic modules load only for the presets that
    use them.
    """
    if name == "bool":
        return boolean_semiring()
    if name == "t2b":
        return triangular_semiring(boolean_semiring(), 2)
    if name == "m2z2":
        return matrix_semiring(zmod(2), 2)
    if name == "z2x-sq":
        return poly_quotient(zmod(2), [0, 0, 1])
    if name == "z3x-sqm1":
        return poly_quotient(zmod(3), [-1, 0, 1])
    if name == "bxy-presentation":
        from .presentation import presentation
        result = presentation(
            ("x", "y"),
            [("x+y", "0"), ("x*y", "0"), ("y*x", "0"),
             ("x*x", "0"), ("y*y", "0")],
            additively_idempotent=True,
        )
        if result.status != "finite":
            raise DomainError("bxy presentation did not close; raise the bound")
        return result.semiring
    if name == "nat":
        from .symbolic import nat_model
        return nat_model()
    if name == "nn-triple":
        from .symbolic import nn_triple_model
        return nn_triple_model()
    if name.startswith("zmod:"):
        try:
            n = ascii_int(name.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"malformed preset {name!r}") from None
        return zmod(n)
    if name.startswith("product:"):
        parts = name.split(":", 1)[1].split(",")
        if len(parts) < 2:
            raise DomainError("product preset needs at least two components")
        result = _finite_preset(parts[0])
        for part in parts[1:]:
            result = direct_product(result, _finite_preset(part))
        return result
    if name.startswith(("matrix:", "triangular:")):
        # peel every level before building anything, outermost first, so
        # that any nesting depth parses without recursion
        layers = []
        while name.startswith(("matrix:", "triangular:")):
            kind, rest = name.split(":", 1)
            try:
                base_name, dim = rest.rsplit(",", 1)
                n = ascii_int(dim)
            except ValueError:
                raise DomainError(f"malformed preset {name!r}") from None
            layers.append((matrix_semiring if kind == "matrix"
                           else triangular_semiring, n))
            name = base_name
        result = _finite_preset(name)
        for builder, n in reversed(layers):
            result = builder(result, n)
        return result
    raise DomainError(f"unknown preset {name!r}")


def _finite_preset(name: str) -> FiniteSemiring:
    """A component of a composite preset, which must be finite."""
    S = from_preset(name)
    if not isinstance(S, FiniteSemiring):
        raise DomainError(f"preset {name!r} is symbolic; composite presets "
                          "need finite components")
    return S

