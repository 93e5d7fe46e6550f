import importlib

import pytest

from semirings import (
    DomainError,
    FiniteSemiring,
    boolean_semiring,
    direct_product,
    element_classes,
    from_preset,
    is_commutative,
    isomorphic,
    matrix_semiring,
    peirce_decompose,
    poly_quotient,
    triangular_semiring,
    validate,
    zmod,
)
from semirings.symbolic import NatModel, TripleModel

from oracles import (
    axiom_sweep,
    fixture_semirings,
    matrix_semiring_brute,
    tabulate_brute,
)


@pytest.mark.parametrize("name,S", fixture_semirings())
def test_every_constructor_output_validates(name, S):
    assert validate(S.add, S.mul, S.zero, S.one).valid


def test_boolean_semiring_tables():
    B = boolean_semiring()
    assert B.plus(1, 1) == 1
    assert B.labels == ("0", "1")
    assert len(element_classes(B).idempotents) == 2


def test_zmod_rejects_zero_modulus():
    with pytest.raises(DomainError):
        zmod(0)


# ----------------------------------------------------------- poly_quotient

def test_poly_quotient_z2_square(z2x):
    assert z2x.order == 4
    assert z2x.labels == ("0", "1", "x", "1+x")
    classes = element_classes(z2x)
    assert [z2x.labels[e] for e in classes.nilpotents] == ["0", "x"]


def test_poly_quotient_z3_square_minus_one(z3x):
    assert z3x.order == 9
    idem = [z3x.labels[e] for e in element_classes(z3x).idempotents]
    assert sorted(idem) == sorted(["0", "1", "2+2x", "2+x"])


def test_poly_quotient_degree_one_collapses_to_base(z2):
    S = poly_quotient(zmod(2), [0, 1])
    assert S.order == 2
    assert S.add == z2.add and S.mul == z2.mul


def test_poly_quotient_rejects_non_monic():
    with pytest.raises(DomainError):
        poly_quotient(zmod(3), [1, 0, 2])
    with pytest.raises(DomainError):
        poly_quotient(zmod(3), [1])


def test_poly_quotient_rejects_non_zmod_base(t2b):
    with pytest.raises(DomainError):
        poly_quotient(t2b, [0, 0, 1])


# ------------------------------------------------------- matrix/triangular

def test_triangular_bool_matches_expected_shape(t2b):
    assert t2b.order == 8
    assert t2b.labels[t2b.zero] == "[0 0;0 0]"
    assert t2b.labels[t2b.one] == "[1 0;0 1]"
    assert len(element_classes(t2b).idempotents) == 7


def test_matrix_z2_shape(m2z2):
    assert m2z2.order == 16
    assert not is_commutative(m2z2)


def test_matrix_dimension_one_is_isomorphic_to_base(z4):
    assert isomorphic(matrix_semiring(z4, 1), z4) is not None


def test_triangular_embeds_into_matrix():
    B = boolean_semiring()
    T = triangular_semiring(B, 2)
    M = matrix_semiring(B, 2)
    # the inclusion on carriers (matching matrix labels) preserves tables
    into = [M.index_of(T.labels[t]) for t in T.elements]
    for a in T.elements:
        for b in T.elements:
            assert into[T.plus(a, b)] == M.plus(into[a], into[b])
            assert into[T.times(a, b)] == M.times(into[a], into[b])


def test_matrix_size_cap():
    with pytest.raises(DomainError):
        matrix_semiring(zmod(4), 3)  # 4^9 elements is over the default cap


@pytest.mark.parametrize("build", [
    lambda: from_preset("zmod:5000"),
    lambda: poly_quotient(zmod(2), [1] * 13 + [1]),  # 2^13 residues
    lambda: direct_product(zmod(64), zmod(65)),
    lambda: from_preset("product:zmod:64,zmod:65"),
], ids=["zmod-preset", "poly-quotient", "product", "product-preset"])
def test_constructors_refuse_carriers_over_the_cap(build):
    with pytest.raises(DomainError, match="size cap"):
        build()


# ----------------------------------------------------------- direct product

def test_product_of_booleans_is_all_idempotent(bool_sr):
    P = direct_product(bool_sr, bool_sr)
    assert P.order == 4
    assert len(element_classes(P).idempotents) == 4


def test_crt_product_isomorphism(z3x):
    P = direct_product(zmod(3), zmod(3))
    assert isomorphic(z3x, P) is not None


def test_product_with_trivial_is_isomorphic(z4):
    P = direct_product(z4, zmod(1))
    assert isomorphic(P, z4) is not None


def test_product_labels_and_slots(bool_sr):
    P = direct_product(bool_sr, zmod(2))
    assert P.zero == 0 and P.one == 1
    assert P.labels[P.zero] == "(0,0)"
    assert P.labels[P.one] == "(1,1)"


# ----------------------------------------------------------------- presets

@pytest.mark.parametrize("name", [
    "bool", "zmod:4", "t2b", "m2z2", "z2x-sq", "z3x-sqm1",
    "bxy-presentation", "product:bool,bool", "product:bool,bool,bool",
    "matrix:zmod:2,2", "triangular:bool,2",
])
def test_finite_presets_resolve_and_validate(name):
    S = from_preset(name)
    assert validate(S.add, S.mul, S.zero, S.one).valid


def test_symbolic_presets_resolve():
    assert isinstance(from_preset("nat"), NatModel)
    assert isinstance(from_preset("nn-triple"), TripleModel)


def test_unknown_preset_rejected():
    with pytest.raises(DomainError):
        from_preset("octonions")
    with pytest.raises(DomainError):
        from_preset("product:bool")
    with pytest.raises(DomainError):
        from_preset("matrix:bool")


# Spellings that int() accepts but a preset's integer field does not.
MALFORMED_INTEGER_PRESETS = ["zmod:5_0", "zmod:+3", "zmod: 7", "zmod:\u0663",
                             "matrix:bool,\u0662", "triangular:bool, 2"]


@pytest.mark.parametrize("name", MALFORMED_INTEGER_PRESETS)
def test_preset_integers_are_ascii_digits(name):
    with pytest.raises(DomainError) as err:
        from_preset(name)
    assert str(err.value) == f"malformed preset {name!r}"


@pytest.mark.parametrize("name,message", [
    ("zmod:0", "modulus must be at least 1"),
    ("zmod:-3", "modulus must be at least 1"),
    ("matrix:bool,0", "matrix dimension must be at least 1"),
    ("triangular:bool,-2", "matrix dimension must be at least 1"),
])
def test_preset_integers_below_one_keep_their_messages(name, message):
    with pytest.raises(DomainError) as err:
        from_preset(name)
    assert str(err.value) == message


# Nested presets are parsed outermost first, level by level, before the
# base is resolved and any matrix is built innermost first; the first
# error on that path is the one reported.
@pytest.mark.parametrize("name,message", [
    ("matrix:matrix:bool,x,2", "malformed preset 'matrix:bool,x'"),
    ("matrix:triangular:bool,2,x",
     "malformed preset 'matrix:triangular:bool,2,x'"),
    ("matrix:triangular:nat,0,x",
     "malformed preset 'matrix:triangular:nat,0,x'"),
    ("matrix:triangular:nat,0,0", "preset 'nat' is symbolic; composite "
     "presets need finite components"),
    ("matrix:triangular:nope,2,2", "unknown preset 'nope'"),
    ("matrix:triangular:bool,0,2", "matrix dimension must be at least 1"),
    ("matrix:triangular:bool,2,0", "matrix dimension must be at least 1"),
    ("triangular:matrix:bool,9,2",
     "at least 2^81 elements exceeds the size cap 4096"),
])
def test_nested_preset_errors_keep_their_order(name, message):
    with pytest.raises(DomainError) as err:
        from_preset(name)
    assert str(err.value) == message


def test_deeply_nested_presets_resolve():
    # 500 levels exceed the interpreter's recursion limit
    depth = 500
    M = from_preset("matrix:" * depth + "bool" + ",1" * depth)
    B = boolean_semiring()
    assert (M.add, M.mul, M.zero, M.one) == (B.add, B.mul, B.zero, B.one)
    assert M.labels == ("[" * depth + "0" + "]" * depth,
                        "[" * depth + "1" + "]" * depth)


@pytest.mark.parametrize("name,S", fixture_semirings())
def test_constructors_place_zero_and_one_first(name, S):
    assert S.zero == 0
    if S.order > 1:
        assert S.one == 1


@pytest.mark.parametrize("name,S", fixture_semirings())
def test_fixture_axiom_sweep(name, S):
    assert axiom_sweep(S) == []


# ---------------------------------------------------- matrix constructions

# preset -> (kind, base preset, dimension)
MATRIX_PRESETS = {
    "t2b": ("triangular", "bool", 2),
    "m2z2": ("matrix", "zmod:2", 2),
    "matrix:zmod:3,2": ("matrix", "zmod:3", 2),
    "triangular:bool,3": ("triangular", "bool", 3),
    "triangular:zmod:3,2": ("triangular", "zmod:3", 2),
    "matrix:bool,2": ("matrix", "bool", 2),
    "triangular:z2x-sq,2": ("triangular", "z2x-sq", 2),
}


@pytest.mark.parametrize("name", MATRIX_PRESETS)
def test_matrix_tables_match_the_cell_by_cell_build(name):
    kind, base, dim = MATRIX_PRESETS[name]
    S = from_preset(name)
    want = matrix_semiring_brute(from_preset(base), dim, kind == "triangular")
    assert (S.add, S.mul, S.zero, S.one) == (want.add, want.mul, want.zero,
                                             want.one)
    assert S.labels == want.labels


# the presets built through `tabulate`; "peirce:P" is the Peirce factors of P
TABULATED = ["bool", *(f"zmod:{n}" for n in range(1, 13)), "z2x-sq",
             "z3x-sqm1", "product:bool,zmod:4", "matrix:bool,2",
             "triangular:zmod:3,2", "triangular:bool,3", "matrix:zmod:3,2",
             "product:m2z2,bool", "bxy-presentation", "peirce:z3x-sqm1",
             "peirce:zmod:6"]


def _tabulated(name: str) -> list[tuple]:
    if name.startswith("peirce:"):
        built = peirce_decompose(from_preset(name.split(":", 1)[1])).factors
    else:
        built = [from_preset(name)]
    return [(S.add, S.mul, S.zero, S.one, S.labels) for S in built]


@pytest.mark.parametrize("name", TABULATED)
def test_tabulate_matches_the_cell_by_cell_build(name, monkeypatch):
    got = _tabulated(name)
    for module in ("constructors", "ops", "presentation"):
        monkeypatch.setattr(importlib.import_module(f"semirings.{module}"),
                            "tabulate", tabulate_brute)
    assert got == _tabulated(name)


def test_matrix_arithmetic_runs_only_on_generator_rows(monkeypatch):
    n, dim = 2 ** 6, 3  # triangular:bool,3 has 64 elements
    orders = []
    times = FiniteSemiring.times

    def counting_times(self, a, b):
        orders.append(self.order)
        return times(self, a, b)

    monkeypatch.setattr(FiniteSemiring, "times", counting_times)
    assert from_preset("triangular:bool,3").order == n
    assert set(orders) == {2}  # every product is one of the Boolean base
    # The cell-by-cell build makes n^2 matrix products of dim^3 base
    # products each, 110,592 in all; the generator rows of * take 3,200,
    # each evaluated only at the generators of +.
    assert len(orders) <= 3200
