"""Pinned outputs of the derived-semiring constructions.

Each digest is the sha256 of a construction's full output: the serialized
tables of a preset or a presentation, or a whole Peirce decomposition
(primitives, serialized factors, carriers, isomorphism and factor
classes).  Any change to an element order, a label or a table entry
changes the digest.
"""

import hashlib

import pytest

from semirings import (
    DomainError,
    enumerate_semirings,
    from_preset,
    is_commutative,
    peirce_decompose,
    presentation,
    serialize_semiring,
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


PINNED_PRESETS = {
    "matrix:zmod:3,2":
        "5b07d11c146d7d857f61d5d395b30a1bc4d18a569e79b4cc13b1ae9dd86f68c3",
    "triangular:bool,3":
        "e96529ebfbe50192df8530366d11adbce83725a551dcbb6bbdd6f0136d8a6d77",
    "zmod:64":
        "95ad0945bd263570451984fd7e3355575e05ac8de9845efa197a559e7bf5ab97",
    "zmod:100":
        "7ed21de17a119a289f44bb6c4ba2a3d144b3b6a7e94f0fb803a6c1070de336a5",
    "zmod:128":
        "bd42f3d231e867bf5b6c1c955258c6321187e0158685b1cd0bbd111a080eba57",
    "product:t2b,zmod:4":
        "9cbc67d2a052b8bfcf31223277632cd6a1c56dda4940551a4d9492816e94747b",
    "product:m2z2,bool":
        "1062a55320090b2dbfffc72c6aa18248f76c1c7c6f0f1aa11e4f91d070cd86ab",
    "triangular:zmod:3,2":
        "a6719a3b7e4c8e4a82a200678eff19f8d35a4f9724de5e2c8f1429228ecc8b04",
    "product:zmod:2,zmod:3,bool":
        "10bb3626ddad18c64ef3c96e6dd3a8d6c0065de084efafbe00207f1e3e21fbd9",
    "product:zmod:1,bool":
        "69ecaa55a5057580468c90c9873a02905f6fbf0dab3ea9b163a5404e5c01fe38",
    "matrix:zmod:1,2":
        "6e2354d5decf729a5b0c89d7fe85b3b612ed208897bcc2acde2b4e208d5936bc",
    "triangular:z2x-sq,2":
        "7bd55da6bc704c29ff718b29349d9ca723997205fb845329b4deedbbdcbbe8ac",
}


@pytest.mark.parametrize("preset", PINNED_PRESETS)
def test_preset_tables_are_pinned(preset):
    text = serialize_semiring(from_preset(preset))
    assert _digest(text) == PINNED_PRESETS[preset]


# name -> (generators, relations, additively idempotent, digest)
PINNED_PRESENTATIONS = {
    "x^3=x, + idempotent": (("x",), (("x*x*x", "x"),), True,
        "b3d0a4636d552c19f08e984f443a01cc65c99740ffe4b3243d48c7b5a0897015"),
    "x^4=x^2": (("x",), (("x*x*x*x", "x*x"),), False,
        "7df8b519acaa7f501ef9725a2c75d3d8328b8d0ce312e8ffe5fb51bd0dd8e609"),
    "e^2=e": (("e",), (("e*e", "e"),), False,
        "7df8b519acaa7f501ef9725a2c75d3d8328b8d0ce312e8ffe5fb51bd0dd8e609"),
    "bxy": (("x", "y"), (("x+y", "0"), ("x*y", "0"), ("y*x", "0"),
                         ("x*x", "0"), ("y*y", "0")), True,
        "4642ccd4fa3574093f29cd01bd82ffb3f733448b043fa13dccfc86bba38bfa57"),
    "1+1=0": ((), (("1+1", "0"),), False,
        "5ce8c22f3051fe7331a3771e57dc420767002470697370b0f6d144080c0ec3c2"),
    # the paper's example: its semiring is a + bx + cy, with a, b, c Boolean
    "x^2=x=xy, y^2=y=yx, + idempotent":
        (("x", "y"), (("x*x", "x"), ("y*y", "y"), ("x*y", "x"), ("y*x", "y")),
         True,
         "da7c028b3a4f55d56c0460a6c89de5702c1b3163ab5417f481b96f73f4bd6a93"),
}


def _presentation_text(gens, rels, idem) -> str:
    result = presentation(gens, rels, additively_idempotent=idem)
    text = f"{result.status} {result.collapsed_generators!r}\n"
    if result.semiring is not None:
        text += serialize_semiring(result.semiring)
    return text


@pytest.mark.parametrize("name", PINNED_PRESENTATIONS)
def test_presentation_tables_are_pinned(name):
    gens, rels, idem, digest = PINNED_PRESENTATIONS[name]
    assert _digest(_presentation_text(gens, rels, idem)) == digest


def _peirce_text(S) -> str:
    try:
        result = peirce_decompose(S)
    except DomainError as exc:
        return f"DomainError: {exc}\n"
    return repr((result.primitives,
                 [serialize_semiring(F) for F in result.factors],
                 result.carriers, sorted(result.iso.items()),
                 result.factor_classification)) + "\n"


def _commutative_catalog(order: int):
    return [S for S in enumerate_semirings(order) if is_commutative(S)]


PINNED_PEIRCE = {
    "z3x-sqm1":
        "e39bb4bf5bffebc4472a5990af7be22706a4e5708786c63a873e4e6c6bd8b660",
    "product:zmod:2,zmod:3,bool":
        "0c0b2c1c9722e3dc44aacbb20eecc72643cbbd2aa4266def93408f2f5970a74c",
    "catalog:3":
        "864d5ff4d138e1252a8d9a3a32cb97734bfe0d719982fb75b0513862c9d1fd76",
    "catalog:4":
        "3c6719177216a94ba05471351ffaffaf596b9057dd756158f9f3cd3ba4800874",
}


@pytest.mark.parametrize("name", PINNED_PEIRCE)
def test_peirce_decompositions_are_pinned(name):
    if name.startswith("catalog:"):
        semirings = _commutative_catalog(int(name.split(":")[1]))
    else:
        semirings = [from_preset(name)]
    text = "".join(_peirce_text(S) for S in semirings)
    assert _digest(text) == PINNED_PEIRCE[name]
