"""The package namespace: `import semirings` loads no submodule, every
public name resolves, on first use, to the object its submodule defines,
and the package imports nothing outside the standard library."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import semirings

PUBLIC_NAMES = [
    "AxiomReport", "AxiomViolation", "ClassReport", "ComplementWitness",
    "DomainError", "ElementSet", "FiniteSemiring", "GenerationCertificate",
    "InternalCheckError", "InvalidSemiringError", "LiftTrace",
    "MalformedTableError", "NatModel", "ParseError", "PeirceResult",
    "PresentationResult", "ScanEntry", "ScanReport", "SemiringError",
    "SymbolicNat", "SymbolicTriple", "TheoremReport", "TripleModel",
    "add_closure", "additive_inverse", "boolean_semiring", "canonical_form",
    "canonical_relabel", "census", "check_theorem", "constructors", "core",
    "direct_product", "element_classes", "enumerate_semirings", "fileformat",
    "from_preset", "generation_certificate", "invert_unipotent", "is_boolean",
    "is_commutative", "is_nilpotent", "isomorphic", "lift_nilidempotent",
    "make_semiring", "matrix_semiring", "mult_closure", "nat_model",
    "nilorthogonal_complement", "nilorthogonal_complements",
    "nilpotency_index", "nn_triple_model", "ops", "orthogonal_complement",
    "orthogonal_decompositions", "parse_semiring_file", "peirce_decompose",
    "poly_quotient", "power", "presentation", "reindex", "scalar_repeat",
    "scan", "serialize_semiring", "symbolic", "triangular_semiring",
    "validate", "zmod",
]
SUBMODULES = ["census", "constructors", "core", "fileformat", "ops",
              "symbolic"]

# Runs in a fresh interpreter: argv[1] is the source directory, argv[2] a
# statement to run first.  Prints one JSON object describing the namespace.
_PROBE = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
import semirings
loaded_at_import = sorted(m for m in sys.modules if m.startswith("semirings."))
missing_from_dir = sorted(set(semirings.__all__) - set(dir(semirings)))
fn = semirings.presentation
module = sys.modules["semirings.presentation"]
mismatched = []
for name in semirings.__all__:
    value = getattr(semirings, name)
    if isinstance(value, types.ModuleType):
        home = value.__name__
        same = home == "semirings." + name and sys.modules[home] is value
    else:
        home = value.__module__
        same = getattr(sys.modules[home], name) is value
    if not same:
        mismatched.append(name)
star = {}
exec("from semirings import *", star)
del star["__builtins__"]
print(json.dumps({
    "all": semirings.__all__,
    "loaded_at_import": loaded_at_import,
    "missing_from_dir": missing_from_dir,
    "presentation_is_function": isinstance(fn, types.FunctionType)
                                and fn is module.presentation,
    "presentation_after_loading": semirings.presentation is fn,
    "mismatched": mismatched,
    "star_names": sorted(star),
    "star_mismatched": [n for n in star if star[n] is not getattr(semirings, n)],
}))
"""


def _probe(setup: str) -> dict:
    src = Path(semirings.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(src), setup],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("setup", [
    "",
    "import semirings.presentation",
    "from semirings.presentation import parse_term",
    "import semirings; semirings.from_preset('bxy-presentation')",
    "from semirings.constructors import from_preset; "
    "from_preset('bxy-presentation')",
])
def test_public_names_resolve_in_every_load_order(setup):
    seen = _probe(setup)
    assert seen["all"] == PUBLIC_NAMES
    assert seen["presentation_is_function"]
    assert seen["presentation_after_loading"]
    assert seen["mismatched"] == []
    assert seen["star_names"] == PUBLIC_NAMES
    assert seen["star_mismatched"] == []


def test_import_loads_no_submodule():
    seen = _probe("")
    assert seen["loaded_at_import"] == []
    assert seen["missing_from_dir"] == []


def test_submodules_are_public_names():
    for name in SUBMODULES:
        assert getattr(semirings, name) is sys.modules[f"semirings.{name}"]
    assert semirings.presentation is \
        sys.modules["semirings.presentation"].presentation


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        semirings.frobnicate
    assert not hasattr(semirings, "ParseErrors")


def test_runtime_imports_only_the_standard_library():
    package = Path(semirings.__file__).parent
    allowed = sys.stdlib_module_names | {"semirings"}
    outside = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or relative: inside the package
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
