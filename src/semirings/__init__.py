"""Computational algebra for finite semirings: classification, closures,
complements, nilidempotent lifting, Peirce decomposition, isomorphism,
theorem checking and a small-order census, plus two symbolic models.

`import semirings` loads no submodule: each public name imports the
submodule that defines it when it is first read (PEP 562)."""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "census": (
        "ScanEntry",
        "ScanReport",
        "canonical_form",
        "canonical_relabel",
        "enumerate_semirings",
        "scan",
    ),
    "constructors": (
        "boolean_semiring",
        "direct_product",
        "from_preset",
        "matrix_semiring",
        "poly_quotient",
        "triangular_semiring",
        "zmod",
    ),
    "core": (
        "AxiomReport",
        "AxiomViolation",
        "ClassReport",
        "DomainError",
        "ElementSet",
        "FiniteSemiring",
        "InternalCheckError",
        "InvalidSemiringError",
        "MalformedTableError",
        "SemiringError",
        "additive_inverse",
        "element_classes",
        "is_boolean",
        "is_commutative",
        "is_nilpotent",
        "make_semiring",
        "nilpotency_index",
        "power",
        "reindex",
        "scalar_repeat",
        "validate",
    ),
    "fileformat": ("ParseError", "parse_semiring_file", "serialize_semiring"),
    "ops": (
        "ComplementWitness",
        "GenerationCertificate",
        "LiftTrace",
        "PeirceResult",
        "TheoremReport",
        "add_closure",
        "check_theorem",
        "generation_certificate",
        "invert_unipotent",
        "isomorphic",
        "lift_nilidempotent",
        "mult_closure",
        "nilorthogonal_complement",
        "nilorthogonal_complements",
        "orthogonal_complement",
        "orthogonal_decompositions",
        "peirce_decompose",
    ),
    "presentation": ("PresentationResult", "presentation"),
    "symbolic": (
        "NatModel",
        "SymbolicNat",
        "SymbolicTriple",
        "TripleModel",
        "nat_model",
        "nn_triple_model",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

# The submodules are public names too; `presentation` is the function.
__all__ = sorted({*_EXPORTS, *_ORIGIN})


def __getattr__(name):
    if name in _ORIGIN:
        module = importlib.import_module(f"{__name__}.{_ORIGIN[name]}")
        value = getattr(module, name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Loading the submodule `presentation` sets the package attribute of
    that name to the module; this keeps it the function in every load
    order."""

    def __setattr__(self, name, value):
        if name == "presentation" and isinstance(value, types.ModuleType):
            value = value.presentation
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
