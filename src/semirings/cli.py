"""Command surface and structured reports.

Every subcommand emits one Report document (text or JSON) with a stable
schema: schema version, tool, command, input descriptor, verdict, result.
Exit codes: 0 for ok/confirmed/vacuous/absent, 1 for usage, parse or
domain errors, 2 when a theorem scan or check reports a violation.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from . import __version__
from .constructors import from_preset
from .core import (
    DEFAULT_MAX_ORDER,
    THEOREM_IDS,
    DomainError,
    ElementSet,
    FiniteSemiring,
    SemiringError,
    element_classes,
    is_boolean,
    is_commutative,
    validate,
)

# Each command imports the other modules it calls into (census, fileformat,
# ops, symbolic) when it runs, so a process loads only what its command uses.

SCHEMA_VERSION = 1

_EXIT_CODES = {"ok": 0, "confirmed": 0, "vacuous": 0, "absent": 0,
               "violation": 2, "error": 1}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semirings", allow_abbrev=False,
        description="Finite-semiring classification, decomposition and "
                    "theorem checking.")
    json_only = argparse.ArgumentParser(add_help=False)
    json_only.add_argument("--json", action="store_true",
                           help="emit the report as JSON")
    common = argparse.ArgumentParser(add_help=False, parents=[json_only])
    common.add_argument("--file", action="append", default=[],
                        help="semiring file input (repeatable)")
    common.add_argument("--preset", action="append", default=[],
                        help="preset name input (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str) -> argparse.ArgumentParser:
        # `main` spots --json by its full name, so no abbreviations
        return sub.add_parser(name, parents=[common], allow_abbrev=False)

    command("validate")
    command("classify")
    p = command("closure")
    p.add_argument("--mode", choices=("mult", "add"), default="mult")
    p.add_argument("--generators",
                   choices=("idempotents", "nilidempotents"),
                   default="idempotents")
    p = command("complement")
    p.add_argument("--element", required=True)
    p.add_argument("--kind", choices=("orthogonal", "nilorthogonal"),
                   default="orthogonal")
    p = command("decompose")
    p.add_argument("--element", required=True)
    p.add_argument("--max-len", type=int, default=2)
    p = command("lift")
    p.add_argument("--element", required=True)
    p = command("invert")
    p.add_argument("--element", required=True)
    command("peirce")
    command("iso")
    p = command("check")
    p.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    # the census takes no inputs
    p = sub.add_parser("census", parents=[json_only], allow_abbrev=False)
    p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    p.add_argument("--theorem", choices=THEOREM_IDS + ("all",), default="all")
    p.add_argument("--include-trivial", action="store_true")
    p = command("build")
    p.add_argument("--out", help="write the document to this path")
    return parser


def _report(command: str, inputs: dict, verdict: str, result) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "semirings", "version": __version__},
        "command": command,
        "input": inputs,
        "verdict": verdict,
        "result": result,
    }


def _set_labels(S: FiniteSemiring, es: ElementSet) -> list[str]:
    return [S.labels[e] for e in es]


def _load_inputs(args) -> tuple[list, dict]:
    inputs = []
    if args.file:
        from .fileformat import parse_semiring_file
    for path in args.file:
        inputs.append(parse_semiring_file(Path(path).read_text("utf-8")))
    for preset in args.preset:
        inputs.append(from_preset(preset))
    descriptor = {"files": list(args.file), "presets": list(args.preset)}
    return inputs, descriptor


def _single_semiring(inputs) -> FiniteSemiring:
    if len(inputs) != 1:
        raise DomainError("this command takes exactly one input")
    S = inputs[0]
    if not isinstance(S, FiniteSemiring):
        raise DomainError("symbolic models support only 'classify'")
    return S


def _classify_payload(S: FiniteSemiring) -> dict:
    classes = element_classes(S)
    return {
        "order": S.order,
        "boolean": is_boolean(S),
        "commutative": is_commutative(S),
        "idempotents": _set_labels(S, classes.idempotents),
        "nilpotents": _set_labels(S, classes.nilpotents),
        "nilidempotents": _set_labels(S, classes.nilidempotents),
        "additively_invertible": {
            "members": _set_labels(S, classes.additively_invertible),
            "witness": {S.labels[a]: S.labels[b]
                        for a, b in sorted(classes.additive_inverse_witness.items())},
        },
        "center": _set_labels(S, classes.center),
        "units": {
            "members": _set_labels(S, classes.units),
            "witness": {S.labels[a]: S.labels[b]
                        for a, b in sorted(classes.unit_witness.items())},
        },
        "nilpotency_index": {S.labels[a]: k
                             for a, k in sorted(classes.nilpotency_index.items())},
    }


def _classify_symbolic(model) -> dict:
    from .symbolic import NatModel, TripleModel

    nat = isinstance(model, NatModel)
    payload = {
        "model": "nat" if nat else "nn-triple",
        "idempotents": [model.label(u) for u in model.idempotents()],
        "nilpotents": ["0"],
        "commutative": model.is_commutative(),
        "boolean": model.is_boolean(),
    }
    if nat:
        return payload | {
            "boolean_counterexample": model.label(model.boolean_counterexample()),
            "additive_certificate_of_5":
                [model.label(u) for u in model.additive_certificate(
                    type(model.one)(5))],
        }
    assert isinstance(model, TripleModel)
    complement = model.complement_to_one(model.x)
    return payload | {
        "x*y": model.label(model.mul(model.x, model.y)),
        "y*x": model.label(model.mul(model.y, model.x)),
        "complement_of_x_to_one":
            None if complement is None else model.label(complement),
    }


def _clause_payload(S: FiniteSemiring, checks) -> list[dict]:
    return [{"name": c.name, "holds": c.holds,
             "witness": (None if c.witness is None
                         else [S.labels[w] for w in c.witness])}
            for c in checks]


def _theorem_payload(S: FiniteSemiring, report) -> dict:
    return {
        "theorem": report.theorem,
        "verdict": report.verdict,
        "hypotheses": _clause_payload(S, report.hypotheses),
        "conclusions": _clause_payload(S, report.conclusions),
    }


def _scan_payload(report) -> dict:
    return {
        "orders": list(report.orders),
        "counts": {str(order): n for order, n in sorted(report.counts.items())},
        "semirings": len(report.entries),
        "tallies": report.tallies,
        "violations": list(report.violations),
        "entries": [
            {"order": entry.order, "key": entry.key, "flags": entry.flags,
             "verdicts": entry.verdicts}
            for entry in report.entries],
    }


def _cmd_validate(args) -> tuple[str, dict, dict]:
    descriptor = {"files": list(args.file), "presets": list(args.preset)}
    if len(args.file) + len(args.preset) != 1:
        raise DomainError("this command takes exactly one input")
    if args.preset:
        # `make_semiring` validated the preset's tables as it built them
        if not isinstance(from_preset(args.preset[0]), FiniteSemiring):
            raise DomainError("symbolic models have no finite tables")
        return "ok", descriptor, {"valid": True, "violations": []}
    from .fileformat import parse_semiring_tables
    add, mul, zero, one, labels = parse_semiring_tables(
        Path(args.file[0]).read_text("utf-8"))
    report = validate(add, mul, zero, one)
    payload = {
        "valid": report.valid,
        "violations": [
            {"axiom": v.axiom,
             "witness": [labels[i] for i in v.witness]}
            for v in report.violations],
    }
    return ("ok" if report.valid else "error"), descriptor, payload


def _dispatch(args) -> tuple[str, dict, dict]:
    if args.command == "validate":
        return _cmd_validate(args)

    if args.command == "census":
        from .census import scan
        if args.max_order < 1:
            raise DomainError(f"max order {args.max_order} is below 1")
        if args.max_order > DEFAULT_MAX_ORDER:
            raise DomainError(f"max order {args.max_order} is above "
                              f"{DEFAULT_MAX_ORDER}")
        theorem_ids = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
        report = scan(range(1, args.max_order + 1), theorem_ids,
                      include_trivial=args.include_trivial)
        verdict = "violation" if report.violations else "ok"
        return verdict, {"files": [], "presets": [],
                         "max_order": args.max_order}, _scan_payload(report)

    inputs, descriptor = _load_inputs(args)

    if args.command == "classify":
        if len(inputs) != 1:
            raise DomainError("this command takes exactly one input")
        if isinstance(inputs[0], FiniteSemiring):
            return "ok", descriptor, _classify_payload(inputs[0])
        return "ok", descriptor, _classify_symbolic(inputs[0])

    if args.command == "build":
        from .fileformat import serialize_semiring
        S = _single_semiring(inputs)
        name = args.preset[0] if args.preset else args.file[0]
        document = serialize_semiring(S, comment=f"semirings build {name}")
        if args.out:
            Path(args.out).write_text(document, "utf-8")
            payload = {"path": args.out, "order": S.order}
        else:
            payload = {"document": document, "order": S.order}
        return "ok", descriptor, payload

    # every command below calls into ops
    from .ops import (
        VERDICT_VIOLATION,
        check_theorem,
        generation_certificate,
        invert_unipotent,
        isomorphic,
        lift_nilidempotent,
        nilorthogonal_complement,
        nilorthogonal_complements,
        orthogonal_complement,
        orthogonal_decompositions,
        peirce_decompose,
    )

    if args.command == "closure":
        S = _single_semiring(inputs)
        mode = "multiplicative" if args.mode == "mult" else "additive"
        cert = generation_certificate(S, mode, args.generators)
        payload = {
            "mode": cert.mode,
            "generator_class": cert.generator_class,
            "generated": cert.generated,
            "uncovered": _set_labels(S, cert.uncovered),
            "expressions": {S.labels[e]: [S.labels[g] for g in expr]
                            for e, expr in sorted(cert.expressions.items())},
        }
        return "ok", descriptor, payload

    if args.command == "complement":
        S = _single_semiring(inputs)
        e = S.index_of(args.element)
        if args.kind == "orthogonal":
            witness = orthogonal_complement(S, e)
            witnesses = [witness] if witness else []
        else:
            witness = nilorthogonal_complement(S, e)
            witnesses = nilorthogonal_complements(S, e)
        payload = {
            "element": args.element,
            "kind": args.kind,
            "witness": None if witness is None else
                {"f": S.labels[witness.f], "x": S.labels[witness.x]},
            "witnesses": [{"f": S.labels[w.f], "x": S.labels[w.x]}
                          for w in witnesses],
        }
        return ("ok" if witness else "absent"), descriptor, payload

    if args.command == "decompose":
        S = _single_semiring(inputs)
        b = S.index_of(args.element)
        decomps = orthogonal_decompositions(S, b, args.max_len)
        payload = {
            "element": args.element,
            "max_len": args.max_len,
            "decompositions": [[S.labels[e] for e in d] for d in decomps],
        }
        return "ok", descriptor, payload

    if args.command == "lift":
        S = _single_semiring(inputs)
        trace = lift_nilidempotent(S, S.index_of(args.element))
        payload = {
            "g": S.labels[trace.g0],
            "defect": S.labels[trace.z0],
            "steps": [{"g": S.labels[g], "z": S.labels[z], "w": S.labels[w]}
                      for g, z, w in trace.steps],
            "f": S.labels[trace.f],
            "correction": S.labels[trace.correction],
            "iterations": trace.iterations,
        }
        return "ok", descriptor, payload

    if args.command == "invert":
        S = _single_semiring(inputs)
        x = S.index_of(args.element)
        payload = {"element": args.element,
                   "inverse": S.labels[invert_unipotent(S, x)]}
        return "ok", descriptor, payload

    if args.command == "peirce":
        S = _single_semiring(inputs)
        result = peirce_decompose(S)
        payload = {
            "primitives": [S.labels[e] for e in result.primitives],
            "factors": [
                {"order": F.order,
                 "identity": S.labels[carrier[F.one]],
                 "carrier": [S.labels[v] for v in carrier],
                 "classification": cls}
                for F, carrier, cls in zip(result.factors, result.carriers,
                                           result.factor_classification)],
            "iso": {S.labels[s]: [S.labels[result.carriers[i][c]]
                                  for i, c in enumerate(components)]
                    for s, components in sorted(result.iso.items())},
        }
        return "ok", descriptor, payload

    if args.command == "iso":
        if len(inputs) != 2:
            raise DomainError("iso takes exactly two inputs")
        S, T = inputs
        if not (isinstance(S, FiniteSemiring) and isinstance(T, FiniteSemiring)):
            raise DomainError("iso requires finite semirings")
        mapping = isomorphic(S, T)
        payload = {
            "isomorphic": mapping is not None,
            "mapping": None if mapping is None else
                {S.labels[a]: T.labels[b] for a, b in enumerate(mapping)},
        }
        return ("ok" if mapping is not None else "absent"), descriptor, payload

    if args.command == "check":
        S = _single_semiring(inputs)
        report = check_theorem(S, args.theorem)
        verdict = "violation" if report.verdict == VERDICT_VIOLATION \
            else report.verdict
        return verdict, descriptor, _theorem_payload(S, report)

    raise DomainError(f"unknown command {args.command!r}")


def run(argv) -> tuple[int, dict]:
    """Execute one command line; returns (exit code, report document).

    `--help` is not a command: argparse prints the help and its
    `SystemExit(0)` propagates, so the process exits 0 with no report."""
    parser = _build_parser()
    command = argv[0] if argv else ""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            raise
        report = _report(command, {}, "error", {"error": "usage error"})
        return 1, report
    try:
        verdict, descriptor, payload = _dispatch(args)
        report = _report(args.command, descriptor, verdict, payload)
    except (SemiringError, OSError, UnicodeDecodeError) as exc:
        report = _report(args.command, {}, "error",
                         {"error": str(exc), "kind": type(exc).__name__})
        return 1, report
    return _EXIT_CODES[report["verdict"]], report


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in value:
            item = value[key]
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                rendered = item if not isinstance(item, (dict, list)) else "(empty)"
                lines.append(f"{pad}{key}: {rendered}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def emit_report(report: dict, fmt: str = "text") -> str:
    """Render a report document; JSON output is byte-stable per input."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    result = report.get("result", {})
    if report.get("command") == "build" and "document" in result:
        return result["document"]
    header = [
        f"semirings {report['tool']['version']} :: {report['command']}",
        f"verdict: {report['verdict']}",
    ]
    return "\n".join(header + _render_text(result)) + "\n"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    code, report = run(list(argv))
    fmt = "json" if "--json" in argv else "text"
    if isinstance(sys.stdout, io.TextIOWrapper):
        # a stream that cannot encode a label or clause name escapes it
        sys.stdout.reconfigure(errors="backslashreplace")
    sys.stdout.write(emit_report(report, fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
