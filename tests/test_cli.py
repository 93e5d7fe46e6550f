import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semirings
from oracles import doubled_one_semiring, orthogonal_decompositions_brute
from semirings import (
    SemiringError,
    boolean_semiring,
    from_preset,
    make_semiring,
    parse_semiring_file,
    presentation,
    reindex,
    serialize_semiring,
)
from semirings.cli import _EXIT_CODES, emit_report, main, run
from semirings.fileformat import ParseError, parse_semiring_tables
from test_fileformat import HASH_LABEL_DOCUMENT

ROUND_TRIP_PRESETS = ["bool", "zmod:4", "t2b", "m2z2", "z2x-sq", "z3x-sqm1",
                      "bxy-presentation", "product:bool,bool",
                      "triangular:bool,2"]


# ------------------------------------------------------------- file format

@pytest.mark.parametrize("preset", ROUND_TRIP_PRESETS)
def test_round_trip_is_bit_exact(preset):
    S = from_preset(preset)
    T = parse_semiring_file(serialize_semiring(S))
    assert T == S


def test_round_trip_of_product_of_matrices():
    # parenthesized labels containing bracketed, space-bearing labels
    S = from_preset("product:t2b,bool")
    assert parse_semiring_file(serialize_semiring(S)) == S


def test_round_trip_of_presentation_labels():
    # labels like "(1+x)*x" hold a bracket group inside a longer token
    S = presentation(("x",), [("x*x*x", "x")], additively_idempotent=True).semiring
    assert S.order == 8 and "(1+x)*x" in S.labels
    assert parse_semiring_file(serialize_semiring(S)) == S


def test_stray_closing_bracket_is_positioned():
    with pytest.raises(ParseError) as err:
        parse_semiring_file("order 2\nelements 0 1]\nzero 0\none 1]\n")
    assert (err.value.line, err.value.col) == (2, 13)


def test_handwritten_boolean_file():
    text = """# two elements, saturating addition
order 2
elements 0 1
zero 0
one 1
add
0 1
1 1
mul
0 0
0 1
"""
    assert parse_semiring_file(text) == boolean_semiring()


def test_missing_table_row_is_positioned():
    text = "order 2\nelements 0 1\nzero 0\none 1\nadd\n0 1\n1 1\nmul\n0 0\n"
    with pytest.raises(ParseError) as err:
        parse_semiring_file(text)
    assert err.value.line == 9
    assert isinstance(err.value, SemiringError)


def test_unknown_label_is_positioned():
    text = "order 2\nelements 0 1\nzero q\none 1\n"
    with pytest.raises(ParseError) as err:
        parse_semiring_file(text)
    assert err.value.line == 3
    assert "q" in err.value.message


def test_duplicate_label_rejected():
    with pytest.raises(ParseError):
        parse_semiring_file("order 2\nelements 0 0\nzero 0\none 0\n")


def test_wrong_row_width_rejected():
    text = "order 2\nelements 0 1\nzero 0\none 1\nadd\n0 1 1\n1 1\nmul\n0 0\n0 1\n"
    with pytest.raises(ParseError) as err:
        parse_semiring_file(text)
    assert err.value.line == 6


def test_axiom_violation_in_file_is_reported():
    text = "order 2\nelements 0 1\nzero 0\none 1\nadd\n0 1\n1 1\nmul\n0 1\n0 1\n"
    with pytest.raises(ParseError) as err:
        parse_semiring_file(text)
    assert "axioms violated" in err.value.message


def test_unbalanced_bracket_token():
    with pytest.raises(ParseError):
        parse_semiring_file("order 1\nelements [0\nzero [0\none [0\n")


BOOLEAN_LINES = ["order 2", "elements 0 1", "zero 0", "one 1",
                 "add", "0 1", "1 1", "mul", "0 0", "0 1"]


def _boolean_file_with(line: int, text: str) -> str:
    """The boolean semiring's file with its 1-based line `line` replaced by
    `text` (appended when line is past the end)."""
    lines = BOOLEAN_LINES[:line - 1] + [text] + BOOLEAN_LINES[line:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("line,text,position", [
    (1, "size 2", (1, 1)),
    (1, "order two", (1, 7)),
    (1, "order 0", (1, 7)),
    # `int` reads each of these as 2; an order is -?[0-9]+ in ASCII
    (1, "order +2", (1, 7)),
    (1, "order 0_2", (1, 7)),
    (1, "order \u0662", (1, 7)),
    (2, "  labels 0 1", (2, 3)),
    (2, "elements 0 1 2", (2, 1)),
    (3, "zero 0 1", (3, 1)),
    (4, "  one", (4, 3)),
    (5, "add 0", (5, 1)),
    (8, "mull", (8, 1)),
    (11, "  extra", (11, 3)),
], ids=["order-line", "order-not-integer", "order-not-positive",
        "order-plus-sign", "order-underscore", "order-non-ascii-digit",
        "elements-missing", "label-count", "zero-line", "one-line",
        "add-keyword", "mul-keyword", "trailing-content"])
def test_structure_errors_are_positioned(line, text, position):
    with pytest.raises(ParseError) as err:
        parse_semiring_tables(_boolean_file_with(line, text))
    assert (err.value.line, err.value.col) == position


def test_structure_error_in_validate_file_is_reported(tmp_path):
    path = tmp_path / "bad.sr"
    path.write_text(_boolean_file_with(1, "order 0"))
    code, report = run(["validate", "--file", str(path)])
    assert code == 1 and report["verdict"] == "error"
    assert report["result"] == {"error": "line 1, col 7: order must be positive",
                                "kind": "ParseError"}


@pytest.mark.parametrize("command", ["validate", "classify"])
def test_a_label_starting_with_a_hash_is_a_parse_error(tmp_path, command):
    path = tmp_path / "hash-label.sr"
    path.write_text(HASH_LABEL_DOCUMENT)
    code, report = run([command, "--file", str(path)])
    assert code == 1 and report["verdict"] == "error"
    assert report["result"] == {
        "error": "line 2, col 14: label '#y' starts with '#'",
        "kind": "ParseError"}


# ------------------------------------------------------------ CLI contract

def test_check_confirmed_exit_zero():
    code, report = run(["check", "--preset", "bool", "--theorem", "main"])
    assert code == 0
    assert report["verdict"] == "confirmed"


def test_check_vacuous_reports_witness():
    code, report = run(["check", "--preset", "t2b", "--theorem", "main"])
    assert code == 0
    assert report["verdict"] == "vacuous"
    failing = [h for h in report["result"]["hypotheses"] if not h["holds"]]
    assert failing[0]["witness"] == ["[1 1;0 0]"]


def test_complement_absent_exits_zero():
    code, report = run(["complement", "--preset", "t2b",
                        "--element", "[1 1;0 0]"])
    assert code == 0
    assert report["verdict"] == "absent"
    assert report["result"]["witness"] is None


def test_complement_nilorthogonal_lists_witnesses():
    code, report = run(["complement", "--preset", "t2b",
                        "--element", "[1 1;0 0]", "--kind", "nilorthogonal"])
    assert code == 0 and report["verdict"] == "ok"
    witnesses = report["result"]["witnesses"]
    assert {"f": "[0 1;0 1]", "x": "[0 1;0 0]"} in witnesses


def test_census_command():
    code, report = run(["census", "--max-order", "2", "--theorem", "all"])
    assert code == 0 and report["verdict"] == "ok"
    assert report["result"]["semirings"] == 2
    assert report["result"]["violations"] == []
    assert report["result"]["counts"] == {"1": 0, "2": 2}


@pytest.mark.parametrize("value", ["0", "-3"])
def test_census_rejects_a_max_order_below_one(value):
    code, report = run(["census", "--max-order", value])
    assert code == 1 and report["verdict"] == "error"
    assert report["result"] == {"error": f"max order {value} is below 1",
                                "kind": "DomainError"}


@pytest.mark.parametrize("value", ["5", "9"])
def test_census_rejects_a_max_order_above_the_cap(value, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr("semirings.census.scan", no_scan)
    code, report = run(["census", "--max-order", value])
    assert code == 1 and report["verdict"] == "error"
    assert report["result"] == {"error": f"max order {value} is above 4",
                                "kind": "DomainError"}


_BASE_MODULES = {"semirings", "semirings.cli", "semirings.constructors",
                 "semirings.core"}

# argv -> the semirings modules a process running it loads
_COMMAND_MODULES = [
    (["classify", "--preset", "t2b"], _BASE_MODULES),
    (["check", "--preset", "t2b", "--theorem", "main"],
     _BASE_MODULES | {"semirings.ops"}),
    (["closure", "--preset", "t2b"], _BASE_MODULES | {"semirings.ops"}),
    (["census", "--max-order", "2"],
     _BASE_MODULES | {"semirings.ops", "semirings.census"}),
    (["classify", "--preset", "bxy-presentation"],
     _BASE_MODULES | {"semirings.presentation"}),
    (["classify", "--preset", "nat"], _BASE_MODULES | {"semirings.symbolic"}),
    (["validate", "--file", "bool.sr"],
     _BASE_MODULES | {"semirings.fileformat"}),
    (["build", "--preset", "bool"], _BASE_MODULES | {"semirings.fileformat"}),
]


def test_the_cli_imports_only_the_standard_library(tmp_path):
    # -S keeps site-packages off the path; the last stdout line lists the
    # modules loaded once main has run
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
             "import semirings.cli; "
             "code = semirings.cli.main(json.loads(sys.argv[2])); "
             "print(code, *sys.modules)")
    src = Path(semirings.__file__).parents[1]
    (tmp_path / "bool.sr").write_text(serialize_semiring(boolean_semiring()))

    def loaded_by(argv):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, str(src), json.dumps(argv)],
            capture_output=True, text=True, cwd=tmp_path, check=True)
        code, *loaded = proc.stdout.splitlines()[-1].split()
        foreign = [m for m in loaded if m != "__main__"
                   and m.partition(".")[0] not in sys.stdlib_module_names
                   and m.partition(".")[0] != "semirings"]
        assert foreign == [], argv
        return int(code), {m for m in loaded if m.partition(".")[0] == "semirings"}

    for argv, expected in _COMMAND_MODULES:
        code, modules = loaded_by(argv)
        assert code == 0, argv
        assert modules == expected, argv
    code, modules = loaded_by(["frobnicate", "--preset", "t2b"])
    assert code == 1
    assert modules <= _BASE_MODULES


def test_classify_counts_idempotents():
    code, report = run(["classify", "--preset", "t2b"])
    assert code == 0
    assert len(report["result"]["idempotents"]) == 7
    assert not report["result"]["boolean"]
    assert not report["result"]["commutative"]


def test_classify_symbolic_models():
    code, report = run(["classify", "--preset", "nn-triple"])
    assert code == 0
    assert report["result"]["idempotents"] == ["0", "1", "x", "y"]
    assert report["result"]["x*y"] == "x"
    assert report["result"]["y*x"] == "y"
    assert report["result"]["complement_of_x_to_one"] is None
    code, report = run(["classify", "--preset", "nat"])
    assert code == 0
    assert report["result"]["boolean_counterexample"] == "2"


def test_lift_command_shows_single_step():
    code, report = run(["lift", "--preset", "z2x-sq", "--element", "1+x"])
    assert code == 0
    assert report["result"]["f"] == "1"
    assert report["result"]["correction"] == "x"
    assert report["result"]["iterations"] == 1


def test_invert_command():
    code, report = run(["invert", "--preset", "z2x-sq", "--element", "x"])
    assert code == 0
    assert report["result"]["inverse"] == "1+x"


def test_closure_command():
    code, report = run(["closure", "--preset", "t2b", "--mode", "add"])
    assert code == 0
    assert not report["result"]["generated"]
    assert report["result"]["uncovered"] == ["[0 1;0 0]"]


def test_decompose_command():
    code, report = run(["decompose", "--preset", "z3x-sqm1",
                        "--element", "1", "--max-len", "2"])
    assert code == 0
    assert ["2+x", "2+2x"] in report["result"]["decompositions"]


def test_decompose_cost_follows_the_answer():
    # every 10-subset of the 40 nonzero idempotents would take hours
    one = "[1 0 0;0 1 0;0 0 1]"
    code, report = run(["decompose", "--preset", "triangular:bool,3",
                        "--element", one, "--max-len", "10"])
    assert code == 0
    S = from_preset("triangular:bool,3")
    want = [[S.labels[e] for e in d]
            for d in orthogonal_decompositions_brute(S, 4)[S.index_of(one)]]
    assert len(want) == 5
    assert report["result"]["decompositions"] == want


def test_peirce_command():
    code, report = run(["peirce", "--preset", "z3x-sqm1"])
    assert code == 0
    assert len(report["result"]["factors"]) == 2


def test_iso_command_absent():
    code, report = run(["iso", "--preset", "bool", "--preset", "zmod:2"])
    assert code == 0
    assert report["verdict"] == "absent"
    assert report["result"]["isomorphic"] is False


def test_iso_command_found():
    code, report = run(["iso", "--preset", "z3x-sqm1",
                        "--preset", "product:zmod:3,zmod:3"])
    assert code == 0 and report["verdict"] == "ok"
    assert report["result"]["mapping"]["0"] == "(0,0)"


def test_iso_command_on_files_backtracks(tmp_path, capsys):
    S = doubled_one_semiring()
    paths = [tmp_path / "a.sr", tmp_path / "b.sr"]
    for path, R in zip(paths, (S, reindex(S, [0, 1, 3, 2, 4]))):
        path.write_text(serialize_semiring(R))
    assert main(["iso", "--file", str(paths[0]), "--file", str(paths[1]),
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["isomorphic"] is True


def test_validate_command_on_preset(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the tables were validated twice")

    # building the preset validates it; the command does not sweep again
    monkeypatch.setattr("semirings.cli.validate", no_sweep)
    code, report = run(["validate", "--preset", "m2z2"])
    assert code == 0 and report["result"] == {"valid": True, "violations": []}


def test_validate_command_on_broken_file(tmp_path):
    path = tmp_path / "broken.sr"
    path.write_text(
        "order 2\nelements 0 1\nzero 0\none 1\nadd\n0 1\n1 1\nmul\n0 1\n0 1\n")
    code, report = run(["validate", "--file", str(path)])
    assert code == 1
    assert report["verdict"] == "error"
    assert report["result"]["valid"] is False
    assert any(v["axiom"].endswith("annihilation")
               for v in report["result"]["violations"])


def test_build_round_trips_through_a_file(tmp_path):
    out = tmp_path / "t2b.sr"
    code, report = run(["build", "--preset", "t2b", "--out", str(out)])
    assert code == 0
    assert parse_semiring_file(out.read_text()) == from_preset("t2b")


def test_build_to_stdout_is_parseable(capsys):
    assert main(["build", "--preset", "z2x-sq"]) == 0
    document = capsys.readouterr().out
    assert parse_semiring_file(document) == from_preset("z2x-sq")


def _cli_process(argv, cwd, **env):
    """The CLI in a fresh interpreter, with `env` added to the environment."""
    path = [str(Path(semirings.__file__).parents[1]),
            *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, "-m", "semirings.cli", *argv], capture_output=True,
        cwd=cwd, env={**os.environ, "PYTHONPATH": os.pathsep.join(path), **env})


def test_a_stdout_that_cannot_encode_a_clause_name_gets_a_report(tmp_path):
    argv = ["check", "--preset", "t2b", "--theorem", "additivecom"]
    # the clause name "Nil \u2286 Z" has no Latin-1 encoding
    proc = _cli_process(argv, tmp_path, PYTHONIOENCODING="latin-1")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"name: Nil \\u2286 Z" in proc.stdout
    # UTF-8 output is the report itself
    proc = _cli_process(argv, tmp_path, PYTHONIOENCODING="utf-8")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == emit_report(run(argv)[1]).encode("utf-8")


def test_files_are_utf8_whatever_the_locale(tmp_path):
    S = boolean_semiring()
    S = make_semiring(S.add, S.mul, S.zero, S.one, ["0", "\u03b1"])
    (tmp_path / "alpha.sr").write_text(serialize_semiring(S), "utf-8")
    env = {"PYTHONUTF8": "0", "LC_ALL": "C"}
    proc = _cli_process(["build", "--file", "alpha.sr", "--out", "out.sr"],
                        tmp_path, **env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert parse_semiring_file((tmp_path / "out.sr").read_text("utf-8")) == S
    # an ASCII stdout escapes the label
    proc = _cli_process(["classify", "--file", "alpha.sr"], tmp_path, **env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"\\u03b1" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["classify", "--preset", "nope"],
    ["classify", "--preset", "zmod:abc"],
    ["classify", "--preset", "product:zmod:x,bool"],
    ["classify", "--preset", "triangular:nat,2"],
    ["classify", "--preset", "matrix:nn-triple,2"],
    ["classify", "--preset", "product:nat,bool"],
    ["census", "--workers", "2"],
], ids=["unknown", "zmod-abc", "product-zmod-x", "triangular-nat",
        "matrix-nn-triple", "product-nat", "census-workers"])
def test_unknown_preset_is_a_usage_error(argv):
    code, report = run(argv)
    assert code == 1 and report["verdict"] == "error"


@pytest.mark.parametrize("preset", [
    "zmod:5_0", "zmod:+3", "zmod: 7", "zmod:\u0663", "matrix:bool,\u0662",
    "triangular:bool, 2"])
def test_malformed_preset_integer_is_an_error(preset):
    code, report = run(["classify", "--preset", preset, "--json"])
    assert code == 1 and report["verdict"] == "error"
    assert report["result"]["error"] == f"malformed preset {preset!r}"


def test_deeply_nested_preset_gets_a_report():
    # 500 levels exceed the interpreter's recursion limit
    preset = "triangular:" * 500 + "bool" + ",1" * 500
    code, report = run(["classify", "--preset", preset, "--json"])
    assert code == 0 and report["verdict"] == "ok"
    assert report["result"]["order"] == 2


def test_preset_over_the_size_cap_is_an_error():
    code, report = run(["classify", "--preset", "zmod:5000", "--json"])
    assert code == 1 and report["verdict"] == "error"
    assert report["result"]["error"] == \
        "5000 elements exceeds the size cap 4096"


@pytest.mark.parametrize("preset", ["matrix:bool,120", "triangular:bool,170"])
def test_size_cap_message_of_a_huge_count_is_short(preset):
    code, report = run(["classify", "--preset", preset])
    assert code == 1 and report["verdict"] == "error"
    message = report["result"]["error"]
    assert "exceeds the size cap 4096" in message and len(message) < 200
    assert report["result"]["kind"] == "DomainError"


def test_missing_file_is_an_error(tmp_path):
    code, report = run(["classify", "--file", str(tmp_path / "absent.sr")])
    assert code == 1 and report["verdict"] == "error"


@pytest.mark.parametrize("command", ["classify", "validate"])
def test_undecodable_file_is_an_error(tmp_path, command):
    path = tmp_path / "binary.sr"
    path.write_bytes(b"\xff\xfe")
    code, report = run([command, "--file", str(path)])
    assert code == 1 and report["verdict"] == "error"
    assert report["result"]["kind"] == "UnicodeDecodeError"


def test_wrong_arity_is_an_error():
    code, report = run(["iso", "--preset", "bool"])
    assert code == 1
    code, report = run(["classify", "--preset", "bool", "--preset", "bool"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["census", "--max-order", "1", "--preset", "zmod:4"],
    ["census", "--preset", "zmod:abc"],
    ["census", "--file", "missing.sr", "--json"],
], ids=["preset", "bad-preset", "file"])
def test_census_takes_no_inputs(argv, monkeypatch):
    monkeypatch.setattr("semirings.cli.from_preset", None)  # never called
    code, report = run(argv)
    assert code == 1 and report["result"] == {"error": "usage error"}


@pytest.mark.parametrize("preset,entries", [
    ("matrix:zmod:1,1000", 10 ** 6),
    ("matrix:bool,100000", 10 ** 10),
    ("triangular:zmod:1,91", 91 * 92 // 2),
])
def test_oversized_matrix_dimension_is_refused_up_front(preset, entries):
    code, report = run(["classify", "--preset", preset])
    assert code == 1
    assert report["result"] == {
        "error": f"{entries} matrix entries exceeds the size cap 4096",
        "kind": "DomainError"}


def test_usage_error_exit_code(capsys):
    code, report = run(["frobnicate"])
    assert code == 1 and report["verdict"] == "error"


@pytest.mark.parametrize("argv", [["--help"], ["census", "--help"],
                                  ["check", "-h", "--json"]])
def test_help_exits_zero_with_only_the_help(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: semirings")
    assert "verdict" not in out and "usage error" not in out


@pytest.mark.parametrize("argv", [["classify", "--preset", "bool", "--js"],
                                  ["census", "--max-ord", "2"]],
                         ids=["js", "max-ord"])
def test_abbreviated_options_are_usage_errors(argv, capsys):
    code, report = run(argv)
    assert code == 1 and report["result"] == {"error": "usage error"}
    assert main(argv) == 1
    assert "verdict: error" in capsys.readouterr().out


def test_usage_error_still_reports(capsys):
    assert main(["census", "--max-order", "x"]) == 1
    out = capsys.readouterr().out
    assert "verdict: error" in out and "usage error" in out


def test_exit_code_table():
    assert _EXIT_CODES == {"ok": 0, "confirmed": 0, "vacuous": 0,
                           "absent": 0, "violation": 2, "error": 1}


def test_violation_exit_code_via_stub(monkeypatch):
    import semirings.census as census
    from semirings.census import ScanReport

    fake = ScanReport(orders=(2,), counts={2: 1}, entries=(),
                      tallies={}, violations=({"theorem": "main"},))
    # the census command imports `scan` from semirings.census when it runs
    monkeypatch.setattr(census, "scan", lambda *a, **k: fake)
    code, report = run(["census", "--max-order", "2"])
    assert code == 2
    assert report["verdict"] == "violation"


def test_json_reports_are_byte_identical():
    _, first = run(["check", "--preset", "t2b", "--theorem", "additivecom"])
    _, second = run(["check", "--preset", "t2b", "--theorem", "additivecom"])
    assert emit_report(first, "json") == emit_report(second, "json")
    parsed = json.loads(emit_report(first, "json"))
    assert parsed["schema"] == 1
    assert parsed["tool"]["name"] == "semirings"


def test_text_report_mentions_verdict(capsys):
    assert main(["check", "--preset", "bool", "--theorem", "main"]) == 0
    out = capsys.readouterr().out
    assert "verdict: confirmed" in out


def test_census_result_is_pinned():
    # The JSON result block is a byte-stable contract: a change to this
    # digest must come with a SCHEMA_VERSION bump.
    code, report = run(["census", "--max-order", "4", "--json"])
    assert code == 0
    digest = hashlib.sha256(
        json.dumps(report["result"], sort_keys=True).encode()).hexdigest()
    assert digest == \
        "832495ad079577c6ea35ce823ff69aeaf8a303f2bfe26f13d4d4d188a72087d1"


@pytest.mark.parametrize("argv,digest", [
    (["census", "--json"],
     "35ab5254a817233bba9af763b95fe4377dabf039a583b4e9923ac15cb8e49641"),
    (["census", "--include-trivial", "--json"],
     "4f47260bdbd009fd31011c5e8c3840f5c82f6cd039025d411918a2a0086dda2e"),
    (["iso", "--preset", "z3x-sqm1", "--preset", "product:zmod:3,zmod:3",
      "--json"],
     "96211ed8d4ac15a19e27e655a12b7c689e9644a69c2a0827d974d38ce3fbf1d6"),
], ids=["census", "census-include-trivial", "iso"])
def test_rendered_json_reports_are_pinned(argv, digest):
    # the whole rendered document, bytes and all, is the contract
    _, report = run(argv)
    rendered = emit_report(report, "json").encode()
    assert hashlib.sha256(rendered).hexdigest() == digest


def test_census_json_violations_key_present_when_empty():
    _, report = run(["census", "--max-order", "2", "--json"])
    rendered = json.loads(emit_report(report, "json"))
    assert rendered["result"]["violations"] == []


# --------------------------------------------------------------- fuzzing

# Presets of order at most 16, symbolic models and malformed names.
_FUZZ_PRESETS = ("bool", "t2b", "m2z2", "z2x-sq", "z3x-sqm1",
                 "bxy-presentation", "nat", "nn-triple", "zmod:1", "zmod:16",
                 "product:bool,zmod:4", "triangular:bool,2", "matrix:bool,2",
                 "zmod:x", "zmod:-1", "product:bool", "matrix:bool", "nope")
_FUZZ_LABELS = ("0", "1", "2", "f", "x", "[0 1;0 0]", "[1 0;0 1]", "", "?")
_FUZZ_INTS = ("-2", "0", "1", "2", "3", "4", "5", "x", "1.5")
_FUZZ_THEOREMS = semirings.core.THEOREM_IDS + ("all", "x")
# Each command's own options, with values in and out of their domain.
_FUZZ_OPTIONS = {
    "validate": {}, "classify": {}, "peirce": {}, "iso": {},
    "closure": {"--mode": ("mult", "add", "x"),
                "--generators": ("idempotents", "nilidempotents")},
    "complement": {"--element": _FUZZ_LABELS,
                   "--kind": ("orthogonal", "nilorthogonal", "x")},
    "decompose": {"--element": _FUZZ_LABELS, "--max-len": _FUZZ_INTS},
    "lift": {"--element": _FUZZ_LABELS},
    "invert": {"--element": _FUZZ_LABELS},
    "check": {"--theorem": _FUZZ_THEOREMS},
    "census": {"--max-order": _FUZZ_INTS, "--theorem": _FUZZ_THEOREMS,
               "--include-trivial": ()},
    "build": {},
}
# `--max-iter` is an option of no command, so argparse refuses it.
_FUZZ_JUNK = ("--bogus", "--max-iter", "-x", "--", "-", "--json=1",
              "--preset=bool", "--max-order=3", "--element", "\u00fc", "@args")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory) -> list[str]:
    """Paths to a valid semiring file, a malformed one, a file that is not
    UTF-8, a directory and a missing file; the last is where `build --out`
    writes."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "t2b.sr").write_text(serialize_semiring(from_preset("t2b")))
    (root / "bad.sr").write_text("elements: a b\nadd:\na b\n")
    (root / "binary.sr").write_bytes(b"\xff\xfe\x00")
    return [str(root / name) for name in
            ("t2b.sr", "bad.sr", "binary.sr", ".", "out.sr")]


def _fuzz_argv(data, files: list[str]) -> list[str]:
    """A command line: mostly a command with its required option, one or
    two inputs and some of its other options; sometimes a junk command or
    token."""
    word = st.text(max_size=6).filter(lambda t: not t.startswith("-"))
    command = data.draw(st.sampled_from((*_FUZZ_OPTIONS, "", "x", "--json")))
    values = {"--preset": _FUZZ_PRESETS, "--file": files, "--json": (),
              **_FUZZ_OPTIONS.get(command, {})}
    if command == "build":
        values["--out"] = files[-1:]

    def group(name: str | None):
        if name is None:
            return st.tuples(st.one_of(st.sampled_from(_FUZZ_JUNK), word))
        if not values[name]:
            return st.just((name,))
        return st.tuples(st.just(name), st.sampled_from(values[name]))

    required = [name for name in ("--element", "--theorem")
                if name in values and command != "census"]
    inputs = data.draw(st.lists(st.sampled_from(("--preset", "--file")),
                                min_size=int(command != "census"),
                                max_size=2))
    names = data.draw(st.lists(st.sampled_from([*values, None]), max_size=3))
    groups = [data.draw(group(name)) for name in required + inputs + names]
    return [command, *(token for g in groups for token in g)]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_command_line_gives_a_report(data, fuzz_files):
    argv = _fuzz_argv(data, fuzz_files)
    code, report = run(argv)
    assert code in (0, 1, 2)
    assert report["verdict"] in _EXIT_CODES
    assert _EXIT_CODES[report["verdict"]] == code
