"""Record the reference values the gates compare against.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/expected.json from one run of the program: the census
verdict tallies, each build input's serialized tables and verdicts, and
each CLI command's exit code, verdict and result block.  The benchmark is
meant to hold the program to the values recorded when it was written, so
rerun this only for a deliberate, documented change to one of them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import gates
import passes
from semirings import check_theorem, from_preset, presentation, scan, serialize_semiring
from semirings.ops import THEOREM_IDS

# Inputs that print a traceback instead of a report at the recorded commit.
# Their gate asks for a clean error report, so they count as failed until
# the input boundary is fixed.
KNOWN_DEFECTS = ("malformed-zmod", "malformed-triangular")
# Build inputs whose serialized document does not parse back at the recorded
# commit: labels such as "(1+x)*x" split into two tokens.
KNOWN_ROUNDTRIP_DEFECTS = ("x^3=x, + idempotent",)


def _semiring_entry(S) -> dict:
    return {"digest": gates.digest(serialize_semiring(S)),
            "verdicts": {t: check_theorem(S, t).verdict for t in THEOREM_IDS}}


def main() -> int:
    report = scan(range(1, 5), THEOREM_IDS, include_trivial=True)
    build = {name: _semiring_entry(from_preset(name))
             for name in passes.BUILD_PRESETS}
    for name, gens, rels, idem in passes.BUILD_PRESENTATIONS:
        result = presentation(gens, rels, idem)
        build[name] = {"status": result.status}
        if result.status == "finite":
            build[name].update(_semiring_entry(result.semiring))

    workdir = passes.BENCH_DIR / "out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(passes.ROOT / "src"))
    cli = {}
    try:
        passes._cli_files(workdir)
        for cid, argv in passes.CLI_COMMANDS.items():
            code, out, err = passes._cli_process(argv + ["--json"], workdir, env)
            if cid in KNOWN_DEFECTS:
                cli[cid] = {"code": 1, "verdict": "error"}
                continue
            if "Traceback" in err:
                raise SystemExit(f"{cid} printed a traceback:\n{err}")
            doc = json.loads(out)
            cli[cid] = {"code": code, "verdict": doc["verdict"],
                        "result": doc["result"]}
        build_digest = gates.digest((workdir / "out.sr").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = {
        "census": {"tallies": report.tallies},
        "build": build,
        "cli": cli,
        "cli_build_digest": build_digest,
        "known_defects": [f"cli.process:{cid}" for cid in KNOWN_DEFECTS]
        + [f"fileformat.parse:{name}" for name in KNOWN_ROUNDTRIP_DEFECTS],
    }
    path = passes.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
