"""One benchmark pass, run in a fresh interpreter.

    python3 perfbench/passes.py WORKLOAD SEED PASS_INDEX TRACE

A pass generates its inputs from (SEED, PASS_INDEX), times every job of the
workload's fixed job list, checks every output after the timed loop, and
prints one JSON object.  With TRACE=1 it also records a span around each
call into the package, and runs the workload's extra traced calls after the
timed loop.  Set-up time runs from just before `import semirings` to the
first timed job.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gates

SETUP_START = time.perf_counter()

from semirings import (  # noqa: E402  (the import is part of set-up time)
    canonical_form,
    check_theorem,
    element_classes,
    enumerate_semirings,
    from_preset,
    generation_certificate,
    isomorphic,
    parse_semiring_file,
    presentation,
    reindex,
    scan,
    serialize_semiring,
    validate,
)
from semirings import cli  # noqa: E402
from semirings.census import enumerate_commutative_monoids  # noqa: E402
from semirings.ops import (  # noqa: E402
    GEN_IDEMPOTENTS,
    GEN_NILIDEMPOTENTS,
    MODE_ADD,
    MODE_MULT,
    THEOREM_IDS,
    idempotent_without_nilorthogonal_complement,
    idempotent_without_orthogonal_complement,
    invariant_vectors,
    nilpotent_outside_center,
    nilpotent_outside_v_and_z,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
_EXPECTED_FILE = BENCH_DIR / "expected.json"
# record.py imports this module to write the file in the first place.
EXPECTED = json.loads(_EXPECTED_FILE.read_text()) if _EXPECTED_FILE.exists() else {}

_FAILED = object()  # result of a job that raised


class Job:
    __slots__ = ("name", "result", "ok", "notes")

    def __init__(self, name: str, result, error: str | None):
        self.name = name  # layer.call, or layer.call:input where that matters
        self.result = result
        self.ok = error is None
        self.notes = [] if error is None else [error]


class Pass:
    """Times jobs and, when tracing, keeps one span per call in memory."""

    def __init__(self, pass_id: int, trace: bool):
        self.pass_id = pass_id
        self.trace = trace
        self.jobs: list[Job] = []
        self.latencies: list[float] = []
        self.spans: list[list] = []  # [id, name, parent, start, end]
        self.stack: list[int] = []
        self.values: dict[str, float] = {}  # per-layer values not from spans
        self.keys: dict[str, str] = {}  # canonical key digest per base
        self.rss_of_children = False

    def setup_done(self) -> None:
        self.jobs_start = time.perf_counter()
        self.setup_s = self.jobs_start - SETUP_START

    def jobs_done(self) -> None:
        self.wall_s = time.perf_counter() - self.jobs_start
        who = resource.RUSAGE_CHILDREN if self.rss_of_children \
            else resource.RUSAGE_SELF
        self.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    def _span(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([len(self.spans), name, parent, start, end])

    def open(self, name: str) -> None:
        """Open a parent span; calls made until close() become its children."""
        if self.trace:
            self._span(name, time.perf_counter(), None)
            self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        if self.trace:
            self.spans[self.stack.pop()][4] = time.perf_counter()

    def _call(self, name: str, fn, args):
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any exception is a failed call
            result, error = _FAILED, f"raised {exc!r}"
        end = time.perf_counter()
        if self.trace:
            self._span(name, start, end)
        return result, end - start, error

    def job(self, name: str, fn, *args, tag: str = "") -> Job:
        """One timed job: a public call whose output is checked later.  The
        tag names the input, so a documented defect can be told apart."""
        result, seconds, error = self._call(name, fn, args)
        self.latencies.append(seconds)
        job = Job(f"{name}:{tag}" if tag else name, result, error)
        self.jobs.append(job)
        return job

    def probe(self, name: str, fn, *args):
        """A call made only in traced passes, after the timed loop."""
        return self._call(name, fn, args)[0]

    def check(self, job: Job, notes: list[str]) -> None:
        if notes and job.ok:
            job.ok = False
        job.notes += notes

    def result(self) -> dict:
        failed = [j for j in self.jobs if not j.ok]
        return {
            "pass": self.pass_id,
            "trace": self.trace,
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "peak_rss_mb": self.peak_rss_mb,
            "latencies": self.latencies,
            "attempted": len(self.jobs),
            "failed_jobs": [j.name for j in failed],
            "notes": [f"{j.name}: {n}" for j in failed for n in j.notes][:20],
            "spans": self.spans,
            "values": self.values,
            "keys": self.keys,
        }


def _relabel(S, rng: random.Random):
    perm = list(range(S.order))
    rng.shuffle(perm)
    return reindex(S, perm)


# -- census ------------------------------------------------------------------
# The census stages and the theorem scan carry the load; one job per pass.

def census(p: Pass, rng: random.Random) -> None:
    p.setup_done()
    job = p.job("census.scan", scan, range(1, 5), THEOREM_IDS, True)
    p.jobs_done()
    if job.ok:
        p.check(job, gates.census_gate(job.result, EXPECTED["census"]["tallies"]))
    if p.trace:
        _census_replay(p, job)


def _census_replay(p: Pass, job: Job) -> None:
    """The census again as its public steps, so each layer shows alone."""
    monoids, semirings_found = {}, {}
    for n in range(1, 5):
        tables = p.probe("census.monoids", enumerate_commutative_monoids, n)
        monoids[n] = len(tables) if tables is not _FAILED else -1
        catalog = p.probe("census.enumerate", enumerate_semirings, n)
        if catalog is _FAILED:
            semirings_found[n] = -1
            continue
        semirings_found[n] = len(catalog)
        for S in catalog:
            p.open("census.entry")
            p.probe("census.canonical_form", canonical_form, S)
            p.probe("core.validate_valid", validate, S.add, S.mul, S.zero, S.one)
            p.probe("ops.invariant_vectors", invariant_vectors, S)
            p.probe("core.element_classes", element_classes, S)
            for mode, gens in ((MODE_MULT, GEN_IDEMPOTENTS),
                               (MODE_MULT, GEN_NILIDEMPOTENTS),
                               (MODE_ADD, GEN_IDEMPOTENTS)):
                p.probe("ops.generation_certificate", generation_certificate,
                        S, mode, gens)
            for finder in (idempotent_without_orthogonal_complement,
                           idempotent_without_nilorthogonal_complement,
                           nilpotent_outside_center, nilpotent_outside_v_and_z):
                p.probe("ops.complements", finder, S)
            for theorem in THEOREM_IDS:
                p.probe("ops.check_theorem", check_theorem, S, theorem)
            p.close()
        p.values["core.validate_instances"] = \
            p.values.get("core.validate_instances", 0) + n ** 3 * len(catalog)
    p.check(job, gates.counts_gate("commutative monoids", monoids, gates.A058131))
    p.check(job, gates.counts_gate("catalog", semirings_found, gates.CENSUS_COUNTS))


# -- canon -------------------------------------------------------------------
# Canonical labelling and isomorphism alone: mid-size inputs whose
# invariant-vector blocks make the search dominate, and 780 negative pairs
# that invariant vectors reject early.

CANON_PRESETS = ("m2z2", "product:t2b,zmod:2", "product:z3x-sqm1,bool",
                 "product:zmod:4,zmod:4", "product:z2x-sq,z2x-sq")


def canon(p: Pass, rng: random.Random) -> None:
    bases = []
    for order in (2, 3, 4):
        bases += [(f"catalog:{order}:{i}", S)
                  for i, S in enumerate(enumerate_semirings(order))]
    bases += [(name, from_preset(name)) for name in CANON_PRESETS]
    copies = [(name, S, _relabel(S, rng)) for name, S in bases]
    order4 = [_relabel(S, rng) for name, S in bases
              if name.startswith("catalog:4:")]
    p.setup_done()
    positive = []
    for name, S, copy in copies:
        key = p.job("census.canonical_form", canonical_form, copy)
        iso = p.job("ops.isomorphic_pos", isomorphic, S, copy)
        positive.append((name, S, copy, key, iso))
    negative = []
    for i, A in enumerate(order4):
        for B in order4[i + 1:]:
            negative.append(p.job("ops.isomorphic_neg", isomorphic, A, B))
    p.jobs_done()

    keys = {}
    for name, S, copy, key, iso in positive:
        if iso.ok:
            p.check(iso, gates.iso_witness_gate(S, copy, iso.result))
        if not key.ok:
            continue
        keys[name] = gates.digest(key.result.hex())
        if name.startswith("catalog:"):
            # Cheap to recompute; the mid-size keys are compared across
            # passes instead, each pass holding another relabelled copy.
            p.check(key, gates.key_gate(key.result, canonical_form(S)))
    if len(set(keys.values())) != len(keys):
        p.check(positive[0][3], ["non-isomorphic bases share a canonical key"])
    p.keys = keys
    for job in negative:
        if job.ok:
            p.check(job, gates.negative_gate(job.result))
    if p.trace:
        for name, S, copy, key, iso in positive:
            p.probe("ops.invariant_vectors", invariant_vectors, copy)


# -- build -------------------------------------------------------------------
# Construction, axiom validation and the file format: the O(n^3) sweep
# dominates, on valid and on perturbed tables side by side.

BUILD_PRESETS = ("matrix:zmod:3,2", "triangular:bool,3", "zmod:64", "zmod:100",
                 "zmod:128", "product:t2b,zmod:4", "product:m2z2,bool",
                 "triangular:zmod:3,2")

BUILD_PRESENTATIONS = (
    ("x^3=x, + idempotent", ("x",), (("x*x*x", "x"),), True),
    ("x^4=x^2", ("x",), (("x*x*x*x", "x*x"),), False),
    ("e^2=e", ("e",), (("e*e", "e"),), False),
    ("bxy", ("x", "y"), (("x+y", "0"), ("x*y", "0"), ("y*x", "0"),
                         ("x*x", "0"), ("y*y", "0")), True),
    ("1+1=0", (), (("1+1", "0"),), False),
)


def _perturbed(S, rng: random.Random):
    """S's tables with one seeded cell set to another value."""
    add = [list(row) for row in S.add]
    mul = [list(row) for row in S.mul]
    table = rng.choice((add, mul))
    i, j = rng.randrange(S.order), rng.randrange(S.order)
    table[i][j] = (table[i][j] + rng.randrange(1, S.order)) % S.order
    return add, mul


def build(p: Pass, rng: random.Random) -> None:
    p.setup_done()
    made = []  # (name, construction job, perturbed tables, jobs on S)
    specs = [(name, "constructors.from_preset", from_preset, (name,))
             for name in BUILD_PRESETS]
    specs += [(name, "presentation.presentation", presentation,
               (gens, rels, idem)) for name, gens, rels, idem in BUILD_PRESENTATIONS]
    for name, layer, fn, args in specs:
        made_job = p.job(layer, fn, *args, tag=name)
        S = made_job.result
        if made_job.ok and layer == "presentation.presentation":
            S = S.semiring if S.status == "finite" else None
        if not made_job.ok or S is None or S.order < 2:
            made.append((name, made_job, None, None))
            continue
        add, mul = _perturbed(S, rng)
        jobs = {"validate": p.job("core.validate_invalid", validate,
                                  add, mul, S.zero, S.one, tag=name)}
        jobs["serialize"] = text = p.job("fileformat.serialize",
                                         serialize_semiring, S, tag=name)
        if text.ok:
            jobs["parse"] = p.job("fileformat.parse", parse_semiring_file,
                                  text.result, tag=name)
        jobs["classes"] = p.job("core.element_classes", element_classes, S,
                                tag=name)
        for theorem in THEOREM_IDS:
            jobs[theorem] = p.job("ops.check_theorem", check_theorem, S,
                                  theorem, tag=name)
        made.append((name, made_job, (S, add, mul), jobs))
    p.jobs_done()

    instances = 0
    for name, made_job, tables, jobs in made:
        want = EXPECTED["build"][name]
        if not made_job.ok:
            continue
        if "status" in want:
            p.check(made_job, gates.differ(f"{name} status",
                                           made_job.result.status, want["status"]))
        if tables is None:
            continue
        S, add, mul = tables
        instances += S.order ** 3
        text = jobs["serialize"]
        p.check(made_job, gates.differ(f"{name} tables",
                                        gates.digest(serialize_semiring(S)),
                                        want["digest"]))
        if jobs["validate"].ok:
            reference = gates.reference_sweep(add, mul, S.zero, S.one)
            p.check(jobs["validate"],
                    gates.violations_gate(jobs["validate"].result, reference))
        if text.ok and jobs["parse"].ok:
            p.check(jobs["parse"], gates.roundtrip_gate(S, jobs["parse"].result))
        if jobs["classes"].ok:
            p.check(jobs["classes"], gates.classes_gate(S, jobs["classes"].result))
        for theorem in THEOREM_IDS:
            job = jobs[theorem]
            if job.ok:
                p.check(job, gates.differ(f"{name} {theorem}", job.result.verdict,
                                           want["verdicts"][theorem]))
    if p.trace:
        for name, made_job, tables, jobs in made:
            if tables is not None:
                S = tables[0]
                p.probe("core.validate_valid", validate, S.add, S.mul, S.zero, S.one)
                instances += S.order ** 3
        p.values["core.validate_instances"] = instances


# -- cli ---------------------------------------------------------------------
# Full CLI processes: interpreter start, import, argparse, file format and
# JSON emission dominate; the algebra is small.

CLI_COMMANDS = {
    "classify-t2b": ["classify", "--preset", "t2b"],
    "classify-bxy": ["classify", "--preset", "bxy-presentation"],
    "classify-nat": ["classify", "--preset", "nat"],
    "classify-file": ["classify", "--file", "m2z2.sr"],
    "closure-mult": ["closure", "--preset", "t2b", "--mode", "mult",
                     "--generators", "nilidempotents"],
    "closure-add": ["closure", "--preset", "z2x-sq", "--mode", "add"],
    "complement-orth": ["complement", "--preset", "t2b", "--element",
                        "[1 0;0 0]", "--kind", "orthogonal"],
    "complement-nilorth": ["complement", "--preset", "t2b", "--element",
                           "[1 1;0 0]", "--kind", "nilorthogonal"],
    "decompose": ["decompose", "--preset", "zmod:6", "--element", "1"],
    "lift": ["lift", "--preset", "z2x-sq", "--element", "1+x"],
    "invert": ["invert", "--preset", "zmod:4", "--element", "2"],
    "peirce": ["peirce", "--preset", "z3x-sqm1"],
    "iso": ["iso", "--preset", "z3x-sqm1", "--preset", "product:zmod:3,zmod:3"],
    "check-main": ["check", "--preset", "t2b", "--theorem", "main"],
    "check-main2": ["check", "--preset", "m2z2", "--theorem", "main2"],
    "check-mainnilid": ["check", "--preset", "z2x-sq", "--theorem", "mainnilid"],
    "check-additivecom": ["check", "--file", "bxy.sr", "--theorem",
                          "additivecom"],
    "validate-good": ["validate", "--file", "m2z2.sr"],
    "validate-bad": ["validate", "--file", "bad.sr"],
    "build": ["build", "--preset", "bxy-presentation", "--out", "out.sr"],
    "census": ["census", "--max-order", "3"],
    "usage-error": ["frobnicate"],
    "domain-error": ["iso", "--preset", "bool"],
    "malformed-zmod": ["classify", "--preset", "zmod:abc"],
    "malformed-triangular": ["classify", "--preset", "triangular:nat,2"],
}


def _cli_files(workdir: Path) -> dict[str, str]:
    """The input files the mix reads: two presets and one table pair with a
    fixed broken cell."""
    files = {"m2z2.sr": serialize_semiring(from_preset("m2z2")),
             "bxy.sr": serialize_semiring(from_preset("bxy-presentation"))}
    lines = serialize_semiring(from_preset("z2x-sq")).splitlines()
    # The last line is the mul row of 1+x: set (1+x)*(1+x) from 1 to 0.
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 0"
    files["bad.sr"] = "\n".join(lines) + "\n"
    for name, text in files.items():
        (workdir / name).write_text(text)
    return files


def cli_workload(p: Pass, rng: random.Random) -> None:
    workdir = BENCH_DIR / "out" / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _cli_pass(p, rng, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cli_process(argv: list[str], workdir: Path, env: dict):
    proc = subprocess.run([sys.executable, "-m", "semirings.cli", *argv],
                          cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_pass(p: Pass, rng: random.Random, workdir: Path) -> None:
    files = _cli_files(workdir)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    order = list(CLI_COMMANDS)
    rng.shuffle(order)
    p.rss_of_children = True
    p.setup_done()
    runs = [(cid, p.job("cli.process", _cli_process,
                        CLI_COMMANDS[cid] + ["--json"], workdir, env, tag=cid))
            for cid in order]
    p.jobs_done()

    for cid, job in runs:
        if job.ok:
            p.check(job, gates.cli_gate(EXPECTED["cli"][cid], *job.result))
        if cid == "build" and job.ok:
            written = workdir / "out.sr"
            text = written.read_text() if written.exists() else ""
            p.check(job, gates.differ("built file", gates.digest(text),
                                       EXPECTED["cli_build_digest"]))
    if p.trace:
        _cli_probes(p, workdir, env, files)


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import semirings.cli; "
                 "print(time.perf_counter() - t)")


def _cli_probes(p: Pass, workdir: Path, env: dict, files: dict) -> None:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    p.values["cli.import_s"] = float(proc.stdout)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in CLI_COMMANDS.values():
            p.probe("cli.run", cli.run, argv + ["--json"])
    finally:
        os.chdir(here)
    for argv in CLI_COMMANDS.values():
        for flag, value in zip(argv, argv[1:]):
            if flag == "--preset":
                p.probe("constructors.from_preset", from_preset, value)
    for name, text in files.items():
        S = p.probe("fileformat.parse", parse_semiring_file, text)
        if S is not _FAILED:
            p.probe("fileformat.serialize", serialize_semiring, S)


WORKLOADS = {"census": census, "canon": canon, "build": build,
             "cli": cli_workload}


def main(argv: list[str]) -> int:
    workload, seed, pass_id, trace = argv
    p = Pass(int(pass_id), trace == "1")
    WORKLOADS[workload](p, random.Random(f"{workload}:{seed}:{pass_id}"))
    print(json.dumps(p.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
