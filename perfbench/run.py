"""Benchmark runner for the semirings engine.

    python3 perfbench/run.py --workload census|canon|build|cli --seed N \
        --seconds S --trace 0|1

Runs passes of one workload, one at a time, each in a fresh interpreter
(perfbench/passes.py), until the next pass would end after S seconds.  A
run holds at least MIN_JOBS jobs when that fits in EXTENSION times S, so
the p90 latency has ten samples beyond it.  Prints one line per metric,
then, as the last line, one JSON object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  A traced run alternates untraced and
traced passes; the per-layer numbers come from the traced ones and the
tracing overhead is the difference of their wall times.  Its spans are
written to perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("census", "canon", "build", "cli")
MIN_JOBS = 100
EXTENSION = 1.4
PASS_TIMEOUT_S = 170

# Printed with the end-to-end metrics but left out of BENCHMARK.json: on
# the baseline machine their run-to-run spread can exceed the largest bound
# a metric may have (see README.md).
PRINTED_ONLY = {"job_p50_ms": "ms", "job_p90_ms": "ms"}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, index: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # -S skips site-packages: interpreter start is outside every pass
    # metric, and site's start-up cost would only thin out the passes.
    cmd = [sys.executable, "-S", str(BENCH_DIR / "passes.py"), workload, str(seed),
           str(index), "1" if traced else "0"]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        except BaseException as exc:
            # Stop the pass and any CLI process it started, then reap it.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise PassError(f"pass {index} ran over {PASS_TIMEOUT_S} s") from None
            raise
    if proc.returncode != 0 or not out.strip():
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise PassError(f"pass {index} exited with {proc.returncode}:\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    start = time.perf_counter()
    passes: list[dict] = []
    durations: list[float] = []
    while True:
        t = time.perf_counter()
        passes.append(run_pass(workload, seed, len(passes),
                               trace and len(passes) % 2 == 1))
        durations.append(time.perf_counter() - t)
        next_end = time.perf_counter() - start + statistics.median(durations)
        if trace and len(passes) < 2 or next_end <= seconds:
            continue
        jobs = sum(p["attempted"] for p in passes)
        if trace or jobs >= MIN_JOBS or next_end > EXTENSION * seconds:
            return passes


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    latencies = sorted(x for p in passes for x in p["latencies"])
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_p90_ms": 1000 * percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _span_times(spans: list[list]) -> tuple[dict, dict]:
    """Total and self seconds per span name; self time is a span minus the
    time its child spans cover."""
    total: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for sid, name, parent, start, end in spans:
        total[name] += end - start
        if parent is not None:
            children[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for sid, name, parent, start, end in spans:
        own[name] += end - start - children[sid]
    return total, own


def per_layer(passes: list[dict], names) -> tuple[dict[str, float], dict]:
    traced = [p for p in passes if p["trace"]]
    untraced = [p for p in passes if not p["trace"]]
    per_pass = []
    self_times = defaultdict(list)
    for p in traced:
        total, own = _span_times(p["spans"])
        values = {f"{name}_s": seconds for name, seconds in total.items()}
        values.update(p["values"])
        per_pass.append(values)
        for name, seconds in own.items():
            self_times[name].append(seconds)
    metrics = {name: statistics.median(v.get(name, 0.0) for v in per_pass)
               for name in names}
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced))
    return metrics, {name: statistics.median(v) for name, v in self_times.items()}


def failures(passes: list[dict], known: set[str]) -> tuple[int, int, list[str]]:
    """Failed jobs, failed jobs outside the documented known defects, and
    notes.  Canonical keys of one base must agree across passes, each pass
    holding another relabelled copy."""
    failed = sum(len(p["failed_jobs"]) for p in passes)
    unexpected = sum(name not in known for p in passes for name in p["failed_jobs"])
    notes = [n for p in passes for n in p["notes"]]
    first_keys = passes[0]["keys"]
    for p in passes[1:]:
        for base, key in p["keys"].items():
            if first_keys.get(base, key) != key:
                failed += 1
                unexpected += 1
                notes.append(f"pass {p['pass']}: canonical key of {base} "
                             "differs from pass 0")
    return failed, unexpected, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        passes = run_passes(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except PassError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed, unexpected, notes = failures(passes, set(expected["known_defects"]))
    untraced = [p for p in passes if not p["trace"]]
    jobs = sum(p["attempted"] for p in untraced)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"untraced jobs {jobs}")
    for note in sorted(set(notes)):
        print(f"  failed {notes.count(note)}x: {note}")
    if args.trace:
        metrics, self_s = per_layer(passes, units)
        path = BENCH_DIR / "out" / f"trace-{args.workload}-{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "self_s": self_s,
            "passes": [{"pass": p["pass"], "spans": p["spans"]}
                       for p in passes if p["trace"]],
        }))
        print(f"  spans written to {path.relative_to(ROOT)}")
        shown = units
    else:
        metrics = end_to_end(untraced)
        shown = {**units, **PRINTED_ONLY}
        print(f"  job percentiles over {jobs} jobs")
    for name, unit in shown.items():
        print(f"{name:32} {metrics[name]:14.6f} {unit}")
    print(f"{'failed_ratio':32} {failed / attempted:14.6f} 1")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
