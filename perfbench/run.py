#!/usr/bin/env python3
"""Run one pfkit benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload classify-scale --seed 20260814 --seconds 20 --trace 0

Run from the root of a checkout; pfkit is imported from its `src/`.  The
last line of stdout is a JSON object with `correct`, `attempted`, `failed`
and `metrics`; a result file with provenance goes to perfbench/results/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"
WORKLOAD_NAMES = ("audit-exhaustive", "audit-sampled", "classify-scale", "interval-models")
SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, 'perfbench'); import hostspeed; hostspeed.timed_import('src', 'pfkit.cli')"
MAX_PRINTED_PROBLEMS = 20


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_pfkit() -> None:
    """Import pfkit from this checkout's src/ or exit without a result."""
    if not (SRC / "pfkit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'pfkit'} not found; run the benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import pfkit

    if Path(pfkit.__file__).resolve().parent != (SRC / "pfkit").resolve():
        sys.exit(f"error: imported pfkit from {pfkit.__file__}, not from {SRC}")


# --------------------------------------------------------------------------
# provenance


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    """sha256 over pfkit's sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pfkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args: argparse.Namespace, sizes: dict, rounds: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "sizes": sizes,
        "load": "closed loop, one client, one request in flight, one process",
        "computed_label": "metrics ending in _computed are derived from array sizes, not measured",
    }


# --------------------------------------------------------------------------
# checks across rounds and runs


def check_round(rnd, inputs, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one round."""
    import checks
    from pfkit.audit import EXHAUSTIVE_ATOM_LIMIT

    if rnd.families:
        failed, problems = checks.audit_failed_systems(rnd, inputs.workload, EXHAUSTIVE_ATOM_LIMIT)
        return sum(run.count for run in rnd.families), failed, problems
    failed = 0
    problems = checks.check_crosscheck(rnd)
    for outcome in rnd.outcomes:
        found = checks.check_outcome(outcome, reference)
        failed += bool(found)
        problems += found
    return len(rnd.outcomes), failed, problems


def check_canonical_store(workload: str, seed: int, rnd) -> list[str]:
    """canonical_json() must not change between runs of the same sources."""
    store = RESULTS / "canonical" / f"{src_digest()}.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    problems = []
    for run in rnd.families:
        key = f"{workload}/{seed}/{run.family}/{run.seed}/{run.count}"
        digest = hashlib.sha256(run.report.canonical_json().encode()).hexdigest()
        if known.setdefault(key, digest) != digest:
            problems.append(f"{run.family}: canonical_json differs from an earlier run of the same sources")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return problems


# --------------------------------------------------------------------------
# the run


def run(args: argparse.Namespace, workdir: Path, clock: hostspeed.ReferenceClock) -> int:
    from click.testing import CliRunner

    import checks
    import hostspeed
    import metrics
    import tracing
    import workloads

    runner = CliRunner()
    # The reference clock runs through set-up and the untraced rounds; the
    # traced rounds run without it, so its blocks do not land in spans.  The
    # import probe runs a clock of its own.
    setups: list[hostspeed.Interval] = []
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        clock.stop()
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True, timeout=120, capture_output=True, text=True
        )
        clock.blocks += json.loads(child.stdout)
        clock.start()
        inputs = workloads.build_inputs(args.workload, args.seed, workdir)
        workloads.warm_up(inputs, runner, workdir)
        setups.append(clock.since(mark))

    reference = checks.load_reference(args.seed) if inputs.requests else None
    attempted = failed = 0
    problems: list[str] = []
    rounds = []
    timed: list[hostspeed.Interval] = []

    def record(rnd, interval: hostspeed.Interval | None = None) -> int:
        nonlocal attempted, failed
        a, f, p = check_round(rnd, inputs, reference)
        attempted += a
        failed += f
        problems.extend(p)
        rounds.append(rnd)
        if interval is not None:
            timed.append(interval)
        return f

    tracer = None
    if args.trace:
        clock.stop()
        record(workloads.run_round(inputs, runner))
        tracer = tracing.Tracer()
        undo = tracing.instrument(tracer)
        try:
            traced = workloads.run_round(inputs, runner, tracer.span)
        finally:
            tracing.restore(undo)
        traced_failed = record(traced)
        systems_failed = traced_failed if traced.families else 0
    else:
        started = time.perf_counter()
        while True:
            mark = clock.mark()
            rnd = workloads.run_round(inputs, runner)
            record(rnd, clock.since(mark))
            # start another identical round only if it should end within budget
            if time.perf_counter() - started + rnd.seconds > args.seconds:
                break
        clock.stop()

    first = checks.round_outputs(rounds[0])
    for i, rnd in enumerate(rounds[1:], 1):
        if checks.round_outputs(rnd) != first:
            problems.append(f"round {i} outputs differ from round 0 (traced run: {bool(args.trace)})")
    if rounds[0].families:
        problems += check_canonical_store(args.workload, args.seed, rounds[0])

    named: dict[str, tuple[float, str]] = {}
    if tracer is None:
        values = {
            "wall_s": statistics.median(i.normalised_s for i in timed),
            "setup_s": statistics.median(i.normalised_s for i in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        reported = {name: (values[name], unit) for name, unit in metrics.END_TO_END}
        named["wall_raw_s"] = (statistics.median(i.wall_s for i in timed), "s")
        named["setup_raw_s"] = (statistics.median(i.wall_s for i in setups), "s")
        named["host_slowdown"] = (statistics.median(i.mean_block_s for i in timed) / hostspeed.REFERENCE_BLOCK_S, "ratio")
        named.update(metrics.workload_metrics(rounds))
        named["error_rate"] = (failed / attempted, "failed/attempted")
        named.update(reported)
    else:
        overhead = rounds[1].seconds / rounds[0].seconds
        layer = metrics.layer_metrics(tracer, systems_failed, overhead)
        reported = {name: (layer[name], unit) for name, unit in metrics.PER_LAYER}
        named.update(reported)

    for name, (value, unit) in named.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"CHECK FAILED: {len(problems) - MAX_PRINTED_PROBLEMS} more problems", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record_doc = {
        "provenance": provenance(args, workloads.sizes(args.workload), len(rounds)),
        "result": result,
        "all_metrics": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "round_seconds": [r.seconds for r in rounds],
        "timed_rounds": [asdict(i) for i in timed],
        "setup_intervals": [asdict(i) for i in setups],
        "problems": problems,
        "spans": tracer.edge_table() if tracer else None,
    }
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record_doc, indent=1) + "\n")
    print(json.dumps(result))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_pfkit()
    import hostspeed

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = hostspeed.ReferenceClock()
    try:
        return run(args, workdir, clock)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
