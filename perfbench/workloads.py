"""Seeded inputs and request rounds for the four pfkit workloads.

A round is one fixed batch of requests, determined by the seed alone.  A
run repeats the identical round, so every round of a run must produce the
same outputs, and latency percentiles pool the samples of all rounds.
Inputs come from the benchmark's own SplitMix64 stream, not from the
program's generator, except where a workload drives `run_audit` itself:
there the program's `SystemGenerator` is the documented input source.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from click.testing import CliRunner

from pfkit import SystemGenerator, dense_exact_matrix, run_audit, ulam_assemble
from pfkit.cli import main as pfkit_cli

DEFAULT_SEED = 20260814
FAMILIES = ("main", "prop21", "thm22", "lemma23", "structural")

# (systems per call, calls) per family and round.  Call c audits the first
# `systems` systems of seed `call_seed(seed, c)`; call 0 uses the seed
# itself.  Calls of all families interleave, so every family sees the same
# mix of machine states.  Counts make one round take about 16 s on a quiet
# 2-core machine.  Structural systems of the sampled generator cost ~190 ms
# each with a wide spread (dense Fraction matrices up to 16x16), so that
# family gets a token count there: more would dominate the round.
AUDIT_PLAN = {
    "audit-exhaustive": {
        "main": (360, 5), "prop21": (170, 5), "thm22": (260, 5), "lemma23": (360, 5), "structural": (34, 5),
    },
    "audit-sampled": {
        "main": (360, 5), "prop21": (240, 5), "thm22": (280, 5), "lemma23": (360, 5), "structural": (5, 1),
    },
}
SAMPLED_GENERATOR = {"max_positive_atoms": 16, "max_null_atoms": 4, "mass_denominator_bound": 48}

# (positive atoms, requests).  Sorted latencies follow the size classes, so
# of 41 samples p50 (rank 21) lies inside d=32 and p75 (rank 31, with ten
# samples beyond it) inside d=64, away from every class boundary.
CLASSIFY_MIX = ((16, 16), (32, 12), (64, 10), (128, 3))

# (kind, level, requests); 60 requests.  An image request at level L costs
# about as much as an exactness request at level L+2, so costs form
# plateaus: p50 (ranks 30-31) falls in {exactness 10, image 8} at ranks
# 21-36, and p75 (ranks 45-46) among the exactness 11 requests at 41-50.
DYADIC_MIX = (
    ("exactness", 8, 10), ("exactness", 9, 10), ("exactness", 10, 8),
    ("exactness", 11, 10), ("exactness", 12, 4),
    ("image", 8, 8), ("image", 9, 4), ("image", 10, 4), ("image", 11, 1), ("image", 12, 1),
)

# (bins, requests, with --matrix-out); 58 requests.  Bins stay at 4096 or
# below: the matrix is dense and --bins has no cap.  The export walks all
# bins^2 entries, so it runs at 1024 bins; sorted, p50 (ranks 29-30) falls
# among the 2048-bin requests and p75 (ranks 43-44) among the exports.
ULAM_MIX = ((1024, 24, False), (2048, 18, False), (1024, 8, True), (4096, 8, False))
ULAM_MAPS = ("doubling", "tent", "rotation")
ULAM_STEPS = 64
ROTATION_ALPHAS = ("1/3", "1/5", "2/7", "3/8", "5/16")
CROSSCHECK_LEVEL = 10  # doubling vs dense_exact_matrix, once per round

MASK64 = (1 << 64) - 1


class Rng:
    """SplitMix64 keyed by (seed, stream name); stable across Python versions."""

    def __init__(self, seed: int, stream: str):
        salt = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "big")
        self.state = (seed ^ salt) & MASK64

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        x = self.state
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        return x ^ (x >> 31)

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.u64()
            if v < limit:
                return v % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass
class Request:
    """One CLI invocation; `rid` is stable across runs and keys references."""

    stream: str
    rid: str
    argv: list[str]
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    request: Request
    seconds: float
    exit_code: int
    stdout: str


@dataclass
class FamilyRun:
    """One `run_audit` call of a round."""

    family: str
    seed: int
    count: int
    seconds: float
    report: object  # pfkit.AuditReport


@dataclass
class Round:
    """Everything one round produced, for checks and metrics."""

    seconds: float
    outcomes: list[Outcome] = field(default_factory=list)
    families: list[FamilyRun] = field(default_factory=list)
    crosscheck_error: float | None = None


# --------------------------------------------------------------------------
# input generation


def classify_system(rng: Rng, d: int) -> dict:
    """A measure-preserving system with d positive atoms.

    Positive atoms fall into 1-4 mass classes with distinct per-atom masses
    over a common denominator; the map permutes each class with one of four
    cycle shapes; 0-4 null atoms map anywhere.
    """
    n_classes = 1 + rng.below(min(4, d))
    sizes = [1] * n_classes
    for _ in range(d - n_classes):
        sizes[rng.below(n_classes)] += 1
    numerators = list(range(1, 10))
    rng.shuffle(numerators)
    q = sum(s * p for s, p in zip(sizes, numerators))
    shape = ("cycle", "random", "identity", "pairs")[rng.below(4)]

    masses: list[str] = []
    targets: list[int] = []
    start = 0
    for size, p in zip(sizes, numerators):
        members = list(range(start, start + size))
        image = list(members)
        if shape == "cycle":
            image = members[1:] + members[:1]
        elif shape == "random":
            rng.shuffle(image)
        elif shape == "pairs":
            for i in range(0, size - 1, 2):
                image[i], image[i + 1] = image[i + 1], image[i]
        masses += [f"{p}/{q}"] * size
        targets += image
        start += size
    n_null = rng.below(5)
    total = d + n_null
    masses += ["0"] * n_null
    targets += [rng.below(total) for _ in range(n_null)]

    # scatter the atoms so positive and null labels interleave
    order = list(range(total))
    rng.shuffle(order)
    label = {old: f"a{new}" for new, old in enumerate(order)}
    slot = {old: new for new, old in enumerate(order)}
    atoms = [""] * total
    out_masses = [""] * total
    out_map = [""] * total
    for old in range(total):
        atoms[slot[old]] = label[old]
        out_masses[slot[old]] = masses[old]
        out_map[slot[old]] = label[targets[old]]
    return {"schema_version": "1", "atoms": atoms, "masses": out_masses, "map": out_map}


def dyadic_cells(rng: Rng, level: int) -> list[int]:
    """Half of the 2^level cells, chosen uniformly, in increasing order."""
    cells = list(range(1 << level))
    rng.shuffle(cells)
    return sorted(cells[: len(cells) // 2])


def cells_to_spec(cells: list[int], level: int) -> str:
    n = 1 << level
    runs: list[list[int]] = []
    for c in cells:
        if runs and runs[-1][1] == c:
            runs[-1][1] = c + 1
        else:
            runs.append([c, c + 1])
    return ",".join(f"{a}/{n}:{b}/{n}" for a, b in runs)


def set_level(cells: list[int], level: int) -> int:
    """The coarsest dyadic level on which the cell set is a union of cells."""
    members = set(cells)
    while level > 0 and all((2 * j in members) == (2 * j + 1 in members) for j in range(1 << (level - 1))):
        members = {c // 2 for c in members}
        level -= 1
    return level


def interleave(rng: Rng, requests: list[Request]) -> list[Request]:
    order = list(requests)
    rng.shuffle(order)
    return order


def classify_requests(seed: int, workdir: Path) -> list[Request]:
    rng = Rng(seed, "classify")
    requests = []
    for d, count in CLASSIFY_MIX:
        for i in range(count):
            rid = f"classify-d{d}-{i:02d}"
            path = workdir / f"{rid}.json"
            path.write_text(json.dumps(classify_system(rng, d)) + "\n")
            requests.append(Request("classify", rid, ["classify", str(path)], {"d": d}))
    return interleave(rng, requests)


def dyadic_requests(rng: Rng) -> list[Request]:
    requests = []
    for kind, level, count in DYADIC_MIX:
        for i in range(count):
            cells = dyadic_cells(rng, level)
            rid = f"dyadic-{kind}-l{level}-{i:02d}"
            argv = ["dyadic", "--set", cells_to_spec(cells, level), "--kind", kind]
            requests.append(
                Request("dyadic", rid, argv, {"kind": kind, "level": level, "set_level": set_level(cells, level)})
            )
    return requests


def ulam_requests(rng: Rng, workdir: Path) -> list[Request]:
    requests = []
    for bins, count, export in ULAM_MIX:
        for i in range(count):
            kind = ULAM_MAPS[i % len(ULAM_MAPS)]
            lo = rng.below(bins // 2)
            hi = lo + bins // 8 + rng.below(bins // 2 - bins // 8 + 1)
            rid = f"ulam-{kind}-b{bins}{'-export' if export else ''}-{i:02d}"
            argv = ["ulam", "--map", kind, "--bins", str(bins), "--target-bins", f"{lo}:{hi}",
                    "--n-max", str(ULAM_STEPS)]
            if kind == "rotation":
                argv += ["--alpha", ROTATION_ALPHAS[rng.below(len(ROTATION_ALPHAS))]]
            meta = {"map": kind, "bins": bins}
            if export:
                meta["matrix_out"] = str(workdir / f"{rid}.csv")
                argv += ["--matrix-out", meta["matrix_out"]]
            requests.append(Request("ulam", rid, argv, meta))
    return requests


def interval_requests(seed: int, workdir: Path) -> list[Request]:
    rng = Rng(seed, "interval")
    return interleave(rng, dyadic_requests(rng) + ulam_requests(rng, workdir))


def call_seed(seed: int, call: int) -> int:
    return (seed + call * 0x9E3779B97F4A7C15) & MASK64


def audit_generator(workload: str, seed: int) -> SystemGenerator:
    if workload == "audit-sampled":
        return SystemGenerator(seed, **SAMPLED_GENERATOR)
    return SystemGenerator(seed)


@dataclass
class Inputs:
    workload: str
    seed: int
    requests: list[Request] = field(default_factory=list)


def build_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    if workload == "classify-scale":
        return Inputs(workload, seed, classify_requests(seed, workdir))
    if workload == "interval-models":
        return Inputs(workload, seed, interval_requests(seed, workdir))
    if workload in AUDIT_PLAN:
        return Inputs(workload, seed)
    raise ValueError(f"unknown workload {workload!r}")


def sizes(workload: str) -> dict:
    """The workload's fixed sizes, for the provenance block."""
    if workload in AUDIT_PLAN:
        plan = {f: {"systems_per_call": n, "calls": c} for f, (n, c) in AUDIT_PLAN[workload].items()}
        out = {"family_counts": plan, "generator": "SystemGenerator defaults"}
        if workload == "audit-sampled":
            out["generator"] = SAMPLED_GENERATOR
        return out
    if workload == "classify-scale":
        return {"classify_mix": [{"positive_atoms": d, "requests": n} for d, n in CLASSIFY_MIX]}
    return {
        "dyadic_mix": [{"kind": k, "level": lv, "requests": n} for k, lv, n in DYADIC_MIX],
        "ulam_mix": [{"bins": b, "requests": n, "matrix_out": e} for b, n, e in ULAM_MIX],
        "ulam_steps": ULAM_STEPS,
        "crosscheck_level": CROSSCHECK_LEVEL,
    }


# --------------------------------------------------------------------------
# rounds


def _no_span(name: str):
    return nullcontext()


def run_round(inputs: Inputs, runner: CliRunner, span=_no_span) -> Round:
    """Run the workload's batch once; `span(name)` wraps each request."""
    started = time.perf_counter()
    rnd = Round(0.0)
    if inputs.workload in AUDIT_PLAN:
        plan = AUDIT_PLAN[inputs.workload]
        for call in range(max(calls for _, calls in plan.values())):
            for family, (count, calls) in plan.items():
                if call >= calls:
                    continue
                seed = call_seed(inputs.seed, call)
                t0 = time.perf_counter()
                with span(f"audit.{family}"):
                    report = run_audit(family, seed, count, generator=audit_generator(inputs.workload, seed))
                rnd.families.append(FamilyRun(family, seed, count, time.perf_counter() - t0, report))
    else:
        for req in inputs.requests:
            t0 = time.perf_counter()
            with span(f"cli.{req.stream}"):
                result = runner.invoke(pfkit_cli, req.argv)
            rnd.outcomes.append(Outcome(req, time.perf_counter() - t0, result.exit_code, result.stdout))
        if inputs.workload == "interval-models":
            model = ulam_assemble("doubling", 1 << CROSSCHECK_LEVEL)
            exact = dense_exact_matrix(CROSSCHECK_LEVEL)
            rnd.crosscheck_error = float(abs(model.matrix - exact).max())
    rnd.seconds = time.perf_counter() - started
    return rnd


def warm_up(inputs: Inputs, runner: CliRunner, workdir: Path) -> None:
    """One small request per code path the round uses."""
    if inputs.workload in AUDIT_PLAN:
        # small default-generator systems: sampled-generator systems can
        # take a second each in the structural audit
        for family in FAMILIES:
            run_audit(family, inputs.seed, 3)
        return
    if inputs.workload == "classify-scale":
        path = workdir / "warm-up.json"
        path.write_text(json.dumps(classify_system(Rng(inputs.seed, "warm-up"), 4)) + "\n")
        argvs = [["classify", str(path)]]
    else:
        argvs = [
            ["dyadic", "--set", "0:1/4,1/2:5/8", "--kind", "exactness"],
            ["dyadic", "--set", "0:1/4,1/2:5/8", "--kind", "image"],
            ["ulam", "--map", "tent", "--bins", "64", "--matrix-out", str(workdir / "warm-up.csv")],
        ]
    for argv in argvs:
        result = runner.invoke(pfkit_cli, argv)
        if result.exit_code != 0:
            raise RuntimeError(f"warm-up request {argv[0]} exited {result.exit_code}: {result.stdout}")
