"""Output checks: reference outputs at the default seed, invariants at any seed.

Each check returns a list of problems; an empty list means the output is
correct.  classify and dyadic print exact rationals, so at the default seed
their stdout must match the recorded reference byte for byte.  Ulam
profiles are floats: they must match to within ULAM_TOLERANCE with the same
verdict, since a correct program may sum in another order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

from workloads import DEFAULT_SEED, Outcome, Round, audit_generator

REFERENCE = Path(__file__).resolve().parent / "reference" / "outputs.json"
ULAM_TOLERANCE = 1e-12
CROSSCHECK_TOLERANCE = 1e-12
ROW_SUM_TOLERANCE = 1e-9

# The sampled witness route of the prop21 audit treats "every sampled set
# of positive mass contains a full cycle" as convergence; systems with many
# fixed points pass that test although their powers diverge.  The audit
# reports each such system itself.  These failures count as failed ops and
# in error_rate; every other audit failure makes the run incorrect.
KNOWN_DEFECT = ("prop21", "witness-route", "cycle-route=True powers=False")


def load_reference(seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())


def _flags_consistent(doc: dict) -> bool:
    return (not doc["exact"] or doc["mixing"]) and (not doc["mixing"] or doc["ergodic"])


def check_classify(outcome: Outcome, reference: dict | None) -> list[str]:
    req = outcome.request
    doc = json.loads(outcome.stdout)
    problems = []
    if not _flags_consistent(doc):
        problems.append(f"{req.rid}: flags break exact => mixing => ergodic: {doc}")
    digest = hashlib.sha256(Path(req.argv[-1]).read_bytes()).hexdigest()
    if doc["input_digest"] != digest:
        problems.append(f"{req.rid}: input_digest does not match the file")
    if reference is not None and outcome.stdout != reference["classify"].get(req.rid):
        problems.append(f"{req.rid}: stdout differs from the reference")
    return problems


def _profile_csv(text: str) -> list[Fraction]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["n", "defect"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return [Fraction(value) for _, value in rows[1:]]


def check_dyadic(outcome: Outcome, reference: dict | None) -> list[str]:
    req = outcome.request
    defects = _profile_csv(outcome.stdout)
    level = req.meta["set_level"]
    problems = []
    if len(defects) != level + 3:
        problems.append(f"{req.rid}: expected {level + 3} defects, got {len(defects)}")
    if any(d != 0 for d in defects[level:]):
        problems.append(f"{req.rid}: defect nonzero at or after the set level {level}")
    if reference is not None and outcome.stdout != reference["dyadic"].get(req.rid):
        problems.append(f"{req.rid}: stdout differs from the reference")
    return problems


def _check_matrix_csv(path: Path, bins: int) -> list[str]:
    sums = [0.0] * bins
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        if next(reader) != ["i", "j", "p"]:
            return [f"{path.name}: unexpected header"]
        for i, _, p in reader:
            sums[int(i)] += float(p)
    bad = [i for i, s in enumerate(sums) if abs(s - 1.0) > ROW_SUM_TOLERANCE]
    return [f"{path.name}: row {bad[0]} sums to {sums[bad[0]]!r}"] if bad else []


def check_ulam(outcome: Outcome, reference: dict | None) -> list[str]:
    req = outcome.request
    doc = json.loads(outcome.stdout)
    problems = []
    if len(doc["profile"]) != int(req.argv[req.argv.index("--n-max") + 1]) + 1:
        problems.append(f"{req.rid}: profile has {len(doc['profile'])} entries")
    if req.meta["map"] == "rotation" and doc["verdict"] != "non-mixing":
        problems.append(f"{req.rid}: rotation verdict {doc['verdict']!r}")
    if "matrix_out" in req.meta:
        problems += _check_matrix_csv(Path(req.meta["matrix_out"]), req.meta["bins"])
    if reference is not None:
        ref = reference["ulam"].get(req.rid)
        if ref is None:
            problems.append(f"{req.rid}: no reference output")
        elif doc["verdict"] != ref["verdict"] or len(doc["profile"]) != len(ref["profile"]):
            problems.append(f"{req.rid}: verdict or length differs from the reference")
        else:
            worst = max(abs(a - b) for a, b in zip(doc["profile"], ref["profile"]))
            if worst > ULAM_TOLERANCE:
                problems.append(f"{req.rid}: profile differs from the reference by {worst!r}")
    return problems


CLI_CHECKS = {"classify": check_classify, "dyadic": check_dyadic, "ulam": check_ulam}


def check_outcome(outcome: Outcome, reference: dict | None) -> list[str]:
    if outcome.exit_code != 0:
        return [f"{outcome.request.rid}: exit code {outcome.exit_code}: {outcome.stdout.strip()[:200]}"]
    try:
        return CLI_CHECKS[outcome.request.stream](outcome, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{outcome.request.rid}: malformed output ({exc!r})"]


def audit_failed_systems(rnd: Round, workload: str, atom_limit: int) -> tuple[int, list[str]]:
    """Systems with a failure, and problems other than the known defect."""
    failed = 0
    problems = []
    for run in rnd.families:
        report = run.report
        if (report.theorem, report.seed, report.count) != (run.family, run.seed, run.count):
            problems.append(f"{run.family}: report header {report.theorem}/{report.seed}/{report.count}")
        systems = {f.system_index for f in report.failures}
        failed += len(systems)
        generator = audit_generator(workload, run.seed)
        for f in report.failures:
            known = (run.family, f.check, f.detail) == KNOWN_DEFECT
            if not known or generator.system(f.system_index)[0].atom_count <= atom_limit:
                problems.append(f"{run.family} seed {run.seed}: system {f.system_index} {f.check}: {f.detail}")
    return failed, problems


def round_outputs(rnd: Round) -> list[str]:
    """The round's outputs in a form two rounds can be compared by."""
    if rnd.families:
        return [run.report.canonical_json() for run in rnd.families]
    return [o.stdout for o in rnd.outcomes] + [repr(rnd.crosscheck_error)]


def check_crosscheck(rnd: Round) -> list[str]:
    if rnd.crosscheck_error is None or rnd.crosscheck_error <= CROSSCHECK_TOLERANCE:
        return []
    return [f"doubling Ulam matrix differs from dense_exact_matrix by {rnd.crosscheck_error!r}"]


def record_reference(rnd: Round, seed: int) -> dict:
    out: dict = {"seed": seed, "classify": {}, "dyadic": {}, "ulam": {}}
    for o in rnd.outcomes:
        if o.request.stream == "ulam":
            doc = json.loads(o.stdout)
            out["ulam"][o.request.rid] = {"verdict": doc["verdict"], "profile": doc["profile"]}
        else:
            out[o.request.stream][o.request.rid] = o.stdout
    return out
