#!/usr/bin/env python3
"""Record the outputs the benchmark compares against at the default seed.

    python3 perfbench/record_reference.py

Run it only in a change that intentionally alters the output of
`pfkit classify`, `pfkit dyadic` or `pfkit ulam`, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_pfkit()
    from click.testing import CliRunner

    import checks
    import workloads

    workdir = run.WORK / "record-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcomes = []
        for workload in ("classify-scale", "interval-models"):
            inputs = workloads.build_inputs(workload, workloads.DEFAULT_SEED, workdir)
            rnd = workloads.run_round(inputs, CliRunner())
            problems = [p for o in rnd.outcomes for p in checks.check_outcome(o, None)]
            problems += checks.check_crosscheck(rnd)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            outcomes += rnd.outcomes
        doc = checks.record_reference(workloads.Round(0.0, outcomes), workloads.DEFAULT_SEED)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE.parent.mkdir(exist_ok=True)
    checks.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
