"""Metric names, units and the arithmetic that turns rounds into metrics."""

from __future__ import annotations

import math
import statistics

from tracing import Tracer
from workloads import FAMILIES, Round

MIN_TAIL = 10  # samples that must lie beyond a reported percentile

# Reported on every workload; these are the metrics BENCHMARK.json bounds.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Traced runs report all of these on every workload, 0 where a layer is unused.
# A `_s` metric is inclusive time of the outermost spans of that name, `.self_s`
# is span time minus child spans, `_calls` counts spans, `_computed` values
# are derived from array sizes.
PER_LAYER = (
    ("operators.apply_s", "s"), ("operators.apply_calls", "count"),
    ("space.density_s", "s"), ("space.density_calls", "count"),
    ("operators.transfer_operator_s", "s"), ("operators.koopman_operator_s", "s"),
    ("operators.adjoint_s", "s"), ("operators.is_bimarkov_s", "s"),
    ("operators.power_sequence_s", "s"), ("operators.density_power_sequence_s", "s"),
    ("operators.conditional_expectation_s", "s"),
    ("operators.fixed_space_dimension_s", "s"), ("mixing.is_ergodic_s", "s"),
    ("mixing.uniform_mixing_defect_s", "s"),
    ("mixing.trace_mixing_defect_s", "s"), ("mixing.image_mixing_defect_s", "s"),
    ("mixing.lower_bound_defect_s", "s"), ("mixing.lower_bound_witness_s", "s"),
    ("mixing.is_mixing_s", "s"), ("mixing.is_exact_s", "s"),
    ("dynamics.set_orbit_s", "s"), ("dynamics.set_orbit_calls", "count"),
    ("dynamics.minimal_invariant_superset_s", "s"),
    ("dynamics.map_init_s", "s"), ("dynamics.invariant_algebra_s", "s"), ("dynamics.tail_algebra_s", "s"),
    ("audit.generate_s", "s"),
    *((f"audit.{f}.self_s", "s") for f in FAMILIES),
    ("audit.systems_failed", "count"),
    ("systemio.load_system_s", "s"), ("systemio.input_digest_s", "s"), ("cli.classify.self_s", "s"),
    ("cli.dyadic.self_s", "s"), ("dyadic.from_pairs_s", "s"),
    ("dyadic.exactness_profile_s", "s"), ("dyadic.image_defect_s", "s"),
    ("dyadic.image_calls", "count"), ("dyadic.transfer_calls", "count"), ("dyadic.transition_matrix_s", "s"),
    ("ulam.assemble_s", "s"), ("ulam.mixing_profile_s", "s"),
    ("ulam.matrix_bytes_computed", "bytes"), ("ulam.profile_flops_computed", "flop"),
    ("cli.ulam.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated q-quantile, refused unless MIN_TAIL samples lie beyond it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    beyond = len(xs) - 1 - lo
    if beyond < MIN_TAIL:
        raise ValueError(f"p{round(q * 100)} of {len(xs)} samples has only {beyond} beyond it")
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def workload_metrics(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """The named end-to-end metrics of the workload, as (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    if rounds[0].families:
        for family in FAMILIES:
            systems = sum(run.count for run in rounds[0].families if run.family == family)
            seconds = statistics.median(
                sum(run.seconds for run in r.families if run.family == family) for r in rounds
            )
            out[f"{family}_systems_per_s"] = (systems / seconds, "systems/s")
        return out
    for stream in ("classify", "dyadic", "ulam"):
        samples = [o.seconds * 1000 for r in rounds for o in r.outcomes if o.request.stream == stream]
        if samples:
            out[f"{stream}_p50_ms"] = (percentile(samples, 0.50), "ms")
            out[f"{stream}_p75_ms"] = (percentile(samples, 0.75), "ms")
            out[f"{stream}_samples"] = (len(samples), "count")
    return out


def layer_metrics(tracer: Tracer, systems_failed: int, overhead_ratio: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = tracer.self_seconds(name[: -len(".self_s")])
        elif name.endswith("_calls"):
            out[name] = tracer.calls.get(name[: -len("_calls")], 0)
        elif name.endswith("_computed"):
            out[name] = tracer.counters.get(name, 0)
        elif name.endswith("_s"):
            out[name] = tracer.inclusive.get(name[: -len("_s")], 0.0)
    out["audit.systems_failed"] = systems_failed
    out["trace.overhead_ratio"] = overhead_ratio
    return out
