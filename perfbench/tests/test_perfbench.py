"""Self-tests of the benchmark: python -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from click.testing import CliRunner  # noqa: E402

SMALL = {
    "AUDIT_PLAN": {
        "audit-exhaustive": {"main": (10, 2), "prop21": (10, 2), "thm22": (10, 2), "lemma23": (10, 2), "structural": (3, 2)},
        "audit-sampled": {"main": (10, 2), "prop21": (10, 2), "thm22": (10, 2), "lemma23": (10, 2), "structural": (2, 1)},
    },
    "CLASSIFY_MIX": ((16, 2), (32, 1)),
    "DYADIC_MIX": (("exactness", 8, 2), ("image", 9, 1)),
    "ULAM_MIX": ((1024, 3, False), (1024, 1, True)),
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def _signature(inputs: workloads.Inputs, workdir: Path) -> list:
    out = []
    for req in inputs.requests:
        argv = [a.replace(str(workdir), "<dir>") for a in req.argv]
        files = [Path(a).read_bytes() for a in req.argv if a.startswith(str(workdir)) and a.endswith(".json")]
        out.append((req.rid, argv, files))
    return out


@pytest.mark.parametrize("workload", ["classify-scale", "interval-models"])
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _signature(workloads.build_inputs(workload, 7, dirs[0]), dirs[0])
    again = _signature(workloads.build_inputs(workload, 7, dirs[1]), dirs[1])
    other = _signature(workloads.build_inputs(workload, 8, dirs[2]), dirs[2])
    assert first == again
    assert first != other


def test_classify_systems_are_measure_preserving():
    from pfkit import system_from_dict

    rng = workloads.Rng(3, "test")
    for d in (1, 2, 5, 16, 33):
        space, phi, _ = system_from_dict(workloads.classify_system(rng, d))
        assert len(space.positive_support) == d


def test_set_level_is_the_coarsest_grid():
    assert workloads.set_level([0, 1, 2, 3], 3) == 1
    assert workloads.set_level([2, 3, 4], 3) == 3
    assert workloads.set_level([0, 1, 4, 5], 3) == 2


def test_audit_calls_use_distinct_seeds_starting_with_the_seed():
    seeds = [workloads.call_seed(20260814, c) for c in range(5)]
    assert seeds[0] == 20260814
    assert len(set(seeds)) == 5


def test_percentile_needs_ten_samples_beyond():
    xs = [float(i) for i in range(40)]
    assert metrics.percentile(xs, 0.75) == pytest.approx(29.25)
    assert metrics.percentile(xs[:20], 0.5) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        metrics.percentile(xs[:37], 0.75)
    with pytest.raises(ValueError):
        metrics.percentile(xs[:19], 0.5)


def _class_of_rank(mix_counts: list[int], rank: int) -> int:
    total = 0
    for i, count in enumerate(mix_counts):
        total += count
        if rank < total:
            return i
    raise IndexError(rank)


def test_classify_percentiles_avoid_size_class_boundaries():
    counts = [n for _, n in workloads.CLASSIFY_MIX]
    n = sum(counts)
    for q in (0.5, 0.75):
        pos = q * (n - 1)
        lo, hi = int(pos), min(int(pos) + 1, n - 1)
        used = [lo] if pos == lo else [lo, hi]
        assert len({_class_of_rank(counts, r) for r in used}) == 1


def test_every_stream_has_enough_samples_for_p75():
    for counts in ([n for _, n in workloads.CLASSIFY_MIX], [n for *_, n in workloads.DYADIC_MIX],
                   [n for _, n, _ in workloads.ULAM_MIX]):
        metrics.percentile([0.0] * sum(counts), 0.75)


def test_reference_covers_the_default_seed_requests(tmp_path):
    reference = checks.load_reference(workloads.DEFAULT_SEED)
    for workload, streams in (("classify-scale", ["classify"]), ("interval-models", ["dyadic", "ulam"])):
        inputs = workloads.build_inputs(workload, workloads.DEFAULT_SEED, tmp_path)
        for stream in streams:
            rids = {r.rid for r in inputs.requests if r.stream == stream}
            assert rids == set(reference[stream])


@pytest.mark.parametrize("workload", ["audit-exhaustive", "classify-scale", "interval-models"])
def test_traced_round_matches_untraced_round(workload, small, tmp_path):
    inputs = workloads.build_inputs(workload, 11, tmp_path)
    runner = CliRunner()
    plain = workloads.run_round(inputs, runner)
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        traced = workloads.run_round(inputs, runner, tracer.span)
    finally:
        tracing.restore(undo)
    assert checks.round_outputs(plain) == checks.round_outputs(traced)
    assert tracer.edges
    layer = metrics.layer_metrics(tracer, 0, 1.0)
    assert set(layer) == {name for name, _ in metrics.PER_LAYER}
    import pfkit.mixing

    assert pfkit.mixing.transfer_operator.__module__ == "pfkit.operators"
    assert not hasattr(pfkit.mixing.transfer_operator, "__wrapped__")


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("outer"):
            pass
    assert tracer.calls == {"inner": 1, "outer": 2}
    assert tracer.self_seconds("outer") <= tracer.inclusive["outer"]
    assert set(tracer.inclusive) == {"inner", "outer"}


@pytest.mark.parametrize("workload", ["audit-exhaustive", "audit-sampled", "classify-scale", "interval-models"])
def test_smoke_run_passes_output_checks(workload, small, tmp_path):
    inputs = workloads.build_inputs(workload, 5, tmp_path)
    workloads.warm_up(inputs, CliRunner(), tmp_path)
    rnd = workloads.run_round(inputs, CliRunner())
    attempted, failed, problems = run.check_round(rnd, inputs, None)
    assert attempted > 0
    assert problems == []


def test_known_prop21_defect_is_counted_not_hidden(monkeypatch, tmp_path):
    plan = {"main": (1, 1), "prop21": (100, 1), "thm22": (1, 1), "lemma23": (1, 1), "structural": (1, 1)}
    monkeypatch.setitem(workloads.AUDIT_PLAN, "audit-sampled", plan)
    inputs = workloads.build_inputs("audit-sampled", workloads.DEFAULT_SEED, tmp_path)
    rnd = workloads.run_round(inputs, CliRunner())
    attempted, failed, problems = run.check_round(rnd, inputs, None)
    prop21 = next(r for r in rnd.families if r.family == "prop21").report
    assert sorted({f.system_index for f in prop21.failures}) == [36, 40, 55, 87]
    assert (attempted, failed, problems) == (104, 4, [])


def test_normalised_time_cancels_host_speed():
    fast = hostspeed.Interval(wall_s=2.0, mean_block_s=hostspeed.REFERENCE_BLOCK_S, blocks=100)
    slow = hostspeed.Interval(wall_s=3.0, mean_block_s=1.5 * hostspeed.REFERENCE_BLOCK_S, blocks=100)
    assert fast.normalised_s == pytest.approx(2.0)
    assert slow.normalised_s == pytest.approx(2.0)


def test_reference_clock_samples_and_restores_the_handler(monkeypatch):
    import signal
    import time

    monkeypatch.setattr(hostspeed, "TICK_S", 0.002)
    before = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.ReferenceClock().start()
    try:
        mark = clock.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        interval = clock.since(mark)
        with pytest.raises(ValueError):
            clock.since(clock.mark())
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert interval.blocks >= hostspeed.MIN_BLOCKS
    assert 0 < interval.wall_s < 0.2


def test_output_checks_fail_visibly(tmp_path):
    inputs = workloads.build_inputs("interval-models", 5, tmp_path)
    req = next(r for r in inputs.requests if r.stream == "dyadic")
    bad = workloads.Outcome(req, 0.0, 0, "n,defect\n0,1/4\n" + "".join(f"{n},1/8\n" for n in range(1, 20)))
    assert checks.check_outcome(bad, None)
    assert checks.check_outcome(workloads.Outcome(req, 0.0, 2, "{}"), None)


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in metrics.END_TO_END]
    assert [m["name"] for m in doc["per_layer"]] == [n for n, _ in metrics.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-scale", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("workload,trace", [("classify-scale", 0), ("interval-models", 1), ("audit-sampled", 1)])
def test_main_prints_the_result_line(workload, trace, small, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "CLASSIFY_MIX", ((4, 40),))  # enough samples for p75
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(hostspeed, "TICK_S", 0.002)  # the reduced rounds are short
    code = run.main(["--workload", workload, "--seed", "99", "--seconds", "0", "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] > 0
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert [(n, m["unit"]) for n, m in last["metrics"].items()] == list(wanted)
