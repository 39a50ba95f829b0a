import csv
import gc
import io
import json

import pytest
from click.testing import CliRunner, _NamedTextIOWrapper

import pfkit
from pfkit import (
    DiagnosticInconsistencyError,
    rank_one_projection,
    save_system,
    three_point_system,
    two_atom_swap,
)
from pfkit import cli, dynamics, operators, systemio
from pfkit.cli import main
from pfkit.dyadic import MAX_LEVEL
from pfkit.ulam import DENSE_MAX_BINS, MAX_BINS, ulam_assemble

from conftest import PRIME_CYCLES, cycle_starts, cycle_system


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def system_file(tmp_path):
    space, phi = three_point_system()
    named = {
        "A1": space.set_of(["1"]),
        "A12": space.set_of(["1", "2"]),
        "A13": space.set_of(["1", "3"]),
    }
    path = tmp_path / "three_point.json"
    save_system(path, space, phi, named)
    return str(path)


@pytest.fixture
def swap_file(tmp_path):
    space, phi = two_atom_swap()
    path = tmp_path / "swap.json"
    save_system(path, space, phi)
    return str(path)


def test_classify(runner, system_file):
    result = runner.invoke(main, ["classify", system_file, "--set", "A1", "--n-max", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["ergodic"] is False
    assert doc["powers_converge"] is True
    assert doc["defects"] == ["1/4", "1/4", "1/4"]
    assert doc["witness"] == {"D": ["1"], "c": "1"}
    assert len(doc["input_digest"]) == 64


def test_classify_default_target(runner, system_file):
    result = runner.invoke(main, ["classify", system_file])
    assert result.exit_code == 0
    assert json.loads(result.output)["defects"][0] == "1/4"


def test_orbit_csv(runner, system_file):
    result = runner.invoke(main, ["orbit", system_file, "--set", "A12"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "n,set,measure,d_to_limit",
        "0,1|2,1/2,1/2",
        "1,1|3,1,0",
        "2,1|3,1,0",
    ]


def test_orbit_labels_as_set_spec(runner, system_file):
    result = runner.invoke(main, ["orbit", system_file, "--set", "1,2", "--steps", "1"])
    assert result.exit_code == 0
    assert "0,1|2,1/2,1/2" in result.output


def test_orbit_backward(runner, system_file):
    result = runner.invoke(
        main, ["orbit", system_file, "--set", "3", "--direction", "backward"]
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[1] == "0,3,1/2,0"
    assert lines[2] == "1,2|3,1/2,0"


def test_limit_json(runner, system_file):
    result = runner.invoke(main, ["limit", system_file])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["converges"] is True
    assert doc["limit"] == [["1", "0"], ["0", "1"]]


def test_limit_csv(runner, system_file):
    result = runner.invoke(main, ["limit", system_file, "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["i,j,p", "0,0,1", "1,1,1"]


def test_limit_csv_without_limit_is_an_error(runner, swap_file):
    result = runner.invoke(main, ["limit", swap_file, "--format", "csv"])
    assert result.exit_code == 2
    doc = json.loads(result.output)
    assert doc["error"]["type"] == "ParseError"


def test_mixing_profile_kinds(runner, system_file):
    base = ["mixing-profile", system_file, "--set", "A1", "--n-max", "1"]
    for extra, rows in [
        ([], ["0,1/4", "1,1/4"]),
        (["--kind", "trace", "--trace", "3"], ["0,1/4", "1,1/4"]),
        (["--kind", "lower", "--trace", "3", "--c", "1/2"], ["0,-1/4", "1,-1/4"]),
        (["--kind", "image"], ["0,1/4", "1,1/4"]),
    ]:
        result = runner.invoke(main, base + extra)
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == ["n,defect"] + rows


def test_mixing_profile_trace_required(runner, system_file):
    result = runner.invoke(
        main, ["mixing-profile", system_file, "--set", "A1", "--kind", "trace"]
    )
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["type"] == "ParseError"


def test_unknown_set_spec(runner, system_file):
    result = runner.invoke(main, ["classify", system_file, "--set", "nope"])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["type"] == "ParseError"


def test_invalid_system_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"atoms": ["a"], "masses": ["1"], "map": ["z"]}))
    result = runner.invoke(main, ["classify", str(bad)])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["type"] == "ParseError"


def test_non_measure_preserving_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"atoms": ["a", "b"], "masses": ["1/2", "1/2"], "map": ["a", "a"]}
        )
    )
    result = runner.invoke(main, ["classify", str(bad)])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["type"] == "NotMeasurePreservingError"


def test_mistyped_system_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    doc = {"atoms": ["a"], "masses": ["1"], "map": ["a"], "named_sets": {"S": 5}}
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["classify", str(bad)])
    assert result.exit_code == 2
    assert result.output.count("\n") == 1
    assert json.loads(result.output)["error"]["type"] == "ParseError"


def test_too_many_atoms_is_an_input_error(runner, tmp_path):
    labels = [f"a{i}" for i in range(systemio.MAX_ATOMS + 1)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"atoms": labels, "masses": ["0"] * len(labels), "map": labels}))
    result = runner.invoke(main, ["limit", str(big)])
    assert result.exit_code == 2
    assert result.output.count("\n") == 1
    error = json.loads(result.output)["error"]
    assert error["type"] == "ParseError"
    assert str(systemio.MAX_ATOMS) in error["message"]


@pytest.mark.parametrize(
    "exc",
    [
        DiagnosticInconsistencyError("routes disagree"),
        IndexError("list index out of range"),
        RuntimeError("unexpected"),
    ],
)
def test_toolkit_defects_exit_3(runner, system_file, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("pfkit.cli.classify", broken)
    result = runner.invoke(main, ["classify", system_file])
    assert result.exit_code == 3
    assert result.output.count("\n") == 1
    error = json.loads(result.output)["error"]
    assert error == {"type": type(exc).__name__, "message": str(exc)}


@pytest.mark.parametrize("command", ["classify", "limit"])
def test_a_non_permutation_transfer_matrix_exits_3(runner, system_file, monkeypatch, command):
    # measure preservation makes every transfer matrix a permutation, so
    # one that is not is a defect of the toolkit, not of the input
    monkeypatch.setattr(operators, "transfer_operator", lambda phi: rank_one_projection(phi.space))
    result = runner.invoke(main, [command, system_file])
    assert result.exit_code == 3
    assert result.output.count("\n") == 1
    error = json.loads(result.output)["error"]
    assert error["type"] == "DiagnosticInconsistencyError"
    assert "not a permutation matrix" in error["message"]


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert pfkit.__version__ in result.output


def test_dyadic_profile(runner):
    result = runner.invoke(main, ["dyadic", "--set", "0:1/4"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "n,defect",
        "0,3/16",
        "1,1/8",
        "2,0",
        "3,0",
        "4,0",
    ]


def test_dyadic_image_profile(runner):
    result = runner.invoke(main, ["dyadic", "--set", "0:1/4", "--kind", "image", "--n-max", "2"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["n,defect", "0,3/4", "1,1/2", "2,0"]


def test_dyadic_rejects_non_dyadic(runner):
    result = runner.invoke(main, ["dyadic", "--set", "0:1/3"])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["type"] == "DyadicValueError"


def test_dyadic_level_above_the_cap(runner):
    result = runner.invoke(main, ["dyadic", "--set", f"0:1/{2 << MAX_LEVEL}"])
    assert result.exit_code == 2
    assert len(result.output.splitlines()) == 1
    assert json.loads(result.output)["error"]["type"] == "DyadicValueError"


def test_ulam_verdicts(runner):
    result = runner.invoke(
        main,
        ["ulam", "--map", "doubling", "--bins", "16", "--target-bins", "0:8", "--n-max", "8"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["verdict"] == "exact-like"

    result = runner.invoke(
        main,
        [
            "ulam",
            "--map",
            "rotation",
            "--bins",
            "16",
            "--alpha",
            "1/4",
            "--target-bins",
            "0:8",
        ],
    )
    assert json.loads(result.output)["verdict"] == "non-mixing"


def test_ulam_matrix_export(runner, tmp_path):
    out = tmp_path / "matrix.csv"
    result = runner.invoke(
        main,
        ["ulam", "--map", "doubling", "--bins", "4", "--matrix-out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,p"
    assert lines[1] == "0,0,0.5"
    assert lines == [
        "i,j,p",
        "0,0,0.5",
        "0,1,0.5",
        "1,2,0.5",
        "1,3,0.5",
        "2,0,0.5",
        "2,1,0.5",
        "3,2,0.5",
        "3,3,0.5",
    ]


def test_ulam_matrix_export_above_the_dense_view_cap(runner, tmp_path):
    bins = DENSE_MAX_BINS + 1
    out = tmp_path / "matrix.csv"
    result = runner.invoke(
        main,
        ["ulam", "--map", "tent", "--bins", str(bins), "--n-max", "4", "--matrix-out", str(out)],
    )
    assert result.exit_code == 0
    model = ulam_assemble("tent", bins)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + model.data.size
    assert lines[1:] == [f"{i},{j},{p!r}" for i, j, p in model.entries()]


@pytest.mark.parametrize(
    ("target", "exit_code"),
    [("-4:2", 0), ("14:99", 0), ("5:3", 2), ("16:20", 2), ("-3:0", 2)],
)
def test_ulam_target_range_is_clipped_to_the_bins(runner, target, exit_code):
    argv = ["ulam", "--map", "doubling", "--bins", "16", "--n-max", "6"]
    result = runner.invoke(main, argv + ["--target-bins", target])
    assert result.exit_code == exit_code
    doc = json.loads(result.output)
    if exit_code:
        assert doc["error"]["type"] == "ParseError"
        return
    lo, hi = (int(x) for x in target.split(":"))
    assert doc["target_bins"] == [lo, hi]
    clipped = runner.invoke(main, argv + ["--target-bins", f"{max(lo, 0)}:{min(hi, 16)}"])
    assert json.loads(clipped.output)["profile"] == doc["profile"]


def test_ulam_bad_bins(runner):
    result = runner.invoke(main, ["ulam", "--map", "doubling", "--bins", "1"])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"]["type"] == "BadBinCountError"


def test_ulam_bins_above_the_cap(runner):
    result = runner.invoke(main, ["ulam", "--map", "doubling", "--bins", str(MAX_BINS + 1)])
    assert result.exit_code == 2
    assert len(result.output.splitlines()) == 1
    assert json.loads(result.output)["error"]["type"] == "BadBinCountError"


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "{system}"],
        ["mixing-profile", "{system}", "--set", "A1"],
        ["dyadic", "--set", "0:1/4"],
        ["ulam", "--map", "doubling", "--bins", "16"],
    ],
    ids=["classify", "mixing-profile", "dyadic", "ulam"],
)
def test_negative_n_max_is_rejected(runner, system_file, args):
    argv = [system_file if a == "{system}" else a for a in args] + ["--n-max", "-1"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert len(result.output.splitlines()) == 1
    assert json.loads(result.output)["error"]["type"] == "ParseError"


def test_negative_orbit_steps_are_rejected(runner, system_file):
    result = runner.invoke(main, ["orbit", system_file, "--set", "A1", "--steps", "-3"])
    assert result.exit_code == 2
    assert len(result.output.splitlines()) == 1
    assert json.loads(result.output)["error"]["type"] == "ParseError"


def test_orbit_above_the_length_cap_is_an_input_error(runner, tmp_path, monkeypatch):
    space, phi = cycle_system(PRIME_CYCLES)
    path = tmp_path / "primes.json"
    save_system(path, space, phi, {"B": space.set_from_bits(cycle_starts(PRIME_CYCLES))})
    monkeypatch.setattr(dynamics, "MAX_ORBIT_LENGTH", 1000)
    result = runner.invoke(main, ["orbit", str(path), "--set", "B"])
    assert result.exit_code == 2
    assert len(result.output.splitlines()) == 1
    error = json.loads(result.output)["error"]
    assert error["type"] == "OrbitTooLongError"
    assert "1000" in error["message"]
    # with --steps the rows come from a plain walk, without a limit distance
    result = runner.invoke(main, ["orbit", str(path), "--set", "B", "--steps", "3"])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [int(r["n"]) for r in rows] == [0, 1, 2, 3]
    assert all(r["d_to_limit"] == "" for r in rows)
    bits = cycle_starts(PRIME_CYCLES)
    for r in rows:
        assert r["set"] == "|".join(sorted(space.set_from_bits(bits).labels()))
        bits = phi.image_bits(bits)


def _refuse(*args, **kwargs):
    raise AssertionError("the cap check must come before any work")


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "{system}"],
        ["mixing-profile", "{system}", "--set", "A1"],
        ["dyadic", "--set", "0:1/4"],
        ["ulam", "--map", "doubling", "--bins", "16"],
    ],
    ids=["classify", "mixing-profile", "dyadic", "ulam"],
)
def test_n_max_above_the_cap(runner, system_file, monkeypatch, args):
    for name in ("load_system", "_parse_dyadic_set"):
        monkeypatch.setattr(cli, name, _refuse)
    monkeypatch.setattr(cli.ul, "ulam_assemble", _refuse)
    argv = [system_file if a == "{system}" else a for a in args]
    result = runner.invoke(main, argv + ["--n-max", str(cli.MAX_N_MAX + 1)])
    assert result.exit_code == 2
    assert len(result.output.splitlines()) == 1
    error = json.loads(result.output)["error"]
    assert error["type"] == "ParseError"
    assert str(cli.MAX_N_MAX) in error["message"]


def test_orbit_steps_above_the_cap(runner, system_file, monkeypatch):
    monkeypatch.setattr(cli, "load_system", _refuse)
    steps = str(cli.MAX_ORBIT_STEPS + 1)
    result = runner.invoke(main, ["orbit", system_file, "--set", "A1", "--steps", steps])
    assert result.exit_code == 2
    assert len(result.output.splitlines()) == 1
    assert json.loads(result.output)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("count", [0, cli.MAX_AUDIT_COUNT + 1])
def test_audit_count_outside_its_range(runner, monkeypatch, count):
    monkeypatch.setattr(cli, "run_audit", _refuse)
    result = runner.invoke(main, ["audit", "--count", str(count), "--jobs", "4"])
    assert result.exit_code == 2
    assert len(result.output.splitlines()) == 1
    assert json.loads(result.output)["error"]["type"] == "ParseError"


def test_defaults_sit_inside_the_caps(runner, system_file):
    argv = ["mixing-profile", system_file, "--set", "A1", "--n-max", str(cli.MAX_N_MAX)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == cli.MAX_N_MAX + 2
    for command in (cli.classify_cmd, cli.mixing_profile_cmd, cli.ulam_cmd):
        default = next(p.default for p in command.params if p.name == "n_max")
        assert 0 <= default <= cli.MAX_N_MAX
    count = next(p.default for p in cli.audit_cmd.params if p.name == "count")
    assert 1 <= count <= cli.MAX_AUDIT_COUNT


def _live_stdout_wrappers() -> int:
    gc.collect()
    return sum(isinstance(o, _NamedTextIOWrapper) for o in gc.get_objects())


def test_requests_do_not_keep_their_streams_alive(runner, system_file):
    # CliRunner gives every request a fresh sys.stdout; none may outlive it
    runner.invoke(main, ["classify", system_file])
    before = _live_stdout_wrappers()
    for _ in range(20):
        assert runner.invoke(main, ["classify", system_file]).exit_code == 0
    assert _live_stdout_wrappers() <= before


def test_audit_command(runner):
    result = runner.invoke(main, ["audit", "--theorem", "main", "--count", "20", "--seed", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["theorem"] == "main"
    assert doc["seed"] == 3
    assert doc["count"] == 20
    assert doc["failures"] == []
    assert "elapsed_ms" in doc


def test_audit_seed_from_environment(runner):
    result = runner.invoke(
        main,
        ["audit", "--theorem", "main", "--count", "5"],
        env={"PFKIT_SEED": "77"},
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["seed"] == 77


def test_audit_out_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["audit", "--theorem", "thm22", "--count", "10", "--seed", "1", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text())["theorem"] == "thm22"


def test_orbit_out_file(runner, system_file, tmp_path):
    out = tmp_path / "orbit.csv"
    result = runner.invoke(
        main, ["orbit", system_file, "--set", "A12", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert out.read_text().startswith("n,set,measure,d_to_limit")
