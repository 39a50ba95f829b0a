"""Command line front end.

Results go to stdout as JSON or CSV.  An audit that finds failures exits
1 so shell pipelines can gate on it; invalid input exits 2 and a defect of
the toolkit itself exits 3, both with a one-line JSON error object.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import click

from . import __version__
from . import dyadic as dy
from . import ulam as ul
from .audit import AUDIT_NAMES, run_audit
from .dynamics import set_orbit
from .errors import DiagnosticInconsistencyError, OrbitTooLongError, ParseError, PfkitError
from .mixing import classify, image_mixing_defect, lower_bound_defect, trace_mixing_defect, uniform_mixing_defect
from .operators import transfer_powers
from .space import class_distance
from .systemio import (
    SCHEMA_VERSION,
    format_fraction,
    input_digest,
    load_system,
    parse_fraction,
    write_matrix_csv,
    write_orbit_csv,
    write_profile_csv,
)


def _echo(text: str) -> None:
    # An explicit file: click.echo(text) alone caches each new sys.stdout in a
    # WeakKeyDictionary whose value refers back to its key, so a caller that
    # swaps sys.stdout per request (CliRunner) would keep every stream alive.
    click.echo(text, file=sys.stdout)


def _echo_json(doc: dict) -> None:
    _echo(json.dumps(doc))


def _fail(exc: Exception, code: int) -> None:
    _echo_json(
        {
            "schema_version": SCHEMA_VERSION,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
    )
    sys.exit(code)


def guarded(fn):
    """Exit 2 for bad input and 3 for a defect of the toolkit itself."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DiagnosticInconsistencyError as exc:
            _fail(exc, 3)
        except (PfkitError, OSError, ValueError) as exc:
            _fail(exc, 2)
        except Exception as exc:
            _fail(exc, 3)

    return wrapper


def _resolve_set(space, named, spec: str):
    """A set argument is either the name of a named set from the system
    file or a comma-separated list of atom labels."""
    if spec in named:
        return named[spec]
    labels = [part.strip() for part in spec.split(",") if part.strip()]
    known = set(space.atom_labels)
    unknown = [l for l in labels if l not in known]
    if unknown:
        raise ParseError(f"unknown atoms {unknown}; named sets: {sorted(named)}")
    return space.set_of(labels)


# Caps on the options that set how much work one request does.  Each is
# checked before the input is read or anything is allocated; a value
# outside its range exits 2.
MAX_N_MAX = 1024  # profile steps: --n-max of classify, mixing-profile, dyadic, ulam
MAX_ORBIT_STEPS = 100_000  # rows of orbit --steps
MAX_AUDIT_COUNT = 100_000  # generated systems of audit --count


def _check_range(option: str, value: int | None, low: int, high: int) -> None:
    if value is not None and not low <= value <= high:
        raise ParseError(f"{option} must lie in {low}..{high}, got {value}")


@contextmanager
def _output(out: str | None):
    """The file named by --out, closed afterwards, or stdout when unset."""
    if not out:
        yield sys.stdout
        return
    with Path(out).open("w", newline="") as handle:
        yield handle


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Exact convergence diagnostics for finite measure-preserving systems."""


@main.command("classify")
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "set_spec", default=None, help="Target set for the defect profile.")
@click.option("--n-max", default=8, show_default=True, help=f"Profile length, 0 to {MAX_N_MAX}.")
@guarded
def classify_cmd(system_file: str, set_spec: str | None, n_max: int) -> None:
    """Full convergence classification of a system file."""
    _check_range("--n-max", n_max, 0, MAX_N_MAX)
    space, phi, named = load_system(system_file)
    target = _resolve_set(space, named, set_spec) if set_spec else None
    profile = classify(phi, profile_set=target, n_max=n_max)
    witness = None
    if profile.witness is not None:
        d_set, c = profile.witness
        witness = {"D": sorted(d_set.labels()), "c": format_fraction(c)}
    _echo_json(
        {
            "schema_version": SCHEMA_VERSION,
            "input_digest": input_digest(system_file),
            "ergodic": profile.ergodic,
            "mixing": profile.mixing,
            "exact": profile.exact,
            "powers_converge": profile.powers_converge,
            "defects": [format_fraction(d) for d in profile.defects],
            "witness": witness,
        }
    )


@main.command("orbit")
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "set_spec", required=True, help="Starting set.")
@click.option(
    "--direction",
    type=click.Choice(["forward", "backward"]),
    default="forward",
    show_default=True,
)
@click.option("--steps", default=None, type=int, help=f"Rows to emit, up to {MAX_ORBIT_STEPS}; default one cycle.")
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@guarded
def orbit_cmd(system_file: str, set_spec: str, direction: str, steps: int | None, out: str | None) -> None:
    """Tabulate the forward or backward orbit of a set as CSV."""
    _check_range("--steps", steps, 0, MAX_ORBIT_STEPS)
    space, phi, named = load_system(system_file)
    start = _resolve_set(space, named, set_spec)
    try:
        report = set_orbit(phi, start, direction=direction)
    except OrbitTooLongError:
        if steps is None:
            raise
        report = None  # no cycle found, so no limit to measure against
    total = steps if steps is not None else report.preperiod + report.period
    limit = report.limit_class if report is not None else None
    step = phi.image_bits if direction == "forward" else phi.preimage_bits
    rows, bits = [], start.bits
    for n in range(total + 1):
        s = space.set_from_bits(bits)
        dist = None if limit is None else class_distance(s.algebra_class(), limit)
        rows.append((n, sorted(s.labels()), s.measure, dist))
        bits = step(bits)
    with _output(out) as handle:
        write_orbit_csv(handle, rows)


@main.command("limit")
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@guarded
def limit_cmd(system_file: str, fmt: str, out: str | None) -> None:
    """Power limit of the transfer operator, if it exists."""
    space, phi, _ = load_system(system_file)
    _, report = transfer_powers(phi)
    if fmt == "csv":
        if report.limit is None:
            raise ParseError("powers do not converge; no limit matrix to export")
        with _output(out) as handle:
            write_matrix_csv(handle, report.limit)
        return
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input_digest": input_digest(system_file),
        "converges": report.converges,
        "preperiod": report.preperiod,
        "period": report.period,
        "limit": None
        if report.limit is None
        else [[format_fraction(v) for v in row] for row in report.limit.entries],
    }
    _echo_json(doc)


@main.command("mixing-profile")
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "set_spec", required=True, help="Target set B.")
@click.option(
    "--kind",
    type=click.Choice(["uniform", "trace", "lower", "image"]),
    default="uniform",
    show_default=True,
)
@click.option("--trace", "trace_spec", default=None, help="Trace set D (trace/lower kinds).")
@click.option("--c", "c_text", default="1", show_default=True, help="Lower-bound level c.")
@click.option("--n-max", default=8, show_default=True, help=f"0 to {MAX_N_MAX}.")
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@guarded
def mixing_profile_cmd(
    system_file: str,
    set_spec: str,
    kind: str,
    trace_spec: str | None,
    c_text: str,
    n_max: int,
    out: str | None,
) -> None:
    """Defect sequence n=0..n_max for a target set, as CSV."""
    _check_range("--n-max", n_max, 0, MAX_N_MAX)
    space, phi, named = load_system(system_file)
    b = _resolve_set(space, named, set_spec)
    if kind in ("trace", "lower"):
        if trace_spec is None:
            raise ParseError(f"--trace is required for kind {kind!r}")
        d = _resolve_set(space, named, trace_spec)
    if kind == "uniform":
        defects = [uniform_mixing_defect(phi, b, n) for n in range(n_max + 1)]
    elif kind == "trace":
        defects = [trace_mixing_defect(phi, b, d, n) for n in range(n_max + 1)]
    elif kind == "lower":
        c = parse_fraction(c_text)
        defects = [lower_bound_defect(phi, b, d, c, n) for n in range(n_max + 1)]
    else:
        defects = [image_mixing_defect(phi, b, n) for n in range(n_max + 1)]
    with _output(out) as handle:
        write_profile_csv(handle, defects)


def _parse_dyadic_set(text: str) -> dy.DyadicSet:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ParseError(f"interval {chunk!r} must look like lo:hi")
        lo_text, hi_text = chunk.split(":", 1)
        pairs.append((parse_fraction(lo_text), parse_fraction(hi_text)))
    if not pairs:
        raise ParseError("no intervals given")
    return dy.DyadicSet.from_pairs(pairs)


@main.command("dyadic")
@click.option(
    "--set",
    "set_spec",
    required=True,
    help=f"Dyadic intervals with denominators up to 2^{dy.MAX_LEVEL}, e.g. 0:1/4,1/2:5/8.",
)
@click.option(
    "--kind",
    type=click.Choice(["exactness", "image"]),
    default="exactness",
    show_default=True,
)
@click.option("--n-max", default=None, type=int, help=f"0 to {MAX_N_MAX}; default set level + 2.")
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@guarded
def dyadic_cmd(set_spec: str, kind: str, n_max: int | None, out: str | None) -> None:
    """Exact defect profile of a dyadic target under the doubling map."""
    _check_range("--n-max", n_max, 0, MAX_N_MAX)
    target = _parse_dyadic_set(set_spec)
    steps = n_max if n_max is not None else target.level + 2
    if kind == "exactness":
        defects = dy.exactness_profile(target, steps)
    else:
        defects = [dy.image_defect(target, n) for n in range(steps + 1)]
    with _output(out) as handle:
        write_profile_csv(handle, defects)


@main.command("ulam")
@click.option("--map", "kind", type=click.Choice(["doubling", "tent", "rotation"]), required=True)
@click.option("--bins", required=True, type=int, help=f"Bin count, 2 to {ul.MAX_BINS}.")
@click.option("--alpha", default=None, help="Rotation angle as a rational, e.g. 1/3.")
@click.option("--target-bins", default=None, help="Half-open bin range lo:hi for the profile target.")
@click.option("--n-max", default=64, show_default=True, help=f"0 to {MAX_N_MAX}.")
@click.option("--tol", default=1e-9, show_default=True, help="Finite and positive.")
@click.option("--matrix-out", default=None, type=click.Path(dir_okay=False))
@guarded
def ulam_cmd(
    kind: str,
    bins: int,
    alpha: str | None,
    target_bins: str | None,
    n_max: int,
    tol: float,
    matrix_out: str | None,
) -> None:
    """Assemble a bin-transition matrix and report its mixing verdict."""
    _check_range("--n-max", n_max, 0, MAX_N_MAX)
    if not (math.isfinite(tol) and tol > 0):
        raise ParseError(f"--tol must be finite and positive, got {tol}")
    alpha_value = parse_fraction(alpha) if alpha is not None else None
    model = ul.ulam_assemble(kind, bins, alpha=alpha_value)
    if target_bins is None:
        lo, hi = 0, max(1, bins // 2)
    else:
        if ":" not in target_bins:
            raise ParseError("--target-bins must look like lo:hi")
        lo_text, hi_text = target_bins.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    b = range(max(lo, 0), min(hi, bins))
    if not b:
        raise ParseError("empty target bin range")
    profile, verdict = ul.mixing_profile(model, b, n_max=n_max, tol=tol)
    if matrix_out is not None:
        with Path(matrix_out).open("w", newline="") as handle:
            handle.write("i,j,p\n")
            handle.writelines(f"{i},{j},{p!r}\n" for i, j, p in model.entries())
    _echo_json(
        {
            "schema_version": SCHEMA_VERSION,
            "map": kind,
            "bins": bins,
            "alpha": alpha,
            "target_bins": [lo, hi],
            "verdict": verdict,
            "profile": [float(x) for x in profile],
        }
    )


@main.command("audit")
@click.option("--theorem", type=click.Choice(list(AUDIT_NAMES)), default="all", show_default=True)
@click.option("--count", default=100, show_default=True, help=f"1 to {MAX_AUDIT_COUNT}.")
@click.option(
    "--seed",
    default=0,
    show_default=True,
    envvar="PFKIT_SEED",
    help="Defaults to the PFKIT_SEED environment variable when set.",
)
@click.option(
    "--jobs",
    default=1,
    show_default=True,
    help="Worker processes, clamped to [1, min(count, cpu count)].",
)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@guarded
def audit_cmd(theorem: str, count: int, seed: int, jobs: int, out: str | None) -> None:
    """Cross-check the convergence equivalences on generated systems."""
    _check_range("--count", count, 1, MAX_AUDIT_COUNT)
    report = run_audit(theorem, seed, count, jobs=jobs)
    text = json.dumps(report.to_dict())
    if out:
        Path(out).write_text(text + "\n")
    _echo(text)
    if not report.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
