"""File formats: JSON system descriptions and CSV result tables.

A system file carries exact rational masses as strings ("1/2", "0", "3") so
round-trips are lossless.  Loading validates shape before touching the
measure-theoretic invariants; anything structurally wrong raises
ParseError, while a well-formed file describing a non-measure-preserving
map raises NotMeasurePreservingError from the dynamics layer.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .dynamics import MeasurePreservingMap
from .errors import ParseError
from .space import FiniteProbabilitySpace, MeasurableSet

SCHEMA_VERSION = "1"


def parse_fraction(text: str) -> Fraction:
    """Parse an exact rational written as 'p/q' or 'p'. Floats are refused."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc
    if "." in text or "e" in text.lower():
        raise ParseError(f"masses must be exact rationals, got {text!r}")
    return value


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def system_to_dict(
    space: FiniteProbabilitySpace,
    phi: MeasurePreservingMap,
    named_sets: Mapping[str, MeasurableSet] | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "atoms": list(space.atom_labels),
        "masses": [format_fraction(m) for m in space.masses],
        "map": [space.atom_labels[t] for t in phi.targets],
    }
    if named_sets:
        doc["named_sets"] = {
            name: sorted(s.labels()) for name, s in sorted(named_sets.items())
        }
    return doc


def system_from_dict(
    doc: Mapping,
) -> tuple[FiniteProbabilitySpace, MeasurePreservingMap, dict[str, MeasurableSet]]:
    if not isinstance(doc, Mapping):
        raise ParseError("system document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}")
    try:
        atoms, masses_raw, map_raw = doc["atoms"], doc["masses"], doc["map"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from exc
    for name, value in (("atoms", atoms), ("masses", masses_raw), ("map", map_raw)):
        if not isinstance(value, list):
            raise ParseError(f"{name!r} must be a JSON array")
    if len(atoms) != len(masses_raw) or len(atoms) != len(map_raw):
        raise ParseError("atoms, masses and map must have equal length")
    if not all(isinstance(a, str) for a in atoms):
        raise ParseError("atom labels must be strings")
    masses = tuple(parse_fraction(m) for m in masses_raw)
    try:
        space = FiniteProbabilitySpace(tuple(atoms), masses)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    index = {label: i for i, label in enumerate(atoms)}
    targets = []
    for label in map_raw:
        if not isinstance(label, str) or label not in index:
            raise ParseError(f"map target {label!r} is not an atom")
        targets.append(index[label])
    phi = MeasurePreservingMap(space, tuple(targets))

    named_raw = doc.get("named_sets", {})
    if not isinstance(named_raw, Mapping):
        raise ParseError("'named_sets' must be a JSON object")
    named: dict[str, MeasurableSet] = {}
    for name, labels in named_raw.items():
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ParseError(f"named set {name!r} must be an array of atom labels")
        unknown = [l for l in labels if l not in index]
        if unknown:
            raise ParseError(f"named set {name!r} uses unknown atoms {unknown}")
        named[name] = space.set_of(labels)
    return space, phi, named


def load_system(path: str | Path):
    raw = Path(path).read_text()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return system_from_dict(doc)


def save_system(
    path: str | Path,
    space: FiniteProbabilitySpace,
    phi: MeasurePreservingMap,
    named_sets: Mapping[str, MeasurableSet] | None = None,
) -> None:
    doc = system_to_dict(space, phi, named_sets)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def input_digest(path: str | Path) -> str:
    """sha256 of the raw input bytes; reports echo it for provenance."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def bundled_example():
    """The three-atom system with one null atom that ships with the package."""
    with resources.files("pfkit.data").joinpath("three_point.json").open() as fh:
        return system_from_dict(json.load(fh))


# --------------------------------------------------------------------------
# CSV tables


def write_orbit_csv(
    handle: IO[str],
    rows: Iterable[tuple[int, Sequence[str], Fraction, Fraction | None]],
) -> None:
    """Rows of (n, atom labels, measure, distance to limit or None)."""
    writer = csv.writer(handle)
    writer.writerow(["n", "set", "measure", "d_to_limit"])
    for n, labels, measure, dist in rows:
        writer.writerow(
            [
                n,
                "|".join(labels),
                format_fraction(measure),
                "" if dist is None else format_fraction(dist),
            ]
        )


def write_profile_csv(handle: IO[str], defects: Iterable[Fraction]) -> None:
    writer = csv.writer(handle)
    writer.writerow(["n", "defect"])
    for n, d in enumerate(defects):
        writer.writerow([n, format_fraction(d)])


def write_matrix_csv(handle: IO[str], matrix) -> None:
    """Sparse listing of a transition matrix: one row per nonzero entry."""
    writer = csv.writer(handle)
    writer.writerow(["i", "j", "p"])
    for i, row in enumerate(matrix.entries):
        for j, value in enumerate(row):
            if value:
                writer.writerow([i, j, format_fraction(value)])
