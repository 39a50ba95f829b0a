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
from math import lcm
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .dynamics import MeasurePreservingMap
from .errors import ParseError
from .space import FiniteProbabilitySpace, MeasurableSet

SCHEMA_VERSION = "1"

# Atoms per system file, checked before any mass is parsed.  The slowest
# requests at this cap, on a 2-vCPU host: `orbit --steps 100000` on a
# 1,024-atom set, about 140 s and 0.8 GB (extrapolated); `classify --set
# --n-max 1024` on one cycle, 17 s; dense `limit --format json`, 0.65 s.
# Exact numbers are bounded too: see MAX_DENOMINATOR_BITS.
MAX_ATOMS = 1024

# Bits of the common denominator q of a system's masses, checked as it is
# accumulated mass by mass, and of the numerator and denominator of every
# parsed rational, such as `mixing-profile --c`.  Every printed fraction then
# has a numerator and denominator of at most about 2 * 4096 bits (q^2, or
# r * q for a level with denominator r), some 2,470 digits: within
# CPython's 4,300-digit limit on converting an int to text.
MAX_DENOMINATOR_BITS = 4096


def parse_fraction(text: str) -> Fraction:
    """Parse an exact rational written as 'p/q' or 'p'. Floats are refused,
    and so are a numerator or denominator above MAX_DENOMINATOR_BITS bits."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc
    if "." in text or "e" in text.lower():
        raise ParseError(f"masses must be exact rationals, got {text!r}")
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_DENOMINATOR_BITS:
        raise ParseError(f"rationals may have at most {MAX_DENOMINATOR_BITS}-bit numerators and denominators")
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
    if len(atoms) > MAX_ATOMS:
        raise ParseError(f"a system may have at most {MAX_ATOMS} atoms, got {len(atoms)}")
    if not all(isinstance(a, str) for a in atoms):
        raise ParseError("atom labels must be strings")
    masses, q = [], 1
    for text in masses_raw:
        masses.append(parse_fraction(text))
        q = lcm(q, masses[-1].denominator)
        if q.bit_length() > MAX_DENOMINATOR_BITS:
            raise ParseError(f"the common denominator of the masses exceeds {MAX_DENOMINATOR_BITS} bits")
    try:
        space = FiniteProbabilitySpace(tuple(atoms), tuple(masses))
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
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
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
    for i, row in enumerate(matrix.rows):
        for j, value in row:
            writer.writerow([i, j, format_fraction(value)])
