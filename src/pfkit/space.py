"""Finite probability spaces, measurable sets, and the measure algebra.

Atoms are labelled points with exact rational masses.  Every subset of the
atom set is measurable, so sets are stored as bitmasks over atom indices.
Null atoms (mass zero) are permitted and matter: two sets are identified in
the measure algebra exactly when they differ by null atoms, and the metric
d(A, B) = mu(A symdiff B) sees only the positive part.

All arithmetic is exact; no floats enter this module.  Set measures are
summed as integer numerators over `common_denominator` (`mass_bits`), while
masses, measures, distances and density values are `fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import NegativeDensityError, SpaceMismatchError

ZERO = Fraction(0)
ONE = Fraction(1)


def bit_indices(bits: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative int, increasing."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class FiniteProbabilitySpace:
    """A finite set of labelled atoms with rational masses summing to one."""

    atom_labels: tuple[str, ...]
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.atom_labels) == 0:
            raise ValueError("a probability space needs at least one atom")
        if len(self.atom_labels) != len(self.masses):
            raise ValueError("label and mass counts differ")
        if len(set(self.atom_labels)) != len(self.atom_labels):
            raise ValueError("atom labels must be distinct")
        for label, m in zip(self.atom_labels, self.masses):
            if not isinstance(m, Fraction):
                raise TypeError(f"atom {label!r}: mass must be a Fraction")
            if m < 0:
                raise ValueError(f"atom {label!r}: negative mass {m}")
        total, q = sum(self.integer_masses), self.common_denominator
        if total != q:  # all-zero masses fail here too
            raise ValueError(f"masses sum to {Fraction(total, q)}, expected 1")

    @classmethod
    def from_masses(
        cls, masses: Iterable[Fraction | int | str], labels: Sequence[str] | None = None
    ) -> "FiniteProbabilitySpace":
        ms = tuple(Fraction(m) for m in masses)
        if labels is None:
            labels = tuple(str(i) for i in range(len(ms)))
        return cls(tuple(labels), ms)

    @property
    def atom_count(self) -> int:
        return len(self.atom_labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.atom_count) - 1

    @cached_property
    def positive_support(self) -> tuple[int, ...]:
        """Indices of atoms with strictly positive mass, in atom order."""
        return tuple(i for i, m in enumerate(self.masses) if m > 0)

    @cached_property
    def positive_mask(self) -> int:
        return sum(1 << i for i in self.positive_support)

    @cached_property
    def positive_index(self) -> dict[int, int]:
        """Map atom index -> position in the positive-atom ordering."""
        return {a: k for k, a in enumerate(self.positive_support)}

    @cached_property
    def common_denominator(self) -> int:
        return lcm(*(m.denominator for m in self.masses))

    @cached_property
    def integer_masses(self) -> tuple[int, ...]:
        """Masses as integer numerators over `common_denominator`."""
        q = self.common_denominator
        return tuple(m.numerator * (q // m.denominator) for m in self.masses)

    def atom_index(self, label: str) -> int:
        try:
            return self.atom_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown atom label {label!r}") from None

    def mass_bits(self, bits: int) -> int:
        """Mass of the atoms in `bits`, as a numerator over `common_denominator`."""
        masses = self.integer_masses
        total = 0
        while bits:
            low = bits & -bits
            total += masses[low.bit_length() - 1]
            bits ^= low
        return total

    def measure_bits(self, bits: int) -> Fraction:
        return Fraction(self.mass_bits(bits), self.common_denominator)

    def full_set(self) -> "MeasurableSet":
        return MeasurableSet(self, self.full_mask)

    def set_of(self, labels: Iterable[str]) -> "MeasurableSet":
        return self.set_from_indices(self.atom_index(lab) for lab in labels)

    def set_from_indices(self, indices: Iterable[int]) -> "MeasurableSet":
        bits = 0
        for i in indices:
            if not 0 <= i < self.atom_count:
                raise IndexError(f"atom index {i} out of range")
            bits |= 1 << i
        return MeasurableSet(self, bits)

    def set_from_bits(self, bits: int) -> "MeasurableSet":
        return MeasurableSet(self, bits)

    def _require_same(self, other: "FiniteProbabilitySpace") -> None:
        if self is not other and self != other:
            raise SpaceMismatchError("objects belong to different spaces")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{l}:{m}" for l, m in zip(self.atom_labels, self.masses))
        return f"FiniteProbabilitySpace({pairs})"


@dataclass(frozen=True)
class MeasurableSet:
    """A literal subset of the atoms, independent of null-set identification."""

    space: FiniteProbabilitySpace
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits > self.space.full_mask:
            raise ValueError("bitmask outside the atom range")

    def _check(self, other: "MeasurableSet") -> None:
        self.space._require_same(other.space)

    def __or__(self, other: "MeasurableSet") -> "MeasurableSet":
        self._check(other)
        return MeasurableSet(self.space, self.bits | other.bits)

    def __and__(self, other: "MeasurableSet") -> "MeasurableSet":
        self._check(other)
        return MeasurableSet(self.space, self.bits & other.bits)

    def __sub__(self, other: "MeasurableSet") -> "MeasurableSet":
        self._check(other)
        return MeasurableSet(self.space, self.bits & ~other.bits)

    def __xor__(self, other: "MeasurableSet") -> "MeasurableSet":
        self._check(other)
        return MeasurableSet(self.space, self.bits ^ other.bits)

    def atoms(self) -> Iterator[int]:
        return bit_indices(self.bits)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.atom_labels[i] for i in self.atoms())

    @property
    def measure(self) -> Fraction:
        return self.space.measure_bits(self.bits)

    def algebra_class(self) -> "MeasureAlgebraClass":
        return MeasureAlgebraClass(self.space, self.bits & self.space.positive_mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{" + ",".join(self.labels()) + "}"


@dataclass(frozen=True)
class MeasureAlgebraClass:
    """An equivalence class of sets modulo null sets.

    The canonical representative is the intersection with the positive
    support, so two literal sets land in the same class exactly when their
    symmetric difference is null.
    """

    space: FiniteProbabilitySpace
    canonical_bits: int

    def __post_init__(self) -> None:
        if self.canonical_bits & ~self.space.positive_mask:
            raise ValueError("canonical representative contains null atoms")

    def representative(self) -> MeasurableSet:
        return MeasurableSet(self.space, self.canonical_bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "cls" + repr(self.representative())


def class_distance(a: MeasureAlgebraClass, b: MeasureAlgebraClass) -> Fraction:
    a.space._require_same(b.space)
    return a.space.measure_bits(a.canonical_bits ^ b.canonical_bits)


@dataclass(frozen=True)
class Density:
    """An L1 element: rational values indexed by the positive atoms.

    Null atoms carry no L1 information, so densities are vectors over the
    positive support only.  Integration weights each value by its atom mass.
    """

    space: FiniteProbabilitySpace
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.space.positive_support):
            raise ValueError("density length must match the positive support")
        for v in self.values:
            if not isinstance(v, Fraction):
                raise TypeError("density values must be Fractions")

    def _check(self, other: "Density") -> None:
        self.space._require_same(other.space)

    def __add__(self, other: "Density") -> "Density":
        self._check(other)
        return Density(self.space, tuple(x + y for x, y in zip(self.values, other.values)))

    def __sub__(self, other: "Density") -> "Density":
        self._check(other)
        return Density(self.space, tuple(x - y for x, y in zip(self.values, other.values)))

    def scale(self, c: Fraction | int) -> "Density":
        c = Fraction(c)
        return Density(self.space, tuple(c * x for x in self.values))

    def integral(self) -> Fraction:
        w = self.space.masses
        pos = self.space.positive_support
        return sum((self.values[k] * w[a] for k, a in enumerate(pos)), ZERO)

    def integral_over(self, a: MeasurableSet) -> Fraction:
        """Integral of the density over a literal set (null atoms ignored)."""
        self.space._require_same(a.space)
        w = self.space.masses
        total = ZERO
        for k, atom in enumerate(self.space.positive_support):
            if a.bits >> atom & 1:
                total += self.values[k] * w[atom]
        return total

    def positive_part(self) -> "Density":
        return Density(self.space, tuple(v if v > 0 else ZERO for v in self.values))

    def negative_part(self) -> "Density":
        """Pointwise (-f) clipped at zero, so f = f+ - f- holds."""
        return Density(self.space, tuple(-v if v < 0 else ZERO for v in self.values))

    def support_bits(self) -> int:
        bits = 0
        for k, atom in enumerate(self.space.positive_support):
            if self.values[k] > 0:
                bits |= 1 << atom
        return bits

    def min_positive(self) -> Fraction:
        """Smallest strictly positive value; raises on all-zero densities."""
        vals = [v for v in self.values if v > 0]
        if not vals:
            raise NegativeDensityError("density has no positive values")
        return min(vals)


def indicator(space: FiniteProbabilitySpace, a: MeasurableSet) -> Density:
    """The indicator of a set as a density (restricted to positive atoms)."""
    space._require_same(a.space)
    return Density(
        space,
        tuple(ONE if a.bits >> i & 1 else ZERO for i in space.positive_support),
    )


def constant_density(space: FiniteProbabilitySpace, c: Fraction | int) -> Density:
    c = Fraction(c)
    return Density(space, tuple(c for _ in space.positive_support))
