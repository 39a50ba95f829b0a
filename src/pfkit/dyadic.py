"""Exact doubling-map model on the unit interval with dyadic sets.

This is the canonical witness for genuinely one-sided behavior that finite
atom systems cannot show: the doubling map x -> 2x mod 1 is exact, and all
of it is computable here with rational arithmetic and no tolerances.

Sets are finite unions of half-open dyadic intervals; step functions are
constant on the cells of a dyadic grid.  Forward images double intervals,
preimages halve them into two branches, and the transfer operator averages
the two branch values, dropping the grid one level per application.  A step
function at level k therefore becomes constant after exactly k steps, which
is the exactness mechanism in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DyadicValueError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

MAX_LEVEL = 62

Interval = tuple[Fraction, Fraction]


def _dyadic_level(x: Fraction) -> int:
    den = x.denominator
    if den & (den - 1):
        raise DyadicValueError(f"{x} is not dyadic")
    level = den.bit_length() - 1
    if level > MAX_LEVEL:
        raise DyadicValueError(f"{x} exceeds the level-{MAX_LEVEL} guard")
    return level


def _check_endpoint(x: Fraction) -> Fraction:
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DyadicValueError(f"endpoint {x} outside [0, 1]")
    _dyadic_level(x)
    return x


def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    pairs = sorted((a, b) for a, b in intervals if a < b)
    merged: list[list[Fraction]] = []
    for a, b in pairs:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


@dataclass(frozen=True)
class DyadicSet:
    """A finite union of half-open dyadic intervals [a, b) inside [0, 1)."""

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        prev_end: Fraction | None = None
        for a, b in self.intervals:
            _check_endpoint(a)
            _check_endpoint(b)
            if not a < b:
                raise DyadicValueError(f"empty or reversed interval [{a}, {b})")
            if prev_end is not None and a < prev_end:
                raise DyadicValueError("intervals must be disjoint and sorted")
            prev_end = b

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Fraction | int | str, Fraction | int | str]]
    ) -> "DyadicSet":
        return cls(_normalize((Fraction(a), Fraction(b)) for a, b in pairs))

    @classmethod
    def empty(cls) -> "DyadicSet":
        return cls(())

    @classmethod
    def full(cls) -> "DyadicSet":
        return cls(((ZERO, ONE),))

    @property
    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), ZERO)

    @cached_property
    def level(self) -> int:
        """The coarsest dyadic grid on which the set is a union of cells."""
        if not self.intervals:
            return 0
        return max(
            max(_dyadic_level(a), _dyadic_level(b)) for a, b in self.intervals
        )

    def union(self, other: "DyadicSet") -> "DyadicSet":
        return DyadicSet(_normalize(self.intervals + other.intervals))

    def intersection(self, other: "DyadicSet") -> "DyadicSet":
        out: list[Interval] = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return DyadicSet(_normalize(out))

    def complement(self) -> "DyadicSet":
        out: list[Interval] = []
        cursor = ZERO
        for a, b in self.intervals:
            if cursor < a:
                out.append((cursor, a))
            cursor = b
        if cursor < ONE:
            out.append((cursor, ONE))
        return DyadicSet(tuple(out))

    def image(self) -> "DyadicSet":
        """The forward image under doubling; each interval doubles mod 1."""
        out: list[Interval] = []
        for a, b in self.intervals:
            if b <= HALF:
                out.append((2 * a, 2 * b))
            elif a >= HALF:
                out.append((2 * a - 1, 2 * b - 1))
            else:
                out.append((2 * a, ONE))
                out.append((ZERO, 2 * b - 1))
        return DyadicSet(_normalize(out))

    def preimage(self) -> "DyadicSet":
        """The preimage under doubling: both half-scale branch copies."""
        out: list[Interval] = []
        for a, b in self.intervals:
            out.append((a / 2, b / 2))
            out.append(((a + 1) / 2, (b + 1) / 2))
        return DyadicSet(_normalize(out))

    def cell_indices(self, level: int) -> tuple[int, ...]:
        """Indices of the level cells the set covers; set level must fit."""
        if level < self.level:
            raise DyadicValueError(
                f"set at level {self.level} does not align with level {level}"
            )
        scale = 1 << level
        cells: list[int] = []
        for a, b in self.intervals:
            cells.extend(range(int(a * scale), int(b * scale)))
        return tuple(cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = " u ".join(f"[{a},{b})" for a, b in self.intervals)
        return parts or "(empty)"


@dataclass(frozen=True)
class DyadicStepFunction:
    """A function constant on the 2^level cells of a dyadic grid.

    Stored at the coarsest level representing it; `values[j]` is the value
    on [j 2^-level, (j+1) 2^-level).
    """

    level: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.level <= MAX_LEVEL:
            raise DyadicValueError(f"level {self.level} outside [0, {MAX_LEVEL}]")
        if len(self.values) != 1 << self.level:
            raise DyadicValueError("value count must be 2^level")

    @classmethod
    def build(cls, level: int, values: Sequence[Fraction | int | str]) -> "DyadicStepFunction":
        vals = tuple(Fraction(v) for v in values)
        lvl = level
        while lvl > 0 and all(vals[2 * i] == vals[2 * i + 1] for i in range(len(vals) // 2)):
            vals = vals[::2]
            lvl -= 1
        return cls(lvl, vals)

    @classmethod
    def constant(cls, c: Fraction | int) -> "DyadicStepFunction":
        return cls(0, (Fraction(c),))

    @classmethod
    def indicator(cls, a: DyadicSet) -> "DyadicStepFunction":
        level = a.level
        vals = [ZERO] * (1 << level)
        for j in a.cell_indices(level):
            vals[j] = ONE
        return cls.build(level, vals)

    def at_level(self, level: int) -> tuple[Fraction, ...]:
        """Values refined onto a finer grid (each cell repeated)."""
        if level < self.level:
            raise DyadicValueError("cannot coarsen below the native level")
        reps = 1 << (level - self.level)
        out: list[Fraction] = []
        for v in self.values:
            out.extend([v] * reps)
        return tuple(out)

    def _binary(self, other: "DyadicStepFunction", op) -> "DyadicStepFunction":
        level = max(self.level, other.level)
        a = self.at_level(level)
        b = other.at_level(level)
        return DyadicStepFunction.build(level, tuple(op(x, y) for x, y in zip(a, b)))

    def __add__(self, other: "DyadicStepFunction") -> "DyadicStepFunction":
        return self._binary(other, lambda x, y: x + y)

    def __sub__(self, other: "DyadicStepFunction") -> "DyadicStepFunction":
        return self._binary(other, lambda x, y: x - y)

    def scale(self, c: Fraction | int) -> "DyadicStepFunction":
        c = Fraction(c)
        return DyadicStepFunction.build(self.level, tuple(c * v for v in self.values))

    def integral(self) -> Fraction:
        width = Fraction(1, 1 << self.level)
        return sum(self.values, ZERO) * width

    def integral_over(self, a: DyadicSet) -> Fraction:
        level = max(self.level, a.level)
        vals = self.at_level(level)
        width = Fraction(1, 1 << level)
        return sum((vals[j] for j in a.cell_indices(level)), ZERO) * width

    def positive_part(self) -> "DyadicStepFunction":
        return DyadicStepFunction.build(
            self.level, tuple(v if v > 0 else ZERO for v in self.values)
        )

    def negative_part(self) -> "DyadicStepFunction":
        return DyadicStepFunction.build(
            self.level, tuple(-v if v < 0 else ZERO for v in self.values)
        )

    def transfer(self) -> "DyadicStepFunction":
        """One transfer step: average the two preimage branch values.

        (Pf)(x) = (f(x/2) + f((x+1)/2)) / 2.  On the grid this pairs cell j
        with cell j + half and lands on the next coarser grid, so the level
        drops by one (or stays at zero).
        """
        if self.level == 0:
            return self
        half = 1 << (self.level - 1)
        vals = tuple(HALF * (self.values[i] + self.values[i + half]) for i in range(half))
        return DyadicStepFunction.build(self.level - 1, vals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DyadicStepFunction(level={self.level}, values={self.values})"


def transfer_apply(f: DyadicStepFunction, n: int = 1) -> DyadicStepFunction:
    if n < 0:
        raise ValueError("n must be nonnegative")
    for _ in range(n):
        f = f.transfer()
    return f


def exactness_profile(b: DyadicSet, n_max: int) -> tuple[Fraction, ...]:
    """Uniform mixing defects of the doubling map against the target set B.

    Entry n is sup over measurable A of |mu(phi^-n(A) inter B) - mu(A) mu(B)|,
    computed as max of the positive and negative part masses of
    g = P^n 1_B - mu(B); the extremal A are dyadic at the grid of g, so
    restricting the supremum to dyadic sets changes nothing.  A level-k
    target reaches defect exactly zero by step k and stays there.
    """
    f = DyadicStepFunction.indicator(b)
    mean = DyadicStepFunction.constant(b.measure)
    out = []
    for _ in range(n_max + 1):
        g = f - mean
        out.append(max(g.positive_part().integral(), g.negative_part().integral()))
        f = f.transfer()
    return tuple(out)


def trace_defect(b: DyadicSet, d: DyadicSet, n: int) -> Fraction:
    """The defect supremum restricted to subsets of the trace set D."""
    if d.measure == 0:
        raise DyadicValueError("trace set must have positive measure")
    g = transfer_apply(DyadicStepFunction.indicator(b), n) - DyadicStepFunction.constant(
        b.measure
    )
    return max(
        g.positive_part().integral_over(d), g.negative_part().integral_over(d)
    )


def image_measure_profile(a: DyadicSet, n_max: int) -> tuple[Fraction, ...]:
    out = []
    cur = a
    for _ in range(n_max + 1):
        out.append(cur.measure)
        cur = cur.image()
    return tuple(out)


def image_measure_limit(a: DyadicSet) -> Fraction:
    """lim mu(phi^n(A)); a nonempty set fills the circle within level steps."""
    cur = a
    for _ in range(a.level + 2):
        nxt = cur.image()
        if nxt.measure == cur.measure and nxt.intervals == cur.intervals:
            break
        cur = nxt
    return cur.measure


def image_defect(a: DyadicSet, n: int) -> Fraction:
    """sup over B of |mu(phi^n(A) inter B) - lim mu(phi^m(A)) mu(B)|."""
    limit = image_measure_limit(a)
    cur = a
    for _ in range(n):
        cur = cur.image()
    m_n = cur.measure
    return max((ONE - limit) * m_n, limit * (ONE - m_n))


def transition_matrix(level: int) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """Exact bin-to-bin transition weights of the doubling map.

    Row i lists (j, mu(cell_i inter phi^-1(cell_j)) / mu(cell_i)) for the
    nonzero columns, on the uniform grid with 2^level cells.  This is the
    rational ground truth the float discretization must reproduce.
    """
    if not 1 <= level <= MAX_LEVEL - 1:
        raise DyadicValueError("level must be between 1 and the guard")
    n = 1 << level
    width = Fraction(1, n)
    rows: list[dict[int, Fraction]] = [dict() for _ in range(n)]
    for j in range(n):
        cell = DyadicSet(((Fraction(j, n), Fraction(j + 1, n)),))
        for lo, hi in cell.preimage().intervals:
            i = int(lo * n)
            while Fraction(i, n) < hi:
                overlap = min(hi, Fraction(i + 1, n)) - max(lo, Fraction(i, n))
                if overlap > 0:
                    rows[i][j] = rows[i].get(j, ZERO) + overlap / width
                i += 1
    return tuple(tuple(sorted(row.items())) for row in rows)
