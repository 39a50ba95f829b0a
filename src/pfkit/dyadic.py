"""Exact doubling-map model on the unit interval with dyadic sets.

This is the canonical witness for genuinely one-sided behavior that finite
atom systems cannot show: the doubling map x -> 2x mod 1 is exact, and all
of it is computable here with rational arithmetic and no tolerances.

Sets are finite unions of half-open dyadic intervals, stored as bitmasks
over the cells of a dyadic grid; step functions are constant on the cells of
a dyadic grid.  The forward image folds the two halves of a grid onto the
next coarser one, the preimage copies a grid onto both halves of the next
finer one, and the transfer operator averages the two branch values,
dropping the grid one level per application.  A step function at level k
therefore becomes constant after exactly k steps, which is the exactness
mechanism in closed form.  Grids stop at MAX_LEVEL: deeper endpoints and
preimages raise DyadicValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DyadicValueError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# The finest grid: 2^16 cells, as many as ulam.MAX_BINS.  Deeper endpoints
# are rejected before any mask is built.
MAX_LEVEL = 16

Interval = tuple[Fraction, Fraction]

# Bit 2i of the level-k mask, for every i: a set is a union of level k - 1
# cells exactly when it agrees on cells 2i and 2i + 1 for every i.
_EVEN_CELLS = tuple(((1 << (1 << k)) - 1) // 3 for k in range(MAX_LEVEL + 1))


def _dyadic_level(x: Fraction) -> int:
    if not 0 <= x <= 1:
        raise DyadicValueError(f"endpoint {x} outside [0, 1]")
    den = x.denominator
    if den & (den - 1):
        raise DyadicValueError(f"{x} is not dyadic")
    level = den.bit_length() - 1
    if level > MAX_LEVEL:
        raise DyadicValueError(f"{x} exceeds the level-{MAX_LEVEL} guard")
    return level


def _refine(mask: int, level: int, finer: int) -> int:
    """The same cells on the finer grid: each bit repeated 2^(finer-level) times."""
    if finer == level:
        return mask
    reps = 1 << (finer - level)
    bits = format(mask, f"0{1 << level}b")
    return int(bits.translate({48: "0" * reps, 49: "1" * reps}), 2)


def _bit_positions(mask: int) -> list[int]:
    """Indices of the set bits, ascending."""
    return [j for j, c in enumerate(reversed(format(mask, "b"))) if c == "1"]


def _coarsest(level: int, mask: int) -> "DyadicSet":
    while level and not (mask ^ mask >> 1) & _EVEN_CELLS[level]:
        mask = int(format(mask, f"0{1 << level}b")[1::2], 2)  # keep even bits
        level -= 1
    return DyadicSet(level, mask)


@dataclass(frozen=True)
class DyadicSet:
    """A finite union of half-open dyadic intervals inside [0, 1).

    Bit j of `mask` is the cell [j 2^-level, (j+1) 2^-level).  The set is
    stored at the coarsest level that holds it, so equal sets have equal
    fields and `level` is the coarsest grid on which the set is a union of
    cells.  Levels stop at MAX_LEVEL.
    """

    level: int
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.level <= MAX_LEVEL:
            raise DyadicValueError(f"level {self.level} outside [0, {MAX_LEVEL}]")
        if self.mask < 0 or self.mask.bit_length() > 1 << self.level:
            raise DyadicValueError(f"mask has bits beyond the 2^{self.level} cells")
        if self.level and not (self.mask ^ self.mask >> 1) & _EVEN_CELLS[self.level]:
            raise DyadicValueError("set is not stored at its coarsest level")

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Fraction | int | str, Fraction | int | str]]
    ) -> "DyadicSet":
        """The union of the intervals [a, b); empty and reversed pairs add nothing."""
        ends = [(Fraction(a), Fraction(b)) for a, b in pairs]
        level = max((_dyadic_level(x) for pair in ends for x in pair), default=0)
        n = 1 << level
        mask = 0
        for a, b in ends:
            if a < b:
                lo, hi = int(a * n), int(b * n)
                mask |= ((1 << (hi - lo)) - 1) << lo
        return _coarsest(level, mask)

    @classmethod
    def empty(cls) -> "DyadicSet":
        return cls(0, 0)

    @classmethod
    def full(cls) -> "DyadicSet":
        return cls(0, 1)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The maximal intervals of the set, sorted: the runs of the mask."""
        n = 1 << self.level
        edges = _bit_positions(self.mask ^ self.mask << 1)
        return tuple(
            (Fraction(a, n), Fraction(b, n)) for a, b in zip(edges[::2], edges[1::2])
        )

    @property
    def measure(self) -> Fraction:
        return Fraction(self.mask.bit_count(), 1 << self.level)

    def image(self) -> "DyadicSet":
        """The forward image under doubling: cell j lands on cell j mod half."""
        if self.level == 0:
            return self
        half = 1 << (self.level - 1)
        low = (1 << half) - 1
        return _coarsest(self.level - 1, (self.mask & low) | (self.mask >> half))

    def preimage(self) -> "DyadicSet":
        """The preimage under doubling: copies on both halves of the finer grid."""
        if self.level == 0:
            return self
        return DyadicSet(self.level + 1, self.mask | self.mask << (1 << self.level))

    def cell_indices(self, level: int) -> tuple[int, ...]:
        """Indices of the level cells the set covers; set level must fit."""
        if level < self.level:
            raise DyadicValueError(
                f"set at level {self.level} does not align with level {level}"
            )
        return tuple(_bit_positions(_refine(self.mask, self.level, level)))

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

    def integral(self) -> Fraction:
        width = Fraction(1, 1 << self.level)
        return sum(self.values, ZERO) * width

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
        if nxt == cur:
            break
        cur = nxt
    return cur.measure


def image_defect(a: DyadicSet, n: int) -> Fraction:
    """sup over B of |mu(phi^n(A) inter B) - lim mu(phi^m(A)) mu(B)|."""
    limit = image_measure_limit(a)
    cur = a
    # after level images the set is empty or full, and images keep it so
    for _ in range(min(n, a.level)):
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
    rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for j in range(n):
        # phi^-1(cell_j) is the level + 1 cells j and j + n: the halves of
        # cells j // 2 and (j + n) // 2.  Each row fills in increasing j.
        rows[j >> 1].append((j, HALF))
        rows[(j + n) >> 1].append((j, HALF))
    return tuple(tuple(row) for row in rows)
