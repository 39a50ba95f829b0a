"""Measure-preserving atom maps and setwise dynamics.

A map is a target list over the atoms.  Measure preservation on a finite
space forces the positive atoms to be permuted among equal-mass partners,
while null atoms may land anywhere; the constructor validates the mass
balance atom by atom and caches the induced positive permutation.

Sub-sigma-algebras of a finite power set are in bijection with partitions
of the atoms, so the lattice operations here (invariant algebra, preimage
algebras, their stabilized tail, completions modulo null sets) are all
partition computations.  A partition is stored as one atom bitmask per
block, and those computations OR, AND and compare the masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Literal

from .errors import NotMeasurePreservingError
from .space import (
    FiniteProbabilitySpace,
    MeasurableSet,
    MeasureAlgebraClass,
    bit_indices,
)


@dataclass(frozen=True)
class MeasurePreservingMap:
    """An atom map phi validated to preserve the measure.

    `targets[i]` is the atom index of phi(atom i).  Validation checks, for
    every atom y, that the total mass of the fiber phi^-1({y}) equals the
    mass of y.  On a finite space this is exactly measure preservation.
    """

    space: FiniteProbabilitySpace
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.space.atom_count
        if len(self.targets) != n:
            raise ValueError("target list length must match the atom count")
        for t in self.targets:
            if not 0 <= t < n:
                raise ValueError(f"target index {t} out of range")
        masses = self.space.integer_masses
        fiber_mass = [0] * n
        for x, y in enumerate(self.targets):
            fiber_mass[y] += masses[x]
        for y in range(n):
            if fiber_mass[y] != masses[y]:
                actual = Fraction(fiber_mass[y], self.space.common_denominator)
                raise NotMeasurePreservingError(
                    self.space.atom_labels[y], self.space.masses[y], actual
                )

    @classmethod
    def from_labels(
        cls, space: FiniteProbabilitySpace, pairs: dict[str, str]
    ) -> "MeasurePreservingMap":
        targets = [0] * space.atom_count
        if set(pairs) != set(space.atom_labels):
            raise ValueError("map must assign a target to every atom")
        for src, dst in pairs.items():
            targets[space.atom_index(src)] = space.atom_index(dst)
        return cls(space, tuple(targets))

    @cached_property
    def image_atom_bits(self) -> tuple[int, ...]:
        """Bitmask of {phi(x)} per atom x."""
        return tuple(1 << t for t in self.targets)

    @cached_property
    def preimage_atom_bits(self) -> tuple[int, ...]:
        """Bitmask of the fiber phi^-1({y}) per atom y."""
        fibers = [0] * self.space.atom_count
        for x, y in enumerate(self.targets):
            fibers[y] |= 1 << x
        return tuple(fibers)

    @cached_property
    def positive_permutation(self) -> tuple[int, ...]:
        """The bijection induced on positive atoms, in positive indexing.

        Entry k is the positive index of phi(positive atom k).  The mass
        balance check already guarantees this is a permutation pairing
        equal-mass atoms.
        """
        pos_index = self.space.positive_index
        return tuple(pos_index[self.targets[a]] for a in self.space.positive_support)

    def image_bits(self, bits: int) -> int:
        out = 0
        table = self.image_atom_bits
        while bits:
            low = bits & -bits
            out |= table[low.bit_length() - 1]
            bits ^= low
        return out

    def preimage_bits(self, bits: int) -> int:
        out = 0
        table = self.preimage_atom_bits
        while bits:
            low = bits & -bits
            out |= table[low.bit_length() - 1]
            bits ^= low
        return out

    def image(self, a: MeasurableSet) -> MeasurableSet:
        """The literal forward image phi(A)."""
        self.space._require_same(a.space)
        return MeasurableSet(self.space, self.image_bits(a.bits))

    def preimage(self, a: MeasurableSet) -> MeasurableSet:
        """The literal preimage phi^-1(A); preserves the measure exactly."""
        self.space._require_same(a.space)
        return MeasurableSet(self.space, self.preimage_bits(a.bits))

    def iterate_atom(self, atom: int, n: int) -> int:
        for _ in range(n):
            atom = self.targets[atom]
        return atom

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arrows = ", ".join(
            f"{self.space.atom_labels[x]}->{self.space.atom_labels[y]}"
            for x, y in enumerate(self.targets)
        )
        return f"MeasurePreservingMap({arrows})"


def _lowest_bit(bits: int) -> int:
    return bits & -bits


@dataclass(frozen=True)
class SigmaSubAlgebra:
    """A sub-sigma-algebra of the power set, stored as its atom partition.

    A subset belongs to the algebra exactly when it is a union of blocks.
    The partition is stored only as `block_bits`, one atom bitmask per
    block, in canonical order (by lowest set bit, i.e. by smallest member),
    so that equality of partitions is structural equality.  `blocks` is the
    same partition as tuples of atom indices, derived on demand.
    """

    space: FiniteProbabilitySpace
    block_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = 0
        for b in self.block_bits:
            if b <= 0:
                raise ValueError(f"block {b} is not a nonempty atom bitmask")
            if b & seen:
                raise ValueError("blocks overlap")
            seen |= b
        if seen & ~self.space.full_mask:
            raise ValueError(f"atom index {seen.bit_length() - 1} out of range")
        if seen != self.space.full_mask:
            raise ValueError("blocks must cover every atom")
        if list(self.block_bits) != sorted(self.block_bits, key=_lowest_bit):
            raise ValueError("blocks must be ordered by their smallest atom")

    @classmethod
    def from_blocks(
        cls, space: FiniteProbabilitySpace, blocks: Iterable[Iterable[int]]
    ) -> "SigmaSubAlgebra":
        try:
            masks = [space.set_from_indices(block).bits for block in blocks]
        except IndexError as exc:  # an atom index out of range
            raise ValueError(str(exc)) from None
        return cls(space, tuple(sorted(masks, key=_lowest_bit)))

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as increasing tuples of atom indices."""
        return tuple(tuple(bit_indices(b)) for b in self.block_bits)

    @cached_property
    def block_of_atom(self) -> tuple[int, ...]:
        owner = [0] * self.space.atom_count
        for bi, block in enumerate(self.blocks):
            for i in block:
                owner[i] = bi
        return tuple(owner)

    def contains_set(self, a: MeasurableSet) -> bool:
        """Membership test: A is in the algebra iff it is a union of blocks."""
        self.space._require_same(a.space)
        for b in self.block_bits:
            inter = a.bits & b
            if inter != 0 and inter != b:
                return False
        return True

    def member_sets(self) -> Iterable[MeasurableSet]:
        """All sets of the algebra (2^blocks of them); test-scale only."""
        blk = self.block_bits
        for mask in range(1 << len(blk)):
            bits = sum(b for k, b in enumerate(blk) if mask >> k & 1)  # disjoint
            yield MeasurableSet(self.space, bits)

    def refines(self, coarser: "SigmaSubAlgebra") -> bool:
        """True when every block of `coarser` is a union of blocks of self.

        Equivalent to `coarser` being a subfamily of self as a set algebra.
        """
        self.space._require_same(coarser.space)
        # each block of self must lie in the coarser block of its smallest atom
        owner, outer = coarser.block_of_atom, coarser.block_bits
        return all(
            not b & ~outer[owner[_lowest_bit(b).bit_length() - 1]] for b in self.block_bits
        )

    def completion(self) -> "SigmaSubAlgebra":
        """Completion modulo null sets, within the power set.

        A set differs from a member by a null set iff it agrees with a member
        on the positive support, so the completion is the refinement that
        splits every null atom into its own singleton block.
        """
        nulls = self.space.full_mask & ~self.space.positive_mask
        blocks = [*self.positive_blocks(), *(1 << i for i in bit_indices(nulls))]
        return SigmaSubAlgebra(self.space, tuple(sorted(blocks, key=_lowest_bit)))

    def positive_blocks(self) -> tuple[int, ...]:
        """Block bitmasks intersected with the positive support, empty ones
        dropped, in canonical order."""
        posmask = self.space.positive_mask
        kept = (b & posmask for b in self.block_bits)
        return tuple(sorted((b for b in kept if b), key=_lowest_bit))


def completions_equal(a: SigmaSubAlgebra, b: SigmaSubAlgebra) -> bool:
    """Whether two algebras have the same completion modulo null sets.

    Both completions share the split-null-singleton structure, so equality
    reduces to equality of the partitions restricted to positive atoms.
    """
    a.space._require_same(b.space)
    return a.positive_blocks() == b.positive_blocks()


def invariant_algebra(phi: MeasurePreservingMap) -> SigmaSubAlgebra:
    """The algebra of strictly invariant sets, A = phi^-1(A).

    Membership of an atom propagates both ways along the arrow x -> phi(x),
    so the invariant sets are exactly the unions of weakly connected
    components of the functional graph.
    """
    n = phi.space.atom_count
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x, y in enumerate(phi.targets):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    # first seen in atom order, so the blocks come out in canonical order
    groups: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        groups[root] = groups.get(root, 0) | 1 << i
    return SigmaSubAlgebra(phi.space, tuple(groups.values()))


def preimage_algebra(phi: MeasurePreservingMap, n: int) -> SigmaSubAlgebra:
    """The algebra {phi^-n(A)}: the partition into fibers of the n-fold map."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    fibers: dict[int, int] = {}
    for x in range(phi.space.atom_count):
        y = phi.iterate_atom(x, n)
        fibers[y] = fibers.get(y, 0) | 1 << x
    return SigmaSubAlgebra(phi.space, tuple(fibers.values()))


def tail_algebra(phi: MeasurePreservingMap) -> tuple[SigmaSubAlgebra, int]:
    """The stabilized decreasing chain of preimage algebras.

    The chain loses blocks exactly while the forward range shrinks, so it
    stabilizes in at most atom-count steps; two equal consecutive terms stay
    equal forever after.  Returns (algebra, index at which it stabilized).
    """
    prev = preimage_algebra(phi, 0)
    for n in range(1, phi.space.atom_count + 2):
        cur = preimage_algebra(phi, n)
        if cur.block_bits == prev.block_bits:
            return prev, n - 1
        prev = cur
    raise AssertionError("preimage chain failed to stabilize within the bound")


@dataclass(frozen=True)
class OrbitReport:
    """Eventually periodic trajectory of a set under repeated image/preimage.

    `orbit_sets` lists the literal sets from step 0 through the end of the
    first full cycle; `set_at` extends it to arbitrary n by periodicity.
    `limit_class` is present exactly when the cycle is constant modulo null
    sets, which on a finite space is the same as metric convergence.
    """

    preperiod: int
    period: int
    orbit_sets: tuple[MeasurableSet, ...]
    limit_class: MeasureAlgebraClass | None = field(default=None)

    def __post_init__(self) -> None:
        if self.period < 1 or self.preperiod < 0:
            raise ValueError("bad orbit shape")
        if len(self.orbit_sets) != self.preperiod + self.period:
            raise ValueError("orbit_sets must cover preperiod plus one cycle")

    @property
    def converges(self) -> bool:
        return self.limit_class is not None

    def set_at(self, n: int) -> MeasurableSet:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n < len(self.orbit_sets):
            return self.orbit_sets[n]
        return self.orbit_sets[self.preperiod + (n - self.preperiod) % self.period]


Direction = Literal["forward", "backward"]


def set_orbit(
    phi: MeasurePreservingMap, a: MeasurableSet, direction: Direction = "forward"
) -> OrbitReport:
    """Follow phi^n(A) (or phi^-n(A)) until the literal set repeats.

    The step map is a function on a finite set of bitmasks, so the orbit is
    eventually periodic; the first repeat pins down preperiod and period.
    """
    phi.space._require_same(a.space)
    if direction == "forward":
        step = phi.image_bits
    elif direction == "backward":
        step = phi.preimage_bits
    else:
        raise ValueError(f"unknown direction {direction!r}")

    seen: dict[int, int] = {}
    seq: list[int] = []
    cur = a.bits
    while cur not in seen:
        seen[cur] = len(seq)
        seq.append(cur)
        cur = step(cur)
    preperiod = seen[cur]
    period = len(seq) - preperiod

    posmask = phi.space.positive_mask
    cycle_classes = {bits & posmask for bits in seq[preperiod:]}
    limit = None
    if len(cycle_classes) == 1:
        limit = MeasureAlgebraClass(phi.space, cycle_classes.pop())
    sets = tuple(MeasurableSet(phi.space, bits) for bits in seq)
    return OrbitReport(preperiod, period, sets, limit)


def minimal_invariant_superset(
    phi: MeasurePreservingMap, a: MeasurableSet
) -> MeasurableSet:
    """The smallest strictly invariant set containing A.

    Saturate forward images, then saturate preimages of the result; both
    unions grow monotonically so each loop ends within atom-count steps.
    The outcome equals the union of the weakly connected components that
    meet A, which the tests use as an independent oracle.
    """
    phi.space._require_same(a.space)
    fwd = a.bits
    while True:
        nxt = fwd | phi.image_bits(fwd)
        if nxt == fwd:
            break
        fwd = nxt
    full = fwd
    while True:
        nxt = full | phi.preimage_bits(full)
        if nxt == full:
            break
        full = nxt
    return MeasurableSet(phi.space, full)


def invariant_version(phi: MeasurePreservingMap, a: MeasurableSet) -> MeasurableSet:
    """The liminf of the preimage orbit: union over n of inter_{k>=n} phi^-k(A).

    The backward orbit is eventually periodic, and the inner intersections
    increase to the intersection of one full cycle, which is the returned
    set.  It is always strictly invariant; whenever A is equivalent to its
    own preimage modulo null sets, it is also equivalent to A.
    """
    phi.space._require_same(a.space)
    orbit = set_orbit(phi, a, direction="backward")
    bits = phi.space.full_mask
    for j in range(orbit.period):
        bits &= orbit.orbit_sets[orbit.preperiod + j].bits
    return MeasurableSet(phi.space, bits)
