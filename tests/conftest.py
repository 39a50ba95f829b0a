from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from pfkit import (
    FiniteProbabilitySpace,
    MarkovMatrix,
    MeasurePreservingMap,
    SigmaSubAlgebra,
    SystemGenerator,
    three_point_system,
    two_atom_swap,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def three_point():
    return three_point_system()


@pytest.fixture
def swap():
    return two_atom_swap()


@st.composite
def spaces(draw, max_positive=5, max_null=3, denominator_bound=12):
    """Random space with exact masses: a composition of the denominator
    into positive parts, padded with null atoms."""
    n_pos = draw(st.integers(1, max_positive))
    q = draw(st.integers(n_pos, denominator_bound))
    if n_pos == 1:
        cuts = []
    else:
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(1, q - 1),
                    min_size=n_pos - 1,
                    max_size=n_pos - 1,
                    unique=True,
                )
            )
        )
    bounds = [0] + cuts + [q]
    masses = [Fraction(bounds[i + 1] - bounds[i], q) for i in range(n_pos)]
    masses += [Fraction(0)] * draw(st.integers(0, max_null))
    order = draw(st.permutations(range(len(masses))))
    masses = [masses[i] for i in order]
    return FiniteProbabilitySpace.from_masses(masses)


@st.composite
def systems(draw, **space_kwargs):
    space = draw(spaces(**space_kwargs))
    by_mass: dict[Fraction, list[int]] = {}
    for a in space.positive_support:
        by_mass.setdefault(space.masses[a], []).append(a)
    targets = [0] * space.atom_count
    for members in by_mass.values():
        image = draw(st.permutations(members))
        for src, dst in zip(members, image):
            targets[src] = dst
    for a in range(space.atom_count):
        if space.masses[a] == 0:
            targets[a] = draw(st.integers(0, space.atom_count - 1))
    return space, MeasurePreservingMap(space, tuple(targets))


@st.composite
def subsets(draw, space):
    return space.set_from_bits(draw(st.integers(0, space.full_mask)))


def inner(f, g):
    """The weighted pairing integral(f * g) of two densities: the test oracle
    for the adjointness of the transfer and Koopman operators."""
    f.space._require_same(g.space)
    w = f.space.masses
    return sum(
        (x * y * w[a] for x, y, a in zip(f.values, g.values, f.space.positive_support)),
        Fraction(0),
    )


def matrix_from_entries(space, entries):
    """The matrix with the given dense d x d rows (zeros are not stored)."""
    rows = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in entries)
    return MarkovMatrix(space, rows)


def algebra_from_blocks(space, blocks):
    """The algebra whose blocks hold the given atom indices, in any order."""
    try:
        masks = [space.set_from_indices(block).bits for block in blocks]
    except IndexError as exc:  # an atom index out of range
        raise ValueError(str(exc)) from None
    return SigmaSubAlgebra(space, tuple(sorted(masks, key=lambda b: b & -b)))


def image(phi, a):
    """The literal forward image phi(A)."""
    phi.space._require_same(a.space)
    return phi.space.set_from_bits(phi.image_bits(a.bits))


def preimage(phi, a):
    """The literal preimage phi^-1(A)."""
    phi.space._require_same(a.space)
    return phi.space.set_from_bits(phi.preimage_bits(a.bits))


def generated_systems(count=40, seed=2024, **kwargs):
    gen = SystemGenerator(seed, **kwargs)
    return [gen.system(i) for i in range(count)]


PRIME_CYCLES = (2, 3, 5, 7, 11, 13)

# The generator bounds of the sampled audit workload.
SAMPLED_BOUNDS = {"max_positive_atoms": 16, "max_null_atoms": 4, "mass_denominator_bound": 48}


def cycle_system(lengths, null_targets=()):
    """Equal-mass atoms on cycles of the given lengths (atoms numbered
    cycle by cycle), then one null atom per entry of `null_targets`, mapped
    to that atom index."""
    k = sum(lengths)
    space = FiniteProbabilitySpace.from_masses(
        [Fraction(1, k)] * k + [Fraction(0)] * len(null_targets)
    )
    targets, start = [], 0
    for length in lengths:
        targets += [start + (i + 1) % length for i in range(length)]
        start += length
    return space, MeasurePreservingMap(space, (*targets, *null_targets))


def cycle_starts(lengths):
    """Bitmask of the first atom of each cycle of `cycle_system(lengths)`."""
    bits, start = 0, 0
    for length in lengths:
        bits |= 1 << start
        start += length
    return bits
