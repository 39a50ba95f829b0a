from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pfkit import (
    Density,
    FiniteProbabilitySpace,
    NegativeDensityError,
    SpaceMismatchError,
    class_distance,
    constant_density,
    indicator,
)

from conftest import spaces

HALF = Fraction(1, 2)


def test_masses_must_sum_to_one():
    with pytest.raises(ValueError, match=r"^masses sum to 5/6, expected 1$"):
        FiniteProbabilitySpace(("a", "b"), (HALF, Fraction(1, 3)))
    with pytest.raises(ValueError, match=r"^masses sum to 7/6, expected 1$"):
        FiniteProbabilitySpace(("a", "b", "c"), (HALF, Fraction(1, 3), Fraction(1, 3)))


def test_masses_must_be_nonnegative():
    with pytest.raises(ValueError, match=r"^atom 'b': negative mass -1/2$"):
        FiniteProbabilitySpace(("a", "b"), (Fraction(3, 2), Fraction(-1, 2)))


def test_masses_must_be_fractions():
    with pytest.raises(TypeError, match="atom 'b': mass must be a Fraction"):
        FiniteProbabilitySpace(("a", "b"), (HALF, 0.5))
    with pytest.raises(TypeError):
        FiniteProbabilitySpace(("a",), (1,))


def test_all_zero_masses_are_rejected():
    with pytest.raises(ValueError, match=r"^masses sum to 0, expected 1$"):
        FiniteProbabilitySpace(("a", "b"), (Fraction(0), Fraction(0)))


def test_labels_must_be_distinct():
    with pytest.raises(ValueError):
        FiniteProbabilitySpace(("a", "a"), (HALF, HALF))


def test_needs_a_positive_atom():
    with pytest.raises(ValueError):
        FiniteProbabilitySpace((), ())


def test_from_masses_default_labels():
    space = FiniteProbabilitySpace.from_masses([HALF, HALF])
    assert space.atom_labels == ("0", "1")


def test_set_algebra(three_point):
    space, _ = three_point
    a = space.set_of(["1", "2"])
    b = space.set_of(["2", "3"])
    assert sorted((a & b).labels()) == ["2"]
    assert sorted((a | b).labels()) == ["1", "2", "3"]
    assert sorted((a - b).labels()) == ["1"]
    assert sorted((a ^ b).labels()) == ["1", "3"]


def test_measures(three_point):
    space, _ = three_point
    assert space.set_of(["1", "2"]).measure == HALF
    assert space.set_of(["2"]).measure == 0
    assert space.full_set().measure == 1
    assert space.set_from_bits(0).measure == 0


def test_null_atoms_vanish_in_classes(three_point):
    space, _ = three_point
    a = space.set_of(["1", "2"])
    assert a.algebra_class() == space.set_of(["1"]).algebra_class()
    assert class_distance(a.algebra_class(), space.set_of(["1"]).algebra_class()) == 0
    assert a.algebra_class() != space.set_of(["1", "3"]).algebra_class()


def test_distance_is_symmetric_difference_mass(three_point):
    space, _ = three_point
    a = space.set_of(["1", "2"])
    b = space.set_of(["3"])
    assert class_distance(a.algebra_class(), b.algebra_class()) == 1
    assert class_distance(a.algebra_class(), space.set_of(["1"]).algebra_class()) == 0


@given(spaces(), st.data())
def test_distance_metric_axioms(space, data):
    bits = st.integers(0, space.full_mask)
    a, b, c = (space.set_from_bits(data.draw(bits)).algebra_class() for _ in range(3))
    assert class_distance(a, b) == class_distance(b, a)
    assert class_distance(a, c) <= class_distance(a, b) + class_distance(b, c)
    assert (class_distance(a, b) == 0) == (a == b)


def test_density_arithmetic(three_point):
    space, _ = three_point
    f = indicator(space, space.set_of(["1"]))
    g = constant_density(space, HALF)
    h = f - g
    assert h.integral() == 0
    assert h.positive_part().integral() == Fraction(1, 4)
    assert h.negative_part().integral() == Fraction(1, 4)
    assert (f + f).scale(HALF) == f


def test_density_integral_over(three_point):
    space, _ = three_point
    f = indicator(space, space.set_of(["1"]))
    assert f.integral_over(space.set_of(["1", "2"])) == HALF
    assert f.integral_over(space.set_of(["3"])) == 0


def test_min_positive(three_point):
    space, _ = three_point
    f = indicator(space, space.set_of(["1"]))
    assert f.min_positive() == 1
    zero = constant_density(space, Fraction(0))
    with pytest.raises(NegativeDensityError):
        zero.min_positive()


def test_density_values_live_on_positive_atoms(three_point):
    space, _ = three_point
    f = indicator(space, space.set_of(["2"]))  # null atom only
    assert f == constant_density(space, Fraction(0))
    assert f.support_bits() == 0


def test_cross_space_operations_rejected(three_point):
    space, _ = three_point
    other = FiniteProbabilitySpace.from_masses([HALF, HALF])
    with pytest.raises(SpaceMismatchError):
        space.full_set() & other.full_set()
    with pytest.raises(SpaceMismatchError):
        indicator(space, space.full_set()) + indicator(other, other.full_set())


@given(spaces())
def test_class_representative_has_no_null_atoms(space):
    cls = space.full_set().algebra_class()
    rep = cls.representative()
    assert rep.bits == space.positive_mask
    assert rep.measure == 1


def test_density_equality_is_exact():
    space = FiniteProbabilitySpace.from_masses([Fraction(1, 3), Fraction(2, 3)])
    f = Density(space, (Fraction(1, 3), Fraction(1, 3)))
    g = constant_density(space, Fraction(1, 3))
    assert f == g
    assert f.integral() == Fraction(1, 3)


def _fraction_sum_measure(space, bits):
    """The former `measure_bits`: one Fraction addition per set atom."""
    total = Fraction(0)
    while bits:
        low = bits & -bits
        total += space.masses[low.bit_length() - 1]
        bits ^= low
    return total


@given(spaces(max_positive=20, max_null=4, denominator_bound=48), st.data())
def test_integer_masses_match_the_fraction_oracle(space, data):
    q = space.common_denominator
    assert space.integer_masses == tuple(int(m * q) for m in space.masses)
    masks = [0, space.positive_mask, space.full_mask]
    masks += data.draw(st.lists(st.integers(0, space.full_mask), max_size=8))
    for bits in masks:
        expected = _fraction_sum_measure(space, bits)
        mass = space.mass_bits(bits)
        assert type(mass) is int and Fraction(mass, q) == expected
        measure = space.measure_bits(bits)
        assert type(measure) is Fraction and measure == expected
    assert space.measure_bits(space.full_mask) == space.measure_bits(space.positive_mask) == 1
