from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from pfkit import (
    Density,
    MarkovMatrix,
    SystemGenerator,
    apply_power,
    cesaro_limit,
    conditional_expectation,
    constant_density,
    density_power_sequence,
    density_support,
    fixed_space_dimension,
    identity_matrix,
    indicator,
    invariant_algebra,
    koopman_operator,
    power_sequence,
    rank_one_projection,
    transfer_operator,
    transfer_power,
    two_atom_swap,
)

from conftest import systems

HALF = Fraction(1, 2)


def test_transfer_operator_is_identity_here(three_point):
    # both positive atoms are fixed, so the operator acts as the identity
    space, phi = three_point
    p = transfer_operator(phi)
    assert p == identity_matrix(space)
    assert p.is_identity
    assert p.permutation_structure() == (0, 1)


def test_transfer_operator_of_swap(swap):
    space, phi = swap
    p = transfer_operator(phi)
    assert p.entries == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert p.permutation_structure() == (1, 0)


def test_transfer_moves_mass_along_the_map(swap):
    space, phi = swap
    p = transfer_operator(phi)
    f = indicator(space, space.set_of(["a"]))
    pf = p.apply(f)
    assert pf == indicator(space, space.set_of(["b"]))
    assert pf.integral() == f.integral()


def test_koopman_is_composition(swap):
    space, phi = swap
    t = koopman_operator(phi)
    f = indicator(space, space.set_of(["a"]))
    assert t.apply(f) == indicator(space, space.set_of(["b"]))


@given(systems())
def test_transfer_is_bimarkov_and_adjoint_to_koopman(system):
    _, phi = system
    p = transfer_operator(phi)
    t = koopman_operator(phi)
    assert p.is_bimarkov()
    assert t.is_bimarkov()
    assert p.adjoint() == t
    assert t.adjoint() == p


@given(systems(), st.data())
def test_duality_on_indicators(system, data):
    """mass of A n phi^-1(B) computed through either operator agrees."""
    space, phi = system
    p = transfer_operator(phi)
    t = koopman_operator(phi)
    from pfkit import inner

    a = space.set_from_bits(data.draw(st.integers(0, space.full_mask)))
    b = space.set_from_bits(data.draw(st.integers(0, space.full_mask)))
    fa, fb = indicator(space, a), indicator(space, b)
    assert inner(p.apply(fa), fb) == inner(fa, t.apply(fb))


def test_matrix_composition(swap):
    space, phi = swap
    p = transfer_operator(phi)
    assert p @ p == identity_matrix(space)
    a, b = (indicator(space, space.set_of([x])) for x in "ab")
    assert apply_power(p, a, 3) == b
    assert transfer_power(phi, a, 3) == b


def test_power_sequence_identity(three_point):
    _, phi = three_point
    report = power_sequence(transfer_operator(phi))
    assert report.converges
    assert report.preperiod == 0 and report.period == 1
    assert report.limit.is_identity


def test_power_sequence_swap_diverges(swap):
    _, phi = swap
    report = power_sequence(transfer_operator(phi))
    assert not report.converges
    assert report.period == 2
    assert report.limit is None


def test_cesaro_average_of_swap(swap):
    space, phi = swap
    avg = cesaro_limit(transfer_operator(phi))
    assert avg == rank_one_projection(space)


def test_rank_one_projection_is_idempotent_limit():
    space, phi = two_atom_swap()
    proj = rank_one_projection(space)
    assert proj @ proj == proj
    report = power_sequence(proj)
    assert report.converges and report.preperiod == 1 and report.period == 1
    assert report.limit == proj


@given(systems())
def test_permutation_fast_path_matches_hashing(system):
    """The lcm shortcut for permutation matrices must agree with generic
    cycle detection on the raw sequence."""
    _, phi = system
    p = transfer_operator(phi)
    report = power_sequence(p)
    seen = {}
    current = identity_matrix(p.space)
    n = 0
    while p_key(current) not in seen:
        seen[p_key(current)] = n
        current = current @ p
        n += 1
    first = seen[p_key(current)]
    assert report.preperiod == first
    assert report.period == n - first


def p_key(m):
    return m.entries


def test_permutation_structure_needs_unit_entries(swap):
    space, _ = swap
    zero, one = Fraction(0), Fraction(1)
    assert MarkovMatrix(space, ((zero, one), (one, zero))).permutation_structure() == (1, 0)
    # a single nonzero that is not 1
    assert MarkovMatrix(space, ((HALF, zero), (zero, one))).permutation_structure() is None
    # two nonzeros in one row, one of them 1
    assert MarkovMatrix(space, ((one, HALF), (zero, one))).permutation_structure() is None
    assert MarkovMatrix(space, ((HALF, HALF), (HALF, HALF))).permutation_structure() is None
    # unit rows that are not a bijection
    assert MarkovMatrix(space, ((one, zero), (one, zero))).permutation_structure() is None


def _cycle_lengths(perm):
    lengths = []
    for start in range(len(perm)):
        j, length = perm[start], 1
        while j != start:
            j, length = perm[j], length + 1
        lengths.append(length)
    return lengths


@given(
    st.integers(0, 2**32),
    st.integers(0, 500),
    st.sampled_from([8, 16]),
    st.integers(0, 20),
    st.data(),
)
def test_transfer_power_matches_the_dense_oracle(seed, index, max_atoms, n, data):
    space, phi = SystemGenerator(seed, max_positive_atoms=max_atoms).system(index)
    d = len(space.positive_support)
    values = data.draw(st.lists(st.fractions(), min_size=d, max_size=d))
    f = Density(space, tuple(values))
    got = transfer_power(phi, f, n)
    assert got == apply_power(transfer_operator(phi), f, n)
    period = lcm(*_cycle_lengths(phi.positive_permutation))
    assert transfer_power(phi, f, n + period) == got
    with pytest.raises(ValueError):
        transfer_power(phi, f, -1 - n)


def test_density_power_sequence(swap):
    space, phi = swap
    p = transfer_operator(phi)
    f = indicator(space, space.set_of(["a"]))
    report = density_power_sequence(p, f)
    assert not report.converges
    g = constant_density(space, HALF)
    assert density_power_sequence(p, g).converges


def test_conditional_expectation(three_point):
    space, phi = three_point
    alg = invariant_algebra(phi)
    f = indicator(space, space.set_of(["1", "2"]))
    e = conditional_expectation(space, alg, f)
    assert e == indicator(space, space.set_of(["1"]))
    # averaging preserves the integral
    assert e.integral() == f.integral()


def test_conditional_expectation_averages_blocks(swap):
    space, phi = swap
    from pfkit import SigmaSubAlgebra

    whole = SigmaSubAlgebra.from_blocks(space, [(0, 1)])
    f = indicator(space, space.set_of(["a"]))
    assert conditional_expectation(space, whole, f) == constant_density(space, HALF)


@given(systems(), st.data())
def test_expectation_is_projection(system, data):
    space, phi = system
    alg = invariant_algebra(phi)
    bits = data.draw(st.integers(0, space.full_mask))
    f = indicator(space, space.set_from_bits(bits))
    e = conditional_expectation(space, alg, f)
    assert conditional_expectation(space, alg, e) == e
    assert e.integral() == f.integral()


def test_density_support(three_point):
    space, phi = three_point
    f = indicator(space, space.set_of(["1", "2"]))
    assert density_support(f) == space.set_of(["1"]).algebra_class()


def test_fixed_space_dimension(three_point, swap):
    _, phi = three_point
    assert fixed_space_dimension(transfer_operator(phi)) == 2
    _, sigma = swap
    assert fixed_space_dimension(transfer_operator(sigma)) == 1
    assert fixed_space_dimension(rank_one_projection(sigma.space)) == 1


def test_matrix_shape_validation(swap):
    space, _ = swap
    with pytest.raises(ValueError):
        MarkovMatrix(space, ((HALF, HALF),))
    lopsided = MarkovMatrix(space, ((HALF, HALF), (Fraction(1), Fraction(1))))
    assert not lopsided.is_bimarkov()
