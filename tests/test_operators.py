import time
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from pfkit import (
    Density,
    LimitReport,
    MarkovMatrix,
    MeasurePreservingMap,
    SystemGenerator,
    apply_power,
    conditional_expectation,
    constant_density,
    density_power_sequence,
    fixed_space_dimension,
    identity_matrix,
    identity_system,
    indicator,
    invariant_algebra,
    koopman_operator,
    lower_bound_witness,
    power_sequence,
    rank_one_projection,
    transfer_operator,
    two_atom_swap,
)

from conftest import (
    PRIME_CYCLES,
    algebra_from_blocks,
    cycle_starts,
    cycle_system,
    inner,
    matrix_from_entries,
    spaces,
    systems,
)

HALF = Fraction(1, 2)


def _product(a, b):
    """The matrix product a @ b (apply b first), from the dense entries."""
    return matrix_from_entries(a.space, _dense_compose(a, b))


def _hashed_density_powers(m, f):
    """Oracle of `density_power_sequence`: apply M step by step until a
    density repeats, keeping every iterate."""
    seen, seq = {}, []
    while f.values not in seen:
        seen[f.values] = len(seq)
        seq.append(f)
        f = m.apply(f)
    pre = seen[f.values]
    period = len(seq) - pre
    return LimitReport(period == 1, pre, period, seq[pre] if period == 1 else None)


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
    a = space.set_from_bits(data.draw(st.integers(0, space.full_mask)))
    b = space.set_from_bits(data.draw(st.integers(0, space.full_mask)))
    fa, fb = indicator(space, a), indicator(space, b)
    assert inner(p.apply(fa), fb) == inner(fa, t.apply(fb))


def test_matrix_composition(swap):
    space, phi = swap
    p = transfer_operator(phi)
    assert _product(p, p) == identity_matrix(space)
    a, b = (indicator(space, space.set_of([x])) for x in "ab")
    assert apply_power(p, a, 3) == b
    assert phi.positive_image_bits(space.set_of(["a"]).bits, 3) == space.set_of(["b"]).bits


def test_power_sequence_identity(three_point):
    _, phi = three_point
    report = power_sequence(transfer_operator(phi))
    assert report.converges
    assert report.preperiod == 0 and report.period == 1
    assert report.limit.is_identity


def test_power_sequence_is_kept_on_the_matrix(swap):
    _, phi = swap
    p = transfer_operator(phi)
    assert power_sequence(p) is power_sequence(p)
    # an equal but distinct matrix gets its own, equal report
    assert power_sequence(transfer_operator(phi)) == power_sequence(p)


def test_power_sequence_swap_diverges(swap):
    _, phi = swap
    report = power_sequence(transfer_operator(phi))
    assert not report.converges
    assert report.period == 2
    assert report.limit is None


def test_powers_of_a_non_permutation_raise():
    # the projection is idempotent, so its powers converge, but only
    # permutation matrices are decided
    space, _ = two_atom_swap()
    proj = rank_one_projection(space)
    assert _product(proj, proj) == proj
    f = indicator(space, space.set_of(["a"]))
    with pytest.raises(ValueError, match="not a permutation matrix"):
        power_sequence(proj)
    with pytest.raises(ValueError, match="not a permutation matrix"):
        density_power_sequence(proj, f)


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
        current = _product(current, p)
        n += 1
    first = seen[p_key(current)]
    assert report.preperiod == first
    assert report.period == n - first


def p_key(m):
    return m.entries


def test_permutation_structure_needs_unit_entries(swap):
    space, _ = swap
    zero, one = Fraction(0), Fraction(1)

    def structure(entries):
        return matrix_from_entries(space, entries).permutation_structure()

    assert structure(((zero, one), (one, zero))) == (1, 0)
    # a single nonzero that is not 1
    assert structure(((HALF, zero), (zero, one))) is None
    # two nonzeros in one row, one of them 1
    assert structure(((one, HALF), (zero, one))) is None
    assert structure(((HALF, HALF), (HALF, HALF))) is None
    # unit rows that are not a bijection
    assert structure(((one, zero), (one, zero))) is None


@given(
    st.integers(0, 2**32),
    st.integers(0, 500),
    st.sampled_from([8, 16]),
    st.integers(0, 20),
    st.data(),
)
def test_positive_image_bits_matches_the_dense_oracle(seed, index, max_atoms, n, data):
    space, phi = SystemGenerator(seed, max_positive_atoms=max_atoms).system(index)
    a = space.set_from_bits(data.draw(st.integers(0, space.full_mask)))
    got = phi.positive_image_bits(a.bits, n)
    want = apply_power(transfer_operator(phi), indicator(space, a), n)
    assert indicator(space, space.set_from_bits(got)) == want
    assert not got & ~space.positive_mask
    period = lcm(*(len(atoms) for atoms, _ in phi.positive_cycles))
    assert phi.positive_image_bits(a.bits, n + period) == got
    with pytest.raises(ValueError, match="n must be nonnegative"):
        phi.positive_image_bits(a.bits, -1 - n)


def test_density_power_sequence(swap):
    space, phi = swap
    p = transfer_operator(phi)
    f = indicator(space, space.set_of(["a"]))
    report = density_power_sequence(p, f)
    assert not report.converges
    g = constant_density(space, HALF)
    assert density_power_sequence(p, g).converges


def test_density_period_can_be_shorter_than_the_cycle():
    space, phi = cycle_system((4,))
    p = transfer_operator(phi)
    f = indicator(space, space.set_from_indices([0, 2]))
    assert density_power_sequence(p, f) == LimitReport(False, 0, 2, None)
    assert power_sequence(p).period == 4
    full = indicator(space, space.full_set())
    assert density_power_sequence(p, full) == LimitReport(True, 0, 1, full)


def test_density_period_of_the_prime_cycles_is_read_off_the_rows():
    # the period is 510,510: the walk of the oracle would hold that many
    # densities, so only the cycle rule can answer in time
    lengths = PRIME_CYCLES + (17,)
    space, phi = cycle_system(lengths)
    p = transfer_operator(phi)
    f = indicator(space, space.set_from_bits(cycle_starts(lengths)))
    tracemalloc.start()
    started = time.perf_counter()
    try:
        report = density_power_sequence(p, f)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == LimitReport(False, 0, 510_510, None)
    assert elapsed < 0.1
    assert peak < 1 << 20


@st.composite
def periodic_indicators(draw):
    """A cycle system and the indicator of a set that repeats along each
    cycle with a drawn divisor of its length, often a proper one."""
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    space, phi = cycle_system(tuple(lengths))
    bits, start = 0, 0
    for length in lengths:
        step = draw(st.sampled_from([q for q in range(1, length + 1) if length % q == 0]))
        pattern = draw(st.lists(st.booleans(), min_size=step, max_size=step))
        for i in range(length):
            bits |= pattern[i % step] << (start + i)
        start += length
    return phi, indicator(space, space.set_from_bits(bits))


@st.composite
def random_densities(draw):
    """A generated system with a random set's indicator or random values."""
    space, phi = draw(systems(max_positive=8))
    d = len(space.positive_support)
    if draw(st.booleans()):
        a = space.set_from_bits(draw(st.integers(0, space.full_mask)))
        return phi, indicator(space, a)
    values = st.sampled_from([Fraction(0), HALF, Fraction(1)])
    return phi, Density(space, tuple(draw(st.lists(values, min_size=d, max_size=d))))


@given(st.one_of(periodic_indicators(), random_densities()))
def test_density_powers_match_the_hash_oracle(case):
    phi, f = case
    p = transfer_operator(phi)
    report = density_power_sequence(p, f)
    assert report == _hashed_density_powers(p, f)
    assert power_sequence(p).period % report.period == 0


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
    whole = algebra_from_blocks(space, [(0, 1)])
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


def _dense_fixed_space_dimension(m):
    """Test oracle: Gauss-Jordan elimination on a dense copy of M - I."""
    d = m.dimension
    rows = [
        [m.entries[i][j] - (1 if i == j else 0) for j in range(d)] for i in range(d)
    ]
    rank = 0
    for col in range(d):
        pivot = next((r for r in range(rank, d) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for r in range(d):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return d - rank


# zero about two times in three, so that rows have few nonzeros
_sparse_fractions = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def rational_matrices(draw, space):
    """A matrix over the positive atoms of `space`, either random or
    I + (a sum of r outer products), so that M - I has rank at most r."""
    d = len(space.positive_support)
    if draw(st.booleans()):
        rows = draw(
            st.lists(
                st.lists(_sparse_fractions, min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            )
        )
    else:
        rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        for _ in range(draw(st.integers(0, d))):
            u = draw(st.lists(_sparse_fractions, min_size=d, max_size=d))
            v = draw(st.lists(_sparse_fractions, min_size=d, max_size=d))
            for i in range(d):
                for j in range(d):
                    rows[i][j] += u[i] * v[j]
    return matrix_from_entries(space, tuple(tuple(row) for row in rows))


@given(spaces(max_positive=8).flatmap(rational_matrices))
def test_fixed_space_dimension_matches_dense_elimination(m):
    assert fixed_space_dimension(m) == _dense_fixed_space_dimension(m)


@given(spaces(max_positive=8))
def test_fixed_space_dimension_of_a_projection(space):
    proj = rank_one_projection(space)
    assert fixed_space_dimension(proj) == _dense_fixed_space_dimension(proj) == 1


@given(st.integers(0, 2**32), st.integers(0, 500), st.sampled_from([8, 16]))
def test_fixed_space_dimension_counts_invariant_blocks(seed, index, max_atoms):
    space, phi = SystemGenerator(seed, max_positive_atoms=max_atoms).system(index)
    p = transfer_operator(phi)
    blocks = len(invariant_algebra(phi).positive_blocks())
    assert fixed_space_dimension(p) == _dense_fixed_space_dimension(p) == blocks


def _dense_apply(m, f):
    d = m.dimension
    return tuple(
        sum((m.entries[i][j] * f.values[j] for j in range(d)), Fraction(0))
        for i in range(d)
    )


def _dense_compose(a, b):
    d = a.dimension
    return tuple(
        tuple(
            sum((a.entries[i][k] * b.entries[k][j] for k in range(d)), Fraction(0))
            for j in range(d)
        )
        for i in range(d)
    )


def _dense_adjoint(m):
    w = m.weights
    d = m.dimension
    return tuple(
        tuple(w[i] * m.entries[i][j] / w[j] for i in range(d)) for j in range(d)
    )


def _dense_is_bimarkov(m):
    w = m.weights
    d = m.dimension
    return (
        all(v >= 0 for row in m.entries for v in row)
        and all(sum(row, Fraction(0)) == 1 for row in m.entries)
        and all(
            sum((w[i] * m.entries[i][j] for i in range(d)), Fraction(0)) == w[j]
            for j in range(d)
        )
    )


@given(systems(max_positive=8), st.data())
def test_sparse_kernels_match_the_dense_formulas(system, data):
    """Every kernel reads the sparse rows; each must equal a plain d^2
    evaluation of its formula on the dense entries."""
    space, phi = system
    d = len(space.positive_support)
    m = data.draw(rational_matrices(space))
    proj = rank_one_projection(space)
    p = transfer_operator(phi)
    cases = [m, proj, _product(proj, p), _product(p, proj), _product(proj, m)]
    for a in cases:
        assert matrix_from_entries(space, a.entries) == a
        values = data.draw(st.lists(_sparse_fractions, min_size=d, max_size=d))
        f = Density(space, tuple(values))
        assert a.apply(f).values == _dense_apply(a, f)
        assert a.adjoint().entries == _dense_adjoint(a)
        assert a.is_bimarkov() == _dense_is_bimarkov(a)
    assert proj.is_bimarkov() and _product(proj, p).is_bimarkov()


def test_oracle_route_never_reads_the_cycles(monkeypatch):
    generated = [SystemGenerator(11, max_positive_atoms=16).system(i) for i in range(40)]
    generated.append(identity_system(5))
    kinds = {transfer_operator(phi).is_identity for _, phi in generated}
    assert kinds == {True, False}  # the density route runs on both kinds

    def forbidden(*args):
        raise AssertionError("the oracle route read the cycle route")

    monkeypatch.setattr(MeasurePreservingMap, "positive_cycles", property(forbidden))
    monkeypatch.setattr(MeasurePreservingMap, "positive_image_bits", forbidden)
    for space, phi in generated:
        p = transfer_operator(phi)
        t = koopman_operator(phi)
        assert p.is_bimarkov() and p.adjoint() == t and _product(p, t).is_identity
        b = space.set_from_indices([space.positive_support[0]])
        f = indicator(space, b)
        for g in (f, indicator(space, space.full_set()), p.apply(f) + f):
            assert density_power_sequence(p, g) == _hashed_density_powers(p, g)
        assert fixed_space_dimension(p) == _dense_fixed_space_dimension(p)
        assert (lower_bound_witness(p, b) is not None) == power_sequence(p).converges


def test_fixed_space_dimension(three_point, swap):
    _, phi = three_point
    assert fixed_space_dimension(transfer_operator(phi)) == 2
    _, sigma = swap
    assert fixed_space_dimension(transfer_operator(sigma)) == 1
    assert fixed_space_dimension(rank_one_projection(sigma.space)) == 1


def test_matrix_shape_validation(swap):
    space, _ = swap
    one = Fraction(1)
    # the stored rows: (column, value) pairs, columns increasing, values nonzero
    for rows, message in [
        ((((0, one),),), "shape"),  # one row for two positive atoms
        ((((0, one),),) * 3, "shape"),
        ((((2, one),), ((0, one),)), "column 2"),  # column out of range
        ((((-1, one),), ((0, one),)), "column -1"),
        ((((1, HALF), (0, HALF)), ((0, one),)), "column 0"),  # decreasing
        ((((0, HALF), (0, HALF)), ((0, one),)), "column 0"),  # repeated
        ((((0, Fraction(0)), (1, one)), ((0, one),)), "nonzero"),  # stored zero
    ]:
        with pytest.raises(ValueError, match=message):
            MarkovMatrix(space, rows)
    lopsided = matrix_from_entries(space, ((HALF, HALF), (one, one)))
    assert lopsided.rows == (((0, HALF), (1, HALF)), ((0, one), (1, one)))
    assert not lopsided.is_bimarkov()
