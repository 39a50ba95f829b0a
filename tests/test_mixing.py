from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pfkit import (
    FiniteProbabilitySpace,
    MeasurePreservingMap,
    MixingProfile,
    NullTraceError,
    classify,
    identity_system,
    image_measure_limit,
    image_mixing_defect,
    indicator,
    is_ergodic,
    is_exact,
    is_mixing,
    limit_vanishes,
    lower_bound_defect,
    lower_bound_witness,
    single_atom_with_nulls,
    trace_mixing_defect,
    two_atom_swap,
    uniform_mixing_defect,
)

from conftest import systems

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def test_hierarchy_on_fixtures(three_point, swap):
    _, phi = three_point
    assert not is_ergodic(phi)
    assert not is_mixing(phi)
    assert not is_exact(phi)

    _, sigma = swap
    assert is_ergodic(sigma)
    assert not is_mixing(sigma)

    _, single = single_atom_with_nulls()
    assert is_exact(single) and is_mixing(single) and is_ergodic(single)

    _, ident = identity_system(3)
    assert not is_ergodic(ident)


def test_uniform_defect_is_constant_here(three_point):
    space, phi = three_point
    b = space.set_of(["1"])
    for n in range(5):
        assert uniform_mixing_defect(phi, b, n) == QUARTER


def test_uniform_defect_null_target(three_point):
    space, phi = three_point
    assert uniform_mixing_defect(phi, space.set_of(["2"]), 3) == 0


def test_uniform_defect_full_target(three_point):
    space, phi = three_point
    assert uniform_mixing_defect(phi, space.full_set(), 2) == 0


def test_trace_defect(three_point):
    space, phi = three_point
    b = space.set_of(["1"])
    assert trace_mixing_defect(phi, b, space.set_of(["1"]), 1) == QUARTER
    assert trace_mixing_defect(phi, b, space.set_of(["3"]), 1) == QUARTER
    with pytest.raises(NullTraceError):
        trace_mixing_defect(phi, b, space.set_of(["2"]), 1)


@given(systems(), st.data())
def test_trace_defect_bounded_by_uniform(system, data):
    space, phi = system
    bits = st.integers(0, space.full_mask)
    b = space.set_from_bits(data.draw(bits))
    d = space.set_from_bits(data.draw(bits))
    if d.measure == 0:
        return
    n = data.draw(st.integers(0, 3))
    assert trace_mixing_defect(phi, b, d, n) <= uniform_mixing_defect(phi, b, n)


def test_lower_bound_defect_worked_example(three_point):
    # B={1}, D={3}, c=1/2 at n=1: the negative part sits on atom 3 with
    # value 1/2 and mass 1/2, so the defect is -1/4
    space, phi = three_point
    value = lower_bound_defect(phi, space.set_of(["1"]), space.set_of(["3"]), HALF, 1)
    assert value == Fraction(-1, 4)


def _iterated_preimage(phi, a, n):
    for _ in range(n):
        a = phi.preimage(a)
    return a


def test_lower_bound_defect_matches_brute_force(three_point):
    space, phi = three_point
    b = space.set_of(["1"])
    d = space.set_of(["3"])
    c = HALF
    for n in range(3):
        closed = lower_bound_defect(phi, b, d, c, n)
        brute = min(
            (_iterated_preimage(phi, space.set_from_bits(bits), n) & b).measure
            - c * (space.set_from_bits(bits) & d).measure
            for bits in range(1 << space.atom_count)
        )
        assert closed == brute


def test_lower_bound_defect_validation(three_point):
    space, phi = three_point
    b = space.set_of(["1"])
    with pytest.raises(ValueError):
        lower_bound_defect(phi, b, space.set_of(["1"]), Fraction(0), 1)
    with pytest.raises(NullTraceError):
        lower_bound_defect(phi, b, space.set_of(["2"]), Fraction(1), 1)


def test_witness_on_convergent_system(three_point):
    space, phi = three_point
    b = space.set_of(["1", "2"])
    witness = lower_bound_witness(phi, b)
    assert witness is not None
    d, c = witness
    assert sorted(d.labels()) == ["1"]
    assert c == 1
    for n in range(4):
        assert lower_bound_defect(phi, b, d, c, n) == 0


def test_witness_absent_when_powers_diverge(swap):
    space, phi = swap
    assert lower_bound_witness(phi, space.set_of(["a"])) is None


def test_witness_requires_positive_target(three_point):
    space, phi = three_point
    with pytest.raises(ValueError):
        lower_bound_witness(phi, space.set_of(["2"]))


@given(systems(), st.data())
def test_lower_bound_defect_never_positive(system, data):
    space, phi = system
    bits = st.integers(0, space.full_mask)
    b = space.set_from_bits(data.draw(bits))
    d = space.set_from_bits(data.draw(bits))
    if d.measure == 0:
        return
    n = data.draw(st.integers(0, 3))
    c = data.draw(st.sampled_from([Fraction(1, 3), HALF, Fraction(1), Fraction(2)]))
    assert lower_bound_defect(phi, b, d, c, n) <= 0


def test_image_measures(three_point):
    space, phi = three_point
    a = space.set_of(["2"])
    assert image_measure_limit(phi, a) == HALF
    assert image_mixing_defect(phi, a, 0) == HALF
    for n in (1, 2, 3):
        assert image_mixing_defect(phi, a, n) == QUARTER


def test_image_defect_vanishes_on_exact_system():
    space, phi = single_atom_with_nulls()
    for bits in range(1, 1 << space.atom_count):
        a = space.set_from_bits(bits)
        assert image_measure_limit(phi, a) == 1
        assert image_mixing_defect(phi, a, space.atom_count + 1) == 0


def test_limit_vanishes(three_point):
    space, phi = three_point
    null_f = indicator(space, space.set_of(["2"]))
    assert limit_vanishes(phi, null_f)
    assert not limit_vanishes(phi, indicator(space, space.set_of(["1"])))


def test_limit_vanishes_diverging_powers(swap):
    space, phi = swap
    f = indicator(space, space.set_of(["a"])) - indicator(space, space.set_of(["b"]))
    assert not limit_vanishes(phi, f)
    from pfkit import constant_density

    assert limit_vanishes(phi, constant_density(space, Fraction(0)))


def test_profile_invariants_enforced():
    from pfkit import DiagnosticInconsistencyError

    with pytest.raises(DiagnosticInconsistencyError):
        MixingProfile(
            ergodic=False, mixing=True, exact=False, powers_converge=True, defects=()
        )
    with pytest.raises(DiagnosticInconsistencyError):
        MixingProfile(
            ergodic=True, mixing=True, exact=True, powers_converge=False, defects=()
        )


def test_classify(three_point):
    space, phi = three_point
    profile = classify(phi, n_max=2)
    assert not profile.ergodic and profile.powers_converge
    assert profile.defects == (QUARTER, QUARTER, QUARTER)
    assert profile.witness is not None


def test_classify_exact_system():
    _, phi = single_atom_with_nulls()
    profile = classify(phi, n_max=2)
    assert profile.exact and profile.mixing and profile.ergodic
    assert profile.defects == (Fraction(0),) * 3


@given(systems())
def test_exactness_iff_single_positive_atom(system):
    space, phi = system
    assert is_exact(phi) == (len(space.positive_support) == 1)


@given(systems(), st.integers(0, 3))
def test_uniform_defect_of_atom_is_stationary(system, n):
    """Bijective positive dynamics keep indicator mass in one atom, so the
    uniform defect of any positive atom is mu(1-mu) at every step."""
    space, phi = system
    for a in space.positive_support:
        b = space.set_from_indices([a])
        mu = space.masses[a]
        assert uniform_mixing_defect(phi, b, n) == mu * (1 - mu)


@st.composite
def cycle_type_systems(draw, max_positive=512):
    """A positive permutation of equal-mass classes, plus null atoms mapped
    anywhere, with the atoms shuffled; returns the space, the map and the
    positive permutation (atom -> atom)."""
    k = draw(st.one_of(st.just(max_positive), st.integers(1, max_positive)))
    cuts = sorted(draw(st.sets(st.integers(1, k - 1), max_size=3))) if k > 1 else []
    classes = [range(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, k])]
    weights = [draw(st.integers(1, 3)) for _ in classes]
    total = sum(w * len(c) for w, c in zip(weights, classes))
    masses = [Fraction(w, total) for w, c in zip(weights, classes) for _ in c]
    perm = list(range(k))
    for members in classes:
        shape = draw(st.sampled_from(["identity", "one cycle", "any"]))
        if shape == "any":
            for src, dst in zip(members, draw(st.permutations(members))):
                perm[src] = dst
        elif shape == "one cycle":  # follow a drawn order around one loop
            order = draw(st.permutations(members))
            for src, dst in zip(order, order[1:] + order[:1]):
                perm[src] = dst
    nulls = draw(st.integers(0, 3))
    n = k + nulls
    place = draw(st.permutations(range(n)))  # position of each logical atom
    targets = [0] * n
    for x in range(k):
        targets[place[x]] = place[perm[x]]
    for x in range(k, n):
        targets[place[x]] = draw(st.integers(0, n - 1))
    space = FiniteProbabilitySpace.from_masses(
        [masses[x] if x < k else 0 for x in sorted(range(n), key=place.__getitem__)]
    )
    cycle = {place[x]: place[perm[x]] for x in range(k)}
    return space, MeasurePreservingMap(space, tuple(targets)), cycle


def _cycle_count(cycle):
    seen, count = set(), 0
    for start in cycle:
        if start not in seen:
            count += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = cycle[x]
    return count


@settings(max_examples=25)
@given(cycle_type_systems(), st.data())
def test_classify_matches_the_cycle_type(case, data):
    """On a finite system every verdict follows from the cycle type of the
    positive permutation, at sizes the audits never reach."""
    space, phi, cycle = case
    pos = space.positive_mask
    b_bits = data.draw(st.integers(1, space.full_mask).filter(lambda b: b & pos))
    b = space.set_from_bits(b_bits)
    profile = classify(phi, profile_set=b, n_max=2)
    identity = all(x == y for x, y in cycle.items())
    assert profile.ergodic == (_cycle_count(cycle) == 1)
    assert profile.mixing == profile.exact == (len(cycle) == 1)
    assert profile.powers_converge == identity
    if identity:
        assert profile.witness == (space.set_from_bits(b_bits & pos), 1)
    else:
        assert profile.witness is None
    mu = b.measure
    assert profile.defects == (mu * (1 - mu),) * 3
