import io
from fractions import Fraction
from functools import lru_cache

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from pfkit import (
    FiniteProbabilitySpace,
    MeasurePreservingMap,
    MixingProfile,
    NullTraceError,
    SystemGenerator,
    apply_power,
    classify,
    constant_density,
    identity_system,
    image_measure_limit,
    image_mixing_defect,
    indicator,
    is_ergodic,
    is_exact,
    is_mixing,
    lower_bound_defect,
    lower_bound_witness,
    save_system,
    set_orbit,
    single_atom_with_nulls,
    trace_mixing_defect,
    transfer_operator,
    uniform_mixing_defect,
)
from pfkit import dynamics, mixing, operators
from pfkit.cli import main
from pfkit.systemio import write_profile_csv

from conftest import PRIME_CYCLES, cycle_starts, cycle_system, preimage, systems

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
        a = preimage(phi, a)
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
    witness = lower_bound_witness(transfer_operator(phi), b)
    assert witness is not None
    d, c = witness
    assert sorted(d.labels()) == ["1"]
    assert c == 1
    for n in range(4):
        assert lower_bound_defect(phi, b, d, c, n) == 0


def test_witness_absent_when_powers_diverge(swap):
    space, phi = swap
    assert lower_bound_witness(transfer_operator(phi), space.set_of(["a"])) is None


def test_witness_requires_positive_target(three_point):
    space, phi = three_point
    with pytest.raises(ValueError):
        lower_bound_witness(transfer_operator(phi), space.set_of(["2"]))


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


# The Density-route bodies of the closed-form defects, kept as oracles:
# P^n 1_B from the dense matrix iterated by `apply_power`, suprema from
# positive and negative parts, image measures from the literal `set_orbit`.
# The matrix, the forward orbit and its limit are cached, since a profile
# asks for the same ones at every n and the orbit of one atom per cycle of
# `PRIME_CYCLES` is 30,030 sets long.


@lru_cache(maxsize=4)
def _forward_orbit(phi, a):
    return set_orbit(phi, a, direction="forward")


@lru_cache(maxsize=4)
def _transfer_operator(phi):
    return transfer_operator(phi)


def _dense_power(phi, b, n):
    return apply_power(_transfer_operator(phi), indicator(phi.space, b), n)


def oracle_uniform_mixing_defect(phi, b, n):
    phi.space._require_same(b.space)
    g = _dense_power(phi, b, n) - constant_density(phi.space, b.measure)
    return max(g.positive_part().integral(), g.negative_part().integral())


def oracle_trace_mixing_defect(phi, b, d, n):
    phi.space._require_same(b.space)
    phi.space._require_same(d.space)
    if d.measure == 0:
        raise NullTraceError("trace set must have positive mass")
    g = _dense_power(phi, b, n) - constant_density(phi.space, b.measure)
    return max(
        g.positive_part().integral_over(d), g.negative_part().integral_over(d)
    )


def oracle_lower_bound_defect(phi, b, d, c, n):
    phi.space._require_same(b.space)
    phi.space._require_same(d.space)
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if d.measure == 0:
        raise NullTraceError("trace set must have positive mass")
    h = _dense_power(phi, b, n) - indicator(phi.space, d).scale(c)
    return -h.negative_part().integral()


@lru_cache(maxsize=4)
def oracle_image_measure_limit(phi, a):
    phi.space._require_same(a.space)
    orbit = _forward_orbit(phi, a)
    measures = [s.measure for s in orbit.orbit_sets]
    for prev, cur in zip(measures, measures[1:]):
        assert cur >= prev, "image measures decreased"
    cycle = {orbit.orbit_sets[orbit.preperiod + j].measure for j in range(orbit.period)}
    assert len(cycle) == 1, "image measure cycle not constant"
    return cycle.pop()


def oracle_image_mixing_defect(phi, a, n):
    phi.space._require_same(a.space)
    limit = oracle_image_measure_limit(phi, a)
    orbit = _forward_orbit(phi, a)
    m_n = orbit.set_at(n).measure
    return max((1 - limit) * m_n, limit * (1 - m_n))


LEVELS = [Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)]


@st.composite
def systems_with_null_cycles(draw):
    """`systems` with some null atoms rewired onto one cycle of their own;
    the other null atoms keep their random targets, which may lead into it."""
    space, phi = draw(systems(max_positive=6, max_null=5))
    nulls = [a for a in range(space.atom_count) if space.masses[a] == 0]
    loop = draw(st.lists(st.sampled_from(nulls), unique=True)) if nulls else []
    targets = list(phi.targets)
    for src, dst in zip(loop, loop[1:] + loop[:1]):
        targets[src] = dst
    return space, MeasurePreservingMap(space, tuple(targets))


@settings(max_examples=150)
@given(systems_with_null_cycles(), st.data())
def test_closed_form_defects_match_the_density_oracles(system, data):
    space, phi = system
    bits = st.integers(0, space.full_mask)
    b = space.set_from_bits(data.draw(bits))
    d = space.set_from_bits(data.draw(bits.filter(lambda x: space.mass_bits(x) > 0)))
    # past every cycle length and the null-atom count
    for n in range(2 * space.atom_count + 2):
        assert uniform_mixing_defect(phi, b, n) == oracle_uniform_mixing_defect(phi, b, n)
        assert trace_mixing_defect(phi, b, d, n) == oracle_trace_mixing_defect(phi, b, d, n)
        for c in LEVELS:
            want = oracle_lower_bound_defect(phi, b, d, c, n)
            assert lower_bound_defect(phi, b, d, c, n) == want
        assert image_mixing_defect(phi, b, n) == oracle_image_mixing_defect(phi, b, n)
    assert image_measure_limit(phi, b) == oracle_image_measure_limit(phi, b)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_closed_form_errors_match_the_oracles(three_point):
    space, phi = three_point
    b, full, null = space.set_of(["1"]), space.full_set(), space.set_of(["2"])
    cases = [
        (lower_bound_defect, oracle_lower_bound_defect, (phi, b, full, Fraction(0), 1)),
        (lower_bound_defect, oracle_lower_bound_defect, (phi, b, full, Fraction(-1, 2), 1)),
        (lower_bound_defect, oracle_lower_bound_defect, (phi, b, null, Fraction(0), 1)),
        (lower_bound_defect, oracle_lower_bound_defect, (phi, b, null, HALF, 1)),
        (lower_bound_defect, oracle_lower_bound_defect, (phi, b, null, HALF, -1)),
        (lower_bound_defect, oracle_lower_bound_defect, (phi, b, full, HALF, -1)),
        (trace_mixing_defect, oracle_trace_mixing_defect, (phi, b, null, 1)),
        (trace_mixing_defect, oracle_trace_mixing_defect, (phi, b, null, -1)),
        (trace_mixing_defect, oracle_trace_mixing_defect, (phi, b, full, -1)),
        (image_mixing_defect, oracle_image_mixing_defect, (phi, b, -1)),
        (uniform_mixing_defect, oracle_uniform_mixing_defect, (phi, b, -1)),
    ]
    for closed, oracle, args in cases:
        assert _raised(closed, *args) == _raised(oracle, *args)


def test_closed_forms_use_neither_set_orbit_nor_transfer_power(monkeypatch):
    cases = []
    for i in range(30):
        space, phi = SystemGenerator(5).system(i)
        b = space.set_from_indices(range(0, space.atom_count, 2))
        d = space.set_from_indices([space.positive_support[-1]])
        for n in (0, 1, 7, 40):
            want = (
                oracle_uniform_mixing_defect(phi, b, n),
                oracle_lower_bound_defect(phi, b, d, Fraction(3, 2), n),
                oracle_trace_mixing_defect(phi, b, d, n),
                oracle_image_measure_limit(phi, b),
                oracle_image_mixing_defect(phi, b, n),
            )
            cases.append((phi, b, d, n, want))

    def forbidden(*args, **kwargs):
        raise AssertionError("a closed-form defect walked an orbit or a power")

    for module in (mixing, dynamics):
        monkeypatch.setattr(module, "set_orbit", forbidden)
    monkeypatch.setattr(operators, "apply_power", forbidden)
    monkeypatch.setattr(mixing, "transfer_operator", forbidden)
    for phi, b, d, n, want in cases:
        got = (
            uniform_mixing_defect(phi, b, n),
            lower_bound_defect(phi, b, d, Fraction(3, 2), n),
            trace_mixing_defect(phi, b, d, n),
            image_measure_limit(phi, b),
            image_mixing_defect(phi, b, n),
        )
        assert got == want


def _single_cycle_with_null_tail():
    # atoms 0..15 on one cycle; null atoms 16 -> 17 -> 18 -> 0 and 19 -> 19
    return cycle_system([16], null_targets=(17, 18, 0, 19))


@pytest.mark.parametrize(
    "system, b_bits, d_bits",
    [
        (cycle_system(PRIME_CYCLES), cycle_starts(PRIME_CYCLES), sum(1 << i for i in range(0, 41, 3))),
        (_single_cycle_with_null_tail(), 1 << 0 | 1 << 3 | 1 << 16, 0b1_0000_0001_1111_1110),
    ],
    ids=["prime-cycles", "single-cycle"],
)
def test_mixing_profile_csv_matches_the_oracle_route(tmp_path, system, b_bits, d_bits):
    space, phi = system
    b, d = space.set_from_bits(b_bits), space.set_from_bits(d_bits)
    path = tmp_path / "system.json"
    save_system(path, space, phi, {"B": b, "D": d})
    oracles = {
        "uniform": lambda n: oracle_uniform_mixing_defect(phi, b, n),
        "lower": lambda n: oracle_lower_bound_defect(phi, b, d, Fraction(3, 2), n),
        "trace": lambda n: oracle_trace_mixing_defect(phi, b, d, n),
        "image": lambda n: oracle_image_mixing_defect(phi, b, n),
    }
    out = tmp_path / "profile.csv"
    for kind, oracle in oracles.items():
        argv = ["mixing-profile", str(path), "--set", "B", "--kind", kind, "--n-max", "64"]
        argv += ["--trace", "D", "--c", "3/2", "--out", str(out)]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, result.output
        want = io.StringIO(newline="")
        write_profile_csv(want, [oracle(n) for n in range(65)])
        assert out.read_bytes() == want.getvalue().encode()
