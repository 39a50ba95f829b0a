from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pfkit import (
    FiniteProbabilitySpace,
    MeasurePreservingMap,
    NotMeasurePreservingError,
    OrbitTooLongError,
    SigmaSubAlgebra,
    SystemGenerator,
    completions_equal,
    identity_system,
    invariant_algebra,
    minimal_invariant_superset,
    set_orbit,
    single_atom_with_nulls,
    tail_algebra,
)

from pfkit import dynamics

from conftest import (
    PRIME_CYCLES,
    SAMPLED_BOUNDS,
    algebra_from_blocks,
    cycle_starts,
    cycle_system,
    image,
    preimage,
    spaces,
    systems,
)


def test_mass_transport_must_balance(three_point):
    space, _ = three_point
    # sending everything onto atom "3" leaves the fiber of "1" empty
    with pytest.raises(NotMeasurePreservingError) as exc:
        MeasurePreservingMap(space, (2, 2, 2))
    assert "'1'" in str(exc.value)
    assert "1/2" in str(exc.value)


def test_imbalance_reports_fraction_masses():
    space = FiniteProbabilitySpace.from_masses(
        [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)], labels=["a", "b", "c"]
    )
    with pytest.raises(NotMeasurePreservingError) as exc:
        MeasurePreservingMap(space, (0, 0, 2))
    err = exc.value
    assert (err.label, err.expected, err.actual) == ("a", Fraction(1, 6), Fraction(1, 2))
    assert type(err.expected) is Fraction and type(err.actual) is Fraction
    assert str(err) == "atom 'a': preimage mass 1/2 != atom mass 1/6"


def _first_imbalance(space, targets):
    """The former Fraction fiber check: the first atom whose fiber mass is off."""
    fiber = [Fraction(0)] * space.atom_count
    for x, y in enumerate(targets):
        fiber[y] += space.masses[x]
    for y, m in enumerate(space.masses):
        if fiber[y] != m:
            return space.atom_labels[y], m, fiber[y]
    return None


@given(systems(max_positive=6, max_null=3, denominator_bound=24), st.data())
def test_mass_balance_matches_the_fraction_oracle(system, data):
    # a valid map, with up to two targets redrawn at random
    space, phi = system
    targets = list(phi.targets)
    atom = st.integers(0, space.atom_count - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        targets[data.draw(atom)] = data.draw(atom)
    targets = tuple(targets)
    expected = _first_imbalance(space, targets)
    try:
        MeasurePreservingMap(space, targets)
        actual = None
    except NotMeasurePreservingError as err:
        actual = (err.label, err.expected, err.actual)
    assert actual == expected


def test_positive_atom_cannot_reach_null(three_point):
    space, _ = three_point
    with pytest.raises(NotMeasurePreservingError):
        MeasurePreservingMap(space, (1, 2, 2))


def test_from_labels(three_point):
    space, phi = three_point
    rebuilt = MeasurePreservingMap.from_labels(space, {"1": "1", "2": "3", "3": "3"})
    assert rebuilt == phi
    assert MeasurePreservingMap(space, phi.targets) == phi


def test_image_and_preimage(three_point):
    space, phi = three_point
    a12 = space.set_of(["1", "2"])
    assert sorted(image(phi, a12).labels()) == ["1", "3"]
    assert sorted(preimage(phi, space.set_of(["3"])).labels()) == ["2", "3"]
    assert preimage(phi, space.set_of(["2"])).measure == 0
    assert _iterate_atom(phi, space.atom_index("2"), 5) == space.atom_index("3")


@given(systems(), st.data())
def test_preimage_preserves_measure(system, data):
    space, phi = system
    bits = data.draw(st.integers(0, space.full_mask))
    a = space.set_from_bits(bits)
    assert preimage(phi, a).measure == a.measure


@given(systems(), st.data())
def test_image_never_loses_measure(system, data):
    space, phi = system
    a = space.set_from_bits(data.draw(st.integers(0, space.full_mask)))
    assert image(phi, a).measure >= a.measure
    # A always sits inside the preimage of its image
    assert not (a - preimage(phi, image(phi, a))).bits


def test_algebra_blocks_validation(three_point):
    space, _ = three_point
    with pytest.raises(ValueError):
        algebra_from_blocks(space, [(0, 1)])  # atom 2 uncovered
    with pytest.raises(ValueError):
        algebra_from_blocks(space, [(0, 1), (1, 2)])  # overlap
    with pytest.raises(ValueError, match="empty"):
        algebra_from_blocks(space, [(0, 1, 2), ()])
    for index in (3, 5, -1):
        with pytest.raises(ValueError, match=f"atom index {index} out of range"):
            algebra_from_blocks(space, [(0, 1), (2, index)])
    # the stored form: nonempty disjoint masks covering the atoms, by lowest bit
    for block_bits, message in [
        ((0b011, 0, 0b100), "nonempty"),
        ((-1,), "nonempty"),
        ((0b011, 0b110), "overlap"),
        ((0b011, 0b100, 0b1000), "atom index 3 out of range"),
        ((0b011,), "cover every atom"),
        ((0b110, 0b001), "ordered"),
    ]:
        with pytest.raises(ValueError, match=message):
            SigmaSubAlgebra(space, block_bits)
    assert SigmaSubAlgebra(space, (0b101, 0b010)).blocks == ((0, 2), (1,))


# The tuple-of-indices partition code that the block bitmasks replaced, kept
# as an oracle for the views derived from them.


def _old_canonical(blocks):
    return tuple(sorted((tuple(sorted(set(b))) for b in blocks), key=lambda b: b[0]))


def _old_bits(block):
    bits = 0
    for i in block:
        bits |= 1 << i
    return bits


def _old_block_of_atom(blocks, n):
    owner = [0] * n
    for bi, block in enumerate(blocks):
        for i in block:
            owner[i] = bi
    return tuple(owner)


def _old_contains(blocks, bits):
    for block in blocks:
        b = _old_bits(block)
        inter = bits & b
        if inter != 0 and inter != b:
            return False
    return True


def _old_refines(fine, coarse, n):
    owner = _old_block_of_atom(fine, n)
    for block in coarse:
        union = 0
        for i in block:
            union |= _old_bits(fine[owner[i]])
        if union != _old_bits(block):
            return False
    return True


def _old_positive_blocks(space, blocks):
    posmask = space.positive_mask
    out = []
    for block in blocks:
        kept = tuple(i for i in block if posmask >> i & 1)
        if kept:
            out.append(kept)
    return tuple(sorted(out, key=lambda b: b[0]))


def _old_completion(space, blocks):
    posmask = space.positive_mask
    nulls = [(i,) for i in range(space.atom_count) if not posmask >> i & 1]
    return _old_canonical([*_old_positive_blocks(space, blocks), *nulls])


def contains_set(alg, a):
    """Membership: A is in the algebra iff it is a union of blocks."""
    alg.space._require_same(a.space)
    return all(a.bits & b in (0, b) for b in alg.block_bits)


def completion(alg):
    """The completion modulo null sets, within the power set: the
    refinement that splits every null atom into its own singleton block.
    The oracle of `completions_equal`."""
    space = alg.space
    nulls = [1 << i for i in range(space.atom_count) if not space.positive_mask >> i & 1]
    blocks = sorted([*alg.positive_blocks(), *nulls], key=lambda b: b & -b)
    return SigmaSubAlgebra(space, tuple(blocks))


def _coarsens(fine, coarse):
    """Whether every block of `coarse` is a member set of `fine`."""
    return all(contains_set(fine, fine.space.set_from_bits(b)) for b in coarse.block_bits)


def _groups(labels):
    """The atoms sharing each label, as lists in first-seen order."""
    groups = {}
    for atom, label in enumerate(labels):
        groups.setdefault(label, []).append(atom)
    return list(groups.values())


@given(spaces(max_positive=6, max_null=4), st.data())
def test_block_views_match_the_tuple_partition_oracle(space, data):
    n = space.atom_count
    labelings = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    labels, merge, other = data.draw(labelings), data.draw(labelings), data.draw(labelings)
    # blocks in any order, members in any order, a member given twice
    raw = [data.draw(st.permutations(g)) for g in _groups(labels)]
    raw = data.draw(st.permutations([b + b[:1] for b in raw]))
    alg = algebra_from_blocks(space, raw)
    old = _old_canonical(raw)

    assert alg.blocks == old
    assert alg.block_bits == tuple(_old_bits(b) for b in old)
    assert alg.block_of_atom == _old_block_of_atom(old, n)
    positive = tuple(space.set_from_bits(b).atoms() for b in alg.positive_blocks())
    assert tuple(map(tuple, positive)) == _old_positive_blocks(space, old)
    assert completion(alg).blocks == _old_completion(space, old)
    assert algebra_from_blocks(space, alg.blocks) == alg
    merged = [merge[label] for label in labels]  # a coarsening of alg
    assert _coarsens(alg, algebra_from_blocks(space, _groups(merged)))
    for coarse_labels in (merged, other):
        coarse = algebra_from_blocks(space, _groups(coarse_labels))
        coarse_old = _old_canonical(_groups(coarse_labels))
        assert _coarsens(alg, coarse) == _old_refines(old, coarse_old, n)
        assert _coarsens(coarse, alg) == _old_refines(coarse_old, old, n)
        assert completions_equal(alg, coarse) == (completion(alg) == completion(coarse))
    union = sum(b for b in alg.block_bits if data.draw(st.booleans()))
    for bits in (union, data.draw(st.integers(0, space.full_mask))):
        assert contains_set(alg, space.set_from_bits(bits)) == _old_contains(old, bits)


def test_algebra_membership(three_point):
    space, _ = three_point
    alg = algebra_from_blocks(space, [(0,), (1, 2)])
    assert contains_set(alg, space.set_of(["2", "3"]))
    assert not contains_set(alg, space.set_of(["3"]))
    members = {
        tuple(sorted(s.labels()))
        for s in map(space.set_from_bits, range(1 << space.atom_count))
        if contains_set(alg, s)
    }
    assert members == {(), ("1",), ("2", "3"), ("1", "2", "3")}


def test_invariant_algebra_blocks(three_point):
    space, phi = three_point
    alg = invariant_algebra(phi)
    assert alg.blocks == ((0,), (1, 2))


def _iterate_atom(phi, atom, n):
    for _ in range(n):
        atom = phi.targets[atom]
    return atom


def preimage_algebra(phi, n):
    """The algebra {phi^-n(A)}: the partition into fibers of the n-fold map,
    each atom walked n steps on its own."""
    fibers = {}
    for x in range(phi.space.atom_count):
        y = _iterate_atom(phi, x, n)
        fibers[y] = fibers.get(y, 0) | 1 << x
    return SigmaSubAlgebra(phi.space, tuple(fibers.values()))


def looped_tail_algebra(phi):
    """The oracle of `tail_algebra`: preimage algebras built one by one
    until two consecutive ones agree."""
    prev = preimage_algebra(phi, 0)
    for n in range(1, phi.space.atom_count + 2):
        cur = preimage_algebra(phi, n)
        if cur.block_bits == prev.block_bits:
            return prev, n - 1
        prev = cur
    raise AssertionError("preimage chain failed to stabilize within the bound")


def test_preimage_algebra_chain(three_point):
    space, phi = three_point
    assert preimage_algebra(phi, 0).blocks == ((0,), (1,), (2,))
    assert preimage_algebra(phi, 1).blocks == ((0,), (1, 2))
    assert preimage_algebra(phi, 2).blocks == ((0,), (1, 2))


@given(systems())
def test_preimage_algebras_coarsen(system):
    _, phi = system
    previous = preimage_algebra(phi, 0)
    for n in range(1, 4):
        current = preimage_algebra(phi, n)
        assert _coarsens(previous, current)
        previous = current


def test_tail_algebra_stabilizes(three_point):
    _, phi = three_point
    tail, index = tail_algebra(phi)
    assert tail.blocks == ((0,), (1, 2))
    assert index == 1


def test_tail_of_invertible_map_is_discrete(swap):
    _, phi = swap
    tail, index = tail_algebra(phi)
    assert tail.blocks == ((0,), (1,))
    assert index == 0


@st.composite
def null_trees(draw, max_nulls=40):
    """Equal-mass positive atoms on cycles with up to `max_nulls` null atoms
    hanging off them.  A null atom mostly maps to the null atom drawn just
    before it, so long chains are common, but it may also map to any atom
    (null cycles included).  Atoms are then shuffled, so the chains do not
    follow the atom order."""
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    k, m = sum(lengths), draw(st.integers(0, max_nulls))
    targets = list(cycle_system(lengths)[1].targets)
    for j in range(k, k + m):
        targets.append(
            draw(st.one_of(st.just(j - 1), st.integers(0, j - 1), st.integers(0, k + m - 1)))
        )
    order = draw(st.permutations(range(k + m)))  # atom x becomes order[x]
    masses = [Fraction(0)] * (k + m)
    shuffled = [0] * (k + m)
    for x, y in enumerate(targets):
        masses[order[x]] = Fraction(1, k) if x < k else Fraction(0)
        shuffled[order[x]] = order[y]
    space = FiniteProbabilitySpace.from_masses(masses)
    return space, MeasurePreservingMap(space, tuple(shuffled))


@given(st.one_of(null_trees(), systems()))
def test_tail_algebra_matches_the_looped_oracle(system):
    _, phi = system
    assert tail_algebra(phi) == looped_tail_algebra(phi)


@pytest.mark.parametrize(
    "gen",
    [SystemGenerator(20260814), SystemGenerator(7), SystemGenerator(20260814, **SAMPLED_BOUNDS)],
    ids=["default", "seed-7", "sampled"],
)
def test_tail_algebra_matches_the_looped_oracle_on_pinned_systems(gen):
    indices = set()
    for _, phi in gen.systems(0, 1000):
        tail = tail_algebra(phi)
        assert tail == looped_tail_algebra(phi)
        indices.add(tail[1])
    assert len(indices) > 1


def test_tail_of_a_null_chain_stabilizes_at_its_length():
    """One positive fixed point with a chain of null atoms ending in it."""
    k = 300
    space = FiniteProbabilitySpace.from_masses([Fraction(1)] + [Fraction(0)] * (k - 1))
    phi = MeasurePreservingMap(space, (0, *range(k - 1)))
    tail, index = tail_algebra(phi)
    assert index == k - 1
    assert tail.block_bits == (space.full_mask,)


def _refuse(*args, **kwargs):
    raise AssertionError("the tail route read another route")


@given(st.one_of(null_trees(), systems()))
def test_tail_route_reads_no_other_route(system):
    _, phi = system
    expected = looped_tail_algebra(phi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MeasurePreservingMap, "positive_cycles", property(_refuse))
        mp.setattr(dynamics, "set_orbit", _refuse)
        mp.setattr(dynamics, "invariant_algebra", _refuse)
        assert tail_algebra(phi) == expected


def test_completion_splits_null_atoms(three_point):
    space, phi = three_point
    completed = completion(invariant_algebra(phi))
    assert completed.blocks == ((0,), (1,), (2,))


def test_completions_equal_routes(three_point, swap):
    _, phi = three_point
    assert completions_equal(tail_algebra(phi)[0], invariant_algebra(phi))
    _, sigma = swap
    assert not completions_equal(tail_algebra(sigma)[0], invariant_algebra(sigma))


def test_forward_orbit_of_mixed_set(three_point):
    space, phi = three_point
    report = set_orbit(phi, space.set_of(["1", "2"]))
    assert report.preperiod == 1 and report.period == 1
    assert sorted(report.set_at(0).labels()) == ["1", "2"]
    for n in range(1, 5):
        assert sorted(report.set_at(n).labels()) == ["1", "3"]
    assert report.converges
    assert report.limit_class == space.set_of(["1", "3"]).algebra_class()


def test_forward_orbit_fixed_set(three_point):
    space, phi = three_point
    report = set_orbit(phi, space.set_of(["1"]))
    assert report.converges
    assert report.preperiod == 0 and report.period == 1
    assert report.limit_class == space.set_of(["1"]).algebra_class()
    assert report.limit_class != space.full_set().algebra_class()


def test_backward_orbit(three_point):
    space, phi = three_point
    report = set_orbit(phi, space.set_of(["3"]), direction="backward")
    assert report.converges
    assert report.limit_class == space.set_of(["3"]).algebra_class()
    assert sorted(report.set_at(1).labels()) == ["2", "3"]


def test_diverging_orbit(swap):
    space, phi = swap
    report = set_orbit(phi, space.set_of(["a"]))
    assert not report.converges
    assert report.limit_class is None
    assert report.period == 2


def test_minimal_invariant_superset(three_point):
    space, phi = three_point
    star = minimal_invariant_superset(phi, space.set_of(["1", "2"]))
    assert sorted(star.labels()) == ["1", "2", "3"]
    assert sorted(minimal_invariant_superset(phi, space.set_of(["1"])).labels()) == ["1"]
    assert minimal_invariant_superset(phi, space.set_from_bits(0)).measure == 0


@given(systems(), st.data())
def test_superset_is_union_of_touched_components(system, data):
    space, phi = system
    a = space.set_from_bits(data.draw(st.integers(0, space.full_mask)))
    star = minimal_invariant_superset(phi, a)
    expected = 0
    for block in invariant_algebra(phi).blocks:
        bits = 0
        for atom in block:
            bits |= 1 << atom
        if bits & a.bits:
            expected |= bits
    assert star.bits == expected
    assert not (image(phi, star) - star).bits
    assert preimage(phi, star) == star


def test_null_chain_fixture():
    space, phi = single_atom_with_nulls(3)
    assert space.positive_support == (0,)
    report = set_orbit(phi, space.set_of(["n2"]))
    assert report.converges
    # the null chain funnels into the positive fixed point
    assert report.limit_class == space.set_of(["p"]).algebra_class()


def test_identity_system_orbits():
    space, phi = identity_system(4)
    for bits in range(1 << 4):
        report = set_orbit(phi, space.set_from_bits(bits))
        assert report.converges and report.period == 1 and report.preperiod == 0


@given(systems())
def test_positive_cycles_partition_the_positive_atoms(system):
    space, phi = system
    covered = 0
    for atoms, mask in phi.positive_cycles:
        assert atoms[0] == min(atoms)
        assert mask == space.set_from_indices(atoms).bits and not mask & covered
        covered |= mask
        for i, atom in enumerate(atoms):
            assert phi.targets[atom] == atoms[(i + 1) % len(atoms)]
    assert covered == space.positive_mask
    firsts = [atoms[0] for atoms, _ in phi.positive_cycles]
    assert firsts == sorted(firsts)


def test_set_orbit_length_is_capped(monkeypatch):
    # one atom per cycle of lengths 2..13: the orbit is lcm = 30,030 sets long
    space, phi = cycle_system(PRIME_CYCLES)
    monkeypatch.setattr(dynamics, "MAX_ORBIT_LENGTH", 1000)
    with pytest.raises(OrbitTooLongError, match="within 1000 steps"):
        set_orbit(phi, space.set_from_bits(cycle_starts(PRIME_CYCLES)))
    with pytest.raises(OrbitTooLongError):
        set_orbit(phi, space.set_from_bits(cycle_starts(PRIME_CYCLES)), "backward")
    # the 13-cycle alone: an orbit of exactly the cap is allowed
    last = space.set_from_indices([space.atom_count - 1])
    monkeypatch.setattr(dynamics, "MAX_ORBIT_LENGTH", 13)
    assert set_orbit(phi, last).period == 13
    monkeypatch.setattr(dynamics, "MAX_ORBIT_LENGTH", 12)
    with pytest.raises(OrbitTooLongError):
        set_orbit(phi, last)
