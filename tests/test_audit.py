import functools
import hashlib
import itertools
import json
import os
from fractions import Fraction

import pytest

from pfkit import (
    FiniteProbabilitySpace,
    MeasurePreservingMap,
    NotMeasurePreservingError,
    SplitMix64,
    SystemGenerator,
    run_audit,
    three_point_system,
)
import pfkit.audit as audit_module
from pfkit.audit import (
    MASK64,
    _BitSystem,
    _DrawnSplitMix64,
    _audit_image_one,
    _audit_lower_bound_one,
    _audit_structural_one,
    _audit_uniform_one,
    _mass_table,
    _or_table,
    _Recorder,
    _mix64,
    _sample_subsets,
    _worker_count,
)

from conftest import SAMPLED_BOUNDS, cycle_system


def test_splitmix_reference_stream():
    # first outputs of the reference splitmix64 stream for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F
    assert rng.next_u64() == 0xF88BB8A8724C81EC


def test_randrange_bounds_and_determinism():
    rng = SplitMix64(99)
    values = [rng.randrange(7) for _ in range(200)]
    assert set(values) <= set(range(7))
    assert len(set(values)) == 7
    again = SplitMix64(99)
    assert values == [again.randrange(7) for _ in range(200)]
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_shuffle_is_a_permutation():
    rng = SplitMix64(5)
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    assert items != list(range(20))


@pytest.mark.parametrize("count", [0, 1, 4, 256, 257])
@pytest.mark.parametrize("width", [1, 12, 20, 64, 70])
def test_sample_subsets_match_the_scalar_stream(count, width):
    full = (1 << width) - 1
    for seed in (0, 20260814, MASK64):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        words = _sample_subsets(fast, full, count)
        assert words == [slow.next_u64() & full for _ in range(count)]
        assert all(type(w) is int for w in words)
        assert fast.state == slow.state


def test_index_zero_is_the_reserved_fixture():
    gen = SystemGenerator(seed=314)
    space, phi = gen.system(0)
    ref_space, ref_phi = three_point_system()
    assert space == ref_space
    assert phi == ref_phi


def test_generated_systems_are_valid_and_bounded():
    gen = SystemGenerator(seed=11)
    for i in range(1, 60):
        space, phi = gen.system(i)
        assert 1 <= len(space.positive_support) <= 8
        assert space.atom_count - len(space.positive_support) <= 4
        assert space.common_denominator <= 24
        # construction already validated measure preservation; retag anyway
        MeasurePreservingMap(space, phi.targets)


def test_generator_is_deterministic_per_seed_and_index():
    a = SystemGenerator(seed=7).system(13)
    b = SystemGenerator(seed=7).system(13)
    assert a == b
    c = SystemGenerator(seed=8).system(13)
    assert c != a


def _stream_digest(gen: SystemGenerator, count: int = 1000) -> str:
    h = hashlib.sha256()
    for i in range(count):
        space, phi = gen.system(i)
        for m in space.masses:
            h.update(f"{m.numerator}/{m.denominator},".encode())
        h.update(("|" + ",".join(map(str, phi.targets)) + ";").encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "gen, digest",
    [
        (
            SystemGenerator(20260814),
            "300df42f977e1fcce67233430b6e9a1205370b9877aae155cd487af77b021659",
        ),
        (
            SystemGenerator(7),
            "dbae5a1786c6c1a343f8bed23c203321d5d0e5422b01a9bce667343c7225ee8b",
        ),
        (
            SystemGenerator(
                20260814, max_positive_atoms=16, max_null_atoms=4, mass_denominator_bound=48
            ),
            "2fc8d33d5713b9b983751618236db57c8903dc68d5c5610f11ba37c909ada809",
        ),
    ],
    ids=["default", "seed-7", "sampled"],
)
def test_generator_stream_is_pinned(gen, digest):
    # An audit report lists only failures, so a changed population would
    # leave every canonical_json() unchanged; the masses and targets of
    # systems 0..999 pin the stream itself.
    assert _stream_digest(gen) == digest


PINNED_GENERATORS = [SystemGenerator(20260814), SystemGenerator(7), SystemGenerator(20260814, **SAMPLED_BOUNDS)]


@functools.lru_cache(maxsize=None)
def _one_by_one(gen: SystemGenerator) -> tuple:
    return tuple(gen.system(i) for i in range(1000))


@pytest.mark.parametrize("chunk", [1, 7, 32])
@pytest.mark.parametrize("gen", PINNED_GENERATORS, ids=["default", "seed-7", "sampled"])
def test_chunked_systems_match_system_per_index(gen, chunk):
    chunked = [s for lo in range(0, 1000, chunk) for s in gen.systems(lo, min(lo + chunk, 1000))]
    assert tuple(chunked) == _one_by_one(gen)


def _scalar_words(start: int, count: int) -> tuple[list[int], int]:
    """The next `count` words of `SplitMix64(start)` and the state after them."""
    rng = SplitMix64(start)
    return [rng.next_u64() for _ in range(count)], rng.state


def test_rows_are_the_scalar_streams_of_their_indices(monkeypatch):
    """Each system's row holds the first words of its scalar stream, and
    the state it starts from once the row runs out is the scalar state
    after those words."""
    drawn = []

    class Recording(_DrawnSplitMix64):
        def __init__(self, end_state, row):
            drawn.append((list(row), end_state))
            super().__init__(end_state, row)

    monkeypatch.setattr(audit_module, "_DrawnSplitMix64", Recording)
    gen = SystemGenerator(20260814, **SAMPLED_BOUNDS)
    gen.systems(1, 40)
    assert len(drawn) == 39
    for index, (row, end) in enumerate(drawn, 1):
        assert (row, end) == _scalar_words(_mix64(gen.seed ^ index * 0xD1342543DE82EF95), len(row))


def test_an_exhausted_row_goes_on_with_the_scalar_stream():
    start = _mix64(20260814)
    row, end = _scalar_words(start, 8)
    drawn, scalar = _DrawnSplitMix64(end, row), SplitMix64(start)
    assert [drawn.next_u64() for _ in range(20)] == [scalar.next_u64() for _ in range(20)]
    assert drawn.state == scalar.state


@pytest.mark.parametrize("n", [3, 7, 48])
def test_a_rejected_word_in_a_row_takes_the_next_word(n):
    """A word at or above 2^64 - 2^64 mod n is rejected by randrange; one
    injected into a row is skipped, and every accepted draw, in the row and
    past it, is the one the scalar stream makes."""
    start = _mix64(7)
    row, end = _scalar_words(start, 8)
    limit = (1 << 64) - (1 << 64) % n
    row[3:3] = [limit, MASK64]
    drawn, scalar = _DrawnSplitMix64(end, row), SplitMix64(start)
    assert [drawn.randrange(n) for _ in range(20)] == [scalar.randrange(n) for _ in range(20)]
    assert drawn.state == scalar.state


def test_rows_follow_scalar_rejections():
    """With n just above 2^63 about half of all words are rejected, so the
    rows run out early and the draws continue on the scalar stream."""
    n = (1 << 63) + 1
    start = _mix64(1)
    row, end = _scalar_words(start, 8)
    assert any(w >= (1 << 64) - (1 << 64) % n for w in row)
    drawn, scalar = _DrawnSplitMix64(end, row), SplitMix64(start)
    assert [drawn.randrange(n) for _ in range(12)] == [scalar.randrange(n) for _ in range(12)]
    assert drawn.state == scalar.state


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        SystemGenerator(seed=1, max_positive_atoms=0)
    with pytest.raises(ValueError):
        SystemGenerator(seed=1, max_positive_atoms=9, mass_denominator_bound=8)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def positive_permutation_form(space, targets):
    """Whether a target list permutes the positive atoms within mass classes:
    the shape the generator emits, and the test oracle for measure
    preservation on small spaces."""
    pos = set(space.positive_support)
    seen = set()
    for a in pos:
        t = targets[a]
        if t not in pos or space.masses[t] != space.masses[a] or t in seen:
            return False
        seen.add(t)
    return True


def test_valid_maps_are_exactly_mass_class_permutations():
    """Exhaustive check on small spaces: a target list passes measure
    preservation iff it permutes positive atoms within equal-mass classes
    (null atoms are unconstrained)."""
    for q in (2, 4, 6):
        for n_pos in (1, 2, 3):
            if n_pos > q:
                continue
            for parts in _compositions(q, n_pos):
                for n_null in (0, 1):
                    masses = [Fraction(p, q) for p in parts] + [Fraction(0)] * n_null
                    space = FiniteProbabilitySpace.from_masses(masses)
                    k = space.atom_count
                    if k > 4:
                        continue
                    for targets in itertools.product(range(k), repeat=k):
                        expected = positive_permutation_form(space, targets)
                        try:
                            MeasurePreservingMap(space, targets)
                            actual = True
                        except NotMeasurePreservingError:
                            actual = False
                        assert actual == expected, (masses, targets)


def test_or_table():
    per_atom = [0b001, 0b110, 0b010]
    table = _or_table(per_atom)
    for bits in range(8):
        expected = 0
        for a in range(3):
            if bits >> a & 1:
                expected |= per_atom[a]
        assert table[bits] == expected


def test_mass_table(three_point):
    space, _ = three_point
    table = _mass_table(space.integer_masses)
    for bits in range(1 << space.atom_count):
        assert table[bits] == space.measure_bits(bits) * space.common_denominator


def test_bit_system_orbit_big_encodes_the_cycle(three_point):
    space, phi = three_point
    bs = _BitSystem(space, phi)
    bigs, chunk_mask, tail_mask = bs.orbit_bigs()
    # atom "2" funnels into "3": its only cycle cell is {3} masked positive
    a2 = space.atom_index("2")
    assert bigs[a2] & chunk_mask == 1 << space.atom_index("3")
    for a in range(space.atom_count):
        x = bigs[a]
        assert (x ^ (x >> bs.k)) & tail_mask == 0  # every orbit converges here


def _per_atom_walks(phi):
    """Each atom followed through `phi.targets` with a dict of its own until
    it repeats: the reference for the one-pass walks of `_BitSystem`."""
    pres, cycles, walks = [], [], []
    for a in range(len(phi.targets)):
        seen, walk, x = {}, [], a
        while x not in seen:
            seen[x] = len(walk)
            walk.append(x)
            x = phi.targets[x]
        pres.append(seen[x])
        cycles.append(len(walk) - seen[x])
        walks.append(walk)
    return pres, cycles, walks


def test_bit_system_walks_match_the_per_atom_oracle(monkeypatch):
    population = [cycle_system((3, 2), null_targets=(6, 7, 0)), cycle_system((1, 4), null_targets=(5, 5))]
    for gen in (SystemGenerator(20260814), SystemGenerator(7, **SAMPLED_BOUNDS)):
        population += gen.systems(0, 200)

    def production_route(*args, **kwargs):
        raise AssertionError("the audit's own walks read a production route")

    monkeypatch.setattr(audit_module, "set_orbit", production_route)
    monkeypatch.setattr(audit_module, "tail_algebra", production_route)
    monkeypatch.setattr(MeasurePreservingMap, "positive_cycles", property(production_route))
    for space, phi in population:
        bs = _BitSystem(space, phi)
        assert (bs.atom_pre, bs.atom_cycle, bs.atom_walk) == _per_atom_walks(phi)


def test_run_audit_accepts_only_known_names():
    with pytest.raises(ValueError):
        run_audit("nope", seed=1, count=1)
    with pytest.raises(ValueError):
        run_audit("main", seed=1, count=0)


@pytest.mark.parametrize("theorem", ["main", "prop21", "thm22", "lemma23", "structural"])
def test_audits_find_no_failures(theorem):
    report = run_audit(theorem, seed=1234, count=60)
    assert report.ok
    assert report.count == 60
    assert report.theorem == theorem


def test_report_is_byte_deterministic():
    a = run_audit("all", seed=55, count=20)
    b = run_audit("all", seed=55, count=20)
    assert a.canonical_json() == b.canonical_json()
    doc = json.loads(a.canonical_json())
    assert "elapsed_ms" not in doc
    assert doc["schema_version"] == "1"
    assert doc["seed"] == 55 and doc["count"] == 20
    full = a.to_dict()
    assert "elapsed_ms" in full


def test_parallel_run_merges_to_the_same_report():
    solo = run_audit("main", seed=21, count=40, jobs=1)
    split = run_audit("main", seed=21, count=40, jobs=3)
    assert solo.canonical_json() == split.canonical_json()
    # 45 systems in two workers: the second range starts inside a chunk
    gen = SystemGenerator(21, **SAMPLED_BOUNDS)
    solo = run_audit("main", seed=21, count=45, jobs=1, generator=gen)
    split = run_audit("main", seed=21, count=45, jobs=2, generator=gen)
    assert solo.canonical_json() == split.canonical_json()


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _worker_count(1, 100) == 1
    assert _worker_count(3, 100) == 3
    assert _worker_count(0, 100) == 1
    assert _worker_count(-5, 100) == 1
    assert _worker_count(10**9, 100) == 4
    assert _worker_count(3, 2) == 2
    assert _worker_count(4, 1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(8, 100) == 1


def test_structural_audit_checks_transfer_powers(swap, monkeypatch):
    """A cycle-shift route that never moves anything is caught against the
    dense matrix iteration on the swap, where P 1_a = 1_b."""
    monkeypatch.setattr(MeasurePreservingMap, "positive_image_bits", lambda self, bits, n: bits)
    rec = _Recorder()
    _audit_structural_one(0, swap, rec, SplitMix64(_mix64(0)))
    assert {f.check for f in rec.failures} == {"transfer-power"}


def test_audit_actually_detects_route_disagreement(three_point, monkeypatch):
    """Wire-level check that a lying diagnostic route is reported, by
    patching exactness to contradict the defect routes."""
    import pfkit.audit as audit_module

    monkeypatch.setattr(audit_module, "is_exact", lambda phi: True)
    rec = _Recorder()
    rng = SplitMix64(_mix64(0))
    _audit_uniform_one(0, three_point, rec, rng)
    assert rec.failures
    assert rec.failures[0].check in ("defect-routes", "trace-exact")


def test_image_walk_checks_the_step_that_closes_a_cycle(swap, monkeypatch):
    """A fault that loses mass only on the step back into a seen set: {a}
    maps to {a, b} and {a, b} back to {a}."""
    space, phi = swap
    a, ab = space.set_of(["a"]).bits, space.full_mask
    real = MeasurePreservingMap.image_bits

    def faulty(self, bits):
        return {a: ab, ab: a}.get(bits, real(self, bits))

    monkeypatch.setattr(MeasurePreservingMap, "image_bits", faulty)
    rec = _Recorder()
    _audit_image_one(0, swap, rec, SplitMix64(_mix64(0)))
    assert f"A={a:#x}" in {f.detail for f in rec.failures if f.check == "image-monotone"}


def _per_start_image_walk(index, system, rng):
    """`image-monotone` failures when each start walks on its own, for at
    most joint_pre + joint_period + 1 steps, stopping after the step that
    closes a cycle: the reference for the walk that shares verdicts."""
    space, phi = system
    bs = _BitSystem(space, phi)
    rec = _Recorder()
    for a_bits in _sample_subsets(rng, bs.full, 8) + [1 << a for a in range(bs.k)]:
        prev = space.mass_bits(a_bits)
        cur = a_bits
        seen = {cur}
        for _ in range(bs.joint_pre + bs.joint_period + 1):
            cur = phi.image_bits(cur)
            m_cur = space.mass_bits(cur)
            if m_cur < prev:
                rec.fail(index, "image-monotone", f"A={a_bits:#x}")
                break
            if cur in seen:
                break
            seen.add(cur)
            prev = m_cur
    return rec.failures


def _image_monotone(index, system, seed):
    rec = _Recorder()
    _audit_image_one(index, system, rec, SplitMix64(seed))
    return [f for f in rec.failures if f.check == "image-monotone"]


def test_image_walk_reports_every_start_that_reaches_a_fault(monkeypatch):
    """Every set maps onto the full space, and the full space loses mass on
    its way to {0}: each start reaches that step, through the verdict of
    the first walk, and each is reported once."""
    system = cycle_system((1, 1, 1, 1))
    full = system[0].full_mask
    calls = []

    def faulty(self, bits):
        calls.append(bits)
        return 1 if bits == full else full

    monkeypatch.setattr(MeasurePreservingMap, "image_bits", faulty)
    # keep the image-limit checks after the walk from stepping images too
    for route in ("is_exact", "image_mixing_defect", "image_measure_limit"):
        monkeypatch.setattr(audit_module, route, lambda *args: 0)
    starts = _sample_subsets(SplitMix64(_mix64(3)), full, 8) + [1, 2, 4, 8]
    expected = _per_start_image_walk(0, system, SplitMix64(_mix64(3)))
    assert {f.detail for f in expected} == {f"A={a:#x}" for a in starts}
    calls.clear()
    assert _image_monotone(0, system, _mix64(3)) == expected
    # one step per distinct start, and the full space's step once
    assert len(calls) == len(set(starts) - {full}) + 1


@pytest.mark.parametrize(
    "chain, failing, passing",
    [
        ({1 << a: (1 << (a + 1)) & 0x3F for a in range(6)}, {"A=0x10", "A=0x20"}, "A=0x8"),
        ({1 << a: (1 << a) >> 1 for a in range(6)}, {"A=0x1", "A=0x2"}, "A=0x4"),
    ],
    ids=["up", "down"],
)
def test_image_walk_keeps_the_step_bound(monkeypatch, chain, failing, passing):
    """Singletons step along a chain that loses mass only on its step to
    the empty set.  Six fixed points give a bound of two steps, so only the
    two singletons nearest that step fail.  Up the chain, the walks from
    {0} and {3} end unclosed, and taking them as lossless would hide {4}
    and {5}.  Down it, {2} reaches the known verdict of {1} one step beyond
    its bound."""
    system = cycle_system((1,) * 6)
    real = MeasurePreservingMap.image_bits

    def faulty(self, bits):
        return chain.get(bits, real(self, bits))

    monkeypatch.setattr(MeasurePreservingMap, "image_bits", faulty)
    expected = _per_start_image_walk(0, system, SplitMix64(_mix64(0)))
    assert failing <= {f.detail for f in expected}
    assert passing not in {f.detail for f in expected}
    assert _image_monotone(0, system, _mix64(0)) == expected


def test_shared_image_walk_matches_the_per_start_walk(monkeypatch):
    """A lossy image map on generated systems: the shared walk reports
    exactly the starts, in order, that the per-start walk reports."""
    real = MeasurePreservingMap.image_bits

    def lossy(self, bits):
        image = real(self, bits)
        return image & (image - 1) if bits % 7 == 3 else image

    monkeypatch.setattr(MeasurePreservingMap, "image_bits", lossy)
    reported = 0
    for gen in (SystemGenerator(20260814), SystemGenerator(7, **SAMPLED_BOUNDS)):
        for index, system in enumerate(gen.systems(0, 150)):
            expected = _per_start_image_walk(index, system, SplitMix64(_mix64(index)))
            assert _image_monotone(index, system, _mix64(index)) == expected
            reported += len(expected)
    assert reported > 100


def test_witness_route_sees_a_cycle_among_fixed_points():
    """Above the exhaustive limit, a swap among twelve fixed points makes
    powers diverge; random sets almost always hold a fixed point, so only
    the positive singletons reveal the atoms that lie on no full cycle."""
    space = FiniteProbabilitySpace.from_masses([Fraction(1, 14)] * 14)
    phi = MeasurePreservingMap(space, (1, 0) + tuple(range(2, 14)))
    rec = _Recorder()
    _audit_lower_bound_one(0, (space, phi), rec, SplitMix64(_mix64(0)))
    assert rec.failures == []


def test_report_serialization_round_trip():
    from pfkit import AuditFailure, AuditReport

    failure = AuditFailure(1, "a-check", "y")
    report = AuditReport(
        theorem="main", seed=0, count=3, failures=(failure,), elapsed_ms=1
    )
    doc = report.to_dict()
    assert doc["failures"] == [
        {"system_index": 1, "check": "a-check", "detail": "y"}
    ]
    assert not report.ok
