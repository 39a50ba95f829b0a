"""Acceptance gate: one test per criterion, each printing a PASS line.

Every assertion here is exact (rational equality) unless the criterion is
about the float discretization layer, where the stated tolerances apply.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import time
from fractions import Fraction

import numpy as np

from pfkit import (
    SplitMix64,
    SystemGenerator,
    DyadicSet,
    dense_exact_matrix,
    exactness_profile,
    identity_system,
    image_defect,
    image_measure_profile,
    indicator,
    koopman_operator,
    minimal_invariant_superset,
    mixing_profile,
    power_sequence,
    run_audit,
    set_orbit,
    single_atom_with_nulls,
    three_point_system,
    transfer_operator,
    two_atom_swap,
    ulam_assemble,
)
from pfkit.dyadic import image_measure_limit

from conftest import image, inner

F = Fraction
SEED = 20260814
POPULATION = 1000


def _announce(number: int, message: str, started: float) -> None:
    elapsed = time.monotonic() - started
    print(f"[ACCEPTANCE] criterion {number}: PASS {message} ({elapsed:.2f}s)")


def test_criterion_1_fixture_exactness():
    started = time.monotonic()
    space, phi = three_point_system()
    a12 = space.set_of(["1", "2"])
    a13 = space.set_of(["1", "3"])
    a1 = space.set_of(["1"])

    current = a12
    for _ in range(8):
        current = image(phi, current)
        assert current == a13  # exact set equality, not just classes
    report = set_orbit(phi, a12)
    assert report.converges
    assert report.limit_class == a13.algebra_class()
    assert report.limit_class == space.full_set().algebra_class()
    assert minimal_invariant_superset(phi, a12) == space.full_set()
    assert image(phi, a1) == a1
    assert a1.algebra_class() != space.full_set().algebra_class()
    assert time.monotonic() - started < 1.0
    _announce(1, "reserved fixture reproduces every claimed identity exactly", started)


def test_criterion_2_convergence_equivalence_audit():
    started = time.monotonic()
    report = run_audit("main", seed=SEED, count=POPULATION)
    assert report.ok, report.failures[:5]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _announce(
        2,
        f"orbit/operator/tail routes agree on {POPULATION} systems, "
        "limits identified exactly",
        started,
    )


def test_criterion_3_lower_bound_audit():
    started = time.monotonic()
    report = run_audit("prop21", seed=SEED, count=POPULATION)
    assert report.ok, report.failures[:5]
    _announce(
        3,
        f"witness criterion matches operator convergence on {POPULATION} systems, "
        "closed forms equal brute force",
        started,
    )


def test_criterion_4_defect_criteria_audit():
    started = time.monotonic()
    uniform = run_audit("thm22", seed=SEED, count=POPULATION)
    assert uniform.ok, uniform.failures[:5]
    image = run_audit("lemma23", seed=SEED, count=POPULATION)
    assert image.ok, image.failures[:5]
    _announce(
        4,
        "exactness agrees with uniform, trace-local and forward-image "
        f"defect limits on {POPULATION} systems",
        started,
    )


def test_criterion_5_identity_rigidity():
    started = time.monotonic()
    gen = SystemGenerator(SEED)
    for index in range(POPULATION):
        _, phi = gen.system(index)
        p = transfer_operator(phi)
        report = power_sequence(p)
        assert report.converges == p.is_identity
        if p.is_identity:
            assert report.preperiod == 0 and report.period == 1
    _announce(
        5,
        f"powers converge exactly when P is the identity, all {POPULATION} systems",
        started,
    )


def _random_dyadic(rng: SplitMix64, level: int) -> DyadicSet:
    n = 1 << level
    words = max(1, n // 64)
    bits = 0
    while bits == 0:
        bits = 0
        for word in range(words):
            bits |= rng.next_u64() << (64 * word)
        bits &= (1 << n) - 1
    return DyadicSet.from_pairs(
        [(F(i, n), F(i + 1, n)) for i in range(n) if bits >> i & 1]
    )


def test_criterion_6_dyadic_exactness():
    started = time.monotonic()
    rng = SplitMix64(SEED)
    targets = []
    for level in range(4):  # exhaustive through level 3
        n = 1 << level
        targets += [
            DyadicSet.from_pairs(
                [(F(i, n), F(i + 1, n)) for i in range(n) if bits >> i & 1]
            )
            for bits in range(1, 1 << n)
        ]
    for level in range(4, 11):  # seeded samples up to level 10
        targets += [_random_dyadic(rng, level) for _ in range(8)]

    for b in targets:
        k = b.level
        profile = exactness_profile(b, k + 3)
        assert all(d == 0 for d in profile[k:])
        assert all(d >= 0 for d in profile)
        measures = image_measure_profile(b, k + 1)
        assert all(x <= y for x, y in zip(measures, measures[1:]))
        assert measures[k] == 1  # saturation within level(A) steps
        assert image_measure_limit(b) == 1
        cur = b
        for n_step in range(k + 2):
            assert image_defect(b, n_step) == 1 - cur.measure
            cur = cur.image()
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _announce(
        6,
        f"defect profiles vanish from the set level on, images saturate "
        f"({len(targets)} dyadic targets through level 10)",
        started,
    )


def test_criterion_7_ulam_cross_validation():
    started = time.monotonic()
    for level in (4, 8, 10):
        bins = 1 << level
        model = ulam_assemble("doubling", bins)
        assert np.abs(model.matrix - dense_exact_matrix(level)).max() <= 1e-12
        profile, verdict = mixing_profile(model, [0], n_max=level + 2, tol=1e-12)
        assert verdict == "exact-like"
        assert profile[level] <= 1e-12

    rotation = ulam_assemble("rotation", 64, alpha=F(1, 4))
    profile, verdict = mixing_profile(rotation, list(range(32)), n_max=64)
    assert verdict == "non-mixing"
    assert profile.min() > 1e-3
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _announce(
        7,
        "Ulam doubling equals the exact operator to 1e-12 and mixes by "
        "step k; rotation control stalls",
        started,
    )


def test_criterion_8_structural_invariants():
    started = time.monotonic()
    report = run_audit("structural", seed=SEED, count=POPULATION)
    assert report.ok, report.failures[:5]

    fixture_systems = [
        three_point_system(),
        two_atom_swap(),
        identity_system(3),
        single_atom_with_nulls(2),
    ]
    for space, phi in fixture_systems:
        p = transfer_operator(phi)
        t = koopman_operator(phi)
        assert p.is_bimarkov() and t.is_bimarkov()
        assert p.adjoint() == t
        for a_bits in range(1 << space.atom_count):
            fa = indicator(space, space.set_from_bits(a_bits))
            for b_bits in range(1 << space.atom_count):
                fb = indicator(space, space.set_from_bits(b_bits))
                assert inner(p.apply(fa), fb) == inner(fa, t.apply(fb))
    _announce(
        8,
        f"operator identities, isometry and metric axioms hold on all "
        f"fixtures and {POPULATION} random systems",
        started,
    )
