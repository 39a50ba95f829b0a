"""Mixing-hierarchy diagnostics with closed-form defect suprema.

Every classifier here computes at least two routes that are equivalent by
theory but algorithmically unrelated (operator algebra versus set/partition
dynamics) and raises DiagnosticInconsistencyError if they ever disagree;
the equivalences themselves are exercised at scale by the audit harness.

The suprema over measurable sets that appear in the defect definitions are
never enumerated here: on a power set the extremal set for integral(g over A)
is {g > 0}, so each defect collapses to positive/negative-part integrals.
Brute-force enumeration survives only in tests and audits as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import (
    MeasurePreservingMap,
    invariant_algebra,
    set_orbit,
    tail_algebra,
)
from .errors import DiagnosticInconsistencyError, NullTraceError
from .operators import (
    conditional_expectation,
    density_power_sequence,
    fixed_space_dimension,
    power_sequence,
    rank_one_projection,
    transfer_operator,
    transfer_power,
)
from .space import (
    ONE,
    ZERO,
    Density,
    MeasurableSet,
    constant_density,
    indicator,
)


def _positive_block_count(phi: MeasurePreservingMap, blocks) -> int:
    masses = phi.space.masses
    count = 0
    for block in blocks:
        if any(masses[i] > 0 for i in block):
            count += 1
    return count


def is_ergodic(phi: MeasurePreservingMap) -> bool:
    """Whether the fixed space of the transfer operator is the constants.

    Cross-checked against the partition route: exactly one invariant block
    of positive mass.
    """
    operator_route = fixed_space_dimension(transfer_operator(phi)) == 1
    partition_route = _positive_block_count(phi, invariant_algebra(phi).blocks) == 1
    if operator_route != partition_route:
        raise DiagnosticInconsistencyError(
            f"ergodicity routes disagree: operator={operator_route} "
            f"partition={partition_route}"
        )
    return operator_route


def _correlations_converge_to_product(phi: MeasurePreservingMap) -> bool:
    """Setwise mixing on atom pairs: mu(phi^-n(A) inter B) -> mu(A) mu(B).

    Checking singletons suffices since both sides are additive in A and B.
    The correlation sequence is eventually periodic, so convergence means
    every cycle value equals the product.
    """
    space = phi.space
    for a in space.positive_support:
        singleton = space.set_from_bits(1 << a)
        orbit = set_orbit(phi, singleton, direction="backward")
        for b in space.positive_support:
            want = space.masses[a] * space.masses[b]
            for j in range(orbit.period):
                pre = orbit.orbit_sets[orbit.preperiod + j]
                if space.measure_bits(pre.bits & (1 << b)) != want:
                    return False
    return True


def is_mixing(phi: MeasurePreservingMap) -> bool:
    """Whether transfer powers converge to the averaging projection.

    Operator route: the power sequence converges and its limit is the
    rank-one projection.  Set route: atom-pair correlations converge to the
    product of the masses.
    """
    p = transfer_operator(phi)
    report = power_sequence(p)
    operator_route = report.converges and report.limit == rank_one_projection(phi.space)
    set_route = _correlations_converge_to_product(phi)
    if operator_route != set_route:
        raise DiagnosticInconsistencyError(
            f"mixing routes disagree: operator={operator_route} set={set_route}"
        )
    return operator_route


def _atom_images_fill_space(phi: MeasurePreservingMap) -> bool:
    """Whether mu(phi^n(A)) -> 1 for every positive singleton A."""
    space = phi.space
    for a in space.positive_support:
        orbit = set_orbit(phi, space.set_from_bits(1 << a), direction="forward")
        cycle_measures = {
            orbit.orbit_sets[orbit.preperiod + j].measure for j in range(orbit.period)
        }
        if cycle_measures != {ONE}:
            return False
    return True


def is_exact(phi: MeasurePreservingMap) -> bool:
    """Whether the tail algebra is trivial modulo null sets.

    Three routes: the tail partition has a single positive-mass block; the
    transfer powers converge to the averaging projection; every positive
    atom's forward image eventually has full measure.
    """
    tail, _ = tail_algebra(phi)
    tail_route = _positive_block_count(phi, tail.blocks) == 1

    p = transfer_operator(phi)
    report = power_sequence(p)
    operator_route = report.converges and report.limit == rank_one_projection(phi.space)

    image_route = _atom_images_fill_space(phi)
    if not tail_route == operator_route == image_route:
        raise DiagnosticInconsistencyError(
            f"exactness routes disagree: tail={tail_route} "
            f"operator={operator_route} image={image_route}"
        )
    return tail_route


def uniform_mixing_defect(
    phi: MeasurePreservingMap, b: MeasurableSet, n: int
) -> Fraction:
    """sup over A of |mu(phi^-n(A) inter B) - mu(A) mu(B)|.

    The integrand identity mu(phi^-n(A) inter B) = integral over A of
    P^n 1_B turns the supremum into max of the positive and negative part
    masses of g = P^n 1_B - mu(B); the extremal sets are {g > 0}, {g < 0}.
    P^n 1_B comes from `transfer_power`.
    """
    phi.space._require_same(b.space)
    g = transfer_power(phi, indicator(phi.space, b), n) - constant_density(
        phi.space, b.measure
    )
    return max(g.positive_part().integral(), g.negative_part().integral())


def trace_mixing_defect(
    phi: MeasurePreservingMap, b: MeasurableSet, d: MeasurableSet, n: int
) -> Fraction:
    """The same supremum restricted to subsets of the trace set D.

    P^n 1_B comes from `transfer_power`.
    """
    phi.space._require_same(b.space)
    phi.space._require_same(d.space)
    if d.measure == 0:
        raise NullTraceError("trace set must have positive mass")
    g = transfer_power(phi, indicator(phi.space, b), n) - constant_density(
        phi.space, b.measure
    )
    return max(
        g.positive_part().integral_over(d), g.negative_part().integral_over(d)
    )


def lower_bound_defect(
    phi: MeasurePreservingMap,
    b: MeasurableSet,
    d: MeasurableSet,
    c: Fraction,
    n: int,
) -> Fraction:
    """inf over A of (mu(phi^-n(A) inter B) - c mu(D inter A)); always <= 0.

    The infimum of integral over A of (P^n 1_B - c 1_D) is attained on the
    strict negativity set, giving minus the negative-part mass.  P^n 1_B
    comes from `transfer_power`.
    """
    phi.space._require_same(b.space)
    phi.space._require_same(d.space)
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if d.measure == 0:
        raise NullTraceError("trace set must have positive mass")
    h = transfer_power(phi, indicator(phi.space, b), n) - indicator(phi.space, d).scale(c)
    return -h.negative_part().integral()


def lower_bound_witness(
    phi: MeasurePreservingMap, b: MeasurableSet
) -> tuple[MeasurableSet, Fraction] | None:
    """A trace set and constant making the lower-bound defect stabilize at 0.

    Exists exactly when the transfer powers converge: then f = lim P^n 1_B
    is nonnegative with integral mu(B) > 0, c is its smallest positive
    value, and D = {f >= c} = {f > 0}.  Divergent powers return None.
    """
    phi.space._require_same(b.space)
    if b.measure == 0:
        raise ValueError("witness requires a set of positive mass")
    p = transfer_operator(phi)
    if not power_sequence(p).converges:
        return None
    report = density_power_sequence(p, indicator(phi.space, b))
    f = report.limit
    assert isinstance(f, Density) and report.converges
    c = f.min_positive()
    d_bits = 0
    for k, atom in enumerate(phi.space.positive_support):
        if f.values[k] >= c:
            d_bits |= 1 << atom
    return MeasurableSet(phi.space, d_bits), c


def image_measure_limit(phi: MeasurePreservingMap, a: MeasurableSet) -> Fraction:
    """lim mu(phi^n(A)): the forward image measures are nondecreasing
    (A sits inside the preimage of its image) and eventually periodic,
    hence eventually constant.
    """
    phi.space._require_same(a.space)
    orbit = set_orbit(phi, a, direction="forward")
    measures = [s.measure for s in orbit.orbit_sets]
    for prev, cur in zip(measures, measures[1:]):
        if cur < prev:
            raise DiagnosticInconsistencyError("image measures decreased")
    cycle = {orbit.orbit_sets[orbit.preperiod + j].measure for j in range(orbit.period)}
    if len(cycle) != 1:
        raise DiagnosticInconsistencyError("image measure cycle not constant")
    return cycle.pop()


def image_mixing_defect(
    phi: MeasurePreservingMap, a: MeasurableSet, n: int
) -> Fraction:
    """sup over B of |mu(phi^n(A) inter B) - lim_m mu(phi^m(A)) mu(B)|.

    With a = lim mu(phi^m(A)) the supremum is the larger of
    (1 - a) mu(phi^n(A)) and a (1 - mu(phi^n(A))), by the same
    positive/negative part argument applied to 1_{phi^n(A)} - a.
    """
    phi.space._require_same(a.space)
    limit = image_measure_limit(phi, a)
    orbit = set_orbit(phi, a, direction="forward")
    m_n = orbit.set_at(n).measure
    return max((ONE - limit) * m_n, limit * (ONE - m_n))


def limit_vanishes(phi: MeasurePreservingMap, f: Density) -> bool:
    """Whether P^n f -> 0, decided through the completed tail algebra.

    The conditional expectation of f on the completed tail algebra must
    vanish on every positive-mass block; cross-checked against literal
    power iteration of the density.
    """
    phi.space._require_same(f.space)
    tail, _ = tail_algebra(phi)
    expectation = conditional_expectation(phi.space, tail.completion(), f)
    algebra_route = all(v == 0 for v in expectation.values)

    report = density_power_sequence(transfer_operator(phi), f)
    power_route = report.converges and all(
        v == 0 for v in report.limit.values  # type: ignore[union-attr]
    )
    if algebra_route != power_route:
        raise DiagnosticInconsistencyError(
            f"vanishing-limit routes disagree: algebra={algebra_route} "
            f"power={power_route}"
        )
    return algebra_route


@dataclass(frozen=True)
class MixingProfile:
    """Classification flags plus an optional defect profile.

    The flag implications (exact implies mixing implies ergodic, and exact
    implies convergent powers) are structural and enforced at construction.
    """

    ergodic: bool
    mixing: bool
    exact: bool
    powers_converge: bool
    defects: tuple[Fraction, ...] = ()
    witness: tuple[MeasurableSet, Fraction] | None = None

    def __post_init__(self) -> None:
        if self.exact and not self.mixing:
            raise DiagnosticInconsistencyError("exact system reported non-mixing")
        if self.mixing and not self.ergodic:
            raise DiagnosticInconsistencyError("mixing system reported non-ergodic")
        if self.exact and not self.powers_converge:
            raise DiagnosticInconsistencyError("exact system with divergent powers")


def classify(
    phi: MeasurePreservingMap,
    profile_set: MeasurableSet | None = None,
    n_max: int = 8,
) -> MixingProfile:
    """Run the full hierarchy with a defect profile for `profile_set`,
    defaulting to the first positive atom."""
    p = transfer_operator(phi)
    space = phi.space
    if profile_set is None:
        profile_set = space.set_from_indices([space.positive_support[0]])
    defects = tuple(
        uniform_mixing_defect(phi, profile_set, n) for n in range(n_max + 1)
    )
    witness = None
    if profile_set.measure > 0:
        witness = lower_bound_witness(phi, profile_set)
    return MixingProfile(
        ergodic=is_ergodic(phi),
        mixing=is_mixing(phi),
        exact=is_exact(phi),
        powers_converge=power_sequence(p).converges,
        defects=defects,
        witness=witness,
    )
