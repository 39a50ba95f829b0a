"""Mixing-hierarchy diagnostics with closed-form defect suprema.

Every classifier here computes at least two routes that are equivalent by
theory but algorithmically unrelated (operator algebra versus set/partition
dynamics) and raises DiagnosticInconsistencyError if they ever disagree;
the equivalences themselves are exercised at scale by the audit harness.

The suprema over measurable sets that appear in the defect definitions are
never enumerated here: on a power set the extremal set for integral(g over A)
is {g > 0}, so each defect collapses to positive/negative-part integrals.
Brute-force enumeration survives only in tests and audits as an oracle.

Measure preservation makes phi permute the positive atoms (pi), so the
transfer operator acts as f -> f o pi^-1 and P^n 1_B = 1_{B_n} with
B_n = phi^n(B inter positive support).  The lower-bound, trace and image
defects are therefore a few set masses, summed as integer numerators over
`common_denominator` and returned as one Fraction per call:

- lower bound: -(c mu(D minus B_n) + max(c - 1, 0) mu(D inter B_n))
- trace: max(mu(B_n inter D)(1 - mu(B)), mu(B) mu(D minus B_n))
- image: max((1 - a) mu(phi^n(A)), a (1 - mu(phi^n(A)))), a = lim mu(phi^m(A))

B_n comes from `phi.positive_image_bits` in O(d) for any n: each atom of
B moves n mod its cycle length along its cycle of `phi.positive_cycles`.
The uniform defect builds P^n 1_B = 1_{B_n} from the same B_n and keeps the
Density arithmetic (difference, positive and negative parts, integrals).
The dense matrix of `transfer_operator` feeds only the operator routes
(the classifiers and the witness), which never read the cycles.  The
classifiers take it with its power report from `transfer_powers`, which
reports a matrix that is not a permutation as a defect of the toolkit.
`lower_bound_witness(p, b)` takes that matrix rather than the map, so
`classify` and the prop21 audit build it once per system and pass it to
every witness call; `power_sequence` keeps its report on the matrix, so
the powers of one matrix are classified once.
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
    MarkovMatrix,
    density_power_sequence,
    fixed_space_dimension,
    power_sequence,
    rank_one_projection,
    transfer_operator,
    transfer_powers,
)
from .space import (
    ONE,
    Density,
    MeasurableSet,
    constant_density,
    indicator,
)


def is_ergodic(phi: MeasurePreservingMap) -> bool:
    """Whether the fixed space of the transfer operator is the constants.

    Cross-checked against the partition route: exactly one invariant block
    of positive mass.
    """
    operator_route = fixed_space_dimension(transfer_operator(phi)) == 1
    partition_route = len(invariant_algebra(phi).positive_blocks()) == 1
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
    _, report = transfer_powers(phi)
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
    tail_route = len(tail.positive_blocks()) == 1

    _, report = transfer_powers(phi)
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
    P^n 1_B is the indicator of B_n from `phi.positive_image_bits`.
    """
    space = phi.space
    space._require_same(b.space)
    b_n = MeasurableSet(space, phi.positive_image_bits(b.bits, n))
    g = indicator(space, b_n) - constant_density(space, b.measure)
    return max(g.positive_part().integral(), g.negative_part().integral())


def _trace_masses(
    phi: MeasurePreservingMap, b: MeasurableSet, d: MeasurableSet, n: int
) -> tuple[int, int]:
    """Numerators of mu(D inter B_n) and mu(D minus B_n), B_n as above.

    Validates the trace set and n on the way.
    """
    space = phi.space
    d_mass = space.mass_bits(d.bits)
    if d_mass == 0:
        raise NullTraceError("trace set must have positive mass")
    inside = space.mass_bits(d.bits & phi.positive_image_bits(b.bits, n))
    return inside, d_mass - inside


def trace_mixing_defect(
    phi: MeasurePreservingMap, b: MeasurableSet, d: MeasurableSet, n: int
) -> Fraction:
    """The uniform supremum restricted to subsets of the trace set D.

    With g = P^n 1_B - mu(B) = 1_{B_n} - mu(B) the extremal subsets of D are
    D inter B_n and D minus B_n, so the defect is
    max(mu(B_n inter D)(1 - mu(B)), mu(B) mu(D minus B_n)).
    """
    phi.space._require_same(b.space)
    phi.space._require_same(d.space)
    inside, outside = _trace_masses(phi, b, d, n)
    q = phi.space.common_denominator
    m_b = phi.space.mass_bits(b.bits)
    return Fraction(max(inside * (q - m_b), m_b * outside), q * q)


def lower_bound_defect(
    phi: MeasurePreservingMap,
    b: MeasurableSet,
    d: MeasurableSet,
    c: Fraction,
    n: int,
) -> Fraction:
    """inf over A of (mu(phi^-n(A) inter B) - c mu(D inter A)); always <= 0.

    The infimum of integral over A of (P^n 1_B - c 1_D) = 1_{B_n} - c 1_D is
    attained on the strict negativity set: D minus B_n, where the integrand
    is -c, and D inter B_n when c > 1, where it is 1 - c.  So the defect is
    -(c mu(D minus B_n) + max(c - 1, 0) mu(D inter B_n)).
    """
    phi.space._require_same(b.space)
    phi.space._require_same(d.space)
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    inside, outside = _trace_masses(phi, b, d, n)
    p, r = c.numerator, c.denominator
    loss = p * outside + max(p - r, 0) * inside
    return Fraction(-loss, r * phi.space.common_denominator)


def lower_bound_witness(
    p: MarkovMatrix, b: MeasurableSet
) -> tuple[MeasurableSet, Fraction] | None:
    """A trace set and constant making the lower-bound defect stabilize at 0.

    `p` is the transfer matrix of the map, `transfer_operator(phi)`; the
    witness reads only the dense operator route, so a caller that holds the
    matrix passes it instead of rebuilding it per target set.  A witness
    exists exactly when the transfer powers converge: then
    f = lim P^n 1_B is nonnegative with integral mu(B) > 0, c is its
    smallest positive value, and D = {f >= c} = {f > 0}.  Divergent powers
    return None.
    """
    space = p.space
    space._require_same(b.space)
    if b.measure == 0:
        raise ValueError("witness requires a set of positive mass")
    if not power_sequence(p).converges:
        return None
    report = density_power_sequence(p, indicator(space, b))
    f = report.limit
    assert isinstance(f, Density) and report.converges
    c = f.min_positive()
    d_bits = 0
    for k, atom in enumerate(space.positive_support):
        if f.values[k] >= c:
            d_bits |= 1 << atom
    return MeasurableSet(space, d_bits), c


def _image_masses(phi: MeasurePreservingMap, a: MeasurableSet) -> list[int]:
    """Numerators of mu(phi^n(A)) for n = 0, 1, ... until they settle.

    Positive atoms map onto positive atoms, so the positive part of an image
    only moves by pi, keeping its mass, except for what null atoms of the
    image send into it.  The walk stops once the image holds no null atom,
    or after as many steps as there are null atoms, when every null atom
    left lies on a null cycle and sends nothing.  Every later mass equals
    the last one listed.  The masses never decrease (A sits inside the
    preimage of its image).
    """
    space = phi.space
    nulls = space.full_mask & ~space.positive_mask
    cur = a.bits
    masses = [space.mass_bits(cur)]
    for _ in range(space.atom_count - len(space.positive_support)):
        if not cur & nulls:
            break
        cur = phi.image_bits(cur)
        masses.append(space.mass_bits(cur))
        if masses[-1] < masses[-2]:
            raise DiagnosticInconsistencyError("image measures decreased")
    return masses


def image_measure_limit(phi: MeasurePreservingMap, a: MeasurableSet) -> Fraction:
    """lim mu(phi^n(A)): the forward image measures are nondecreasing and
    constant once the image holds no null atom off a null cycle, which
    takes at most as many steps as there are null atoms.
    """
    phi.space._require_same(a.space)
    return Fraction(_image_masses(phi, a)[-1], phi.space.common_denominator)


def image_mixing_defect(
    phi: MeasurePreservingMap, a: MeasurableSet, n: int
) -> Fraction:
    """sup over B of |mu(phi^n(A) inter B) - lim_m mu(phi^m(A)) mu(B)|.

    With a = lim mu(phi^m(A)) the supremum is the larger of
    (1 - a) mu(phi^n(A)) and a (1 - mu(phi^n(A))), by the same
    positive/negative part argument applied to 1_{phi^n(A)} - a.  Both
    masses come from one walk of at most the null-atom count steps.
    """
    phi.space._require_same(a.space)
    masses = _image_masses(phi, a)
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = phi.space.common_denominator
    limit, m_n = masses[-1], masses[min(n, len(masses) - 1)]
    return Fraction(max((q - limit) * m_n, limit * (q - m_n)), q * q)


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
    p, powers = transfer_powers(phi)
    space = phi.space
    if profile_set is None:
        profile_set = space.set_from_indices([space.positive_support[0]])
    defects = tuple(
        uniform_mixing_defect(phi, profile_set, n) for n in range(n_max + 1)
    )
    witness = None
    if profile_set.measure > 0:
        witness = lower_bound_witness(p, profile_set)
    return MixingProfile(
        ergodic=is_ergodic(phi),
        mixing=is_mixing(phi),
        exact=is_exact(phi),
        powers_converge=powers.converges,
        defects=defects,
        witness=witness,
    )
