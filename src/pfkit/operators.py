"""Transfer and composition operators on L1 of a finite space.

Operators are exact rational matrices over the positive atoms; null atoms
vanish in L1 and are dropped.  The transfer operator moves mass forward
through the map, its adjoint composes with the map, and both are bi-Markov.
Power sequences are detected exactly: for permutation-structured matrices
the period is the lcm of the cycle lengths, and anything else falls back to
hashing within MAX_STEPS steps.

Two routes compute transfer powers.  The production path is
`transfer_power`: measure preservation makes P permute the positive atoms
with unit weights, so P^n f = f o pi^-n is read off the cycles of the
positive permutation pi without arithmetic.  The dense matrix of
`transfer_operator`, assembled from the defining formula and iterated by
`apply_power`, is the independent oracle; the classifiers and the audits
keep using it so that the two routes check each other.

The oracle is generic exact linear algebra on sparse rows: a `MarkovMatrix`
stores only the nonzero entries of each row, its dense `entries` are a view
derived on demand, and every kernel, including the rank elimination behind
`fixed_space_dimension`, touches only the stored rows.  It never reads the
map's permutation or cycles, so it stays independent of the cycle route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from .dynamics import MeasurePreservingMap, SigmaSubAlgebra
from .errors import NegativeDensityError, PeriodDetectionError
from .space import (
    ONE,
    ZERO,
    Density,
    FiniteProbabilitySpace,
    MeasureAlgebraClass,
    bit_indices,
)

MAX_STEPS = 4096


@dataclass(frozen=True)
class MarkovMatrix:
    """A rational matrix acting on densities over the positive atoms.

    Row i holds the coefficients producing the output value at positive atom
    i, so `apply` is a plain row-times-vector product.  `weights` are the
    positive atom masses, fixing the pairing used for adjoints.

    The matrix is stored only as `rows`, the nonzero (column, value) pairs
    of each row with columns strictly increasing.  That form is unique, so
    equality and hashing are structural, and a dropped 0 * f[j] term leaves
    an exact sum unchanged.  `entries` is the dense view, built on demand;
    `from_entries` builds a matrix from dense rows.  Nothing here reads the
    map or its cycles, so the matrix stays independent of `transfer_power`.
    """

    space: FiniteProbabilitySpace
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __post_init__(self) -> None:
        d = len(self.space.positive_support)
        if len(self.rows) != d:
            raise ValueError("matrix shape must match the positive support")
        checked = None
        for i, row in enumerate(self.rows):
            if row is checked:
                continue  # a shared row, as in `rank_one_projection`
            checked, prev = row, -1
            for j, v in row:
                if not prev < j < d:
                    raise ValueError(f"row {i}: column {j} out of range or out of order")
                if not v:
                    raise ValueError(f"row {i}: stored values must be nonzero")
                prev = j

    @classmethod
    def from_entries(
        cls, space: FiniteProbabilitySpace, entries: Sequence[Sequence[Fraction]]
    ) -> "MarkovMatrix":
        """The matrix with the given dense d x d rows."""
        d = len(space.positive_support)
        if len(entries) != d or any(len(row) != d for row in entries):
            raise ValueError("matrix shape must match the positive support")
        rows = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in entries)
        return cls(space, rows)

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense view: row i lists all d values, zeros included."""
        dense = [[ZERO] * self.dimension for _ in self.rows]
        for full, row in zip(dense, self.rows):
            for j, v in row:
                full[j] = v
        return tuple(map(tuple, dense))

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        m = self.space.masses
        return tuple(m[a] for a in self.space.positive_support)

    def apply(self, f: Density) -> Density:
        self.space._require_same(f.space)
        fv = f.values
        vals = []
        # 1 * x is x and an empty sum is 0, exactly; a transfer matrix has a
        # single unit entry in most rows, so these skip most of the arithmetic
        for row in self.rows:
            terms = [fv[j] if v == 1 else v * fv[j] for j, v in row]
            vals.append(sum(terms[1:], terms[0]) if terms else ZERO)
        return Density(self.space, tuple(vals))

    def compose(self, other: "MarkovMatrix") -> "MarkovMatrix":
        """Matrix product self @ other (apply other first)."""
        self.space._require_same(other.space)
        other_rows = other.rows
        out = []
        for row in self.rows:
            acc: dict[int, Fraction] = {}
            for k, v in row:
                for j, w in other_rows[k]:
                    acc[j] = acc.get(j, ZERO) + v * w
            out.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
        return MarkovMatrix(self.space, tuple(out))

    __matmul__ = compose

    def adjoint(self) -> "MarkovMatrix":
        """The adjoint for the weighted pairing: B[j][i] = w_i A[i][j] / w_j."""
        w = self.weights
        out: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.dimension)]
        for i, row in enumerate(self.rows):
            for j, v in row:
                out[j].append((i, w[i] * v / w[j]))
        return MarkovMatrix(self.space, tuple(map(tuple, out)))

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.rows for _, v in row)

    def preserves_constants(self) -> bool:
        return all(sum((v for _, v in row), ZERO) == ONE for row in self.rows)

    def preserves_integrals(self) -> bool:
        w = self.weights
        cols = [ZERO] * self.dimension
        for i, row in enumerate(self.rows):
            for j, v in row:
                cols[j] += w[i] * v
        return all(c == wj for c, wj in zip(cols, w))

    def is_bimarkov(self) -> bool:
        """Positive, fixes constants, and the adjoint fixes constants too."""
        return (
            self.is_nonnegative()
            and self.preserves_constants()
            and self.preserves_integrals()
        )

    @cached_property
    def is_identity(self) -> bool:
        return all(row == ((i, ONE),) for i, row in enumerate(self.rows))

    def permutation_structure(self) -> tuple[int, ...] | None:
        """If each row is a basis vector, the underlying permutation, else None.

        Row i equal to e_s means (Mf)(i) = f(s), i.e. s is the source feeding
        output slot i.  Requires the source assignment to be a bijection.
        """
        sources = []
        for row in self.rows:
            if len(row) != 1 or row[0][1] != ONE:
                return None
            sources.append(row[0][0])
        if len(set(sources)) != self.dimension:
            return None
        return tuple(sources)


def identity_matrix(space: FiniteProbabilitySpace) -> MarkovMatrix:
    d = len(space.positive_support)
    return MarkovMatrix(space, tuple(((i, ONE),) for i in range(d)))


def transfer_operator(phi: MeasurePreservingMap) -> MarkovMatrix:
    """The operator moving densities forward: integrals over A of the output
    equal integrals of the input over phi^-1(A).

    On positive atoms the output value at y collects f(x) mu(x) / mu(y) over
    the positive fiber of y; measure preservation makes this a permutation
    matrix, but the entries are assembled from the defining formula rather
    than from that structural fact.
    """
    space = phi.space
    pos = space.positive_support
    masses = space.masses
    fibers: dict[int, list[int]] = {}
    for k, x in enumerate(pos):
        fibers.setdefault(phi.targets[x], []).append(k)
    rows = tuple(
        tuple((k, masses[pos[k]] / masses[y]) for k in fibers.get(y, ())) for y in pos
    )
    return MarkovMatrix(space, rows)


def koopman_operator(phi: MeasurePreservingMap) -> MarkovMatrix:
    """The composition operator f -> f o phi on the positive atoms."""
    pos_index = phi.space.positive_index
    rows = tuple(((pos_index[phi.targets[x]], ONE),) for x in phi.space.positive_support)
    return MarkovMatrix(phi.space, rows)


def rank_one_projection(space: FiniteProbabilitySpace) -> MarkovMatrix:
    """The averaging projection f -> integral(f) * 1."""
    row = tuple((k, space.masses[a]) for k, a in enumerate(space.positive_support))
    return MarkovMatrix(space, (row,) * len(row))


@dataclass(frozen=True)
class LimitReport:
    """Outcome of exact cycle detection on a power sequence.

    `converges` means the eventual cycle has length one; the stabilized
    value is then `limit` (a matrix or a density, matching the sequence).
    """

    converges: bool
    preperiod: int
    period: int
    limit: MarkovMatrix | Density | None


def _detect_cycle(first, step, key, max_steps: int) -> tuple[int, int, list]:
    seen: dict = {}
    seq = []
    cur = first
    for _ in range(max_steps + 1):
        k = key(cur)
        if k in seen:
            pre = seen[k]
            return pre, len(seq) - pre, seq
        seen[k] = len(seq)
        seq.append(cur)
        cur = step(cur)
    raise PeriodDetectionError(f"no repeat within {max_steps} steps")


def power_sequence(m: MarkovMatrix) -> LimitReport:
    """Exact eventual periodicity of (M^n) starting from M^0 = I.

    Permutation-structured matrices get the analytic answer: powers repeat
    with period lcm(cycle lengths) and no preperiod.  Other matrices are
    hashed step by step for at most MAX_STEPS steps.
    """
    perm = m.permutation_structure()
    if perm is not None:
        period = _permutation_order(perm)
        converges = period == 1
        return LimitReport(
            converges, 0, period, identity_matrix(m.space) if converges else None
        )
    ident = identity_matrix(m.space)
    # the rows are unique per matrix, so they serve as its hash key
    pre, period, seq = _detect_cycle(ident, lambda x: x @ m, lambda x: x.rows, MAX_STEPS)
    converges = period == 1
    return LimitReport(converges, pre, period, seq[pre] if converges else None)


def _permutation_order(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        order = lcm(order, length)
    return order


def density_power_sequence(m: MarkovMatrix, f: Density) -> LimitReport:
    """Exact eventual periodicity of (M^n f); may converge when (M^n) does not.

    A permutation matrix repeats within its order, which may exceed MAX_STEPS.
    """
    m.space._require_same(f.space)
    perm = m.permutation_structure()
    budget = MAX_STEPS if perm is None else _permutation_order(perm) + 1

    def key(g: Density) -> tuple:
        return tuple((v.numerator, v.denominator) for v in g.values)
    pre, period, seq = _detect_cycle(f, m.apply, key, budget)
    converges = period == 1
    return LimitReport(converges, pre, period, seq[pre] if converges else None)


def apply_power(m: MarkovMatrix, f: Density, n: int) -> Density:
    if n < 0:
        raise ValueError("n must be nonnegative")
    for _ in range(n):
        f = m.apply(f)
    return f


def transfer_power(phi: MeasurePreservingMap, f: Density, n: int) -> Density:
    """P^n f = f o pi^-n on the positive atoms, in O(d) for any n.

    pi is `phi.positive_permutation`.  Each value of f travels n steps
    forward along its cycle of pi; values are moved, never recomputed, so
    the result equals `apply_power(transfer_operator(phi), f, n)` exactly.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    phi.space._require_same(f.space)
    perm = phi.positive_permutation
    out: list[Fraction | None] = [None] * len(perm)
    for start in range(len(perm)):
        if out[start] is not None:
            continue  # its cycle is already placed
        cycle = [start]
        j = perm[start]
        while j != start:
            cycle.append(j)
            j = perm[j]
        shift = n % len(cycle)
        for i, k in enumerate(cycle):
            out[cycle[(i + shift) % len(cycle)]] = f.values[k]
    return Density(f.space, tuple(out))


def cesaro_limit(m: MarkovMatrix) -> MarkovMatrix:
    """The limit of the averages (1/n) sum of M^k.

    For an eventually periodic power sequence the preperiod washes out and
    the limit is the plain average over one cycle.
    """
    report = power_sequence(m)
    power = identity_matrix(m.space)
    for _ in range(report.preperiod):
        power = power @ m
    acc: list[dict[int, Fraction]] = [{} for _ in range(m.dimension)]
    for _ in range(report.period):
        for total, row in zip(acc, power.rows):
            for j, v in row:
                total[j] = total.get(j, ZERO) + v
        power = power @ m
    q = Fraction(report.period)
    rows = tuple(
        tuple((j, total[j] / q) for j in sorted(total) if total[j]) for total in acc
    )
    return MarkovMatrix(m.space, rows)


def conditional_expectation(
    space: FiniteProbabilitySpace, algebra: SigmaSubAlgebra, f: Density
) -> Density:
    """Blockwise averaging against the masses; the defining property
    (equal integrals over every member of the algebra) is checked in tests.
    """
    space._require_same(algebra.space)
    space._require_same(f.space)
    masses = space.masses
    pos_index = space.positive_index
    out = [ZERO] * len(space.positive_support)
    for block in algebra.positive_blocks():
        atoms = list(bit_indices(block))
        total = sum((f.values[pos_index[i]] * masses[i] for i in atoms), ZERO)
        avg = total / space.measure_bits(block)
        for i in atoms:
            out[pos_index[i]] = avg
    return Density(space, tuple(out))


def density_support(f: Density) -> MeasureAlgebraClass:
    """The class of {f > 0}; rejects densities with negative values."""
    if not f.is_nonnegative():
        raise NegativeDensityError("support is defined for nonnegative densities")
    return MeasureAlgebraClass(f.space, f.support_bits())


def fixed_space_dimension(m: MarkovMatrix) -> int:
    """Dimension of {f : Mf = f}: d minus the rank of M - I.

    The rank comes from sparse forward elimination over dict rows.  Each
    row of M - I is reduced by the pivot rows found so far until it is zero
    or leads with a new pivot column; no back-substitution is needed.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for i, row in enumerate(m.rows):
        r = dict(row)
        r[i] = r.get(i, ZERO) - ONE
        r = {j: v for j, v in r.items() if v}
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                inv = r[col]
                pivots[col] = {j: v / inv for j, v in r.items()}
                break
            factor = r[col]
            for j, v in pivot.items():
                x = r.get(j, ZERO) - factor * v
                if x:
                    r[j] = x
                else:
                    del r[j]
    return m.dimension - len(pivots)
