"""Transfer and composition operators on L1 of a finite space.

Operators are exact rational matrices over the positive atoms; null atoms
vanish in L1 and are dropped.  The transfer operator moves mass forward
through the map, its adjoint composes with the map, and both are bi-Markov.

This module is the dense oracle route to transfer powers: the matrix of
`transfer_operator` is assembled from the defining formula and iterated by
`apply_power`.  The production route lives on the map in `dynamics`:
measure preservation makes P permute the positive atoms with unit weights,
so P^n 1_A is the indicator of phi^n(A inter positive support), read off
the cycles of the map without arithmetic.  The classifiers and the audits
keep using the oracle, so that the two routes check each other.

Power sequences are decided for permutation matrices only, which is what
measure preservation makes every transfer matrix.  The permutation is read
off the matrix rows by `permutation_structure`, never from the map: M^n
repeats with period the lcm of the cycle lengths, and M^n f with period
the lcm, over the cycles, of the least rotation period of f along each
cycle, both from n = 0.  Nothing is iterated or stored per step.  Any
other matrix is rejected with a ValueError; `transfer_powers` reports that
as a defect of the toolkit, since its matrix comes from a validated map.

The oracle is generic exact linear algebra on sparse rows: a `MarkovMatrix`
stores only the nonzero entries of each row, its dense `entries` are a view
derived on demand, and every kernel, including the rank elimination behind
`fixed_space_dimension`, touches only the stored rows.  Nothing here reads
the cycles of the map, so the oracle stays independent of the cycle route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator

from .dynamics import MeasurePreservingMap, SigmaSubAlgebra
from .errors import DiagnosticInconsistencyError
from .space import (
    ONE,
    ZERO,
    Density,
    FiniteProbabilitySpace,
    bit_indices,
)


@dataclass(frozen=True)
class MarkovMatrix:
    """A rational matrix acting on densities over the positive atoms.

    Row i holds the coefficients producing the output value at positive atom
    i, so `apply` is a plain row-times-vector product.  `weights` are the
    positive atom masses, fixing the pairing used for adjoints.

    The matrix is stored only as `rows`, the nonzero (column, value) pairs
    of each row with columns strictly increasing.  That form is unique, so
    equality and hashing are structural, and a dropped 0 * f[j] term leaves
    an exact sum unchanged.  `entries` is the dense view, built on demand.
    Nothing here reads the map or its cycles, so the matrix stays
    independent of the cycle route.
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
    def _powers(self) -> "LimitReport":
        """The report of `power_sequence`, computed on first use."""
        return _power_sequence(self)

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
    A permutation's powers are purely periodic, so `preperiod` is 0.
    """

    converges: bool
    preperiod: int
    period: int
    limit: MarkovMatrix | Density | None


def _permutation(m: MarkovMatrix) -> tuple[int, ...]:
    perm = m.permutation_structure()
    if perm is None:
        raise ValueError("not a permutation matrix: powers are decided only for permutations")
    return perm


def _cycles(perm: tuple[int, ...]) -> Iterator[list[int]]:
    """The cycles of a permutation of range(len(perm)), each walked from
    its smallest index along i -> perm[i]."""
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle, j = [], start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = perm[j]
        yield cycle


def _rotation_period(values: list) -> int:
    """The least p > 0 with values[k] == values[(k + p) % len(values)] for
    every k; it divides the length."""
    n = len(values)
    return next(p for p in range(1, n + 1) if n % p == 0 and values[p:] + values[:p] == values)


def power_sequence(m: MarkovMatrix) -> LimitReport:
    """Exact periodicity of (M^n) starting from M^0 = I, for a permutation M.

    The powers repeat with period lcm(cycle lengths) and no preperiod, and
    converge, to I, exactly when M is the identity.  A matrix that is not a
    permutation raises ValueError.  A matrix is immutable, so the report is
    computed once and kept on it; later calls return the same object.
    """
    return m._powers


def _power_sequence(m: MarkovMatrix) -> LimitReport:
    period = lcm(*map(len, _cycles(_permutation(m))))
    converges = period == 1
    return LimitReport(
        converges, 0, period, identity_matrix(m.space) if converges else None
    )


def transfer_powers(phi: MeasurePreservingMap) -> tuple[MarkovMatrix, LimitReport]:
    """`transfer_operator(phi)` and the `power_sequence` report of it.

    Measure preservation makes the transfer matrix of a validated map a
    permutation, so a matrix that `power_sequence` rejects is a defect of
    the toolkit, raised as DiagnosticInconsistencyError.
    """
    p = transfer_operator(phi)
    try:
        return p, power_sequence(p)
    except ValueError as exc:
        raise DiagnosticInconsistencyError(
            f"transfer matrix of a measure-preserving map: {exc}"
        ) from exc


def density_power_sequence(m: MarkovMatrix, f: Density) -> LimitReport:
    """Exact periodicity of (M^n f) for a permutation M; may converge when
    (M^n) does not.

    With (Mf)(i) = f(perm[i]), M rotates the values of f along each cycle
    of the permutation by one place.  So M^n f is purely periodic, its
    period is the lcm of the least rotation periods of f on the cycles, and
    it converges, to f, exactly when Mf = f.  A matrix that is not a
    permutation raises ValueError.
    """
    m.space._require_same(f.space)
    v = f.values
    period = lcm(*(_rotation_period([v[i] for i in c]) for c in _cycles(_permutation(m))))
    converges = period == 1
    return LimitReport(converges, 0, period, f if converges else None)


def apply_power(m: MarkovMatrix, f: Density, n: int) -> Density:
    if n < 0:
        raise ValueError("n must be nonnegative")
    for _ in range(n):
        f = m.apply(f)
    return f


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
