"""Randomized audits of the convergence equivalences, at population scale.

The generator draws measure-preserving systems by construction (equal-mass
positive atoms permuted within their mass class, null atoms mapped freely)
and the audits confront independent computational routes to each
equivalence on every generated system, recording any disagreement.

Exhaustive subset loops use bitmask fast paths: set orbits decompose over
atoms (the image of a union is the union of images), measures become
integer tables over the common denominator, and the defect suprema reduce
to positions of positive/negative parts.  Each reduction is an algebraic
identity, not an approximation, and every audit also replays a seeded
sample of subsets through the object-level implementations so the fast
path and the production path check each other.

The only dynamics the audits compute for themselves are the per-atom
forward walks of `_BitSystem` and the bitmask tables derived from them.
Everything else (the invariant algebra, tail algebra, set orbits, invariant
saturations, operators and defects) comes from calling the production code
under audit, never from a private copy of it.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    MeasurePreservingMap,
    completions_equal,
    invariant_algebra,
    minimal_invariant_superset,
    set_orbit,
    tail_algebra,
)
from .fixtures import three_point_system
from .mixing import (
    image_measure_limit,
    image_mixing_defect,
    is_exact,
    lower_bound_defect,
    lower_bound_witness,
    trace_mixing_defect,
    uniform_mixing_defect,
)
from .operators import (
    conditional_expectation,
    density_power_sequence,
    koopman_operator,
    power_sequence,
    transfer_operator,
)
from .space import FiniteProbabilitySpace, indicator

System = tuple[FiniteProbabilitySpace, MeasurePreservingMap]

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INDEX_KEY = 0xD1342543DE82EF95

EXHAUSTIVE_ATOM_LIMIT = 12
SAMPLED_SUBSETS = 256

# Systems per vectorised draw in `_run_range`.  Larger chunks hold more
# pre-drawn words and systems at once for no further gain in speed.
_CHUNK = 32


def _mix64(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """`_mix64` of every uint64 in `x`, in place.  Array arithmetic wraps
    modulo 2^64 as the scalar code masks it."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def _splitmix_words(states: np.ndarray, count: int) -> np.ndarray:
    """Row r holds the first `count` words of `SplitMix64(states[r])`:
    word i is `_mix64` of the state plus i * gamma, for i = 1..count."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    return _mix64_array(states[:, None] + steps)


class SplitMix64:
    """Tiny deterministic 64-bit generator; stable across platforms.

    The audits promise byte-identical reports for equal seeds, which rules
    out generators whose streams may change between language versions.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        return _mix64(self.state)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def choice(self, seq: Sequence):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


class _DrawnSplitMix64(SplitMix64):
    """A `SplitMix64` whose next words were drawn ahead in bulk.

    `next_u64` hands out the pre-drawn row first.  `state` already stands
    past the row, so once the row runs out the scalar stream continues
    from the matching state.
    """

    __slots__ = ("_row",)

    def __init__(self, end_state: int, row: list[int]):
        self.state = end_state
        row.reverse()
        self._row = row

    def next_u64(self) -> int:
        if self._row:
            return self._row.pop()
        return SplitMix64.next_u64(self)


@dataclass(frozen=True)
class SystemGenerator:
    """Seeded source of random finite measure-preserving systems.

    Index 0 is reserved for the three-point null-atom fixture so every
    audit population contains it; higher indices are drawn independently
    from (seed, index).  Masses share a denominator of at most
    `mass_denominator_bound`, equal masses form the classes the positive
    permutation must respect, and null atoms target positive and null
    atoms with equal probability.
    """

    seed: int
    max_positive_atoms: int = 8
    max_null_atoms: int = 4
    mass_denominator_bound: int = 24

    def __post_init__(self) -> None:
        if self.max_positive_atoms < 1:
            raise ValueError("need at least one positive atom")
        if self.mass_denominator_bound < self.max_positive_atoms:
            raise ValueError("denominator bound below the positive atom count")

    def system(self, index: int) -> System:
        return self.systems(index, index + 1)[0]

    def systems(self, start: int, stop: int) -> list[System]:
        """Systems `start`..`stop - 1`; entry i is `system(start + i)`.

        One numpy pass draws every system's stream state,
        `_mix64(seed ^ index * key)`, and the words it draws when no draw
        is rejected: three sizes, at most B - 1 for the cut shuffle,
        P + N - 1 for the mass shuffle, P for the class shuffles and two per
        null atom, with B, P and N the bounds of this generator.  A rejected
        draw takes the next word of the same stream, so a row may run out;
        the stream then goes on word by word.
        """
        p, n, b = self.max_positive_atoms, self.max_null_atoms, self.mass_denominator_bound
        width = 3 + (b - 1) + (p + n - 1) + p + 2 * n
        keys = np.arange(stop - start, dtype=np.uint64) + np.uint64(start & MASK64)
        states = _mix64_array(keys * np.uint64(_INDEX_KEY) ^ np.uint64(self.seed & MASK64))
        ends = (states + np.uint64(width * _GAMMA & MASK64)).tolist()
        rows = _splitmix_words(states, width).tolist()
        return [
            three_point_system() if index == 0 else self._draw(_DrawnSplitMix64(end, row))
            for index, end, row in zip(range(start, stop), ends, rows)
        ]

    def _draw(self, rng: SplitMix64) -> System:
        n_pos = 1 + rng.randrange(self.max_positive_atoms)
        n_null = rng.randrange(self.max_null_atoms + 1)

        q = n_pos + rng.randrange(self.mass_denominator_bound - n_pos + 1)
        cuts = list(range(1, q))
        rng.shuffle(cuts)
        chosen = sorted(cuts[: n_pos - 1])
        bounds = [0] + chosen + [q]
        # mass numerators over q; the space is built from them once at the end
        nums = [bounds[i + 1] - bounds[i] for i in range(n_pos)] + [0] * n_null
        rng.shuffle(nums)

        targets = [0] * len(nums)
        by_mass: dict[int, list[int]] = {}
        positives: list[int] = []
        nulls: list[int] = []
        for a, p in enumerate(nums):
            if p:
                by_mass.setdefault(p, []).append(a)
                positives.append(a)
            else:
                nulls.append(a)
        for members in by_mass.values():
            shuffled = list(members)
            rng.shuffle(shuffled)
            for src, dst in zip(members, shuffled):
                targets[src] = dst
        for a in nulls:
            if rng.randrange(2):
                targets[a] = rng.choice(nulls)
            else:
                targets[a] = rng.choice(positives)
        space = FiniteProbabilitySpace(
            tuple(f"a{i}" for i in range(len(nums))), tuple(Fraction(p, q) for p in nums)
        )
        return space, MeasurePreservingMap(space, tuple(targets))


# --------------------------------------------------------------------------
# bitmask fast paths


def _or_table(per_atom: Sequence[int]) -> list[int]:
    """table[A] = OR of per_atom[a] over the atoms of the bitmask A."""
    table = [0] * (1 << len(per_atom))
    for a, value in enumerate(per_atom):
        bit = 1 << a
        for s in range(bit):
            table[bit | s] = table[s] | value
    return table


def _mass_table(per_atom: Sequence[int]) -> np.ndarray:
    """table[A] = sum of per_atom[a] over the atoms of the bitmask A.

    With integer masses over the common denominator this is the mass of A;
    with pairwise disjoint bitmasks, such as preimage fibers, it is their OR.
    """
    table = np.zeros(1, dtype=np.int64)
    for v in per_atom:
        table = np.concatenate([table, table + v])
    return table


class _BitSystem:
    """The audit's own route to one system's dynamics: per-atom forward walks.

    The walk of an atom follows `phi.targets` until it repeats.  All walks
    come from one pass over the functional graph, and they deliberately
    avoid `positive_cycles`, `set_orbit` and `tail_algebra`, since those
    are the production routes the audits check them against.  Cycle masks,
    n-step preimage fibers and the orbit encodings are derived from the
    walks; masses and masks are read off the space.
    """

    def __init__(self, space: FiniteProbabilitySpace, phi: MeasurePreservingMap):
        self.k = space.atom_count
        self.Q = space.common_denominator
        self.m = space.integer_masses
        self.posmask = space.positive_mask
        self.full = space.full_mask

        # Follow each atom not yet walked until the path meets itself (a new
        # cycle: every path atom from the meeting point on walks one
        # rotation of it) or an atom already walked.  Each atom before that
        # point walks the rest of the path, then the walk of the atom met.
        # Fixed points, about half the atoms of a generated system, walk
        # only themselves.
        targets = phi.targets
        pres = [0] * self.k
        cycles = [1] * self.k
        walks: list = [None] * self.k
        step = [-1] * self.k  # position on the path that reached the atom
        for a in range(self.k):
            if walks[a] is not None:
                continue
            step[a] = 0
            x = targets[a]
            if x == a:
                walks[a] = [a]
                continue
            path = [a]
            while step[x] < 0:
                step[x] = len(path)
                path.append(x)
                x = targets[x]
            end = len(path)
            if walks[x] is None:
                end = step[x]
                length = len(path) - end
                loop = path[end:] * 2
                for i in range(length):
                    walks[loop[i]] = loop[i : i + length]
                    cycles[loop[i]] = length
                x = path[end]
            rest, pre, length = walks[x], pres[x], cycles[x]
            for i in range(end):
                walks[path[i]] = path[i:end] + rest
                pres[path[i]] = end - i + pre
                cycles[path[i]] = length
        self.atom_pre = pres
        self.atom_cycle = cycles
        self.atom_walk = walks
        self.joint_pre = max(pres)
        self.joint_period = 1
        for length in cycles:
            self.joint_period = lcm(self.joint_period, length)

    @cached_property
    def cycle_masks(self) -> set[int]:
        # positive atoms are permuted, so the walk of one is its whole cycle
        return {
            sum(1 << x for x in walk)
            for a, walk in enumerate(self.atom_walk)
            if self.posmask >> a & 1
        }

    @cached_property
    def subsets(self) -> np.ndarray:
        """Every subset bitmask of the atoms, for the exhaustive checks."""
        return np.arange(1 << self.k, dtype=np.int64)

    @cached_property
    def mass_table(self) -> np.ndarray:
        return _mass_table(self.m)

    def atom_at(self, a: int, n: int) -> int:
        walk = self.atom_walk[a]
        if n < len(walk):
            return walk[n]
        p, cy = self.atom_pre[a], self.atom_cycle[a]
        return walk[p + (n - p) % cy]

    def preimage_atom_bits_at(self, n: int) -> list[int]:
        """Per-atom bitmasks of the n-step preimage fibers."""
        fibers = [0] * self.k
        for x in range(self.k):
            fibers[self.atom_at(x, n)] |= 1 << x
        return fibers

    def orbit_bigs(self) -> tuple[list[int], int, int]:
        """Per-atom concatenation of masked orbit cells over one joint cycle.

        Chunk j of big[a] is the positive part of {phi^(p+j)(a)}, shifted
        into its own k-bit lane; OR over the atoms of A yields the masked
        orbit of A over the cycle in one integer.
        """
        k, p, q = self.k, self.joint_pre, self.joint_period
        bigs = []
        for a in range(self.k):
            acc = 0
            for j in range(q):
                acc |= ((1 << self.atom_at(a, p + j)) & self.posmask) << (j * k)
            bigs.append(acc)
        chunk_mask = (1 << k) - 1
        tail_mask = (1 << (k * (q - 1))) - 1 if q > 1 else 0
        return bigs, chunk_mask, tail_mask


# --------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class AuditFailure:
    system_index: int
    check: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "system_index": self.system_index,
            "check": self.check,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AuditReport:
    theorem: str
    seed: int
    count: int
    failures: tuple[AuditFailure, ...]
    elapsed_ms: int
    schema_version: str = "1"

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "schema_version": self.schema_version,
            "theorem": self.theorem,
            "seed": self.seed,
            "count": self.count,
            "failures": [f.to_dict() for f in self.failures],
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def canonical_json(self) -> str:
        """Deterministic serialization: wall time is excluded, all else
        is byte-identical across equal-seed runs."""
        return json.dumps(self.to_dict(include_elapsed=False), sort_keys=True)


class _Recorder:
    def __init__(self) -> None:
        self.failures: list[AuditFailure] = []

    def fail(self, index: int, check: str, detail: str) -> None:
        self.failures.append(AuditFailure(index, check, detail))


# Below this many draws the scalar loop beats numpy's per-call overhead.
_VECTOR_DRAWS = 16


def _sample_subsets(rng: SplitMix64, full: int, count: int) -> list[int]:
    """`count` draws of `rng.next_u64() & full`, advancing `rng` to match.

    From `_VECTOR_DRAWS` draws on, the words come from one pass of
    `_splitmix_words`, the kernel the generator draws its rows with.  That
    pass exists for the `SAMPLED_SUBSETS` draws of
    the convergence audit on systems above `EXHAUSTIVE_ATOM_LIMIT` atoms; the
    other callers draw 4 or 8 words and stay on the scalar loop.
    """
    if count < _VECTOR_DRAWS:
        return [rng.next_u64() & full for _ in range(count)]
    start = np.array([rng.state], dtype=np.uint64)
    rng.state = (rng.state + count * _GAMMA) & MASK64
    words = _splitmix_words(start, count)[0]
    words &= np.uint64(full & MASK64)
    return words.tolist()


# --------------------------------------------------------------------------
# audit: orbit / operator / tail-algebra equivalence


def _audit_convergence_one(index: int, system: System, rec: _Recorder, rng: SplitMix64) -> None:
    space, phi = system
    bs = _BitSystem(space, phi)
    p_matrix = transfer_operator(phi)
    matrix_report = power_sequence(p_matrix)
    route_power = matrix_report.converges

    tail, _ = tail_algebra(phi)
    inv = invariant_algebra(phi)
    route_tail = completions_equal(tail, inv)

    exhaustive = bs.k <= EXHAUSTIVE_ATOM_LIMIT
    if exhaustive:
        bigs, chunk_mask, tail_mask = bs.orbit_bigs()
        orbit_table = _or_table(bigs)
        route_sets = True
        first_bad = None
        for a_bits in range(1 << bs.k):
            x = orbit_table[a_bits]
            if (x ^ (x >> bs.k)) & tail_mask:
                route_sets = False
                first_bad = a_bits
                break
    else:
        universe = _sample_subsets(rng, bs.full, SAMPLED_SUBSETS)
        route_sets = True
        first_bad = None
        for a_bits in universe:
            report = set_orbit(phi, space.set_from_bits(a_bits))
            if not report.converges:
                route_sets = False
                first_bad = a_bits
                break

    if not route_sets == route_power == route_tail:
        detail = f"sets={route_sets} power={route_power} tail={route_tail}"
        if first_bad is not None:
            detail += f" witness={first_bad:#x}"
        rec.fail(index, "equivalence-routes", detail)
        return

    if route_power and exhaustive:
        limit = matrix_report.limit
        if limit is None or not limit.is_identity:
            rec.fail(index, "limit-not-identity", "convergent powers, limit != I")
            return
        comp_table = _or_table([inv.block_bits[b] for b in inv.block_of_atom])
        pos_comps = sorted({b & bs.posmask for b in inv.block_bits} - {0})
        for a_bits in range(1 << bs.k):
            x = orbit_table[a_bits]
            limit_class = x & chunk_mask
            if limit_class != comp_table[a_bits] & bs.posmask:
                rec.fail(
                    index,
                    "limit-class",
                    f"A={a_bits:#x} orbit={limit_class:#x} "
                    f"saturation={comp_table[a_bits] & bs.posmask:#x}",
                )
            # lim P^n 1_A = 1_A here (limit is I); equality with the
            # invariant-algebra expectation of 1_A means A cannot split
            # any positive component part.
            for cp in pos_comps:
                t = a_bits & cp
                if t and t != cp:
                    rec.fail(
                        index,
                        "density-limit",
                        f"A={a_bits:#x} splits component {cp:#x}",
                    )
                    break

    # replay a seeded sample through the object-level implementations
    for a_bits in _sample_subsets(rng, bs.full, 4):
        a_set = space.set_from_bits(a_bits)
        report = set_orbit(phi, a_set)
        if exhaustive:
            x = orbit_table[a_bits]
            fast_conv = not ((x ^ (x >> bs.k)) & tail_mask)
            if report.converges != fast_conv:
                rec.fail(
                    index,
                    "orbit-replay",
                    f"A={a_bits:#x} object={report.converges} bitmask={fast_conv}",
                )
        if report.converges:
            star = minimal_invariant_superset(phi, a_set)
            if report.limit_class != star.algebra_class():
                rec.fail(index, "limit-class-replay", f"A={a_bits:#x}")
        if route_power:
            dens_report = density_power_sequence(p_matrix, indicator(space, a_set))
            expectation = conditional_expectation(space, inv, indicator(space, a_set))
            if not dens_report.converges or dens_report.limit != expectation:
                rec.fail(index, "density-replay", f"A={a_bits:#x}")


# --------------------------------------------------------------------------
# audit: lower-bound witness criterion


def _audit_lower_bound_one(index: int, system: System, rec: _Recorder, rng: SplitMix64) -> None:
    space, phi = system
    bs = _BitSystem(space, phi)
    p_matrix = transfer_operator(phi)
    conv = power_sequence(p_matrix).converges

    # A trace pair (D, c) bounds the correlation sequence from below exactly
    # when the pointwise cycle minimum of P^n 1_B is positive somewhere,
    # i.e. when B contains a full permutation cycle of positive atoms.
    # Every B of positive measure holds one exactly when every positive
    # singleton does, i.e. when every positive atom is a fixed point.
    route_witness = all((1 << a) in bs.cycle_masks for a in space.positive_support)
    if route_witness != conv:
        rec.fail(
            index, "witness-route", f"cycle-route={route_witness} powers={conv}"
        )
        return

    probes = [1 << a for a in space.positive_support[:4]]
    probes += [b for b in _sample_subsets(rng, bs.full, 4) if space.mass_bits(b) > 0]
    for b_bits in probes:
        b_set = space.set_from_bits(b_bits)
        witness = lower_bound_witness(p_matrix, b_set)
        if conv:
            if witness is None:
                rec.fail(index, "witness-missing", f"B={b_bits:#x}")
                continue
            d_set, c = witness
            for n in (0, 1, 2):
                defect = lower_bound_defect(phi, b_set, d_set, c, n)
                if defect != 0:
                    rec.fail(
                        index, "witness-defect", f"B={b_bits:#x} n={n} defect={defect}"
                    )
        elif witness is not None:
            rec.fail(index, "witness-unexpected", f"B={b_bits:#x}")

    if bs.k > EXHAUSTIVE_ATOM_LIMIT:
        return
    mass = bs.mass_table
    for c in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)):
        b_bits = rng.next_u64() & bs.full
        d_bits = rng.next_u64() & bs.full
        if space.mass_bits(b_bits) == 0 or space.mass_bits(d_bits) == 0:
            continue
        n = rng.randrange(3)
        closed = lower_bound_defect(
            phi, space.set_from_bits(b_bits), space.set_from_bits(d_bits), c, n
        )
        pre_table = _mass_table(bs.preimage_atom_bits_at(n))
        values = c.denominator * mass[pre_table & b_bits] - c.numerator * mass[
            bs.subsets & d_bits
        ]
        brute = Fraction(int(values.min()), c.denominator * bs.Q)
        if brute != closed:
            rec.fail(
                index,
                "lower-bound-brute",
                f"B={b_bits:#x} D={d_bits:#x} c={c} n={n} closed={closed} brute={brute}",
            )


# --------------------------------------------------------------------------
# audit: uniform and trace-local defect criteria


def _audit_uniform_one(index: int, system: System, rec: _Recorder, rng: SplitMix64) -> None:
    space, phi = system
    bs = _BitSystem(space, phi)
    exact = is_exact(phi)
    q2 = bs.Q * bs.Q

    # uniform route: the defect sequence of every atom-generated target has
    # an all-zero cycle exactly when the system is exact
    route_uniform = True
    for a in range(bs.k):
        m_b = bs.m[a]
        if m_b == 0:
            continue  # null target: P^n 1_B is the zero density, defect 0
        for j in range(bs.joint_period):
            hit = bs.atom_at(a, bs.joint_pre + j)
            m_s = bs.m[hit]
            defect_num = max((bs.Q - m_b) * m_s, m_b * (bs.Q - m_s))
            if defect_num:
                route_uniform = False
                break
        if not route_uniform:
            break

    # image route: forward measures of atom orbits settle at 0 or full mass
    route_image = True
    for a in range(bs.k):
        settle = bs.m[bs.atom_at(a, bs.joint_pre + bs.joint_period)]
        if settle not in (0, bs.Q):
            route_image = False
            break

    if not route_uniform == route_image == exact:
        rec.fail(
            index,
            "defect-routes",
            f"uniform={route_uniform} image={route_image} exact={exact}",
        )
        return

    # trace-local route: an exact system admits the full space as a trace
    # for every target; a non-exact one admits no positive trace at all
    pos_atoms = list(space.positive_support)
    b_atom = pos_atoms[0]
    b_set = space.set_from_bits(1 << b_atom)
    if exact:
        full_set = space.full_set()
        for n in (0, 1, 2):
            if trace_mixing_defect(phi, b_set, full_set, n) != 0:
                rec.fail(index, "trace-exact", f"n={n}")
    elif bs.k <= EXHAUSTIVE_ATOM_LIMIT:
        subs = bs.subsets
        mass = bs.mass_table
        vanishes = np.ones(subs.shape, dtype=bool)
        for j in range(bs.joint_period):
            s_bits = 1 << bs.atom_at(b_atom, bs.joint_pre + j)
            vanishes &= mass[subs & s_bits] == 0
            vanishes &= mass[subs & (bs.full ^ s_bits)] == 0
        if bool(np.any(vanishes & (mass > 0))):
            rec.fail(index, "trace-nonexact", "a positive trace reached zero defect")

    # spot checks through the exact object-level path
    for _ in range(2):
        a = pos_atoms[rng.randrange(len(pos_atoms))]
        n = rng.randrange(3)
        target = space.set_from_bits(1 << a)
        closed = uniform_mixing_defect(phi, target, n)
        hit = bs.atom_at(a, n)
        expect = Fraction(
            max((bs.Q - bs.m[a]) * bs.m[hit], bs.m[a] * (bs.Q - bs.m[hit])), q2
        )
        if closed != expect:
            rec.fail(index, "uniform-spot", f"a={a} n={n} {closed} != {expect}")

    if bs.k > EXHAUSTIVE_ATOM_LIMIT:
        return

    # brute-force suprema over every subset, vs the closed forms
    subs = bs.subsets
    mass = bs.mass_table
    for _ in range(2):
        b_bits = rng.next_u64() & bs.full
        n = rng.randrange(3)
        b_set = space.set_from_bits(b_bits)
        m_b = int(mass[b_bits])
        pre_table = _mass_table(bs.preimage_atom_bits_at(n))
        values = bs.Q * mass[pre_table & b_bits] - mass * m_b
        brute = Fraction(int(np.abs(values).max()), q2)
        closed = uniform_mixing_defect(phi, b_set, n)
        if brute != closed:
            rec.fail(
                index,
                "uniform-brute",
                f"B={b_bits:#x} n={n} closed={closed} brute={brute}",
            )
        d_bits = rng.next_u64() & bs.full
        if space.mass_bits(d_bits) == 0:
            continue
        inside = (subs & (bs.full ^ d_bits)) == 0
        trace_brute = Fraction(int(np.abs(values[inside]).max()), q2)
        trace_closed = trace_mixing_defect(phi, b_set, space.set_from_bits(d_bits), n)
        if trace_brute != trace_closed:
            rec.fail(
                index,
                "trace-brute",
                f"B={b_bits:#x} D={d_bits:#x} n={n} closed={trace_closed} brute={trace_brute}",
            )


# --------------------------------------------------------------------------
# audit: forward-image criterion


def _audit_image_one(index: int, system: System, rec: _Recorder, rng: SplitMix64) -> None:
    space, phi = system
    bs = _BitSystem(space, phi)
    exact = is_exact(phi)

    # forward image measures never decrease: A sits in the preimage of its
    # image.  Once the image repeats, every later step repeats a checked
    # one, so a walk stops after the step that closes the cycle.  Starts
    # share their walks: `to_loss[S]` is the number of steps from S to the
    # first step that loses mass, or None if none can be reached.  Only a
    # walk that closed (on a loss, a repeat or a set already known) is
    # recorded, and a start fails iff its loss lies within the step bound.
    bound = bs.joint_pre + bs.joint_period + 1
    to_loss: dict[int, int | None] = {}
    for a_bits in _sample_subsets(rng, bs.full, 8) + [1 << a for a in range(bs.k)]:
        if a_bits not in to_loss:
            path = {a_bits: 0}  # each set of the walk, with its step
            prev = space.mass_bits(a_bits)
            cur = a_bits
            for step in range(1, bound + 1):
                cur = phi.image_bits(cur)
                m_cur = space.mass_bits(cur)
                if m_cur < prev:
                    rest = 0
                elif cur in to_loss:
                    rest = to_loss[cur]
                elif cur in path:
                    rest = None
                else:
                    path[cur] = step
                    prev = m_cur
                    continue
                for s, i in path.items():
                    to_loss[s] = None if rest is None else step - i + rest
                break
        steps = to_loss.get(a_bits)
        if steps is not None and steps <= bound:
            rec.fail(index, "image-monotone", f"A={a_bits:#x}")

    # defect limit vanishes for every atom orbit iff the system is exact
    route = True
    witness_atom = None
    for a in range(bs.k):
        settle = bs.m[bs.atom_at(a, bs.joint_pre + bs.joint_period)]
        limit_defect = settle * (bs.Q - settle)
        if limit_defect:
            route = False
            witness_atom = a
            break
    if route != exact:
        rec.fail(index, "image-route", f"route={route} exact={exact} atom={witness_atom}")
        return

    for _ in range(2):
        a = rng.randrange(bs.k)
        singleton = space.set_from_bits(1 << a)
        n = bs.joint_pre + bs.joint_period + rng.randrange(2)
        closed = image_mixing_defect(phi, singleton, n)
        settle = Fraction(bs.m[bs.atom_at(a, bs.joint_pre + bs.joint_period)], bs.Q)
        m_n = Fraction(bs.m[bs.atom_at(a, n)], bs.Q)
        expect = max((1 - settle) * m_n, settle * (1 - m_n))
        if closed != expect:
            rec.fail(index, "image-spot", f"a={a} n={n} {closed} != {expect}")
        if image_measure_limit(phi, singleton) != settle:
            rec.fail(index, "image-limit-spot", f"a={a}")


# --------------------------------------------------------------------------
# audit: structural identities of the operator layer


def _audit_structural_one(index: int, system: System, rec: _Recorder, rng: SplitMix64) -> None:
    space, phi = system
    bs = _BitSystem(space, phi)
    p_matrix = transfer_operator(phi)
    t_matrix = koopman_operator(phi)
    pos = space.positive_support
    masses = space.masses
    d = len(pos)

    # the defining adjunction on atoms and basis densities, entrywise
    for yi, y in enumerate(pos):
        for xi, x in enumerate(pos):
            lhs = p_matrix.entries[yi][xi] * masses[y]
            rhs = masses[x] if phi.targets[x] == y else Fraction(0)
            if lhs != rhs:
                rec.fail(index, "transfer-identity", f"y={y} x={x}")
            if masses[y] * p_matrix.entries[yi][xi] != masses[x] * t_matrix.entries[xi][yi]:
                rec.fail(index, "adjointness", f"y={y} x={x}")

    if not (p_matrix.is_bimarkov() and t_matrix.is_bimarkov()):
        rec.fail(index, "bimarkov", "row or weighted column sums off")
    if p_matrix.adjoint() != t_matrix:
        rec.fail(index, "adjoint-matrix", "adjoint(P) != composition operator")

    conv = power_sequence(p_matrix).converges
    if conv != p_matrix.is_identity:
        rec.fail(index, "invertible-rigidity", f"converges={conv}")

    # metric axioms and the preimage isometry on sampled sets
    triples = [
        (rng.next_u64() & bs.full, rng.next_u64() & bs.full, rng.next_u64() & bs.full)
        for _ in range(8)
    ]
    for a_bits, b_bits, c_bits in triples:
        dab = space.measure_bits(a_bits ^ b_bits)
        dba = space.measure_bits(b_bits ^ a_bits)
        dbc = space.measure_bits(b_bits ^ c_bits)
        dac = space.measure_bits(a_bits ^ c_bits)
        if dab != dba:
            rec.fail(index, "metric-symmetry", f"{a_bits:#x},{b_bits:#x}")
        if dac > dab + dbc:
            rec.fail(index, "metric-triangle", f"{a_bits:#x},{b_bits:#x},{c_bits:#x}")
        same_class = (a_bits & bs.posmask) == (b_bits & bs.posmask)
        if (dab == 0) != same_class:
            rec.fail(index, "metric-separation", f"{a_bits:#x},{b_bits:#x}")
        pre_a = phi.preimage_bits(a_bits)
        pre_b = phi.preimage_bits(b_bits)
        if space.measure_bits(pre_a ^ pre_b) != dab:
            rec.fail(index, "preimage-isometry", f"{a_bits:#x},{b_bits:#x}")

    # support inclusions: supp P^m 1_A inside phi^m(A) and inside the
    # positive part of the invariant saturation of A; along the way the
    # cycle-shift route to P^m 1_A, the indicator of phi^m(A inter positive
    # support), must match the dense matrix iteration
    samples = [1 << a for a in pos] + [rng.next_u64() & bs.full for _ in range(4)]
    for a_bits in samples:
        a_set = space.set_from_bits(a_bits)
        f = indicator(space, a_set)
        supp = f.support_bits()
        sat_pos = minimal_invariant_superset(phi, a_set).bits & bs.posmask
        image_bits = a_bits
        for m_step in range(2 * bs.k + 1):
            shifted = space.set_from_bits(phi.positive_image_bits(a_bits, m_step))
            if indicator(space, shifted) != f:
                rec.fail(index, "transfer-power", f"A={a_bits:#x} m={m_step}")
            if supp & ~(image_bits & bs.posmask):
                rec.fail(index, "support-in-image", f"A={a_bits:#x} m={m_step}")
                break
            if supp & ~sat_pos:
                rec.fail(index, "support-in-saturation", f"A={a_bits:#x} m={m_step}")
                break
            f = p_matrix.apply(f)
            supp = f.support_bits()
            image_bits = phi.image_bits(image_bits)


# --------------------------------------------------------------------------
# drivers


_AUDITS: dict[str, Callable[[int, System, _Recorder, SplitMix64], None]] = {
    "main": _audit_convergence_one,
    "prop21": _audit_lower_bound_one,
    "thm22": _audit_uniform_one,
    "lemma23": _audit_image_one,
    "structural": _audit_structural_one,
}

AUDIT_NAMES = tuple(_AUDITS) + ("all",)

_SALTS = {name: i + 1 for i, name in enumerate(_AUDITS)}


def _run_range(
    theorem: str, gen: SystemGenerator, start: int, stop: int
) -> list[AuditFailure]:
    names = list(_AUDITS) if theorem == "all" else [theorem]
    rec = _Recorder()
    for lo in range(start, stop, _CHUNK):
        for index, system in enumerate(gen.systems(lo, min(lo + _CHUNK, stop)), lo):
            for name in names:
                rng = SplitMix64(_mix64(gen.seed ^ _mix64(index + _SALTS[name])))
                _AUDITS[name](index, system, rec, rng)
    return rec.failures


def _worker_count(jobs: int, count: int) -> int:
    """Processes to start for `jobs` requested over `count` systems: at least
    one, and never more than the systems or the machine's cores."""
    return max(1, min(jobs, count, os.cpu_count() or 1))


def _worker(args: tuple) -> list[AuditFailure]:
    theorem, gen, start, stop = args
    return _run_range(theorem, gen, start, stop)


def run_audit(
    theorem: str,
    seed: int,
    count: int,
    jobs: int = 1,
    generator: SystemGenerator | None = None,
) -> AuditReport:
    """Run one named audit (or all of them) over `count` generated systems.

    System index 0 is always the three-point fixture.  `jobs` is clamped to
    [1, min(count, cpu count)]; with more than one worker the index range
    is split across processes, and the merged report is identical
    to a single-process run because every per-system random stream is
    derived from (seed, index) alone.
    """
    if theorem not in AUDIT_NAMES:
        raise ValueError(f"unknown audit {theorem!r}; pick from {AUDIT_NAMES}")
    if count < 1:
        raise ValueError("count must be positive")
    gen = generator if generator is not None else SystemGenerator(seed)
    started = time.monotonic()
    workers = _worker_count(jobs, count)
    if workers == 1:
        failures = _run_range(theorem, gen, 0, count)
    else:
        chunk = -(-count // workers)
        ranges = [
            (theorem, gen, lo, min(lo + chunk, count))
            for lo in range(0, count, chunk)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_worker, ranges))
        failures = [f for part in parts for f in part]
    failures.sort(key=lambda f: (f.system_index, f.check, f.detail))
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return AuditReport(
        theorem=theorem,
        seed=gen.seed,
        count=count,
        failures=tuple(failures),
        elapsed_ms=elapsed_ms,
    )
