from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pfkit import (
    DyadicSet,
    DyadicStepFunction,
    DyadicValueError,
    exactness_profile,
    image_defect,
    image_measure_profile,
    transfer_apply,
    transition_matrix,
)
from pfkit.dyadic import MAX_LEVEL, image_measure_limit

F = Fraction
HALF = F(1, 2)
QUARTER = F(1, 4)


def dset(*pairs):
    return DyadicSet.from_pairs([(F(a), F(b)) for a, b in pairs])


@st.composite
def dyadic_sets(draw, max_level=6):
    level = draw(st.integers(0, max_level))
    n = 1 << level
    bits = draw(st.integers(0, (1 << n) - 1))
    pairs = [
        (F(i, n), F(i + 1, n)) for i in range(n) if bits >> i & 1
    ]
    return DyadicSet.from_pairs(pairs)


def test_endpoints_must_be_dyadic():
    with pytest.raises(DyadicValueError):
        dset((F(1, 3), F(1, 2)))
    with pytest.raises(DyadicValueError):
        dset((F(-1, 4), F(1, 2)))
    with pytest.raises(DyadicValueError):
        dset((HALF, F(5, 4)))
    with pytest.raises(DyadicValueError):  # even where a merge would hide it
        dset((F(0), HALF), (F(1, 3), HALF))


def test_level_guard():
    for deep in (F(1, 1 << 63), F(1, 2 << MAX_LEVEL)):
        with pytest.raises(DyadicValueError):
            dset((F(0), deep))
    finest = dset((F(0), F(1, 1 << MAX_LEVEL)))
    assert finest.level == MAX_LEVEL
    with pytest.raises(DyadicValueError):
        finest.preimage()


def test_raw_masks_are_checked():
    assert DyadicSet(2, 0b0001) == dset((F(0), QUARTER))
    for level, mask in (
        (1, 0b11),  # the full set belongs at level 0
        (2, 0b1100),  # [1/2, 1) belongs at level 1
        (1, 0b101),  # bit 2 lies beyond the two level-1 cells
        (0, 2),
        (0, -1),
        (-1, 0),
        (MAX_LEVEL + 1, 1),
    ):
        with pytest.raises(DyadicValueError):
            DyadicSet(level, mask)


def test_from_pairs_normalizes():
    a = dset((HALF, F(3, 4)), (F(0), HALF))
    assert a.intervals == ((F(0), F(3, 4)),)
    assert dset((F(0), F(0))).intervals == ()


def test_measure_and_level():
    a = dset((F(0), QUARTER), (HALF, F(5, 8)))
    assert a.measure == F(3, 8)
    assert a.level == 3
    assert DyadicSet.full().measure == 1
    assert DyadicSet.empty().measure == 0


def test_doubling_image_and_preimage():
    a = dset((F(0), QUARTER))
    assert a.image().intervals == ((F(0), HALF),)
    assert a.preimage().intervals == (
        (F(0), F(1, 8)),
        (HALF, F(5, 8)),
    )
    wrap = dset((F(3, 8), F(5, 8)))
    assert wrap.image().intervals == ((F(0), QUARTER), (F(3, 4), F(1)))


@given(dyadic_sets())
def test_preimage_preserves_measure(a):
    assert a.preimage().measure == a.measure


@given(dyadic_sets())
def test_image_measure_never_decreases(a):
    assert a.image().measure >= a.measure


@given(dyadic_sets())
def test_preimage_of_image_contains_set(a):
    back = a.image().preimage()
    level = max(a.level, back.level)
    assert set(a.cell_indices(level)) <= set(back.cell_indices(level))


def test_step_function_normalizes_to_minimal_level():
    f = DyadicStepFunction.build(2, [1, 1, 0, 0])
    assert f.level == 1
    assert f.values == (F(1), F(0))
    assert DyadicStepFunction.build(3, [2] * 8).level == 0


def test_step_function_arithmetic():
    f = DyadicStepFunction.indicator(dset((F(0), HALF)))
    g = DyadicStepFunction.constant(HALF)
    h = f - g
    assert h.integral() == 0
    assert h.positive_part().integral() == QUARTER
    assert h.negative_part().integral() == QUARTER


def test_transfer_coarsens_one_level():
    f = DyadicStepFunction.indicator(dset((F(0), QUARTER)))
    assert f.level == 2
    pf = f.transfer()
    # each output cell averages the two preimage branch cells
    assert pf.level == 1
    assert pf.values == (HALF, F(0))
    ppf = pf.transfer()
    assert ppf.level == 0 and ppf.values == (QUARTER,)
    assert ppf.transfer() == ppf
    assert pf.integral() == f.integral()


def test_transfer_apply_counts_steps():
    f = DyadicStepFunction.indicator(dset((F(0), HALF)))
    assert transfer_apply(f, 1) == DyadicStepFunction.constant(HALF)
    assert transfer_apply(f, 0) == f


def test_exactness_profile_frozen_values():
    assert exactness_profile(dset((F(0), QUARTER)), 4) == (
        F(3, 16),
        F(1, 8),
        F(0),
        F(0),
        F(0),
    )
    assert exactness_profile(dset((F(0), HALF)), 3) == (QUARTER, F(0), F(0), F(0))
    assert exactness_profile(DyadicSet.full(), 2) == (F(0), F(0), F(0))


def test_profile_can_reach_zero_before_the_level():
    # level-2 set whose indicator already averages to its mean in one step
    b = dset((F(0), QUARTER), (F(3, 4), F(1)))
    assert b.level == 2
    assert exactness_profile(b, 3) == (F(1, 4), F(0), F(0), F(0))


@given(dyadic_sets(max_level=5))
def test_profile_vanishes_from_the_level_on(b):
    k = b.level
    profile = exactness_profile(b, k + 3)
    assert all(d == 0 for d in profile[k:])
    assert all(d >= 0 for d in profile)


def test_image_profiles():
    a = dset((F(0), QUARTER))
    assert image_measure_profile(a, 4) == (QUARTER, HALF, F(1), F(1), F(1))
    assert image_measure_limit(a) == 1
    assert image_measure_limit(DyadicSet.empty()) == 0
    assert image_defect(a, 0) == F(3, 4)
    assert image_defect(a, 1) == HALF
    assert image_defect(a, 2) == F(0)


@given(dyadic_sets(max_level=5))
def test_image_saturates_within_level_steps(a):
    if a.measure == 0:
        assert image_measure_limit(a) == 0
        return
    profile = image_measure_profile(a, a.level)
    assert profile[-1] == 1
    assert all(x <= y for x, y in zip(profile, profile[1:]))


@given(dyadic_sets(max_level=5))
def test_image_defect_is_constant_from_the_level_on(a):
    assert image_defect(a, 10**9) == image_defect(a, a.level)


@given(dyadic_sets(max_level=5), st.integers(0, 6))
def test_image_defect_formula(a, n):
    cur = a
    for _ in range(n):
        cur = cur.image()
    limit = image_measure_limit(a)
    expected = max((1 - limit) * cur.measure, limit * (1 - cur.measure))
    assert image_defect(a, n) == expected


def test_transition_matrix_level_2():
    rows = transition_matrix(2)
    assert rows == (
        ((0, HALF), (1, HALF)),
        ((2, HALF), (3, HALF)),
        ((0, HALF), (1, HALF)),
        ((2, HALF), (3, HALF)),
    )


def test_transition_matrix_rows_are_stochastic():
    for level in (1, 3, 5):
        for row in transition_matrix(level):
            assert sum(p for _, p in row) == 1


def test_transition_matrix_matches_transfer():
    # applying the matrix to an indicator's cell vector reproduces one
    # transfer step refined back to the same grid
    level = 3
    rows = transition_matrix(level)
    b = dset((F(0), F(1, 8)), (HALF, F(5, 8)))
    f = DyadicStepFunction.indicator(b)
    vec = f.at_level(level)
    out = [F(0)] * (1 << level)
    for i, row in enumerate(rows):
        for j, p in row:
            out[j] += vec[i] * p
    stepped = transfer_apply(f, 1).at_level(level)
    assert sum(out) == sum(vec)
    assert tuple(out) == tuple(stepped)


# Test-only oracle: the `DyadicSet` operations over sorted tuples of
# disjoint, non-adjacent intervals [a, b), in `Fraction` arithmetic with no
# cell masks.


def oracle_normalize(intervals):
    pairs = sorted((a, b) for a, b in intervals if a < b)
    merged = []
    for a, b in pairs:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def oracle_level(ivs):
    return max(
        (x.denominator.bit_length() - 1 for pair in ivs for x in pair), default=0
    )


def oracle_measure(ivs):
    return sum((b - a for a, b in ivs), F(0))


def oracle_image(ivs):
    out = []
    for a, b in ivs:
        if b <= HALF:
            out.append((2 * a, 2 * b))
        elif a >= HALF:
            out.append((2 * a - 1, 2 * b - 1))
        else:
            out.append((2 * a, F(1)))
            out.append((F(0), 2 * b - 1))
    return oracle_normalize(out)


def oracle_preimage(ivs):
    out = []
    for a, b in ivs:
        out.append((a / 2, b / 2))
        out.append(((a + 1) / 2, (b + 1) / 2))
    return oracle_normalize(out)


def oracle_cell_indices(ivs, level):
    scale = 1 << level
    cells = []
    for a, b in ivs:
        cells.extend(range(int(a * scale), int(b * scale)))
    return tuple(cells)


def oracle_transition_matrix(level):
    n = 1 << level
    width = F(1, n)
    rows = [dict() for _ in range(n)]
    for j in range(n):
        for lo, hi in oracle_preimage(((F(j, n), F(j + 1, n)),)):
            i = int(lo * n)
            while F(i, n) < hi:
                overlap = min(hi, F(i + 1, n)) - max(lo, F(i, n))
                if overlap > 0:
                    rows[i][j] = rows[i].get(j, F(0)) + overlap / width
                i += 1
    return tuple(tuple(sorted(row.items())) for row in rows)


@st.composite
def dyadic_pairs(draw, max_level=8):
    """Random cell sets, or overlapping, adjacent, empty and reversed pairs."""
    level = draw(st.integers(0, max_level))
    n = 1 << level
    if draw(st.booleans()):
        bits = draw(st.integers(0, (1 << n) - 1))
        return [(F(i, n), F(i + 1, n)) for i in range(n) if bits >> i & 1]
    ends = st.integers(0, n).map(lambda k: F(k, n))
    return draw(st.lists(st.tuples(ends, ends), max_size=8))


def assert_matches_oracle(a, ivs):
    assert a.intervals == ivs
    assert a.measure == oracle_measure(ivs)
    assert a.level == oracle_level(ivs)
    for level in range(a.level, a.level + 3):
        assert a.cell_indices(level) == oracle_cell_indices(ivs, level)


@given(dyadic_pairs(), dyadic_pairs())
def test_masks_match_the_interval_oracle(pairs, other_pairs):
    a, b = DyadicSet.from_pairs(pairs), DyadicSet.from_pairs(other_pairs)
    ivs, others = oracle_normalize(pairs), oracle_normalize(other_pairs)
    assert_matches_oracle(a, ivs)
    assert_matches_oracle(b, others)
    assert_matches_oracle(a.image(), oracle_image(ivs))
    assert_matches_oracle(a.preimage(), oracle_preimage(ivs))
    assert (a == b) == (ivs == others)


@pytest.mark.parametrize("level", range(1, 9))
def test_transition_matrix_matches_the_overlap_oracle(level):
    assert transition_matrix(level) == oracle_transition_matrix(level)
