from fractions import Fraction

import numpy as np
import pytest

from pfkit import (
    BadBinCountError,
    NonStochasticRowError,
    PfkitError,
    dense_exact_matrix,
    mixing_profile,
    ulam_assemble,
)
from pfkit.ulam import DENSE_MAX_BINS, MAX_BINS

F = Fraction


def test_bin_count_guard():
    with pytest.raises(BadBinCountError):
        ulam_assemble("doubling", 1)
    with pytest.raises(BadBinCountError):
        ulam_assemble("tent", 0)
    with pytest.raises(BadBinCountError):
        ulam_assemble("doubling", MAX_BINS + 1)


def test_unknown_kind():
    with pytest.raises(PfkitError):
        ulam_assemble("baker", 8)


def test_rotation_requires_alpha():
    with pytest.raises(PfkitError):
        ulam_assemble("rotation", 8)


def test_doubling_rows():
    m = ulam_assemble("doubling", 8)
    np.testing.assert_allclose(m.matrix[0], [0.5, 0.5, 0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(m.matrix[4], [0.5, 0.5, 0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(m.matrix.sum(axis=1), np.ones(8))


def test_tent_rows():
    m = ulam_assemble("tent", 8)
    # the falling branch folds the last bin back onto the first quarter
    np.testing.assert_allclose(m.matrix[7], [0.5, 0.5, 0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(m.matrix[0], [0.5, 0.5, 0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(m.matrix.sum(axis=1), np.ones(8))


def test_rotation_is_a_permutation_when_commensurate():
    m = ulam_assemble("rotation", 8, alpha=Fraction(1, 4))
    expected = np.zeros((8, 8))
    for i in range(8):
        expected[i, (i + 2) % 8] = 1.0
    np.testing.assert_allclose(m.matrix, expected)


def test_rotation_splits_bins_otherwise():
    m = ulam_assemble("rotation", 4, alpha=Fraction(1, 8))
    np.testing.assert_allclose(m.matrix[0], [0.5, 0.5, 0, 0])
    np.testing.assert_allclose(m.matrix.sum(axis=1), np.ones(4))


def test_custom_branches():
    # same doubling map supplied explicitly
    branches = ((0.0, 0.5, 2.0, 0.0), (0.5, 1.0, 2.0, -1.0))
    m = ulam_assemble("custom", 16, branches=branches)
    ref = ulam_assemble("doubling", 16)
    np.testing.assert_allclose(m.matrix, ref.matrix)


def test_custom_requires_branches():
    with pytest.raises(PfkitError):
        ulam_assemble("custom", 8)


@pytest.mark.parametrize(
    "bad",
    [
        (0.5, 1.0, 0.0, 0.0),  # zero slope
        (0.5, 1.0, float("nan"), -1.0),
        (0.5, 1.0, 2.0, float("inf")),
        (0.5, 0.5, 2.0, -1.0),  # empty domain
        (0.5, 1.5, 2.0, -1.0),  # domain leaves [0, 1]
        (-0.5, 1.0, 2.0, -1.0),
        (0.5, 1.0, 2.0),
        (0.5, 1.0, 2.0, -1.0, 0.0),
        (0.5, 1.0, "2", -1.0),
        (0.5, 1.0, 10**400, -1.0),
        0.5,
    ],
)
def test_custom_branches_are_validated(bad):
    branches = ((0.0, 0.5, 2.0, 0.0), bad)
    with pytest.raises(PfkitError, match="^branch 1 "):
        ulam_assemble("custom", 8, branches=branches)


def test_partial_cover_is_rejected():
    half_map = ((0.0, 0.5, 2.0, 0.0),)  # image covers [0,1) but domain only half
    with pytest.raises(NonStochasticRowError, match=r"^row 4 sums to 0\.0, expected 1$"):
        ulam_assemble("custom", 8, branches=half_map)


@pytest.mark.parametrize("level", [2, 4, 6])
def test_matches_exact_dyadic_operator(level):
    m = ulam_assemble("doubling", 1 << level)
    np.testing.assert_allclose(m.matrix, dense_exact_matrix(level), atol=1e-12)


def test_mixing_profile_doubling():
    m = ulam_assemble("doubling", 64)
    profile, verdict = mixing_profile(m, list(range(32)), n_max=10)
    assert verdict == "exact-like"
    assert profile[0] > 0.4
    assert profile[1] <= 1e-12


def test_mixing_profile_single_bin_target():
    level = 6
    m = ulam_assemble("doubling", 1 << level)
    profile, verdict = mixing_profile(m, [0], n_max=level + 2)
    assert verdict == "exact-like"
    assert profile[level] <= 1e-12
    assert profile[level - 1] > 1e-12


def test_mixing_profile_rotation_stalls():
    m = ulam_assemble("rotation", 64, alpha=Fraction(1, 4))
    profile, verdict = mixing_profile(m, list(range(32)), n_max=64)
    assert verdict == "non-mixing"
    assert min(profile) > 1e-3


def test_profile_rejects_bad_bins():
    m = ulam_assemble("doubling", 8)
    with pytest.raises(PfkitError):
        mixing_profile(m, [])
    with pytest.raises(PfkitError):
        mixing_profile(m, [9])


def _exact_ulam(branches, bins):
    """Entry (i, j) = bins * |bin_i ∩ branch^-1(bin_j)|, summed over affine branches, in Fractions."""
    out = np.zeros((bins, bins))
    for lo, hi, slope, intercept in branches:
        for j in range(bins):
            ends = sorted(((F(j, bins) - intercept) / slope, (F(j + 1, bins) - intercept) / slope))
            p, q = max(ends[0], lo), min(ends[1], hi)
            for i in range(bins):
                overlap = min(q, F(i + 1, bins)) - max(p, F(i, bins))
                if overlap > 0:
                    out[i, j] += float(overlap * bins)
    return out


def _rotation_branches(alpha):
    return ((F(0), 1 - alpha, F(1), alpha), (1 - alpha, F(1), F(1), alpha - 1))


_DOUBLING = ((F(0), F(1, 2), F(2), F(0)), (F(1, 2), F(1), F(2), F(-1)))
_TENT = ((F(0), F(1, 2), F(2), F(0)), (F(1, 2), F(1), F(-2), F(2)))
_TERNARY = ((F(0), F(1, 3), F(3), F(0)), (F(1, 3), F(2, 3), F(-3), F(2)), (F(2, 3), F(1), F(3), F(-2)))
# branches that do not cover [0, 1): their preimages must be clipped to the domain
_CONTRACTING = ((F(0), F(1, 2), F(1, 2), F(1, 4)), (F(1, 2), F(1), F(-1), F(3, 2)))


def _assert_csr(model):
    indptr, indices = model.indptr, model.indices
    assert len(indptr) == model.bins + 1
    assert indptr[0] == 0 and indptr[-1] == indices.size == model.data.size
    assert np.all(np.diff(indptr) >= 0)
    assert indices.size == 0 or (indices.min() >= 0 and indices.max() < model.bins)
    same_row = np.diff(np.repeat(np.arange(model.bins), np.diff(indptr))) == 0
    assert np.all(np.diff(indices)[same_row] > 0)
    assert np.all(model.data > 0)


@pytest.mark.parametrize("bins", [8, 27, 64])
@pytest.mark.parametrize(
    ("kind", "alpha", "exact"),
    [
        ("doubling", None, _DOUBLING),
        ("tent", None, _TENT),
        ("rotation", F(1, 3), _rotation_branches(F(1, 3))),
        ("rotation", F(2, 7), _rotation_branches(F(2, 7))),
        ("rotation", F(5, 16), _rotation_branches(F(5, 16))),
        ("custom", None, _TERNARY),
        ("custom", None, _CONTRACTING),
    ],
    ids=["doubling", "tent", "rotation-1_3", "rotation-2_7", "rotation-5_16", "ternary", "contracting"],
)
def test_sparse_assembly_matches_the_exact_oracle(kind, alpha, exact, bins):
    model = ulam_assemble(kind, bins, alpha=alpha, branches=exact if kind == "custom" else None)
    _assert_csr(model)
    np.testing.assert_allclose(model.matrix, _exact_ulam(exact, bins), rtol=0, atol=1e-12)


def test_exact_oracle_matches_the_dyadic_route():
    np.testing.assert_allclose(_exact_ulam(_DOUBLING, 8), dense_exact_matrix(3), rtol=0, atol=0)


def test_doubling_at_the_bin_cap():
    m = ulam_assemble("doubling", MAX_BINS)
    assert m.data.size == 2 * MAX_BINS
    _assert_csr(m)
    profile, verdict = mixing_profile(m, [0], n_max=18)
    assert verdict == "exact-like"
    assert profile[16] <= 1e-12 < profile[15]


def test_dense_view_is_capped():
    assert ulam_assemble("tent", DENSE_MAX_BINS).matrix.shape == (DENSE_MAX_BINS, DENSE_MAX_BINS)
    m = ulam_assemble("tent", DENSE_MAX_BINS + 1)
    with pytest.raises(BadBinCountError):
        m.matrix
    profile, verdict = mixing_profile(m, range(100), n_max=30)
    assert verdict == "exact-like"
