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
from pfkit.ulam import MAX_BINS


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


def test_partial_cover_is_rejected():
    half_map = ((0.0, 0.5, 2.0, 0.0),)  # image covers [0,1) but domain only half
    with pytest.raises(NonStochasticRowError):
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
