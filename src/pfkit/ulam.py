"""Ulam bin discretizations of interval maps, in floating point.

Everything in this module is a numerical estimate: matrices are assembled
from branch preimage geometry in floats, profiles are L1 norms of iterated
bin densities, and the verdict strings label the float path only.  They are
never promoted to statements about the underlying map; the exact dyadic
model is the ground truth the doubling-map discretization is checked
against (entrywise, since the dyadic grid makes the discretization exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BadBinCountError, NonStochasticRowError, PfkitError

ROW_SUM_TOL = 1e-12

# The largest bin count `ulam_assemble` accepts.  The matrix is a dense
# bins x bins float64 array, 134 MB at this size and growing with the square,
# so larger requests are refused before anything is allocated.
MAX_BINS = 4096

# An affine branch (lo, hi, slope, intercept): x -> slope * x + intercept on [lo, hi).
Branch = tuple[float, float, float, float]

_BRANCHES: dict[str, tuple[Branch, ...]] = {
    "doubling": ((0.0, 0.5, 2.0, 0.0), (0.5, 1.0, 2.0, -1.0)),
    "tent": ((0.0, 0.5, 2.0, 0.0), (0.5, 1.0, -2.0, 2.0)),
}


@dataclass(frozen=True)
class UlamModel:
    """A bin count, the assembled transition matrix, and its provenance."""

    kind: str
    bins: int
    matrix: np.ndarray = field(repr=False)
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.matrix.shape != (self.bins, self.bins):
            raise ValueError("matrix shape must be bins x bins")


def _branch_preimage(branch: Branch, c: float, d: float) -> tuple[float, float] | None:
    lo, hi, slope, intercept = branch
    if slope > 0:
        p = (c - intercept) / slope
        q = (d - intercept) / slope
    else:
        p = (d - intercept) / slope
        q = (c - intercept) / slope
    p, q = max(p, lo), min(q, hi)
    if p >= q:
        return None
    return p, q


def _accumulate(matrix: np.ndarray, j: int, p: float, q: float, n: int) -> None:
    """Add the coverage of [p, q) to column j, spread over the input bins."""
    i0 = max(int(np.floor(p * n)), 0)
    i1 = min(int(np.ceil(q * n)), n)
    for i in range(i0, i1):
        overlap = min(q, (i + 1) / n) - max(p, i / n)
        if overlap > 0:
            matrix[i, j] += overlap * n


def ulam_assemble(
    kind: str,
    bins: int,
    alpha: float | None = None,
    branches: Sequence[Branch] | None = None,
) -> UlamModel:
    """Assemble the bin transition matrix for a named interval map.

    Entry (i, j) is the fraction of bin i whose image lands in bin j,
    computed from the preimage of bin j branch by branch.  Supported kinds:
    "doubling", "tent", "rotation" (requires alpha), and "custom" with an
    explicit list of affine branches covering [0, 1).
    """
    if bins < 2:
        raise BadBinCountError(f"need at least 2 bins, got {bins}")
    if bins > MAX_BINS:
        raise BadBinCountError(f"at most {MAX_BINS} bins are supported, got {bins}")
    matrix = np.zeros((bins, bins))

    if kind == "rotation":
        if alpha is None:
            raise PfkitError("rotation requires alpha")
        shift = alpha % 1.0
        for j in range(bins):
            c, d = j / bins, (j + 1) / bins
            p, q = c - shift, d - shift
            for lo, hi in ((p, q), (p + 1.0, q + 1.0)):
                lo2, hi2 = max(lo, 0.0), min(hi, 1.0)
                if lo2 < hi2:
                    _accumulate(matrix, j, lo2, hi2, bins)
    else:
        if kind == "custom":
            if not branches:
                raise PfkitError("custom maps need at least one branch")
            branch_list = tuple(branches)
        else:
            try:
                branch_list = _BRANCHES[kind]
            except KeyError:
                raise PfkitError(f"unknown map kind {kind!r}") from None
        for j in range(bins):
            c, d = j / bins, (j + 1) / bins
            for branch in branch_list:
                pre = _branch_preimage(branch, c, d)
                if pre is not None:
                    _accumulate(matrix, j, pre[0], pre[1], bins)

    row_sums = matrix.sum(axis=1)
    bad = np.nonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)[0]
    if bad.size:
        raise NonStochasticRowError(
            f"row {bad[0]} sums to {row_sums[bad[0]]!r}, expected 1"
        )
    return UlamModel(kind=kind, bins=bins, matrix=matrix, alpha=alpha)


def mixing_profile(
    model: UlamModel,
    b_bins: Sequence[int],
    n_max: int = 64,
    tol: float = 1e-9,
) -> tuple[np.ndarray, str]:
    """L1 distance of iterated bin densities from the mean, plus a verdict.

    Starting from the indicator of the listed bins, entry n of the profile
    is the L1 norm of (P^n 1_B - mu(B)).  The verdict is "exact-like" when
    the profile dips below tol within the horizon and "non-mixing" when it
    stalls above; it describes this float run, nothing more.
    """
    n = model.bins
    b_idx = sorted(set(b_bins))
    if not b_idx:
        raise BadBinCountError("target needs at least one bin")
    if not 0 <= b_idx[0] <= b_idx[-1] < n:
        raise BadBinCountError("bin indices out of range")
    f = np.zeros(n)
    f[b_idx] = 1.0
    mean = len(b_idx) / n
    profile = np.empty(n_max + 1)
    for step in range(n_max + 1):
        profile[step] = np.abs(f - mean).mean()
        f = f @ model.matrix
    verdict = "exact-like" if profile.min() < tol else "non-mixing"
    return profile, verdict


def dense_exact_matrix(level: int) -> np.ndarray:
    """The exact dyadic transition matrix as floats, for cross-validation."""
    from .dyadic import transition_matrix

    rows = transition_matrix(level)
    n = len(rows)
    out = np.zeros((n, n))
    for i, row in enumerate(rows):
        for j, value in row:
            out[i, j] = float(value)
    return out
