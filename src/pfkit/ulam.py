"""Ulam bin discretizations of interval maps, in floating point.

Everything in this module is a numerical estimate: matrices are assembled
from branch preimage geometry in floats, profiles are L1 norms of iterated
bin densities, and the verdict strings label the float path only.  They are
never promoted to statements about the underlying map; the exact dyadic
model is the ground truth the doubling-map discretization is checked
against (entrywise, since the dyadic grid makes the discretization exact).

A transition matrix is stored sparse, as numpy CSR arrays: an affine map
sends each bin onto a few bins only (two per row for doubling and tent),
so assembly, one profile step and the `--matrix-out` export each cost
O(nnz) rather than O(bins^2).  The dense matrix is a view built on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Iterator, Sequence

import numpy as np

from .errors import BadBinCountError, NonStochasticRowError, PfkitError

ROW_SUM_TOL = 1e-12

# The largest bin count `ulam_assemble` accepts.  Storage is O(nnz), about
# 2 * bins entries for the built-in maps, so at this size a request takes
# tens of milliseconds; the cap bounds --bins before anything is allocated.
MAX_BINS = 1 << 16

# The largest bin count whose dense `UlamModel.matrix` view may be built:
# a bins x bins float64 array, 134 MB at this size and growing with the
# square.
DENSE_MAX_BINS = 4096

# An affine branch (lo, hi, slope, intercept): x -> slope * x + intercept on [lo, hi).
Branch = tuple[float, float, float, float]

_BRANCHES: dict[str, tuple[Branch, ...]] = {
    "doubling": ((0.0, 0.5, 2.0, 0.0), (0.5, 1.0, 2.0, -1.0)),
    "tent": ((0.0, 0.5, 2.0, 0.0), (0.5, 1.0, -2.0, 2.0)),
}


@dataclass(frozen=True)
class UlamModel:
    """A bin count, the assembled transition matrix, and its provenance.

    The matrix is held in CSR form: the entries of row i (input bin i) are
    `data[indptr[i]:indptr[i + 1]]`, in the output-bin columns
    `indices[indptr[i]:indptr[i + 1]]`, strictly increasing.  Only nonzero
    entries are stored.
    """

    kind: str
    bins: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.indptr.shape != (self.bins + 1,):
            raise ValueError("indptr must have bins + 1 entries")
        if self.indices.shape != self.data.shape or self.indptr[-1] != self.data.size:
            raise ValueError("indices and data must hold indptr[-1] entries each")

    @cached_property
    def rows(self) -> np.ndarray:
        """The row (input bin) of every stored entry."""
        return np.repeat(np.arange(self.bins), np.diff(self.indptr))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense bins x bins matrix, read-only, for at most DENSE_MAX_BINS bins."""
        if self.bins > DENSE_MAX_BINS:
            raise BadBinCountError(
                f"the dense matrix view needs at most {DENSE_MAX_BINS} bins, got {self.bins}"
            )
        dense = np.zeros((self.bins, self.bins))
        dense[self.rows, self.indices] = self.data
        dense.flags.writeable = False
        return dense

    def entries(self) -> Iterator[tuple[int, int, float]]:
        """The nonzero entries (i, j, p) in row-major order."""
        return zip(self.rows.tolist(), self.indices.tolist(), self.data.tolist())


def _custom_branches(branches: Sequence[Branch] | None) -> tuple[Branch, ...]:
    if not branches:
        raise PfkitError("custom maps need at least one branch")
    checked = []
    for k, branch in enumerate(branches):
        try:
            values = tuple(branch)
            lo, hi, slope, intercept = map(float, values)
            numeric = all(isinstance(x, Real) for x in values)
        except (TypeError, ValueError, OverflowError):
            numeric = False
        if not (numeric and math.isfinite(slope) and math.isfinite(intercept) and slope != 0 and 0 <= lo < hi <= 1):
            raise PfkitError(
                f"branch {k} must be four finite numbers (lo, hi, slope, intercept) "
                f"with a nonzero slope and 0 <= lo < hi <= 1, got {branch!r}"
            )
        checked.append((lo, hi, slope, intercept))
    return tuple(checked)


def _preimages(
    kind: str, bins: int, alpha: float | None, branches: Sequence[Branch] | None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per branch (or rotation piece), the preimage [p_j, q_j) of every output bin j."""
    c = np.arange(bins) / bins
    d = np.arange(1, bins + 1) / bins
    if kind == "rotation":
        if alpha is None:
            raise PfkitError("rotation requires alpha")
        shift = float(alpha % 1)  # exact for a Fraction, so a huge one cannot overflow
        p, q = c - shift, d - shift
        return [(np.maximum(lo, 0.0), np.minimum(hi, 1.0)) for lo, hi in ((p, q), (p + 1.0, q + 1.0))]
    if kind == "custom":
        branch_list = _custom_branches(branches)
    else:
        try:
            branch_list = _BRANCHES[kind]
        except KeyError:
            raise PfkitError(f"unknown map kind {kind!r}") from None
    pieces = []
    for lo, hi, slope, intercept in branch_list:
        p, q = (c - intercept) / slope, (d - intercept) / slope
        if slope < 0:
            p, q = q, p
        pieces.append((np.maximum(p, lo), np.minimum(q, hi)))
    return pieces


def _coo(pieces: list[tuple[np.ndarray, np.ndarray]], bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spread each nonempty preimage [p, q) of bin j over the input bins it meets.

    Returns triples (i, j, |bin_i ∩ [p, q)| * bins), piece by piece, so that
    entries hit by several pieces can be summed in piece order.
    """
    j = np.tile(np.arange(bins), len(pieces))
    p = np.concatenate([lo for lo, _ in pieces])
    q = np.concatenate([hi for _, hi in pieces])
    keep = p < q
    j, p, q = j[keep], p[keep], q[keep]
    # every piece lies in [0, 1], so these input bins lie in [0, bins)
    i0 = np.floor(p * bins).astype(np.int64)
    counts = np.ceil(q * bins).astype(np.int64) - i0
    seg = np.repeat(np.arange(j.size), counts)
    starts = np.cumsum(counts) - counts
    i = i0[seg] + np.arange(seg.size) - starts[seg]
    overlap = np.minimum(q[seg], (i + 1) / bins) - np.maximum(p[seg], i / bins)
    hit = overlap > 0
    return i[hit], j[seg][hit], overlap[hit] * bins


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
    explicit list of affine branches covering [0, 1); each custom branch
    must be four finite numbers with a nonzero slope and 0 <= lo < hi <= 1.
    """
    if bins < 2:
        raise BadBinCountError(f"need at least 2 bins, got {bins}")
    if bins > MAX_BINS:
        raise BadBinCountError(f"at most {MAX_BINS} bins are supported, got {bins}")
    rows, cols, values = _coo(_preimages(kind, bins, alpha, branches), bins)
    # bincount adds in input order, so an entry met by several pieces sums
    # them in piece order, starting from 0.0, as a scalar accumulation would
    keys, slot = np.unique(rows * bins + cols, return_inverse=True)
    data = np.bincount(slot, weights=values, minlength=keys.size)
    rows, indices = np.divmod(keys, bins)
    indptr = np.searchsorted(rows, np.arange(bins + 1))

    row_sums = np.bincount(rows, weights=data, minlength=bins)
    bad = np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        raise NonStochasticRowError(
            f"row {bad[0]} sums to {float(row_sums[bad[0]])!r}, expected 1"
        )
    return UlamModel(kind=kind, bins=bins, indptr=indptr, indices=indices, data=data, alpha=alpha)


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
    stalls above; it describes this float run, nothing more.  Each step is
    one sparse vector-matrix product, O(nnz).
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
    rows, cols, data = model.rows, model.indices, model.data
    profile = np.empty(n_max + 1)
    for step in range(n_max + 1):
        profile[step] = np.abs(f - mean).mean()
        f = np.bincount(cols, weights=f[rows] * data, minlength=n)
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
