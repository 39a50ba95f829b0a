"""Exception types shared across the package."""

from __future__ import annotations

from fractions import Fraction


class PfkitError(Exception):
    """Base class for all package-specific errors."""


class SpaceMismatchError(PfkitError):
    """Two objects built over different probability spaces were combined."""


class NotMeasurePreservingError(PfkitError):
    """A candidate atom map fails the preimage-mass balance check."""

    def __init__(self, label: str, expected: Fraction, actual: Fraction):
        self.label = label
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"atom {label!r}: preimage mass {actual} != atom mass {expected}"
        )


class NegativeDensityError(PfkitError):
    """A density that must be nonnegative has a negative value."""


class NullTraceError(PfkitError):
    """A trace set that must carry positive mass is null."""


class DiagnosticInconsistencyError(PfkitError):
    """Two independent routes to the same classification disagreed.

    This is never a property of the input system; it indicates a defect in
    the toolkit itself and is therefore a hard error, not a report entry.
    """


class DyadicValueError(PfkitError):
    """An endpoint is not dyadic, is out of range, or exceeds the level guard."""


class OrbitTooLongError(PfkitError):
    """A set orbit did not repeat within `dynamics.MAX_ORBIT_LENGTH` steps."""


class BadBinCountError(PfkitError):
    """An Ulam discretization was requested with an unusable bin count."""


class NonStochasticRowError(PfkitError):
    """An assembled Ulam row failed the row-sum sanity check."""


class ParseError(PfkitError):
    """A system file or CLI value could not be parsed."""
