"""Exception hierarchy.

Every error raised by this package derives from :class:`CouplingKitError`,
so callers can catch one type at an API boundary.  Validation errors carry
enough structure (constraint name, offending symbol) for a CLI to report
the first violated constraint without string-parsing the message.
"""

from __future__ import annotations


class CouplingKitError(Exception):
    """Base class for all errors raised by couplingkit."""


class ParseError(CouplingKitError, ValueError):
    """Malformed input text: rational literal, JSON shape, or file content."""


class DistributionError(CouplingKitError, ValueError):
    """A probability vector/matrix violates its contract (sign, mass, shape)."""


class AlphabetMismatchError(CouplingKitError, ValueError):
    """Two distributions that must share an alphabet do not."""


class CouplingError(CouplingKitError, ValueError):
    """A candidate joint distribution fails validation.

    ``constraint`` names the first violated constraint, one of
    ``"shape"``, ``"negative_entry"``, ``"total_mass"``, ``"row_marginal"``,
    ``"column_marginal"``.  ``symbol`` is set for marginal violations.
    """

    def __init__(self, message: str, constraint: str, symbol: str | None = None):
        super().__init__(message)
        self.constraint = constraint
        self.symbol = symbol


class ConstraintInfeasibleError(CouplingKitError, ValueError):
    """No joint distribution satisfies the requested structural constraint.

    ``symbol`` names the offending alphabet symbol when one exists.
    """

    def __init__(self, message: str, symbol: str | None = None):
        super().__init__(message)
        self.symbol = symbol


class EnumerationLimitError(CouplingKitError, ValueError):
    """An exhaustive enumeration was requested above its configured size cap."""


class ShapeMismatchError(CouplingKitError, ValueError):
    """Certificate, coupling, and problem dimensions disagree."""


class CorruptedCouplingError(CouplingKitError, RuntimeError):
    """An internal invariant failed (e.g. v > mismatch); signals a bug, not bad input."""
