"""Exception types shared across the package, and the enumeration-cap helpers
next to CapExceeded: DEFAULT_CAP, _require and _enumeration_count.  verify's
checks and the cli's table command both charge the cap here, so the cli loads
verify only for the verify command."""

import operator

DEFAULT_CAP = 10_000_000


class CyclologError(Exception):
    """Base class for all domain errors raised by this package."""


class ContextMismatch(CyclologError):
    """Operands belong to different (p, precision) contexts."""


class DigitStringError(CyclologError, ValueError):
    """A digit string is malformed or contains digits outside [0, p)."""


class NotAUnit(CyclologError):
    """Inversion requested for an element with positive valuation."""


class NotDivisible(CyclologError):
    """Exact division by a power of the uniformizer is not possible."""


class NotPrincipalUnit(CyclologError):
    """Logarithm input must have constant digit equal to 1."""


class ValuationTooSmall(CyclologError):
    """Exponential input must lie in the square of the maximal ideal."""


class BranchZero(CyclologError):
    """Preimage branches are indexed by a nonzero leading digit."""


class NotInMSquared(CyclologError):
    """Preimage targets must have digits 0 and 1 equal to zero."""


class CapExceeded(CyclologError):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(f"enumeration of {required} elements exceeds cap {cap}")
        self.required = required
        self.cap = cap


def _require(total: int, cap: int) -> None:
    cap = operator.index(cap)
    if total > cap:
        raise CapExceeded(total, cap)


def _enumeration_count(lead: int, p: int, exponent: int, cap: int) -> int:
    """lead * p**exponent, exact up to max(cap, 10**18); past that it stops
    growing, still over the cap and small enough to print."""
    total, limit = lead, max(operator.index(cap), 10**18)
    for _ in range(exponent):
        if total > limit:
            break
        total *= p
    return total
