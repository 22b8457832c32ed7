"""Exception types shared across the package.

Exit-code mapping used by the CLI: InvalidInputError -> 2,
InfeasibleStructureError -> 3, OracleRefusalError -> 4.
"""


class NavstreamError(Exception):
    """Base class for all package errors."""


class InvalidInputError(NavstreamError):
    """Bad parameter values, malformed files, or failed validation."""


class CorruptTableError(InvalidInputError):
    """A size table holds a missing, non-finite or non-positive entry."""


class InfeasibleStructureError(NavstreamError):
    """The structure cannot independently reconstruct some MDU."""


class OracleRefusalError(NavstreamError):
    """An exhaustive oracle was asked to run on an instance too large for it."""


class PolicyGapError(NavstreamError):
    """The simulator reached a state the policy does not cover."""
