"""Exception types shared across the package.

Exit-code mapping used by the CLI: InvalidInputError -> 2,
InfeasibleStructureError -> 3, OracleRefusalError -> 4.
"""

from contextlib import contextmanager


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


@contextmanager
def open_output(what: str, path, newline=None):
    """`path` opened for writing UTF-8 text, as `with open(...)` does; an
    OSError while opening or writing it raises `InvalidInputError` naming
    `what` and `path`, so an unwritable output exits 2 like an unreadable
    input."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        reason = exc.strerror or exc
        raise InvalidInputError(f"cannot write {what} {path}: {reason}") from exc
