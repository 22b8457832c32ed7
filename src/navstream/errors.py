"""Exception types shared across the package, and the one way in and out
of its files.

Exit-code mapping used by the CLI: InvalidInputError -> 2,
InfeasibleStructureError -> 3, OracleRefusalError -> 4, any other
NavstreamError -> 2.  Every input file is read through `open_input` and
every output written through `open_output` or `open_outputs`, so a file
that cannot be read, decoded or written raises `InvalidInputError`
("cannot read/write <what> <path>: <reason>") and exits 2.
"""

import csv
import errno
import io
import os
import tempfile
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
def open_input(what: str, path, newline=None):
    """`path` opened for reading UTF-8 text, as `with open(...)` does.  An
    error while opening it or in the block, which should only read and
    decode it, raises `InvalidInputError` naming `what` and `path`: an
    OSError, a ValueError (bad UTF-8 or JSON), a `csv.Error` (a field over
    `csv.field_size_limit()`) or a RecursionError (JSON nested too deep)."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except (OSError, ValueError, csv.Error, RecursionError) as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc}") from exc


def _cannot_write(what: str, path, exc: OSError) -> InvalidInputError:
    reason = exc.strerror or exc
    return InvalidInputError(f"cannot write {what} {path}: {reason}")


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
        raise _cannot_write(what, path, exc) from exc


@contextmanager
def open_outputs(*outputs):
    """Several (what, path, newline) outputs, written all or nothing.

    The block writes to one in-memory text buffer per output.  Each is then
    written to a fresh temporary file beside its path, and only once every
    one is written are they renamed to their paths; a rename that fails
    removes the outputs already renamed.  A path that is a directory is
    refused before anything is renamed.  An OSError raises
    `InvalidInputError` as `open_output` does and leaves no output behind.
    """
    buffers = [io.StringIO(newline="") for _ in outputs]
    yield buffers
    mask = os.umask(0)
    os.umask(mask)
    staged, placed = [], []
    try:
        for (what, path, newline), buf in zip(outputs, buffers):
            try:
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                fd, tmp = tempfile.mkstemp(
                    suffix=".tmp", dir=os.path.dirname(path) or "."
                )
                staged.append(tmp)
                with open(fd, "w", encoding="utf-8", newline=newline) as fh:
                    os.fchmod(fd, 0o666 & ~mask)  # the mode open() would give
                    fh.write(buf.getvalue())
            except OSError as exc:
                raise _cannot_write(what, path, exc) from exc
        for (what, path, _), tmp in zip(outputs, staged):
            try:
                os.replace(tmp, path)
            except OSError as exc:
                for done in placed:
                    os.remove(done)
                raise _cannot_write(what, path, exc) from exc
            placed.append(path)
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
