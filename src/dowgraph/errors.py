"""Exception types shared across the package.

Input problems (bad words, bad letter sets, out-of-range sizes) derive from
:class:`InputError`, which is a ``ValueError``.  :class:`InternalCheckError`
signals that a verified identity failed at runtime; it is a bug indicator,
never a user error, and the command line maps it to a distinct exit code.
:func:`_require_int` is the one rule for the integer sizes the entry points
take (letter counts, worker counts, Fibonacci indices).
"""

from __future__ import annotations

__all__ = [
    "InputError",
    "EmptyWordError",
    "BadTokenError",
    "NotDoubleOccurrenceError",
    "SigmaEmptyError",
    "NotIncidentError",
    "InvalidHamiltonianSetError",
    "ConsecutiveEdgesError",
    "PreconditionViolatedError",
    "TooLargeError",
    "InternalCheckError",
]


class InputError(ValueError):
    """Base class for all rejections of caller-supplied data."""


class EmptyWordError(InputError):
    """Raised when a word source contains no letters at all."""


class BadTokenError(InputError):
    """Raised when a word source contains a token that is not a positive integer."""


class NotDoubleOccurrenceError(InputError):
    """Raised when some letter does not occur exactly twice."""


class SigmaEmptyError(InputError):
    """Raised when a letter subset that must be non-empty is empty."""


class NotIncidentError(InputError):
    """Raised when an edge index is not incident to the vertex under discussion."""


class InvalidHamiltonianSetError(InputError):
    """Raised when a claimed Hamiltonian set fails validation against its graph."""


class ConsecutiveEdgesError(InputError):
    """Raised when an edge subset contains two consecutively indexed edges."""


class PreconditionViolatedError(InputError):
    """Raised when a structural precondition of an algorithm does not hold."""


class TooLargeError(InputError):
    """Raised when a requested exhaustive computation exceeds the size guard."""


def _require_int(name: str, value: object, least: int) -> None:
    """Refuse ``value`` as the integer argument ``name`` unless it is an
    ``int`` (a ``bool`` is not one here) of at least ``least``.

    >>> _require_int("n", True, 1)
    Traceback (most recent call last):
        ...
    dowgraph.errors.InputError: n must be an integer, got True
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be at least {least}")


class InternalCheckError(RuntimeError):
    """A self-check on a computed result failed.

    Every constructive routine in this package re-verifies its own output
    (projections match the expected pattern, deletions are all even, counts
    agree with the witness test).  If one of those checks ever fires the
    library state is unreliable and the process should stop loudly.
    """
