"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: ``InputError`` is a malformed file or
mismatched universe (exit 1), ``PreconditionError`` is a semantic
precondition violation such as an unranked base (exit 2), and
``VerificationError`` is a failed post-hoc consistency check (exit 3).
Exhaustive scans refuse instances above a size guard through
:func:`size_guard`, which the environment variable
``GEODUAL_GUARD_OVERRIDE=1`` lifts.
"""

from __future__ import annotations

import os

GUARD_ENV = "GEODUAL_GUARD_OVERRIDE"


class GeodualError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GeodualError):
    """Malformed input: parse errors, bad labels, universe mismatches."""


class PreconditionError(GeodualError):
    """An operation was called on data violating its semantic precondition."""


class VerificationError(GeodualError):
    """An optional verification pass found the result inconsistent."""


class SizeGuardError(PreconditionError):
    """A brute-force routine refused an instance above its size guard."""


def size_guard(value: int, limit: int, what: str) -> None:
    """Raise :class:`SizeGuardError` when `value` exceeds `limit`, unless
    the override is set."""
    if value > limit and os.environ.get(GUARD_ENV) != "1":
        raise SizeGuardError(
            f"{what} of size {value} exceeds the brute-force guard of {limit}; "
            f"set {GUARD_ENV}=1 to override"
        )


class NotRankedError(PreconditionError):
    """The implicational base admits no rank function.

    Carries the :class:`~geodual.ranking.RankConflict` witness when one is
    available.
    """

    def __init__(self, message: str, conflict=None):
        super().__init__(message)
        self.conflict = conflict


class NotConvexGeometryError(PreconditionError):
    """A family is not the meet family of a convex geometry."""


class DuplicateImplicationWarning(UserWarning):
    """Emitted when duplicate implications are dropped at construction."""


class DuplicateSetWarning(UserWarning):
    """Emitted when duplicate member sets are dropped from a family."""


class RelabelWarning(UserWarning):
    """Emitted when a fresh element had to be renamed to avoid a clash."""
