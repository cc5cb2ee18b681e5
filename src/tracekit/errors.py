"""Exception hierarchy.

Errors are split into three bands that the CLI maps onto exit codes:
input/format problems (exit 2), precondition violations on otherwise
well-formed values (exit 3), and internal invariant breaches (exit 4,
always a bug).  Each band's class carries that mapping, read by
``cli.main`` and by ``batch``: ``exit_code``, the stderr ``prefix`` and
the ``band`` name a batch summary counts it under.  ``BANDS`` lists
them; any other exception, ``TracekitError`` itself included, is a bug.
"""


class TracekitError(Exception):
    """Base class for all library errors."""


class InputError(TracekitError):
    """Malformed input text, JSON, or files."""

    exit_code, prefix, band = 2, "input error", "input"


class PreconditionError(TracekitError):
    """A well-formed value violates an operation's precondition."""

    exit_code, prefix, band = 3, "precondition violated", "precondition"


class InternalInvariantError(TracekitError):
    """An internal consistency check failed; always a bug."""

    exit_code, prefix, band = 4, "internal invariant breach", "internal"


BANDS = (InputError, PreconditionError, InternalInvariantError)


# -- parsing / construction ------------------------------------------------

class MalformedPD(InputError):
    """PD text or JSON does not describe a planar diagram."""


class InconsistentEdges(InputError):
    """An edge id is used a number of times different from two."""


class OrientationConflict(InputError):
    """No consistent orientation exists for the given combinatorics."""


# -- diagram operations ----------------------------------------------------

class BadComponentIndex(PreconditionError):
    """Component index out of range or invalid for the operation."""


class SameComponent(PreconditionError):
    """Band endpoints lie on a single component."""


class UnknownCatalogEntry(PreconditionError):
    """Requested catalog diagram does not exist."""


class IllegalSite(PreconditionError):
    """Reidemeister move site is not legal for the requested move."""


# -- invariants ------------------------------------------------------------

class DisconnectedDiagram(PreconditionError):
    """Operation requires a connected diagram."""


class NotAlternating(PreconditionError):
    """Operation is only licensed on alternating diagrams."""


class ParityViolation(PreconditionError):
    """An integrality condition on invariants fails."""


# -- traces ----------------------------------------------------------------

class InvalidBlockFraming(PreconditionError):
    """Framings violate the per-block planar attachment law."""


class NotAPartition(PreconditionError):
    """Blocks do not partition the link components."""


class BadBands(PreconditionError):
    """Band sequence does not merge the link to one component."""


class MalformedMixedDiagram(InputError):
    """Mixed diagram (dotted circles + attaching circles) is not well formed."""
