"""Exception types shared across the toolkit."""


class CollatzArborError(Exception):
    """Base class for all toolkit-specific errors."""


class LeafParentError(CollatzArborError, ValueError):
    """A multiple of 3 was used as a parent; such vertices have no children."""


class InconsistencyError(CollatzArborError):
    """Two formulations that must agree exactly have diverged.

    Signals an implementation bug (or a falsified identity), never bad input.
    """


class CapacityError(CollatzArborError):
    """Node budget exceeded during tree construction."""


class MissingVertexError(CollatzArborError, LookupError):
    """Requested vertex is not stored in the truncated tree.

    Absence under truncation is expected; it is not a counterexample.
    """


class NonEdgeError(CollatzArborError, ValueError):
    """The given (parent, child) pair is not an edge of the inverse graph."""
