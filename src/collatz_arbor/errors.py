"""Exception types shared across the toolkit."""


class CollatzArborError(Exception):
    """Base class for all toolkit-specific errors."""


class LeafParentError(CollatzArborError, ValueError):
    """A multiple of 3 was used as a parent; such vertices have no children."""


class InconsistencyError(CollatzArborError):
    """Two formulations that must agree exactly have diverged.

    Signals an implementation bug (or a falsified identity), never bad input.
    """


class DuplicateVertexError(CollatzArborError):
    """The same value was produced twice in a built tree's levels.

    Raised where the tree's membership store is first made, instead of
    merging: a silent merge would mask the uniqueness property the tree is
    meant to witness.
    """

    def __init__(self, value: int, first_parent: int, second_parent: int):
        self.value = value
        self.first_parent = first_parent
        self.second_parent = second_parent
        super().__init__(
            f"vertex {value} produced twice: by parent {first_parent} "
            f"and again by parent {second_parent}"
        )


class CapacityError(CollatzArborError):
    """Node budget exceeded during tree construction."""


class MissingVertexError(CollatzArborError, LookupError):
    """Requested vertex is not stored in the truncated tree.

    Absence under truncation is expected; it is not a counterexample.
    """


class NonEdgeError(CollatzArborError, ValueError):
    """The given (parent, child) pair is not an edge of the inverse graph."""
