"""The inverse map g and the equivalent sibling-set formulations.

A parent u with u mod 3 != 0 has the infinite child family

    v_n = (2^(2n) * u - 1) / 3      if u == 1 (mod 3)
    v_n = (2^(2n-1) * u - 1) / 3    if u == 2 (mod 3)

for n >= 1; multiples of 3 have no children at all.  Every branch is a true
preimage of the forward map, the family is strictly ascending, and consecutive
children satisfy v_{n+1} = 1 + 4 v_n.  Several alternative expressions for v_n
exist (via the parent's multiple, via the recurrence, via a partial geometric
sum); the functions here compute more than one route and insist that the
routes agree exactly.
"""

from __future__ import annotations

from typing import Iterator

from ._record import Record
from .core import _require_index, _require_int, _require_odd_positive, z_term
from .errors import InconsistencyError, LeafParentError

# iter_siblings is deliberately not in __all__: the supported enumeration
# surface is SiblingSet, which carries an explicit stop criterion.
__all__ = ["g_branch", "branch_forms", "initial_vertex", "siblings", "SiblingSet"]


def _require_parent(u: int) -> int:
    """Validate u as a parent and return its residue class (1 or 2)."""
    _require_odd_positive(u, "u")
    r = u % 3
    if r == 0:
        raise LeafParentError(f"{u} is a multiple of 3 and has no children")
    return r


def _branch_exponent(u: int, n: int) -> int:
    """Power of two consumed by the n-th branch: 2n for class 1, 2n-1 for class 2."""
    r = _require_parent(u)
    _require_index(n)
    return 2 * n if r == 1 else 2 * n - 1


def _raw_branch(u: int, e: int, z: int) -> int:
    """(2^e u - 1) / 3, cross-checked against the multiple form z + 2^e (u div 3).

    The one home of the branch formula.  It checks no argument: callers pass
    a parent u, the exponent e of its n-th branch and z = z_n.  Raises
    InconsistencyError when 3 does not divide 2^e u - 1 or when the two
    forms differ.
    """
    t = (u << e) - 1
    if t % 3:
        raise InconsistencyError(f"2^{e} * {u} - 1 is not divisible by 3")
    v = t // 3
    alt = z + ((u // 3) << e)
    if v != alt:
        # e = 2n or 2n - 1, so n = (e + 1) div 2 in both classes
        raise InconsistencyError(
            f"child of {u} at index {(e + 1) // 2}: {v} != multiple form {alt}")
    return v


def g_branch(u: int, n: int) -> int:
    """The n-th child of parent u, cross-checked against the multiple form.

    Checks u and n, then computes (2^e u - 1) / 3 with e the class-determined
    exponent through _raw_branch, which asserts it equals z_n + 2^e (u div 3).
    """
    return _raw_branch(u, _branch_exponent(u, n), z_term(n))


def branch_forms(u: int, n: int) -> dict[str, int]:
    """v_n by all four equivalent routes, for cross-validation.

    Keys: "transition" (direct division), "multiple" (via u's multiple),
    "recurrence" (iterate 1 + 4v from v_1), "summation" (partial geometric
    sum added to v_1).
    """
    r = _require_parent(u)
    _require_index(n)
    e = 2 * n if r == 1 else 2 * n - 1
    transition = ((1 << e) * u - 1) // 3
    multiple = z_term(n) + (1 << e) * (u // 3)

    e1 = 2 if r == 1 else 1
    v1 = ((1 << e1) * u - 1) // 3
    rec = v1
    for _ in range(n - 1):
        rec = 1 + 4 * rec
    # sum 2^(2i) for i=1..n-1 (class 1) or 2^(2i-1) (class 2)
    acc = 0
    for i in range(1, n):
        acc += 1 << (2 * i if r == 1 else 2 * i - 1)
    summation = u * acc + v1
    return {
        "transition": transition,
        "multiple": multiple,
        "recurrence": rec,
        "summation": summation,
    }


def initial_vertex(u: int) -> int:
    """The least child v_1 of u; above u for class-1 parents, below for class-2.

    Cross-checks the positional rule and the closed forms v_1 = u + mu (class 1)
    and v_1 = u - (mu + 1) = (u + mu) / 2 (class 2), mu being u's multiple.
    """
    r = _require_parent(u)
    v1 = g_branch(u, 1)
    mu = u // 3
    if r == 1:
        if v1 != u + mu:
            raise InconsistencyError(f"v1({u}) = {v1} != u + mu = {u + mu}")
        if u > 1 and not v1 > u:
            raise InconsistencyError(f"v1({u}) = {v1} should exceed its class-1 parent")
        if u == 1 and v1 != 1:
            raise InconsistencyError("the root's first child must close the trivial cycle")
    else:
        if v1 != u - (mu + 1) or 2 * v1 != u + mu:
            raise InconsistencyError(f"v1({u}) = {v1} disagrees with the class-2 closed forms")
        if not v1 < u:
            raise InconsistencyError(f"v1({u}) = {v1} should be below its class-2 parent")
    return v1


def iter_siblings(u: int, first_index: int = 1) -> Iterator[tuple[int, int]]:
    """Unbounded ascending stream of (n, v_n); callers impose their own stop.

    The first point is computed directly (with its internal cross-check) and
    the rest by the recurrence v_{n+1} = 1 + 4 v_n.
    """
    v = g_branch(u, first_index)
    n = first_index
    while True:
        yield n, v
        v = 1 + 4 * v
        n += 1


class SiblingSet(Record):
    """A parent plus a bounded view of its strictly ascending child stream.

    Exactly one stop criterion is set: `count` keeps children v_1..v_count,
    `bound` keeps those <= bound (sound, since the stream only ascends).
    Iteration restarts the stream, so concurrent consumers are independent.
    `depth` is optional placement metadata: children sit at `depth`, the
    parent one level above.
    """

    __slots__ = ("parent", "count", "bound", "depth")
    _defaults = {"count": None, "bound": None, "depth": None}
    parent: int
    count: int | None
    bound: int | None
    depth: int | None

    def __post_init__(self) -> None:
        _require_parent(self.parent)
        if (self.count is None) == (self.bound is None):
            raise ValueError("exactly one of count/bound must be given")
        for what in ("count", "bound", "depth"):
            size = getattr(self, what)
            if size is not None:
                _require_int(size, what)
                if size < 1:
                    raise ValueError(f"{what} must be >= 1, got {size}")

    def indexed(self) -> Iterator[tuple[int, int]]:
        for n, v in iter_siblings(self.parent):
            if self.count is not None and n > self.count:
                return
            if self.bound is not None and v > self.bound:
                return
            yield n, v

    def __iter__(self) -> Iterator[int]:
        return (v for _, v in self.indexed())

    def values(self) -> list[int]:
        return list(self)


def siblings(u: int, *, count: int | None = None, bound: int | None = None,
             depth: int | None = None) -> SiblingSet:
    """Bounded sibling set of parent u; exactly one stop criterion required."""
    return SiblingSet(u, count=count, bound=bound, depth=depth)
