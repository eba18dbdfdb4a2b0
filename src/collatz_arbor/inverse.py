"""The inverse map g and the equivalent sibling-set formulations.

A parent u with u mod 3 != 0 has the infinite child family

    v_n = (2^(2n) * u - 1) / 3      if u == 1 (mod 3)
    v_n = (2^(2n-1) * u - 1) / 3    if u == 2 (mod 3)

for n >= 1, the exponent rule that _exponent holds; multiples of 3 have no
children at all.  Every branch is a true preimage of the forward map, the
family is strictly ascending, and consecutive children satisfy
v_{n+1} = 1 + 4 v_n.  Several alternative expressions for v_n exist (via the
parent's multiple, via the recurrence, via a partial geometric sum).
g_branch insists that two routes agree exactly; branch_forms returns the four
routes and checks nothing, and the closed-forms suite checks that they agree.
The least child g_branch(u, 1), the initial vertex, is u + mu (class 1) or
u - (mu + 1) (class 2), mu = u div 3, as the adjacent-initials and partition
suites check.

A parent's run of children within a box, the exponents of g cut at a value
bound or a sibling cap, has one home: _kernel_table and _children, which
grow every level of arbor.build and every SiblingSet, priced in closed form
by _charge before any child is grown.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from ._record import Record
from .core import _require_box, _require_odd_positive, z_term
from .errors import InconsistencyError, LeafParentError

__all__ = ["g_branch", "branch_forms", "siblings", "SiblingSet"]


def _require_parent(u: int) -> int:
    """Validate u as a parent and return its residue class (1 or 2)."""
    _require_odd_positive(u, "u")
    r = u % 3
    if r == 0:
        raise LeafParentError(f"{u} is a multiple of 3 and has no children")
    return r


def _raw_branch(u: int, e: int) -> int:
    """(2^e u - 1) / 3, the branch of u with exponent e: the one home of g's division.

    It checks no argument: callers pass a parent u and the exponent e of
    one of its branches.  Raises InconsistencyError when 3 does not divide
    2^e u - 1.
    """
    t = (u << e) - 1
    if t % 3:
        raise InconsistencyError(f"2^{e} * {u} - 1 is not divisible by 3")
    return t // 3


def _exponent(u: int, n: int) -> int:
    """e_n, the exponent of a parent u's n-th child: 2n for class 1, 2n - 1 for class 2."""
    return 2 * n if u % 3 == 1 else 2 * n - 1


def _branch(u: int, n: int) -> int:
    """v_n of a parent u through the raw branch kernel; it checks no argument."""
    return _raw_branch(u, _exponent(u, n))


def _multiple_form(u: int, e: int, v: int, z: int) -> int:
    """v, u's branch of exponent e, once it equals the multiple form z + 2^e (u div 3).

    The one home of that cross-check, with z = z_n; e = 2n or 2n - 1, so
    n = (e + 1) div 2 in both classes.  Raises InconsistencyError on a mismatch.
    """
    alt = z + ((u // 3) << e)
    if v != alt:
        raise InconsistencyError(
            f"child of {u} at index {(e + 1) // 2}: {v} != multiple form {alt}")
    return v


def g_branch(u: int, n: int) -> int:
    """The n-th child of parent u, cross-checked against the multiple form.

    Checks u and n, then computes (2^e u - 1) / 3 with e = _exponent(u, n)
    through _raw_branch, and asserts through _multiple_form that it equals
    z_n + 2^e (u div 3).
    """
    _require_parent(u)
    _require_box(n=n)
    e = _exponent(u, n)
    return _multiple_form(u, e, _raw_branch(u, e), z_term(n))


def branch_forms(u: int, n: int) -> dict[str, int]:
    """v_n by all four equivalent routes, for cross-validation.

    Keys: "transition" (direct division), "multiple" (via u's multiple),
    "recurrence" (iterate 1 + 4v from v_1), "summation" (partial geometric
    sum added to v_1).
    """
    _require_parent(u)
    _require_box(n=n)
    e, e1 = _exponent(u, n), _exponent(u, 1)
    transition = ((1 << e) * u - 1) // 3
    multiple = z_term(n) + (1 << e) * (u // 3)

    v1 = ((1 << e1) * u - 1) // 3
    rec = v1
    for _ in range(n - 1):
        rec = 1 + 4 * rec
    # the gaps v_{i+1} - v_i = 2^e_i u for i = 1..n-1
    summation = u * sum(1 << s for s in range(e1, e, 2)) + v1
    return {
        "transition": transition,
        "multiple": multiple,
        "recurrence": rec,
        "summation": summation,
    }


def _kernel_table(c: int, cap: int | None) -> tuple[tuple[range, ...], ...]:
    """Exponents of the children of a parent u within the box, c = 3B + 1 (0 for no bound).

    Row u % 3, column bit_length(c // u): the exponents s = e of the
    children (2^s u - 1)/3, from 2 for class 1 (e = 2n) and from 1 for
    class 2 (e = 2n - 1), so 3 divides each numerator, up to the last with
    2^s u <= c, and to 2 cap (class 1) or 2 cap - 1 (class 2) under a cap.
    Leaves get an empty range.  With no bound, c // u is 0: one column.
    Each entry is a range, so the table grows with the bound's bit length,
    not its square; equal ranges (columns 2k + 1, 2k + 2) are one object.
    """
    ends = range(c.bit_length() + 2) if c else (2 * cap + 1,)
    if cap is not None:
        ends = [min(b, 2 * cap + 1) for b in ends]
    empty = range(0)
    shared = {empty: empty}
    class1, class2 = (tuple(shared.setdefault(r, r) for r in (range(s, b, 2) for b in ends))
                      for s in (2, 1))
    return (empty,) * len(ends), class1, class2


def _children(parents: Sequence[int], c: int,
              table: tuple[tuple[range, ...], ...]) -> list[int]:
    """The children within the box of parents, by parent, then sibling index.

    A child (2^s u - 1)/3 is at most B exactly when 2^s u <= c = 3B + 1,
    that is when 2^s <= c // u, or s < bit_length(c // u).  Every exponent
    the table lists has 2^s u = 1 (mod 3), so the child is (2^s u) // 3.
    The root's run opens with 1, its own first child.
    """
    return [(u << s) // 3 for u in parents for s in table[u % 3][(c // u).bit_length()]]


def _extra_digits(b: int, m: int) -> int:
    """30-bit int digits beyond two a value held by a run of m siblings from a b-bit one.

    Sibling j of the run has b + 2j bits.  Summed over the digits i >= 2 it
    may pass, the siblings holding more than 30i bits are those with
    j >= 15i - c, c = (b - 1) // 2: all m of them for each i <= c // 15,
    and m + c - 15i for each i up to (m + c) // 15.
    """
    c = (b - 1) // 2
    full = max(0, c // 15 - 1)  # digits past two that every sibling has
    first, last = max(2, c // 15 + 1), (m + c) // 15
    partial = max(0, last - first + 1)
    return m * full + partial * (m + c) - 15 * (first + last) * partial // 2


def _charge(parents: Sequence[int], c: int,
            table: tuple[tuple[range, ...], ...]) -> tuple[int, int]:
    """(children, nodes charged past them) of the runs of parents, from the table alone.

    Each child is one node, as for the 40 B of a value below 2^60 and its
    list slot, and each run is charged past that a tenth of a node (4 B),
    rounded up, for each digit past two (_extra_digits of its length and
    first child's bits), so the build can refuse a chunk, and the command
    line a SiblingSet, before it grows any of it.
    """
    count = extra = 0
    for u in parents:
        exponents = table[u % 3][(c // u).bit_length()]
        if exponents:
            m = len(exponents)
            count += m
            extra += -(-_extra_digits(((u << exponents[0]) // 3).bit_length(), m) // 10)
    return count, extra


class SiblingSet(Record):
    """A parent plus a bounded view of its strictly ascending child run.

    Exactly one stop criterion is set: `count` keeps children v_1..v_count,
    `bound` keeps those <= bound (sound, since the run only ascends).  Each
    read grows the whole run afresh through the build's kernel, so
    concurrent consumers are independent.
    """

    __slots__ = ("parent", "count", "bound")
    _defaults = {"count": None, "bound": None}
    parent: int
    count: int | None
    bound: int | None

    def __post_init__(self) -> None:
        _require_parent(self.parent)
        if (self.count is None) == (self.bound is None):
            raise ValueError("exactly one of count/bound must be given")
        what = "count" if self.bound is None else "bound"
        _require_box(**{what: getattr(self, what)})

    def _box(self) -> tuple[int, tuple[tuple[range, ...], ...]]:
        """(c, table) of the kernel for this run: c = 3 bound + 1, or 0 with the count as cap."""
        c = 0 if self.bound is None else 3 * self.bound + 1
        return c, _kernel_table(c, self.count)

    def values(self) -> list[int]:
        return _children((self.parent,), *self._box())

    def __iter__(self) -> Iterator[int]:
        return iter(self.values())


def siblings(u: int, *, count: int | None = None, bound: int | None = None) -> SiblingSet:
    """Bounded sibling set of parent u; exactly one stop criterion required."""
    return SiblingSet(u, count=count, bound=bound)
