"""Bounded materialization of the inverse Collatz tree.

The full tree is infinite in both directions (every non-leaf vertex has
infinitely many children, and levels never stop), so any materialization
happens inside an explicit truncation box: a depth limit, a value bound, and
optionally a cap on the sibling index.  A node is stored iff its value is
within the bound and its depth within the limit; children of stored leaves
are never attempted.  Because sibling streams ascend strictly, the value
bound is a sound cutoff: nothing below the bound is missed *within a given
sibling set* (a value below the bound can still be unreachable if its parent
lies above the bound).

The root is 1 at depth 0.  The self-edge of 1 onto itself is never stored, so
level 1 starts at 5.  Duplicate values abort construction loudly: node
identity is the integer value, and a silent merge would mask exactly the
uniqueness property the build exists to witness.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, ItemsView, Iterator, Mapping, Sequence
from itertools import compress
from typing import BinaryIO, NamedTuple

from ._record import Record
from .core import _require_int, _require_odd_positive
from .defaults import DEFAULT_MAX_NODES, EXPORT_FORMATS
from .errors import (
    CapacityError,
    DuplicateVertexError,
    InconsistencyError,
    MissingVertexError,
    NonEdgeError,
)

__all__ = [
    "TruncationConfig",
    "NodeInfo",
    "TruncatedArborescence",
    "CoverageReport",
    "build",
    "path_to",
    "classify_edge",
    "coverage",
    "export",
    "EXPORT_FORMATS",
    "DEFAULT_MAX_NODES",
]

ROOT = 1

_FIELDS = ("value", "depth", "parent", "sibling_index", "residue", "is_leaf")

# Level typecodes, narrowest first, with the bound each holds exactly: a box
# bounded below 2^(8 itemsize) stores its levels in that code (4 B a value
# below 2^32 on mainstream platforms, 8 B below 2^64), and as lists above.
_TYPECODES = tuple((1 << 8 * array(code).itemsize, code) for code in "IQ")
# Beyond its level slot, a set store's member costs its slot in the set's
# table, which CPython keeps 1/4 to 3/5 full and grows fourfold below 50,000
# members (about 30 to 130 B), and, in a typed level, its boxed int.  Past
# the first _SET_FREE members, each is charged _SET_CHARGE more nodes, so the
# budget bounds bytes in every box, and small boxes keep one node a value.
_SET_FREE = 4096
_SET_CHARGE = 2
_PCHUNK = 4096  # parents per kernel call in a bounded box, at most
# Typecodes of a coverage table, narrowest first, with the bound each holds;
# an entry is 1 + a depth, so a tree of max_depth d takes the first with d + 1 < bound.
_DEPTH_TYPECODES = tuple((1 << 8 * array(code).itemsize, code) for code in "BHIQ")
_BIT_DIGITS = b"0" + b"1" * 255  # a covered flag byte -> its bitmap digit
_ABSENT = b"\x01" + bytes(255)  # a covered flag byte -> a missing flag


class TruncationConfig(Record):
    """Explicit finite box for tree construction.

    At least one of max_depth / value_bound must be finite; an unbounded
    value range additionally needs a sibling cap, or a single expansion would
    never terminate.  max_nodes is a hard budget: exceeding it raises
    CapacityError instead of exhausting memory.  A budget node stands for
    about 40 B, and what a stored value is charged depends on its store:

    - a box bounded below 2^64 whose bitmap fits the budget (value_bound //
      16 <= max_nodes) is charged one node a value, which costs 4 B (its
      array('I') slot; 8 B in an array('Q') once the bound reaches 2^32,
      which takes a budget of 2^28 nodes) plus a bit per odd value up to
      the bound, so the default of 10M nodes holds at most about 50 MB there;
    - every other box keeps a set of its members.  A value costs its level
      slot and its int, about 40 B below 2^60, and each member past the
      first 4,096 is charged two more nodes for its set slot and boxed int.
      Where values can pass 2^60 (a sibling cap with no bound, or a bound
      at or above 2^60), each 30-bit digit a value holds beyond two is
      charged as a tenth of a node.  So the budget bounds bytes in every
      box: the default is about 400 MB.

    It also bounds the missing list of a coverage report.  Every field is an
    int (not a bool); all but max_nodes may be None.
    """

    __slots__ = ("max_depth", "value_bound", "sibling_cap", "max_nodes")
    _defaults = {"max_depth": None, "value_bound": None, "sibling_cap": None,
                 "max_nodes": DEFAULT_MAX_NODES}
    max_depth: int | None
    value_bound: int | None
    sibling_cap: int | None
    max_nodes: int

    def __post_init__(self) -> None:
        for name in self.__slots__:
            value = getattr(self, name)
            if value is not None or name == "max_nodes":
                _require_int(value, name)
        if self.max_depth is None and self.value_bound is None:
            raise ValueError("at least one of max_depth / value_bound must be set")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.value_bound is not None and self.value_bound < 1:
            raise ValueError(f"value_bound must be >= 1, got {self.value_bound}")
        if self.value_bound is None and self.sibling_cap is None:
            raise ValueError("an unbounded value range requires a sibling_cap")
        if self.sibling_cap is not None and self.sibling_cap < 1:
            raise ValueError(f"sibling_cap must be >= 1, got {self.sibling_cap}")
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")


class NodeInfo(NamedTuple):
    depth: int
    parent: int | None
    sibling_index: int | None
    residue: int
    is_leaf: bool


class _OddBitmap:
    """Set of odd values in 1..bound, one bit each: the membership store of dense boxes.

    Bit j of the bytearray stands for the value 2j + 1.  It offers the build
    what a set would (`in`, `len`, `update`, `issuperset`).
    """

    __slots__ = ("bits", "bound", "count")
    _MASK = tuple(1 << (i >> 1 & 7) for i in range(16))  # the bit of v within its byte, by v & 15

    def __init__(self, bound: int) -> None:
        self.bits = bytearray((bound >> 4) + 1)
        self.bound = bound
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def __contains__(self, value: object) -> bool:
        return (isinstance(value, int) and 0 < value <= self.bound and value & 1 == 1
                and self.bits[value >> 4] >> (value >> 1 & 7) & 1 == 1)

    def issuperset(self, values: Iterable[int]) -> bool:
        """Whether every value is marked, as set.issuperset; the bit test is inlined."""
        bits, bound = self.bits, self.bound
        for v in values:
            if not (0 < v <= bound and v & 1 and bits[v >> 4] >> (v >> 1 & 7) & 1):
                return False
        return True

    def update(self, values: Iterable[int]) -> None:
        """Mark odd values within the bound; len grows by those not marked before."""
        bits, mask = self.bits, self._MASK
        fresh = 0
        for v in values:
            i = v >> 4
            m = mask[v & 15]
            b = bits[i]
            if not b & m:
                bits[i] = b | m
                fresh += 1
        self.count += fresh


def _link(value: int) -> tuple[int, int] | tuple[None, None]:
    """(parent, sibling index) of a stored value; (None, None) for the root.

    The tree is grown by g, which inverts the forward map f, so the parent
    of v is f(v) = (3v + 1) / 2^e, and v is its branch of exponent e, index
    n = (e + 1) div 2 (e = 2n for a class-1 parent, 2n - 1 for class 2).
    """
    if value == ROOT:
        return None, None
    t = 3 * value + 1
    e = (t & -t).bit_length() - 1
    return t >> e, (e + 1) >> 1


class _Parents(Mapping):
    """Read-only value -> parent view of a tree, derived through _link."""

    def __init__(self, tree: TruncatedArborescence) -> None:
        self._tree = tree

    def __getitem__(self, value: int) -> int | None:
        if value not in self._tree:
            raise KeyError(value)
        return _link(value)[0]

    def __iter__(self) -> Iterator[int]:
        levels = self._tree.levels
        for k in sorted(levels):
            yield from levels[k]

    def __len__(self) -> int:
        return len(self._tree)


class TruncatedArborescence:
    """Per-depth levels in build order, plus one membership object.

    Each level is an array('I') when the box's value bound is below 2^32
    (4 B a value), an array('Q') when it is below 2^64 (8 B), and a list of
    exact ints otherwise (the bounds follow the items' sizes, _TYPECODES).
    members is an _OddBitmap when the box has a value bound whose bitmap is
    no larger than the node budget in bytes (value_bound // 16 <=
    max_nodes), and a set otherwise.  Nothing else is stored: parent and
    sibling_index come from the value through _link, depth from the level
    holding the value (or the links to the root), residue and is_leaf from
    the value mod 3.

    Every level is the parent-ordered concatenation of complete sibling
    runs v_1, 4 v_1 + 1, ... (v_2 = 5, ... under the root): each entry of
    the kernel's table is a range of exponents with step 2 from the first
    child's, and an overrun raises instead of storing part of a run.
    A first child v_1 is 1 mod 8 (class-1 parent) or 3 mod 4 (class 2), and
    each later sibling 5 mod 8, so a value's residue mod 8 tells whether it
    opens a run; the exporters rely on this.
    """

    __slots__ = ("config", "levels", "members")

    def __init__(self, config: TruncationConfig, levels: dict[int, Sequence[int]],
                 members: _OddBitmap | set[int]) -> None:
        self.config = config
        self.levels = levels
        self.members = members

    def __contains__(self, value: object) -> bool:
        return value in self.members

    def __len__(self) -> int:
        return len(self.members)

    @property
    def parent(self) -> Mapping[int, int | None]:
        """Read-only value -> parent mapping: None for the root, f(v) otherwise."""
        return _Parents(self)

    @property
    def max_depth(self) -> int:
        return max(self.levels)

    def node(self, value: int) -> NodeInfo:
        """Derived record of one stored value; its depth is its number of links to the root."""
        if value not in self.members:
            raise MissingVertexError(f"{value} is not stored in this truncation")
        r = value % 3
        return NodeInfo(len(path_to(self, value)) - 1, *_link(value), r, r == 0)

    def records(self) -> Iterator[tuple[int, NodeInfo]]:
        """Node records in deterministic (depth, level-position) order."""
        yield ROOT, NodeInfo(0, None, None, 1, False)
        for k, chunk in _chunks(self):
            for v in chunk:
                r = v % 3
                yield v, NodeInfo(k, *_link(v), r, r == 0)


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


def _run_charge(b: int, m: int) -> int:
    """Nodes charged for a run of m siblings from a b-bit one.

    One a node, as for the 40 B of a value below 2^60 and its list slot,
    plus a tenth of a node (4 B) for each digit past two.
    """
    return m + -(-_extra_digits(b, m) // 10)


def _charge(parents: Sequence[int], c: int,
            table: tuple[tuple[range, ...], ...]) -> tuple[int, int]:
    """(children, nodes charged past them) of the runs of parents, from the table alone.

    Each run is charged _run_charge of its length and first child's bits,
    so the build can refuse a chunk before it grows any of it.
    """
    count = extra = 0
    for u in parents:
        exponents = table[u % 3][(c // u).bit_length()]
        if exponents:
            m = len(exponents)
            count += m
            extra += _run_charge(((u << exponents[0]) // 3).bit_length(), m) - m
    return count, extra


def build(config: TruncationConfig) -> TruncatedArborescence:
    """Breadth-first expansion from the root inside the truncation box.

    Deterministic: each level is ordered by parent position, then sibling
    index.  Every level is one list comprehension per chunk of parents
    (_children): the child (2^s u - 1)/3 is at most B exactly when
    2^s u <= c = 3B + 1, that is when s < bit_length(c // u), so a table by
    u mod 3 and that bit length lists each parent's exponents, cut at the
    sibling cap (_kernel_table); a cap-only box has c = 0 and reads one
    column.  The root's level is the kernel's run of the root without its
    first child, 1 itself, which would close the trivial cycle.  A chunk
    holds at most _PCHUNK parents, and at most one more than the budget's
    room over the most children a parent has, so, checked after each chunk,
    memory overshoots the budget by at most one parent's run.  The kernel
    does not re-check 3v = 2^e u - 1 on each node:
    verify.check_parent_pointers re-derives every stored child through the
    raw branch kernel, and the property tests compare whole levels with a
    reference build and the kernel with the sibling stream.

    Where values can pass 2^60 (a cap with no bound, or a bound at or
    above 2^60), each run is also charged a tenth of a node a 30-bit digit
    past two (_run_charge), in closed form for the whole chunk before it is
    grown (_charge), so a chunk that overruns the budget raises before it
    holds any memory.  Overrunning max_nodes raises CapacityError.  Each finished
    level is charged for the set store's members (_SET_FREE), then marked
    in the membership object; a repeated value shows as a count that falls
    short, and raises DuplicateVertexError (it would falsify uniqueness).
    Each level is grown as a list and stored in the narrowest typed array
    whose items hold the bound (_TYPECODES: 'I' below 2^32, 'Q' below
    2^64), picked once per box.
    """
    if config.value_bound is not None and config.value_bound < ROOT:
        raise ValueError("value_bound excludes the root")
    bound, cap, max_nodes = config.value_bound, config.sibling_cap, config.max_nodes
    dense = bound is not None and bound // 16 <= max_nodes
    members = _OddBitmap(bound) if dense else set()
    members.update((ROOT,))
    typecode = next((code for top, code in _TYPECODES if bound is not None and bound < top), None)
    digits = bound is None or bound >= 1 << 60  # values can hold 30-bit digits past two
    c = 0 if bound is None else 3 * bound + 1
    table = _kernel_table(c, cap)
    width = max(map(len, table[1] + table[2]))  # the most children one parent has
    level = [ROOT]
    levels: dict[int, Sequence[int]] = {0: _typed(level, typecode)}
    depth = 0
    room = max_nodes  # nodes the budget still admits; level 1 is grown with the root at its head
    while level and (config.max_depth is None or depth < config.max_depth):
        depth += 1
        parents, level = level, []
        before = len(members)
        i = 0
        while i < len(parents):
            step = min(_PCHUNK, 1 + (room - len(level)) // width)
            chunk = parents[i:i + step]
            i += step
            if digits:
                count, extra = _charge(chunk, c, table)
                room -= extra
                if len(level) + count > room:
                    raise CapacityError(f"node budget {max_nodes} exhausted at depth {depth}")
            level += _children(chunk, c, table)
            if len(level) > room:
                raise CapacityError(f"node budget {max_nodes} exhausted at depth {depth}")
        if depth == 1:
            del level[0]  # the root's first child is the root: no self-edge is stored
            room -= 1
        if not dense:
            room -= _SET_CHARGE * (max(0, before + len(level) - _SET_FREE)
                                   - max(0, before - _SET_FREE))
        if len(level) > room:
            raise CapacityError(f"node budget {max_nodes} exhausted at depth {depth}")
        members.update(level)
        if len(members) != before + len(level):
            raise _duplicate(levels, parents, c, table)
        room -= len(level)
        if level:
            levels[depth] = _typed(level, typecode)
    return TruncatedArborescence(config, levels, members)


def _typed(level: list[int], typecode: str | None) -> Sequence[int]:
    """A finished level as an array of typecode, or the list itself when typecode is None.

    fromlist fills the array faster than array(typecode, level).
    """
    if typecode is None:
        return level
    packed = array(typecode)
    packed.fromlist(level)
    return packed


def _duplicate(levels: dict[int, Sequence[int]], parents: list[int], c: int,
               table: tuple[tuple[range, ...], ...]) -> DuplicateVertexError:
    """The slow path of a level that repeats a value: replay it, parent by parent, against a set.

    Returns the error for the first value the level grown from parents
    repeats, with the parent f(v) it is stored under and the parent that
    produced it again.
    """
    seen = {v for level in levels.values() for v in level}
    for u in parents:
        for v in _children((u,), c, table)[u == ROOT:]:  # the root's run opens with the root
            if v in seen:
                return DuplicateVertexError(v, _link(v)[0] or ROOT, u)
            seen.add(v)
    raise InconsistencyError("a level's count fell short, but no value repeats")


def path_to(tree: TruncatedArborescence, target: int) -> list[int]:
    """Root-to-target vertex list: the forward orbit of target, reversed.

    Each step is f, inlined, for at most tree.max_depth steps; the store then
    checks the whole path at once.  An ancestor missing from the store, or an
    orbit that has not reached 1 within tree.max_depth steps, raises
    InconsistencyError.  Absent targets raise MissingVertexError (absence
    under truncation proves nothing).
    """
    _require_odd_positive(target, "target")
    members = tree.members
    if target not in members:
        raise MissingVertexError(f"{target} is not stored in this truncation")
    path = [target]
    x = target
    for _ in range(tree.max_depth):
        if x == ROOT:
            break
        t = 3 * x + 1
        x = t >> ((t & -t).bit_length() - 1)
        path.append(x)
    if not members.issuperset(path):
        absent = next(v for v in path if v not in members)
        raise InconsistencyError(f"ancestor {absent} of stored {target} is not stored")
    if x != ROOT:
        raise InconsistencyError(f"{target} does not reach the root in {tree.max_depth} steps")
    path.reverse()
    return path


def _edge_index(parent: int, child: int) -> int:
    """Sibling index n with child the n-th branch of parent, else NonEdgeError.

    3 child + 1 must be parent times a power of two 2^e, with e even for a
    class-1 parent (e = 2n) and odd for a class-2 parent (e = 2n - 1).
    """
    _require_odd_positive(parent, "parent")
    _require_odd_positive(child, "child")
    if parent % 3 == 0:
        raise NonEdgeError(f"{parent} is a leaf and has no outgoing edges")
    q, rem = divmod(3 * child + 1, parent)
    if rem:
        raise NonEdgeError(f"3*{child} + 1 is not a multiple of {parent}")
    if q < 2 or q & (q - 1):
        raise NonEdgeError(f"3*{child} + 1 = {q} * {parent} with {q} not a power of two")
    e = q.bit_length() - 1
    if e & 1 != parent % 3 - 1:
        raise NonEdgeError(f"class-{parent % 3} parent {parent} cannot spend exponent {e}")
    return (e + 1) >> 1


def classify_edge(parent: int, child: int) -> str:
    """"ascending", "descending", or "lateral" (the self-loop of 1 only).

    For initial children (n = 1) of non-root parents the direction is forced
    by the parent's class: class 1 ascends, class 2 descends.  That rule is
    asserted here; later children always ascend past the parent regardless
    of class.
    """
    n = _edge_index(parent, child)
    if child > parent:
        kind = "ascending"
    elif child < parent:
        kind = "descending"
    else:
        kind = "lateral"
    if n == 1 and parent > ROOT:
        expect_ascending = parent % 3 == 1
        if (kind == "ascending") != expect_ascending:
            raise InconsistencyError(
                f"initial edge ({parent}, {child}) violates the class direction rule"
            )
    return kind


class _FirstDepth(Mapping):
    """Read-only covered value -> first depth view of a coverage table, by ascending value.

    Entry j of the table is 1 + the depth of the value 2j + 1, or 0 where the
    tree does not hold it; count is the number of nonzero entries.
    """

    __slots__ = ("_table", "_count")

    def __init__(self, table: array, count: int) -> None:
        self._table = table
        self._count = count

    def __getitem__(self, value: int) -> int:
        table = self._table
        if isinstance(value, int) and 0 < value and value & 1 and value >> 1 < len(table):
            entry = table[value >> 1]
            if entry:
                return entry - 1
        raise KeyError(value)

    def __iter__(self) -> Iterator[int]:
        return compress(range(1, 2 * len(self._table), 2), self._table)

    def __len__(self) -> int:
        return self._count

    def items(self) -> ItemsView[int, int]:
        return _FirstDepthItems(self)


class _FirstDepthItems(ItemsView):
    """(value, depth) pairs of a _FirstDepth, read from its table in one pass."""

    def __iter__(self) -> Iterator[tuple[int, int]]:
        table = self._mapping._table
        return zip(self._mapping, (entry - 1 for entry in table if entry))


class CoverageReport(Record):
    """Which odd values up to a bound the truncated tree reaches.

    bitmap has bit i set iff value 2i + 1 is present; first_depth maps each
    covered value to the depth where it appears (coverage returns a read-only
    mapping that iterates by ascending value); level_sizes counts covered
    values per depth.  covered_count + len(missing) always equals the number
    of odd values within the bound.
    """

    __slots__ = ("bound", "covered_count", "bitmap", "missing", "first_depth", "level_sizes")
    _hidden = ("first_depth",)
    bound: int
    covered_count: int
    bitmap: int
    missing: tuple[int, ...]
    first_depth: Mapping[int, int]
    level_sizes: dict[int, int]

    def covers(self, value: object) -> bool:
        """Whether value is a covered odd value of the window; False for a non-int."""
        return isinstance(value, int) and value in self.first_depth


def coverage(tree: TruncatedArborescence, bound: int) -> CoverageReport:
    """Coverage of the odd values <= bound; the root counts at depth 0.

    One scan of the levels fills a table of 1 + the depth of each odd value
    in the window (0 where the tree does not hold it), in the narrowest
    array code that holds 1 + tree.max_depth (_DEPTH_TYPECODES), and counts
    each level's values in the window.  Everything else is derived from the
    table: a byte per odd value, nonzero where it is covered, translates to
    the bitmap's binary digits and to the missing flags that drive
    itertools.compress over range(1, bound + 1, 2), and first_depth is a
    read-only view of the table (_FirstDepth).  Both membership stores take
    this one route.  The missing count is charged to the tree's node budget:
    more than max_nodes of them raise CapacityError before the list is
    made, and before the table when the tree is too small to cover all but
    max_nodes of the window.
    """
    _require_int(bound, "bound")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if tree.config.value_bound is not None and bound > tree.config.value_bound:
        raise ValueError(
            f"report bound {bound} exceeds the tree's value bound {tree.config.value_bound}"
        )
    budget = tree.config.max_nodes
    odd = (bound + 1) // 2  # the window's odd values
    refused = f"the report up to {bound} lists more than {budget} missing values (the node budget)"
    if odd - len(tree) > budget:  # at most len(tree) values are covered
        raise CapacityError(refused)
    code = next(code for top, code in _DEPTH_TYPECODES if tree.max_depth + 1 < top)
    table = array(code, (0,)) * odd
    level_sizes: dict[int, int] = {}
    for k in sorted(tree.levels):
        hits = [v for v in tree.levels[k] if v <= bound]
        if hits:
            level_sizes[k] = len(hits)
            d = k + 1
            for v in hits:
                table[v >> 1] = d
    covered_count = sum(level_sizes.values())
    if odd - covered_count > budget:
        raise CapacityError(refused)
    flags = bytes(table) if table.itemsize == 1 else bytes(map(bool, table))  # nonzero: covered
    return CoverageReport(
        bound=bound,
        covered_count=covered_count,
        bitmap=int(flags.translate(_BIT_DIGITS)[::-1], 2),
        missing=tuple(compress(range(1, bound + 1, 2), flags.translate(_ABSENT))),
        first_depth=_FirstDepth(table, covered_count),
        level_sizes=level_sizes,
    )


_CHUNK = 4096  # rows per sink write: bounded memory, few write calls


def _chunks(tree: TruncatedArborescence,
            root: bool = False) -> Iterator[tuple[int, Sequence[int]]]:
    """(depth, up to _CHUNK values) of each level in order, the root's level if root."""
    for k in sorted(tree.levels):
        if k or root:
            level = tree.levels[k]
            for i in range(0, len(level), _CHUNK):
                yield k, level[i:i + _CHUNK]


class _IndexText(dict):
    """prefix + the text of sibling index n, by n, made on a miss (a capped index hits its cap)."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, n: int) -> str:
        text = self[n] = f"{self.prefix}{n}"
        return text


# The rows below follow each level's sibling runs (see TruncatedArborescence), carrying the
# parent's decimal text and the sibling index n from row to row: a value v = 5 mod 8 is
# 4u + 1 of the row before, so it keeps that row's parent text and takes index n + 1; any
# other value is a first child, index 1, of the parent (3v + 1) >> e, e = _SHIFT[v & 7]:
# 2 for v = 1 mod 8 (class-1 parent), 1 for v = 3 mod 4 (class 2).  The carry starts at the
# root and index 1, so the root's run 5, 21, ... is numbered 2, 3, ...; it crosses chunk
# ends, and each later level resets it with its first row.  The row's tail, residue and
# is_leaf with the separator before them, is by v mod 3.
_SHIFT = (0, 2, 0, 1, 0, 0, 0, 1)
_JSONL_TAILS = (', "residue": 0, "is_leaf": true}\n', ', "residue": 1, "is_leaf": false}\n',
                ', "residue": 2, "is_leaf": false}\n')
_CSV_TAILS = (",0,true\n", ",1,false\n", ",2,false\n")
_DOT_NODE_ENDS = (" [shape=box];\n", ";\n", ";\n")


def _jsonl_chunks(tree: TruncatedArborescence) -> Iterator[str]:
    # byte-identical to json.dumps of the record dict, key order = _FIELDS
    yield '{"value": 1, "depth": 0, "parent": null, "sibling_index": null, "residue": 1, ' \
          '"is_leaf": false}\n'
    index = _IndexText(', "sibling_index": ')
    parent, n = f"{ROOT}", 1
    for k, chunk in _chunks(tree):
        depth = f', "depth": {k}, "parent": '
        yield "".join([f'{{"value": {v}{depth}'
                       f'{(parent := parent if v & 7 == 5 else f"{3 * v + 1 >> _SHIFT[v & 7]}")}'
                       f'{index[(n := n + 1 if v & 7 == 5 else 1)]}{_JSONL_TAILS[v % 3]}'
                       for v in chunk])


def _csv_chunks(tree: TruncatedArborescence) -> Iterator[str]:
    # byte-identical to csv.writer: integers and bare words need no quoting
    yield ",".join(_FIELDS) + "\n1,0,,,1,false\n"
    index = _IndexText(",")
    parent, n = f"{ROOT}", 1
    for k, chunk in _chunks(tree):
        depth = f",{k},"
        yield "".join([f"{v}{depth}"
                       f"{(parent := parent if v & 7 == 5 else f'{3 * v + 1 >> _SHIFT[v & 7]}')}"
                       f"{index[(n := n + 1 if v & 7 == 5 else 1)]}{_CSV_TAILS[v % 3]}"
                       for v in chunk])


def _dot_chunks(tree: TruncatedArborescence) -> Iterator[str]:
    yield "digraph collatz_arbor {\n"
    for _, chunk in _chunks(tree, root=True):
        yield "".join([f"    {v}{_DOT_NODE_ENDS[v % 3]}" for v in chunk])
    parent = f"{ROOT}"
    for _, chunk in _chunks(tree):
        yield "".join(["    "
                       f"{(parent := parent if v & 7 == 5 else f'{3 * v + 1 >> _SHIFT[v & 7]}')}"
                       f" -> {v};\n" for v in chunk])
    yield "}\n"


_EXPORTERS = {"jsonl": _jsonl_chunks, "dot": _dot_chunks, "csv": _csv_chunks}


def export(tree: TruncatedArborescence, fmt: str, sink: BinaryIO) -> None:
    """Serialize the tree to a byte sink: jsonl, dot, or csv.

    Output is deterministic for a given tree: nodes in (depth, level-position)
    order, integers in decimal.  The DOT digraph is named collatz_arbor with
    leaves drawn as boxes.
    """
    if fmt not in _EXPORTERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {EXPORT_FORMATS}")
    for chunk in _EXPORTERS[fmt](tree):
        sink.write(chunk.encode("ascii"))
