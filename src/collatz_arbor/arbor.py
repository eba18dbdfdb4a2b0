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
level 1 starts at 5.  Node identity is the integer value.  Membership is not
stored: a value is in the tree exactly when its forward orbit stays in the
box on its way to 1.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import ItemsView, Iterator, Mapping, Sequence
from itertools import compress
from typing import BinaryIO

from ._record import Record
from .core import _require_box, _require_int, _require_odd_positive
from .defaults import DEFAULT_MAX_NODES, EXPORT_FORMATS
from .errors import CapacityError, MissingVertexError, NonEdgeError
from .inverse import _charge, _children, _kernel_table

__all__ = [
    "TruncationConfig",
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
_PCHUNK = 4096  # parents per kernel call in a bounded box, at most
# Typecodes of a coverage table, narrowest first, with the bound each holds;
# an entry is 1 + a depth, so a tree of max_depth d takes the first with d + 1 < bound.
_DEPTH_TYPECODES = tuple((1 << 8 * array(code).itemsize, code) for code in "BHIQ")
_ABSENT = b"\x01" + bytes(255)  # a covered flag byte -> a missing flag


class TruncationConfig(Record):
    """Explicit finite box for tree construction.

    At least one of max_depth / value_bound must be finite; an unbounded
    value range additionally needs a sibling cap, or a single expansion would
    never terminate.  max_nodes is a hard budget: exceeding it raises
    CapacityError instead of exhausting memory.  A budget node stands for
    about 40 B, and each stored value is charged one node.  A box bounded
    below 2^32 holds a value in 4 B (its array('I') slot), so the default
    of 10M nodes holds at most about 40 MB of levels there, and one bounded
    below 2^64 in 8 B (array('Q')); any other box keeps exact ints in
    lists, about 40 B a value below 2^60.  Where values can pass 2^60 (a sibling cap with
    no bound, or a bound at or above 2^60), each 30-bit digit a value holds
    beyond two is charged as a tenth of a node.  So the budget bounds bytes
    in every box: the default is about 400 MB.

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


def _link(value: int) -> tuple[int, int] | tuple[None, None]:
    """(parent, sibling index) of a stored value, the one home of its edge; (None, None) for 1.

    The tree is grown by g, which inverts the forward map f, so the parent
    of v is f(v) = (3v + 1) / 2^e, and v is its branch of exponent e, index
    n = (e + 1) div 2 (e = 2n for a class-1 parent, 2n - 1 for class 2).
    """
    if value == ROOT:
        return None, None
    t = 3 * value + 1
    e = (t & -t).bit_length() - 1
    return t >> e, (e + 1) >> 1


class TruncatedArborescence:
    """A list of levels by depth, each in build order, and the box that grew them.

    levels[k] holds the values at depth k, and no level is empty, so
    max_depth is len(levels) - 1.  Each level is an array('I') when the
    box's value bound is below 2^32 (4 B a value), an array('Q') when it is
    below 2^64 (8 B), and a list of exact ints otherwise (the bounds follow
    the items' sizes, _TYPECODES).  len(tree) is the node total the build
    grew.  Nothing else is stored: a value's parent and sibling index are
    f(v) and its exponent (_link), its depth is its level's, and its residue
    and leaf flag are v mod 3.  Membership too is derived: `v in tree` walks
    v's forward orbit inside the box (_orbit), as path_to does, and reads no
    level.

    Every level is the parent-ordered concatenation of complete sibling
    runs v_1, 4 v_1 + 1, ... (v_2 = 5, ... under the root): each entry of
    the kernel's table is a range of exponents with step 2 from the first
    child's, and an overrun raises instead of storing part of a run.
    A first child v_1 is 1 mod 8 (class-1 parent) or 3 mod 4 (class 2), and
    each later sibling 5 mod 8, so a value's residue mod 8 tells whether it
    opens a run; the exporters rely on this, and check_parent_pointers
    checks it.
    """

    __slots__ = ("config", "levels", "_nodes")

    def __init__(self, config: TruncationConfig, levels: list[Sequence[int]]) -> None:
        self.config = config
        self.levels = levels
        self._nodes = sum(map(len, levels))

    def __contains__(self, value: object) -> bool:
        return (isinstance(value, int) and value > 0 and value & 1 == 1
                and _orbit(self, value) is not None)

    def __len__(self) -> int:
        return self._nodes

    @property
    def max_depth(self) -> int:
        return len(self.levels) - 1


def _steps(tree: TruncatedArborescence, value: int) -> Iterator[int]:
    """The values of an odd positive value's forward orbit after it, while it stays in the box.

    The one home of the box rule on an orbit.  The tree is grown by g,
    which inverts f, so a value is stored exactly when its f-walk reaches 1
    within tree.max_depth steps, with every value on the way within the
    bound and every step's sibling index, (e + 1) div 2 for the exponent e
    of its parent's branch, within the cap.  The walk ends at 1, after
    tree.max_depth steps, or where a step would leave the box.  Each step
    is f, inlined.
    """
    bound, cap = tree.config.value_bound, tree.config.sibling_cap
    most = None if cap is None else 2 * cap  # an exponent above 2 cap is an index above cap
    x = value
    for _ in range(tree.max_depth):
        if x == ROOT or bound is not None and x > bound:
            return
        t = 3 * x + 1
        e = (t & -t).bit_length() - 1
        if most is not None and e > most:
            return
        x = t >> e
        yield x


def _orbit(tree: TruncatedArborescence, value: int) -> list[int] | None:
    """The forward orbit of an odd positive value down to 1; None when it leaves the tree's box."""
    orbit = [value, *_steps(tree, value)]
    return orbit if orbit[-1] == ROOT else None


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
    verify.check_parent_pointers re-derives every stored value from its
    link (_link) through the raw branch kernel, and the property tests
    compare whole levels with a reference build and the kernel with the
    sibling stream.

    Where values can pass 2^60 (a cap with no bound, or a bound at or
    above 2^60), each run is also charged a tenth of a node a 30-bit digit
    past two (_extra_digits), in closed form for the whole chunk before it
    is grown (_charge), so a chunk that overruns the budget raises before it
    holds any memory.  Overrunning max_nodes raises CapacityError.  No
    value is checked for a repeat: a repeat can come only from a wrong
    kernel (a value's parent is f(v), and 1 is stored only at the root),
    and check_uniqueness and check_parent_pointers report such a kernel
    with a counterexample.
    Each level is grown as a list and stored in the narrowest typed array
    whose items hold the bound (_TYPECODES: 'I' below 2^32, 'Q' below
    2^64), picked once per box.
    """
    bound, cap, max_nodes = config.value_bound, config.sibling_cap, config.max_nodes
    typecode = next((code for top, code in _TYPECODES if bound is not None and bound < top), None)
    digits = bound is None or bound >= 1 << 60  # values can hold 30-bit digits past two
    c = 0 if bound is None else 3 * bound + 1
    table = _kernel_table(c, cap)
    width = max(map(len, table[1] + table[2]))  # the most children one parent has
    level = [ROOT]
    levels = [_typed(level, typecode)]
    depth = 0
    room = max_nodes  # nodes the budget still admits; level 1 is grown with the root at its head
    while level and (config.max_depth is None or depth < config.max_depth):
        depth += 1
        parents, level = level, []
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
        room -= len(level)
        if level:
            levels.append(_typed(level, typecode))
    return TruncatedArborescence(config, levels)


def _typed(level: list[int], typecode: str | None) -> Sequence[int]:
    """A finished level as an array of typecode, or the list itself when typecode is None.

    fromlist fills the array faster than array(typecode, level).
    """
    if typecode is None:
        return level
    packed = array(typecode)
    packed.fromlist(level)
    return packed


def path_to(tree: TruncatedArborescence, target: int) -> list[int]:
    """Root-to-target vertex list: the forward orbit of target, reversed.

    The orbit is walked inside the tree's box (_orbit), and reads no level.
    A target whose walk leaves the box (a value or a sibling index out of
    it, or no arrival at 1 within tree.max_depth steps) is not stored, and
    raises MissingVertexError (absence under truncation proves nothing).
    """
    _require_odd_positive(target, "target")
    path = _orbit(tree, target)
    if path is None:
        raise MissingVertexError(f"{target} is not stored in this truncation")
    path.reverse()
    return path


def classify_edge(parent: int, child: int) -> str:
    """"ascending", "descending", or "lateral" (the self-loop of 1 only).

    An edge needs a non-leaf parent and 3 child + 1 = 2^e parent; otherwise
    NonEdgeError says which fails.  For initial children (n = 1) of non-root
    parents the direction follows the parent's class: class 1 ascends,
    class 2 descends, as the closed forms of g_branch(u, 1) give.  Later
    children always ascend past the parent.
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
    if child > parent:
        return "ascending"
    return "descending" if child < parent else "lateral"


class _FirstDepth(Mapping):
    """Read-only covered value -> first depth view of a coverage table, by ascending value.

    Entry j of the table is 1 + the depth of the value 2j + 1, or 0 where the
    tree does not hold it; count is the number of nonzero entries.
    """

    __slots__ = ("_table", "_count")

    def __init__(self, table: array, count: int) -> None:
        self._table = table
        self._count = count

    def __contains__(self, value: object) -> bool:
        table = self._table
        return (isinstance(value, int) and 0 < value and value & 1 == 1
                and value >> 1 < len(table) and table[value >> 1] > 0)

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

    first_depth maps each covered value to the depth where it appears
    (coverage returns a read-only mapping that iterates by ascending value,
    so `v in first_depth` tells whether v is covered); level_sizes counts
    covered values per depth.  covered_count + len(missing) always equals
    the number of odd values within the bound.
    """

    __slots__ = ("bound", "covered_count", "missing", "first_depth", "level_sizes")
    _hidden = ("first_depth",)
    bound: int
    covered_count: int
    missing: tuple[int, ...]
    first_depth: Mapping[int, int]
    level_sizes: dict[int, int]


def coverage(tree: TruncatedArborescence, bound: int) -> CoverageReport:
    """Coverage of the odd values <= bound; the root counts at depth 0.

    A table of 1 + the depth of each odd value in the window (0 where the
    tree does not hold it), in the narrowest array code that holds
    1 + tree.max_depth (_DEPTH_TYPECODES), is filled by one of two routes,
    picked by size.  A narrow window, whose odd values times
    tree.max_depth are fewer than the tree's nodes, is walked
    (_walk_depths): no value takes more than max_depth steps, so the walk
    never steps more often than the scan would read values.  Any other
    window is filled by one scan of the levels (_scan_depths).  The two
    routes agree only on levels made by build: the walk reads no level and
    gives each value its orbit's depth, while the scan reads the levels as
    they stand, so a value stored by hand at a depth other than its orbit's
    reads by route (check_uniqueness and check_parent_pointers fail such
    levels).  Everything else is derived from the table: the count of each entry gives
    covered_count and level_sizes; a byte per odd value, nonzero where it
    is covered, translates to the missing flags that drive
    itertools.compress over range(1, bound + 1, 2); and first_depth is a
    read-only view of the table (_FirstDepth).  The missing count is
    charged to the tree's node budget: more than max_nodes of them raise
    CapacityError before the list is made, and before the table when the
    tree is too small to cover all but max_nodes of the window.
    """
    _require_box(bound=bound)
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
    fill = _walk_depths if odd * tree.max_depth < len(tree) else _scan_depths
    fill(tree, table)
    flags = bytes(table) if table.itemsize == 1 else bytes(map(bool, table))  # nonzero: covered
    # entry 1 + d counts the odd values at depth d, entry 0 the missing ones; a byte
    # table is its own flags, and bytes.count reads it at C speed
    counts = (Counter(table) if table.itemsize > 1
              else {e: n for e in range(tree.max_depth + 2) if (n := flags.count(e))})
    covered = odd - counts.get(0, 0)
    if odd - covered > budget:
        raise CapacityError(refused)
    return CoverageReport(
        bound=bound,
        covered_count=covered,
        missing=tuple(compress(range(1, bound + 1, 2), flags.translate(_ABSENT))),
        first_depth=_FirstDepth(table, covered),
        level_sizes={d - 1: n for d, n in sorted(counts.items()) if d},
    )


def _walk_depths(tree: TruncatedArborescence, table: array) -> None:
    """Fill entry j of table with 1 + the depth of 2j + 1 by a memoized forward walk.

    The odd values are walked in ascending order, each only until its orbit
    drops below it (_steps, which stops where the walk leaves the box): the
    entry there is already known, and the value is stored when that one is
    and the two depths together are within tree.max_depth.
    """
    top = tree.max_depth + 1  # the largest entry
    table[0] = 1  # the root
    for v in range(3, 2 * len(table), 2):
        for steps, x in enumerate(_steps(tree, v), 1):
            if x < v:
                entry = table[x >> 1]
                if 0 < entry <= top - steps:
                    table[v >> 1] = entry + steps
                break


def _scan_depths(tree: TruncatedArborescence, table: array) -> None:
    """Fill entry j of table with 1 + the depth of 2j + 1 by one scan of the levels.

    A value stored twice keeps its deeper entry.
    """
    bound = 2 * len(table) - 1
    for d, level in enumerate(tree.levels, 1):
        for v in [v for v in level if v <= bound]:
            table[v >> 1] = d


_CHUNK = 4096  # rows per sink write: bounded memory, few write calls


def _chunks(tree: TruncatedArborescence,
            root: bool = False) -> Iterator[tuple[int, Sequence[int]]]:
    """(depth, up to _CHUNK values) of each level in order, the root's level if root."""
    for k, level in enumerate(tree.levels):
        if k or root:
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
    # byte-identical to json.dumps of the row dict, key order = _FIELDS
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
