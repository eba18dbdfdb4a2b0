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

from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, NamedTuple

from .core import _require_odd_positive
from .errors import (
    CapacityError,
    DuplicateVertexError,
    InconsistencyError,
    MissingVertexError,
    NonEdgeError,
)
from .forward import trajectory

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
DEFAULT_MAX_NODES = 10_000_000
EXPORT_FORMATS = ("jsonl", "dot", "csv")

_FIELDS = ("value", "depth", "parent", "sibling_index", "residue", "is_leaf")


@dataclass(frozen=True)
class TruncationConfig:
    """Explicit finite box for tree construction.

    At least one of max_depth / value_bound must be finite; an unbounded
    value range additionally needs a sibling cap, or a single expansion would
    never terminate.  max_nodes is a hard budget: exceeding it raises
    CapacityError instead of exhausting memory.
    """

    max_depth: int | None = None
    value_bound: int | None = None
    sibling_cap: int | None = None
    max_nodes: int = DEFAULT_MAX_NODES

    def __post_init__(self) -> None:
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


@dataclass
class TruncatedArborescence:
    """Value -> parent store, plus per-depth level lists in build order.

    Only the parent link is stored.  Every other node field is derived:
    depth from the level holding the value, residue and is_leaf from the
    value mod 3, and sibling_index from the (parent, value) edge through
    _sibling_index, which raises NonEdgeError on a link that is no edge.
    """

    config: TruncationConfig
    parent: dict[int, int | None]
    levels: dict[int, list[int]]

    def __contains__(self, value: int) -> bool:
        return value in self.parent

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def max_depth(self) -> int:
        return max(self.levels)

    def node(self, value: int) -> NodeInfo:
        """Derived record of one stored value; its depth is its number of links to the root."""
        if value not in self.parent:
            raise MissingVertexError(f"{value} is not stored in this truncation")
        depth = 0
        u = self.parent[value]
        while u is not None:
            depth += 1
            u = self.parent[u]
        return _node_info(value, depth, self.parent[value])

    def records(self) -> Iterator[tuple[int, NodeInfo]]:
        """Node records in deterministic (depth, level-position) order."""
        parent = self.parent
        for k in sorted(self.levels):
            for v in self.levels[k]:
                yield v, _node_info(v, k, parent[v])


def _node_info(value: int, depth: int, parent: int | None) -> NodeInfo:
    r = value % 3
    n = None if parent is None else _sibling_index(parent, value)
    return NodeInfo(depth, parent, n, r, r == 0)


def _first_child(u: int) -> tuple[int, int]:
    """(n, v_n) for the first child the build stores under non-leaf u.

    That is v_1 = (4u - 1)/3 for class 1 and (2u - 1)/3 for class 2; for the
    root it is v_2 = 5, since v_1 = 1 would close the trivial cycle.  Raw
    arithmetic with g_branch's cross-check: 3 v_n = 2^e u - 1 and
    v_n = z_n + 2^e (u div 3).
    """
    if u == ROOT:
        n, e, z = 2, 4, 5
    elif u % 3 == 1:
        n, e, z = 1, 2, 1
    else:
        n, e, z = 1, 1, 1
    t = (u << e) - 1
    v = t // 3
    if 3 * v != t or v != z + ((u // 3) << e):
        raise InconsistencyError(f"first child {v} of {u} fails 3v = 2^{e} u - 1 "
                                 f"or the multiple form")
    return n, v


def build(config: TruncationConfig) -> TruncatedArborescence:
    """Breadth-first expansion from the root inside the truncation box.

    Deterministic: each level is ordered by parent position, then sibling
    index.  Each parent's first child comes from _first_child, later ones
    from the recurrence v_{n+1} = 4 v_n + 1.  A repeated value raises
    DuplicateVertexError (it would falsify uniqueness); overrunning
    max_nodes raises CapacityError.
    """
    if config.value_bound is not None and config.value_bound < ROOT:
        raise ValueError("value_bound excludes the root")
    bound, cap, max_nodes = config.value_bound, config.sibling_cap, config.max_nodes
    parent: dict[int, int | None] = {ROOT: None}
    levels: dict[int, list[int]] = {0: [ROOT]}
    frontier = [ROOT]
    depth = 0
    while frontier and (config.max_depth is None or depth < config.max_depth):
        depth += 1
        level: list[int] = []
        for u in frontier:
            n, v = _first_child(u)
            while (bound is None or v <= bound) and (cap is None or n <= cap):
                if v in parent:
                    raise DuplicateVertexError(v, parent[v] or ROOT, u)
                if len(parent) >= max_nodes:
                    raise CapacityError(f"node budget {max_nodes} exhausted at depth {depth}")
                parent[v] = u
                level.append(v)
                v = 4 * v + 1
                n += 1
        if level:
            levels[depth] = level
        frontier = [v for v in level if v % 3]
    return TruncatedArborescence(config, parent, levels)


def path_to(tree: TruncatedArborescence, target: int) -> list[int]:
    """Root-to-target vertex list, verified against the forward orbit of target.

    The reversed path must equal the forward trajectory of target exactly;
    a mismatch raises InconsistencyError.  Absent targets raise
    MissingVertexError (absence under truncation proves nothing).
    """
    _require_odd_positive(target, "target")
    if target not in tree.parent:
        raise MissingVertexError(f"{target} is not stored in this truncation")
    path = [target]
    v = tree.parent[target]
    while v is not None:
        path.append(v)
        v = tree.parent[v]
    path.reverse()
    orbit = trajectory(target, max_steps=len(path)).values
    if list(reversed(orbit)) != path:
        raise InconsistencyError(
            f"path to {target} is not the reversed forward orbit: {path} vs {orbit}"
        )
    return path


def _sibling_index(parent: int, child: int) -> int:
    """Sibling index n with child the n-th branch of parent, else NonEdgeError.

    Raw arithmetic on odd positive arguments: 3 child + 1 must be parent
    times a power of two 2^e, with e even for a class-1 parent (e = 2n) and
    odd for a class-2 parent (e = 2n - 1).  A leaf parent never divides
    3 child + 1, which is 1 mod 3.
    """
    q, rem = divmod(3 * child + 1, parent)
    if rem:
        raise NonEdgeError(f"3*{child} + 1 is not a multiple of {parent}")
    if q < 2 or q & (q - 1):
        raise NonEdgeError(f"3*{child} + 1 = {q} * {parent} with {q} not a power of two")
    e = q.bit_length() - 1
    if e & 1 != parent % 3 - 1:
        raise NonEdgeError(f"class-{parent % 3} parent {parent} cannot spend exponent {e}")
    return (e + 1) >> 1


def _edge_index(parent: int, child: int) -> int:
    """Sibling index n with child the n-th branch of parent, else NonEdgeError."""
    _require_odd_positive(parent, "parent")
    _require_odd_positive(child, "child")
    if parent % 3 == 0:
        raise NonEdgeError(f"{parent} is a leaf and has no outgoing edges")
    return _sibling_index(parent, child)


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


@dataclass(frozen=True)
class CoverageReport:
    """Which odd values up to a bound the truncated tree reaches.

    bitmap has bit i set iff value 2i + 1 is present; first_depth maps each
    covered value to the depth where it appears; level_sizes counts covered
    values per depth.  covered_count + len(missing) always equals the number
    of odd values within the bound.
    """

    bound: int
    covered_count: int
    bitmap: int
    missing: tuple[int, ...]
    first_depth: dict[int, int] = field(repr=False)
    level_sizes: dict[int, int]

    def covers(self, value: int) -> bool:
        if value < 1 or value > self.bound or value % 2 == 0:
            return False
        return bool(self.bitmap >> ((value - 1) // 2) & 1)


def coverage(tree: TruncatedArborescence, bound: int) -> CoverageReport:
    """Coverage of the odd values <= bound; the root counts at depth 0."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if tree.config.value_bound is not None and bound > tree.config.value_bound:
        raise ValueError(
            f"report bound {bound} exceeds the tree's value bound {tree.config.value_bound}"
        )
    bits = bytearray((bound + 15) // 16)
    first_depth: dict[int, int] = {}
    level_sizes: dict[int, int] = {}
    for k in sorted(tree.levels):
        before = len(first_depth)
        for value in tree.levels[k]:
            if value <= bound:
                i = value >> 1
                bits[i >> 3] |= 1 << (i & 7)
                first_depth[value] = k
        if len(first_depth) > before:
            level_sizes[k] = len(first_depth) - before
    bitmap = int.from_bytes(bits, "little")
    missing = tuple(x for x in range(1, bound + 1, 2) if x not in first_depth)
    return CoverageReport(
        bound=bound,
        covered_count=len(first_depth),
        bitmap=bitmap,
        missing=missing,
        first_depth=first_depth,
        level_sizes=level_sizes,
    )


_CHUNK = 4096  # lines per sink write: bounded memory, few write calls


def _write_lines(sink: BinaryIO, lines: Iterator[str]) -> None:
    chunk: list[str] = []
    for line in lines:
        chunk.append(line)
        if len(chunk) == _CHUNK:
            sink.write("".join(chunk).encode("ascii"))
            chunk.clear()
    if chunk:
        sink.write("".join(chunk).encode("ascii"))


def _rows(tree: TruncatedArborescence) -> Iterator[tuple[int, int, int, int, int]]:
    """(value, depth, parent, sibling_index, residue) of every non-root node."""
    parent = tree.parent
    for k in sorted(tree.levels):
        if k:
            for v in tree.levels[k]:
                u = parent[v]
                yield v, k, u, _sibling_index(u, v), v % 3


def _jsonl_lines(tree: TruncatedArborescence) -> Iterator[str]:
    # byte-identical to json.dumps of the record dict, key order = _FIELDS
    yield '{"value": 1, "depth": 0, "parent": null, "sibling_index": null, "residue": 1, ' \
          '"is_leaf": false}\n'
    for v, k, u, n, r in _rows(tree):
        yield (f'{{"value": {v}, "depth": {k}, "parent": {u}, "sibling_index": {n}, '
               f'"residue": {r}, "is_leaf": {"false" if r else "true"}}}\n')


def _csv_lines(tree: TruncatedArborescence) -> Iterator[str]:
    # byte-identical to csv.writer: integers and bare words need no quoting
    yield ",".join(_FIELDS) + "\n"
    yield "1,0,,,1,false\n"
    for v, k, u, n, r in _rows(tree):
        yield f"{v},{k},{u},{n},{r},{'false' if r else 'true'}\n"


def _dot_lines(tree: TruncatedArborescence) -> Iterator[str]:
    yield "digraph collatz_arbor {\n"
    order = [tree.levels[k] for k in sorted(tree.levels)]
    for level in order:
        for v in level:
            yield f"    {v};\n" if v % 3 else f"    {v} [shape=box];\n"
    parent = tree.parent
    for level in order[1:]:
        for v in level:
            yield f"    {parent[v]} -> {v};\n"
    yield "}\n"


_EXPORTERS = {"jsonl": _jsonl_lines, "dot": _dot_lines, "csv": _csv_lines}


def export(tree: TruncatedArborescence, fmt: str, sink: BinaryIO) -> None:
    """Serialize the tree to a byte sink: jsonl, dot, or csv.

    Output is deterministic for a given tree: nodes in (depth, level-position)
    order, integers in decimal.  The DOT digraph is named collatz_arbor with
    leaves drawn as boxes.  Each stored parent link is checked as an edge
    (NonEdgeError) when its sibling index is derived for jsonl and csv.
    """
    if fmt not in _EXPORTERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {EXPORT_FORMATS}")
    _write_lines(sink, _EXPORTERS[fmt](tree))
