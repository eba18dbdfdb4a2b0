"""A plain writer for each export format: the oracle for arbor.export.

Every row comes from `tree.levels`, in depth order: a value's depth is its
level's, its parent and exponent a are `f_step(v)`, its sibling index is
(a + 1) div 2, and its residue and leaf flag are v mod 3.  The root's row
has no parent and no index.  Each format is written with the standard tool
for it: `json.dumps` of the row dict, `csv.writer`, and a DOT loop over the
same rows.  `arbor.export` formats the rows itself, a level chunk at a time,
carrying the parent and index along each sibling run, and must write the
same bytes.
"""

import csv
import io
import json

from collatz_arbor.forward import f_step

FIELDS = ("value", "depth", "parent", "sibling_index", "residue", "is_leaf")


def reference_rows(tree) -> list[tuple]:
    """(value, depth, parent, sibling_index, residue, is_leaf) of every stored value."""
    rows = []
    for k, level in enumerate(tree.levels):
        for v in level:
            parent, a = f_step(v) if k else (None, None)
            n = None if a is None else (a + 1) // 2
            rows.append((v, k, parent, n, v % 3, v % 3 == 0))
    return rows


def reference_export(tree, fmt: str) -> bytes:
    rows = reference_rows(tree)
    out = io.StringIO()
    if fmt == "jsonl":
        for row in rows:
            out.write(json.dumps(dict(zip(FIELDS, row))) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(FIELDS)
        for row in rows:
            writer.writerow([*row[:-1], "true" if row[-1] else "false"])
    elif fmt == "dot":
        out.write("digraph collatz_arbor {\n")
        for v, *_, is_leaf in rows:
            out.write(f"    {v} [shape=box];\n" if is_leaf else f"    {v};\n")
        for v, _, parent, *_ in rows:
            if parent is not None:
                out.write(f"    {parent} -> {v};\n")
        out.write("}\n")
    else:
        raise ValueError(fmt)
    return out.getvalue().encode("ascii")
