"""A plain writer for each export format: the oracle for arbor.export.

Every row comes from `tree.records()`, and each format is written with the
standard tool for it: `json.dumps` of the record dict, `csv.writer`, and a
DOT loop over the same records.  `arbor.export` formats the rows itself, a
level chunk at a time, and must write the same bytes.
"""

import csv
import io
import json

from collatz_arbor.arbor import NodeInfo

FIELDS = ("value",) + NodeInfo._fields


def reference_export(tree, fmt: str) -> bytes:
    records = list(tree.records())
    out = io.StringIO()
    if fmt == "jsonl":
        for value, info in records:
            out.write(json.dumps(dict(zip(FIELDS, (value, *info)))) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(FIELDS)
        for value, info in records:
            writer.writerow([value, *info[:-1], "true" if info.is_leaf else "false"])
    elif fmt == "dot":
        out.write("digraph collatz_arbor {\n")
        for value, info in records:
            out.write(f"    {value} [shape=box];\n" if info.is_leaf else f"    {value};\n")
        for value, info in records:
            if info.parent is not None:
                out.write(f"    {info.parent} -> {value};\n")
        out.write("}\n")
    else:
        raise ValueError(fmt)
    return out.getvalue().encode("ascii")
