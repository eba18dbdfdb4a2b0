"""Every pinned `collatz-arbor` output: argv, exit code, sha256 of stdout (EMPTY when a refused
run writes none) and whether it reads the c10 box. `PYTHONPATH=src python tests/pins.py` runs
all rows through `cli.main` in-process; `pytest tests/test_pins.py` the rows without c10."""

import hashlib
import io
import os
import sys
from collections import namedtuple
from unittest import mock

from collatz_arbor import cli

Pin = namedtuple("Pin", "argv code sha256 c10", defaults=[False])
EMPTY = hashlib.sha256(b"").hexdigest()
PINS = (
    # the exports of perfbench's tree-read box, and of the c10 box (K = 96, B = 9038141)
    Pin("tree --depth 40 --bound 2000000 --format jsonl", 0, "7535fe3f200476be979b94cd4958b3c85ba4704a603c8143499ea2b143a93c68"),
    Pin("tree --depth 40 --bound 2000000 --format csv", 0, "4ac37e0104c2dd2469d9d0d7f557401ba6f56bf8ae88e3118a3aa22c341a9060"),
    Pin("tree --depth 40 --bound 2000000 --format dot", 0, "b3cbc3ddec99513bf170695ca48b33bab6f47f9e7640841fd7dae7cc44acf075"),
    Pin("tree --depth 96 --bound 9038141 --format csv", 0, "603d1e206b71b863231735681d5074b08cb8e5d8fb1f8d4384f14af78bfb6e00", c10=True),
    Pin("tree --depth 96 --bound 9038141 --format jsonl", 0, "3b7d14b99d11aef326beb33190703868c5428f5498fc45cad355c2ac5420a998", c10=True),
    Pin("tree --depth 96 --bound 9038141 --format dot", 0, "7bf416a0faef295c535b2ff01c335b03c8dccc037a4740dacff9fffc30f5ef43", c10=True),
    # the build of a cap-only, a capped and a 2^80-bounded box, whose values are charged by size
    Pin("tree --depth 2 --sibling-cap 40 --format csv", 0, "bc253275b6b69a5f4e6d4662f1b82344ff9b882054a31fc790a1600ab99a02ce"),
    Pin("tree --depth 30 --bound 2000000 --sibling-cap 3 --format jsonl", 0, "eed3d9135e8aa6e99c6671480c2f9662cda2d150e97b02c52dbd0477f7adbf0a"),
    Pin("tree --depth 3 --bound 1208925819614629174706176 --format csv", 0, "efd5d53071efc5832e3ca3207760d7b027fc5f124461a29a631706361f0007a4"),
    # cap-only boxes over their budget, by node count and by the size of 5,000 long values
    Pin("tree --depth 4 --sibling-cap 6 --max-nodes 300", 3, EMPTY),
    Pin("tree --depth 1 --sibling-cap 5000 --max-nodes 6000", 3, EMPTY),
    # the tree checks' build over its budget, before any check runs
    Pin("verify --suite uniqueness --max-nodes 10", 3, EMPTY),
    # coverage under the default budget, and under a budget of 10^5 nodes
    Pin("cover --depth 40 --bound 2000000 --report-bound 500000 --output json", 0, "863399f64245f2156c8929930ed8f134d32524b4d75804f0a2ca1095a054c8f8"),
    Pin("cover --depth 14 --bound 2000000 --max-nodes 100000 --report-bound 20001 --output json", 0, "3e0530f26ae416d75d4566346f2e693642fb165c359ea604ee05550fc9dc84e6"),
    # every suite on small boxes; covering, and uniqueness with parent pointers, on c10
    Pin("verify --suite all --parent-bound 2000 --count 16 --max-d 16 --partners 100 --conv-bound 20001 --output json", 0, "ed3ad399dd862dd42acbe3058c6957c04210bdb281e4f44788cf3a4bff7eb092"),
    Pin("verify --suite covering --depth 96 --bound 9038141 --output json", 0, "0b1f8a248163de120f643d503a1d53b37927da2c9f8d6faaf484cc42f670f804", c10=True),
    Pin("verify --suite uniqueness --depth 96 --bound 9038141 --output json", 0, "7442cc709e9b20532dfffc1ffc8514fb6f877603e7f403e0759e9e7534694cf5", c10=True),
    # the tree checks on a box bounded at 10^12 (185,358 cases a check); the multiple form's sweep of z_n
    Pin("verify --suite uniqueness --depth 8 --bound 1000000000000 --output json", 0, "923401ab519d2507a7b1271a8f7b266103c56845f01e88ab0c2a43b05797bd8a"),
    Pin("verify --suite closed-forms --parent-bound 200 --count 300 --output json", 0, "faeb4a83cfd438da3c95c53d9012659e94e311a0a839752119e05e569e97bf5b"),
    # convergence to 10^6, passed, and failed at start 230631 with 150 steps
    Pin("verify --suite convergence --conv-bound 1000001 --output json", 0, "d4b6ba9645f7ae3b56613a70c4bdced6e920dff27a8f084c61edd330c2db73ec"),
    Pin("verify --suite convergence --conv-bound 1000001 --max-steps 150 --output json", 1, "cc663a4e6b7a1fca2533bc2460d6959bf24100258acff3c864920a7472f4ba4c"),
    # a sibling run whose last value has 4,335 digits, and one refused at its price (33.4 M nodes)
    Pin("siblings 5 --count 7200 --output json", 0, "4ee23b827a72416bcd8bb1aabc00a4a6baa1985cc1f4f3166684d88ea8b158b2"),
    Pin("siblings 5 --count 100000", 3, EMPTY),
)


class _Sha256Sink(io.RawIOBase):
    """A raw stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def writable(self):
        return True

    def write(self, data):
        self.sha256.update(data)
        return len(data)


def run(pin):
    """The exit code of `cli.main` on the row's argv, and the sha256 of its stdout."""
    sink = _Sha256Sink()
    out = io.TextIOWrapper(sink, encoding="utf-8", newline="\n", write_through=True)
    with mock.patch.dict(os.environ), mock.patch.multiple(sys, stdout=out, stderr=io.StringIO()):
        os.environ.pop(cli.MAX_NODES_ENV, None)  # the runner ignores the budget override
        return cli.main(pin.argv.split()), sink.sha256.hexdigest()


if __name__ == "__main__":
    failed = [(pin.argv, got) for pin in PINS if (got := run(pin)) != (pin.code, pin.sha256)]
    print(*failed, f"{len(PINS) - len(failed)} of {len(PINS)} pins match", sep="\n")
    sys.exit(1 if failed else 0)
