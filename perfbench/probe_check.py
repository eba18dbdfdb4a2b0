"""Check that the speed probe does not depend on the package's heap.

    python3 perfbench/probe_check.py            # about 30 s, 470 MB peak

`scaled_wall_s` divides a pass's wall time by the duration of a probe loop
that runs inside the benchmark process, interrupting the package.  That is
only fair if the probe runs as fast next to a large live tree as next to
an empty heap.  This script times the probe here and in a fresh child
process, in alternation, so both see the same machine speed:

1. with the heap small,
2. with the completeness tree (2.6 M nodes) alive here,
3. after that tree is freed.

It prints the median here/child ratio of each phase and each ratio's
change from phase 1.  A change well under the `scaled_wall_s` bound means
a package change that alters the heap does not move the divisor.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys

from harness import probe
from run import load_package
from workloads import FULL

ROUNDS = 80


def _phase(child: subprocess.Popen) -> float:
    """Median ratio of a probe here to one in the child, alternating who goes first."""
    ratios = []
    for i in range(ROUNDS):
        here = probe() if i % 2 else None
        child.stdin.write("\n")
        child.stdin.flush()
        there = float(child.stdout.readline())
        if here is None:
            here = probe()
        ratios.append(here / there)
    return statistics.median(ratios)


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        for _ in sys.stdin:
            print(probe(), flush=True)
        return 0
    pkg = load_package()
    box = FULL["completeness"]
    child = subprocess.Popen([sys.executable, __file__, "--child"], text=True,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        phases = {"small heap": _phase(child)}
        tree = pkg.arbor.build(pkg.arbor.TruncationConfig(
            max_depth=box.max_odd_steps, value_bound=box.max_excursion))
        if len(tree) != box.nodes:
            raise SystemExit(f"error: tree has {len(tree)} nodes, expected {box.nodes}")
        phases["tree alive"] = _phase(child)
        del tree
        gc.collect()
        phases["tree freed"] = _phase(child)
    finally:
        child.stdin.close()
        child.wait()
    base = phases["small heap"]
    for name, ratio in phases.items():
        print(f"{name:11s} here/child {ratio:.4f}  change {100 * (ratio / base - 1):+.2f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
