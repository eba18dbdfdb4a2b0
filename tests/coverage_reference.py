"""The scan-every-level coverage loop: the oracle for arbor.coverage.

It sets each covered value's depth one value at a time, and lists
the missing values with one dict lookup each; `arbor.coverage` must return
an equal report, `first_depth` included.
"""

from collatz_arbor.arbor import CoverageReport
from collatz_arbor.errors import CapacityError


def reference_coverage(tree, bound: int) -> CoverageReport:
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if tree.config.value_bound is not None and bound > tree.config.value_bound:
        raise ValueError(
            f"report bound {bound} exceeds the tree's value bound {tree.config.value_bound}"
        )
    budget = tree.config.max_nodes
    refused = f"the report up to {bound} lists more than {budget} missing values (the node budget)"
    if (bound + 1) // 2 - len(tree) > budget:  # at most len(tree) values are covered
        raise CapacityError(refused)
    first_depth: dict[int, int] = {}
    level_sizes: dict[int, int] = {}
    for k, level in enumerate(tree.levels):
        hits = [v for v in level if v <= bound]
        for value in hits:
            first_depth[value] = k
        if hits:
            level_sizes[k] = len(hits)
    if (bound + 1) // 2 - len(first_depth) > budget:
        raise CapacityError(refused)
    missing = tuple(x for x in range(1, bound + 1, 2) if x not in first_depth)
    return CoverageReport(
        bound=bound,
        covered_count=len(first_depth),
        missing=missing,
        first_depth=first_depth,
        level_sizes=level_sizes,
    )
