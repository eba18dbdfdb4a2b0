"""Default boxes, budgets and names that the command line parses against.

This module imports nothing, so `cli` can build its parser without loading
the modules that do the arithmetic.  `forward`, `arbor` and `verify`
re-export each name here under the same name.
"""

# forward: far above known odd-step counts for desk-scale inputs; guards
# against nontermination without being hit in practice.
DEFAULT_MAX_STEPS = 10_000

# arbor: the node budget (a budget node stands for about 40 B, so about
# 400 MB; a box bounded below 2^32 stores a node in 4 B) and the export formats.
DEFAULT_MAX_NODES = 10_000_000
EXPORT_FORMATS = ("jsonl", "dot", "csv")

# verify: default boxes, seconds-scale runtime with arbitrary precision.
DEFAULT_PARENT_BOUND = 10_000
DEFAULT_SIBLING_COUNT = 64
DEFAULT_MAX_OFFSET = 64
DEFAULT_PARTNERS = 1_000
DEFAULT_TREE_DEPTH = 6
DEFAULT_TREE_BOUND = 10**6

SUITE_NAMES = ("residue-cycle", "multiples", "closed-forms", "adjacent-initials", "gaps",
               "collision", "uniqueness", "covering", "partition", "convergence")

SUITE_ALIASES = {
    "lemma1": "residue-cycle",
    "lemma2": "multiples",
    "lemma3": "closed-forms",
    "lemma4": "adjacent-initials",
    "lemma5": "collision",
}
