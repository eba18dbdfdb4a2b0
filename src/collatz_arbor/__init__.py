"""Forward/inverse Collatz toolkit.

Exact forward orbits, the one-to-many inverse branch map with its sibling
streams, bounded materialization of the resulting rooted tree, and
machine checks of the structural identities behind it, all on plain
arbitrary-precision integers.

The names below load lazily (PEP 562): `from collatz_arbor import build`
imports `arbor` and what it needs, and nothing else.  A command-line process
thus compiles only the modules of its subcommand.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("CoverageReport", "TruncatedArborescence", "TruncationConfig", "build",
                     "classify_edge", "coverage", "export", "path_to"), "arbor"),
    **dict.fromkeys(("BaseSequences", "base_sequences", "w_term", "z_term"), "core"),
    **dict.fromkeys(("CapacityError", "CollatzArborError", "InconsistencyError",
                     "LeafParentError", "MissingVertexError", "NonEdgeError"), "errors"),
    **dict.fromkeys(("TrajectoryRecord", "TrajectorySummary", "f_step", "trajectory",
                     "trajectory_summary"), "forward"),
    **dict.fromkeys(("SiblingSet", "branch_forms", "g_branch", "siblings"), "inverse"),
    **dict.fromkeys(("VerificationReport", "run_suite"), "verify"),
}
_MODULES = ("arbor", "cli", "core", "defaults", "errors", "forward", "inverse", "verify")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _MODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULES))
