"""Command-line front end.

Exit codes: 0 success / all checks passed, 1 a verification check failed or
an identity was falsified, 2 usage error, 3 resource budget exceeded.
Results go to stdout, diagnostics to stderr.  JSON output is line-delimited
and byte-stable across identical invocations.

Start-up is most of a short run, so each handler imports the modules of its
own subcommand, and the parser reads its defaults from the import-free
`defaults` module.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import defaults
from .errors import (
    CapacityError,
    InconsistencyError,
    MissingVertexError,
    NonEdgeError,
)

if TYPE_CHECKING:
    from .arbor import TruncationConfig

__all__ = ["main", "build_parser"]

MAX_NODES_ENV = "COLLATZ_ARBOR_MAX_NODES"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _is_decimal(text: str) -> bool:
    # ASCII digits only: no underscores, signs, alternate bases or non-ASCII
    # digits (str.isdigit alone accepts e.g. Arabic-Indic ones)
    return text.isascii() and text.isdigit()


def _decimal(text: str) -> int:
    if not _is_decimal(text):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def _max_nodes(args: argparse.Namespace) -> int:
    """The node budget: --max-nodes where the command takes it, else $COLLATZ_ARBOR_MAX_NODES."""
    if getattr(args, "max_nodes", None) is not None:
        return args.max_nodes
    raw = os.environ.get(MAX_NODES_ENV)
    if raw is None:
        return defaults.DEFAULT_MAX_NODES
    if not _is_decimal(raw) or int(raw) < 1:
        raise ValueError(f"{MAX_NODES_ENV} must be a positive decimal integer, got {raw!r}")
    return int(raw)


_MAX_NODES_HELP = (f"node budget (default {defaults.DEFAULT_MAX_NODES}, or ${MAX_NODES_ENV}): "
                   f"4 B a node (about 40 MB) when the bound is below 2^32 (8 B below 2^64); "
                   f"otherwise about 40 B a charged node (about 400 MB), with values past "
                   f"2^60 charged more")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatz-arbor",
        description="Forward/inverse Collatz toolkit: orbits, sibling streams, "
                    "bounded tree construction, and structural verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_traj = sub.add_parser("trajectory", help="print the forward orbit of an odd start")
    p_traj.add_argument("x", type=_decimal)
    p_traj.add_argument("--max-steps", type=_decimal, default=defaults.DEFAULT_MAX_STEPS)
    _add_output(p_traj)

    p_sib = sub.add_parser("siblings", help="print the child stream of a parent")
    p_sib.add_argument("u", type=_decimal)
    stop = p_sib.add_mutually_exclusive_group(required=True)
    stop.add_argument("--count", type=_decimal, help="keep the first N children")
    stop.add_argument("--bound", type=_decimal, help="keep children up to this value")
    _add_output(p_sib)

    for name in ("tree", "export"):
        p_tree = sub.add_parser(name, help="build a truncated tree and export it")
        p_tree.add_argument("--depth", type=_decimal, default=None, help="maximum depth")
        p_tree.add_argument("--bound", type=_decimal, default=None, help="maximum value")
        p_tree.add_argument("--sibling-cap", type=_decimal, default=None)
        p_tree.add_argument("--max-nodes", type=_decimal, default=None, help=_MAX_NODES_HELP)
        p_tree.add_argument("--format", choices=defaults.EXPORT_FORMATS, default="jsonl")
        p_tree.add_argument("--out", default=None, help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          choices=("all",) + defaults.SUITE_NAMES + tuple(defaults.SUITE_ALIASES),
                          help="suite to run (lemmaN aliases accepted)")
    p_verify.add_argument("--parent-bound", type=_decimal, default=defaults.DEFAULT_PARENT_BOUND)
    p_verify.add_argument("--count", type=_decimal, default=defaults.DEFAULT_SIBLING_COUNT)
    p_verify.add_argument("--max-d", type=_decimal, default=defaults.DEFAULT_MAX_OFFSET)
    p_verify.add_argument("--partners", type=_decimal, default=defaults.DEFAULT_PARTNERS)
    p_verify.add_argument("--depth", type=_decimal, default=defaults.DEFAULT_TREE_DEPTH,
                          help="tree depth for tree checks")
    p_verify.add_argument("--bound", type=_decimal, default=defaults.DEFAULT_TREE_BOUND,
                          help="tree value bound for tree checks")
    p_verify.add_argument("--conv-bound", type=_decimal, default=defaults.DEFAULT_PARENT_BOUND,
                          help="start bound for the convergence sweep")
    p_verify.add_argument("--max-steps", type=_decimal, default=defaults.DEFAULT_MAX_STEPS)
    p_verify.add_argument("--max-nodes", type=_decimal, default=None, help=_MAX_NODES_HELP)
    _add_output(p_verify)

    p_cover = sub.add_parser("cover", help="coverage of the odd values within a bound")
    p_cover.add_argument("--bound", type=_decimal, required=True)
    p_cover.add_argument("--depth", type=_decimal, required=True)
    p_cover.add_argument("--report-bound", type=_decimal, default=None,
                         help="report window (default: the tree bound)")
    p_cover.add_argument("--max-nodes", type=_decimal, default=None,
                         help=_MAX_NODES_HELP + "; it also caps the missing values listed")
    _add_output(p_cover)

    return parser


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=("human", "json"), default="human")


def _dumps(payload: object) -> str:
    import json  # only JSON output and counterexamples pay for it

    return json.dumps(payload, sort_keys=True)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_dumps(payload) + "\n")


def _cmd_trajectory(args: argparse.Namespace) -> int:
    from .forward import trajectory

    record = trajectory(args.x, max_steps=args.max_steps)
    if args.output == "json":
        _emit_json({
            "start": record.start,
            "values": list(record.values),
            "exponents": list(record.exponents),
            "length": record.length,
            "converged": record.converged,
        })
    else:
        print(" -> ".join(str(v) for v in record.values))
        print("a = " + ",".join(str(a) for a in record.exponents))
        state = "converged" if record.converged else "not converged"
        print(f"length = {record.length} ({state})")
    return EXIT_OK


def _cmd_siblings(args: argparse.Namespace) -> int:
    from .inverse import _charge, siblings

    family = siblings(args.u, count=args.count, bound=args.bound)
    # the run is priced in closed form, as a tree's chunk is, before any child is grown
    count, extra = _charge((args.u,), *family._box())
    max_nodes = _max_nodes(args)
    if count + extra > max_nodes:
        raise CapacityError(f"node budget {max_nodes} exhausted: {count} siblings "
                            f"are charged {count + extra} nodes")
    values = family.values()
    # one value's text at a time, never the joined line; JSON as json.dumps(sort_keys=True)
    if args.output == "json":
        bound, count = _dumps(args.bound), _dumps(args.count)
        print(f'{{"bound": {bound}, "count": {count}, "indices": [', end="")
        print(*range(1, len(values) + 1), sep=", ", end="")
        print(f'], "parent": {args.u}, "values": [', end="")
        print(*values, sep=", ", end="")
        print("]}")
    else:
        print(*values, sep=", ")
    return EXIT_OK


def _tree_config(args: argparse.Namespace) -> TruncationConfig:
    from .arbor import TruncationConfig

    return TruncationConfig(
        max_depth=args.depth,
        value_bound=args.bound,
        sibling_cap=getattr(args, "sibling_cap", None),
        max_nodes=_max_nodes(args),
    )


def _cmd_tree(args: argparse.Namespace) -> int:
    from .arbor import build, export

    tree = build(_tree_config(args))
    if args.out is None:
        export(tree, args.format, sys.stdout.buffer)
        sys.stdout.buffer.flush()
    else:
        with open(args.out, "wb") as sink:
            export(tree, args.format, sink)
    print(f"nodes={len(tree)} max_depth={tree.max_depth}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    reports = run_suite(
        args.suite,
        parent_bound=args.parent_bound,
        count=args.count,
        max_d=args.max_d,
        partners=args.partners,
        tree_depth=args.depth,
        tree_bound=args.bound,
        convergence_bound=args.conv_bound,
        max_steps=args.max_steps,
        max_nodes=_max_nodes(args),
    )
    failed = False
    for report in reports:
        if args.output == "json":
            # elapsed is excluded so identical invocations stay byte-identical
            _emit_json(report.as_dict(include_elapsed=False))
        else:
            status = "PASS" if report.passed else "FAIL"
            box = " ".join(f"{k}={v}" for k, v in report.parameters.items())
            stats = report.statistics
            line = (f"{status} {report.check_name} [{box}] "
                    f"cases={stats.get('cases')} elapsed={stats.get('elapsed_s')}s")
            print(line)
            if report.counterexample is not None:
                print(f"     counterexample: {_dumps(report.counterexample)}")
        if not report.passed:
            failed = True
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_cover(args: argparse.Namespace) -> int:
    from .arbor import build, coverage

    tree = build(_tree_config(args))
    window = args.report_bound if args.report_bound is not None else args.bound
    try:
        report = coverage(tree, window)
    except CapacityError as exc:
        raise CapacityError(f"{exc}; narrow the report with --report-bound") from exc
    if args.output == "json":
        _emit_json({
            "bound": report.bound,
            "covered_count": report.covered_count,
            "missing": list(report.missing),
            "level_sizes": {str(k): v for k, v in sorted(report.level_sizes.items())},
            "first_depth": {str(k): v for k, v in report.first_depth.items()},
        })
    else:
        print(f"bound={report.bound} covered={report.covered_count} "
              f"missing={len(report.missing)}")
        if report.missing:
            shown = report.missing[:100]
            tail = "" if len(report.missing) <= 100 else f" ... ({len(report.missing) - 100} more)"
            print("missing: " + ", ".join(str(v) for v in shown) + tail)
        print("levels: " + ", ".join(f"{k}:{v}" for k, v in sorted(report.level_sizes.items())))
    return EXIT_OK


_HANDLERS = {
    "trajectory": _cmd_trajectory,
    "siblings": _cmd_siblings,
    "tree": _cmd_tree,
    "export": _cmd_tree,
    "verify": _cmd_verify,
    "cover": _cmd_cover,
}


def main(argv: Sequence[str] | None = None) -> int:
    # exact integers at any size: lift the 4,300-digit limit on int <-> str
    # conversion for this call, and give an in-process caller its own limit
    # back (Python 3.11+; 3.10 has none)
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed to stderr; normalize its code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop quietly, and point
        # stdout at devnull so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InconsistencyError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, TypeError, MissingVertexError, NonEdgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
