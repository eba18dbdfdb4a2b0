"""Executable checks for the structural claims behind the inverse tree.

Every check runs inside an explicit finite box (a parent bound, a sibling
count, an index offset range, a truncation config) and produces a
VerificationReport that embeds that box, so a "pass" can never be read as
more than evidence on the stated range.  A failed check always carries a
counterexample with enough data to replay it.  Each check validates its box
once, at its boundary; its inner loops then do plain integer arithmetic.
Every check runs through one driver, _Run, which owns its clock, its case
count and its report.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ._record import Record
from .core import _require_int, w_term, z_term
from .defaults import (DEFAULT_MAX_OFFSET, DEFAULT_MAX_STEPS, DEFAULT_PARENT_BOUND,
                       DEFAULT_PARTNERS, DEFAULT_SIBLING_COUNT, DEFAULT_TREE_BOUND,
                       DEFAULT_TREE_DEPTH, SUITE_ALIASES, SUITE_NAMES)
from .errors import NonEdgeError
from .inverse import _raw_branch, _require_parent

# arbor (and forward, on the convergence sweep's failure path) are imported
# where they are used, so `verify --suite lemma1` does not compile them
if TYPE_CHECKING:
    from .arbor import TruncatedArborescence

__all__ = [
    "VerificationReport", "CollisionProbe",
    "check_residue_cycle", "check_collision_parity", "check_closed_forms", "check_multiples",
    "check_uniqueness", "check_parent_pointers", "check_covering", "check_covering_templates",
    "check_initial_vertex_partition", "check_convergence",
    "residue_cycle_sweep", "multiples_sweep", "closed_forms_sweep", "adjacent_initials_sweep",
    "gaps_sweep", "collision_parity_sweep",
    "run_suite", "SUITE_NAMES", "SUITE_ALIASES", "INITIAL_RESIDUE_TEMPLATES",
    "DEFAULT_PARENT_BOUND", "DEFAULT_SIBLING_COUNT", "DEFAULT_MAX_OFFSET", "DEFAULT_PARTNERS",
    "DEFAULT_TREE_DEPTH", "DEFAULT_TREE_BOUND",
]

# Per-parent residue patterns of a child family, keyed by
# (parent mod 3, parent-multiple mod 3) -> (modulus, first residue, cycle).
# The first child carries `first`; from the second child on the residues
# cycle with period 3.
INITIAL_RESIDUE_TEMPLATES: dict[tuple[int, int], tuple[int, int, tuple[int, int, int]]] = {
    (1, 0): (24, 1, (5, 21, 13)),
    (1, 1): (24, 17, (21, 13, 5)),
    (1, 2): (24, 9, (13, 5, 21)),
    (2, 0): (12, 7, (5, 9, 1)),
    (2, 1): (12, 3, (1, 5, 9)),
    (2, 2): (12, 11, (9, 1, 5)),
}


class VerificationReport(Record):
    """Outcome of one check: the box it ran in, pass/fail, and statistics."""

    __slots__ = ("check_name", "parameters", "passed", "counterexample", "statistics")
    _defaults = {"statistics": None}  # None stands for a fresh empty dict
    check_name: str
    parameters: dict
    passed: bool
    counterexample: dict | None
    statistics: dict

    def __post_init__(self) -> None:
        if not self.passed and self.counterexample is None:
            raise ValueError("a failed report must carry a counterexample")
        if self.statistics is None:
            object.__setattr__(self, "statistics", {})

    def as_dict(self, include_elapsed: bool = True) -> dict:
        stats = dict(self.statistics)
        if not include_elapsed:
            stats.pop("elapsed_s", None)
        return {
            "check_name": self.check_name,
            "parameters": self.parameters,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "statistics": stats,
        }


def _finish(name: str, params: dict, passed: bool, counterexample: dict | None,
            cases: int, t0: float, **extra) -> VerificationReport:
    stats = {"cases": cases, "elapsed_s": round(time.perf_counter() - t0, 6)}
    stats.update(extra)
    return VerificationReport(name, params, passed, counterexample, stats)


class _Run:
    """A check's box, clock and case count; report() is the only caller of _finish."""

    __slots__ = ("name", "params", "t0", "cases")

    def __init__(self, name: str, params: dict) -> None:
        self.name, self.params, self.cases = name, params, 0
        self.t0 = time.perf_counter()

    def report(self, counterexample: dict | None = None, **extra) -> VerificationReport:
        """Close the run, failed exactly when it is given a counterexample."""
        return _finish(self.name, self.params, counterexample is None, counterexample,
                       self.cases, self.t0, **extra)


def _parents_up_to(bound: int) -> Iterator[int]:
    """Odd non-multiples of 3 up to bound (the valid parents)."""
    for u in range(1, bound + 1, 2):
        if u % 3:
            yield u


def _require_box(least: int = 1, **sizes: int) -> None:
    """Each named size of a box (parent_bound, count, max_d, ...) must be an int >= least."""
    for what, size in sizes.items():
        _require_int(size, what)
        if size < least:
            raise ValueError(f"{what} must be >= {least}, got {size}")


def _template_residue(template: tuple[int, int, tuple[int, int, int]], n: int) -> int:
    _, first, cycle = template
    return first if n == 1 else cycle[(n - 2) % 3]


def _over_parents(name: str, params: dict, parents: Iterable[int], count: int,
                  kernel: Callable[[int], Callable[[int], dict | None]],
                  whole_parent: bool = False) -> VerificationReport:
    """Check each parent with kernel(count), `count` cases a parent, up to a counterexample.

    A failed report counts the cases up to the failing child (the
    counterexample's "n"), or with whole_parent all of the failing parent's.
    """
    run = _Run(name, params)
    counterexample = kernel(count)
    for u in parents:
        bad = counterexample(u)
        if bad is not None:
            run.cases += count if whole_parent else bad["n"]
            return run.report(bad)
        run.cases += count
    return run.report()


# ---------------------------------------------------------------------------
# per-object checks.  A kernel(count) reads z_1, or rows from z_term and
# w_term, once, and returns a function of a checked parent u: the first
# counterexample among u's first `count` children, or None.  The first child
# comes from the raw branch kernel, the others from v_{n+1} = 1 + 4 v_n.


def _residue_cycle_kernel(count: int) -> Callable[[int], dict | None]:
    z1 = z_term(1)

    def counterexample(u: int) -> dict | None:
        v = _raw_branch(u, 2 if u % 3 == 1 else 1, z1)
        first = v % 3
        for n in range(1, count + 1):
            if v % 3 != (first + n - 1) % 3:
                return {"u": u, "n": n, "value": v,
                        "expected_residue": (first + n - 1) % 3, "observed_residue": v % 3}
            v = 1 + 4 * v
        return None
    return counterexample


def check_residue_cycle(u: int, count: int) -> VerificationReport:
    """Sibling residues mod 3 must step +1 cyclically from the first child's class."""
    _require_parent(u)
    _require_box(count=count)
    return _over_parents("residue_cycle", {"u": u, "count": count}, (u,), count,
                         _residue_cycle_kernel)


class CollisionProbe(Record):
    """A hypothetical equal-children collision between distinct parents.

    `d` is the positive offset between the two sibling indices.  For the
    mixed-class case the partner multiple plays the class-2 role and must be
    odd; for the same-class case it plays a class-1 role and must be even.
    """

    __slots__ = ("d", "partner_multiple", "same_class")
    d: int
    partner_multiple: int
    same_class: bool

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.partner_multiple < 0:
            raise ValueError(f"partner_multiple must be >= 0, got {self.partner_multiple}")
        want_even = self.same_class
        if (self.partner_multiple % 2 == 0) != want_even:
            kind = "even" if want_even else "odd"
            raise ValueError(
                f"partner_multiple must be {kind} for this case, got {self.partner_multiple}"
            )


def check_collision_parity(probe: CollisionProbe) -> tuple[int, bool]:
    """The class-1 multiple a collision would force, and whether it is odd.

    A collision at offset d requires mu = 2^(2d-1) * partner + z_d (mixed
    classes) or mu = 2^(2d) * partner + z_d (same class).  Both are odd for
    every valid probe, while a genuine class-1 multiple is even; oddness here
    is the witness that the collision cannot happen.
    """
    shift = 2 * probe.d if probe.same_class else 2 * probe.d - 1
    required = (1 << shift) * probe.partner_multiple + z_term(probe.d)
    return required, required % 2 == 1


def collision_parity_sweep(max_d: int = DEFAULT_MAX_OFFSET,
                           partners_per_class: int = DEFAULT_PARTNERS) -> VerificationReport:
    """Every probe over the box must force an odd (hence impossible) multiple.

    The probes are those check_collision_parity takes, valid by construction
    and not built: for each d (z_d read once) and each i, first the mixed
    case with partner 2i + 1, then the same-class case with partner 2i.
    """
    _require_box(max_d=max_d, partners_per_class=partners_per_class)
    run = _Run("collision_parity", {"max_d": max_d, "partners_per_class": partners_per_class})
    for d in range(1, max_d + 1):
        z = z_term(d)
        mixed, same = 1 << (2 * d - 1), 1 << (2 * d)
        for i in range(partners_per_class):
            for same_class, partner, scale in ((False, 2 * i + 1, mixed), (True, 2 * i, same)):
                run.cases += 1
                required = scale * partner + z
                if required % 2 == 0:
                    return run.report({"d": d, "partner_multiple": partner,
                                       "same_class": same_class, "required_multiple": required})
    return run.report()


def _closed_forms_kernel(count: int) -> Callable[[int], dict | None]:
    # per parent class: (n, e_n, z_n, sum of 2^e_i for i < n), n = 1..count
    ns = range(1, count + 1)
    zs = [z_term(n) for n in ns]
    es = {r: [2 * n if r == 1 else 2 * n - 1 for n in ns] for r in (1, 2)}
    rows = {r: list(zip(ns, es[r], zs, accumulate((1 << e for e in es[r]), initial=0)))
            for r in (1, 2)}

    def counterexample(u: int) -> dict | None:
        class_rows = rows[u % 3]
        _, e1, z1, _ = class_rows[0]
        v1 = rec = _raw_branch(u, e1, z1)
        for n, e, z, acc in class_rows:
            direct = _raw_branch(u, e, z)
            summed = u * acc + v1
            if not direct == rec == summed:
                return {"u": u, "n": n, "direct": direct, "recurrence": rec,
                        "summation": summed}
            rec = 1 + 4 * rec
        return None
    return counterexample


def check_closed_forms(u: int, count: int) -> VerificationReport:
    """Direct division, recurrence from v_1, and partial-sum form must agree."""
    _require_parent(u)
    _require_box(count=count)
    return _over_parents("closed_forms", {"u": u, "count": count}, (u,), count,
                         _closed_forms_kernel)


def _multiples_kernel(count: int) -> Callable[[int], dict | None]:
    # per first-child residue r1: (n, w term, 4^(n-1)) of m_n's closed form
    # for n = 2..count, the w term being w_{n-1}, w_n or w_{n+1} for r1 = 0, 1, 2
    ws = [0] + [w_term(k) for k in range(1, count + 2)]
    rows = {r1: [(n, ws[n - 1 + r1], 1 << (2 * (n - 1))) for n in range(2, count + 1)]
            for r1 in (0, 1, 2)}
    z1 = z_term(1)

    def counterexample(u: int) -> dict | None:
        # a term off its closed form first, else the first that does not ascend
        v = _raw_branch(u, 2 if u % 3 == 1 else 1, z1)
        r1, mu = v % 3, v // 3
        prev = (v - r1) // 3
        if prev != mu:
            return {"u": u, "n": 1, "direct": prev, "closed_form": mu,
                    "first_child_residue": r1}
        m = mu - 1 if r1 == 2 else mu
        descent = None
        for n, w, scale in rows[r1]:
            v = 1 + 4 * v
            term = (v - v % 3) // 3
            if term != w + scale * m:
                return {"u": u, "n": n, "direct": term, "closed_form": w + scale * m,
                        "first_child_residue": r1}
            if descent is None and not prev < term:
                descent = {"u": u, "n": n, "previous": prev, "term": term,
                           "reason": "not ascending"}
            prev = term
        return descent
    return counterexample


def check_multiples(u: int, count: int) -> VerificationReport:
    """Child multiples must ascend strictly and match their piecewise closed form."""
    _require_parent(u)
    _require_box(count=count)
    return _over_parents("multiples", {"u": u, "count": count}, (u,), count,
                         _multiples_kernel, whole_parent=True)


# ---------------------------------------------------------------------------
# tree checks


def _expansion_parents(tree: TruncatedArborescence) -> Iterator[int]:
    """Stored vertices the build rule expands, in deterministic order."""
    k_limit = tree.config.max_depth
    for k in sorted(tree.levels):
        if k_limit is not None and k >= k_limit:
            return
        yield from (v for v in tree.levels[k] if v % 3)


def _branch(u: int, n: int, zs: list[int]) -> int:
    """v_n of a parent u taken from a tree, through the raw branch kernel.

    zs holds z_k at index k and grows from z_term as the indices need.
    """
    if n >= len(zs):
        zs.extend(z_term(k) for k in range(len(zs), n + 1))
    return _raw_branch(u, 2 * n if u % 3 == 1 else 2 * n - 1, zs[n])


def check_uniqueness(tree: TruncatedArborescence) -> VerificationReport:
    """Re-derive every child of every stored parent and demand distinct values.

    Independent of the build: children are recomputed by direct branch
    evaluation rather than the recurrence the builder uses, and occurrences
    are counted rather than aborting on first repeat.  The parents are
    stored values, odd and not multiples of 3, so the raw kernel takes them.
    """
    from .arbor import ROOT

    cfg = tree.config
    run = _Run("uniqueness", {"max_depth": cfg.max_depth, "value_bound": cfg.value_bound,
                              "sibling_cap": cfg.sibling_cap})
    counts: Counter[int] = Counter()
    zs = [0]
    for parent in _expansion_parents(tree):
        n = 2 if parent == ROOT else 1
        while cfg.sibling_cap is None or n <= cfg.sibling_cap:
            child = _branch(parent, n, zs)
            if cfg.value_bound is not None and child > cfg.value_bound:
                break
            counts[child] += 1
            n += 1
    run.cases = counts.total()  # every child derived
    duplicates = sorted(v for v, c in counts.items() if c > 1)
    stored = set(tree.parent) - {ROOT}
    derived = set(counts)
    if duplicates:
        v = duplicates[0]
        return run.report({"value": v, "occurrences": counts[v]})
    if derived != stored:
        off = sorted(derived.symmetric_difference(stored))
        return run.report({"value": off[0],
                           "reason": "derived child set differs from stored nodes"})
    return run.report()


def check_parent_pointers(tree: TruncatedArborescence) -> VerificationReport:
    """Every stored parent link must be an edge whose index reproduces the child.

    The sibling index is recovered from the link by the edge test, then the
    child is re-derived from (parent, index) by direct branch evaluation
    through the raw kernel, since the edge test has checked the parent.
    """
    from .arbor import _edge_index

    run = _Run("parent_pointers", {"nodes": len(tree)})
    zs = [0]
    for value, parent in tree.parent.items():
        if parent is None:
            continue
        run.cases += 1
        if parent not in tree:
            return run.report({"value": value, "parent": parent, "reason": "parent not stored"})
        try:
            n = _edge_index(parent, value)
        except NonEdgeError as exc:
            return run.report({"value": value, "parent": parent, "reason": str(exc)})
        if _branch(parent, n, zs) != value:
            return run.report({"value": value, "parent": parent, "sibling_index": n})
    return run.report()


def _require_covering_depth(tree: TruncatedArborescence) -> None:
    if tree.max_depth < 3:
        raise ValueError(f"tree depth {tree.max_depth} is too shallow; need >= 3")


def check_covering(tree: TruncatedArborescence) -> VerificationReport:
    """Residue-class structure of the stored tree.

    (b) children of class-2 parents realize all six odd classes mod 12
        within the sample;
    (c) every stored child sits on the residue its parent's template
        predicts for its sibling index (mod 24 for class-1 parents, mod 12
        for class-2), tested first.

    (c) implies (a): class-1 children land on {1, 5, 9} mod 12, as their
    template residues 1, 17, 9, 5, 21, 13 mod 24 all do.  (d), no value in
    both classes, holds as a value's parent is f(value).  Parents of
    template keys absent from the tree are reported as warnings in the
    statistics, not failures.
    """
    _require_covering_depth(tree)
    cfg = tree.config
    run = _Run("covering_patterns", {"max_depth": cfg.max_depth, "value_bound": cfg.value_bound})
    realized: set[int] = set()  # residues mod 12 of the class-2 children
    class2 = 0
    seen_keys: set[tuple[int, int]] = set()
    for value, info in tree.records():
        if info.parent is None:
            continue
        run.cases += 1
        parent_class = info.parent % 3
        key = (parent_class, (info.parent // 3) % 3)
        seen_keys.add(key)
        template = INITIAL_RESIDUE_TEMPLATES[key]
        modulus, expected = template[0], _template_residue(template, info.sibling_index)
        if value % modulus != expected:
            return run.report({"value": value, "parent": info.parent,
                               "sibling_index": info.sibling_index,
                               "expected_mod": expected, "modulus": modulus,
                               "observed": value % modulus})
        if parent_class == 2:
            class2 += 1
            realized.add(value % 12)
    if realized != {1, 3, 5, 7, 9, 11}:
        return run.report({"missing_classes_mod_12": sorted({1, 3, 5, 7, 9, 11} - realized)})
    warnings = [f"no parent with template key {key}" for key in
                sorted(set(INITIAL_RESIDUE_TEMPLATES) - seen_keys)]
    return run.report(class1_sample=run.cases - class2, class2_sample=class2,
                      warnings=warnings)


def _template_kernel(count: int) -> Callable[[int], dict | None]:
    z1 = z_term(1)
    residues = {key: (template[0], [_template_residue(template, n) for n in range(1, count + 1)])
                for key, template in INITIAL_RESIDUE_TEMPLATES.items()}

    def counterexample(u: int) -> dict | None:
        modulus, expected = residues[(u % 3, (u // 3) % 3)]
        v = _raw_branch(u, 2 if u % 3 == 1 else 1, z1)
        for n, want in enumerate(expected, 1):
            if v % modulus != want:
                return {"u": u, "n": n, "value": v, "modulus": modulus,
                        "expected": want, "observed": v % modulus}
            v = 1 + 4 * v
        return None
    return counterexample


def check_covering_templates(parent_bound: int = DEFAULT_PARENT_BOUND,
                             count: int = 8) -> VerificationReport:
    """Every parent's first `count` children must follow its residue template."""
    _require_box(parent_bound=parent_bound, count=count)
    return _over_parents("covering_templates", {"parent_bound": parent_bound, "count": count},
                         _parents_up_to(parent_bound), count, _template_kernel)


def check_initial_vertex_partition(parent_bound: int) -> VerificationReport:
    """First children split cleanly: 1 mod 8 from class-1 parents, 3 mod 4 from class-2."""
    _require_box(7, parent_bound=parent_bound)
    run = _Run("initial_vertex_partition", {"parent_bound": parent_bound})
    z1 = z_term(1)
    for u in _parents_up_to(parent_bound):
        v1 = _raw_branch(u, 2 if u % 3 == 1 else 1, z1)
        run.cases += 1
        if u % 3 == 1:
            if v1 % 8 != 1:
                return run.report({"u": u, "v1": v1, "observed_mod_8": v1 % 8})
        elif v1 % 4 != 3:
            return run.report({"u": u, "v1": v1, "observed_mod_4": v1 % 4})
    return run.report()


# The convergence sweep's step table stops growing at this many bytes,
# whatever the bound: 2^24 odd starts at 2 B each.
_STEP_TABLE_BYTES = 32 << 20


def check_convergence(bound: int, max_steps: int = DEFAULT_MAX_STEPS) -> VerificationReport:
    """Every odd start up to bound must reach 1, with each step reversible.

    For each forward step x -> y with exponent a, the start x must reappear
    as the child of y at the index the exponent implies (a = 2n for class-1
    y, a = 2n - 1 for class-2), through the raw branch kernel with the
    checked z_n.  Reports the largest step count and the largest excursion
    seen.

    Starts are swept in ascending order, and each orbit is walked and checked
    only until it drops below its start: from there on it is the orbit of an
    earlier start, whose steps were all checked, whose values were all
    counted in the excursion, and whose step count sits in a table (2 B per
    odd start, and at most 32 MB whatever the bound).  Past the table
    the orbit is stepped on, unchecked, until it lands inside it.  The first
    start whose orbit takes a step is the one that walks it, so a failed
    report names the same start and step, with the same statistics, as
    walking every orbit to 1 would.
    """
    # imported here, not at the top: only this sweep needs the array
    # extension (0.4 ms to load)
    from array import array

    _require_box(bound=bound, max_steps=max_steps)
    run = _Run("convergence", {"bound": bound, "max_steps": max_steps})
    # step counts of the starts swept so far, indexed by x >> 1 (start 1
    # takes none), grown one entry per start up to table_cap.  A count never
    # exceeds max_steps, and no orbit can be walked for the 2^32 steps that
    # would overflow "L".
    table = array("H" if max_steps < 1 << 16 else "L", [0])
    table_cap = _STEP_TABLE_BYTES // table.itemsize
    zs = [0]  # z_n at index n, grown from z_term as the exponents need
    run.cases = 1  # start 1, which takes no step
    max_len = 0
    max_peak = 1
    for x0 in range(3, bound + 1, 2):
        run.cases += 1
        x = x0
        steps = 0
        while x >= x0 and steps < max_steps:
            # f_step inlined: x is odd and positive by construction
            t = 3 * x + 1
            a = (t & -t).bit_length() - 1
            y = t >> a
            ry = y % 3
            if ry == 0 or a % 2 != (0 if ry == 1 else 1):
                return run.report({"start": x0, "x": x, "image": y, "exponent": a,
                                   "reason": "image class incompatible with exponent"},
                                  max_steps_observed=max_len, max_excursion=max_peak)
            n = (a + 1) >> 1
            if n >= len(zs):
                zs.extend(z_term(k) for k in range(len(zs), n + 1))
            if _raw_branch(y, a, zs[n]) != x:
                return run.report({"start": x0, "x": x, "image": y, "exponent": a,
                                   "branch_index": n,
                                   "reason": "reverse branch does not recover x"},
                                  max_steps_observed=max_len, max_excursion=max_peak)
            x = y
            steps += 1
            if x > max_peak:
                max_peak = x
        # below x0 the orbit is an earlier start's: checked, its values
        # counted.  Step it unchecked until it lands in the table.
        while x >> 1 >= len(table) and steps < max_steps:
            t = 3 * x + 1
            x = t >> ((t & -t).bit_length() - 1)
            steps += 1
        if x >> 1 >= len(table) or steps + table[x >> 1] > max_steps:
            from .forward import trajectory

            return run.report({"start": x0, "reason": "step budget exhausted",
                               "reached": trajectory(x0, max_steps).values[-1]},
                              max_steps_observed=max_len, max_excursion=max_peak)
        steps += table[x >> 1]
        if len(table) < table_cap:
            table.append(steps)
        if x0 > max_peak:
            max_peak = x0
        if steps > max_len:
            max_len = steps
    return run.report(max_steps_observed=max_len, max_excursion=max_peak)


# ---------------------------------------------------------------------------
# sweeps over parent ranges


def residue_cycle_sweep(parent_bound: int = DEFAULT_PARENT_BOUND,
                        count: int = DEFAULT_SIBLING_COUNT) -> VerificationReport:
    """Residue cycling for every valid parent up to the bound."""
    _require_box(parent_bound=parent_bound, count=count)
    return _over_parents("residue_cycle", {"parent_bound": parent_bound, "count": count},
                         _parents_up_to(parent_bound), count, _residue_cycle_kernel)


def multiples_sweep(parent_bound: int = DEFAULT_PARENT_BOUND,
                    count: int = DEFAULT_SIBLING_COUNT) -> VerificationReport:
    """Multiples ascent and closed-form agreement for every parent up to the bound."""
    _require_box(parent_bound=parent_bound, count=count)
    return _over_parents("multiples", {"parent_bound": parent_bound, "count": count},
                         _parents_up_to(parent_bound), count, _multiples_kernel,
                         whole_parent=True)


def closed_forms_sweep(parent_bound: int = DEFAULT_PARENT_BOUND,
                       count: int = DEFAULT_SIBLING_COUNT) -> VerificationReport:
    """Route agreement (direct / recurrence / summation) for every parent."""
    _require_box(parent_bound=parent_bound, count=count)
    return _over_parents("closed_forms", {"parent_bound": parent_bound, "count": count},
                         _parents_up_to(parent_bound), count, _closed_forms_kernel,
                         whole_parent=True)


def adjacent_initials_sweep(parent_bound: int = DEFAULT_PARENT_BOUND) -> VerificationReport:
    """Chained initial-vertex identities for every class-1 parent up to the bound.

    For u with multiple mu and its class-2 successor sibling 1 + 4u, the
    closed forms v_1(u) = 1 + 4 mu and v_1(1 + 4u) = 3 + 8 mu must equal the
    raw branches, the successor's multiple and 1 + 2 v_1(u), as in
    inverse.adjacent_initials.
    """
    _require_box(parent_bound=parent_bound)
    run = _Run("adjacent_initials", {"parent_bound": parent_bound})
    z1 = z_term(1)
    for u in range(1, parent_bound + 1, 6):  # the class-1 parents
        run.cases += 1
        v1, v1_next = 1 + 4 * (u // 3), 3 + 8 * (u // 3)
        successor = 1 + 4 * u
        if (v1 != _raw_branch(u, 2, z1) or v1 != successor // 3
                or v1_next != _raw_branch(successor, 1, z1) or v1_next != 1 + 2 * v1):
            return run.report({"u": u, "v1": v1, "v1_next": v1_next})
    return run.report()


def _gaps_kernel(count: int) -> Callable[[int], dict | None]:
    # 2^e_n for n = 1..count, per parent class
    powers = {r: [1 << (2 * n if r == 1 else 2 * n - 1) for n in range(1, count + 1)]
              for r in (1, 2)}
    z1 = z_term(1)

    def counterexample(u: int) -> dict | None:
        v = _raw_branch(u, 2 if u % 3 == 1 else 1, z1)
        for n, p in enumerate(powers[u % 3], 1):
            nxt = 1 + 4 * v
            if nxt - v != p * u:
                return {"u": u, "n": n, "expected_gap": p * u, "observed_gap": nxt - v}
            v = nxt
        return None
    return counterexample


def gaps_sweep(parent_bound: int = DEFAULT_PARENT_BOUND,
               count: int = DEFAULT_SIBLING_COUNT) -> VerificationReport:
    """Consecutive-sibling gaps must equal 2^(2n) u (class 1) / 2^(2n-1) u (class 2)."""
    _require_box(parent_bound=parent_bound, count=count)
    return _over_parents("sibling_gaps", {"parent_bound": parent_bound, "count": count},
                         _parents_up_to(parent_bound), count, _gaps_kernel)


# ---------------------------------------------------------------------------
# suites


def run_suite(name: str, *,
              parent_bound: int = DEFAULT_PARENT_BOUND,
              count: int = DEFAULT_SIBLING_COUNT,
              max_d: int = DEFAULT_MAX_OFFSET,
              partners: int = DEFAULT_PARTNERS,
              tree_depth: int = DEFAULT_TREE_DEPTH,
              tree_bound: int = DEFAULT_TREE_BOUND,
              convergence_bound: int = DEFAULT_PARENT_BOUND,
              max_steps: int = DEFAULT_MAX_STEPS,
              tree: TruncatedArborescence | None = None) -> list[VerificationReport]:
    """Run one named suite (or "all") and return its reports in order."""
    name = SUITE_ALIASES.get(name, name)
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")

    def _tree() -> TruncatedArborescence:
        nonlocal tree
        if tree is None:
            from .arbor import TruncationConfig, build

            tree = build(TruncationConfig(max_depth=tree_depth, value_bound=tree_bound))
        return tree

    wanted = SUITE_NAMES if name == "all" else (name,)
    # every box is checked before any suite runs, so a bad one wastes no sweep
    if {"residue-cycle", "multiples", "closed-forms", "gaps", "covering"} & set(wanted):
        _require_box(parent_bound=parent_bound, count=count)
    if "adjacent-initials" in wanted:
        _require_box(parent_bound=parent_bound)
    if "collision" in wanted:
        _require_box(max_d=max_d, partners=partners)
    if {"uniqueness", "covering"} & set(wanted):
        # a tree of the root alone would pass the tree checks with cases=0;
        # the root's first child is 5
        if tree is None:
            _require_box(tree_depth=tree_depth)
            _require_box(5, tree_bound=tree_bound)
        elif tree.max_depth < 1:
            raise ValueError("the tree holds only the root")
    if "covering" in wanted:
        _require_covering_depth(_tree())
    if "partition" in wanted:
        _require_box(7, parent_bound=parent_bound)
    if "convergence" in wanted:
        _require_box(bound=convergence_bound, max_steps=max_steps)

    runs = {
        "residue-cycle": lambda: [residue_cycle_sweep(parent_bound, count)],
        "multiples": lambda: [multiples_sweep(parent_bound, count)],
        "closed-forms": lambda: [closed_forms_sweep(parent_bound, count)],
        "adjacent-initials": lambda: [adjacent_initials_sweep(parent_bound)],
        "gaps": lambda: [gaps_sweep(parent_bound, count)],
        "collision": lambda: [collision_parity_sweep(max_d, partners)],
        "uniqueness": lambda: [check_uniqueness(_tree()), check_parent_pointers(_tree())],
        "covering": lambda: [check_covering_templates(parent_bound, min(count, 8)),
                             check_covering(_tree())],
        "partition": lambda: [check_initial_vertex_partition(parent_bound)],
        "convergence": lambda: [check_convergence(convergence_bound, max_steps)],
    }
    return [report for suite in wanted for report in runs[suite]()]
