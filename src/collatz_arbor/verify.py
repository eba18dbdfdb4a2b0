"""Executable checks for the structural claims behind the inverse tree.

Every check runs inside an explicit finite box (a parent bound, a sibling
count, an index offset range, a truncation config) and produces a
VerificationReport that embeds that box, so a "pass" can never be read as
more than evidence on the stated range.  A failed check always carries a
counterexample with enough data to replay it.  Each box is validated once,
at the public boundary (a check, or run_suite for the suites it runs from
its own table); the inner loops then do plain integer arithmetic.  Every
check runs through one driver, _Run, which owns its clock, its case count
and its report.
"""

from __future__ import annotations

import time
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ._record import Record
from .core import _require_box, w_term, z_term
from .defaults import (DEFAULT_MAX_NODES, DEFAULT_MAX_OFFSET, DEFAULT_MAX_STEPS,
                       DEFAULT_PARENT_BOUND, DEFAULT_PARTNERS, DEFAULT_SIBLING_COUNT,
                       DEFAULT_TREE_BOUND, DEFAULT_TREE_DEPTH, SUITE_ALIASES, SUITE_NAMES)
from .inverse import _branch, _exponent, _multiple_form, _raw_branch, _require_parent

# arbor (and forward, on the convergence sweep's failure path) are imported
# where they are used, so `verify --suite lemma1` does not compile them
if TYPE_CHECKING:
    from .arbor import TruncatedArborescence

__all__ = [
    "VerificationReport",
    "check_residue_cycle", "check_closed_forms", "check_multiples",
    "check_uniqueness", "check_parent_pointers", "check_covering", "check_convergence",
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


class _Run:
    """A check's box, clock and case count; report() closes it into its report."""

    __slots__ = ("name", "params", "t0", "cases")

    def __init__(self, name: str, params: dict) -> None:
        self.name, self.params, self.cases = name, params, 0
        self.t0 = time.perf_counter()

    def report(self, counterexample: dict | None = None, **extra) -> VerificationReport:
        """Close the run, failed exactly when it is given a counterexample."""
        stats = {"cases": self.cases, "elapsed_s": round(time.perf_counter() - self.t0, 6)}
        return VerificationReport(self.name, self.params, counterexample is None,
                                  counterexample, {**stats, **extra})


def _parents_up_to(bound: int) -> Iterator[int]:
    """Odd non-multiples of 3 up to bound (the valid parents)."""
    for u in range(1, bound + 1, 2):
        if u % 3:
            yield u


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
# per-parent kernels.  A kernel(count) builds its rows (z_n in closed forms,
# w_n in multiples) once, and returns a function of a checked parent u: the
# first counterexample among u's first `count` children, or None.  The first
# child comes from inverse._branch, the others from v_{n+1} = 1 + 4 v_n.
# A per-object check runs its kernel on one parent, and run_suite on every
# parent up to its bound.


def _residue_cycle_kernel(count: int) -> Callable[[int], dict | None]:
    def counterexample(u: int) -> dict | None:
        v = _branch(u, 1)
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


def _closed_forms_kernel(count: int) -> Callable[[int], dict | None]:
    # per parent class: (n, e_n, z_n, sum of 2^e_i for i < n), n = 1..count
    ns = range(1, count + 1)
    zs = [z_term(n) for n in ns]
    es = {r: [_exponent(r, n) for n in ns] for r in (1, 2)}
    rows = {r: list(zip(ns, es[r], zs, accumulate((1 << e for e in es[r]), initial=0)))
            for r in (1, 2)}

    def counterexample(u: int) -> dict | None:
        class_rows, m = rows[u % 3], u // 3
        v1 = rec = _branch(u, 1)
        for n, e, z, acc in class_rows:
            direct = _raw_branch(u, e)
            if direct != z + (m << e):
                _multiple_form(u, e, direct, z)  # raises the mismatch
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

    def counterexample(u: int) -> dict | None:
        # a term off its closed form first, else the first that does not ascend
        v = _branch(u, 1)
        r1, prev = v % 3, v // 3  # m_1, the multiple of v_1, is its closed form
        m = prev - 1 if r1 == 2 else prev
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
# what only run_suite runs: four per-parent kernels and the collision loop


def _adjacent_initials_kernel(count: int) -> Callable[[int], dict | None]:
    """Chained initial-vertex identities of a class-1 parent.

    For u with multiple mu and its class-2 successor sibling 1 + 4u, the
    closed forms v_1(u) = 1 + 4 mu and v_1(1 + 4u) = 3 + 8 mu must equal the
    raw branches, the successor's multiple and 1 + 2 v_1(u).
    """
    def counterexample(u: int) -> dict | None:
        v1, v1_next = 1 + 4 * (u // 3), 3 + 8 * (u // 3)
        successor = 1 + 4 * u
        if (v1 != _branch(u, 1) or v1 != successor // 3
                or v1_next != _branch(successor, 1) or v1_next != 1 + 2 * v1):
            return {"u": u, "v1": v1, "v1_next": v1_next}
        return None
    return counterexample


def _gaps_kernel(count: int) -> Callable[[int], dict | None]:
    """Consecutive-sibling gaps must equal 2^(2n) u (class 1) / 2^(2n-1) u (class 2)."""
    def counterexample(u: int) -> dict | None:
        v, gap = _branch(u, 1), u << _exponent(u, 1)  # the gap after v_n is 2^e_n u; e_n += 2
        for n in range(1, count + 1):
            nxt = 1 + 4 * v
            if nxt - v != gap:
                return {"u": u, "n": n, "expected_gap": gap, "observed_gap": nxt - v}
            v = nxt
            gap <<= 2
        return None
    return counterexample


def _partition_kernel(count: int) -> Callable[[int], dict | None]:
    """v_1 is 1 mod 8 for class-1 parents, and 3 mod 4, then u - (u div 3 + 1), for class 2."""
    def counterexample(u: int) -> dict | None:
        v1 = _branch(u, 1)
        if u % 3 == 1:
            return None if v1 % 8 == 1 else {"u": u, "v1": v1, "observed_mod_8": v1 % 8}
        if v1 % 4 != 3:
            return {"u": u, "v1": v1, "observed_mod_4": v1 % 4}
        closed = u - (u // 3 + 1)
        return None if v1 == closed else {"u": u, "v1": v1, "closed_form": closed}
    return counterexample


def _template_kernel(count: int) -> Callable[[int], dict | None]:
    """Each child v_n must sit on its parent's template residue for n (mod 24 or 12)."""
    residues = {key: (template[0], [_template_residue(template, n) for n in range(1, count + 1)])
                for key, template in INITIAL_RESIDUE_TEMPLATES.items()}

    def counterexample(u: int) -> dict | None:
        modulus, expected = residues[(u % 3, (u // 3) % 3)]
        v = _branch(u, 1)
        for n, want in enumerate(expected, 1):
            if v % modulus != want:
                return {"u": u, "n": n, "value": v, "modulus": modulus,
                        "expected": want, "observed": v % modulus}
            v = 1 + 4 * v
        return None
    return counterexample


def _collision_parity(max_d: int, partners_per_class: int) -> VerificationReport:
    """Every probe over the box must force an odd (hence impossible) multiple.

    A collision of equal children at index offset d requires the class-1
    multiple 2^(2d-1) * p + z_d with an odd partner multiple p (mixed
    classes), or 2^(2d) * p + z_d with an even one (same class).  A genuine
    class-1 multiple is even, so an odd one witnesses that the collision
    cannot happen.  For each d (z_d read once) and each odd p up to
    2 * partners_per_class, the mixed case with partner p comes first, then
    the same-class case with partner p - 1.
    """
    run = _Run("collision_parity", {"max_d": max_d, "partners_per_class": partners_per_class})
    for d in range(1, max_d + 1):
        z = z_term(d)
        mixed, same = 1 << (2 * d - 1), 1 << (2 * d)
        # the probes with partners p and p - 1 are this d's p-th and (p + 1)-th cases
        for p in range(1, 2 * partners_per_class, 2):
            required = mixed * p + z
            if required % 2 == 0:
                run.cases += p
                return run.report({"d": d, "partner_multiple": p,
                                   "same_class": False, "required_multiple": required})
            required = same * (p - 1) + z
            if required % 2 == 0:
                run.cases += p + 1
                return run.report({"d": d, "partner_multiple": p - 1,
                                   "same_class": True, "required_multiple": required})
        run.cases += 2 * partners_per_class
    return run.report()


# ---------------------------------------------------------------------------
# tree checks


def _require_depth(tree: TruncatedArborescence, least: int) -> None:
    """A tree check needs a tree that holds at least `least` levels below the root."""
    if tree.max_depth < least:
        raise ValueError(f"tree depth {tree.max_depth} is too shallow; need >= {least}")


def check_uniqueness(tree: TruncatedArborescence) -> VerificationReport:
    """Re-derive every child of every stored parent and demand distinct values.

    Independent of the build: children are recomputed by direct branch
    evaluation rather than the recurrence the builder uses.  The parents
    are stored values, odd and not multiples of 3, so the raw kernel takes
    them.  The derived children must be the values of the stored levels
    but the root's.  A kernel that repeats a value fails here or in
    check_parent_pointers, whose run order finds a repeat that leaves the
    two sets equal.  A tree of the root alone is refused: it would pass
    with no case.

    The check is one pass over the levels, failed trees included: each
    level's expandable parents derive their runs, cut at the bound and the
    cap, and every child is counted, compared with the next stored value
    of the level below and marked seen.  The marks are one bit per odd
    value up to the bound while those bits take at most max_nodes bytes,
    and a set otherwise (and for what the bits cannot hold: an even or a
    non-positive child of a faulty kernel).  A child marked before is a
    repeat; only the smallest one and its count are kept, and it is the
    report.  Without one, a tree whose children all came in order and
    used up the levels passes.  Otherwise the stored values are marked in
    a second store of the same kind, and the smallest value in one store
    and not the other is the report; a tree whose levels hold the right
    values out of order passes here and fails check_parent_pointers.  No
    count of every child is held, so a failed check costs what a passed
    one does: on the c10 tree with 7 stored again at depth 2, the check
    took 1.5 s and left peak RSS at the build's 27.8 MB, where a replayed
    Counter of every child took 3.0-3.4 s and 188.5 MB (2-core x86,
    Python 3.11.7).
    """
    from .arbor import ROOT

    _require_depth(tree, 1)
    cfg = tree.config
    run = _Run("uniqueness", {"max_depth": cfg.max_depth, "value_bound": cfg.value_bound,
                              "sibling_cap": cfg.sibling_cap})
    bound, cap = cfg.value_bound, cfg.sibling_cap
    size = bound // 16 + 1 if bound is not None and bound // 16 <= cfg.max_nodes else 0
    bits, rest = bytearray(size), set()  # the marks: odd values up to the bound, and the others
    ordered, repeat, occurrences, cases = True, None, 0, 0
    # the stored non-leaves above the depth limit, which the build expands, and the level below
    for above, below in zip(tree.levels[:cfg.max_depth], [*tree.levels[1:], ()]):
        stored = iter(below)
        for parent in above:
            if parent % 3 == 0:
                continue
            e = _exponent(parent, 2 if parent == ROOT else 1)
            last = None if cap is None else _exponent(parent, cap)
            while last is None or e <= last:
                child = _raw_branch(parent, e)
                if bound is not None and child > bound:
                    break
                cases += 1
                ordered = ordered and child == next(stored, None)
                if size and child > 0 and child & 1:
                    i, bit = child >> 4, 1 << (child >> 1 & 7)
                    again = bits[i] & bit
                    bits[i] |= bit
                else:
                    again = child in rest
                    rest.add(child)
                if again and (repeat is None or child <= repeat):
                    repeat, occurrences = child, occurrences + 1 if child == repeat else 2
                e += 2
    run.cases = cases  # every child derived
    if repeat is not None:
        return run.report({"value": repeat, "occurrences": occurrences})
    if ordered and cases == sum(map(len, tree.levels[1:])):
        return run.report()
    stored_bits, stored_rest = bytearray(size), set()
    for v in chain.from_iterable(tree.levels[1:]):  # stored values may pass the bound
        if v > 0 and v & 1 and v >> 4 < size:
            stored_bits[v >> 4] |= 1 << (v >> 1 & 7)
        else:
            stored_rest.add(v)
    off = rest ^ stored_rest
    odd = int.from_bytes(bits, "little") ^ int.from_bytes(stored_bits, "little")
    if odd:  # the lowest bit that differs; bit p stands for the odd value 2p + 1
        off.add((odd & -odd).bit_length() * 2 - 1)
    first = min(off, default=None)
    return run.report(None if first is None else
                      {"value": first, "reason": "derived child set differs from stored nodes"})


def check_parent_pointers(tree: TruncatedArborescence) -> VerificationReport:
    """Every stored value's link must be an edge from a stored parent that reproduces it.

    Over the stored levels but the root's, in order: one arbor._link call
    gives the parent and the sibling index n, the parent must be stored and
    not a leaf, and its branch of index n, through the raw branch kernel,
    must be the value.  Then the value must be the next index of its
    parent's run: each level is its parents' runs n = 1, 2, ... (2, 3, ...
    under the root), in the order of those parents in the level above, as
    the exporters read it.  The run order is looked up first: a value in
    order has its parent in the level above, so only a value out of order
    has its parent's membership derived (`parent in tree`), and its faults
    are reported in the order above.  A tree of the root alone is refused:
    it would pass with no case.
    """
    from . import arbor  # read at each run, so a patched _link is the one checked

    _require_depth(tree, 1)
    link = arbor._link
    run = _Run("parent_pointers", {"nodes": len(tree)})
    # `parent in above` walks the level above, so each run's parent must follow the last run's
    for above, level in zip(map(iter, tree.levels), tree.levels[1:]):
        run_parent, last = None, 0
        for value in level:
            run.cases += 1
            parent, n = link(value)
            in_order = (parent == run_parent and n == last + 1
                        or n == (2 if parent == arbor.ROOT else 1) and parent in above)
            if not in_order and parent not in tree:
                return run.report({"value": value, "parent": parent,
                                   "reason": "parent not stored"})
            if parent % 3 == 0:
                return run.report({"value": value, "parent": parent,
                                   "reason": f"{parent} is a leaf and has no outgoing edges"})
            if _branch(parent, n) != value:
                return run.report({"value": value, "parent": parent, "sibling_index": n})
            if not in_order:
                return run.report({"value": value, "parent": parent, "sibling_index": n,
                                   "reason": "not next in its parent's run below the level above"})
            run_parent, last = parent, n
    return run.report()


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
    statistics, not failures.  Each value of the stored levels but the
    root's takes its parent and sibling index from arbor._link.
    """
    from . import arbor  # read at each run, so a patched _link is the one checked

    _require_depth(tree, 3)
    link = arbor._link
    cfg = tree.config
    run = _Run("covering_patterns", {"max_depth": cfg.max_depth, "value_bound": cfg.value_bound})
    realized: set[int] = set()  # residues mod 12 of the class-2 children
    class2 = 0
    seen_keys: set[tuple[int, int]] = set()
    for level in tree.levels[1:]:
        for value in level:
            parent, n = link(value)
            run.cases += 1
            parent_class = parent % 3
            key = (parent_class, (parent // 3) % 3)
            seen_keys.add(key)
            template = INITIAL_RESIDUE_TEMPLATES[key]
            modulus, expected = template[0], _template_residue(template, n)
            if value % modulus != expected:
                return run.report({"value": value, "parent": parent, "sibling_index": n,
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


# The convergence sweep's step table stops growing at this many bytes,
# whatever the bound: 2^24 odd starts at 2 B each.
_STEP_TABLE_BYTES = 32 << 20


def check_convergence(bound: int, max_steps: int = DEFAULT_MAX_STEPS) -> VerificationReport:
    """Every odd start up to bound must reach 1, with each step reversible.

    For each forward step x -> y with exponent a, the start x must reappear
    as the child of y at the index the exponent implies (a = 2n for class-1
    y, a = 2n - 1 for class-2), through the raw branch kernel; the exponent
    always fits y's class, as 2^a y = 3x + 1 = 1 (mod 3).  Reports the
    largest step count and the largest excursion seen, which no start
    exceeds: x0 = 3 (mod 4) steps up to (3 x0 + 1)/2, and for x0 = 1
    (mod 4), x0 >= 5, the orbit of x0 - 2 steps up to (3 x0 - 5)/2 >= x0.

    Starts are swept in ascending order, and each orbit is walked and checked
    in one loop until it reaches 1 or a value whose step count is known: an
    earlier walk has taken the rest of it, so its steps were all checked,
    its values all counted in the excursion, and its step count sits in a
    table (2 B per odd start up to the bound, and at most 32 MB whatever the
    bound).  Each walk then fills in the count of its start and of every
    value it passed, up to the bound and as far as the table reaches, and
    the sweep counts such a start without walking it.  Below the cap every
    start under x0 is in the table, so a walk stops as soon as it drops
    below its start; past the cap it walks on, checking again steps an
    earlier start has checked.  The first start whose orbit takes a step is
    the one that first walks it, so a failed report names the same start
    and step, with the same statistics, as walking every orbit to 1 would.
    """
    # imported here, not at the top: only this sweep needs the array
    # extension (0.4 ms to load)
    from array import array

    _require_box(bound=bound, max_steps=max_steps)
    run = _Run("convergence", {"bound": bound, "max_steps": max_steps})
    # step counts indexed by x >> 1, 0 while unknown: every start >= 3 takes
    # a step, and start 1 (index 0) is below every other.  The table holds
    # the odd starts up to index `reach`, grown in place only as far as the
    # largest index filled so far.  A count never exceeds max_steps, and no
    # orbit can be walked for the 2^32 steps that would overflow "L".
    table = array("H" if max_steps < 1 << 16 else "L", [0])
    reach = min((bound - 1) >> 1, _STEP_TABLE_BYTES // table.itemsize - 1)
    size = 1  # len(table), kept as it grows
    run.cases = 1  # start 1, which takes no step
    max_len = 0
    max_peak = 1
    for x0 in range(3, bound + 1, 2):
        run.cases += 1
        if x0 >> 1 < size and table[x0 >> 1]:
            continue  # on an earlier walk, which checked and counted its orbit
        x = x0
        steps = 0
        walked = [x0 >> 1]  # the index of each value walked, in orbit order
        while steps < max_steps:
            # f_step inlined: x is odd and positive by construction
            t = 3 * x + 1
            a = (t & -t).bit_length() - 1
            y = t >> a
            if _raw_branch(y, a) != x:
                return run.report({"start": x0, "x": x, "image": y, "exponent": a,
                                   "branch_index": (a + 1) >> 1,
                                   "reason": "reverse branch does not recover x"},
                                  max_steps_observed=max_len, max_excursion=max_peak)
            x = y
            steps += 1
            if x > max_peak:
                max_peak = x
            i = x >> 1
            if x == 1 or i < size and table[i]:
                break
            walked.append(i)
        # at 1 or at a known count, unless the budget ran out first
        rest = table[x >> 1] if x >> 1 < size else 0
        if (rest == 0 and x != 1) or steps + rest > max_steps:
            from .forward import trajectory

            return run.report({"start": x0, "reason": "step budget exhausted",
                               "reached": trajectory(x0, max_steps).values[-1]},
                              max_steps_observed=max_len, max_excursion=max_peak)
        steps += rest
        if steps > max_len:
            max_len = steps
        # fill in the start and each value walked above it, as far as the
        # table reaches: the k-th value walked is `steps - k` steps from 1
        for i in walked:
            if i <= reach:
                if i >= size:
                    table.frombytes(bytes((i + 1 - size) * table.itemsize))
                    size = i + 1
                table[i] = steps
            steps -= 1
    return run.report(max_steps_observed=max_len, max_excursion=max_peak)


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
              max_nodes: int = DEFAULT_MAX_NODES) -> list[VerificationReport]:
    """Run one named suite (or "all") and return its reports in order.

    The tree checks share one tree, built in the (tree_depth, tree_bound) box
    under the node budget max_nodes: a build that overruns it raises
    CapacityError before any check runs.
    """
    name = SUITE_ALIASES.get(name, name)
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    wanted = SUITE_NAMES if name == "all" else (name,)
    # every box is checked before the tree is built or a suite runs: a bad one wastes neither
    if {"residue-cycle", "multiples", "closed-forms", "gaps", "covering"} & set(wanted):
        _require_box(parent_bound=parent_bound, count=count)
    if "adjacent-initials" in wanted:
        _require_box(parent_bound=parent_bound)
    if "collision" in wanted:
        _require_box(max_d=max_d, partners=partners)
    tree_suites = {"uniqueness", "covering"} & set(wanted)
    if tree_suites:
        # a tree of the root alone would pass the tree checks with cases=0;
        # the root's first child is 5
        _require_box(tree_depth=tree_depth, max_nodes=max_nodes)
        _require_box(5, tree_bound=tree_bound)
    if "partition" in wanted:
        _require_box(7, parent_bound=parent_bound)
    if "convergence" in wanted:
        _require_box(bound=convergence_bound, max_steps=max_steps)
    if tree_suites:
        from .arbor import TruncationConfig, build

        tree = build(TruncationConfig(max_depth=tree_depth, value_bound=tree_bound,
                                      max_nodes=max_nodes))
        if "covering" in wanted:
            _require_depth(tree, 3)

    def box(**extra) -> dict:  # a fresh parameters dict for each report
        return {"parent_bound": parent_bound, **extra}

    def valid() -> Iterator[int]:  # a fresh stream of the valid parents for each suite
        return _parents_up_to(parent_bound)

    runs = {
        "residue-cycle": lambda: [_over_parents("residue_cycle", box(count=count), valid(),
                                                count, _residue_cycle_kernel)],
        "multiples": lambda: [_over_parents("multiples", box(count=count), valid(), count,
                                            _multiples_kernel, True)],
        "closed-forms": lambda: [_over_parents("closed_forms", box(count=count), valid(), count,
                                               _closed_forms_kernel, True)],
        "adjacent-initials": lambda: [_over_parents(  # over the class-1 parents
            "adjacent_initials", box(), range(1, parent_bound + 1, 6), 1,
            _adjacent_initials_kernel, True)],
        "gaps": lambda: [_over_parents("sibling_gaps", box(count=count), valid(), count,
                                       _gaps_kernel)],
        "collision": lambda: [_collision_parity(max_d, partners)],
        "uniqueness": lambda: [check_uniqueness(tree), check_parent_pointers(tree)],
        "covering": lambda: [_over_parents("covering_templates", box(count=min(count, 8)),
                                           valid(), min(count, 8), _template_kernel),
                             check_covering(tree)],
        "partition": lambda: [_over_parents("initial_vertex_partition", box(), valid(), 1,
                                            _partition_kernel, True)],
        "convergence": lambda: [check_convergence(convergence_bound, max_steps)],
    }
    return [report for suite in wanted for report in runs[suite]()]
