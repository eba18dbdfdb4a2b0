"""The sweep loops as they stood before the lean rewrite: oracles for verify.

Each function here is the earlier body of the verify function it is named
after, unchanged apart from the name: every child comes from
`iter_siblings` or `g_branch`, which check their arguments on every call,
and every collision case builds a `CollisionProbe`.  The rewritten sweeps
and per-object checks in `collatz_arbor.verify` must return the same
reports, failed ones included.  The sweeps over parent ranges are now
`run_suite`'s suites (`reference_gaps_sweep` is the oracle of
`run_suite("gaps", ...)[0]`, and so on), with no public function each.

`iter_siblings`, the sibling stream that once served `inverse.siblings`,
lives here unchanged: each run starts at `g_branch` and steps by
v <- 1 + 4v, independently of the table kernel that now grows both every
tree and every `SiblingSet`, so it is the oracle of both.

`MultiplesSequence`/`multiples_sequence` and `CollisionProbe`/
`check_collision_parity`, once public helpers of the package, live here as
the multiples and collision oracles.  They read the base sequences through
this module's `z_term` and `w_term`, which a fault test patches together
with verify's.

The covering, partition and adjacent-initials checks are kept as they stood
before every check ran through one report driver: each with its own clock
and case count, and covering and partition with their post-passes over the
sets of children (class-1 children on {1, 5, 9} mod 12, no value in both
classes), which the driven checks drop as implied.  The partition and
adjacent-initials checks call the raw branch kernel through this module's
`_raw_branch`, which a fault test patches together with verify's, and pass
it no z_1 now that it is the division alone.  Covering walks the stored levels and reads each value's
parent and sibling index through `arbor._link`, looked up at each call, so
a fault test that patches the link reaches both covering checks.

`reference_check_uniqueness` is `check_uniqueness` as it stood before it
became one ordered walk over the levels: it counts every derived child in
a `Counter` and compares the counted values with a set of every stored
value.  It derives each child through `inverse._branch`, which reads the
raw branch kernel that a fault test patches.

`_finish`, once verify's report maker and now folded into its report
driver, makes every oracle's report here and in `convergence_reference`.
"""

import time
from collections import Counter
from collections.abc import Iterator
from itertools import islice

from collatz_arbor import arbor
from collatz_arbor._record import Record
from collatz_arbor.arbor import TruncatedArborescence
from collatz_arbor.core import _require_box, w_term, z_term
from collatz_arbor.inverse import _branch, _raw_branch, _require_parent, g_branch
from collatz_arbor.verify import (
    DEFAULT_MAX_OFFSET,
    DEFAULT_PARENT_BOUND,
    DEFAULT_PARTNERS,
    DEFAULT_SIBLING_COUNT,
    INITIAL_RESIDUE_TEMPLATES,
    VerificationReport,
    _parents_up_to,
    _require_depth,
    _template_residue,
)


def _finish(name: str, params: dict, passed: bool, counterexample: dict | None,
            cases: int, t0: float, **extra) -> VerificationReport:
    """The report of an oracle run: its cases, its time since t0 and its extra statistics."""
    stats = {"cases": cases, "elapsed_s": round(time.perf_counter() - t0, 6)}
    stats.update(extra)
    return VerificationReport(name, params, passed, counterexample, stats)


def iter_siblings(u: int, first_index: int = 1) -> Iterator[tuple[int, int]]:
    """Unbounded ascending stream of (n, v_n); callers impose their own stop.

    The first point is computed directly (with its internal cross-check) and
    the rest by the recurrence v_{n+1} = 1 + 4 v_n.
    """
    v = g_branch(u, first_index)
    n = first_index
    while True:
        yield n, v
        v = 1 + 4 * v
        n += 1


class MultiplesSequence(Record):
    """Multiples m_n = (v_n - v_n mod 3) / 3 of a sibling set, with the
    piecewise closed form evaluated alongside for per-term comparison.

    The closed form is selected by the first child's residue class; `matches`
    records term-by-term agreement with the direct computation rather than
    trusting the closed form blindly.
    """

    __slots__ = ("parent", "terms", "closed_form", "matches", "first_child_residue")
    parent: int
    terms: tuple[int, ...]
    closed_form: tuple[int, ...]
    matches: tuple[bool, ...]
    first_child_residue: int

    @property
    def all_match(self) -> bool:
        return all(self.matches)

    @property
    def strictly_ascending(self) -> bool:
        return all(a < b for a, b in zip(self.terms, self.terms[1:]))


def multiples_sequence(u: int, count: int) -> MultiplesSequence:
    """First `count` multiples of u's children, with closed-form comparison.

    Direct route: m_n = (v_n - r_n) / 3 for each enumerated child.  Closed
    route, keyed by r1 = v_1 mod 3 with mu the multiple of v_1 (n > 1):

        r1 == 0:  m_n = w_{n-1} + 4^(n-1) * mu
        r1 == 1:  m_n = w_n     + 4^(n-1) * mu
        r1 == 2:  m_n = w_{n+1} + 4^(n-1) * (mu - 1)

    and m_1 = mu in every class.  Disagreement is reported per term, not
    raised; callers decide what a mismatch means.
    """
    _require_parent(u)
    _require_box(count=count)
    children = [v for _, v in islice(iter_siblings(u), count)]
    terms = tuple((v - v % 3) // 3 for v in children)
    r1 = children[0] % 3
    mu = children[0] // 3
    closed = [mu]
    for n in range(2, count + 1):
        scale = 1 << (2 * (n - 1))
        if r1 == 0:
            closed.append(w_term(n - 1) + scale * mu)
        elif r1 == 1:
            closed.append(w_term(n) + scale * mu)
        else:
            closed.append(w_term(n + 1) + scale * (mu - 1))
    matches = tuple(a == b for a, b in zip(terms, closed))
    return MultiplesSequence(u, terms, tuple(closed), matches, r1)


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


def _template_for(parent: int) -> tuple[int, int, tuple[int, int, int]]:
    return INITIAL_RESIDUE_TEMPLATES[(parent % 3, (parent // 3) % 3)]


def reference_check_residue_cycle(u: int, count: int) -> VerificationReport:
    """Sibling residues mod 3 must step +1 cyclically from the first child's class."""
    t0 = time.perf_counter()
    params = {"u": u, "count": count}
    first = None
    for n, v in iter_siblings(u):
        if n > count:
            break
        if first is None:
            first = v % 3
        expected = (first + n - 1) % 3
        if v % 3 != expected:
            return _finish("residue_cycle", params, False,
                           {"u": u, "n": n, "value": v,
                            "expected_residue": expected, "observed_residue": v % 3},
                           n, t0)
    return _finish("residue_cycle", params, True, None, count, t0)


def reference_collision_parity_sweep(max_d: int = DEFAULT_MAX_OFFSET,
                                     partners_per_class: int = DEFAULT_PARTNERS) -> VerificationReport:
    """Every probe over the box must force an odd (hence impossible) multiple."""
    t0 = time.perf_counter()
    params = {"max_d": max_d, "partners_per_class": partners_per_class}
    cases = 0
    for d in range(1, max_d + 1):
        for i in range(partners_per_class):
            for same_class, partner in ((False, 2 * i + 1), (True, 2 * i)):
                probe = CollisionProbe(d, partner, same_class)
                required, is_odd = check_collision_parity(probe)
                cases += 1
                if not is_odd:
                    return _finish("collision_parity", params, False,
                                   {"d": d, "partner_multiple": partner,
                                    "same_class": same_class, "required_multiple": required},
                                   cases, t0)
    return _finish("collision_parity", params, True, None, cases, t0)


def reference_check_closed_forms(u: int, count: int) -> VerificationReport:
    """Direct division, recurrence from v_1, and partial-sum form must agree."""
    t0 = time.perf_counter()
    params = {"u": u, "count": count}
    r = u % 3
    v1 = g_branch(u, 1)
    rec = v1
    acc = 0
    for n in range(1, count + 1):
        if n > 1:
            rec = 1 + 4 * rec
            acc += 1 << (2 * (n - 1) if r == 1 else 2 * (n - 1) - 1)
        direct = g_branch(u, n)
        summed = u * acc + v1
        if not direct == rec == summed:
            return _finish("closed_forms", params, False,
                           {"u": u, "n": n, "direct": direct,
                            "recurrence": rec, "summation": summed},
                           n, t0)
    return _finish("closed_forms", params, True, None, count, t0)


def reference_check_multiples(u: int, count: int) -> VerificationReport:
    """Child multiples must ascend strictly and match their piecewise closed form."""
    t0 = time.perf_counter()
    params = {"u": u, "count": count}
    seq = multiples_sequence(u, count)
    for i, ok in enumerate(seq.matches):
        if not ok:
            return _finish("multiples", params, False,
                           {"u": u, "n": i + 1, "direct": seq.terms[i],
                            "closed_form": seq.closed_form[i],
                            "first_child_residue": seq.first_child_residue},
                           count, t0)
    for i in range(len(seq.terms) - 1):
        if not seq.terms[i] < seq.terms[i + 1]:
            return _finish("multiples", params, False,
                           {"u": u, "n": i + 2, "previous": seq.terms[i],
                            "term": seq.terms[i + 1], "reason": "not ascending"},
                           count, t0)
    return _finish("multiples", params, True, None, count, t0)


def reference_check_covering_templates(parent_bound: int = DEFAULT_PARENT_BOUND,
                                       count: int = 8) -> VerificationReport:
    """Every parent's first `count` children must follow its residue template."""
    t0 = time.perf_counter()
    params = {"parent_bound": parent_bound, "count": count}
    cases = 0
    for u in _parents_up_to(parent_bound):
        template = _template_for(u)
        modulus = template[0]
        for n, v in iter_siblings(u):
            if n > count:
                break
            cases += 1
            expected = _template_residue(template, n)
            if v % modulus != expected:
                return _finish("covering_templates", params, False,
                               {"u": u, "n": n, "value": v, "modulus": modulus,
                                "expected": expected, "observed": v % modulus},
                               cases, t0)
    return _finish("covering_templates", params, True, None, cases, t0)


def reference_residue_cycle_sweep(parent_bound: int = DEFAULT_PARENT_BOUND,
                                  count: int = DEFAULT_SIBLING_COUNT) -> VerificationReport:
    """Residue cycling for every valid parent up to the bound."""
    t0 = time.perf_counter()
    params = {"parent_bound": parent_bound, "count": count}
    cases = 0
    for u in _parents_up_to(parent_bound):
        first = None
        for n, v in iter_siblings(u):
            if n > count:
                break
            cases += 1
            if first is None:
                first = v % 3
            if v % 3 != (first + n - 1) % 3:
                return _finish("residue_cycle", params, False,
                               {"u": u, "n": n, "value": v,
                                "expected_residue": (first + n - 1) % 3,
                                "observed_residue": v % 3},
                               cases, t0)
    return _finish("residue_cycle", params, True, None, cases, t0)


def reference_multiples_sweep(parent_bound: int = DEFAULT_PARENT_BOUND,
                              count: int = DEFAULT_SIBLING_COUNT) -> VerificationReport:
    """Multiples ascent and closed-form agreement for every parent up to the bound."""
    t0 = time.perf_counter()
    params = {"parent_bound": parent_bound, "count": count}
    cases = 0
    for u in _parents_up_to(parent_bound):
        report = reference_check_multiples(u, count)
        cases += count
        if not report.passed:
            return _finish("multiples", params, False, report.counterexample, cases, t0)
    return _finish("multiples", params, True, None, cases, t0)


def reference_closed_forms_sweep(parent_bound: int = DEFAULT_PARENT_BOUND,
                                 count: int = DEFAULT_SIBLING_COUNT) -> VerificationReport:
    """Route agreement (direct / recurrence / summation) for every parent."""
    t0 = time.perf_counter()
    params = {"parent_bound": parent_bound, "count": count}
    cases = 0
    for u in _parents_up_to(parent_bound):
        report = reference_check_closed_forms(u, count)
        cases += count
        if not report.passed:
            return _finish("closed_forms", params, False, report.counterexample, cases, t0)
    return _finish("closed_forms", params, True, None, cases, t0)


def reference_gaps_sweep(parent_bound: int = DEFAULT_PARENT_BOUND,
                         count: int = DEFAULT_SIBLING_COUNT) -> VerificationReport:
    """Consecutive-sibling gaps must equal 2^(2n) u (class 1) / 2^(2n-1) u (class 2)."""
    t0 = time.perf_counter()
    params = {"parent_bound": parent_bound, "count": count}
    cases = 0
    for u in _parents_up_to(parent_bound):
        r = u % 3
        prev = None
        for n, v in iter_siblings(u):
            if n > count + 1:
                break
            if prev is not None:
                cases += 1
                gap = (1 << (2 * (n - 1))) * u if r == 1 else (1 << (2 * (n - 1) - 1)) * u
                if v - prev != gap:
                    return _finish("sibling_gaps", params, False,
                                   {"u": u, "n": n - 1, "expected_gap": gap,
                                    "observed_gap": v - prev},
                                   cases, t0)
            prev = v
    return _finish("sibling_gaps", params, True, None, cases, t0)


def reference_check_covering(tree: TruncatedArborescence) -> VerificationReport:
    """Residue-class structure of the stored tree.

    (a) children of class-1 parents only ever land on {1, 5, 9} mod 12;
    (b) children of class-2 parents realize all six odd classes mod 12
        within the sample;
    (c) every stored child sits on the residue its parent's template
        predicts for its sibling index (mod 24 for class-1 parents, mod 12
        for class-2);
    (d) the two child populations share no value.

    Parents of template keys absent from the tree are reported as warnings
    in the statistics, not failures.
    """
    _require_depth(tree, 3)
    t0 = time.perf_counter()
    cfg = tree.config
    params = {"max_depth": cfg.max_depth, "value_bound": cfg.value_bound}
    class1: set[int] = set()
    class2: set[int] = set()
    seen_keys: set[tuple[int, int]] = set()
    cases = 0
    link = arbor._link  # read at each call, so a patched _link reaches the oracle too
    for value in (v for level in tree.levels[1:] for v in level):
        parent, n = link(value)
        cases += 1
        parent_class = parent % 3
        key = (parent_class, (parent // 3) % 3)
        seen_keys.add(key)
        template = INITIAL_RESIDUE_TEMPLATES[key]
        modulus, expected = template[0], _template_residue(template, n)
        if value % modulus != expected:
            return _finish("covering_patterns", params, False,
                           {"value": value, "parent": parent,
                            "sibling_index": n,
                            "expected_mod": expected, "modulus": modulus,
                            "observed": value % modulus},
                           cases, t0)
        if parent_class == 1:
            class1.add(value)
        else:
            class2.add(value)
    bad1 = sorted(v for v in class1 if v % 12 not in (1, 5, 9))
    if bad1:
        return _finish("covering_patterns", params, False,
                       {"value": bad1[0], "observed_mod_12": bad1[0] % 12,
                        "reason": "class-1 child outside {1, 5, 9} mod 12"},
                       cases, t0)
    realized = {v % 12 for v in class2}
    if realized != {1, 3, 5, 7, 9, 11}:
        return _finish("covering_patterns", params, False,
                       {"missing_classes_mod_12": sorted({1, 3, 5, 7, 9, 11} - realized)},
                       cases, t0)
    overlap = class1 & class2
    if overlap:
        return _finish("covering_patterns", params, False,
                       {"value": min(overlap), "reason": "value in both partitions"},
                       cases, t0)
    warnings = [f"no parent with template key {key}" for key in
                sorted(set(INITIAL_RESIDUE_TEMPLATES) - seen_keys)]
    return _finish("covering_patterns", params, True, None, cases, t0,
                   class1_sample=len(class1), class2_sample=len(class2),
                   warnings=warnings)


def reference_check_initial_vertex_partition(parent_bound: int) -> VerificationReport:
    """First children split cleanly: 1 mod 8 from class-1 parents, 3 mod 4 from class-2.

    A class-2 first child that is 3 mod 4 must also be u - (u div 3 + 1).
    """
    _require_box(7, parent_bound=parent_bound)
    t0 = time.perf_counter()
    params = {"parent_bound": parent_bound}
    from_class1: set[int] = set()
    from_class2: set[int] = set()
    cases = 0
    for u in _parents_up_to(parent_bound):
        v1 = _raw_branch(u, 2 if u % 3 == 1 else 1)
        cases += 1
        if u % 3 == 1:
            if v1 % 8 != 1:
                return _finish("initial_vertex_partition", params, False,
                               {"u": u, "v1": v1, "observed_mod_8": v1 % 8},
                               cases, t0)
            from_class1.add(v1)
        else:
            if v1 % 4 != 3:
                return _finish("initial_vertex_partition", params, False,
                               {"u": u, "v1": v1, "observed_mod_4": v1 % 4},
                               cases, t0)
            if v1 != u - (u // 3 + 1):
                return _finish("initial_vertex_partition", params, False,
                               {"u": u, "v1": v1, "closed_form": u - (u // 3 + 1)},
                               cases, t0)
            from_class2.add(v1)
    overlap = from_class1 & from_class2
    if overlap:
        return _finish("initial_vertex_partition", params, False,
                       {"v1": min(overlap), "reason": "initial vertex in both forms"},
                       cases, t0)
    return _finish("initial_vertex_partition", params, True, None, cases, t0)


def reference_adjacent_initials_sweep(parent_bound: int = DEFAULT_PARENT_BOUND) -> VerificationReport:
    """Chained initial-vertex identities for every class-1 parent up to the bound.

    For u with multiple mu and its class-2 successor sibling 1 + 4u, the
    closed forms v_1(u) = 1 + 4 mu and v_1(1 + 4u) = 3 + 8 mu must equal the
    raw branches, the successor's multiple and 1 + 2 v_1(u).
    """
    _require_box(parent_bound=parent_bound)
    t0 = time.perf_counter()
    params = {"parent_bound": parent_bound}
    cases = 0
    for u in range(1, parent_bound + 1, 6):  # the class-1 parents
        cases += 1
        v1, v1_next = 1 + 4 * (u // 3), 3 + 8 * (u // 3)
        successor = 1 + 4 * u
        if (v1 != _raw_branch(u, 2) or v1 != successor // 3
                or v1_next != _raw_branch(successor, 1) or v1_next != 1 + 2 * v1):
            return _finish("adjacent_initials", params, False,
                           {"u": u, "v1": v1, "v1_next": v1_next},
                           cases, t0)
    return _finish("adjacent_initials", params, True, None, cases, t0)


def reference_check_uniqueness(tree: TruncatedArborescence) -> VerificationReport:
    """Re-derive every child of every stored parent and demand distinct values.

    Occurrences are counted rather than aborting on first repeat; the
    smallest repeated child is reported first, then the smallest value
    derived and not stored, or stored and not derived.
    """
    _require_depth(tree, 1)
    t0 = time.perf_counter()
    cfg = tree.config
    params = {"max_depth": cfg.max_depth, "value_bound": cfg.value_bound,
              "sibling_cap": cfg.sibling_cap}
    counts: Counter[int] = Counter()
    # the stored non-leaves above the depth limit, which the build expands
    for parent in (v for level in tree.levels[:cfg.max_depth] for v in level if v % 3):
        n = 2 if parent == arbor.ROOT else 1
        while cfg.sibling_cap is None or n <= cfg.sibling_cap:
            child = _branch(parent, n)
            if cfg.value_bound is not None and child > cfg.value_bound:
                break
            counts[child] += 1
            n += 1
    cases = counts.total()
    duplicate = min((v for v, c in counts.items() if c > 1), default=None)
    if duplicate is not None:
        return _finish("uniqueness", params, False,
                       {"value": duplicate, "occurrences": counts[duplicate]}, cases, t0)
    stored = {v for level in tree.levels[1:] for v in level}
    if counts.keys() != stored:
        off = sorted(counts.keys() ^ stored)
        return _finish("uniqueness", params, False,
                       {"value": off[0], "reason": "derived child set differs from stored nodes"},
                       cases, t0)
    return _finish("uniqueness", params, True, None, cases, t0)
