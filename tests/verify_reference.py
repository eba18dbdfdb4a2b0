"""The sweep loops as they stood before the lean rewrite: oracles for verify.

Each function here is the earlier body of the verify function it is named
after, unchanged apart from the name: every child comes from
`iter_siblings` or `g_branch`, which check their arguments on every call,
and every collision case builds a `CollisionProbe`.  The rewritten sweeps
and per-object checks in `collatz_arbor.verify` must return the same
reports, failed ones included.

The covering, partition and adjacent-initials checks are kept as they stood
before every check ran through one report driver: each with its own clock
and case count, and covering and partition with their post-passes over the
sets of children (class-1 children on {1, 5, 9} mod 12, no value in both
classes), which the driven checks drop as implied.  They call the raw
branch kernel through this module's `_raw_branch`, which a fault test
patches together with verify's.
"""

import time

from collatz_arbor.arbor import TruncatedArborescence
from collatz_arbor.core import z_term
from collatz_arbor.inverse import _raw_branch, g_branch, iter_siblings, multiples_sequence
from collatz_arbor.verify import (
    DEFAULT_MAX_OFFSET,
    DEFAULT_PARENT_BOUND,
    DEFAULT_PARTNERS,
    DEFAULT_SIBLING_COUNT,
    INITIAL_RESIDUE_TEMPLATES,
    CollisionProbe,
    VerificationReport,
    _finish,
    _parents_up_to,
    _require_box,
    _require_covering_depth,
    _template_residue,
    check_collision_parity,
)


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
    _require_covering_depth(tree)
    t0 = time.perf_counter()
    cfg = tree.config
    params = {"max_depth": cfg.max_depth, "value_bound": cfg.value_bound}
    class1: set[int] = set()
    class2: set[int] = set()
    seen_keys: set[tuple[int, int]] = set()
    cases = 0
    for value, info in tree.records():
        if info.parent is None:
            continue
        cases += 1
        parent_class = info.parent % 3
        key = (parent_class, (info.parent // 3) % 3)
        seen_keys.add(key)
        template = INITIAL_RESIDUE_TEMPLATES[key]
        modulus, expected = template[0], _template_residue(template, info.sibling_index)
        if value % modulus != expected:
            return _finish("covering_patterns", params, False,
                           {"value": value, "parent": info.parent,
                            "sibling_index": info.sibling_index,
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
    """First children split cleanly: 1 mod 8 from class-1 parents, 3 mod 4 from class-2."""
    _require_box(7, parent_bound=parent_bound)
    t0 = time.perf_counter()
    params = {"parent_bound": parent_bound}
    from_class1: set[int] = set()
    from_class2: set[int] = set()
    z1 = z_term(1)
    cases = 0
    for u in _parents_up_to(parent_bound):
        v1 = _raw_branch(u, 2 if u % 3 == 1 else 1, z1)
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
    raw branches, the successor's multiple and 1 + 2 v_1(u), as in
    inverse.adjacent_initials.
    """
    _require_box(parent_bound=parent_bound)
    t0 = time.perf_counter()
    params = {"parent_bound": parent_bound}
    z1 = z_term(1)
    cases = 0
    for u in range(1, parent_bound + 1, 6):  # the class-1 parents
        cases += 1
        v1, v1_next = 1 + 4 * (u // 3), 3 + 8 * (u // 3)
        successor = 1 + 4 * u
        if (v1 != _raw_branch(u, 2, z1) or v1 != successor // 3
                or v1_next != _raw_branch(successor, 1, z1) or v1_next != 1 + 2 * v1):
            return _finish("adjacent_initials", params, False,
                           {"u": u, "v1": v1, "v1_next": v1_next},
                           cases, t0)
    return _finish("adjacent_initials", params, True, None, cases, t0)
