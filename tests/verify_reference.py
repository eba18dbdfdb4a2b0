"""The sweep loops as they stood before the lean rewrite: oracles for verify.

Each function here is the earlier body of the verify function it is named
after, unchanged apart from the name: every child comes from
`iter_siblings` or `g_branch`, which check their arguments on every call,
and every collision case builds a `CollisionProbe`.  The rewritten sweeps
and per-object checks in `collatz_arbor.verify` must return the same
reports, failed ones included.
"""

import time

from collatz_arbor.inverse import g_branch, iter_siblings, multiples_sequence
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
