"""The walk-every-orbit convergence sweep: the oracle for check_convergence.

It walks each odd start all the way to 1 and checks every step, with no
table; `verify.check_convergence` must return the same reports.
"""

import time

from verify_reference import _finish
from collatz_arbor.forward import DEFAULT_MAX_STEPS, f_step
from collatz_arbor.inverse import g_branch
from collatz_arbor.verify import VerificationReport


def reference_check_convergence(bound: int,
                                max_steps: int = DEFAULT_MAX_STEPS) -> VerificationReport:
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    t0 = time.perf_counter()
    params = {"bound": bound, "max_steps": max_steps}
    cases = 0
    max_len = 0
    max_peak = 1
    for x0 in range(1, bound + 1, 2):
        cases += 1
        x = x0
        steps = 0
        while x != 1:
            if steps >= max_steps:
                return _finish("convergence", params, False,
                               {"start": x0, "reason": "step budget exhausted",
                                "reached": x},
                               cases, t0,
                               max_steps_observed=max_len, max_excursion=max_peak)
            y, a = f_step(x)
            ry = y % 3
            if ry == 0 or a % 2 != (0 if ry == 1 else 1):
                return _finish("convergence", params, False,
                               {"start": x0, "x": x, "image": y, "exponent": a,
                                "reason": "image class incompatible with exponent"},
                               cases, t0,
                               max_steps_observed=max_len, max_excursion=max_peak)
            n = a // 2 if ry == 1 else (a + 1) // 2
            if g_branch(y, n) != x:
                return _finish("convergence", params, False,
                               {"start": x0, "x": x, "image": y, "exponent": a,
                                "branch_index": n,
                                "reason": "reverse branch does not recover x"},
                               cases, t0,
                               max_steps_observed=max_len, max_excursion=max_peak)
            x = y
            steps += 1
            if x > max_peak:
                max_peak = x
        if x0 > max_peak:
            max_peak = x0
        if steps > max_len:
            max_len = steps
    return _finish("convergence", params, True, None, cases, t0,
                   max_steps_observed=max_len, max_excursion=max_peak)
