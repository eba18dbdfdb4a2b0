"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the box and tolerance it ran at.

Expected values tagged as oracle-derived below were computed with the
forward-orbit oracle (trajectory / trajectory_summary) and then frozen; the
checks they feed never share code with the inverse-side paths they validate.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from array import array

from collatz_arbor.arbor import TruncationConfig, build, coverage, path_to
from collatz_arbor.core import w_term, z_term
from collatz_arbor.forward import f_step, trajectory_summary
from collatz_arbor.inverse import branch_forms, g_branch, siblings
from collatz_arbor.verify import (
    check_convergence,
    check_uniqueness,
    run_suite,
)

# Oracle-derived constants for criterion 10, frozen from a forward sweep over
# all odd starts <= 10^4: the longest orbit takes 96 odd steps (start 6171)
# and the highest odd excursion is 9038141 (start 9663).
SWEEP_BOUND = 10**4
MAX_ODD_STEPS = 96
MAX_EXCURSION = 9_038_141
# sha256 of the (96, 9038141) tree's levels, frozen from the per-parent build
C10_LEVELS_SHA256 = "5912a95c81c376138b30c8425082fddf3f2cf775323fff9d6f1e476a1e783f4b"


def _passed(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS ({detail})")


def test_c01_sequence_fidelity():
    t0 = time.perf_counter()
    z = [z_term(n) for n in range(1, 6)]
    w = [w_term(n) for n in range(1, 7)]
    elapsed = time.perf_counter() - t0
    assert z == [1, 5, 21, 85, 341]
    assert w == [0, 1, 7, 28, 113, 455]
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    _passed(1, f"exact match in {elapsed * 1e6:.0f} us")


def test_c02_worked_example_fidelity():
    t0 = time.perf_counter()
    first_three = siblings(5, count=3).values()
    tree = build(TruncationConfig(max_depth=6, value_bound=100))
    nine = path_to(tree, 9)
    fifteen = path_to(tree, 15)
    descent = g_branch(29, 1)
    elapsed = time.perf_counter() - t0
    assert first_three == [3, 13, 53]
    assert nine == [1, 5, 13, 17, 11, 7, 9]
    assert fifteen == [1, 5, 53, 35, 23, 15]
    assert descent == 19
    assert elapsed < 0.010, f"took {elapsed * 1000:.3f} ms"
    _passed(2, f"exact match in {elapsed * 1000:.2f} ms")


def test_c03_inverse_forward_round_trip():
    t0 = time.perf_counter()
    failures = 0
    cases = 0
    for u in range(1, 10**4 + 1, 2):
        if u % 3 == 0:
            continue
        expected_parity = 0 if u % 3 == 1 else 1
        for n in range(1, 33):
            v = g_branch(u, n)
            back, e = f_step(v)
            cases += 1
            if back != u or e % 2 != expected_parity or e != (2 * n - (u % 3 == 2)):
                failures += 1
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _passed(3, f"{cases} round trips, zero failures, {elapsed:.2f} s")


def _random_parents(count: int, bound: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    parents = []
    while len(parents) < count:
        u = rng.randrange(1, bound + 1, 2)
        if u % 3:
            parents.append(u)
    return parents


def test_c04_four_formulation_agreement():
    parents = _random_parents(1000, 10**9, seed=20260810)
    mismatches = 0
    for u in parents:
        for n in range(1, 65):
            forms = branch_forms(u, n)
            if len(set(forms.values())) != 1:
                mismatches += 1
    assert mismatches == 0
    _passed(4, f"{len(parents) * 64} evaluations across four routes, zero mismatches")


def test_c05_residue_cycle_and_gap_forms():
    parents = _random_parents(1000, 10**9, seed=20260810)
    failures = 0
    for u in parents:
        r = u % 3
        vals = siblings(u, count=65).values()
        first = vals[0] % 3
        for i, v in enumerate(vals):
            if v % 3 != (first + i) % 3:
                failures += 1
        for n in range(1, 65):
            gap = (1 << (2 * n)) * u if r == 1 else (1 << (2 * n - 1)) * u
            if vals[n] - vals[n - 1] != gap:
                failures += 1
    assert failures == 0
    _passed(5, f"{len(parents)} parents, 64 siblings each, zero failures")


def test_c06_covering_patterns():
    templates, patterns = run_suite("covering", parent_bound=10**4, count=8,
                                    tree_depth=6, tree_bound=10**6)
    assert templates.passed, templates.counterexample
    assert patterns.passed, patterns.counterexample
    tree = build(TruncationConfig(max_depth=6, value_bound=10**6))  # the suite's tree box
    assert patterns.statistics["warnings"] == []
    # class-1 children may only land on {1, 5, 9} mod 12
    for level in tree.levels[1:]:
        for value in level:
            if f_step(value)[0] % 3 == 1:
                assert value % 12 in (1, 5, 9)
    _passed(6, f"{templates.statistics['cases']} template cases, "
               f"depth-6 tree with {len(tree)} nodes, zero violations")


def test_c07_initial_vertex_partition():
    report = run_suite("partition", parent_bound=10**5)[0]
    assert report.passed, report.counterexample
    _passed(7, f"{report.statistics['cases']} parents, forms disjoint")


def test_c08_collision_parity_witness():
    t0 = time.perf_counter()
    report = run_suite("collision", max_d=64, partners=1000)[0]
    elapsed = time.perf_counter() - t0
    assert report.passed, report.counterexample
    assert report.statistics["cases"] == 64 * 1000 * 2
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _passed(8, f"{report.statistics['cases']} probes all odd, {elapsed:.2f} s")


def test_c09_uniqueness_at_scale():
    t0 = time.perf_counter()
    tree = build(TruncationConfig(max_depth=20, value_bound=10**6))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"build took {elapsed:.2f} s"
    audit = check_uniqueness(tree)
    assert audit.passed, audit.counterexample
    _passed(9, f"{len(tree)} nodes, zero duplicates, build {elapsed:.2f} s")


def test_c10_empirical_completeness():
    t0 = time.perf_counter()
    # recompute the frozen sweep constants from the forward oracle
    max_steps = 0
    max_peak = 1
    for x in range(1, SWEEP_BOUND + 1, 2):
        summary = trajectory_summary(x)
        assert summary.converged, x
        max_steps = max(max_steps, summary.length)
        max_peak = max(max_peak, summary.peak)
    assert max_steps == MAX_ODD_STEPS
    assert max_peak == MAX_EXCURSION

    tree = build(TruncationConfig(max_depth=max_steps, value_bound=max_peak))
    report = coverage(tree, SWEEP_BOUND)
    assert report.missing == ()
    assert report.covered_count == SWEEP_BOUND // 2

    convergence = check_convergence(10**5)
    assert convergence.passed, convergence.counterexample
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f} s"
    # the tree's content, not only its size: its 97 levels in depth order,
    # as little-endian 8-byte values
    digest = hashlib.sha256()
    for level in tree.levels:
        packed = array("Q", level)
        if sys.byteorder == "big":
            packed.byteswap()
        digest.update(packed.tobytes())
    assert len(tree.levels) == 97
    assert digest.hexdigest() == C10_LEVELS_SHA256
    _passed(10, f"all odd <= {SWEEP_BOUND} reached in a (K={max_steps}, "
                f"B={max_peak}) tree of {len(tree)} nodes; "
                f"convergence swept to 10^5; {elapsed:.1f} s")


def test_c11_jsonl_determinism():
    args = [sys.executable, "-m", "collatz_arbor.cli", "tree",
            "--depth", "5", "--bound", "100000", "--format", "jsonl"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty
    json.loads(first.stdout.splitlines()[0])
    _passed(11, f"two invocations byte-identical over {len(first.stdout)} bytes")
