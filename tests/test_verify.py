import array as array_module
import json
import tracemalloc

import pytest

import convergence_reference
import verify_reference
from verify_reference import CollisionProbe, check_collision_parity
from collatz_arbor import arbor, inverse, verify
from collatz_arbor.arbor import TruncationConfig, build
from collatz_arbor.errors import CapacityError, LeafParentError
from collatz_arbor.forward import f_step
from collatz_arbor.verify import (
    INITIAL_RESIDUE_TEMPLATES,
    VerificationReport,
    check_closed_forms,
    check_convergence,
    check_covering,
    check_multiples,
    check_parent_pointers,
    check_residue_cycle,
    check_uniqueness,
    run_suite,
)


@pytest.fixture(scope="module")
def tree_k6():
    return build(TruncationConfig(max_depth=6, value_bound=10**6))


class TestReport:
    def test_failed_report_needs_counterexample(self):
        with pytest.raises(ValueError):
            VerificationReport("x", {}, False, None, {})

    def test_as_dict_is_json_serializable(self):
        report = check_residue_cycle(5, 6)
        payload = json.dumps(report.as_dict(), sort_keys=True)
        parsed = json.loads(payload)
        assert parsed["check_name"] == "residue_cycle"
        assert parsed["passed"] is True

    def test_elapsed_can_be_excluded(self):
        report = check_residue_cycle(5, 6)
        assert "elapsed_s" in report.statistics
        assert "elapsed_s" not in report.as_dict(include_elapsed=False)["statistics"]


class TestResidueCycle:
    def test_root(self):
        assert check_residue_cycle(1, 6).passed

    def test_five(self):
        assert check_residue_cycle(5, 3).passed

    def test_seven(self):
        assert check_residue_cycle(7, 4).passed

    def test_leaf_parent(self):
        with pytest.raises(LeafParentError):
            check_residue_cycle(9, 3)

    def test_sweep(self):
        report = run_suite("residue-cycle", parent_bound=500, count=16)[0]
        assert report.passed
        assert report.statistics["cases"] == 16 * len(
            [u for u in range(1, 501, 2) if u % 3]
        )


class TestCollisionParity:
    def test_mixed_case(self):
        assert check_collision_parity(CollisionProbe(1, 1, same_class=False)) == (3, True)

    def test_same_class_minimal(self):
        assert check_collision_parity(CollisionProbe(1, 0, same_class=True)) == (1, True)

    def test_same_class_larger_offset(self):
        assert check_collision_parity(CollisionProbe(3, 4, same_class=True)) == (277, True)

    def test_parity_invalid_partner_rejected(self):
        with pytest.raises(ValueError):
            CollisionProbe(1, 2, same_class=False)  # mixed needs odd
        with pytest.raises(ValueError):
            CollisionProbe(1, 3, same_class=True)   # same-class needs even

    def test_bad_offset_rejected(self):
        with pytest.raises(ValueError):
            CollisionProbe(0, 1, same_class=False)

    def test_sweep(self):
        report = run_suite("collision", max_d=16, partners=50)[0]
        assert report.passed
        assert report.statistics["cases"] == 16 * 50 * 2


class TestClosedForms:
    def test_class_two_parent(self):
        assert check_closed_forms(11, 2).passed

    def test_root(self):
        assert check_closed_forms(1, 5).passed

    def test_larger_parent(self):
        assert check_closed_forms(85, 3).passed

    def test_leaf_parent(self):
        with pytest.raises(LeafParentError):
            check_closed_forms(9, 2)


class TestMultiplesCheck:
    def test_named_check_passes(self):
        for u in (1, 5, 7, 13):
            report = check_multiples(u, 16)
            assert report.passed

    def test_sweep(self):
        assert run_suite("multiples", parent_bound=500, count=12)[0].passed


class TestUniqueness:
    def test_small_tree(self):
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        report = check_uniqueness(tree)
        assert report.passed
        assert report.statistics["cases"] == 5  # 5, 21 at level 1; 3, 13, 53 at level 2

    def test_single_level(self):
        tree = build(TruncationConfig(max_depth=1, value_bound=400))
        assert check_uniqueness(tree).passed

    @pytest.mark.parametrize("check", [check_uniqueness, check_parent_pointers])
    @pytest.mark.parametrize("config", [
        TruncationConfig(max_depth=0, value_bound=10),
        TruncationConfig(max_depth=4, value_bound=3),  # the root's first child, 5, is cut
    ], ids=["depth-0", "bound-3"])
    def test_root_only_tree_rejected(self, check, config):
        # a tree of the root alone holds no edge, so a pass would rest on no case
        with pytest.raises(ValueError, match=r"^tree depth 0 is too shallow; need >= 1$"):
            check(build(config))

    def test_deeper_tree(self, tree_k6):
        assert check_uniqueness(tree_k6).passed

    def test_parent_pointers(self, tree_k6):
        assert check_parent_pointers(tree_k6).passed

    def test_parent_pointers_report_a_link_that_is_no_edge(self, monkeypatch):
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        # the tree derives each link; make it name 21, a stored leaf, as the
        # parent of 13
        real = arbor._link
        monkeypatch.setattr(arbor, "_link", lambda v: (21, 1) if v == 13 else real(v))
        report = check_parent_pointers(tree).as_dict(include_elapsed=False)
        assert report["counterexample"] == {
            "value": 13, "parent": 21, "reason": "21 is a leaf and has no outgoing edges"}
        assert report["statistics"]["cases"] == 4  # 5, 21, 3, then 13

    @pytest.mark.parametrize("value, link, cases", [
        (13, (5, 3), 4),  # v_3 of 5 is 53, not 13
        (53, (13, 1), 5),  # v_1 of 13 is 17, not 53
    ], ids=["13-as-v3-of-5", "53-as-v1-of-13"])
    def test_parent_pointers_report_a_wrong_sibling_index(self, monkeypatch, value, link,
                                                          cases):
        # levels [5, 21], [3, 13, 53]: the stored parent is a non-leaf, but the
        # link's index does not give the value back
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        real = arbor._link
        monkeypatch.setattr(arbor, "_link", lambda v: link if v == value else real(v))
        report = check_parent_pointers(tree).as_dict(include_elapsed=False)
        assert report["counterexample"] == {"value": value, "parent": link[0],
                                            "sibling_index": link[1]}
        assert report["statistics"]["cases"] == cases

    def test_uniqueness_suite_reports_a_repeated_vertex(self, monkeypatch):
        real = arbor._children

        def children(parents, c, table):  # 5's run starts at 21, the root's v_3
            return [21 if v == 3 else v for v in real(parents, c, table)]

        monkeypatch.setattr(arbor, "_children", children)
        uniqueness, pointers = (report.as_dict(include_elapsed=False) for report in
                                run_suite("uniqueness", tree_depth=3, tree_bound=60))
        assert (uniqueness["counterexample"], uniqueness["statistics"]["cases"]) == (
            {"value": 3, "reason": "derived child set differs from stored nodes"}, 7)
        assert (pointers["counterexample"], pointers["statistics"]["cases"]) == (
            {"value": 21, "parent": 1, "sibling_index": 3,
             "reason": "not next in its parent's run below the level above"}, 3)

    @pytest.fixture
    def stray_tree(self):
        """The (2, 60) tree with 7 stored at depth 2, whose parent f(7) = 11 is not stored."""
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        tree.levels[2].append(7)
        return tree

    def test_parent_pointers_report_a_parent_not_stored(self, stray_tree):
        report = check_parent_pointers(stray_tree).as_dict(include_elapsed=False)
        assert report["counterexample"] == {"value": 7, "parent": 11,
                                            "reason": "parent not stored"}
        assert report["statistics"]["cases"] == 6  # 5, 21, 3, 13, 53, then 7

    def test_uniqueness_reports_a_stored_value_no_parent_derives(self, stray_tree):
        report = check_uniqueness(stray_tree).as_dict(include_elapsed=False)
        assert report["counterexample"] == {
            "value": 7, "reason": "derived child set differs from stored nodes"}
        assert report["statistics"]["cases"] == 5

    @pytest.mark.parametrize("value", [8, 61, 1001, 0],
                             ids=["even", "past-the-bound", "past-the-bits", "zero"])
    def test_uniqueness_reports_a_stored_value_its_bits_cannot_hold(self, value):
        # the (2, 60) tree marks its children in 4 bytes, one bit per odd value up to 63;
        # a stored value outside them is marked in a set, and still reported
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        tree.levels[2].append(value)
        report = _same_failed_report(check_uniqueness(tree),
                                     verify_reference.reference_check_uniqueness(tree))
        assert report["counterexample"] == {
            "value": value, "reason": "derived child set differs from stored nodes"}

    @pytest.mark.parametrize("max_nodes", [10**7, 10**4], ids=["bitmap", "set"])
    def test_uniqueness_reports_the_smallest_repeat_and_its_count(self, max_nodes):
        # 5, stored at depth 1, again at depths 2 and 3: each of its children is derived
        # three times, the first, 3, the smallest
        config = TruncationConfig(max_depth=6, value_bound=10**6, max_nodes=max_nodes)
        tree = build(config)
        tree.levels[2].insert(0, 5)
        tree.levels[3].append(5)
        report = _same_failed_report(check_uniqueness(tree),
                                     verify_reference.reference_check_uniqueness(tree))
        assert report["counterexample"] == {"value": 3, "occurrences": 3}
        # 85 and 5, both at depth 1, again after the values of depth 5: 85's children
        # (113, ...) repeat first, then 5's, whose 3 is the smaller
        tree = build(config)
        tree.levels[5].extend([85, 5])
        report = _same_failed_report(check_uniqueness(tree),
                                     verify_reference.reference_check_uniqueness(tree))
        assert report["counterexample"] == {"value": 3, "occurrences": 2}

    def test_failed_uniqueness_holds_only_its_marks(self):
        # 7 stored at depth 2 of the (40, 2 * 10^6) tree: its first child 9 is derived
        # there and at depth 6.  The one pass reports it holding its 125,001-byte bitmap
        # and no count of every child
        tree = build(TruncationConfig(max_depth=40, value_bound=2 * 10**6))
        tree.levels[2].append(7)
        tracemalloc.start()
        try:
            report = check_uniqueness(tree).as_dict(include_elapsed=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report["counterexample"], report["statistics"]["cases"]) == (
            {"value": 9, "occurrences": 2}, 298_366)
        assert peak < 1_000_000

    # Each fault below keeps every value on an edge from a stored non-leaf, and the
    # stored set whole, so uniqueness passes; only the run order breaks.
    def _out_of_run_order(self, tree, value, parent, n, cases):
        assert check_uniqueness(tree).passed
        report = check_parent_pointers(tree).as_dict(include_elapsed=False)
        assert report["counterexample"] == {
            "value": value, "parent": parent, "sibling_index": n,
            "reason": "not next in its parent's run below the level above"}
        assert report["statistics"]["cases"] == cases

    def test_parent_pointers_report_a_repeated_value(self):
        # levels [5, 21], [3, 13, 53, 53]: the second 53 repeats index 3 of 5's run
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        tree.levels[2].append(53)
        self._out_of_run_order(tree, 53, 5, 3, 6)

    def test_parent_pointers_report_a_reordered_level(self):
        # levels [5, 21], [53, 13, 3]: the level opens with index 3 of 5's run, not 1
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        tree.levels[2].reverse()
        self._out_of_run_order(tree, 53, 5, 3, 3)

    def test_parent_pointers_report_a_value_at_the_wrong_depth(self):
        # leaf 9, the first child of 7 at depth 6, moved to the end of depth 3,
        # where no 7 stands above it: 9 + 33 + 78 values, then 9
        tree = build(TruncationConfig(max_depth=6, value_bound=10**6))
        assert tree.levels[6][0] == 9
        del tree.levels[6][0]
        tree.levels[3].append(9)
        assert check_covering(tree).passed
        self._out_of_run_order(tree, 9, 7, 1, 121)


class TestCovering:
    def test_root_template(self):
        modulus, first, cycle = INITIAL_RESIDUE_TEMPLATES[(1, 0)]
        assert modulus == 24 and first == 1 and cycle == (5, 21, 13)

    def test_five_template(self):
        modulus, first, cycle = INITIAL_RESIDUE_TEMPLATES[(2, 1)]
        assert modulus == 12 and first == 3 and cycle == (1, 5, 9)

    def test_templates_sweep(self):
        report = run_suite("covering", parent_bound=2000, count=8, tree_depth=3)[0]
        assert report.check_name == "covering_templates" and report.passed

    def test_tree_covering(self, tree_k6):
        report = check_covering(tree_k6)
        assert report.passed
        assert report.statistics["warnings"] == []
        assert report.statistics["class1_sample"] > 0
        assert report.statistics["class2_sample"] > 0

    def test_class1_values_avoid_three_seven_eleven(self, tree_k6):
        for level in tree_k6.levels[1:]:
            for value in level:
                if f_step(value)[0] % 3 == 1:
                    assert value % 12 not in (3, 7, 11)

    def test_shallow_tree_rejected(self):
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        with pytest.raises(ValueError, match=r"^tree depth 2 is too shallow; need >= 3$"):
            check_covering(tree)


class TestInitialVertexPartition:
    def test_passes(self):
        report = run_suite("partition", parent_bound=1000)[0]
        assert report.passed

    @pytest.mark.parametrize("u,mod,expected", [(7, 8, 1), (13, 8, 1), (5, 4, 3), (11, 4, 3)])
    def test_spot_values(self, u, mod, expected):
        assert inverse.g_branch(u, 1) % mod == expected

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            run_suite("partition", parent_bound=5)


class TestConvergence:
    def test_tiny(self):
        report = check_convergence(1)
        assert report.passed
        assert report.statistics["max_steps_observed"] == 0

    def test_up_to_nine(self):
        report = check_convergence(9)
        assert report.passed
        assert report.statistics["max_steps_observed"] == 6

    def test_budget_exhaustion_reported(self):
        # first start needing more than 3 steps is 7 (5 odd steps to reach 1)
        report = check_convergence(27, max_steps=3)
        assert not report.passed
        assert report.counterexample["reason"] == "step budget exhausted"
        assert report.counterexample["start"] == 7

    def test_statistics(self):
        report = check_convergence(100)
        assert report.passed
        assert report.statistics["max_excursion"] >= 3077  # 27's orbit climbs there


def _same_reports(bound, max_steps=10_000):
    got = check_convergence(bound, max_steps).as_dict(include_elapsed=False)
    want = convergence_reference.reference_check_convergence(bound, max_steps)
    assert got == want.as_dict(include_elapsed=False)
    return got


class TestConvergenceSweep:
    """The memoized sweep against the walk-every-orbit reference."""

    @pytest.fixture
    def wrong_step(self, monkeypatch):
        """Make the raw kernel miss the start x of the step x -> f(x)."""
        def install(x):
            bad = f_step(x)  # the raw kernel's exponent is the step's a
            real, real_form = inverse._raw_branch, inverse._multiple_form

            def faulty(u, e):
                return real(u, e) + 2 if (u, e) == bad else real(u, e)

            def form(u, e, v, z):  # the reference's g_branch lets the wrong child through
                return v if (u, e) == bad else real_form(u, e, v, z)

            monkeypatch.setattr(verify, "_raw_branch", faulty)
            monkeypatch.setattr(inverse, "_raw_branch", faulty)  # the reference's g_branch
            monkeypatch.setattr(inverse, "_multiple_form", form)
        return install

    @pytest.mark.parametrize("x", [5, 1367, 3077])
    def test_wrong_reverse_branch_gives_the_same_failed_report(self, wrong_step, x):
        # 5 is first reached by start 3, 1367 and 3077 by start 27; about a
        # thousand of the later starts up to 5000 pass through each of them
        wrong_step(x)
        report = _same_reports(5000)
        assert not report["passed"]
        assert report["counterexample"]["x"] == x
        assert report["counterexample"]["reason"] == "reverse branch does not recover x"

    def test_wrong_step_above_the_bound_is_found_on_a_walk(self, wrong_step):
        # 3077 (3 * 3077 + 1 = 9232, the top of 27's orbit) is no start below
        # 1001, and no table entry: only the walks that pass it check its step
        wrong_step(3077)
        report = _same_reports(1001)
        assert report["counterexample"]["start"] == 27
        assert report["counterexample"]["x"] == 3077
        assert report["statistics"]["cases"] == 14

    @pytest.mark.parametrize("x, start", [(1367, 27), (4997, 2463)])
    def test_wrong_step_under_a_capped_table(self, monkeypatch, wrong_step, x, start):
        # 8 entries reach start 15, so no walk above it fills anything in,
        # and each orbit that drops below its start past 15 walks on,
        # checking each step again, until it reaches 1 or lands in the
        # table; x is first walked by start
        monkeypatch.setattr(verify, "_STEP_TABLE_BYTES", 16)
        wrong_step(x)
        report = _same_reports(5000)
        assert report["counterexample"]["start"] == start
        assert report["counterexample"]["x"] == x

    @pytest.fixture
    def tables(self, monkeypatch):
        """The arrays check_convergence makes, its step table among them."""
        made = []

        class RecordedArray(array_module.array):
            def __new__(cls, *args):
                made.append(super().__new__(cls, *args))
                return made[-1]

        monkeypatch.setattr(array_module, "array", RecordedArray)
        return made

    @pytest.mark.parametrize("max_steps", [40, 150, 1 << 16])
    def test_small_table_cap_gives_the_same_reports(self, monkeypatch, tables, max_steps):
        monkeypatch.setattr(verify, "_STEP_TABLE_BYTES", 16)
        for bound in (1, 7, 17, 18, 100, 1001, 4999, 5000):
            _same_reports(bound, max_steps)
        itemsize = 2 if max_steps < 1 << 16 else tables[0].itemsize
        assert max(len(t) for t in tables) == 16 // itemsize

    def test_huge_bound_allocates_nothing_up_front(self, tables):
        # the table grows only as far as the largest index filled: start 3's
        # walk fills 3 and 5 (indices 1 and 2), 5 is skipped, 7 fails
        report = check_convergence(10**15, max_steps=3)
        assert report.counterexample == {"start": 7, "reason": "step budget exhausted",
                                         "reached": 13}
        assert [len(t) for t in tables] == [3]

    @pytest.mark.parametrize("bound, max_steps", [(0, 10), (-5, 10), (9, 0)])
    def test_empty_box_is_rejected(self, bound, max_steps):
        with pytest.raises(ValueError):
            check_convergence(bound, max_steps)


class TestSweepsAndSuites:
    def test_gaps_sweep(self):
        assert run_suite("gaps", parent_bound=500, count=12)[0].passed

    def test_adjacent_initials_sweep(self):
        assert run_suite("adjacent-initials", parent_bound=500)[0].passed

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_alias_resolution(self):
        reports = run_suite("lemma1", parent_bound=200, count=8)
        assert len(reports) == 1
        assert reports[0].check_name == "residue_cycle"

    @pytest.mark.parametrize("suite", ["uniqueness", "covering", "all"])
    def test_tree_build_keeps_to_max_nodes(self, monkeypatch, suite):
        # the default tree box holds 1,060 nodes; one fewer is refused before any check runs
        for name in ("_over_parents", "check_uniqueness", "check_covering"):
            monkeypatch.setattr(verify, name, lambda *args, **kwargs: pytest.fail("a check ran"))
        with pytest.raises(CapacityError, match="^node budget 1059 exhausted at depth 6$"):
            run_suite(suite, parent_bound=100, count=4, max_nodes=1059)

    def test_tree_suites_run_under_max_nodes(self):
        reports = run_suite("uniqueness", max_nodes=1060)
        assert [r.statistics["cases"] for r in reports] == [1059, 1059]
        assert all(r.passed for r in reports)

    def test_all_reports_pass_on_small_boxes(self):
        # the tree checks run on the default box, the tree_k6 fixture's
        reports = run_suite("all", parent_bound=500, count=12, max_d=12,
                            partners=50, convergence_bound=500)
        assert len(reports) == 12
        assert all(r.passed for r in reports)


class TestEmptyBoxes:
    """A box with no cases is rejected at the boundary, run_suite or a check, not passed.

    A suite's row gives run_suite's keyword arguments, a check's row the
    check's positional ones.
    """

    @pytest.mark.parametrize("check, args, message", [
        ("residue-cycle", {"parent_bound": 0, "count": 5}, "parent_bound must be >= 1, got 0"),
        ("residue-cycle", {"parent_bound": 10, "count": 0}, "count must be >= 1, got 0"),
        ("multiples", {"parent_bound": 10, "count": 0}, "count must be >= 1, got 0"),
        ("closed-forms", {"parent_bound": 10, "count": 0}, "count must be >= 1, got 0"),
        ("gaps", {"parent_bound": 10, "count": 0}, "count must be >= 1, got 0"),
        ("covering", {"parent_bound": 10, "count": 0}, "count must be >= 1, got 0"),
        ("adjacent-initials", {"parent_bound": 0}, "parent_bound must be >= 1, got 0"),
        ("collision", {"max_d": 0, "partners": 5}, "max_d must be >= 1, got 0"),
        ("collision", {"max_d": 5, "partners": 0}, "partners must be >= 1, got 0"),
        ("check_residue_cycle", (5, 0), "count must be >= 1, got 0"),
        ("check_closed_forms", (5, 0), "count must be >= 1, got 0"),
        ("check_multiples", (5, 0), "count must be >= 1, got 0"),
        ("uniqueness", {"max_nodes": 0}, "max_nodes must be >= 1, got 0"),
    ])
    def test_empty_box_is_rejected(self, check, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            if isinstance(args, dict):
                run_suite(check, **args)
            else:
                getattr(verify, check)(*args)

    def test_partition_box_keeps_its_floor(self):
        with pytest.raises(ValueError, match="^parent_bound must be >= 7, got 6$"):
            run_suite("partition", parent_bound=6)


def _same_failed_report(got, want):
    """The rewritten check's failed report equals the reference's, elapsed aside."""
    got, want = got.as_dict(include_elapsed=False), want.as_dict(include_elapsed=False)
    assert got == want
    assert not got["passed"]
    return got


def _branch(u, n):
    """v_n of u straight from the definition, independent of the package."""
    return ((1 << (2 * n if u % 3 == 1 else 2 * n - 1)) * u - 1) // 3


def _children_up_to(u, bound, n):
    """u's children from index n up to bound, each through the raw branch kernel as patched."""
    children = []
    while (child := verify._raw_branch(u, inverse._exponent(u, n))) <= bound:
        children.append(child)
        n += 1
    return children


class TestSweepFaults:
    """One corrupted case gives the same failed report as the reference loops."""

    @pytest.fixture
    def corrupt_branch(self, monkeypatch):
        """Corrupt the raw branch kernel at one (u, e) in verify, its oracles and inverse.

        The multiple-form check lets that child through, so the sweep under test sees it.
        """
        def install(u0, e0, corrupt):
            real, real_form = inverse._raw_branch, inverse._multiple_form

            def faulty(u, e):
                v = real(u, e)
                return corrupt(v) if (u, e) == (u0, e0) else v

            def form(u, e, v, z):
                return v if (u, e) == (u0, e0) else real_form(u, e, v, z)

            monkeypatch.setattr(verify, "_raw_branch", faulty)
            monkeypatch.setattr(inverse, "_raw_branch", faulty)
            monkeypatch.setattr(verify_reference, "_raw_branch", faulty)
            monkeypatch.setattr(verify, "_multiple_form", form)
            monkeypatch.setattr(inverse, "_multiple_form", form)
        return install

    def test_closed_forms(self, corrupt_branch):
        # parent 25 (class 1) at n = 7, exponent 14; the ninth parent
        corrupt_branch(25, 14, lambda v: v + 2)
        v7 = _branch(25, 7)
        report = _same_failed_report(run_suite("closed-forms", parent_bound=100, count=12)[0],
                                     verify_reference.reference_closed_forms_sweep(100, 12))
        assert report["check_name"] == "closed_forms"
        assert report["counterexample"] == {"u": 25, "n": 7, "direct": v7 + 2,
                                            "recurrence": v7, "summation": v7}
        assert report["statistics"]["cases"] == 9 * 12
        report = _same_failed_report(check_closed_forms(25, 12),
                                     verify_reference.reference_check_closed_forms(25, 12))
        assert report["statistics"]["cases"] == 7

    def test_multiples_mismatch(self, monkeypatch):
        # w_6 one too large: parent 1's first child 1 is class 1, so m_6
        # uses w_6 and the first parent fails at n = 6
        real = verify.w_term

        def faulty(k):
            return real(k) + 1 if k == 6 else real(k)

        monkeypatch.setattr(verify, "w_term", faulty)
        monkeypatch.setattr(verify_reference, "w_term", faulty)
        m6 = _branch(1, 6) // 3
        report = _same_failed_report(run_suite("multiples", parent_bound=100, count=12)[0],
                                     verify_reference.reference_multiples_sweep(100, 12))
        assert report["check_name"] == "multiples"
        assert report["counterexample"] == {"u": 1, "n": 6, "direct": m6, "closed_form": m6 + 1,
                                            "first_child_residue": 1}
        assert report["statistics"]["cases"] == 12
        _same_failed_report(check_multiples(7, 12),
                            verify_reference.reference_check_multiples(7, 12))

    def test_multiples_not_ascending(self, corrupt_branch):
        # parent 13's first child (exponent 2) comes out as -1: every term
        # still matches its closed form, but m_2 = m_1 = -1 does not ascend
        corrupt_branch(13, 2, lambda v: -1)
        report = _same_failed_report(run_suite("multiples", parent_bound=100, count=12)[0],
                                     verify_reference.reference_multiples_sweep(100, 12))
        assert report["counterexample"] == {"u": 13, "n": 2, "previous": -1, "term": -1,
                                            "reason": "not ascending"}
        assert report["statistics"]["cases"] == 5 * 12
        _same_failed_report(check_multiples(13, 12),
                            verify_reference.reference_check_multiples(13, 12))

    def test_multiples_mismatch_outranks_an_earlier_descent(self, monkeypatch, corrupt_branch):
        # parent 13 fails to ascend at n = 2 and, with w_6 off by one, its
        # first child's class 2 puts m_5 off its closed form: the mismatch
        # is reported, as every term is compared before any ascent
        corrupt_branch(13, 2, lambda v: -1)
        real = verify.w_term

        def faulty(k):
            return real(k) + 1 if k == 6 else real(k)

        monkeypatch.setattr(verify, "w_term", faulty)
        monkeypatch.setattr(verify_reference, "w_term", faulty)
        report = _same_failed_report(check_multiples(13, 12),
                                     verify_reference.reference_check_multiples(13, 12))
        assert (report["counterexample"]["n"], report["counterexample"]["first_child_residue"]) \
            == (5, 2)

    def test_gaps(self, corrupt_branch):
        # parent 23 (class 2, the eighth parent): its first child 3 too large
        # makes the first gap 9 too large
        corrupt_branch(23, 1, lambda v: v + 3)
        report = _same_failed_report(run_suite("gaps", parent_bound=100, count=12)[0],
                                     verify_reference.reference_gaps_sweep(100, 12))
        assert report["check_name"] == "sibling_gaps"
        assert report["counterexample"] == {"u": 23, "n": 1, "expected_gap": 46,
                                            "observed_gap": 55}
        assert report["statistics"]["cases"] == 7 * 12 + 1

    def test_residue_cycle(self, corrupt_branch):
        # parent 11's first child 7 as a float: 1 + 4v stays exact up to
        # v_26 ~ 8.3e15, then rounds to 4v, so v_27, the last child in the
        # box, repeats v_26's residue
        corrupt_branch(11, 1, float)
        report = _same_failed_report(run_suite("residue-cycle", parent_bound=100, count=27)[0],
                                     verify_reference.reference_residue_cycle_sweep(100, 27))
        assert report["check_name"] == "residue_cycle"
        assert (report["counterexample"]["u"], report["counterexample"]["n"]) == (11, 27)
        assert report["statistics"]["cases"] == 3 * 27 + 27
        _same_failed_report(check_residue_cycle(11, 27),
                            verify_reference.reference_check_residue_cycle(11, 27))

    @staticmethod
    def _skew_z3(monkeypatch, summand):
        """Make z_3 = 21 add one more to the probe whose other summand is `summand`."""
        class Skewed(int):
            def __radd__(self, other):
                return int(other) + int(self) + (other == summand)

        real = verify.z_term

        def skewed(d):
            return Skewed(real(d)) if d == 3 else real(d)

        monkeypatch.setattr(verify, "z_term", skewed)
        monkeypatch.setattr(verify_reference, "z_term", skewed)

    def test_collision(self, monkeypatch):
        # z_3 = 21 adds one to exactly one probe: d = 3, mixed class,
        # partner 7, where the other summand is 2^5 * 7 = 224
        self._skew_z3(monkeypatch, 224)
        report = _same_failed_report(run_suite("collision", max_d=5, partners=10)[0],
                                     verify_reference.reference_collision_parity_sweep(5, 10))
        assert report["counterexample"] == {"d": 3, "partner_multiple": 7, "same_class": False,
                                            "required_multiple": 246}
        assert report["statistics"]["cases"] == 2 * 2 * 10 + 2 * 3 + 1

    def test_collision_same_class(self, monkeypatch):
        # 2^6 * 6 = 384 is no mixed summand at d = 3 (those are 2^5 times an
        # odd partner), so only the same-class probe with partner 6 fails
        self._skew_z3(monkeypatch, 384)
        report = _same_failed_report(run_suite("collision", max_d=5, partners=10)[0],
                                     verify_reference.reference_collision_parity_sweep(5, 10))
        assert report["counterexample"] == {"d": 3, "partner_multiple": 6, "same_class": True,
                                            "required_multiple": 406}
        assert report["statistics"]["cases"] == 2 * 2 * 10 + 2 * 3 + 2

    def test_covering_templates(self, corrupt_branch):
        # the first child of 7 (template (1, 2): 9 mod 24) two too large;
        # 1 and 5 pass their eight children first
        corrupt_branch(7, 2, lambda v: v + 2)
        report = _same_failed_report(
            run_suite("covering", parent_bound=100, count=8, tree_depth=3)[0],
            verify_reference.reference_check_covering_templates(100, 8))
        assert report["counterexample"] == {"u": 7, "n": 1, "value": 11, "modulus": 24,
                                            "expected": 9, "observed": 11}
        assert report["statistics"]["cases"] == 2 * 8 + 1

    def test_adjacent_initials(self, corrupt_branch):
        # the first child of 7 (class 1, exponent 2) three too large: the
        # sweep's own comparison reports it, with the closed forms
        corrupt_branch(7, 2, lambda v: v + 3)
        report = _same_failed_report(run_suite("adjacent-initials", parent_bound=100)[0],
                                     verify_reference.reference_adjacent_initials_sweep(100))
        assert report["counterexample"] == {"u": 7, "v1": 9, "v1_next": 19}
        assert report["statistics"]["cases"] == 2

    def test_tree_checks(self, corrupt_branch, tree_k6):
        # v_2 of 5 (exponent 3) read as 15, which 23 also produces at depth 5
        corrupt_branch(5, 3, lambda v: 15)
        unique = _same_failed_report(check_uniqueness(tree_k6),
                                     verify_reference.reference_check_uniqueness(tree_k6))
        assert unique["counterexample"] == {"value": 15, "occurrences": 2}
        assert unique["statistics"]["cases"] == 1059
        links = check_parent_pointers(tree_k6).as_dict(include_elapsed=False)
        assert links["counterexample"] == {"value": 13, "parent": 5, "sibling_index": 2}
        assert links["statistics"]["cases"] == 9 + 2

    @pytest.mark.parametrize("max_nodes", [10**7, 1000], ids=["bitmap", "set"])
    def test_tree_checks_on_the_faulty_kernel_s_own_tree(self, corrupt_branch, max_nodes):
        # the same fault, with the levels grown by the faulty kernel itself: each stored
        # value is the next child the check derives, so only the repeat of 15 is left; the
        # seen children go to a bitmap while 10^6 // 16 <= max_nodes, else to a set
        corrupt_branch(5, 3, lambda v: 15)
        levels = [[1]]
        for _ in range(6):
            levels.append([child for u in levels[-1] if u % 3
                           for child in _children_up_to(u, 10**6, 2 if u == 1 else 1)])
        config = TruncationConfig(max_depth=6, value_bound=10**6, max_nodes=max_nodes)
        tree = arbor.TruncatedArborescence(config, levels)
        assert levels[2][:2] == [3, 15] and 15 in levels[5]
        unique = _same_failed_report(check_uniqueness(tree),
                                     verify_reference.reference_check_uniqueness(tree))
        assert unique["counterexample"] == {"value": 15, "occurrences": 2}
        assert unique["statistics"]["cases"] == len(tree) - 1

    @pytest.mark.parametrize("max_nodes", [10**7, 10**4], ids=["bitmap", "set"])
    @pytest.mark.parametrize("child", [14, -15], ids=["even", "negative"])
    def test_uniqueness_under_a_child_its_bits_cannot_hold(self, corrupt_branch, max_nodes,
                                                           child):
        # v_2 of 5 read as an even or a negative value, which no bit of the odd values up
        # to the bound stands for (14 would share 15's, the child of 23 at depth 5): the
        # report is the smaller of 13, stored and not derived, and that child
        corrupt_branch(5, 3, lambda v: child)
        tree = build(TruncationConfig(max_depth=6, value_bound=10**6, max_nodes=max_nodes))
        unique = _same_failed_report(check_uniqueness(tree),
                                     verify_reference.reference_check_uniqueness(tree))
        assert unique["counterexample"] == {
            "value": min(13, child), "reason": "derived child set differs from stored nodes"}

    def test_initial_vertex_partition(self, corrupt_branch):
        # the first child of 7 as 12, which is 4 mod 8
        corrupt_branch(7, 2, lambda v: 12)
        report = _same_failed_report(
            run_suite("partition", parent_bound=100)[0],
            verify_reference.reference_check_initial_vertex_partition(100))
        assert report["counterexample"] == {"u": 7, "v1": 12, "observed_mod_8": 4}
        assert report["statistics"]["cases"] == 3

    def test_initial_vertex_partition_closed_form(self, corrupt_branch):
        # the first child of 11 (class 2) as 11: still 3 mod 4, but off its
        # closed form 11 - (3 + 1) = 7; 1, 5 and 7 pass first
        corrupt_branch(11, 1, lambda v: 11)
        report = _same_failed_report(
            run_suite("partition", parent_bound=100)[0],
            verify_reference.reference_check_initial_vertex_partition(100))
        assert report["counterexample"] == {"u": 11, "v1": 11, "closed_form": 7}
        assert report["statistics"]["cases"] == 4

    def test_covering(self, monkeypatch, tree_k6):
        # 13, the second child of 5 (template (2, 1): 3, then 1, 5, 9 mod 12),
        # read as its third: 13 is 1 mod 12, not 5.  It is the eleventh child
        # in record order, after the root's nine and 3
        real = arbor._link
        monkeypatch.setattr(arbor, "_link",
                            lambda v: (5, 3) if v == 13 else real(v))
        report = _same_failed_report(check_covering(tree_k6),
                                     verify_reference.reference_check_covering(tree_k6))
        assert report["counterexample"] == {"value": 13, "parent": 5, "sibling_index": 3,
                                            "expected_mod": 5, "modulus": 12, "observed": 1}
        assert report["statistics"]["cases"] == 11
