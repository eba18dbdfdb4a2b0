import array as array_module
import json

import pytest

import convergence_reference
import verify_reference
from collatz_arbor import arbor, inverse, verify
from collatz_arbor.arbor import TruncationConfig, build
from collatz_arbor.errors import LeafParentError
from collatz_arbor.forward import f_step
from collatz_arbor.verify import (
    INITIAL_RESIDUE_TEMPLATES,
    CollisionProbe,
    VerificationReport,
    adjacent_initials_sweep,
    check_closed_forms,
    check_collision_parity,
    check_convergence,
    check_covering,
    check_covering_templates,
    check_initial_vertex_partition,
    check_multiples,
    check_parent_pointers,
    check_residue_cycle,
    check_uniqueness,
    collision_parity_sweep,
    gaps_sweep,
    multiples_sweep,
    residue_cycle_sweep,
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
        report = residue_cycle_sweep(500, 16)
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
        report = collision_parity_sweep(16, 50)
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
        assert multiples_sweep(500, 12).passed


class TestUniqueness:
    def test_small_tree(self):
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        report = check_uniqueness(tree)
        assert report.passed
        assert report.statistics["cases"] == 5  # 5, 21 at level 1; 3, 13, 53 at level 2

    def test_single_level(self):
        tree = build(TruncationConfig(max_depth=1, value_bound=400))
        assert check_uniqueness(tree).passed

    def test_deeper_tree(self, tree_k6):
        assert check_uniqueness(tree_k6).passed

    def test_parent_pointers(self, tree_k6):
        assert check_parent_pointers(tree_k6).passed

    def test_parent_pointers_report_a_link_that_is_no_edge(self, monkeypatch):
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        # the store derives each parent; make it derive 21 for 13, and
        # 3*13 + 1 = 40 is no multiple of 21
        real = arbor._link
        monkeypatch.setattr(arbor, "_link", lambda v: (21, 1) if v == 13 else real(v))
        report = check_parent_pointers(tree)
        assert not report.passed
        assert report.counterexample["value"] == 13
        assert report.counterexample["parent"] == 21


class TestCovering:
    def test_root_template(self):
        modulus, first, cycle = INITIAL_RESIDUE_TEMPLATES[(1, 0)]
        assert modulus == 24 and first == 1 and cycle == (5, 21, 13)

    def test_five_template(self):
        modulus, first, cycle = INITIAL_RESIDUE_TEMPLATES[(2, 1)]
        assert modulus == 12 and first == 3 and cycle == (1, 5, 9)

    def test_templates_sweep(self):
        assert check_covering_templates(2000, 8).passed

    def test_tree_covering(self, tree_k6):
        report = check_covering(tree_k6)
        assert report.passed
        assert report.statistics["warnings"] == []
        assert report.statistics["class1_sample"] > 0
        assert report.statistics["class2_sample"] > 0

    def test_class1_values_avoid_three_seven_eleven(self, tree_k6):
        for value, info in tree_k6.records():
            if info.parent is not None and info.parent % 3 == 1:
                assert value % 12 not in (3, 7, 11)

    def test_shallow_tree_rejected(self):
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        with pytest.raises(ValueError):
            check_covering(tree)


class TestInitialVertexPartition:
    def test_passes(self):
        report = check_initial_vertex_partition(1000)
        assert report.passed

    @pytest.mark.parametrize("u,mod,expected", [(7, 8, 1), (13, 8, 1), (5, 4, 3), (11, 4, 3)])
    def test_spot_values(self, u, mod, expected):
        from collatz_arbor.inverse import initial_vertex
        assert initial_vertex(u) % mod == expected

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            check_initial_vertex_partition(5)


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

    @pytest.mark.parametrize("x", [5, 1367, 3077])
    def test_wrong_reverse_branch_gives_the_same_failed_report(self, monkeypatch, x):
        # 5 is first reached by start 3, 1367 and 3077 by start 27; about a
        # thousand of the later starts up to 5000 pass through each of them
        y, a = f_step(x)
        bad = (y, a)  # the raw kernel's exponent is the step's a
        real = inverse._raw_branch

        def faulty(u, e, z):
            return real(u, e, z) + 2 if (u, e) == bad else real(u, e, z)

        monkeypatch.setattr(verify, "_raw_branch", faulty)
        monkeypatch.setattr(inverse, "_raw_branch", faulty)  # the reference's g_branch
        report = _same_reports(5000)
        assert not report["passed"]
        assert report["counterexample"]["x"] == x
        assert report["counterexample"]["reason"] == "reverse branch does not recover x"

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
        # the table grows one entry per start swept: 1, 3 and 5 pass, 7 fails
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
        assert gaps_sweep(500, 12).passed

    def test_adjacent_initials_sweep(self):
        assert adjacent_initials_sweep(500).passed

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_alias_resolution(self):
        reports = run_suite("lemma1", parent_bound=200, count=8)
        assert len(reports) == 1
        assert reports[0].check_name == "residue_cycle"

    def test_root_only_tree_is_rejected(self):
        with pytest.raises(ValueError, match="^the tree holds only the root$"):
            run_suite("uniqueness", tree=build(TruncationConfig(max_depth=0, value_bound=100)))

    def test_all_reports_pass_on_small_boxes(self, tree_k6):
        reports = run_suite("all", parent_bound=500, count=12, max_d=12,
                            partners=50, convergence_bound=500, tree=tree_k6)
        assert len(reports) == 12
        assert all(r.passed for r in reports)


class TestEmptyBoxes:
    """A box with no cases is rejected at each check's boundary, not passed."""

    @pytest.mark.parametrize("check, args, message", [
        ("residue_cycle_sweep", (0, 5), "parent_bound must be >= 1, got 0"),
        ("residue_cycle_sweep", (10, 0), "count must be >= 1, got 0"),
        ("multiples_sweep", (10, 0), "count must be >= 1, got 0"),
        ("closed_forms_sweep", (10, 0), "count must be >= 1, got 0"),
        ("gaps_sweep", (10, 0), "count must be >= 1, got 0"),
        ("check_covering_templates", (10, 0), "count must be >= 1, got 0"),
        ("adjacent_initials_sweep", (0,), "parent_bound must be >= 1, got 0"),
        ("collision_parity_sweep", (0, 5), "max_d must be >= 1, got 0"),
        ("collision_parity_sweep", (5, 0), "partners_per_class must be >= 1, got 0"),
        ("check_residue_cycle", (5, 0), "count must be >= 1, got 0"),
        ("check_closed_forms", (5, 0), "count must be >= 1, got 0"),
        ("check_multiples", (5, 0), "count must be >= 1, got 0"),
    ])
    def test_empty_box_is_rejected(self, check, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(verify, check)(*args)

    def test_partition_box_keeps_its_floor(self):
        with pytest.raises(ValueError, match="^parent_bound must be >= 7, got 6$"):
            check_initial_vertex_partition(6)


def _same_failed_report(got, want):
    """The rewritten check's failed report equals the reference's, elapsed aside."""
    got, want = got.as_dict(include_elapsed=False), want.as_dict(include_elapsed=False)
    assert got == want
    assert not got["passed"]
    return got


def _branch(u, n):
    """v_n of u straight from the definition, independent of the package."""
    return ((1 << (2 * n if u % 3 == 1 else 2 * n - 1)) * u - 1) // 3


class TestSweepFaults:
    """One corrupted case gives the same failed report as the reference loops."""

    @pytest.fixture
    def corrupt_branch(self, monkeypatch):
        """Corrupt the raw branch kernel at one (u, e) in verify, its oracles and inverse."""
        def install(u0, e0, corrupt):
            real = inverse._raw_branch

            def faulty(u, e, z):
                v = real(u, e, z)
                return corrupt(v) if (u, e) == (u0, e0) else v

            monkeypatch.setattr(verify, "_raw_branch", faulty)
            monkeypatch.setattr(inverse, "_raw_branch", faulty)
            monkeypatch.setattr(verify_reference, "_raw_branch", faulty)
        return install

    def test_closed_forms(self, corrupt_branch):
        # parent 25 (class 1) at n = 7, exponent 14; the ninth parent
        corrupt_branch(25, 14, lambda v: v + 2)
        v7 = _branch(25, 7)
        report = _same_failed_report(verify.closed_forms_sweep(100, 12),
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
        monkeypatch.setattr(inverse, "w_term", faulty)
        m6 = _branch(1, 6) // 3
        report = _same_failed_report(multiples_sweep(100, 12),
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
        report = _same_failed_report(multiples_sweep(100, 12),
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
        monkeypatch.setattr(inverse, "w_term", faulty)
        report = _same_failed_report(check_multiples(13, 12),
                                     verify_reference.reference_check_multiples(13, 12))
        assert (report["counterexample"]["n"], report["counterexample"]["first_child_residue"]) \
            == (5, 2)

    def test_gaps(self, corrupt_branch):
        # parent 23 (class 2, the eighth parent): its first child 3 too large
        # makes the first gap 9 too large
        corrupt_branch(23, 1, lambda v: v + 3)
        report = _same_failed_report(gaps_sweep(100, 12),
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
        report = _same_failed_report(residue_cycle_sweep(100, 27),
                                     verify_reference.reference_residue_cycle_sweep(100, 27))
        assert report["check_name"] == "residue_cycle"
        assert (report["counterexample"]["u"], report["counterexample"]["n"]) == (11, 27)
        assert report["statistics"]["cases"] == 3 * 27 + 27
        _same_failed_report(check_residue_cycle(11, 27),
                            verify_reference.reference_check_residue_cycle(11, 27))

    def test_collision(self, monkeypatch):
        # z_3 = 21 adds one to exactly one probe: d = 3, mixed class,
        # partner 7, where the other summand is 2^5 * 7 = 224
        class Skewed(int):
            def __radd__(self, other):
                return int(other) + int(self) + (other == 224)

        real = verify.z_term
        monkeypatch.setattr(verify, "z_term", lambda d: Skewed(real(d)) if d == 3 else real(d))
        report = _same_failed_report(collision_parity_sweep(5, 10),
                                     verify_reference.reference_collision_parity_sweep(5, 10))
        assert report["counterexample"] == {"d": 3, "partner_multiple": 7, "same_class": False,
                                            "required_multiple": 246}
        assert report["statistics"]["cases"] == 2 * 2 * 10 + 2 * 3 + 1

    def test_adjacent_initials(self, corrupt_branch):
        # the first child of 7 (class 1, exponent 2) three too large: the
        # sweep's own comparison reports it, with the closed forms
        corrupt_branch(7, 2, lambda v: v + 3)
        report = _same_failed_report(adjacent_initials_sweep(100),
                                     verify_reference.reference_adjacent_initials_sweep(100))
        assert report["counterexample"] == {"u": 7, "v1": 9, "v1_next": 19}
        assert report["statistics"]["cases"] == 2

    def test_tree_checks(self, corrupt_branch, tree_k6):
        # v_2 of 5 (exponent 3) read as 15, which 23 also produces at depth 5
        corrupt_branch(5, 3, lambda v: 15)
        unique = check_uniqueness(tree_k6).as_dict(include_elapsed=False)
        assert unique["counterexample"] == {"value": 15, "occurrences": 2}
        assert unique["statistics"]["cases"] == 1059
        links = check_parent_pointers(tree_k6).as_dict(include_elapsed=False)
        assert links["counterexample"] == {"value": 13, "parent": 5, "sibling_index": 2}
        assert links["statistics"]["cases"] == 9 + 2

    def test_initial_vertex_partition(self, corrupt_branch):
        # the first child of 7 as 12, which is 4 mod 8
        corrupt_branch(7, 2, lambda v: 12)
        report = _same_failed_report(
            check_initial_vertex_partition(100),
            verify_reference.reference_check_initial_vertex_partition(100))
        assert report["counterexample"] == {"u": 7, "v1": 12, "observed_mod_8": 4}
        assert report["statistics"]["cases"] == 3

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
