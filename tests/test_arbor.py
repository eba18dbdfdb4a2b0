import io
import json
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from export_reference import reference_export

from collatz_arbor import arbor, inverse
from collatz_arbor.arbor import TruncationConfig, build, classify_edge, coverage, export, path_to
from collatz_arbor.errors import CapacityError, MissingVertexError, NonEdgeError
from collatz_arbor.forward import f_step, trajectory
from collatz_arbor.inverse import g_branch
from collatz_arbor.verify import check_parent_pointers, check_uniqueness

GOLDEN = Path(__file__).parent / "golden"


def _stored(tree):
    """Every stored value but the root, in (depth, level-position) order."""
    return [v for level in tree.levels[1:] for v in level]


def _failed(check, tree):
    """The counterexample and case count of a tree check that must fail on tree."""
    report = check(tree).as_dict(include_elapsed=False)
    assert not report["passed"]
    return report["counterexample"], report["statistics"]["cases"]


def _start_run_at(monkeypatch, parent, first, count=None):
    """Make the build kernel give parent the run first, 4 first + 1, ... within the bound.

    With count, the run stops after count values too: a cap-only box has no
    bound (c = 0) to stop it.
    """
    real = arbor._children

    def faulty(parents, c, table):
        out = []
        for u in parents:
            if u == parent:
                v, n = first, 0
                while (c == 0 or 3 * v + 1 <= c) and n != count:  # v <= B
                    out.append(v)
                    v, n = 4 * v + 1, n + 1
            else:
                out += real((u,), c, table)
        return out

    monkeypatch.setattr(arbor, "_children", faulty)


@pytest.fixture(scope="module")
def small_tree():
    return build(TruncationConfig(max_depth=2, value_bound=60))


@pytest.fixture(scope="module")
def deep_tree():
    return build(TruncationConfig(max_depth=6, value_bound=10**6))


class TestConfig:
    def test_needs_some_bound(self):
        with pytest.raises(ValueError):
            TruncationConfig()

    def test_unbounded_values_need_sibling_cap(self):
        with pytest.raises(ValueError):
            TruncationConfig(max_depth=3)
        TruncationConfig(max_depth=3, sibling_cap=4)  # fine

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": -1, "value_bound": 10},
        {"value_bound": 0},
        {"value_bound": 10, "sibling_cap": 0},
        {"value_bound": 10, "max_nodes": 0},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            TruncationConfig(**kwargs)

    @pytest.mark.parametrize("field, kwargs", [
        ("max_depth", {"max_depth": 2.5, "value_bound": 100}),
        ("max_depth", {"max_depth": True, "value_bound": 100}),
        ("value_bound", {"max_depth": 2, "value_bound": 100.5}),
        ("value_bound", {"max_depth": 2, "value_bound": "100"}),
        ("sibling_cap", {"max_depth": 2, "sibling_cap": 2.0}),
        ("max_nodes", {"value_bound": 100, "max_nodes": 1e6}),
        ("max_nodes", {"value_bound": 100, "max_nodes": None}),
    ])
    def test_type_errors_name_the_field(self, field, kwargs):
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            TruncationConfig(**kwargs)


class TestBuild:
    def test_first_level(self):
        tree = build(TruncationConfig(max_depth=1, value_bound=400))
        assert list(tree.levels[1]) == [5, 21, 85, 341]

    def test_trivial_cycle_excluded(self, deep_tree):
        assert arbor._link(1) == (None, None)
        assert 1 not in _stored(deep_tree)

    def test_bound_filtered_second_level(self, small_tree):
        # 85 and 341 exceed the bound, so only 5 contributes at depth 2
        assert list(small_tree.levels[1]) == [5, 21]
        assert list(small_tree.levels[2]) == [3, 13, 53]
        assert len(small_tree) == 6

    def test_contains_worked_path(self, deep_tree):
        for v in (5, 13, 17, 11, 7, 9):
            assert v in deep_tree
        assert 9 in deep_tree.levels[6]

    def test_root_only(self):
        tree = build(TruncationConfig(max_depth=0, value_bound=100))
        assert len(tree) == 1
        assert [list(level) for level in tree.levels] == [[1]]

    def test_node_metadata(self, small_tree):
        # derived, as the README's recipe does: depth from path_to, parent and
        # index from f_step, and the tree's own link agrees
        assert len(path_to(small_tree, 13)) - 1 == 2
        parent, a = f_step(13)
        assert (parent, (a + 1) // 2) == (5, 2) == arbor._link(13)
        assert 13 in small_tree.levels[2] and 21 in small_tree.levels[1]

    def test_leaves_have_no_children(self, deep_tree):
        leaves = {v for v in _stored(deep_tree) if v % 3 == 0}
        children_of = {arbor._link(v)[0] for v in _stored(deep_tree)}
        assert not leaves & children_of

    def test_sibling_cap(self):
        tree = build(TruncationConfig(max_depth=1, sibling_cap=3))
        assert tree.levels[1] == [5, 21]  # indices 2 and 3 from the root

    def test_capacity_budget(self):
        with pytest.raises(CapacityError):
            build(TruncationConfig(max_depth=6, value_bound=10**6, max_nodes=10))

    def test_duplicate_child_aborts_loudly(self, monkeypatch):
        # cannot happen with the real branch map, so inject a colliding stream:
        # 21 is already stored under the root.  The build stores it again, and
        # both tree checks fail with a counterexample
        _start_run_at(monkeypatch, 5, 21)
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        assert _failed(check_uniqueness, tree) == (
            {"value": 3, "reason": "derived child set differs from stored nodes"}, 5)
        assert _failed(check_parent_pointers, tree) == (
            {"value": 21, "parent": 1, "sibling_index": 3,
             "reason": "not next in its parent's run below the level above"}, 3)

    @pytest.mark.parametrize("bound,cap", [(60, None), (10**6, None), (None, 9)])
    def test_budget_admits_exactly_max_nodes(self, bound, cap):
        nodes = len(build(TruncationConfig(max_depth=3, value_bound=bound, sibling_cap=cap)))
        assert len(build(TruncationConfig(max_depth=3, value_bound=bound, sibling_cap=cap,
                                          max_nodes=nodes))) == nodes
        with pytest.raises(CapacityError):
            build(TruncationConfig(max_depth=3, value_bound=bound, sibling_cap=cap,
                                   max_nodes=nodes - 1))

    @pytest.mark.parametrize("config", [
        TruncationConfig(max_depth=2, value_bound=60),
        TruncationConfig(max_depth=2, value_bound=10**4, max_nodes=100),  # budget far below the bound
        TruncationConfig(max_depth=2, value_bound=10**4, sibling_cap=3),  # cap and bound
        TruncationConfig(max_depth=2, sibling_cap=3),  # cap only
        TruncationConfig(max_depth=2, value_bound=2**70),  # values charged by their digits
    ])
    def test_duplicate_names_both_parents(self, monkeypatch, config):
        # parent 5's stream starts at 5 itself, stored at depth 1 under the root.
        # Every box grows its levels through the one kernel, and its tree checks
        # name both parents: the repeat 5 out of its first parent 1's run, and
        # 3, the first child of its second parent 5, which the repeat displaced.
        # Uniqueness derives every child of the true tree's parents
        derived = len(build(config)) - 1
        _start_run_at(monkeypatch, 5, 5, config.sibling_cap)
        tree = build(config)
        assert g_branch(5, 1) == 3
        assert _failed(check_uniqueness, tree) == (
            {"value": 3, "reason": "derived child set differs from stored nodes"}, derived)
        counterexample, _ = _failed(check_parent_pointers, tree)
        assert counterexample == {"value": 5, "parent": 1, "sibling_index": 2,
                                  "reason": "not next in its parent's run below the level above"}

    def test_duplicate_within_one_level(self, monkeypatch):
        # parent 21 is a leaf; parent 85's stream starts at 13, which 5 also
        # produces: the second 13 follows 85's run, not 5's
        _start_run_at(monkeypatch, 85, 13)
        tree = build(TruncationConfig(max_depth=2, value_bound=400))
        assert _failed(check_uniqueness, tree) == (
            {"value": 113, "reason": "derived child set differs from stored nodes"}, 10)
        assert _failed(check_parent_pointers, tree) == (
            {"value": 13, "parent": 5, "sibling_index": 2,
             "reason": "not next in its parent's run below the level above"}, 9)

    @pytest.mark.parametrize("config,store", [
        (TruncationConfig(max_depth=3, value_bound=1600, max_nodes=100), "bitmap"),
        (TruncationConfig(max_depth=3, value_bound=1616, max_nodes=100), "set"),
        (TruncationConfig(max_depth=3, sibling_cap=2), "set"),
    ])
    def test_bitmap_never_outgrows_the_budget(self, config, store):
        # the boxes where membership was once kept in a bitmap (value_bound //
        # 16 <= max_nodes) or a set: either way the tree now holds its levels
        # alone, answers `in` from the orbit, and stays within 48 B a budget node
        bitmap = config.value_bound is not None and config.value_bound // 16 <= config.max_nodes
        assert ("bitmap" if bitmap else "set") == store
        tracemalloc.start()
        try:
            tree = build(config)
            stored = _stored(tree)
            assert all(v in tree for v in stored) and 27 not in tree
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(tree.__slots__) == {"config", "levels", "_nodes"}
        assert len(stored) == len(set(stored)) == len(tree) - 1
        assert peak <= 48 * config.max_nodes

    def test_tree_memory_is_flat_in_the_bound(self):
        # nothing is kept per odd value up to the bound: the same 162-node tree
        # costs the same bytes, membership and path reads included, whether
        # its bound is below 16 times the budget (1,600,000) or far above it
        peaks = set()
        for bound in (1_529_541, 1_600_000, 1_600_016, 10**9, 2**32 - 1):
            config = TruncationConfig(max_depth=14, value_bound=bound, sibling_cap=2,
                                      max_nodes=100_000)
            tracemalloc.start()
            try:
                tree = build(config)
                stored = _stored(tree)
                assert all(v in tree for v in stored)
                assert path_to(tree, stored[-1])[-1] == stored[-1]
                peaks.add(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(tree) == 162 and max(stored) == 1_529_541
        assert max(peaks) - min(peaks) <= 1024

    def test_capped_run_stops_at_the_budget(self):
        # 20000 capped children of the root would hold ~50 MB of ints.  The
        # build grows a chunk of at most 1 + room // width parents, here the
        # root alone; its values pass 2^60, so _charge prices the chunk's
        # 20000 children before it is grown, and the build raises holding none
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build(TruncationConfig(max_depth=1, sibling_cap=20_000, max_nodes=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("cap, max_nodes, fits", [(5_000, 6_000, False), (2_000, 20_000, True)])
    def test_capped_budget_bounds_bytes(self, cap, max_nodes, fits):
        # the k-th capped sibling has about 2k bits, so 5,000 of them hold
        # 4.2 MB: the budget charges their digits, and holds at ~40 B a node
        tracemalloc.start()
        try:
            try:
                tree = build(TruncationConfig(max_depth=1, sibling_cap=cap, max_nodes=max_nodes))
            except CapacityError:
                tree = None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tree is not None) == fits
        if fits:
            assert len(tree) == cap  # the root and its children 2..cap
        assert peak <= 48 * max_nodes

    def test_cap_only_box_is_charged_one_node_a_value(self):
        # values below 2^60 are charged one node each and nothing more: this
        # cap-only box fills its 6,237 nodes at depth 7
        config = TruncationConfig(max_depth=8, sibling_cap=6, max_nodes=6237)
        with pytest.raises(CapacityError, match="^node budget 6237 exhausted at depth 7$"):
            build(config)

    def test_run_charge_closed_form(self):
        # sibling j of a run from a b-bit value has b + 2j bits; each 30-bit
        # digit past two is charged as a tenth of a node
        for b in range(1, 130):
            for m in range(0, 100):
                digits = sum(max(0, -(-(b + 2 * j) // 30) - 2) for j in range(m))
                assert inverse._extra_digits(b, m) == digits
        assert inverse._extra_digits(3, 29) == 0  # values below 2^61 cost one node each

    def test_store_bytes_per_node(self):
        # the bound list levels met (one int and one list slot a node, ~41 B);
        # no value -> parent dict is kept.  The typed levels of this box meet
        # a tighter bound, below.
        tracemalloc.start()
        try:
            tree = build(TruncationConfig(max_depth=40, value_bound=2 * 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree) == 298_358
        assert peak <= 48 * len(tree)

    def test_typed_store_bytes_per_node(self):
        # array('I') levels: 4 B a node, plus the two levels the build holds
        # as lists; membership and path reads keep nothing
        tracemalloc.start()
        try:
            tree = build(TruncationConfig(max_depth=40, value_bound=2 * 10**6))
            assert 9 in tree and path_to(tree, 9) == [1, 5, 13, 17, 11, 7, 9]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree) == 298_358
        assert peak <= 8 * len(tree)

    def test_membership_reads_keep_to_the_budget(self):
        # a bound far above the budget: `in` and path_to walk the orbit and
        # keep no store, so the tree and its reads stay within 48 B a budget node
        config = TruncationConfig(max_depth=6, value_bound=10**9, max_nodes=14_226)
        tracemalloc.start()
        try:
            tree = build(config)
            value = tree.levels[6][0]
            assert value in tree and path_to(tree, value)[-1] == value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree) == 7113
        assert peak <= 48 * config.max_nodes

    @pytest.mark.parametrize("config,typecode", [
        (TruncationConfig(max_depth=3, value_bound=10**6), "I"),
        (TruncationConfig(max_depth=2, value_bound=2**32 - 1), "I"),
        (TruncationConfig(max_depth=2, value_bound=2**32), "Q"),
        (TruncationConfig(max_depth=2, value_bound=2**64 - 1), "Q"),
        (TruncationConfig(max_depth=2, value_bound=2**64), None),
        (TruncationConfig(max_depth=3, sibling_cap=5), None),
    ])
    def test_levels_are_typed_exactly_below_2_64(self, config, typecode):
        # the narrowest code whose items hold the bound: 'I' below 2^32, 'Q'
        # below 2^64, exact lists otherwise
        levels = build(config).levels
        if typecode is None:
            assert {type(level) for level in levels} == {list}
        else:
            assert {(type(level), level.typecode) for level in levels} == {(array, typecode)}

    def test_capped_values_past_2_64_stay_exact(self):
        # the root's children v_n = (4^n - 1)/3 for n = 2..40 reach 2^78
        tree = build(TruncationConfig(max_depth=1, sibling_cap=40))
        assert type(tree.levels[1]) is list
        assert tree.levels[1] == [(4**n - 1) // 3 for n in range(2, 41)]
        assert tree.levels[1][-1] > 2**64
        assert all(type(v) is int for v in tree.levels[1])

    def test_inert_cap_builds_the_uncapped_levels(self):
        # no parent of this box has 64 children within the bound, so the cap
        # cuts no row of the kernel's table
        box = {"max_depth": 40, "value_bound": 2 * 10**6}
        capped = build(TruncationConfig(**box, sibling_cap=64))
        assert capped.levels == build(TruncationConfig(**box)).levels

    def test_kernel_table_grows_with_the_bounds_bit_length(self):
        # one range of exponents an entry: a table of tuples would hold the
        # exponents of every column, 195 MB for a 3,322-bit bound
        tracemalloc.start()
        try:
            tree = build(TruncationConfig(max_depth=1, value_bound=10**1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree) == 1661
        assert peak <= 2 * 10**6

    @pytest.mark.parametrize("c,cap", [(3 * 10**1000 + 1, None), (3 * 10**6 + 1, None),
                                       (3 * 10**6 + 1, 5), (0, 4)],
                             ids=["bound-1e1000", "bound-1e6", "bound-1e6-cap-5", "cap-4"])
    def test_kernel_table_holds_each_distinct_range_once(self, c, cap):
        # columns 2k + 1 and 2k + 2 of a row list the same exponents, as do
        # the columns a cap clamps, and every row has empty ranges
        entries = [r for row in inverse._kernel_table(c, cap) for r in row]
        assert len({id(r) for r in entries}) == len(set(entries))

    def test_bounded_run_past_2_60_is_charged_by_its_digits(self):
        # the root's children 5, 21, ..., (4^100 - 1)/3 all lie below 2^200:
        # 99 values of up to 7 digits, charged as a capped run of 99 is
        charge = 1 + 99 + -(-inverse._extra_digits(3, 99) // 10)
        assert charge > 100
        box = {"max_depth": 1, "value_bound": 2**200}
        assert len(build(TruncationConfig(**box, max_nodes=charge))) == 100
        with pytest.raises(CapacityError):
            build(TruncationConfig(**box, max_nodes=charge - 1))

    @pytest.mark.parametrize("bound", [10**12, 10**60])
    def test_budget_bounds_bytes_on_wide_bounds(self, bound):
        # a bound far above 16 times the budget, with 'Q' levels (10^12) or
        # exact ints charged by their digits (10^60): the budget holds bytes
        # to 48 B a node here too
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build(TruncationConfig(max_depth=30, value_bound=bound, max_nodes=100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 100_000

    @pytest.mark.parametrize("config, per_node", [
        (TruncationConfig(max_depth=40, value_bound=2 * 10**6, max_nodes=150_000), 20),
        (TruncationConfig(max_depth=30, value_bound=10**12, max_nodes=1_000), 100),
    ])
    def test_mid_level_overrun_bounds_bytes(self, config, per_node):
        # the budget trips partway through a level of a bounded box; each
        # chunk of parents is sized to the room left, so the level overshoots
        # the budget by at most one parent's run
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_node * config.max_nodes

    def test_depth_bookkeeping_of_late_initial_vertices(self, deep_tree):
        # with the root at depth 0: 29 enters at depth 5 and its first child
        # 19 at depth 6
        assert 29 in deep_tree.levels[5]
        assert 19 in deep_tree.levels[6]
        assert arbor._link(19) == (29, 1)

    def test_parent_links_rederive(self, deep_tree):
        for value in _stored(deep_tree):
            assert g_branch(*arbor._link(value)) == value

    def test_indegree_contract(self, deep_tree):
        # node store keys are unique by construction; every non-root has
        # exactly one stored parent, the root none
        assert arbor._link(1) == (None, None)
        for value in _stored(deep_tree):
            assert arbor._link(value)[0] in deep_tree

    def test_at_most_one_leaf_per_path_and_only_terminal(self, deep_tree):
        for value in _stored(deep_tree):
            if value % 3 == 0:
                continue
            # a non-leaf interior vertex never sits below a leaf
            parent = arbor._link(value)[0]
            while parent is not None:
                assert parent in deep_tree and parent % 3
                parent = arbor._link(parent)[0]


class TestPath:
    def test_path_to_nine(self, deep_tree):
        assert path_to(deep_tree, 9) == [1, 5, 13, 17, 11, 7, 9]

    def test_path_to_fifteen(self, deep_tree):
        assert path_to(deep_tree, 15) == [1, 5, 53, 35, 23, 15]

    def test_path_to_root(self, deep_tree):
        assert path_to(deep_tree, 1) == [1]

    def test_absent_target(self, small_tree):
        with pytest.raises(MissingVertexError):
            path_to(small_tree, 9)

    def test_every_stored_path_reverses_its_orbit(self, small_tree):
        for value in [1, *_stored(small_tree)]:
            path = path_to(small_tree, value)
            assert path == list(reversed(trajectory(value).values))

    def test_path_through_an_ancestor_out_of_the_box_is_missing(self):
        # 9699 reaches 1 in three steps through 14549, above the bound, and 85
        # is the root's child of index 4, past the cap: neither is stored
        tree = build(TruncationConfig(max_depth=6, value_bound=10**4))
        assert trajectory(9699).values == (9699, 14549, 341, 1)
        assert 9699 not in tree and 341 in tree
        with pytest.raises(MissingVertexError):
            path_to(tree, 9699)
        capped = build(TruncationConfig(max_depth=6, value_bound=10**4, sibling_cap=3))
        assert arbor._link(85) == (1, 4)
        assert 85 not in capped and 21 in capped
        with pytest.raises(MissingVertexError):
            path_to(capped, 85)
        assert path_to(capped, 21) == [1, 21]

    def test_path_longer_than_the_tree_is_missing(self):
        # the orbit of 27 takes 41 steps within the bound, and 49 is a value of
        # depth 7: a depth-6 tree holds neither
        tree = build(TruncationConfig(max_depth=6, value_bound=10**4))
        assert max(trajectory(27).values) < 10**4
        assert 49 in build(TruncationConfig(max_depth=7, value_bound=10**4)).levels[7]
        for value in (27, 49):
            assert value not in tree
            with pytest.raises(MissingVertexError):
                path_to(tree, value)
        assert path_to(tree, 9) == [1, 5, 13, 17, 11, 7, 9]


class TestClassifyEdge:
    def test_ascending_initial_edge(self):
        assert classify_edge(7, 9) == "ascending"

    def test_descending_initial_edge(self):
        assert classify_edge(5, 3) == "descending"

    def test_later_children_ascend_regardless_of_class(self):
        assert classify_edge(5, 13) == "ascending"

    def test_trivial_self_edge_is_lateral(self):
        assert classify_edge(1, 1) == "lateral"

    def test_non_edges_rejected(self):
        with pytest.raises(NonEdgeError):
            classify_edge(5, 7)
        with pytest.raises(NonEdgeError):
            classify_edge(9, 7)   # leaf parent
        with pytest.raises(NonEdgeError):
            classify_edge(7, 13)  # 40 = 8*5, wrong parent

    def test_quotient_must_be_a_power_of_two(self):
        # 3*23 + 1 = 70 = 14 * 5
        with pytest.raises(NonEdgeError, match="not a power of two"):
            classify_edge(5, 23)

    def test_exponent_recovered_from_power_of_two_quotient(self):
        # 3*53+1 = 160 = 2^5 * 5: index 3 of class-2 parent 5
        assert classify_edge(5, 53) == "ascending"

    def test_even_endpoints_rejected(self):
        with pytest.raises(ValueError):
            classify_edge(53, 140)
        with pytest.raises(ValueError):
            classify_edge(8, 5)

    def test_direction_rule_over_tree(self, deep_tree):
        for value in _stored(deep_tree):
            parent, n = arbor._link(value)
            if parent == 1:
                continue
            kind = classify_edge(parent, value)
            if n == 1:
                expected = "ascending" if parent % 3 == 1 else "descending"
                assert kind == expected
            else:
                assert kind == "ascending"


class TestCoverage:
    def test_small_window(self, small_tree):
        report = coverage(small_tree, 25)
        assert report.covered_count == 5
        for v in (1, 3, 5, 13, 21):
            assert v in report.first_depth
        assert report.missing == (7, 9, 11, 15, 17, 19, 23, 25)

    def test_gap_values_reached_at_depth_six(self, deep_tree):
        report = coverage(deep_tree, 21)
        for v in (7, 9, 11, 15, 17):
            assert v in report.first_depth

    def test_first_depth(self, deep_tree):
        report = coverage(deep_tree, 21)
        assert report.first_depth[1] == 0
        assert report.first_depth[5] == 1
        assert report.first_depth[9] == 6

    def test_level_sizes_count_window_values(self, small_tree):
        report = coverage(small_tree, 25)
        assert report.level_sizes == {0: 1, 1: 2, 2: 2}

    def test_partition_invariant(self, small_tree):
        report = coverage(small_tree, 60)
        covered = {x for x in range(1, 61, 2) if x in report.first_depth}
        assert len(covered) == report.covered_count
        assert covered | set(report.missing) == set(range(1, 61, 2))
        assert not covered & set(report.missing)
        # even values, 0, negative values, values past the window and non-ints
        for x in (*range(-61, 1), *range(2, 62, 2), 61, 63, 9.0, 5.0, "5", None):
            assert x not in report.first_depth
        # `in` agrees with the plain dict on covered, missing, even, 0,
        # negative, past-window and non-int keys (a float equal to a covered
        # value is the one key a dict would take and the table does not)
        plain = dict(report.first_depth)
        keys = (*range(-61, 64), 10**30 + 1, "5", None, (5,))
        assert [k in report.first_depth for k in keys] == [k in plain for k in keys]

    @pytest.mark.parametrize("bound", [True, 10.5, "21", None])
    def test_bound_must_be_an_int(self, small_tree, bound):
        with pytest.raises(TypeError, match="bound must be an int"):
            coverage(small_tree, bound)

    def test_first_depth_is_a_read_only_mapping_by_ascending_value(self, deep_tree):
        first_depth = coverage(deep_tree, 21).first_depth
        assert list(first_depth) == list(range(1, 22, 2))  # six levels cover them all
        assert list(first_depth.items()) == [(v, first_depth[v]) for v in first_depth]
        assert len(first_depth) == 11 and 23 not in first_depth and 9.0 not in first_depth
        for absent in (4, 0, -1, 23, 9.0):
            with pytest.raises(KeyError):
                first_depth[absent]
        with pytest.raises(TypeError):
            first_depth[5] = 1

    def test_peak_bytes_on_a_wide_window(self):
        # the depth-40, 2e6 tree's window of 250,000 odd values, 117,839 of
        # them covered: a dict of first depths peaked at 14.2 MB, a table of
        # one byte a value at 6.3 MB (mostly the missing tuple)
        tree = build(TruncationConfig(max_depth=40, value_bound=2 * 10**6))
        tracemalloc.start()
        try:
            report = coverage(tree, 5 * 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.covered_count, len(report.missing)) == (117_839, 132_161)
        assert peak < 10_000_000

    def test_window_may_not_exceed_tree_bound(self, small_tree):
        with pytest.raises(ValueError):
            coverage(small_tree, 100)

    def test_missing_list_is_charged_to_the_budget(self):
        # 25 odd values, 5 covered (of 6 nodes): 20 missing fit a budget of
        # 20, not of 19
        assert len(coverage(build(TruncationConfig(max_depth=2, value_bound=60,
                                                   max_nodes=20)), 49).missing) == 20
        tree = build(TruncationConfig(max_depth=2, value_bound=60, max_nodes=19))
        with pytest.raises(CapacityError, match="more than 19 missing values"):
            coverage(tree, 49)

    def test_window_far_above_a_small_tree_is_refused_before_its_table(self):
        # a cap-only tree of 3 nodes, and a window of 5e17 odd values whose
        # depth table alone would take 500 PB
        tree = build(TruncationConfig(max_depth=1, sibling_cap=3, max_nodes=1000))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="more than 1000 missing values"):
                coverage(tree, 10**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000

    @pytest.mark.parametrize("window, route", [(21, "walk"), (10**4, "scan")])
    def test_route_is_picked_by_size(self, deep_tree, window, route):
        # 11 odd values times depth 6 are fewer than the tree's 1,060 nodes; 5,000 are not
        other = "_scan_depths" if route == "walk" else "_walk_depths"
        with mock.patch.object(arbor, other, side_effect=AssertionError(f"{other} ran")):
            report = coverage(deep_tree, window)
        assert report.covered_count + len(report.missing) == (window + 1) // 2

    def test_repeated_value_is_counted_once(self):
        # 21, stored at depth 1, appended by hand to depth 2 as well: the scan keeps its
        # deeper entry, and every count comes from the table, so the counts still partition
        # the 13 odd values up to 25; the walk reads no level and finds 21 at depth 1
        tree = build(TruncationConfig(max_depth=2, value_bound=60))
        tree.levels[2].append(21)
        report = coverage(tree, 25)
        assert (report.covered_count, len(report.missing)) == (5, 8)
        assert (report.level_sizes, report.first_depth[21]) == ({0: 1, 1: 1, 2: 3}, 2)
        with mock.patch.object(arbor, "_scan_depths", arbor._walk_depths):
            walked = coverage(tree, 25)
        assert (walked.covered_count, len(walked.missing)) == (5, 8)
        assert (walked.level_sizes, walked.first_depth[21]) == ({0: 1, 1: 2, 2: 2}, 1)

    @pytest.mark.parametrize("codes", [1, 2, 3])
    def test_wider_tables_give_the_same_report(self, deep_tree, codes):
        # a tree of depth 255 or more takes a table of 2 B or more a value
        want = coverage(deep_tree, 61)
        with mock.patch.object(arbor, "_DEPTH_TYPECODES", arbor._DEPTH_TYPECODES[codes:]):
            got = coverage(deep_tree, 61)
        assert got.first_depth._table.typecode == "BHIQ"[codes]
        assert got == want and list(got.first_depth.items()) == list(want.first_depth.items())


class TestExport:
    @pytest.mark.parametrize("fmt,name", [
        ("jsonl", "tree_k1_b25.jsonl"),
        ("dot", "tree_k1_b25.dot"),
        ("csv", "tree_k1_b25.csv"),
    ])
    def test_golden(self, fmt, name):
        tree = build(TruncationConfig(max_depth=1, value_bound=25))
        sink = io.BytesIO()
        export(tree, fmt, sink)
        assert sink.getvalue() == (GOLDEN / name).read_bytes()

    def test_jsonl_three_records(self):
        tree = build(TruncationConfig(max_depth=1, value_bound=25))
        sink = io.BytesIO()
        export(tree, "jsonl", sink)
        lines = sink.getvalue().decode().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert [r["value"] for r in records] == [1, 5, 21]
        assert list(records[0]) == ["value", "depth", "parent", "sibling_index",
                                    "residue", "is_leaf"]
        assert records[0]["parent"] is None
        assert records[2]["is_leaf"] is True

    def test_root_only_single_record(self):
        tree = build(TruncationConfig(max_depth=0, value_bound=10))
        sink = io.BytesIO()
        export(tree, "jsonl", sink)
        assert sink.getvalue().count(b"\n") == 1

    def test_dot_contains_edge(self):
        tree = build(TruncationConfig(max_depth=1, value_bound=25))
        sink = io.BytesIO()
        export(tree, "dot", sink)
        text = sink.getvalue().decode()
        assert text.startswith("digraph collatz_arbor {")
        assert "1 -> 5" in text
        assert "21 [shape=box]" in text

    def test_csv_header_first(self):
        tree = build(TruncationConfig(max_depth=1, value_bound=25))
        sink = io.BytesIO()
        export(tree, "csv", sink)
        first = sink.getvalue().decode().splitlines()[0]
        assert first == "value,depth,parent,sibling_index,residue,is_leaf"

    def test_identical_builds_export_identically(self):
        config = TruncationConfig(max_depth=4, value_bound=5000)
        for fmt in ("jsonl", "dot", "csv"):
            a, b = io.BytesIO(), io.BytesIO()
            export(build(config), fmt, a)
            export(build(config), fmt, b)
            assert a.getvalue() == b.getvalue()

    def test_capped_indices_past_any_fixed_table(self):
        # the root's children of index 2..300, one run that the exporters number by
        # carrying the index, its text made on each _IndexText miss up to the cap
        tree = build(TruncationConfig(max_depth=1, sibling_cap=300))
        for fmt in ("jsonl", "dot", "csv"):
            sink = io.BytesIO()
            export(tree, fmt, sink)
            assert sink.getvalue() == reference_export(tree, fmt)

    def test_unknown_format_rejected(self, small_tree):
        with pytest.raises(ValueError):
            export(small_tree, "yaml", io.BytesIO())
