import io
import json
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from export_reference import reference_export

from collatz_arbor import arbor
from collatz_arbor.arbor import (
    DEFAULT_MAX_NODES,
    TruncationConfig,
    build,
    classify_edge,
    coverage,
    export,
    path_to,
)
from collatz_arbor.errors import (
    CapacityError,
    DuplicateVertexError,
    InconsistencyError,
    MissingVertexError,
    NonEdgeError,
)
from collatz_arbor.forward import trajectory
from collatz_arbor.inverse import g_branch

GOLDEN = Path(__file__).parent / "golden"


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
        assert deep_tree.node(1).parent is None
        assert all(info.parent != 1 or value != 1 for value, info in deep_tree.records())

    def test_bound_filtered_second_level(self, small_tree):
        # 85 and 341 exceed the bound, so only 5 contributes at depth 2
        assert list(small_tree.levels[1]) == [5, 21]
        assert list(small_tree.levels[2]) == [3, 13, 53]
        assert len(small_tree) == 6

    def test_contains_worked_path(self, deep_tree):
        for v in (5, 13, 17, 11, 7, 9):
            assert v in deep_tree
        assert deep_tree.node(9).depth == 6

    def test_root_only(self):
        tree = build(TruncationConfig(max_depth=0, value_bound=100))
        assert len(tree) == 1
        assert {k: list(level) for k, level in tree.levels.items()} == {0: [1]}

    def test_node_metadata(self, small_tree):
        info = small_tree.node(13)
        assert info.depth == 2
        assert info.parent == 5
        assert info.sibling_index == 2
        assert info.residue == 1
        assert not info.is_leaf
        assert small_tree.node(21).is_leaf

    def test_leaves_have_no_children(self, deep_tree):
        leaves = {v for v, info in deep_tree.records() if info.is_leaf}
        children_of = {info.parent for _, info in deep_tree.records() if info.parent}
        assert not leaves & children_of

    def test_sibling_cap(self):
        tree = build(TruncationConfig(max_depth=1, sibling_cap=3))
        assert tree.levels[1] == [5, 21]  # indices 2 and 3 from the root

    def test_capacity_budget(self):
        with pytest.raises(CapacityError):
            build(TruncationConfig(max_depth=6, value_bound=10**6, max_nodes=10))

    def test_duplicate_child_aborts_loudly(self, monkeypatch):
        # cannot happen with the real branch map, so inject a colliding stream:
        # 21 is already stored under the root
        _start_run_at(monkeypatch, 5, 21)
        with pytest.raises(DuplicateVertexError) as excinfo:
            build(TruncationConfig(max_depth=2, value_bound=60))
        assert excinfo.value.value == 21

    @pytest.mark.parametrize("bound,cap", [(60, None), (10**6, None), (None, 9)])
    def test_budget_admits_exactly_max_nodes(self, bound, cap):
        nodes = len(build(TruncationConfig(max_depth=3, value_bound=bound, sibling_cap=cap)))
        assert len(build(TruncationConfig(max_depth=3, value_bound=bound, sibling_cap=cap,
                                          max_nodes=nodes))) == nodes
        with pytest.raises(CapacityError):
            build(TruncationConfig(max_depth=3, value_bound=bound, sibling_cap=cap,
                                   max_nodes=nodes - 1))

    @pytest.mark.parametrize("config", [
        TruncationConfig(max_depth=2, value_bound=60),  # bitmap store
        TruncationConfig(max_depth=2, value_bound=10**4, max_nodes=100),  # set store
        TruncationConfig(max_depth=2, value_bound=10**4, sibling_cap=3),  # cap and bound
        TruncationConfig(max_depth=2, sibling_cap=3),  # cap only: set store
        TruncationConfig(max_depth=2, value_bound=2**70),  # values charged by their digits
    ])
    def test_duplicate_names_both_parents(self, monkeypatch, config):
        # parent 5's stream starts at 5 itself, stored at depth 1 under the root;
        # every box grows and replays its levels through the one kernel
        _start_run_at(monkeypatch, 5, 5, config.sibling_cap)
        with pytest.raises(DuplicateVertexError) as excinfo:
            build(config)
        err = excinfo.value
        assert (err.value, err.first_parent, err.second_parent) == (5, 1, 5)

    def test_duplicate_within_one_level(self, monkeypatch):
        # parent 21 is a leaf; parent 85's stream starts at 13, which 5 also produces
        _start_run_at(monkeypatch, 85, 13)
        with pytest.raises(DuplicateVertexError) as excinfo:
            build(TruncationConfig(max_depth=2, value_bound=400))
        err = excinfo.value
        assert (err.value, err.first_parent, err.second_parent) == (13, 5, 85)

    @pytest.mark.parametrize("config,store", [
        (TruncationConfig(max_depth=3, value_bound=1600, max_nodes=100), "bitmap"),
        (TruncationConfig(max_depth=3, value_bound=1616, max_nodes=100), "set"),
        (TruncationConfig(max_depth=3, sibling_cap=2), "set"),
    ])
    def test_bitmap_never_outgrows_the_budget(self, config, store):
        # one bit per odd value while value_bound // 16 <= max_nodes, else a set
        tree = build(config)
        assert ("set" if isinstance(tree.members, set) else "bitmap") == store
        if store == "bitmap":
            assert len(tree.members.bits) <= config.max_nodes + 1

    def test_capped_run_stops_at_the_budget(self):
        # 20000 capped children of the root would hold ~50 MB of ints; the
        # budget folds into the run's stop, so the build stops after 11
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

    def test_run_charge_closed_form(self):
        # sibling j of a run from a b-bit value has b + 2j bits; each 30-bit
        # digit past two is charged as a tenth of a node
        for b in range(1, 130):
            for m in range(0, 100):
                digits = sum(max(0, -(-(b + 2 * j) // 30) - 2) for j in range(m))
                assert arbor._extra_digits(b, m) == digits
                assert arbor._run_charge(b, m) == m + -(-digits // 10)
        assert arbor._run_charge(3, 29) == 29  # values below 2^61 cost one node each

    def test_store_bytes_per_node(self):
        # the bound list levels met (one int and one list slot a node, ~41 B);
        # the bitmap adds 1 bit per odd value, and no value -> parent dict is
        # kept.  The typed levels of this box meet a tighter bound, below.
        tracemalloc.start()
        try:
            tree = build(TruncationConfig(max_depth=40, value_bound=2 * 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree) == 298_358
        assert peak <= 48 * len(tree)

    def test_typed_store_bytes_per_node(self):
        # array('I') levels: 4 B a node, plus the bitmap and the two levels
        # the build holds as lists
        tracemalloc.start()
        try:
            tree = build(TruncationConfig(max_depth=40, value_bound=2 * 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree) == 298_358
        assert peak <= 8 * len(tree)

    @pytest.mark.parametrize("config,typecode", [
        (TruncationConfig(max_depth=3, value_bound=10**6), "I"),  # bitmap store
        (TruncationConfig(max_depth=2, value_bound=2**32 - 1), "I"),  # set store
        (TruncationConfig(max_depth=2, value_bound=2**32), "Q"),
        (TruncationConfig(max_depth=2, value_bound=2**64 - 1), "Q"),
        (TruncationConfig(max_depth=2, value_bound=2**64), None),
        (TruncationConfig(max_depth=3, sibling_cap=5), None),
    ])
    def test_levels_are_typed_exactly_below_2_64(self, config, typecode):
        # the narrowest code whose items hold the bound: 'I' below 2^32, 'Q'
        # below 2^64, exact lists otherwise
        levels = build(config).levels.values()
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
        entries = [r for row in arbor._kernel_table(c, cap) for r in row]
        assert len({id(r) for r in entries}) == len(set(entries))

    def test_bounded_run_past_2_60_is_charged_by_its_digits(self):
        # the root's children 5, 21, ..., (4^100 - 1)/3 all lie below 2^200:
        # 99 values of up to 7 digits, charged as a capped run of 99 is
        charge = 1 + arbor._run_charge(3, 99)
        assert charge > 100
        box = {"max_depth": 1, "value_bound": 2**200}
        assert len(build(TruncationConfig(**box, max_nodes=charge))) == 100
        with pytest.raises(CapacityError):
            build(TruncationConfig(**box, max_nodes=charge - 1))

    @pytest.mark.parametrize("bound", [10**12, 10**60])
    def test_set_store_budget_bounds_bytes(self, bound):
        # a set member costs its set slot and boxed int on top of its level
        # slot, and values past 2^60 cost digits: both are charged, so the
        # budget holds bytes to 48 B a node here too
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build(TruncationConfig(max_depth=30, value_bound=bound, max_nodes=100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 100_000

    @pytest.mark.parametrize("config, per_node", [
        (TruncationConfig(max_depth=40, value_bound=2 * 10**6, max_nodes=150_000), 20),  # bitmap
        (TruncationConfig(max_depth=30, value_bound=10**12, max_nodes=1_000), 100),  # set store
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

    def test_parent_mapping_is_derived_and_read_only(self, small_tree):
        assert dict(small_tree.parent) == {1: None, 5: 1, 21: 1, 3: 5, 13: 5, 53: 5}
        assert 13 in small_tree.parent and 7 not in small_tree.parent
        with pytest.raises(KeyError):
            small_tree.parent[7]
        with pytest.raises(TypeError):
            small_tree.parent[13] = 21

    def test_depth_bookkeeping_of_late_initial_vertices(self, deep_tree):
        # with the root at depth 0: 29 enters at depth 5 and its first child
        # 19 at depth 6
        assert deep_tree.node(29).depth == 5
        assert deep_tree.node(19).depth == 6
        assert deep_tree.node(19).parent == 29
        assert deep_tree.node(19).sibling_index == 1

    def test_parent_links_rederive(self, deep_tree):
        for value, info in deep_tree.records():
            if info.parent is not None:
                assert g_branch(info.parent, info.sibling_index) == value

    def test_indegree_contract(self, deep_tree):
        # node store keys are unique by construction; every non-root has
        # exactly one stored parent, the root none
        for value, info in deep_tree.records():
            if value == 1:
                assert info.parent is None
            else:
                assert info.parent in deep_tree

    def test_at_most_one_leaf_per_path_and_only_terminal(self, deep_tree):
        for value, info in deep_tree.records():
            if info.is_leaf:
                continue
            # a non-leaf interior vertex never sits below a leaf
            parent = info.parent
            while parent is not None:
                assert not deep_tree.node(parent).is_leaf
                parent = deep_tree.node(parent).parent


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
        for value in small_tree.parent:
            path = path_to(small_tree, value)
            assert path == list(reversed(trajectory(value).values))

    def test_unstored_ancestor_is_inconsistent(self):
        _path_with_unstored_ancestor(DEFAULT_MAX_NODES)

    def test_path_longer_than_the_tree_is_inconsistent(self):
        _path_longer_than_the_tree(DEFAULT_MAX_NODES)

    def test_set_store_reports_both_errors(self):
        # a budget below 10^4 // 16 nodes keeps the same tree in a set
        _path_with_unstored_ancestor(600)
        _path_longer_than_the_tree(600)


def _path_with_unstored_ancestor(max_nodes):
    tree = build(TruncationConfig(max_depth=6, value_bound=10**4, max_nodes=max_nodes))
    assert path_to(tree, 9) == [1, 5, 13, 17, 11, 7, 9]
    if isinstance(tree.members, set):  # drop 17 from the store
        tree.members.discard(17)
    else:
        tree.members.bits[17 >> 4] &= ~(1 << (17 >> 1 & 7))
    with pytest.raises(InconsistencyError, match="ancestor 17 of stored 9"):
        path_to(tree, 9)
    assert path_to(tree, 13) == [1, 5, 13]
    with pytest.raises(MissingVertexError):
        path_to(tree, 17)
    with pytest.raises(MissingVertexError):
        path_to(tree, 27)


def _path_longer_than_the_tree(max_nodes):
    # a store that claims the whole orbit of 27 (41 steps) in a depth-6 tree
    tree = build(TruncationConfig(max_depth=6, value_bound=10**4, max_nodes=max_nodes))
    tree.members.update(trajectory(27).values)
    with pytest.raises(InconsistencyError, match="does not reach the root in 6 steps"):
        path_to(tree, 27)


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
        for value, info in deep_tree.records():
            if info.parent is None or info.parent == 1:
                continue
            kind = classify_edge(info.parent, value)
            if info.sibling_index == 1:
                expected = "ascending" if info.parent % 3 == 1 else "descending"
                assert kind == expected
            else:
                assert kind == "ascending"


class TestCoverage:
    def test_small_window(self, small_tree):
        report = coverage(small_tree, 25)
        assert report.covered_count == 5
        for v in (1, 3, 5, 13, 21):
            assert report.covers(v)
        assert report.missing == (7, 9, 11, 15, 17, 19, 23, 25)

    def test_gap_values_reached_at_depth_six(self, deep_tree):
        report = coverage(deep_tree, 21)
        for v in (7, 9, 11, 15, 17):
            assert report.covers(v)

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
        covered = {x for x in range(1, 61, 2) if report.covers(x)}
        assert len(covered) == report.covered_count
        assert covered | set(report.missing) == set(range(1, 61, 2))
        assert not covered & set(report.missing)
        # even values, 0, negative values, values past the window and non-ints
        for x in (*range(-61, 1), *range(2, 62, 2), 61, 63, 9.0, 5.0, "5", None):
            assert not report.covers(x)

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

    def test_window_far_above_a_small_tree_is_refused_before_its_bitmap(self):
        # a cap-only tree of 3 nodes, and a window of 5e17 odd values whose
        # bitmap alone would take 62 PB
        tree = build(TruncationConfig(max_depth=1, sibling_cap=3, max_nodes=1000))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="more than 1000 missing values"):
                coverage(tree, 10**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000

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
