"""Invariant checks over randomized inputs, driven by hypothesis."""

import io
import re
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verify_reference as reference
from convergence_reference import reference_check_convergence
from coverage_reference import reference_coverage
from export_reference import reference_export
from collatz_arbor import arbor, inverse, verify
from collatz_arbor.arbor import (
    DEFAULT_MAX_NODES,
    EXPORT_FORMATS,
    NodeInfo,
    TruncationConfig,
    build,
    coverage,
    export,
    path_to,
)
from collatz_arbor.core import decompose, w_term, z_term
from collatz_arbor.errors import CapacityError, MissingVertexError
from collatz_arbor.forward import f_step, valuation2
from collatz_arbor.inverse import (
    branch_forms,
    g_branch,
    initial_vertex,
    iter_siblings,
    multiples_sequence,
    sibling_gap,
    siblings,
)
from collatz_arbor.verify import CollisionProbe, check_collision_parity, check_convergence

odd_positive = st.integers(min_value=0, max_value=10**30).map(lambda k: 2 * k + 1)
parents = odd_positive.filter(lambda u: u % 3 != 0)
small_index = st.integers(min_value=1, max_value=48)


@given(odd_positive)
def test_decompose_recomposes(x):
    d = decompose(x)
    assert 3 * d.multiple + d.residue == x
    assert d.residue == x % 3
    assert (d.multiple % 2 == 0) == (d.residue == 1)


@given(st.integers(min_value=1, max_value=10**25), st.integers(min_value=1, max_value=80))
def test_valuation_strips_exact_power(odd_part, a):
    m = odd_part * 2 // 2 * 2 + 1  # force odd
    m = (2 * odd_part - 1) << a
    assert valuation2(m) == a


@given(odd_positive)
def test_forward_step_reduces_to_odd(x):
    y, a = f_step(x)
    assert y % 2 == 1
    assert a >= 1
    assert 3 * x + 1 == y << a


@given(parents, small_index)
def test_forward_inverts_every_branch(u, n):
    v = g_branch(u, n)
    e = 2 * n if u % 3 == 1 else 2 * n - 1
    assert f_step(v) == (u, e)


@given(parents, small_index)
def test_branch_formulations_agree(u, n):
    forms = branch_forms(u, n)
    assert len(set(forms.values())) == 1


@given(parents, small_index)
def test_gap_closed_form(u, n):
    gap = sibling_gap(u, n)
    e = 2 * n if u % 3 == 1 else 2 * n - 1
    assert gap == (1 << e) * u
    assert gap == g_branch(u, n + 1) - g_branch(u, n)


@given(parents)
def test_sibling_residues_cycle(u):
    vals = siblings(u, count=9).values()
    first = vals[0] % 3
    assert [v % 3 for v in vals] == [(first + i) % 3 for i in range(9)]


@given(parents)
def test_initial_vertex_residue_forms(u):
    v1 = initial_vertex(u)
    if u % 3 == 1:
        assert v1 % 8 == 1
    else:
        assert v1 % 4 == 3


@given(parents)
@settings(max_examples=50)
def test_multiples_ascend_and_match_closed_form(u):
    seq = multiples_sequence(u, 12)
    assert seq.strictly_ascending
    assert seq.all_match


@given(st.integers(min_value=1, max_value=300))
def test_base_sequence_terms_interlock(n):
    z = z_term(n)
    assert z_term(n + 1) == 1 + 4 * z
    assert w_term(n) == (z - z % 3) // 3
    assert z % 3 == n % 3


@given(st.integers(min_value=1, max_value=128), st.integers(min_value=0, max_value=10**9),
       st.booleans())
def test_collision_probe_always_forces_odd(d, base, same_class):
    partner = 2 * base if same_class else 2 * base + 1
    required, is_odd = check_collision_parity(CollisionProbe(d, partner, same_class))
    assert is_odd
    assert required % 2 == 1


def _reference_build(config):
    """The build rule through the validated sibling stream: the oracle for build."""
    records = {1: NodeInfo(0, None, None, 1, False)}
    levels = {0: [1]}
    frontier = [1]
    depth = 0
    while frontier and (config.max_depth is None or depth < config.max_depth):
        depth += 1
        level = []
        for u in frontier:
            for n, v in iter_siblings(u, first_index=2 if u == 1 else 1):
                if config.sibling_cap is not None and n > config.sibling_cap:
                    break
                if config.value_bound is not None and v > config.value_bound:
                    break
                assert v == g_branch(u, n) and v not in records
                records[v] = NodeInfo(depth, u, n, v % 3, v % 3 == 0)
                level.append(v)
        if level:
            levels[depth] = level
        frontier = [v for v in level if v % 3]
    return levels, list(records.items())


# Bounds across 2^32, where the levels widen from array('I') to array('Q').
# No vertex within 12 steps of 1 lies within 2^12 of 2^32, so the first
# range stores the same levels in either code; in the second, once B passes
# it, depth 1 holds (4^17 - 1)/3 > 2^32, which an 'I' level cannot hold.
edge_bounds = st.integers(2**32 - 2**12, 2**32 + 2**12) | st.integers(2**32, 2**33)

# The store is a bitmap while value_bound // 16 <= max_nodes, else a set;
# small budgets also reach the CapacityError path.
budgets = st.just(DEFAULT_MAX_NODES) | st.integers(1, 3000)
small_boxes = st.one_of(
    st.builds(TruncationConfig, max_depth=st.integers(0, 12),
              value_bound=st.integers(1, 10**5),
              sibling_cap=st.none() | st.integers(1, 8), max_nodes=budgets),
    # value_bound > 16 * max_nodes: a set store
    st.builds(TruncationConfig, max_depth=st.integers(0, 12),
              value_bound=st.integers(16 * 3001, 10**6),
              sibling_cap=st.none() | st.integers(1, 8), max_nodes=st.integers(1, 3000)),
    # unbounded values: the cap alone stops each sibling stream (set store)
    st.builds(TruncationConfig, max_depth=st.integers(0, 12), sibling_cap=st.integers(1, 3),
              max_nodes=budgets),
    st.builds(TruncationConfig, max_depth=st.integers(0, 3), value_bound=edge_bounds,
              sibling_cap=st.none() | st.integers(1, 8), max_nodes=budgets),
)


def _reference_path(parents, v):
    path = [v]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path[::-1]


@given(small_boxes)
@settings(max_examples=100, deadline=None)
def test_build_matches_reference_build(config):
    levels, records = _reference_build(config)
    if len(records) > config.max_nodes:
        with pytest.raises(CapacityError):
            build(config)
        return
    tree = build(config)
    assert {k: list(level) for k, level in tree.levels.items()} == levels
    assert list(tree.records()) == records
    parents = {v: info.parent for v, info in records}
    assert list(tree.parent.items()) == list(parents.items())
    assert len(tree) == len(tree.parent) == len(records)
    # every odd value up to 2001, and the stored values' neighbours, odd and even
    probes = set(range(-1, 2002, 2)) | {v + d for v in parents for d in (-2, 1, 2)}
    for x in probes:
        assert (x in tree) == (x in parents)
        assert (x in tree.parent) == (x in parents)
        if x > 0 and x not in parents:
            with pytest.raises(MissingVertexError):
                tree.node(x)
            with pytest.raises(KeyError):
                tree.parent[x]
    for v, info in records:
        assert tree.node(v) == info
        assert path_to(tree, v) == _reference_path(parents, v)


# A bound at or above 2^60 charges every run by its digits (arbor._charge):
# the stored values must not change.
big_bound_boxes = st.builds(TruncationConfig, max_depth=st.integers(0, 2),
                            value_bound=st.integers(2**60, 2**90),
                            sibling_cap=st.none() | st.integers(1, 50))


@given(big_bound_boxes)
@settings(max_examples=50, deadline=None)
def test_big_bound_build_matches_reference_build(config):
    levels, records = _reference_build(config)
    tree = build(config)
    assert {k: list(level) for k, level in tree.levels.items()} == levels
    assert list(tree.records()) == records


# The root, whose run the build stores from index 2, and non-leaf parents up to 2^100.
kernel_parents = st.just(1) | st.integers(1, 2**99).map(lambda k: 2 * k + 1).filter(
    lambda u: u % 3)
big_bounds = st.builds(lambda k, d: (1 << k) + d, st.integers(59, 200), st.integers(-2**8, 2**8))


@given(kernel_parents, st.none() | st.integers(1, 60), st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_run(u, cap, data):
    # the kernel's edge sits where B crosses a child v_n of u: draw B at v_n,
    # one below and one above it, or from 2^59 to 2^200; under a cap, also
    # no bound at all (c = 0, one column of the table)
    v = g_branch(u, data.draw(st.integers(1, 100)))
    bounds = st.sampled_from([max(1, v - 1), v, v + 1]) | big_bounds
    bound = data.draw(bounds if cap is None else bounds | st.none())
    c = 0 if bound is None else 3 * bound + 1
    run = arbor._children((u,), c, arbor._kernel_table(c, cap))
    want = []
    for n, w in iter_siblings(u, first_index=2 if u == 1 else 1):
        if (cap is not None and n > cap) or (bound is not None and w > bound):
            break
        assert w == g_branch(u, n)
        want.append(w)
    if u == 1:  # the root's run opens with the root itself, which the build drops
        assert run[0] == 1
        del run[0]
    assert run == want


# array('I') levels below 2^32, array('Q') ones below 2^64; list levels for a
# cap alone or a larger bound, whose values pass 2^64 (the root's child of
# index 33, (4^33 - 1)/3, does)
export_boxes = st.one_of(
    st.builds(TruncationConfig, max_depth=st.integers(0, 12),
              value_bound=st.integers(1, 10**5), sibling_cap=st.none() | st.integers(1, 8)),
    st.builds(TruncationConfig, max_depth=st.integers(0, 3), value_bound=edge_bounds,
              sibling_cap=st.none() | st.integers(1, 8)),
    st.builds(TruncationConfig, max_depth=st.integers(0, 2), sibling_cap=st.integers(30, 40)),
    st.builds(TruncationConfig, max_depth=st.integers(0, 2),
              value_bound=st.integers(2**64, 2**72), sibling_cap=st.none() | st.integers(30, 40)),
)


@given(export_boxes, st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_export_matches_reference_writer(config, chunk):
    # a small chunk puts level ends and chunk ends in different places
    tree = build(config)
    for fmt in EXPORT_FORMATS:
        want = reference_export(tree, fmt)
        for size in (chunk, arbor._CHUNK):
            sink = io.BytesIO()
            with mock.patch.object(arbor, "_CHUNK", size):
                export(tree, fmt, sink)
            assert sink.getvalue() == want


@given(export_boxes)
@settings(max_examples=60, deadline=None)
def test_levels_are_complete_sibling_runs(config):
    # the exporters' carry: a value 5 mod 8 follows its elder sibling (v - 1) / 4 in the
    # same level, or is 5 at the head of level 1; every other value is a first child
    tree = build(config)
    for k, level in tree.levels.items():
        for i, v in enumerate(level if k else ()):
            if v & 7 == 5:
                assert (i > 0 and level[i - 1] == (v - 1) // 4) or (k, i, v) == (1, 0, 5)
            else:
                assert arbor._link(v)[1] == 1


def _same_coverage(tree, window):
    """coverage(tree, window) equals the oracle's report, or raises its CapacityError."""
    try:
        want = reference_coverage(tree, window)
    except CapacityError as exc:
        with pytest.raises(CapacityError, match=re.escape(str(exc))):
            coverage(tree, window)
        return
    got = coverage(tree, window)
    assert got == want and want == got
    assert got.first_depth == want.first_depth
    assert dict(got.first_depth) == want.first_depth
    assert list(got.first_depth.items()) == sorted(want.first_depth.items())


# bitmap stores (value_bound // 16 <= max_nodes), set stores just past that
# budget, and cap-only set stores; max_depth 0 is the root-only tree
coverage_boxes = st.one_of(
    st.builds(TruncationConfig, max_depth=st.integers(0, 14), value_bound=st.integers(1, 20000),
              sibling_cap=st.none() | st.integers(1, 8)),
    st.integers(32, 20000).flatmap(lambda b: st.builds(
        TruncationConfig, max_depth=st.integers(0, 8), value_bound=st.just(b),
        max_nodes=st.just(b // 16 - 1))),
    st.builds(TruncationConfig, max_depth=st.integers(0, 6), sibling_cap=st.integers(1, 3)),
)


@given(coverage_boxes, st.data())
@settings(max_examples=100, deadline=None)
def test_coverage_matches_reference(config, data):
    try:
        tree = build(config)
    except CapacityError:
        return
    top = config.value_bound or 4000
    q = data.draw(st.integers(0, top // 16))
    # a window of every residue mod 16, clipped into [1, top], and the tree's bound
    for window in {min(top, max(1, 16 * q + r)) for r in range(16)} | {top}:
        _same_coverage(tree, window)


@pytest.mark.parametrize("config", [
    TruncationConfig(max_depth=0, value_bound=1),
    TruncationConfig(max_depth=0, value_bound=17),
    TruncationConfig(max_depth=0, value_bound=4000, max_nodes=200),
    TruncationConfig(max_depth=0, sibling_cap=1),
    TruncationConfig(max_depth=10, value_bound=200_000, max_nodes=12_000),
])
def test_coverage_matches_reference_on_fixed_boxes(config):
    tree = build(config)
    assert isinstance(tree.members, arbor._OddBitmap) == (
        config.value_bound is not None and config.value_bound // 16 <= config.max_nodes)
    top = config.value_bound or 20001
    for window in {*range(1, 41), 20001, top}:
        if window <= top:
            _same_coverage(tree, window)


@given(st.integers(1, 3000), st.integers(1, 150))
@settings(max_examples=60, deadline=None)
def test_convergence_sweep_matches_reference(bound, max_steps):
    # small budgets put the "step budget exhausted" reports, reached value
    # included, into the comparison
    got = check_convergence(bound, max_steps)
    want = reference_check_convergence(bound, max_steps)
    assert got.as_dict(include_elapsed=False) == want.as_dict(include_elapsed=False)


def _same(got, want):
    assert got.as_dict(include_elapsed=False) == want.as_dict(include_elapsed=False)


@given(st.integers(1, 400), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_parent_sweeps_match_reference(parent_bound, count):
    for name in ("residue_cycle_sweep", "multiples_sweep", "closed_forms_sweep", "gaps_sweep",
                 "check_covering_templates"):
        _same(getattr(verify, name)(parent_bound, count),
              getattr(reference, f"reference_{name}")(parent_bound, count))


@given(st.integers(1, 20), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_collision_sweep_matches_reference(max_d, partners):
    _same(verify.collision_parity_sweep(max_d, partners),
          reference.reference_collision_parity_sweep(max_d, partners))


@given(parents, st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_per_parent_checks_match_reference(u, count):
    for name in ("check_residue_cycle", "check_closed_forms", "check_multiples"):
        _same(getattr(verify, name)(u, count), getattr(reference, f"reference_{name}")(u, count))


@contextmanager
def _corrupt_branch(u0, e0, corrupt):
    """The raw branch kernel gives corrupt(v) at (u0, e0), in verify and its oracles alike."""
    real = inverse._raw_branch

    def faulty(u, e, z):
        v = real(u, e, z)
        return corrupt(v) if (u, e) == (u0, e0) else v

    with mock.patch.object(verify, "_raw_branch", faulty), \
            mock.patch.object(inverse, "_raw_branch", faulty), \
            mock.patch.object(reference, "_raw_branch", faulty):
        yield


def _same_outcome(name, *args):
    """verify's check and its oracle give the same report, or the same box error."""
    try:
        want = getattr(reference, f"reference_{name}")(*args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            getattr(verify, name)(*args)
        return
    _same(getattr(verify, name)(*args), want)


# a tree too shallow for covering raises in both; small bounds and caps leave
# class-2 residues mod 12 unrealized, a failed report
covering_trees = st.builds(TruncationConfig, max_depth=st.integers(3, 8),
                           value_bound=st.integers(1, 1000) | st.integers(1000, 10**6),
                           sibling_cap=st.none() | st.integers(1, 8)).map(build)


@given(covering_trees)
@settings(max_examples=60, deadline=None)
def test_covering_matches_reference(tree):
    _same_outcome("check_covering", tree)


@given(covering_trees, st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_covering_matches_reference_under_a_wrong_sibling_index(tree, shift, data):
    # one stored value's derived link names a sibling index `shift` too high
    if tree.max_depth < 1:
        return
    v0 = data.draw(st.sampled_from([v for v, info in tree.records() if info.parent]))
    real = arbor._link

    def faulty(v):
        parent, n = real(v)
        return (parent, n + shift) if v == v0 else (parent, n)

    with mock.patch.object(arbor, "_link", faulty):
        _same_outcome("check_covering", tree)


@given(st.integers(1, 3000))
@settings(max_examples=60, deadline=None)
def test_first_child_sweeps_match_reference(parent_bound):
    for name in ("check_initial_vertex_partition", "adjacent_initials_sweep"):
        _same_outcome(name, parent_bound)


@given(st.integers(7, 3000), st.data(), st.integers(-12, 12))
@settings(max_examples=60, deadline=None)
def test_first_child_sweeps_match_reference_under_a_wrong_first_child(parent_bound, data,
                                                                      delta):
    # one parent's first child (exponent 2 for class 1, 1 for class 2) off by delta
    u = data.draw(st.sampled_from(list(verify._parents_up_to(parent_bound))))
    with _corrupt_branch(u, 2 if u % 3 == 1 else 1, lambda v: v + delta):
        for name in ("check_initial_vertex_partition", "adjacent_initials_sweep"):
            _same_outcome(name, parent_bound)
