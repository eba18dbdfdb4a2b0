"""Invariant checks over randomized inputs, driven by hypothesis."""

import io
import re
from contextlib import contextmanager
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verify_reference as reference
from convergence_reference import reference_check_convergence
from core_reference import decompose, valuation2
from coverage_reference import reference_coverage
from export_reference import reference_export
from collatz_arbor import arbor, inverse, verify
from collatz_arbor.arbor import (
    DEFAULT_MAX_NODES,
    EXPORT_FORMATS,
    TruncationConfig,
    build,
    coverage,
    export,
    path_to,
)
from collatz_arbor.core import w_term, z_term
from collatz_arbor.errors import CapacityError, MissingVertexError
from collatz_arbor.forward import f_step
from collatz_arbor.inverse import (
    branch_forms,
    g_branch,
    siblings,
)
from collatz_arbor.verify import check_convergence

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
    assert a == valuation2(3 * x + 1)


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
    e = 2 * n if u % 3 == 1 else 2 * n - 1
    assert g_branch(u, n + 1) - g_branch(u, n) == (1 << e) * u


@given(odd_positive.filter(lambda u: u % 3 == 1))
def test_adjacent_initials_of_a_class_one_parent(u):
    # u and its successor sibling 1 + 4u (class 2, multiple 1 + 4 mu)
    mu, successor = u // 3, 1 + 4 * u
    v1, v1_next = g_branch(u, 1), g_branch(successor, 1)
    assert (v1, v1_next) == (1 + 4 * mu, 3 + 8 * mu)
    assert v1 == successor // 3 and v1_next == 1 + 2 * v1


@given(parents)
def test_sibling_residues_cycle(u):
    vals = siblings(u, count=9).values()
    first = vals[0] % 3
    assert [v % 3 for v in vals] == [(first + i) % 3 for i in range(9)]


@given(parents, small_index)
def test_unchecked_branch_matches_g_branch(u, n):
    # the tree checks and the kernels take v_n through _branch, which checks nothing
    assert inverse._branch(u, n) == g_branch(u, n)
    assert f_step(inverse._branch(u, n)) == (u, inverse._exponent(u, n))


@given(parents)
def test_initial_vertex_residue_forms(u):
    v1 = g_branch(u, 1)
    if u % 3 == 1:
        assert v1 % 8 == 1
    else:
        assert v1 % 4 == 3
        assert v1 == u - (u // 3 + 1)  # the closed form the partition suite checks


@given(parents)
@settings(max_examples=50)
def test_multiples_ascend_and_match_closed_form(u):
    seq = reference.multiples_sequence(u, 12)
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
    required, is_odd = reference.check_collision_parity(
        reference.CollisionProbe(d, partner, same_class))
    assert is_odd
    assert required % 2 == 1


def _reference_build(config):
    """The build rule through the validated sibling stream: the oracle for build.

    Returns the levels and each stored value's (parent, sibling index), (None, None) for 1.
    """
    links = {1: (None, None)}
    levels = [[1]]
    frontier = [1]
    depth = 0
    while frontier and (config.max_depth is None or depth < config.max_depth):
        depth += 1
        level = []
        for u in frontier:
            for n, v in reference.iter_siblings(u, first_index=2 if u == 1 else 1):
                if config.sibling_cap is not None and n > config.sibling_cap:
                    break
                if config.value_bound is not None and v > config.value_bound:
                    break
                assert v == g_branch(u, n) and v not in links
                links[v] = (u, n)
                level.append(v)
        if level:
            levels.append(level)
        frontier = [v for v in level if v % 3]
    return levels, links


# Bounds across 2^32, where the levels widen from array('I') to array('Q').
# No vertex within 12 steps of 1 lies within 2^12 of 2^32, so the first
# range stores the same levels in either code; in the second, once B passes
# it, depth 1 holds (4^17 - 1)/3 > 2^32, which an 'I' level cannot hold.
edge_bounds = st.integers(2**32 - 2**12, 2**32 + 2**12) | st.integers(2**32, 2**33)

# Bounds within 16 times the budget and far above it; small budgets also
# reach the CapacityError path.
budgets = st.just(DEFAULT_MAX_NODES) | st.integers(1, 3000)
small_boxes = st.one_of(
    st.builds(TruncationConfig, max_depth=st.integers(0, 12),
              value_bound=st.integers(1, 10**5),
              sibling_cap=st.none() | st.integers(1, 8), max_nodes=budgets),
    # value_bound > 16 * max_nodes
    st.builds(TruncationConfig, max_depth=st.integers(0, 12),
              value_bound=st.integers(16 * 3001, 10**6),
              sibling_cap=st.none() | st.integers(1, 8), max_nodes=st.integers(1, 3000)),
    # unbounded values: the cap alone stops each sibling stream
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
    levels, links = _reference_build(config)
    if len(links) > config.max_nodes:
        with pytest.raises(CapacityError):
            build(config)
        return
    tree = build(config)
    assert [list(level) for level in tree.levels] == levels
    # levels[k] is depth k: no level is empty, so check_uniqueness may slice by position
    assert len(tree.levels) == tree.max_depth + 1 and all(tree.levels)
    assert len(tree) == len(links)
    parents = {v: u for v, (u, _) in links.items()}
    # every odd value up to 2001, and the stored values' neighbours, odd and even
    probes = set(range(-1, 2002, 2)) | {v + d for v in parents for d in (-2, 1, 2)}
    for x in probes:
        assert (x in tree) == (x in parents)
        if x > 0 and x & 1 and x not in parents:
            with pytest.raises(MissingVertexError):
                path_to(tree, x)
    for v, link in links.items():
        assert arbor._link(v) == link
        assert path_to(tree, v) == _reference_path(parents, v)


# A bound at or above 2^60 charges every run by its digits (inverse._charge):
# the stored values must not change.
big_bound_boxes = st.builds(TruncationConfig, max_depth=st.integers(0, 2),
                            value_bound=st.integers(2**60, 2**90),
                            sibling_cap=st.none() | st.integers(1, 50))


@given(big_bound_boxes)
@settings(max_examples=50, deadline=None)
def test_big_bound_build_matches_reference_build(config):
    levels, links = _reference_build(config)
    tree = build(config)
    assert [list(level) for level in tree.levels] == levels
    assert all(arbor._link(v) == link for v, link in links.items())


# One box of each kind: dense, capped and bounded, cap-only, bounded at 2^70,
# and depth-unbounded.
membership_boxes = st.one_of(
    st.builds(TruncationConfig, max_depth=st.integers(0, 12), value_bound=st.integers(1, 10**5)),
    st.builds(TruncationConfig, max_depth=st.integers(0, 12), value_bound=st.integers(1, 10**5),
              sibling_cap=st.integers(1, 8)),
    st.builds(TruncationConfig, max_depth=st.integers(0, 8), sibling_cap=st.integers(1, 3)),
    st.builds(TruncationConfig, max_depth=st.integers(0, 3), value_bound=st.just(2**70)),
    st.builds(TruncationConfig, value_bound=st.integers(1, 5000)),
)


@given(membership_boxes, st.data())
@settings(max_examples=80, deadline=None)
def test_membership_matches_the_level_values(config, data):
    # `in` and path_to walk the orbit, and must agree with a set of the levels
    tree = build(config)
    stored = {v for level in tree.levels for v in level}
    assert len(stored) == len(tree) == sum(map(len, tree.levels))
    bound = config.value_bound or 0
    cap = config.sibling_cap
    probes = {v + d for v in stored for d in (-2, -1, 0, 1, 2)}
    probes |= set(range(bound + 1, bound + 8))  # just past the bound
    # one step past the depth, and each run's next index past the cap
    probes |= {inverse.g_branch(u, n) for u in tree.levels[-1] if u % 3 for n in (1, 2)}
    probes |= {4 * v + 1 for v in stored if v != 1}
    if cap is not None:
        probes.add(inverse.g_branch(1, cap + 1))
    probes |= set(data.draw(st.lists(st.integers(-10, 4 * bound + 10), max_size=20)))
    for x in [*probes, True, False, None, "5", 5.5, (1,)]:
        assert (x in tree) == (x in stored), x
    for x in probes:
        if x > 0 and x & 1 and x not in stored:
            with pytest.raises(MissingVertexError):
                path_to(tree, x)
    for v in stored:
        path = [v]
        while path[-1] != 1:
            path.append(f_step(path[-1])[0])
        assert path_to(tree, v) == path[::-1]


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
    run = inverse._children((u,), c, inverse._kernel_table(c, cap))
    want = []
    for n, w in reference.iter_siblings(u, first_index=2 if u == 1 else 1):
        if (cap is not None and n > cap) or (bound is not None and w > bound):
            break
        assert w == g_branch(u, n)
        want.append(w)
    if u == 1:  # the root's run opens with the root itself, which the build drops
        assert run[0] == 1
        del run[0]
    assert run == want


# The root, small parents and 256-bit ones; SiblingSet reads its run from the
# build's kernel, and the stream it once read stays its oracle.
sibling_parents = st.one_of(
    st.just(1),
    st.integers(0, 500).map(lambda k: 2 * k + 1).filter(lambda u: u % 3),
    st.integers(2**254, 2**255 - 1).map(lambda k: 2 * k + 1).filter(lambda u: u % 3),
)


@given(sibling_parents, st.integers(1, 80), st.data())
@settings(max_examples=200, deadline=None)
def test_siblings_match_reference_stream(u, count, data):
    want = [v for _, v in islice(reference.iter_siblings(u), count)]
    assert siblings(u, count=count).values() == want
    # bounds at the last child, one either side of it, below the first, past the last
    bound = max(1, data.draw(st.sampled_from([want[-1] - 1, want[-1], want[-1] + 1, 1,
                                              4 * want[-1]]) | st.integers(1, 2**300)))
    kept = []
    for _, v in reference.iter_siblings(u):
        if v > bound:
            break
        kept.append(v)
    assert list(siblings(u, bound=bound)) == kept


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
    for k, level in enumerate(tree.levels):
        for i, v in enumerate(level if k else ()):
            if v & 7 == 5:
                assert (i > 0 and level[i - 1] == (v - 1) // 4) or (k, i, v) == (1, 0, 5)
            else:
                assert arbor._link(v)[1] == 1


@given(export_boxes.map(build).filter(lambda tree: tree.max_depth >= 1), st.data())
@settings(max_examples=60, deadline=None)
def test_parent_pointers_read_the_run_order(tree, data):
    # every build passes; a first child swapped with the value before it, the end of
    # another run, passes the per-value tests but breaks its parents' run order
    assert verify.check_parent_pointers(tree).passed
    firsts = [(k, i) for k, level in enumerate(tree.levels) if k
              for i in range(1, len(level)) if arbor._link(level[i])[1] == 1]
    if not firsts:
        return
    k, i = data.draw(st.sampled_from(firsts))
    level = tree.levels[k]
    level[i - 1], level[i] = level[i], level[i - 1]
    parent, n = arbor._link(level[i])
    assert verify.check_parent_pointers(tree).counterexample == {
        "value": level[i], "parent": parent, "sibling_index": n,
        "reason": "not next in its parent's run below the level above"}


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


# bounds within 16 times the budget, bounds just past that, and cap-only
# boxes; max_depth 0 is the root-only tree
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


# the coverage routes, each forced in turn: every box above, and depth-unbounded ones
route_boxes = coverage_boxes | st.builds(TruncationConfig, value_bound=st.integers(1, 3000),
                                         sibling_cap=st.none() | st.integers(1, 8))


@pytest.mark.parametrize("route", ["walk", "scan"])
@given(route_boxes, st.data())
@settings(max_examples=60, deadline=None)
def test_coverage_routes_match_reference(route, config, data):
    try:
        tree = build(config)
    except CapacityError:
        return
    top = config.value_bound or 4000
    windows = {top, *data.draw(st.lists(st.integers(1, top), max_size=3))}
    other = "_scan_depths" if route == "walk" else "_walk_depths"
    with mock.patch.object(arbor, other, getattr(arbor, f"_{route}_depths")):
        for window in windows:
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
    for suite, name in (("residue-cycle", "residue_cycle_sweep"), ("multiples", "multiples_sweep"),
                        ("closed-forms", "closed_forms_sweep"), ("gaps", "gaps_sweep")):
        _same(verify.run_suite(suite, parent_bound=parent_bound, count=count)[0],
              getattr(reference, f"reference_{name}")(parent_bound, count))
    # the covering suite caps its template count at 8; a small tree box keeps it quick
    _same(verify.run_suite("covering", parent_bound=parent_bound, count=count,
                           tree_depth=3, tree_bound=100)[0],
          reference.reference_check_covering_templates(parent_bound, min(count, 8)))


@given(st.integers(1, 20), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_collision_sweep_matches_reference(max_d, partners):
    _same(verify.run_suite("collision", max_d=max_d, partners=partners)[0],
          reference.reference_collision_parity_sweep(max_d, partners))


@given(parents, st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_per_parent_checks_match_reference(u, count):
    for name in ("check_residue_cycle", "check_closed_forms", "check_multiples"):
        _same(getattr(verify, name)(u, count), getattr(reference, f"reference_{name}")(u, count))


@contextmanager
def _corrupt_branch(u0, e0, corrupt):
    """The raw branch kernel gives corrupt(v) at (u0, e0), in verify and its oracles alike.

    The multiple-form check lets that child through, so the check under test sees it.
    """
    real, real_form = inverse._raw_branch, inverse._multiple_form

    def faulty(u, e):
        v = real(u, e)
        return corrupt(v) if (u, e) == (u0, e0) else v

    def form(u, e, v, z):
        return v if (u, e) == (u0, e0) else real_form(u, e, v, z)

    with mock.patch.object(verify, "_raw_branch", faulty), \
            mock.patch.object(inverse, "_raw_branch", faulty), \
            mock.patch.object(reference, "_raw_branch", faulty), \
            mock.patch.object(verify, "_multiple_form", form), \
            mock.patch.object(inverse, "_multiple_form", form):
        yield


def _same_outcome(name, check, *args):
    """check(*args) and its oracle reference_<name> give the same report, or the same box error."""
    try:
        want = getattr(reference, f"reference_{name}")(*args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            check(*args)
        return
    _same(check(*args), want)


@given(st.integers(3, 3000), st.integers(20, 150) | st.just(10_000), st.data())
@settings(max_examples=60, deadline=None)
def test_convergence_sweep_matches_reference_under_a_wrong_step(bound, max_steps, data):
    # the raw kernel misses x on the step x -> f(x), x a value on the orbit of
    # a start up to the bound, often above it; under a small budget the start
    # that first takes the step may run out of steps before it
    x = 2 * data.draw(st.integers(1, (bound - 1) // 2)) + 1
    orbit = []
    while x != 1:
        orbit.append(x)
        x = f_step(x)[0]
    x = data.draw(st.sampled_from(orbit))
    with _corrupt_branch(*f_step(x), lambda v: v + 2):
        _same(check_convergence(bound, max_steps), reference_check_convergence(bound, max_steps))


# a tree too shallow for covering raises in both; small bounds and caps leave
# class-2 residues mod 12 unrealized, a failed report
covering_trees = st.builds(TruncationConfig, max_depth=st.integers(3, 8),
                           value_bound=st.integers(1, 1000) | st.integers(1000, 10**6),
                           sibling_cap=st.none() | st.integers(1, 8)).map(build)


@given(covering_trees)
@settings(max_examples=60, deadline=None)
def test_covering_matches_reference(tree):
    _same_outcome("check_covering", verify.check_covering, tree)


@given(covering_trees, st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_covering_matches_reference_under_a_wrong_sibling_index(tree, shift, data):
    # one stored value's derived link names a sibling index `shift` too high
    if tree.max_depth < 1:
        return
    v0 = data.draw(st.sampled_from([v for level in tree.levels[1:] for v in level]))
    real = arbor._link

    def faulty(v):
        parent, n = real(v)
        return (parent, n + shift) if v == v0 else (parent, n)

    with mock.patch.object(arbor, "_link", faulty):
        _same_outcome("check_covering", verify.check_covering, tree)


# the suites that check a parent's first child alone, by the name of their oracle
FIRST_CHILD_SUITES = {"check_initial_vertex_partition": "partition",
                      "adjacent_initials_sweep": "adjacent-initials"}


def _first_child_outcomes(parent_bound):
    for name, suite in FIRST_CHILD_SUITES.items():
        _same_outcome(name, lambda bound: verify.run_suite(suite, parent_bound=bound)[0],
                      parent_bound)


@given(st.integers(1, 3000))
@settings(max_examples=60, deadline=None)
def test_first_child_sweeps_match_reference(parent_bound):
    _first_child_outcomes(parent_bound)


@given(st.integers(7, 3000), st.data(), st.integers(-12, 12))
@settings(max_examples=60, deadline=None)
def test_first_child_sweeps_match_reference_under_a_wrong_first_child(parent_bound, data,
                                                                      delta):
    # one parent's first child (exponent 2 for class 1, 1 for class 2) off by delta
    u = data.draw(st.sampled_from(list(verify._parents_up_to(parent_bound))))
    with _corrupt_branch(u, 2 if u % 3 == 1 else 1, lambda v: v + delta):
        _first_child_outcomes(parent_bound)


# check_uniqueness on built trees and on trees with one fault in their levels, in boxes
# whose seen children go to a bitmap (bound // 16 <= max_nodes), to a set, or, cap-only, to a set
uniqueness_boxes = st.one_of(
    st.builds(TruncationConfig, max_depth=st.integers(1, 10), value_bound=st.integers(5, 10**5),
              sibling_cap=st.none() | st.integers(1, 6)),
    st.integers(16 * 200, 10**6).flatmap(lambda b: st.builds(
        TruncationConfig, max_depth=st.integers(1, 8), value_bound=st.just(b),
        sibling_cap=st.none() | st.integers(1, 6), max_nodes=st.just(b // 16 - 1))),
    st.builds(TruncationConfig, max_depth=st.integers(1, 5), sibling_cap=st.integers(1, 3)),
)
FAULTS = ("none", "repeat", "reorder", "move", "drop", "thrice", "two-repeats")


@given(uniqueness_boxes, st.sampled_from(FAULTS), st.data())
@settings(max_examples=150, deadline=None)
def test_uniqueness_walk_matches_reference(config, fault, data):
    try:
        tree = build(config)
    except CapacityError:
        return
    if tree.max_depth < 1:
        return
    levels = tree.levels
    k = data.draw(st.integers(1, tree.max_depth))
    i = data.draw(st.integers(0, len(levels[k]) - 1))
    if fault == "repeat":  # a value of any level stored again at depth k
        j = data.draw(st.integers(1, tree.max_depth))
        levels[k].insert(i, levels[j][data.draw(st.integers(0, len(levels[j]) - 1))])
    elif fault == "reorder":  # two values of level k swapped
        h = data.draw(st.integers(0, len(levels[k]) - 1))
        levels[k][h], levels[k][i] = levels[k][i], levels[k][h]
    elif fault == "move":  # a value of level k stored at another depth
        j = data.draw(st.integers(1, tree.max_depth + 1))
        value = levels[k].pop(i)
        if j > tree.max_depth:
            levels.append(levels[k][:0])  # a new, empty level of the same type
        levels[j].insert(data.draw(st.integers(0, len(levels[j]))), value)
    elif fault == "drop":
        del levels[k][i]
    elif fault in ("thrice", "two-repeats"):
        # stored non-leaves on the levels the check expands, whose first child is stored
        expanded = min(tree.max_depth, config.max_depth - 1)
        parents = [(j, v) for j in range(1, expanded + 1) for v in levels[j] if v % 3 and (
            config.value_bound is None or inverse._branch(v, 1) <= config.value_bound)]
        if fault == "thrice":  # a parent stored again at two other expanded depths
            depths = range(1, expanded + 1)
            if not parents or len(depths) < 3:
                return
            j, v = data.draw(st.sampled_from(parents))
            for d in data.draw(st.lists(st.sampled_from([d for d in depths if d != j]),
                                        min_size=2, max_size=2, unique=True)):
                levels[d].insert(data.draw(st.integers(0, len(levels[d]))), v)
            repeat = {"value": inverse._branch(v, 1), "occurrences": 3}
        else:  # two parents stored again after the deepest expanded level's values: each
            # copy's children repeat there, the larger first child's met first
            if len(parents) < 2:
                return
            pair = [v for _, v in data.draw(st.lists(st.sampled_from(parents), min_size=2,
                                                     max_size=2, unique=True))]
            pair.sort(key=lambda v: inverse._branch(v, 1), reverse=True)
            levels[expanded].extend(pair)
            repeat = {"value": inverse._branch(pair[1], 1), "occurrences": 2}
    got = verify.check_uniqueness(tree).as_dict(include_elapsed=False)
    assert got == reference.reference_check_uniqueness(tree).as_dict(include_elapsed=False)
    if fault == "none":
        assert got["passed"]
    elif fault in ("thrice", "two-repeats"):
        assert got["counterexample"] == repeat
