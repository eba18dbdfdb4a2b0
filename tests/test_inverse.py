import pytest

from verify_reference import iter_siblings, multiples_sequence
from collatz_arbor import inverse
from collatz_arbor.errors import InconsistencyError, LeafParentError
from collatz_arbor.forward import f_step
from collatz_arbor.inverse import (
    SiblingSet,
    branch_forms,
    g_branch,
    siblings,
)


class TestBranch:
    def test_root_children_are_base_sequence(self):
        assert g_branch(1, 2) == 5

    def test_children_of_five(self):
        assert g_branch(5, 1) == 3
        assert g_branch(5, 3) == 53

    def test_first_child_of_seven_is_a_leaf(self):
        v = g_branch(7, 1)
        assert v == 9
        assert v % 3 == 0

    def test_worked_descent(self):
        assert g_branch(29, 1) == 19

    def test_leaf_parent_rejected(self):
        with pytest.raises(LeafParentError):
            g_branch(9, 1)

    @pytest.mark.parametrize("bad", [0, -5, 4])
    def test_bad_parent_rejected(self, bad):
        with pytest.raises(ValueError):
            g_branch(bad, 1)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            g_branch(5, 0)

    def test_every_branch_is_a_forward_preimage(self):
        for u in range(1, 200, 2):
            if u % 3 == 0:
                continue
            for n in range(1, 9):
                v = g_branch(u, n)
                expected_e = 2 * n if u % 3 == 1 else 2 * n - 1
                assert f_step(v) == (u, expected_e)


class TestRawBranch:
    """The raw kernel checks no argument, but keeps its divisibility check."""

    def test_matches_g_branch(self):
        # class 2, n = 3: exponent 5
        assert inverse._raw_branch(5, 5) == g_branch(5, 3) == 53

    def test_wrong_multiple_form_raises(self, monkeypatch):
        # g_branch checks its child against z_3 + 2^5 * (5 div 3), here 22 + 32
        monkeypatch.setattr(inverse, "z_term", lambda n: 22)
        with pytest.raises(InconsistencyError,
                           match="^child of 5 at index 3: 53 != multiple form 54$"):
            g_branch(5, 3)

    def test_indivisible_raises(self):
        # 2^2 * 5 - 1 = 19: an exponent of the wrong parity for class 2
        with pytest.raises(InconsistencyError, match="not divisible by 3"):
            inverse._raw_branch(5, 2)


class TestBranchForms:
    def test_all_routes_agree_small_grid(self):
        for u in range(1, 120, 2):
            if u % 3 == 0:
                continue
            for n in range(1, 12):
                forms = branch_forms(u, n)
                vals = set(forms.values())
                assert len(vals) == 1, (u, n, forms)
                assert vals.pop() == g_branch(u, n)

    def test_literal_summation_route(self):
        # independent recomputation of the summation form, term by term
        u, n = 11, 5
        v1 = g_branch(u, 1)
        acc = sum(2 ** (2 * i - 1) for i in range(1, n))
        assert branch_forms(u, n)["summation"] == u * acc + v1


class TestInitialVertex:
    """The least child g_branch(u, 1), the paper's initial vertex."""

    def test_descending_for_class_two(self):
        assert g_branch(5, 1) == 3

    def test_ascending_for_class_one(self):
        assert g_branch(7, 1) == 9

    def test_root_closes_on_itself(self):
        assert g_branch(1, 1) == 1

    def test_position_rule(self):
        # the closed forms with mu = u div 3 put v_1 above a class-1 parent
        # and below a class-2 one
        for u in range(5, 3000, 2):
            if u % 3 == 0:
                continue
            v1, mu = g_branch(u, 1), u // 3
            if u % 3 == 1:
                assert v1 == u + mu and v1 > u
            else:
                assert v1 == u - (mu + 1) and 2 * v1 == u + mu and v1 < u

    def test_leaf_parent_rejected(self):
        with pytest.raises(LeafParentError):
            g_branch(15, 1)


class TestSiblings:
    def test_root_stream_by_count(self):
        assert siblings(1, count=4).values() == [1, 5, 21, 85]

    def test_stream_by_bound(self):
        assert siblings(5, bound=100).values() == [3, 13, 53]

    def test_closed_form_second_term(self):
        fam = siblings(11, count=2)
        assert fam.values() == [7, 29]
        assert 29 == 2 * 11 + 7

    def test_strictly_ascending(self):
        vals = siblings(7, count=30).values()
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_larger_parent_values(self):
        assert siblings(85, count=3).values() == [113, 453, 1813]

    def test_indexed_stream(self):
        # a child's sibling index is its position in the run, from 1
        assert list(enumerate(siblings(5, count=3), 1)) == [(1, 3), (2, 13), (3, 53)]

    def test_reiterable(self):
        fam = siblings(5, count=3)
        assert list(fam) == list(fam)

    def test_exactly_one_stop_criterion(self):
        with pytest.raises(ValueError):
            siblings(5)
        with pytest.raises(ValueError):
            siblings(5, count=3, bound=100)
        with pytest.raises(ValueError):
            SiblingSet(5, count=3, bound=100)

    def test_leaf_parent_rejected(self):
        with pytest.raises(LeafParentError):
            siblings(21, count=2)

    def test_residues_cycle_with_period_three(self):
        for u in (1, 5, 7, 11, 13):
            vals = siblings(u, count=9).values()
            first = vals[0] % 3
            for i, v in enumerate(vals):
                assert v % 3 == (first + i) % 3


def _gap(u, n):
    """v_{n+1} - v_n through g_branch."""
    return g_branch(u, n + 1) - g_branch(u, n)


class TestGaps:
    @pytest.mark.parametrize("u,n,expected", [(1, 1, 4), (5, 1, 10), (7, 2, 112)])
    def test_known_gaps(self, u, n, expected):
        assert _gap(u, n) == expected

    def test_gap_matches_enumeration(self):
        for u in (7, 11, 25):
            vals = siblings(u, count=10).values()
            for n in range(1, 10):
                e = 2 * n if u % 3 == 1 else 2 * n - 1
                assert _gap(u, n) == vals[n] - vals[n - 1] == (1 << e) * u

    def test_leaf_parent_rejected(self):
        with pytest.raises(LeafParentError):
            _gap(27, 1)


class TestMultiples:
    def test_root_multiples_are_base_multiples(self):
        seq = multiples_sequence(1, 6)
        assert seq.terms == (0, 1, 7, 28, 113, 455)
        assert seq.all_match

    def test_class_two_parent(self):
        seq = multiples_sequence(5, 3)
        assert seq.terms == (1, 4, 17)
        assert seq.all_match

    def test_class_one_parent(self):
        seq = multiples_sequence(7, 3)
        assert seq.terms == (3, 12, 49)
        assert seq.all_match

    def test_first_child_in_class_two(self):
        # 13's first child is 17, residue 2, exercising the third closed branch
        seq = multiples_sequence(13, 4)
        assert seq.first_child_residue == 2
        assert seq.terms == (5, 23, 92, 369)
        assert seq.all_match

    def test_strictly_ascending(self):
        for u in (1, 5, 7, 11, 13, 17, 85):
            assert multiples_sequence(u, 20).strictly_ascending

    def test_closed_form_agreement_over_range(self):
        for u in range(1, 1000, 2):
            if u % 3 == 0:
                continue
            assert multiples_sequence(u, 12).all_match, u

    def test_terms_recompute_from_children(self):
        seq = multiples_sequence(7, 5)
        children = [v for _, v in zip(range(5), iter(siblings(7, count=5)))]
        assert seq.terms == tuple((v - v % 3) // 3 for v in children)

    def test_leaf_parent_rejected(self):
        with pytest.raises(LeafParentError):
            multiples_sequence(33, 3)


def _adjacent_initials(u):
    """First children of a class-1 parent u and of its successor sibling 1 + 4u."""
    return g_branch(u, 1), g_branch(1 + 4 * u, 1)


class TestAdjacentInitials:
    @pytest.mark.parametrize("u,expected", [(1, (1, 3)), (13, (17, 35)), (7, (9, 19))])
    def test_known_pairs(self, u, expected):
        assert _adjacent_initials(u) == expected

    def test_successor_identities(self):
        for u in range(1, 2000, 2):
            if u % 3 != 1:
                continue
            v1, v1_next = _adjacent_initials(u)
            successor = 1 + 4 * u
            assert (v1, v1_next) == (1 + 4 * (u // 3), 3 + 8 * (u // 3))
            assert successor % 3 == 2
            assert v1 == successor // 3
            assert v1_next == 1 + 2 * v1

    @pytest.mark.parametrize("bad", [5, 11, 3, 9])
    def test_rejects_wrong_class(self, bad):
        # a class-2 parent's successor sibling 1 + 4u is a multiple of 3, and
        # so is a class-0 "parent": neither has a first child
        with pytest.raises(LeafParentError):
            _adjacent_initials(bad)


class TestIterSiblings:
    def test_offset_start(self):
        stream = iter_siblings(1, first_index=2)
        assert next(stream) == (2, 5)
        assert next(stream) == (3, 21)
