import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from core_reference import OddInteger, decompose
from collatz_arbor.core import BaseSequences, base_sequences, w_term, z_term

indices = st.integers(min_value=1, max_value=300)


def _piecewise_w(n):
    """w_n by the piecewise sum selected by n mod 3.

        n == 0 (mod 3):  7 * sum 4^(3(i-1))        for i = 1 .. n/3
        n == 1 (mod 3):  7 * sum 4^(3(i-1)+1)      for i = 1 .. (n-1)/3
        n == 2 (mod 3):  1 + 7 * sum 4^(3(i-1)+2)  for i = 1 .. (n-2)/3
    """
    r = n % 3
    base = 1 if r == 2 else 0
    return base + 7 * sum(4 ** (3 * (i - 1) + r) for i in range(1, (n - r) // 3 + 1))


class TestDecompose:
    def test_base_case(self):
        assert decompose(1) == OddInteger(1, 1, 0)

    def test_direct_definition(self):
        assert decompose(5) == OddInteger(5, 2, 1)

    def test_member_of_base_sequence(self):
        # 85 sits in Z with multiple 28 sitting in W
        assert decompose(85) == OddInteger(85, 1, 28)
        assert z_term(4) == 85 and w_term(4) == 28

    @pytest.mark.parametrize("bad", [0, -3, 4, 100])
    def test_rejects_even_or_nonpositive(self, bad):
        with pytest.raises(ValueError):
            decompose(bad)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            decompose(5.0)

    def test_roundtrip_range(self):
        for x in range(1, 20_001, 2):
            d = decompose(x)
            assert 3 * d.multiple + d.residue == x

    def test_multiple_parity_by_class(self):
        for x in range(1, 20_001, 2):
            d = decompose(x)
            if d.residue == 1:
                assert d.multiple % 2 == 0
            else:
                assert d.multiple % 2 == 1

    def test_invalid_record_rejected(self):
        with pytest.raises(ValueError):
            OddInteger(7, 1, 3)  # 3*3+1 != 7
        with pytest.raises(ValueError):
            OddInteger(7, 0, 2)  # wrong residue


class TestZ:
    def test_first_terms(self):
        assert [z_term(n) for n in range(1, 6)] == [1, 5, 21, 85, 341]

    def test_recurrence(self):
        for n in range(1, 200):
            assert z_term(n + 1) == 1 + 4 * z_term(n)

    def test_strictly_ascending(self):
        terms = [z_term(n) for n in range(1, 100)]
        assert all(a < b for a, b in zip(terms, terms[1:]))

    def test_large_index_exceeds_fixed_width(self):
        assert z_term(64) > 2**64
        assert 3 * z_term(200) + 1 == 1 << 400

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_bad_index(self, bad):
        with pytest.raises(ValueError):
            z_term(bad)

    @given(indices)
    def test_closed_form_is_the_geometric_sum(self, n):
        assert z_term(n) == sum(4**i for i in range(n))

    def test_keeps_no_terms(self):
        # a memo of every term below n would hold about n^2 / 8 B: 18 MB for this 3 kB term
        tracemalloc.start()
        try:
            z_term(12_000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1 << 20


class TestW:
    def test_first_terms(self):
        assert [w_term(n) for n in range(1, 7)] == [0, 1, 7, 28, 113, 455]

    def test_matches_multiple_of_z(self):
        for n in range(1, 200):
            assert w_term(n) == decompose(z_term(n)).multiple

    def test_branch_selector_matches_z_residue(self):
        # the piecewise branch is picked by n mod 3, which must equal z_n mod 3
        for n in range(1, 200):
            assert z_term(n) % 3 == n % 3

    @given(indices)
    def test_piecewise_form(self, n):
        assert w_term(n) == _piecewise_w(n)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            w_term(0)


class TestBaseSequences:
    def test_prefix(self):
        seqs = base_sequences(6)
        assert isinstance(seqs, BaseSequences)
        assert seqs.z == {1: 1, 2: 5, 3: 21, 4: 85, 5: 341, 6: 1365}
        assert seqs.w == {1: 0, 2: 1, 3: 7, 4: 28, 5: 113, 6: 455}

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            base_sequences(0)
