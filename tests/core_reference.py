"""The residue split x = 3 mu + r and the valuation a(x): oracles of the inline arithmetic.

`OddInteger`/`decompose` and `valuation2` were public helpers of the
package, which reads a value's residue and multiple as `divmod(x, 3)` and
its exponent a(x) as the trailing-zero count of 3x + 1, `f_step(x)[1]`.
Here the split checks itself as a record, and the valuation halves until
the quotient is odd, so neither shares the package's expressions:
`test_core` compares `w_term` with the multiple of `z_term`, and
`test_forward` and `test_properties` compare the exponents of `f_step` and
`trajectory` with `valuation2`.
"""

from collatz_arbor._record import Record
from collatz_arbor.core import _require_box, _require_odd_positive


class OddInteger(Record):
    """An odd positive integer x split as x = 3*multiple + residue.

    The parity of the multiple is forced by oddness: residue 1 gives an even
    multiple, residues 0 and 2 give odd multiples (0, for x = 1, counts even).
    """

    __slots__ = ("value", "residue", "multiple")
    value: int
    residue: int
    multiple: int

    def __post_init__(self) -> None:
        _require_odd_positive(self.value, "value")
        if self.residue != self.value % 3:
            raise ValueError(f"residue {self.residue} is not {self.value} mod 3")
        if 3 * self.multiple + self.residue != self.value:
            raise ValueError(
                f"decomposition broken: 3*{self.multiple} + {self.residue} != {self.value}"
            )


def decompose(x: int) -> OddInteger:
    """Split an odd positive integer into (value, residue mod 3, multiple)."""
    _require_odd_positive(x)
    r = x % 3
    return OddInteger(x, r, (x - r) // 3)


def valuation2(m: int) -> int:
    """Largest a with 2^a dividing m, by halving.  Rejects odd or nonpositive input."""
    _require_box(2, m=m)
    if m % 2:
        raise ValueError(f"m must be even, got {m}")
    a = 0
    while m % 2 == 0:
        m //= 2
        a += 1
    return a
