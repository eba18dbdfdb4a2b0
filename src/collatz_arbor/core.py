"""Exact integer arithmetic: the base sequences Z, W, and the package's argument checks.

Everything here is plain ``int`` arithmetic (arbitrary precision); the terms of
Z grow like 4^n / 3, so fixed-width types are out of the question.
"""

from __future__ import annotations

from ._record import Record

__all__ = ["z_term", "w_term", "BaseSequences", "base_sequences"]


def _require_int(x: object, what: str) -> None:
    """Reject a bool or a non-int with a TypeError that names it."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} must be an int, got {type(x).__name__}")


def _require_odd_positive(x: int, what: str = "x") -> None:
    _require_int(x, what)
    if x < 1:
        raise ValueError(f"{what} must be positive, got {x}")
    if x % 2 == 0:
        raise ValueError(f"{what} must be odd, got {x}")


def _require_box(least: int = 1, **sizes: int) -> None:
    """Each named size (n, count, parent_bound, ...) must be an int >= least."""
    for what, size in sizes.items():
        _require_int(size, what)
        if size < least:
            raise ValueError(f"{what} must be >= {least}, got {size}")


def z_term(n: int) -> int:
    """n-th term of Z: (2^(2n) - 1) / 3, equal to 1 + 4 + ... + 4^(n-1).

    Nothing is kept between calls: callers that need a row of terms keep it.
    """
    _require_box(n=n)
    return ((1 << (2 * n)) - 1) // 3


def w_term(n: int) -> int:
    """n-th term of W: the multiple of z_n, (z_n - z_n mod 3) / 3 = z_n div 3."""
    return z_term(n) // 3


class BaseSequences(Record):
    """Materialized prefixes of Z and W, keyed by index n >= 1."""

    __slots__ = ("z", "w")
    z: dict[int, int]
    w: dict[int, int]


def base_sequences(count: int) -> BaseSequences:
    """First `count` terms of both base sequences."""
    _require_box(count=count)
    return BaseSequences(
        z={n: z_term(n) for n in range(1, count + 1)},
        w={n: w_term(n) for n in range(1, count + 1)},
    )
