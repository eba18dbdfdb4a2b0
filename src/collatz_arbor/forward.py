"""Forward accelerated Collatz map and trajectory generation.

The map sends an odd x to (3x + 1) / 2^a with a the full power of two in
3x + 1, so iterates stay odd.  This module is the independent oracle against
which the inverse construction is validated.
"""

from __future__ import annotations

from ._record import Record
from .core import _require_box, _require_odd_positive
from .defaults import DEFAULT_MAX_STEPS

__all__ = [
    "f_step",
    "trajectory",
    "trajectory_summary",
    "TrajectoryRecord",
    "TrajectorySummary",
    "DEFAULT_MAX_STEPS",
]


def f_step(x: int) -> tuple[int, int]:
    """One application: returns ((3x + 1) / 2^a, a) with the quotient odd.

    a is the paper's a(x), the trailing-zero count of 3x + 1, which
    trajectory and the sweeps compute inline.
    """
    _require_odd_positive(x)
    t = 3 * x + 1
    a = (t & -t).bit_length() - 1
    return t >> a, a


class TrajectoryRecord(Record):
    """A forward orbit x0, x1, ..., xk with the exponent spent at each step.

    exponents[i] is the power of two divided out going from values[i] to
    values[i + 1]; length k counts applications of the map, so the identity
    orbit of 1 has length 0.
    """

    __slots__ = ("start", "values", "exponents", "converged")
    start: int
    values: tuple[int, ...]
    exponents: tuple[int, ...]
    converged: bool

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != self.start:
            raise ValueError("values must begin at start")
        if len(self.values) != len(self.exponents) + 1:
            raise ValueError("need exactly one exponent per step")
        if self.converged and self.values[-1] != 1:
            raise ValueError("converged orbit must end at 1")

    @property
    def length(self) -> int:
        return len(self.exponents)


class TrajectorySummary(Record):
    """Orbit statistics without the orbit itself, for bulk sweeps."""

    __slots__ = ("start", "length", "peak", "converged")
    start: int
    length: int
    peak: int
    converged: bool


def trajectory(x0: int, max_steps: int = DEFAULT_MAX_STEPS) -> TrajectoryRecord:
    """Iterate the map from x0 until 1 is reached or the budget runs out.

    Budget exhaustion is a normal outcome (converged=False), not an error.
    The arguments are checked once; each step is f_step's arithmetic, inlined.
    """
    _require_odd_positive(x0, "x0")
    _require_box(max_steps=max_steps)
    values = [x0]
    exponents: list[int] = []
    x = x0
    for _ in range(max_steps):
        if x == 1:
            break
        t = 3 * x + 1
        a = (t & -t).bit_length() - 1
        x = t >> a
        values.append(x)
        exponents.append(a)
    return TrajectoryRecord(x0, tuple(values), tuple(exponents), x == 1)


def trajectory_summary(x0: int, max_steps: int = DEFAULT_MAX_STEPS) -> TrajectorySummary:
    """Like trajectory() but retains only (length, peak); O(1) memory."""
    _require_odd_positive(x0, "x0")
    _require_box(max_steps=max_steps)
    x = x0
    peak = x0
    steps = 0
    while x != 1 and steps < max_steps:
        t = 3 * x + 1
        x = t >> ((t & -t).bit_length() - 1)
        if x > peak:
            peak = x
        steps += 1
    return TrajectorySummary(x0, steps, peak, x == 1)
