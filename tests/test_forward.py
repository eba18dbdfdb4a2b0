import pytest
from core_reference import valuation2

from collatz_arbor.forward import (
    TrajectoryRecord,
    f_step,
    trajectory,
    trajectory_summary,
)


class TestValuation:
    @pytest.mark.parametrize("m,expected", [(4, 2), (28, 2), (40, 3), (2, 1), (1 << 60, 60)])
    def test_known_values(self, m, expected):
        assert valuation2(m) == expected

    def test_quotient_is_odd(self):
        for m in range(2, 4000, 2):
            a = valuation2(m)
            assert m % (1 << a) == 0
            assert (m >> a) % 2 == 1

    @pytest.mark.parametrize("bad", [3, 1, 0, -4])
    def test_rejects_odd_or_nonpositive(self, bad):
        with pytest.raises(ValueError):
            valuation2(bad)


class TestStep:
    def test_fixed_point(self):
        assert f_step(1) == (1, 2)

    def test_examples(self):
        assert f_step(9) == (7, 2)    # 28 / 4
        assert f_step(13) == (5, 3)   # 40 / 8

    def test_image_is_odd(self):
        for x in range(1, 2001, 2):
            y, a = f_step(x)
            assert y % 2 == 1
            assert a >= 1
            assert (3 * x + 1) == y << a

    def test_image_residue_of_lifted_classes(self):
        # starts in 3, 7, 11 mod 12 always map into class 2 mod 3
        for x in range(3, 5000, 2):
            if x % 12 in (3, 7, 11):
                assert f_step(x)[0] % 3 == 2

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            f_step(8)


class TestTrajectory:
    def test_identity_orbit(self):
        record = trajectory(1)
        assert record.values == (1,)
        assert record.exponents == ()
        assert record.length == 0
        assert record.converged

    def test_orbit_of_nine(self):
        record = trajectory(9)
        assert record.values == (9, 7, 11, 17, 13, 5, 1)
        assert record.exponents == (2, 1, 1, 2, 3, 4)
        assert record.length == 6
        assert record.converged

    def test_orbit_of_fifteen(self):
        record = trajectory(15)
        assert record.values == (15, 23, 35, 53, 5, 1)
        assert record.length == 5
        assert record.converged

    def test_step_consistency(self):
        record = trajectory(27)
        for x, a, nxt in zip(record.values, record.exponents, record.values[1:]):
            assert 3 * x + 1 == nxt << a
            assert nxt % 2 == 1
            assert a == valuation2(3 * x + 1)

    def test_budget_exhaustion_is_not_an_error(self):
        record = trajectory(27, max_steps=3)
        assert not record.converged
        assert record.length == 3
        assert record.values[-1] != 1

    @pytest.mark.parametrize("bad", [True, 2.5, "3"])
    def test_budget_must_be_an_int(self, bad):
        # a bool once ran one step and a float three
        with pytest.raises(TypeError, match="max_steps must be an int"):
            trajectory(27, bad)
        with pytest.raises(TypeError, match="max_steps must be an int"):
            trajectory_summary(27, bad)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            TrajectoryRecord(9, (9, 7), (2,), converged=True)  # does not end at 1
        with pytest.raises(ValueError):
            TrajectoryRecord(9, (9, 7), (), converged=False)  # missing exponent


class TestSummary:
    def test_matches_full_record(self):
        for x in range(1, 501, 2):
            record = trajectory(x)
            summary = trajectory_summary(x)
            assert summary.length == record.length
            assert summary.peak == max(record.values)
            assert summary.converged == record.converged

    def test_peak_includes_start(self):
        assert trajectory_summary(5).peak == 5
