import math
from fractions import Fraction

import numpy as np
import pytest

from bclab.seqcore import (
    GeometricSeq,
    PowerLogSeq,
    RealSeq,
    TabulatedSeq,
    constant_seq,
    from_json,
    huber,
    is_number,
    json_list,
    json_value,
    partial_sums,
    power_seq,
    to_json,
)

# Oracle: harmonic sum computed in exact rational arithmetic.
HARMONIC_10 = float(sum(Fraction(1, k) for k in range(1, 11)))  # 7381/2520


class TestHuber:
    def test_pinned_values(self):
        assert huber(0.0) == 0.0
        assert huber(1.0) == 0.5
        assert huber(-3.0) == 2.5

    def test_junction_continuity(self):
        for x in (1.0, -1.0):
            assert abs(huber(x) - 0.5 * x * x) < 1e-15
            assert abs(huber(x) - (abs(x) - 0.5)) < 1e-15

    def test_bounds_on_grid(self):
        x = np.linspace(-5, 5, 1001)
        f = huber(x)
        assert np.all(f >= 0)
        assert np.all(f <= 0.5 * x * x + 1e-15)
        assert np.all(f <= np.abs(x) + 1e-15)

    def test_derivative_is_1_lipschitz(self):
        # Central differences on a 1000-point grid; slopes of f' differ by
        # at most the x-spacing.
        x = np.linspace(-4, 4, 1000)
        h = 1e-6
        fprime = (huber(x + h) - huber(x - h)) / (2 * h)
        dx = x[1] - x[0]
        assert np.all(np.abs(np.diff(fprime)) <= dx + 1e-9)

    def test_even_and_convex(self):
        x = np.linspace(0, 7, 500)
        assert np.allclose(huber(x), huber(-x))
        f = huber(np.linspace(-6, 6, 2001))
        assert np.all(np.diff(f, 2) >= -1e-12)


class TestPartialSums:
    def test_harmonic_prefix(self):
        v = power_seq(1.0, 1.0)
        e = partial_sums(v, 10)
        assert e.eval(10) == pytest.approx(HARMONIC_10, abs=1e-12)
        assert e.eval(1) == 1.0

    def test_zero_sequence(self):
        e = partial_sums(constant_seq(0.0), 7)
        assert e.eval(7) == 0.0

    def test_ones(self):
        e = partial_sums(constant_seq(1.0), 5)
        assert e.eval(5) == 5.0
        assert np.all(np.diff(e.values) >= 0)

    def test_respects_start_zero(self):
        v = GeometricSeq(1.0, 0.5, start=0)
        e = partial_sums(v, 3)
        assert e.start == 0
        assert e.eval(2) == pytest.approx(1 + 0.5 + 0.25)


class TestClosedFormAnswers:
    def test_series_verdicts(self):
        assert power_seq(1.0, 2.0).series_converges() is True
        assert power_seq(1.0, 0.5).series_converges() is False
        assert power_seq(1.0, 1.0).series_converges() is False
        assert PowerLogSeq(c=1, p=1, q=2, shift=1).series_converges() is True
        assert PowerLogSeq(c=1, p=0, q=1, shift=2).series_converges() is False

    def test_limit_kinds(self):
        assert power_seq(1.0, 0.3).limit_kind() == "zero"
        assert power_seq(1.0, -0.3).limit_kind() == "inf"
        assert constant_seq(2.0).limit_kind() == "const"
        assert PowerLogSeq(c=1, p=0, q=1, shift=2).limit_kind() == "zero"

    def test_zero_coefficient_is_zero_where_the_power_overflows(self):
        # n**400 is inf from n = 6 on, and 0 * inf would be nan
        v = PowerLogSeq(c=0, p=-400)
        assert v.limit_kind() == "zero"
        assert v.array(1, 100).tolist() == [0.0] * 100
        assert v.eval(50) == 0.0

    def test_algebraic_helpers(self):
        v = power_seq(2.0, 0.5)
        w = v.powered(2.0)
        assert w.eval(9) == pytest.approx(4.0 / 9.0)
        s = v.scaled_by_power(0.5)
        assert s.eval(16) == pytest.approx(2.0)

    def test_json_round_trip(self):
        for v in (
            power_seq(2.0, 0.5),
            PowerLogSeq(c=1, p=0, q=1, shift=2),
            GeometricSeq(0.7, 0.3, start=0),
            TabulatedSeq(np.array([3.0, 2.0, 1.0])),
        ):
            w = from_json(to_json(v), RealSeq)
            assert np.allclose(w.array(w.start, w.start + 2), v.array(v.start, v.start + 2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_readers_refuse_non_finite_numbers(bad):
    # json.loads reads NaN and +-Infinity as floats; no bclab file holds them
    assert not is_number(bad)
    with pytest.raises(ValueError, match="x must be a JSON number, not"):
        json_value("x", bad, float)
    with pytest.raises(ValueError, match="xs must be a list of JSON numbers"):
        json_list("xs", [0.5, bad], float)
    assert is_number(2) and is_number(-0.5)
    assert json_value("x", 2, float) == 2.0
    assert json_list("xs", [1, 0.5], float) == [1, 0.5]
