"""Difference operators and the (cos theta - 1) multiplication identity."""

import numpy as np
import pytest

from needlets import (
    CoeffSequence,
    multiply_cos_minus_one,
    multiply_cos_minus_one_power,
    zonal_series,
)
from needlets.differences import first_difference_weight, second_difference_weight

RNG = np.random.default_rng(20240812)


def series_value(seq: CoeffSequence, x: float) -> float:
    return zonal_series(seq.values, x, offset=seq.offset)


def loglog_slope(values: np.ndarray, offset: int, l_min: int, l_max: int) -> float:
    """Least-squares slope of log|a_l| against log l over [l_min, l_max]."""
    ls = np.arange(l_min, l_max + 1)
    vals = np.abs(values[l_min - offset:l_max - offset + 1])
    return float(np.polyfit(np.log(ls), np.log(vals), 1)[0])


class TestMultiplyCosMinusOne:
    def test_constant_tail_vanishes(self):
        values = np.r_[0.0, np.full(9, 3.0)]  # a_0 = 0, constant on l >= 1
        out = multiply_cos_minus_one(CoeffSequence(0, values))
        # both differences vanish on the constant stretch away from the edges
        assert np.max(np.abs(out.values[2:9])) == 0.0
        assert out[0] != 0.0 or out[1] != 0.0

    def test_identity_sequence_gives_first_difference_weight(self):
        seq = CoeffSequence(0, np.arange(12, dtype=float))
        out = multiply_cos_minus_one(seq)
        ls = np.arange(11)
        np.testing.assert_allclose(out.values[:11][1:-1], 1.0 / (2 * ls[1:-1] + 1.0),
                                   rtol=1e-14)

    def test_multiplication_identity(self):
        seq = CoeffSequence(0, RNG.normal(size=20))
        out = multiply_cos_minus_one(seq)
        for x in RNG.uniform(-1, 1, 50):
            lhs = series_value(out, x)
            rhs = (x - 1.0) * series_value(seq, x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_identity_with_offset_window(self):
        seq = CoeffSequence(3, RNG.normal(size=8))
        out = multiply_cos_minus_one(seq)
        for x in RNG.uniform(-1, 1, 10):
            assert series_value(out, x) == pytest.approx(
                (x - 1.0) * series_value(seq, x), abs=1e-11)

    def test_single_application_equals_power_one(self):
        seq = CoeffSequence(0, RNG.normal(size=10))
        one = multiply_cos_minus_one(seq)
        pow1 = multiply_cos_minus_one_power(seq, 1)
        np.testing.assert_array_equal(one.values, pow1.values)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_iterated_identity(self, n):
        seq = CoeffSequence(0, RNG.normal(size=20))
        out = multiply_cos_minus_one_power(seq, n)
        for x in RNG.uniform(-1, 1, 50):
            lhs = series_value(out, x)
            rhs = (x - 1.0) ** n * series_value(seq, x)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_decay_gain_two_orders_per_step(self):
        ls = np.arange(1, 4001, dtype=float)
        seq = CoeffSequence(1, ls ** -1.0)
        out = multiply_cos_minus_one_power(seq, 2)
        slope = loglog_slope(out.values, out.offset, 100, 1000)
        assert slope == pytest.approx(-5.0, abs=0.2)


class TestRecursionWeights:
    def test_values(self):
        assert second_difference_weight(3) == pytest.approx(3 / 7)
        assert first_difference_weight(3) == pytest.approx(1 / 7)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_difference_decay_orders(self, k):
        # k-fold differences of R and S decay like l^-(k+1)
        ls = np.arange(1, 1201, dtype=float)
        for weight in (second_difference_weight, first_difference_weight):
            slope = loglog_slope(np.diff(weight(ls), k), 1, 100, 1000)
            assert slope == pytest.approx(-(k + 1), abs=0.3)
