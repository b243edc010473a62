"""Difference operators and the (cos theta - 1) multiplication identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlets import (
    CoeffSequence,
    multiply_cos_minus_one,
    multiply_cos_minus_one_power,
    zonal_series,
)
from needlets.differences import (
    first_difference_weight,
    second_difference_weight,
)
from oracles import cos_minus_one_reference

RNG = np.random.default_rng(20240812)

# signed zeros, and magnitudes from 1e-30 to 1e30 of either sign
COEFF = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, m, e: sign * m * 10.0 ** e,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0), st.integers(-30, 29)),
)
WINDOW = st.one_of(
    st.lists(COEFF, min_size=1, max_size=200),
    st.integers(1, 200).map(lambda n: [0.0] * n),
).map(np.array)


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
        assert out.values[0] != 0.0 or out.values[1] != 0.0

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


class TestFrozenReference:
    """The transform against `oracles.cos_minus_one_reference`, one step on
    a zero-padded copy of the window, applied n times."""

    @staticmethod
    def reference_power(offset, values, n):
        out = cos_minus_one_reference(offset, values)
        for _ in range(n - 1):
            out = cos_minus_one_reference(0, out)
        return out

    def assert_bits_of_reference(self, seq, n):
        out = multiply_cos_minus_one_power(seq, n)
        assert out.offset == 0
        ref = self.reference_power(seq.offset, seq.values, n)
        np.testing.assert_array_equal(out.values.view(np.int64), ref.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(WINDOW, st.integers(0, 6), st.integers(1, 6))
    def test_bits_of_the_reference_step(self, values, offset, n):
        self.assert_bits_of_reference(CoeffSequence(offset, values), n)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("offset", [0, 3])
    def test_one_element_window(self, offset, n):
        self.assert_bits_of_reference(CoeffSequence(offset, [-2.5e-7]), n)

    @pytest.mark.parametrize("n", [1, 4])
    def test_all_zero_window(self, n):
        seq = CoeffSequence(2, np.zeros(7))
        self.assert_bits_of_reference(seq, n)
        assert multiply_cos_minus_one_power(seq, n).values.size == 2 + 7 + n

    @pytest.mark.parametrize("transform", [multiply_cos_minus_one,
                                           lambda s: multiply_cos_minus_one_power(s, 3)])
    def test_empty_window_is_refused(self, transform):
        with pytest.raises(ValueError, match=r"^empty coefficient sequence$"):
            transform(CoeffSequence(4, []))

    @pytest.mark.parametrize("n", [0, -1])
    def test_power_below_one_is_refused(self, n):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            multiply_cos_minus_one_power(CoeffSequence(0, [1.0]), n)


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
