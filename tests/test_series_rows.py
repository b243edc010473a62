"""The batched Legendre series: one recurrence for many coefficient rows.

Properties: every (row, point) value of `legendre_series_rows` has the bits
of the one-row `legendre_series` call and of a frozen copy of the series
loop, and the list forms of the verify checks equal their one-scale results
bit for bit.  An mpmath oracle bounds the series near x = +-1 at degrees up
to `degree_cap`.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needlets import (
    CoeffSequence,
    NeedletProfile,
    legendre_series,
    legendre_series_rows,
    localization_check,
    power_spectrum,
    variance_scaling_check,
    zonal_decay_bound,
    zonal_decay_bounds,
    zonal_series,
    zonal_series_rows,
)
from needlets.defaults import degree_cap
from needlets.errors import NumericFailure
from needlets.legendre import _legendre_p
from oracles import series_rows_reference

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# interior points plus the edges, where P_l(+-1) = (+-1)^l exactly
POINT = st.one_of(st.sampled_from([-1.0, 1.0, 0.0, -0.0]),
                  st.floats(-1.0, 1.0, allow_nan=False))
# ragged rows: empty, all-zero, one-term and general coefficient windows
ROW = st.one_of(
    st.lists(FINITE, min_size=0, max_size=40),
    st.integers(0, 30).map(lambda n: [0.0] * n),
    FINITE.map(lambda c: [c]),
).map(np.array)
OFFSET = st.sampled_from([0, 1])
# points, often all exactly 1, where the series is its compensated window sum
POINTS = st.one_of(st.lists(POINT, min_size=1, max_size=9),
                   st.integers(1, 9).map(lambda n: [1.0] * n))


def hexes(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


class TestRowsMatchOneRowCalls:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(ROW, OFFSET), min_size=1, max_size=6),
           st.lists(POINT, min_size=1, max_size=9))
    def test_shared_points(self, rows, xs):
        got = legendre_series_rows([CoeffSequence(o, c) for c, o in rows], np.array(xs))
        assert got.shape == (len(rows), len(xs))
        for (c, offset), values in zip(rows, got):
            assert hexes(values) == hexes(legendre_series(c, np.array(xs), offset))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(ROW, OFFSET, st.lists(POINT, min_size=1, max_size=9)),
                    min_size=1, max_size=6),
           POINT)
    def test_per_row_points_with_padding(self, rows, pad):
        width = max(len(xs) for _, _, xs in rows)
        points = np.full((len(rows), width), pad)
        for row, (_, _, xs) in zip(points, rows):
            row[:len(xs)] = xs
        got = legendre_series_rows([CoeffSequence(o, c) for c, o, _ in rows], points)
        for (c, offset, xs), values in zip(rows, got):
            assert hexes(values[:len(xs)]) == hexes(legendre_series(c, np.array(xs), offset))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(ROW, OFFSET), min_size=1, max_size=4), POINT)
    def test_scalar_point_and_zonal_rows(self, rows, x):
        got = zonal_series_rows([CoeffSequence(o, c) for c, o in rows], x)
        for (c, offset), values in zip(rows, got):
            assert hexes(values) == hexes([zonal_series(c, x, offset)])

    def test_empty_and_all_zero_rows_read_plus_zero(self):
        seqs = [CoeffSequence(0, []), CoeffSequence(1, np.zeros(5)), CoeffSequence(3, [0.0])]
        got = legendre_series_rows(seqs, [-1.0, 0.3, 1.0])
        assert hexes(got) == [float.hex(0.0)] * 9
        assert legendre_series_rows([], [0.5]).shape == (0, 1)

    def test_rejects_mismatched_shapes(self):
        two = [CoeffSequence(0, [1.0]), CoeffSequence(0, [2.0])]
        with pytest.raises(ValueError, match="one row per coefficient row"):
            legendre_series_rows(two, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="offset must be >= 0"):
            legendre_series([1.0], [0.5], -1)
        with pytest.raises(ValueError, match=r"arguments must lie in \[-1, 1\]"):
            legendre_series_rows(two[:1], [[math.nan]])

    def test_zonal_rows_must_be_1d(self):
        # the (2l + 1) product used to run first, and numpy refused to broadcast
        for call in (lambda: CoeffSequence(0, np.ones((2, 3))),
                     lambda: zonal_series(np.ones((2, 3)), 0.5),
                     lambda: legendre_series(np.ones((2, 3)), 0.5),
                     lambda: legendre_series(1.0, 0.5)):
            with pytest.raises(ValueError, match="^each coefficient row must be 1-d$"):
                call()


class TestFrozenReference:
    """The engine against `oracles.series_rows_reference`, which keeps one
    loop step per degree: a change that moves the engine's bits fails here,
    even where it moves the one-row calls with them."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(ROW, OFFSET), min_size=1, max_size=6), POINTS, st.booleans())
    # a term larger than the running sum: Fast2Sum (b - (s - a)) loses 1e-11
    @example(rows=[(np.array([1e-11, 1e6, -1e6]), 0)], xs=[1.0], per_row=False)
    # ten terms of 0.1: a pairwise total, not the sequential one, reads 1 ulp high
    @example(rows=[(np.full(10, 0.1), 0)], xs=[1.0], per_row=False)
    def test_bits_of_the_reference_loop(self, rows, xs, per_row):
        # per-row points are rotations of xs, one per window
        seqs = [CoeffSequence(o, c) for c, o in rows]
        x = np.array(xs)
        if per_row:
            x = np.array([np.roll(x, i) for i in range(len(seqs))])
        assert hexes(legendre_series_rows(seqs, x)) == hexes(series_rows_reference(seqs, x))


class TestNonFiniteWindow:
    """A window whose mass sum |a_l| is not finite is refused, never summed:
    TwoSum turned an overflowed partial sum into inf - inf = NaN."""

    # (call, index of the refused row): the row forms put a good row first
    ENTRIES = {
        "legendre_series": (legendre_series, 0),
        "zonal_series": (zonal_series, 0),
        "legendre_series_rows": (lambda v, x: legendre_series_rows(
            [CoeffSequence(0, [1.0]), CoeffSequence(0, v)], x), 1),
        "zonal_series_rows": (lambda v, x: zonal_series_rows(
            [CoeffSequence(1, []), CoeffSequence(0, v)], x), 1),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("values", [[1e308, 1e308], [1.0, math.nan], [math.inf, 1.0]],
                             ids=["overflowing", "nan", "inf"])
    @pytest.mark.parametrize("x", [[1.0, 0.5], [1.0]], ids=["loop", "at-one"])
    def test_is_numeric_failure(self, entry, values, x):
        call, row = self.ENTRIES[entry]
        with pytest.raises(NumericFailure, match=f"^series row {row} has coefficient mass "
                                                 r"(inf|nan)$"):
            call(np.array(values), np.array(x))


PROFILE, SPECTRUM = NeedletProfile(1), power_spectrum(3.0)


def _bound_or_failure(seq, mu):
    """`zonal_decay_bound(seq, mu)`, or None where it raises NumericFailure."""
    try:
        return zonal_decay_bound(seq, mu)
    except NumericFailure:
        return None
SCALES = (0.3, 0.13, 0.05, 0.021)


class TestListFormsMatchOneScale:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.lists(FINITE, min_size=1, max_size=30), OFFSET),
                    min_size=1, max_size=5),
           st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 4.0]))
    # a far sup that overflows: both forms refuse it
    @example(seqs=[([4784.0, 5.25220996e-304], 0)], mu=-1.0)
    # a subnormal growth constant (taken over l >= 1) overflows the l = 0 term
    @example(seqs=[([1.0, 2.225073858507203e-309], 0)], mu=-1.0)
    # a growth constant that underflows to 0
    @example(seqs=[([0.0, 5e-324], 1)], mu=4.0)
    def test_zonal_decay_bounds(self, seqs, mu):
        """The batched call raises NumericFailure exactly when some one-sequence
        call does, and otherwise matches every one of them bit for bit."""
        seqs = [CoeffSequence(o, np.array(v)) for v, o in seqs]
        ones = [_bound_or_failure(seq, mu) for seq in seqs]
        if any(one is None for one in ones):
            with pytest.raises(NumericFailure):
                zonal_decay_bounds(seqs, mu)
            return
        for one, bound in zip(ones, zonal_decay_bounds(seqs, mu)):
            assert bound.n_exponent == one.n_exponent
            assert float.hex(bound.sup_value) == float.hex(one.sup_value)

    @pytest.mark.parametrize("r", [1, 2])
    def test_localization_check(self, r):
        report = localization_check(NeedletProfile(r), SCALES, 3)
        for t, sup in zip(SCALES, report.sups):
            one = localization_check(NeedletProfile(r), [t], 3).sups[0]
            assert float.hex(sup) == float.hex(one)

    @pytest.mark.parametrize("alpha", [3.0, 4.5])
    def test_variance_scaling_check(self, alpha):
        spectrum = power_spectrum(alpha)
        report = variance_scaling_check(PROFILE, spectrum, SCALES)
        for t, value in zip(SCALES, report.scaled_variances):
            one = variance_scaling_check(PROFILE, spectrum, [t]).scaled_variances[0]
            assert float.hex(value) == float.hex(one)

    @pytest.mark.parametrize("check", [
        lambda: localization_check(PROFILE, [], 3),
        lambda: variance_scaling_check(PROFILE, SPECTRUM, []),
    ], ids=["localization", "variance"])
    def test_empty_scale_grid(self, check):
        with pytest.raises(ValueError, match="^empty scale grid$"):
            check()


U = 2.0 ** -53  # unit roundoff


def gamma(k):
    return k * U / (1.0 - k * U)


class TestSeriesMpmathOracle:
    """`legendre_series` against exact sums, near x = +-1, up to `degree_cap`.

    Products c_l P_l are rounded once and compensated summation adds at most
    u |S| + gamma_{n-1}^2 sum |p_l| (Ogita, Rump & Oishi 2005, Prop. 4.5), so
    with S = sum c_l P_l over the recurrence's own P_l

        |computed - S| <= u |S| + (u + 2 gamma_{n-1}^2) sum |c_l P_l|.

    The P_l are the recurrence's own (the scalar recurrence, which the
    one-term series matches bit for bit), and a separate check bounds them
    against mpmath's P_l.  At x = +-1 the recurrence is exact, so there
    the bound holds against the true series.  Plain summation breaks it.
    """

    POINTS = (1.0, -1.0, 1.0 - 2.0 ** -40, -(1.0 - 2.0 ** -40), 1.0 - 2.0 ** -20,
              -(1.0 - 2.0 ** -20), math.cos(1e-3), -math.cos(2.5e-4))

    @staticmethod
    def recurrence(x, top):
        """P_0(x) .. P_top(x) as the series loop computes them."""
        p = np.fromiter(_legendre_p(x, top), float, top + 1)
        for l in (0, 1, 2, top // 3, top):
            assert float.hex(legendre_series([1.0], x, offset=l)) == float.hex(p[l])
        return p

    def coefficient_sets(self, top):
        rng = np.random.default_rng(20261018)
        ls = np.arange(top + 1, dtype=float)
        return {
            "positive": rng.uniform(0.5, 1.5, top + 1),
            "signed": rng.normal(size=top + 1),
            "decaying": rng.uniform(0.5, 1.5, top + 1) * (2.0 * ls + 1.0) / (ls + 1.0) ** 3,
        }

    @pytest.mark.parametrize("x", POINTS)
    def test_series_within_summation_bound(self, x):
        top = degree_cap()
        p = self.recurrence(x, top)
        with mpmath.workprec(300):
            for name, c in self.coefficient_sets(top).items():
                exact = mpmath.fsum(mpmath.mpf(float(a)) * mpmath.mpf(float(b))
                                    for a, b in zip(c, p))
                got = legendre_series(c, x)
                abs_sum = float(np.sum(np.abs(c * p)))
                bound = U * abs(float(exact)) + (U + 2.0 * gamma(top) ** 2) * abs_sum
                assert abs(mpmath.mpf(got) - exact) <= bound, (name, x)

    @pytest.mark.parametrize("x", POINTS)
    def test_recurrence_against_mpmath(self, x):
        # near the poles the P_l carry the l(l+1)/2 ulps of x that
        # |P_l'| <= P_l'(1) = l(l+1)/2 allows (ROADMAP item 3); at +-1 they are exact
        top = degree_cap()
        p = self.recurrence(x, top)
        ls = np.arange(top + 1, dtype=float)
        with mpmath.workprec(300):
            xm = mpmath.mpf(x)
            exact = [mpmath.mpf(1), xm]
            for l in range(1, top):
                exact.append(((2 * l + 1) * xm * exact[l] - l * exact[l - 1]) / (l + 1))
            err = np.array([float(abs(mpmath.mpf(float(a)) - b)) for a, b in zip(p, exact)])
        if abs(x) == 1.0:
            assert not np.any(err)
        else:
            assert np.all(err <= U * ls * (ls + 1.0) / 2.0)
