"""Analytic covariance/correlation and the decay machinery around them."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import needlets.correlation as correlation_module
from needlets import (
    CoeffSequence,
    CorrelationQuery,
    DecayHypothesisError,
    DegreeCapExceeded,
    NeedletProfile,
    NumericFailure,
    analytic_correlation,
    analytic_covariance,
    choose_lmax,
    correlation_decay_check,
    correlation_series,
    covariance_coefficients,
    covariance_sequence,
    fit_correlation_decay,
    least_integer_above,
    legendre_series,
    points_cos_angle,
    power_spectrum,
    profile_eval,
    spectrum_eval,
    tabulated_spectrum,
    variance_scaling_check,
    zonal_decay_bound,
    zonal_series,
)
from needlets.legendre import X_DOMAIN_TOL, _check_x
from oracles import direct_correlation, direct_series

RNG = np.random.default_rng(20240815)
PROFILE = NeedletProfile(1)
SPECTRUM = power_spectrum(3.0)
# c_l = 1e308, and the error for it at r = 1, t = 0.2, whichever check sums the series
HUGE = tabulated_spectrum(range(1, 4000), [1e308] * 3999, 3.0)
VARIANCE_OVERFLOW = ("variance at t=0.2 for r=1 leaves the double range: "
                     "the terms c_l f^2 (2l+1) sum to inf")


class TestLeastIntegerAbove:
    def test_half_integers(self):
        assert least_integer_above(1.5) == 2
        assert least_integer_above(-0.5) == 1  # clamped into the positive integers

    def test_exact_integer_goes_up(self):
        assert least_integer_above(3.0) == 4


class TestCovariance:
    def test_positive_at_coincidence(self):
        q = CorrelationQuery(PROFILE, SPECTRUM, 0.2, 1.0)
        assert analytic_covariance(q) > 0

    def test_rotated_pairs_agree(self):
        # two point pairs with the same inner product give the same covariance
        x1, y1 = (0.7, 0.2), (1.1, 1.9)
        cg = points_cos_angle(x1, y1)
        d = math.acos(cg)
        x2, y2 = (math.pi / 2, 0.3), (math.pi / 2, 0.3 + d)
        assert points_cos_angle(x2, y2) == pytest.approx(cg, abs=1e-15)
        v1 = analytic_covariance(CorrelationQuery(PROFILE, SPECTRUM, 0.2, cg))
        v2 = analytic_covariance(CorrelationQuery(PROFILE, SPECTRUM, 0.2,
                                                  points_cos_angle(x2, y2)))
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_against_brute_force(self):
        q = CorrelationQuery(PROFILE, SPECTRUM, 0.2, 0.0)
        ref = direct_series(1, 0.2, 0.0, 2, 6000, alpha=3.0)
        assert analytic_covariance(q) == pytest.approx(ref, rel=1e-10)

    def test_degenerate_variance_raises_where_the_correlation_does(self):
        # at t = 50 every retained coefficient underflows; this returned 0.0
        q = CorrelationQuery(PROFILE, SPECTRUM, 50.0, 0.3)
        with pytest.raises(NumericFailure, match="^variance degenerate at t=50.0: 0.0; "):
            analytic_covariance(q)

    def test_degenerate_variance_at_coincidence_is_the_variance(self):
        assert analytic_covariance(CorrelationQuery(PROFILE, SPECTRUM, 50.0, 1.0)) == 0.0


class TestCovarianceSeries:
    XS = [-1.0, -0.95, -0.3, 0.0, 0.42, 0.9, 0.995, 1.0]

    @pytest.mark.parametrize("r,alpha,t", [(1, 3.0, 0.2), (1, 3.0, 0.0125), (2, 4.0, 0.05)])
    def test_matches_pointwise_series_bit_for_bit(self, r, alpha, t):
        # the one-point formula the engine used before it was batched
        profile, spectrum = NeedletProfile(r), power_spectrum(alpha)
        lmax = choose_lmax(profile, t, squared=True)
        ls = np.arange(1, lmax + 1, dtype=float)
        f = profile_eval(profile, (t * t) * ls * (ls + 1.0))
        coeffs = f * f * spectrum_eval(spectrum, ls) * (2.0 * ls + 1.0)
        batched, _ = correlation_series(profile, spectrum, t, self.XS)
        for x, value in zip(self.XS, batched):
            assert value == legendre_series(coeffs, x, offset=1)
            assert value == analytic_covariance(CorrelationQuery(profile, spectrum, t, x))

    def test_one_scan_and_one_series_per_call(self, count_calls):
        scans = count_calls(correlation_module, "_truncate")
        series = count_calls(correlation_module, "zonal_series")
        correlation_series(PROFILE, SPECTRUM, 0.1, self.XS)
        assert (len(scans), len(series)) == (1, 1)
        analytic_correlation(CorrelationQuery(PROFILE, SPECTRUM, 0.1, 0.3))
        assert (len(scans), len(series)) == (2, 2)


class TestScaleDomain:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -0.2])
    def test_query_rejects_bad_scale(self, t):
        with pytest.raises(ValueError, match="scale t must be finite and > 0"):
            CorrelationQuery(PROFILE, SPECTRUM, t, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_coefficients_reject_non_finite_scale(self, t):
        with pytest.raises(ValueError, match="scale t must be finite and > 0"):
            covariance_coefficients(PROFILE, SPECTRUM, t, 30)


class TestCosGammaDomain:
    """A query accepts cos_gamma exactly where the Legendre routines accept x."""

    @pytest.mark.parametrize("edge", [1.0, -1.0])
    def test_within_tolerance_past_the_edge_is_clipped(self, edge):
        x = edge * (1.0 + 0.5 * X_DOMAIN_TOL)
        assert CorrelationQuery(PROFILE, SPECTRUM, 0.2, x).cos_gamma == edge
        assert _check_x(x) == edge

    @pytest.mark.parametrize("edge", [1.0, -1.0])
    def test_beyond_tolerance_is_rejected(self, edge):
        x = edge * (1.0 + 2.0 * X_DOMAIN_TOL)
        with pytest.raises(ValueError, match=r"^cos_gamma must lie in \[-1, 1\]$"):
            CorrelationQuery(PROFILE, SPECTRUM, 0.2, x)
        with pytest.raises(ValueError):
            _check_x(x)

    @pytest.mark.parametrize("cos_gamma", [math.nan, math.inf, -5.0, 1.0 + 2.0 * X_DOMAIN_TOL])
    def test_decay_fit_refuses_what_a_query_refuses(self, cos_gamma):
        # the fit used to clip NaN and -5 to -1, fit at d = pi and pass
        with pytest.raises(ValueError, match=r"^cos_gamma must lie in \[-1, 1\]$"):
            fit_correlation_decay(PROFILE, SPECTRUM, cos_gamma, [0.2, 0.1], [0.01, 0.001])
        with pytest.raises(ValueError, match=r"^cos_gamma must lie in \[-1, 1\]$"):
            correlation_decay_check(PROFILE, SPECTRUM, cos_gamma, [0.2, 0.1])

    def test_decay_fit_clips_within_tolerance(self):
        x = -1.0 - 0.5 * X_DOMAIN_TOL
        cors = [0.01, 0.001]
        assert (fit_correlation_decay(PROFILE, SPECTRUM, x, [0.2, 0.1], cors)
                == fit_correlation_decay(PROFILE, SPECTRUM, -1.0, [0.2, 0.1], cors))

    @pytest.mark.parametrize("edge", [1.0, -1.0])
    @pytest.mark.parametrize("inside", [0.5, 2.0])
    def test_inside_the_interval_keeps_its_bits(self, edge, inside):
        x = edge * (1.0 - inside * X_DOMAIN_TOL)
        assert float.hex(CorrelationQuery(PROFILE, SPECTRUM, 0.2, x).cos_gamma) == float.hex(x)
        assert float.hex(_check_x(x)) == float.hex(x)


class TestCorrelation:
    def test_exactly_one_at_coincidence(self):
        assert analytic_correlation(CorrelationQuery(PROFILE, SPECTRUM, 0.17, 1.0)) == 1.0

    def test_bounded_by_one_on_random_queries(self):
        for _ in range(100):
            q = CorrelationQuery(
                NeedletProfile(int(RNG.integers(1, 3))),
                power_spectrum(float(RNG.uniform(2.5, 5.5))),
                float(RNG.uniform(0.05, 0.5)),
                float(RNG.uniform(-1, 1)))
            assert abs(analytic_correlation(q)) <= 1.0

    def test_ratio_against_brute_force(self):
        q = CorrelationQuery(PROFILE, SPECTRUM, 0.1, 0.0)
        ref = (direct_series(1, 0.1, 0.0, 2, 6000, alpha=3.0)
               / direct_series(1, 0.1, 1.0, 2, 6000, alpha=3.0))
        assert analytic_correlation(q) == pytest.approx(ref, rel=1e-10)

    def test_degenerate_variance_raises(self):
        with pytest.raises(NumericFailure):
            analytic_correlation(CorrelationQuery(PROFILE, SPECTRUM, 50.0, 0.3))

    def test_coincident_point_is_refused_where_the_series_is(self):
        # cos gamma = 1 used to return 1.0 before the truncation was chosen
        with pytest.raises(DegreeCapExceeded):
            analytic_correlation(CorrelationQuery(PROFILE, SPECTRUM, 1e-7, 1.0))
        with pytest.raises(DegreeCapExceeded):
            correlation_series(PROFILE, SPECTRUM, 1e-7, [1.0])

    def test_coincident_point_of_a_degenerate_variance_is_one(self):
        assert analytic_correlation(CorrelationQuery(PROFILE, SPECTRUM, 50.0, 1.0)) == 1.0


class TestCorrelationSeries:
    XS = [-1.0, -0.3, 0.0, 0.42, 0.995, 1.0, 0.7]

    @pytest.mark.parametrize("r,alpha,t", [(1, 3.0, 0.2), (1, 3.0, 0.0125), (2, 4.0, 0.05)])
    def test_matches_analytic_correlation_bit_for_bit(self, r, alpha, t):
        profile, spectrum = NeedletProfile(r), power_spectrum(alpha)
        covs, cors = correlation_series(profile, spectrum, t, self.XS)
        for x, cov, cor in zip(self.XS, covs, cors):
            q = CorrelationQuery(profile, spectrum, t, x)
            assert float.hex(float(cov)) == float.hex(analytic_covariance(q))
            assert float.hex(float(cor)) == float.hex(analytic_correlation(q))

    def test_exactly_one_at_coincidence(self):
        _, cors = correlation_series(PROFILE, SPECTRUM, 0.17, [1.0, 0.3, 1.0])
        assert cors[0] == 1.0 and cors[2] == 1.0
        assert cors[1] < 1.0

    def test_one_scan_and_one_series(self, count_calls):
        scans = count_calls(correlation_module, "_truncate")
        series = count_calls(correlation_module, "zonal_series")
        correlation_series(PROFILE, SPECTRUM, 0.1, self.XS)
        assert (len(scans), len(series)) == (1, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.sampled_from(["exponential", "gaussian"]),
           st.floats(2.05, 8.0), st.floats(0.01, 2.0),
           st.lists(st.one_of(st.floats(-1.0, 1.0), st.floats(0.999999, 1.0),
                              st.sampled_from([-1.0, -1.0 + 2 ** -53, 0.0, 1.0 - 2 ** -53])),
                    min_size=1, max_size=8))
    def test_correlation_is_at_most_one_in_magnitude(self, r, f0, alpha, t, xs):
        # |P_l| <= 1 and every coefficient is positive, so |Cov(t, x)| <= Cov(t, 1)
        _, cors = correlation_series(NeedletProfile(r, f0), power_spectrum(alpha), t, xs)
        assert np.all(np.abs(cors) <= 1.0)

    def test_variance_past_the_double_range_is_numeric_failure(self):
        # c_l f^2 (2l+1) overflowed inside the series, which warned and then
        # reported a NaN variance as a "degenerate" one
        with pytest.raises(NumericFailure, match=re.escape(VARIANCE_OVERFLOW)):
            correlation_series(PROFILE, HUGE, 0.2, [0.5])

    def test_degenerate_variance_only_when_a_point_is_apart(self):
        # at t = 50 every retained coefficient underflows, so Cov(t, 1) = 0
        covs, cors = correlation_series(PROFILE, SPECTRUM, 50.0, [1.0, 1.0])
        assert covs.tolist() == [0.0, 0.0]
        assert cors.tolist() == [1.0, 1.0]
        message = ("variance degenerate at t=50.0: 0.0; "
                   "the scale is too large for every retained coefficient")
        with pytest.raises(NumericFailure) as exc:
            correlation_series(PROFILE, SPECTRUM, 50.0, [1.0, 0.3])
        assert str(exc.value) == message


class TestCovarianceSequence:
    @pytest.mark.parametrize("t", [0.4, 0.1, 0.0125])
    def test_is_the_coefficients_at_the_squared_truncation(self, t):
        seq = covariance_sequence(PROFILE, SPECTRUM, t, 1e-10)
        lmax = choose_lmax(PROFILE, t, 1e-10, squared=True)
        ref = covariance_coefficients(PROFILE, SPECTRUM, t, lmax)
        assert (seq.offset, seq.top) == (1, lmax)
        assert seq.values.tobytes() == ref.values.tobytes()

    def test_one_scan_per_call(self, count_calls):
        scans = count_calls(correlation_module, "_truncate")
        covariance_sequence(PROFILE, SPECTRUM, 0.1)
        assert scans == [(PROFILE, 0.1, None, True)]

    def test_variance_past_the_double_range_is_numeric_failure(self):
        # the one check of it: every sum of the series sits below its variance
        with pytest.raises(NumericFailure, match=re.escape(VARIANCE_OVERFLOW)):
            covariance_sequence(PROFILE, HUGE, 0.2)


class TestShortTable:
    """A tabulated spectrum that stops below the truncation degree used to
    read as zero past its end, and its correlations came out silently wrong."""

    def short(self, top):
        return tabulated_spectrum(range(1, top + 1), [l ** -3.0 for l in range(1, top + 1)], 3.0)

    def test_covariance_refuses_a_table_below_the_truncation(self):
        with pytest.raises(ValueError, match="c_11;"):
            covariance_sequence(PROFILE, self.short(10), 0.05)
        with pytest.raises(ValueError, match="c_11;"):
            correlation_series(PROFILE, self.short(10), 0.05, [0.0])

    def test_coincident_point_refuses_a_table_below_the_truncation(self):
        # cos gamma = 1 used to return 1.0 here while 0.9 raised
        for cos_gamma in (1.0, 0.9):
            with pytest.raises(ValueError, match="c_11;"):
                analytic_correlation(CorrelationQuery(PROFILE, self.short(10), 0.05, cos_gamma))

    def test_table_covering_the_truncation_matches_the_power_law(self):
        t = 0.05
        top = choose_lmax(PROFILE, t, squared=True)
        _, cors = correlation_series(PROFILE, self.short(top), t, [0.0])
        _, ref = correlation_series(PROFILE, SPECTRUM, t, [0.0])
        assert cors.tobytes() == ref.tobytes()

    def test_nan_value_is_refused(self):
        nan_table = tabulated_spectrum([1, 2, 3], [1.0, math.nan, 0.037], 3.0)
        with pytest.raises(ValueError, match="c_2;"):
            covariance_coefficients(PROFILE, nan_table, 0.2, 3)


class TestCovarianceCoefficients:
    def test_degree_zero_reads_zero(self):
        # the window starts at degree 1: a_0 lies outside it, so it reads zero
        seq = covariance_coefficients(PROFILE, SPECTRUM, 0.2, 30)
        assert seq.offset == 1

    def test_two_path_equality(self):
        for t in (0.4, 0.1):
            lmax = choose_lmax(PROFILE, t, squared=True)
            seq = covariance_coefficients(PROFILE, SPECTRUM, t, lmax)
            for cg in (-0.8, 0.0, 0.9, 1.0):
                via_series = zonal_series(seq.values, cg, offset=1)
                direct = analytic_covariance(CorrelationQuery(PROFILE, SPECTRUM, t, cg))
                assert direct == pytest.approx(via_series, rel=1e-12)

    def test_decay_slope_matches_envelope(self):
        t = 0.05
        lmax = choose_lmax(PROFILE, t, squared=True)
        seq = covariance_coefficients(PROFILE, SPECTRUM, t, lmax)
        lo, hi = lmax // 4, lmax // 2
        ls = np.arange(lo, hi + 1, dtype=float)
        window = np.abs(seq.values[lo - seq.offset:hi - seq.offset + 1])
        slope = np.polyfit(np.log(ls), np.log(window), 1)[0]
        # envelope oracle: t^(4r) (l(l+1))^(2r) e^(-2 t^2 l(l+1)) l^(-alpha)
        lam = ls * (ls + 1.0)
        env = t ** 4 * lam ** 2 * np.exp(-2 * t * t * lam) * ls ** -3.0
        env_slope = np.polyfit(np.log(ls), np.log(env), 1)[0]
        assert slope == pytest.approx(env_slope, abs=1e-8)


class TestZonalDecayBound:
    def test_single_degree_support(self):
        n, sup = zonal_decay_bound(CoeffSequence(5, np.array([2.0])), 0.0)
        assert n == 2
        assert math.isfinite(sup) and sup > 0

    def test_cubic_tail_order_one(self):
        ls = np.arange(1, 2001, dtype=float)
        n, sup = zonal_decay_bound(CoeffSequence(1, ls ** -3.0), -1.0)
        assert n == 1
        assert math.isfinite(sup)

    def test_covariance_family_uniform_over_scales(self):
        sups = []
        for t in (0.4, 0.2, 0.1, 0.05):
            lmax = choose_lmax(PROFILE, t, squared=True)
            seq = covariance_coefficients(PROFILE, SPECTRUM, t, lmax)
            n, sup = zonal_decay_bound(seq, 1.0)
            assert n == 2
            sups.append(sup)
        assert max(sups) / min(sups) <= 10.0

    def test_hypothesis_guard(self):
        with pytest.raises(ValueError):
            zonal_decay_bound(CoeffSequence(1, np.ones(5)), -2.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_is_refused(self, mu):
        # NaN used to fail inside numpy's integer conversion, inf with OverflowError
        with pytest.raises(ValueError, match="need a finite mu with mu \\+ 2 > 0"):
            zonal_decay_bound(CoeffSequence(1, np.ones(5)), mu)

    def test_scale_invariance(self):
        lmax = choose_lmax(PROFILE, 0.2, squared=True)
        seq = covariance_coefficients(PROFILE, SPECTRUM, 0.2, lmax)
        doubled = CoeffSequence(seq.offset, 2.0 * seq.values)
        assert zonal_decay_bound(seq, 1.0) == zonal_decay_bound(doubled, 1.0)

    def test_zero_sequence(self):
        n, sup = zonal_decay_bound(CoeffSequence(1, np.zeros(4)), 0.5)
        assert sup == 0.0

    def test_overflowing_growth_constant_is_numeric_failure(self):
        # 1e308 * 2^1 overflows: the rescaled sequence would be all zeros
        with pytest.raises(NumericFailure, match="growth constant of sequence 0 is inf"):
            zonal_decay_bound(CoeffSequence(1, np.array([1e300, 1e308])), -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_series_is_numeric_failure(self, bad):
        # degree 0 stays out of the growth constant but enters the series
        seq = CoeffSequence(0, np.array([bad, 1.0, 0.5]))
        with pytest.raises(NumericFailure, match="series bound of sequence 1 is not finite"):
            correlation_module.zonal_decay_bounds(
                [CoeffSequence(1, np.array([1.0, 0.5])), seq], 1.0)


class TestVarianceScaling:
    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_stable_over_grid(self, alpha):
        rep = variance_scaling_check(PROFILE, power_spectrum(alpha),
                                     [0.2, 0.1, 0.05, 0.025])
        assert rep.passed
        assert rep.infimum > 0
        assert rep.ratio <= 10.0

    def test_single_scale_trivially_passes(self):
        rep = variance_scaling_check(PROFILE, SPECTRUM, [0.1])
        assert rep.passed and rep.ratio == 1.0

    def test_overflowing_variance_is_numeric_failure(self):
        # the coefficients c_l f^2 (2l+1) overflow and the series sums to NaN,
        # which used to be reported as the scaled variances
        with pytest.raises(NumericFailure, match=re.escape(VARIANCE_OVERFLOW)):
            variance_scaling_check(PROFILE, HUGE, [0.2, 0.1])


    def test_scale_factor_past_the_double_range_is_numeric_failure(self):
        # t^(2 - alpha) = 40^198 raised OverflowError, a traceback in `verify`
        ones = tabulated_spectrum(range(1, 4000), [1.0] * 3999, 200.0)
        with pytest.raises(NumericFailure, match="^scaled variance at t=0.025 is inf$"):
            variance_scaling_check(NeedletProfile(50), ones, [0.2, 0.025])


class TestCorrelationDecay:
    def test_bound_constant_past_the_double_range_is_numeric_failure(self):
        # t^-139 at t = 0.003125 overflowed with a RuntimeWarning
        with pytest.raises(NumericFailure, match=re.escape(
                "bound constant at t=0.003125, d=0.9999999999999999 for r=35 leaves")):
            fit_correlation_decay(NeedletProfile(35), SPECTRUM, math.cos(1.0),
                                  [0.00625, 0.003125], [1e-16, 1e-16])

    def test_exponent_arithmetic(self):
        rep = correlation_decay_check(PROFILE, SPECTRUM, 0.0, [0.2, 0.1])
        assert rep.predicted_exponent == 3.0
        assert rep.n_exponent == 2

    def test_slope_on_reference_grid_frozen_value(self):
        # frozen from two independent computations (library and the 50-digit
        # mpmath sum in TestMpmathOracle); the coarse 0.4 endpoint drags it below 3
        rep = correlation_decay_check(PROFILE, SPECTRUM, 0.0, [0.4, 0.2, 0.1, 0.05])
        assert rep.fitted_slope == pytest.approx(2.3641171409, abs=1e-6)
        assert rep.bound_ratio <= 10.0

    def test_slope_on_asymptotic_grid(self):
        rep = correlation_decay_check(PROFILE, SPECTRUM, 0.0, [0.2, 0.1, 0.05, 0.025])
        assert rep.fitted_slope >= 2.5
        assert rep.passed

    def test_r2_alpha4_suite(self):
        rep = correlation_decay_check(NeedletProfile(2), power_spectrum(4.0),
                                      0.0, [0.4, 0.2, 0.1, 0.05])
        assert rep.predicted_exponent == 6.0
        assert rep.n_exponent == 4
        assert rep.fitted_slope >= 5.5
        assert rep.bound_ratio <= 10.0
        assert rep.passed

    def test_slow_decay_regime(self):
        # 4r + 2 = 6 > 5.9 keeps the hypothesis alive; the tiny exponent 0.1
        # turns the slope check into little more than qualitative decrease
        rep = correlation_decay_check(PROFILE, power_spectrum(5.9), 0.0,
                                      [0.1, 0.05, 0.025, 0.0125])
        assert rep.predicted_exponent == pytest.approx(0.1)
        assert rep.n_exponent == 1
        assert rep.slope_passed
        assert np.all(np.diff(np.abs(rep.correlations)) < 0)

    def test_hypothesis_violation(self):
        with pytest.raises(DecayHypothesisError):
            correlation_decay_check(PROFILE, power_spectrum(7.0), 0.0, [0.2, 0.1])

    def test_fit_of_given_correlations_equals_check(self):
        # scales in any order; the fit pairs each with its correlation and sorts
        ts = [0.05, 0.2, 0.025, 0.1]
        cors = [analytic_correlation(CorrelationQuery(PROFILE, SPECTRUM, t, 0.0)) for t in ts]
        fitted = fit_correlation_decay(PROFILE, SPECTRUM, 0.0, ts, cors)
        assert fitted == correlation_decay_check(PROFILE, SPECTRUM, 0.0, ts)
        assert fitted.t_grid == (0.2, 0.1, 0.05, 0.025)

    def test_fit_validates_before_looking_at_values(self):
        with pytest.raises(DecayHypothesisError):
            fit_correlation_decay(PROFILE, power_spectrum(7.0), 0.0, [0.2, 0.1], [0.1, 0.01])
        with pytest.raises(ValueError, match="too close"):
            fit_correlation_decay(PROFILE, SPECTRUM, 0.9999, [0.2, 0.1], [0.1, 0.01])
        with pytest.raises(ValueError, match="two scales"):
            fit_correlation_decay(PROFILE, SPECTRUM, 0.0, [0.2], [0.1])
        with pytest.raises(ValueError, match="one correlation per scale"):
            fit_correlation_decay(PROFILE, SPECTRUM, 0.0, [0.2, 0.1], [0.1])

    @pytest.mark.parametrize("bad", [-0.1, 0.0, math.nan])
    def test_fit_refuses_a_scale_outside_the_domain(self, bad, capfd):
        # these reached np.log: a RuntimeWarning, or LAPACK errors on stderr
        # and "SVD did not converge"
        with pytest.raises(ValueError, match="^scale t must be finite and > 0$"):
            fit_correlation_decay(PROFILE, SPECTRUM, 0.0, [0.2, bad], [0.1, 0.01])
        assert capfd.readouterr() == ("", "")

    def test_geometry_too_close(self):
        with pytest.raises(ValueError):
            correlation_decay_check(PROFILE, SPECTRUM, 0.9999, [0.2, 0.1])

    def test_fit_through_one_scale_is_refused(self):
        # a line through points at one scale has no slope; this used to return
        # 1.029, with numpy's RankWarning on stderr
        with pytest.raises(ValueError, match="two distinct scales"):
            correlation_decay_check(PROFILE, SPECTRUM, 0.0, [0.1, 0.1])
        # the fit takes the smallest fit_points scales; a larger one does not help
        with pytest.raises(ValueError, match="the 4 smallest scales are all t=0.1;"):
            fit_correlation_decay(PROFILE, SPECTRUM, 0.0, [0.4] + [0.1] * 4,
                                  [0.1, 0.01, 0.01, 0.01, 0.01])
        rep = correlation_decay_check(PROFILE, SPECTRUM, 0.0, [0.2, 0.2, 0.1])
        assert rep.t_grid == (0.2, 0.2, 0.1)


class TestMpmathOracle:
    T_GRID = (0.4, 0.2, 0.1, 0.05, 0.025)

    @pytest.mark.parametrize("r, alpha", [(1, 3.0), (2, 4.0)])
    def test_correlation_matches_direct_sum(self, r, alpha):
        for t in self.T_GRID:
            ref = float(direct_correlation(r, alpha, t, 0.0))
            q = CorrelationQuery(NeedletProfile(r), power_spectrum(alpha), t, 0.0)
            assert analytic_correlation(q) == pytest.approx(ref, rel=0, abs=1e-14)

    def test_reference_grid_slope_is_the_series_own(self):
        # the 2.364 of the (0.4, 0.2, 0.1, 0.05) fit belongs to the series
        # itself, not to the library's truncation or summation
        ts = self.T_GRID[:4]
        cors = [abs(float(direct_correlation(1, 3.0, t, 0.0))) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(cors), 1)[0]
        assert slope == pytest.approx(2.3641171409, abs=1e-6)
