"""Needlet profile, kernel truncation and evaluation, localization, Calderon sums."""

import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlets import (
    DegreeCapExceeded,
    NumericFailure,
    KernelSpec,
    NeedletProfile,
    calderon_bounds,
    calderon_g,
    choose_lmax,
    kernel_eval,
    localization_check,
    make_kernel,
    power_spectrum,
    profile_eval,
    spectral_weights,
    sph_harm_flat_repeat,
)
import needlets.correlation as correlation_module
import needlets.kernels as kernels_module
from needlets.kernels import check_scale_grid, spread
from needlets.correlation import covariance_coefficients, covariance_sequence
from needlets.spectra import spectrum_eval
from needlets.defaults import DEFAULTS, DEGREE_CAP_ENV, degree_cap
from oracles import (dilation_sum, direct_series, profile_oracle, profile_reference,
                     worst_relative_error)

RNG = np.random.default_rng(20240814)


class TestProfile:
    def test_vanishes_at_zero(self):
        assert profile_eval(NeedletProfile(1), 0.0) == 0.0

    def test_value_at_one(self):
        assert profile_eval(NeedletProfile(1), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_critical_point_at_s_equals_r(self):
        p = NeedletProfile(2)
        h = 1e-3
        peak = profile_eval(p, 2.0)
        assert profile_eval(p, 2.0 - h) < peak
        assert profile_eval(p, 2.0 + h) < peak

    def test_log_space_survives_large_exponent(self):
        # s^r alone overflows (600^150 ~ 1e416) but s^r e^-s is representable
        with np.errstate(over="raise"):
            value = profile_eval(NeedletProfile(150), 600.0)
        assert math.isfinite(value)
        assert value == pytest.approx(math.exp(150 * math.log(600.0) - 600.0), rel=1e-12)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            NeedletProfile(0)

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            profile_eval(NeedletProfile(1), -0.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf, [1.0, math.nan]],
                             ids=["nan", "inf", "array-nan"])
    def test_non_finite_argument(self, s):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            profile_eval(NeedletProfile(1), s)

    # 0, subnormals, 1e-300..1e300 (the gaussian's s^2 overflows past 1.3e154),
    # and arguments near the peak, where r log s - s^p overflows exp at large r
    _ARGUMENTS = st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.3e154,
                         1.35e154, 1e300, 1.7976931348623157e308]),
        st.floats(0.0, 2.3e-308),
        st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-300, 299)),
        st.floats(0.0, 1000.0))

    @settings(max_examples=200, deadline=None)
    @given(r=st.integers(1, 400), f0=st.sampled_from(["exponential", "gaussian"]),
           s=st.lists(_ARGUMENTS, min_size=1, max_size=40))
    def test_bits_are_the_log_f0_formula(self, r, f0, s):
        # f0(s) = exp(-s^p) with one exponent per family gives the bits of
        # r log s + log f0(s) with log f0 = -s and -s * s
        s = np.array(s)
        want = profile_reference(r, f0, s)
        got = profile_eval(NeedletProfile(r, f0), s)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("r", [1, 3, 20])
    @pytest.mark.parametrize("f0, p, s_max", [("exponential", 1, 60.0), ("gaussian", 2, 8.0)],
                             ids=["exponential", "gaussian"])
    def test_matches_a_60_digit_oracle(self, f0, p, s_max, r):
        # exp(r log s - s^p) carries the rounding of its argument, about an ulp
        # of |r log s - s^p|; the bound is two ulps of the grid's largest
        # argument, 6.14e-14 at r = 20, 1.77 times the worst measured there
        # (gaussian: 3.47e-14)
        s = np.geomspace(1e-3, s_max, 2001)
        worst = worst_relative_error(profile_eval(NeedletProfile(r, f0), s),
                                     (profile_oracle(r, p, x) for x in s))
        assert worst <= 2 * np.finfo(float).eps * np.max(np.abs(r * np.log(s) - s ** p))


# The expressions each call site wrote out before `spectral_weights` and
# `sph_harm_flat_repeat` existed, kept as oracles for their bits.
def old_scale_weights(profile, t, L):
    """choose_lmax's _series_terms, make_kernel, covariance_coefficients and
    fields._profile_weights: f((t*t) l(l+1))."""
    ls = np.arange(1, L + 1, dtype=float)
    return profile_eval(profile, (t * t) * ls * (ls + 1.0))


def old_frame_factors(profile, a, j, L):
    """frames._profile_factors: f(a^(2j) l(l+1)) repeated per order."""
    ls = np.arange(1, L + 1, dtype=float)
    f = profile_eval(profile, a ** (2 * j) * ls * (ls + 1.0))
    return np.repeat(f, (2 * np.arange(1, L + 1)) + 1)


def old_coverage_term(profile, a, j, L):
    """The coverage loop of estimate_frame_bounds."""
    ls = np.arange(1, L + 1, dtype=float)
    f = profile_eval(profile, float(a) ** (2 * j) * ls * (ls + 1.0))
    return f * f


def old_sigma(spectrum, L):
    """fields._sigma_per_coefficient, without its c_l > 0 check."""
    ls = np.arange(1, L + 1)
    return np.repeat(np.sqrt(np.atleast_1d(spectrum_eval(spectrum, ls))), 2 * ls + 1)


PROFILES = [NeedletProfile(1), NeedletProfile(2), NeedletProfile(3, "gaussian")]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_at(profile, t, lmax):
    """The kernel of scale t truncated at an explicit degree lmax."""
    ls = np.arange(1, lmax + 1, dtype=float)
    return KernelSpec(profile=profile, t=t, lmax=lmax,
                      coeffs=spectral_weights(profile, t * t, lmax) * (2.0 * ls + 1.0))


class TestSpectralWeights:
    @pytest.mark.parametrize("profile", PROFILES, ids=str)
    def test_bits_match_old_site_expressions(self, profile):
        for t in (0.7, 0.3, 0.1, 0.033, 0.00625):
            lmax = choose_lmax(profile, t)
            for L in (1, 17, lmax):
                old = old_scale_weights(profile, t, L)
                assert same_bits(spectral_weights(profile, t * t, L), old)
                ls = np.arange(1, L + 1, dtype=float)
                if L == lmax:
                    assert same_bits(make_kernel(profile, t).coeffs, old * (2.0 * ls + 1.0))
                cov = covariance_coefficients(profile, power_spectrum(3.0), t, L).values
                assert same_bits(cov, old * old * ls ** -3.0)
        for a in (2.0, 1.5):
            for j in range(-7, 1):
                f = spectral_weights(profile, a ** (2 * j), 24)
                assert same_bits(sph_harm_flat_repeat(f), old_frame_factors(profile, a, j, 24))
                assert same_bits(f * f, old_coverage_term(profile, a, j, 24))

    @pytest.mark.parametrize("L", [1, 2, 30, 116])
    def test_flat_repeat_matches_old_expansions(self, L):
        f = spectral_weights(PROFILES[0], 0.01, L)
        assert same_bits(sph_harm_flat_repeat(f),
                         np.repeat(f, (2 * np.arange(1, L + 1)) + 1))
        spectrum = power_spectrum(3.0)
        c = np.atleast_1d(spectrum_eval(spectrum, np.arange(1, L + 1)))
        assert same_bits(sph_harm_flat_repeat(np.sqrt(c)), old_sigma(spectrum, L))
        assert sph_harm_flat_repeat(f).size == (L + 1) ** 2 - 1


class TestChooseLmax:
    @pytest.mark.parametrize("r, f0, squared", [(170, "exponential", False),
                                                (100, "exponential", True),
                                                (345, "gaussian", False)])
    def test_scan_past_the_double_range_is_numeric_failure(self, r, f0, squared):
        # the scan's total overflowed, and a truncation chosen on it gave a
        # wrong value (r = 170) or nan (r = 345 gaussian)
        power = "f^2" if squared else "f"
        with pytest.raises(NumericFailure, match=re.escape(
                f"series at t=0.1 for r={r} leaves the double range: "
                f"its terms {power} (2l+1) sum to inf")):
            choose_lmax(NeedletProfile(r, f0), 0.1, squared=squared)

    def test_profile_past_the_double_range_is_inf(self):
        # e^(-s) s^r at s = r leaves the double range from r = 172
        assert profile_eval(NeedletProfile(171), 171.0) < math.inf
        assert profile_eval(NeedletProfile(172), 172.0) == math.inf

    def test_monotone_in_eps(self):
        p = NeedletProfile(1)
        assert choose_lmax(p, 0.1, 1e-12) >= choose_lmax(p, 0.1, 1e-8)

    def test_halving_t_roughly_doubles(self):
        p = NeedletProfile(1)
        l1 = choose_lmax(p, 0.1, 1e-10)
        l2 = choose_lmax(p, 0.05, 1e-10)
        assert abs(l2 - 2 * l1) <= 0.2 * 2 * l1

    def test_tail_bound_verified_by_brute_force(self):
        p = NeedletProfile(1)
        t, eps = 0.5, 1e-12
        lmax = choose_lmax(p, t, eps)
        ls = np.arange(1, 4 * lmax + 1, dtype=float)
        s = t * t * ls * (ls + 1.0)
        terms = np.abs(s * np.exp(-s)) * (2 * ls + 1)
        dropped = terms[lmax:].sum()
        retained = terms[:lmax].sum()
        assert dropped <= eps * retained

    def test_degree_cap_exceeded(self, monkeypatch):
        monkeypatch.setenv(DEGREE_CAP_ENV, "64")
        with pytest.raises(DegreeCapExceeded):
            choose_lmax(NeedletProfile(1), 0.01, 1e-12)

    @pytest.mark.parametrize("r, t, eps, lmax", [(1, 0.05, 1e-16, 93),
                                                 (2, 0.0125, 1e-15, 387)])
    def test_eps_near_double_rounding_gets_its_exact_degree(self, r, t, eps, lmax):
        # total - cumsum could not resolve a tail this small and refused it
        # as below its rounding floor; the tail summed from the top resolves it
        assert choose_lmax(NeedletProfile(r), t, eps, squared=True) == lmax

    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("t", [1e-6, 1e-12, 1e-300, 5e-324])
    def test_tiny_scale_stops_at_the_cap_before_allocating(self, count_calls, t, squared):
        # the scan used to start at 6 sqrt(r) / t degrees, past any bound: a
        # 6e6-degree scan at 1e-6, 43.7 TiB at 1e-12, OverflowError at 5e-324
        widths = count_calls(kernels_module, "spectral_weights")
        with pytest.raises(DegreeCapExceeded, match="does not settle below degree 262144"):
            choose_lmax(NeedletProfile(1), t, squared=squared)
        assert widths == []

    def test_scan_bound_follows_the_cap(self, monkeypatch, count_calls):
        monkeypatch.setenv(DEGREE_CAP_ENV, "64")
        widths = count_calls(kernels_module, "spectral_weights")
        with pytest.raises(DegreeCapExceeded):
            choose_lmax(NeedletProfile(1), 1e-4)
        assert all(lmax <= 64 * 64 for _, _, lmax in widths)

    def test_floor_of_eight(self):
        assert choose_lmax(NeedletProfile(1), 5.0, 1e-6) >= 8

    def test_underflowed_scan_meets_the_cap(self, monkeypatch):
        # at t = 100 every term underflows; degree 8 used to be returned
        # before the cap was checked
        assert choose_lmax(NeedletProfile(1), 100.0) == 8
        monkeypatch.setenv(DEGREE_CAP_ENV, "4")
        with pytest.raises(DegreeCapExceeded,
                           match="^t=100.0 needs lmax=8, above the configured cap 4$"):
            choose_lmax(NeedletProfile(1), 100.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
    def test_rejects_bad_scale(self, t):
        with pytest.raises(ValueError, match="scale t must be finite and > 0"):
            choose_lmax(NeedletProfile(1), t)
        with pytest.raises(ValueError, match="scale t must be finite and > 0"):
            make_kernel(NeedletProfile(1), t)


class TestWeightsOnlyInTheScan:
    """make_kernel and covariance_sequence take f(t^2 l(l+1)) from their
    truncation scan; each used to evaluate the L kept weights once more."""

    @pytest.mark.parametrize("r, f0, t", [(1, "exponential", 0.2), (1, "exponential", 0.01),
                                          (3, "gaussian", 0.05), (1, "exponential", 100.0)])
    def test_only_the_scan_evaluates_weights(self, count_calls, r, f0, t):
        profile = NeedletProfile(r, f0)
        counted = [count_calls(module, "spectral_weights")
                   for module in (kernels_module, correlation_module)]

        def calls(fn, *args, **kwargs):
            for c in counted:
                c.clear()
            fn(*args, **kwargs)
            return [call for c in counted for call in c]

        assert calls(make_kernel, profile, t) == calls(choose_lmax, profile, t)
        assert (calls(covariance_sequence, profile, power_spectrum(3.0), t)
                == calls(choose_lmax, profile, t, squared=True))

    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("r, f0, t", [(1, "exponential", 0.2), (2, "exponential", 0.0125),
                                          (4, "gaussian", 0.003), (1, "exponential", 100.0)])
    def test_scan_weights_have_the_bits_of_their_own_evaluation(self, r, f0, t, squared):
        # the scan's window is wider than L; its first L weights are the ones
        # a call at width L gives
        profile = NeedletProfile(r, f0)
        f = kernels_module._truncate(profile, t, None, squared)
        assert f.tobytes() == spectral_weights(profile, t * t, f.size).tobytes()


def log_uniform(lo: float, hi: float):
    """Numbers between lo and hi, spread in log rather than crowding simple
    values such as 1.0 the way floats drawn on a log range would."""
    return st.floats(0.0, 1.0).map(lambda u: lo * (hi / lo) ** u)


def exact_sum(values) -> Fraction:
    """The exact sum of doubles, each an integer multiple of 2^-1074."""
    unit = 1 << 1074
    return Fraction(sum(n * (unit // d) for n, d in map(float.as_integer_ratio, values)), unit)


class TestExactTailRule:
    """choose_lmax returns the smallest L >= 8 whose dropped tail is at most
    eps times what it keeps, summed exactly over the scanned weights
    |f|^p (2l+1) for l up to 4 max(L, 64).  The one allowance is the scan's
    own stop margin: it ignores terms past the degree where a term falls
    below 1e-6 eps times the total, so either side of the rule may move by
    1e-6 eps total."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(r=st.integers(1, 4), f0=st.sampled_from(["exponential", "gaussian"]),
           t=log_uniform(0.002, 3.0), squared=st.booleans(), eps=log_uniform(1e-20, 1e-2))
    def test_degree_is_the_smallest_that_meets_the_rule(self, r, f0, t, squared, eps):
        # the largest L of this domain, about 3850 at r = 4, t = 0.002 and
        # eps = 1e-20, is below the degree cap
        self.check_exact_rule(NeedletProfile(r, f0), t, eps, squared)

    @pytest.mark.parametrize("eps", [1e-318, 5e-324])
    @pytest.mark.parametrize("r, f0, t", [(1, "exponential", 0.2), (3, "gaussian", 0.05)])
    def test_margin_that_underflows_still_stops_the_scan(self, r, f0, t, eps):
        # 1e-6 * eps * total rounds to 0 here, and the scan used to run on to
        # 64 times the cap looking for a term below it
        self.check_exact_rule(NeedletProfile(r, f0), t, eps, squared=False)

    @staticmethod
    def check_exact_rule(profile, t, eps, squared):
        lmax = choose_lmax(profile, t, eps, squared=squared)
        top = 4 * max(lmax, 64)
        f = spectral_weights(profile, t * t, top)
        g = (f * f if squared else np.abs(f)) * (2 * np.arange(1, top + 1) + 1)
        total = exact_sum(g.tolist())
        margin = Fraction(1e-6) * Fraction(eps) * total

        def excess(L):
            """Exact dropped tail minus eps times what L keeps."""
            kept = exact_sum(g[:L].tolist())
            return total - kept - Fraction(eps) * kept

        assert lmax >= 8
        assert excess(lmax) <= margin
        if lmax > 8:
            assert excess(lmax - 1) > -margin


class TestDegreeCapOverride:
    def test_default_without_override(self, monkeypatch):
        monkeypatch.delenv(DEGREE_CAP_ENV, raising=False)
        assert degree_cap() == DEFAULTS["degree_cap"]

    def test_integer_override(self, monkeypatch):
        monkeypatch.setenv(DEGREE_CAP_ENV, "128")
        assert degree_cap() == 128

    @pytest.mark.parametrize("raw", ["abc", "", "1.5", "0", "-3"])
    def test_bad_override_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv(DEGREE_CAP_ENV, raw)
        message = f"{DEGREE_CAP_ENV}={raw!r} must be an integer >= 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            degree_cap()


class TestKernelEval:
    def test_positive_at_coincidence(self):
        spec = make_kernel(NeedletProfile(1), 0.3)
        value = kernel_eval(spec, 1.0)
        assert value == pytest.approx(spec.coeffs.sum(), rel=1e-15)
        assert value > 0

    def test_against_brute_force_oracle(self):
        spec = make_kernel(NeedletProfile(1), 0.5)
        ref = direct_series(1, 0.5, 0.9, 1, 2 * spec.lmax)
        assert kernel_eval(spec, 0.9) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("r,t", [(1, 0.4), (1, 0.1), (2, 0.2), (3, 0.3)])
    def test_truncation_contract(self, r, t):
        p = NeedletProfile(r)
        base = make_kernel(p, t)
        doubled = kernel_at(p, t, 2 * base.lmax)
        for cg in RNG.uniform(-1, 1, 20):
            v1, v2 = kernel_eval(base, cg), kernel_eval(doubled, cg)
            assert abs(v1 - v2) <= 1e-10 * abs(kernel_eval(base, 1.0))

    def test_scale_doubling_ratio_approaches_four(self):
        # K_t(x,x) ~ t^-2, so halving t quadruples the coincidence value
        p = NeedletProfile(1)
        errors = []
        for t in (0.2, 0.1, 0.05):
            ratio = kernel_eval(make_kernel(p, t / 2), 1.0) / kernel_eval(make_kernel(p, t), 1.0)
            assert ratio == pytest.approx(4.0, abs=0.4)
            errors.append(abs(ratio - 4.0))
        assert errors == sorted(errors, reverse=True)

    def test_domain_error(self):
        spec = make_kernel(NeedletProfile(1), 0.3)
        with pytest.raises(ValueError):
            kernel_eval(spec, 1.0 + 1e-9)

    def test_depends_only_on_inner_product(self):
        spec = make_kernel(NeedletProfile(1), 0.25)
        # rotated point pairs share cos_gamma, hence the identical value
        assert kernel_eval(spec, 0.42) == kernel_eval(spec, 0.42)
        batched = kernel_eval(spec, np.array([0.42, -0.1]))
        assert batched[0] == kernel_eval(spec, 0.42)

    @pytest.mark.parametrize("t", [0.1, 0.05, 0.025])
    def test_batched_equals_pointwise_at_the_ends(self, t):
        # x = +-1 and the clamped grid end cos(theta_min) are where P_l moves fastest
        spec = make_kernel(NeedletProfile(1), t)
        xs = [-1.0, 1.0, math.cos(DEFAULTS["theta_min"]), -math.cos(DEFAULTS["theta_min"]), 0.3]
        batched = kernel_eval(spec, xs)
        assert [float(v) for v in batched] == [kernel_eval(spec, x) for x in xs]


# The pass rules the five stability checks wrote out before `spread` existed.
# Three of them only ever saw finite values, because their callers raise first.
def old_localization(values, cap):
    lo, hi = min(values), max(values)
    ratio = hi / lo if lo > 0 else math.inf
    return all(map(math.isfinite, values)) and ratio <= cap


def old_variance_or_envelope(values, cap):
    lo, hi = float(np.min(values)), float(np.max(values))
    ratio = hi / lo if lo > 0 else math.inf
    return lo > 0 and ratio <= cap


def old_decay_fit(values, cap):
    lo, hi = float(np.min(values)), float(np.max(values))
    ratio = hi / lo if lo > 0 else math.inf
    return math.isfinite(hi) and ratio <= cap


def old_series_bound(values, cap):
    ratio = max(values) / min(values) if min(values) > 0 else math.inf
    return math.isfinite(ratio) and ratio <= cap


FINITE_EDGES = [[1.0, 10.0], [10.0, 1.0], [1.0, 10.000000001], [0.0, 1.0], [1.0, 0.0],
                [-1.0, 1.0], [-2.0, -1.0], [0.0, 0.0], [5.0], [1e-310, 1.0],
                [1e-300, 1e300], [2.0, 3.0, 4.0]]
NON_FINITE_EDGES = [[math.nan, 1.0], [1.0, math.nan], [1.0, math.inf], [math.inf, 1.0],
                    [-math.inf, 1.0], [math.inf, math.inf], [math.nan]]


class TestSpread:
    def test_ratio_and_extremes(self):
        assert spread([4.0, 2.0, 8.0], 10.0) == (2.0, 8.0, 4.0, True)
        assert spread([1.0, 10.0], 10.0)[3]  # the cap itself passes

    @pytest.mark.parametrize("values", [[0.0, 1.0], [-1.0, 2.0], [-3.0, -1.0], [0.0]])
    def test_vanished_minimum_is_infinite_and_fails(self, values):
        _, _, ratio, passed = spread(values, 10.0)
        assert ratio == math.inf
        assert not passed

    @pytest.mark.parametrize("values", NON_FINITE_EDGES)
    def test_non_finite_value_fails(self, values):
        lo, _, ratio, passed = spread(values, 10.0)
        assert not passed
        assert math.isnan(lo) or not math.isfinite(ratio)

    def test_nan_reaches_the_minimum(self):
        assert math.isnan(spread([1.0, math.nan, 2.0], 10.0)[0])

    @pytest.mark.parametrize("values", FINITE_EDGES + NON_FINITE_EDGES)
    def test_agrees_with_every_old_rule(self, values):
        passed = spread(values, 10.0)[3]
        assert passed == old_localization(values, 10.0)
        assert passed == old_decay_fit(values, 10.0)
        if all(map(math.isfinite, values)):
            assert passed == old_series_bound(values, 10.0)
            assert passed == old_variance_or_envelope(values, 10.0)


class TestScaleGrid:
    @pytest.mark.parametrize("grid", [[0.1, math.nan], [math.inf, 0.1], [0.2, 0.0, 0.1]])
    def test_every_scale_is_checked(self, grid):
        with pytest.raises(ValueError, match="scale t must be finite and > 0"):
            check_scale_grid(grid)

    def test_bad_scale_after_a_good_one_is_caught_before_any_kernel(self):
        with pytest.raises(ValueError, match="scale t must be finite"):
            localization_check(NeedletProfile(1), [0.0001, math.nan], 3)


class TestLocalization:
    def test_single_term_kernel_finite(self):
        p = NeedletProfile(1)
        spec = KernelSpec(profile=p, t=0.3, lmax=1, coeffs=np.array([3.0]))
        thetas = np.linspace(0.3, math.pi, 200)
        vals = kernel_eval(spec, np.cos(thetas))
        sup = np.max(0.3 ** 2 * np.abs(vals) * (thetas / 0.3) ** 3)
        assert math.isfinite(sup)

    def test_uniform_over_scales(self):
        rep = localization_check(NeedletProfile(1), [0.4, 0.2, 0.1, 0.05], 3)
        assert rep.passed
        assert rep.ratio <= 10.0

    def test_sup_past_the_double_range_is_numeric_failure(self):
        # (theta/t)^200 overflows at t = 0.05 only
        with pytest.raises(NumericFailure, match=re.escape(
                "localization sup at t=0.05 is inf: t^2 |K_t| (theta/t)^200 leaves")):
            localization_check(NeedletProfile(1), [0.4, 0.2, 0.1, 0.05], 200)

    def test_larger_exponent_grows_but_stays_uniform(self):
        rep3 = localization_check(NeedletProfile(1), [0.4, 0.2, 0.1, 0.05], 3)
        rep5 = localization_check(NeedletProfile(1), [0.4, 0.2, 0.1, 0.05], 5)
        assert min(rep5.sups) > max(rep3.sups)
        assert rep5.passed


class TestCalderon:
    def test_periodicity(self):
        p = NeedletProfile(1)
        lam = np.array([1.0, 1.37, 2.2, 3.1, 3.9])
        g1 = calderon_g(p, 2.0, lam)
        g2 = calderon_g(p, 2.0, 4.0 * lam)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    @pytest.mark.parametrize("a", [2.0, 1.5])
    def test_periodic_over_every_period(self, a):
        # the walk over j once started where it does for lambda in [1, a^2),
        # so at a = 2 a lambda past about 1483 or below 8e-159 gave 0.0
        p = NeedletProfile(1)
        lams = 1.7 * a ** (2.0 * np.arange(-100, 101))
        np.testing.assert_allclose([calderon_g(p, a, lam) for lam in lams],
                                   calderon_g(p, a, 1.7), rtol=1e-12)

    def test_scalar_is_its_entry_in_an_array(self):
        # the walk's stopping peak was shared across the array: at r = 4 it
        # changed 12 of the 512 period-grid entries in their last bits
        grid = np.geomspace(1.0, 4.0, DEFAULTS["calderon_grid_points"], endpoint=False)
        for r, lams in ((1, np.array([1.0, 1.5e3, 1e-200])), (4, grid)):
            p = NeedletProfile(r)
            one_by_one = np.array([calderon_g(p, 2.0, lam) for lam in lams])
            assert np.array_equal(one_by_one.view(np.int64),
                                  calderon_g(p, 2.0, lams).view(np.int64)), r

    # the worst error measured over the grid below is 1.09e-14 (r = 20,
    # a = 3, lam = 1): the terms' exp(2 (r log s - s^p)) amplifies the
    # rounding of an exponent near 60; the bound is 1.8 times that
    ORACLE_RTOL = 2e-14

    @pytest.mark.parametrize("r", [1, 4, 20])
    @pytest.mark.parametrize("f0, p", [("exponential", 1), ("gaussian", 2)])
    # past a = 1.2e77 the top term's a^(2j) lam leaves the double range near
    # the top of the period, where f is 0
    @pytest.mark.parametrize("a", [1.2, 2.0, 3.0, 1e78, 1e150])
    def test_matches_a_40_digit_sum(self, r, f0, p, a):
        for lam in (1.0, 1.37, 0.999 * a * a):
            want = dilation_sum(r, p, a, lam)
            got = calderon_g(NeedletProfile(r, f0), a, lam)
            assert abs(got - want) <= self.ORACLE_RTOL * want, (lam, got, float(want))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_lambda_must_be_finite_and_positive(self, lam):
        with pytest.raises(ValueError, match=r"^lambda must be finite and > 0$"):
            calderon_g(NeedletProfile(1), 2.0, lam)

    def test_bounds_positive_and_ordered(self):
        lo, hi = calderon_bounds(NeedletProfile(1), 2.0)
        assert 0 < lo <= hi

    def test_ratio_shrinks_toward_one(self):
        p = NeedletProfile(1)
        lo12, hi12 = calderon_bounds(p, 1.2)
        lo2, hi2 = calderon_bounds(p, 2.0)
        assert hi12 / lo12 < hi2 / lo2

    def test_dilation_must_exceed_one(self):
        with pytest.raises(ValueError):
            calderon_bounds(NeedletProfile(1), 1.0)

    def test_dilation_whose_square_leaves_the_double_range_is_refused(self):
        for call in (lambda a: calderon_g(NeedletProfile(1), a, 1.0),
                     lambda a: calderon_bounds(NeedletProfile(1), a)):
            with pytest.raises(ValueError, match=r"^dilation a=1e\+200 is too large: "
                                                 r"its square a\^2 leaves the double range$"):
                call(1e200)

    # the worst error measured below is 9.23e-14 (exponential, r = 96,
    # lam = 1): the exponents r log s - s^p reach the hundreds here; the
    # bound is 1.6 times that
    LARGE_R_RTOL = 1.5e-13

    @pytest.mark.parametrize("r, f0, p, a", [(128, "gaussian", 2, 2.0),
                                             (96, "exponential", 1, 4.0)])
    def test_matches_a_40_digit_sum_at_large_r(self, r, f0, p, a):
        # here the window [s_lo, s_hi] is narrower than a step a^2, so a lam
        # can have no term inside it; its neighbours outside must still count.
        # The exponential r stays below 128, where max f^2 leaves the double
        # range.  A walk from the exponential family's peak s = r found only
        # zeros of the gaussian f at r = 128
        for lam in (1.0, 1.37, 0.999 * a * a):
            want = dilation_sum(r, p, a, lam)
            got = calderon_g(NeedletProfile(r, f0), a, lam)
            assert abs(got - want) <= self.LARGE_R_RTOL * want, (lam, got, float(want))

    def test_walk_longer_than_the_cap_is_refused_unstarted(self):
        # at a = 1 + 2e-9 the sum over j would take 5.63e9 terms, for hours
        code = ("import sys\n"
                "from needlets import NeedletProfile, calderon_bounds\n"
                "try:\n"
                "    calderon_bounds(NeedletProfile(1), 1 + 2e-9)\n"
                "except ValueError as exc:\n"
                "    sys.exit(str(exc))\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=10)
        assert res.returncode == 1
        assert res.stderr == ("the dilation sum at a=1.000000002 needs 5.63e+09 "
                              "terms, above the cap 1000000\n")

    def test_large_r_is_counted_exactly(self):
        # a lower bound on the count, ln(1/floor) / (4 r ln a), read 9.2e5 here
        # and admitted a sum of about 2.9e6 terms, about a minute of work
        code = ("from needlets import NeedletProfile, calderon_bounds\n"
                "calderon_bounds(NeedletProfile(20), 1 + 5e-7)\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=10)
        assert res.returncode == 1
        assert res.stderr.endswith("ValueError: the dilation sum at a=1.0000005 needs "
                                   "2.86e+06 terms, above the cap 1000000\n")

    @pytest.mark.parametrize("r, terms", [(1, "5.63e+06"), (4, "1.91e+06")])
    def test_walk_is_sized_from_r_and_a(self, r, terms):
        # the scales j that bring a^(2j) lam, lam in [1, a^2), into [s_lo, s_hi]
        with pytest.raises(ValueError, match="^" + re.escape(
                f"the dilation sum at a=1.000002 needs {terms} terms")):
            calderon_g(NeedletProfile(r), 1 + 2e-6, 1.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 1.0, 0.5])
    def test_dilation_must_be_finite_and_exceed_one(self, a):
        # a NaN used to reach int() in calderon_bounds, and pass calderon_g's check
        p = NeedletProfile(1)
        with pytest.raises(ValueError, match=r"^dilation a must be finite and > 1$"):
            calderon_bounds(p, a)
        with pytest.raises(ValueError, match=r"^dilation a must be finite and > 1$"):
            calderon_g(p, a, 1.0)
