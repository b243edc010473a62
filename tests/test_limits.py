"""The paper's small-scale limits in closed form, as oracles.

With f(s) = s^r f0(s) and P_l(cos theta) ~ J0((l + 1/2) theta) (Hilb /
Mehler-Heine), each sum over l becomes an integral with no t in it:

(a) for the exponential f0, f(s) = s^r e^(-s), a Hankel integral,

    t^2 K_t(cos(t u)) -> int 2 v^(2r+1) e^(-v^2) J0(u v) dv
                       = r! e^(-u^2/4) L_r(u^2/4)   (Gradshteyn & Ryzhik 6.631.10),

    the Mexican hat for r = 1, with an error of order t^2; for the gaussian
    f0, f(s) = s^r e^(-s^2), the same integral with e^(-v^4) in place of
    e^(-v^2), which has no closed form and is summed by mpmath quadrature;

(b) Cov(t, 1) t^(2 - alpha) -> K = int 2 v^(p-1) f0(v^2)^2 dv, p = 4r + 2 - alpha,

    for a power spectrum c_l = l^(-alpha), with a gap of order t; that is
    K = 2^(-p/2) Gamma(p/2) for the exponential f0 and
    K = 2^(-p/4) Gamma(p/4) / 2 for the gaussian f0(s) = e^(-s^2);

(c) Cor(t, cos gamma) / t^p -> C(gamma) = G(gamma) / K at gamma != 0, with

    G(gamma) = (cos gamma - 1)^(-N) sum_l (Delta^N b)_l (2l + 1) P_l(cos gamma),
    b_l = c_l (l(l+1))^(2r),

    Delta the three-term (cos theta - 1) rule of the paper applied N times to
    a sequence with no t in it, summed at 80 digits; the gap is of order t.

None of the targets is computed by the library, so they owe nothing to its
series, its truncation or its rounding.  Each tolerance is twice the largest
error measured on this grid (a margin of 2), written as a constant times t^2
for (a) and t for (b) and (c); the order itself is checked with a margin of 2
as well.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

from needlets import (
    NeedletProfile,
    correlation_series,
    kernel_eval,
    make_kernel,
    power_spectrum,
    variance_scaling_check,
)
from oracles import direct_correlation

T_GRID = (0.05, 0.0125, 0.003125)  # each a quarter of the one before
US = np.array([0.5, 1.0, 2.0, 3.0, 4.0])


def mexican_hat(r: int, u: np.ndarray) -> np.ndarray:
    """r! e^(-u^2/4) L_r(u^2/4), the t -> 0 limit of t^2 K_t(cos(t u))."""
    return math.factorial(r) * np.exp(-u * u / 4.0) * eval_laguerre(r, u * u / 4.0)


@functools.cache
def hankel_limit(r: int, power: int) -> np.ndarray:
    """int 2 v^(2r+1) e^(-v^power) J0(u v) dv at every u in US, by mpmath
    quadrature at 30 digits: the limit of t^2 K_t(cos(t u)) for the gaussian
    f0 with power 4, and for the exponential f0 with power 2."""
    mpmath = pytest.importorskip("mpmath")

    def integral(u):
        def integrand(v):
            return 2 * v ** (2 * r + 1) * mpmath.exp(-v ** power) * mpmath.besselj(0, u * v)
        return float(mpmath.quad(integrand, [0, 1, 2, 3, 4, 6, 10]))

    with mpmath.workdps(30):
        return np.array([integral(mpmath.mpf(float(u))) for u in US])


def kernel_limit(f0: str, r: int) -> np.ndarray:
    """The t -> 0 limit of t^2 K_t(cos(t u)) at every u in US."""
    return mexican_hat(r, US) if f0 == "exponential" else hankel_limit(r, 4)


def variance_floor(f0: str, r: int, alpha: float) -> float:
    """The t -> 0 limit of Cov(t, 1) t^(2 - alpha), p = 4r + 2 - alpha:
    2^(-p/2) Gamma(p/2) for the exponential f0, 2^(-p/4) Gamma(p/4) / 2 for
    the gaussian."""
    p = 4 * r + 2 - alpha
    if f0 == "exponential":
        return 2.0 ** (-p / 2.0) * math.gamma(p / 2.0)
    return 0.5 * 2.0 ** (-p / 4.0) * math.gamma(p / 4.0)


class TestKernelTendsToTheMexicanHat:
    # largest |error| / t^2 measured over US and T_GRID, per (f0, r)
    ERROR_PER_T2 = {
        ("exponential", 1): 0.18,  # 0.178
        ("exponential", 2): 0.25,  # 0.245
        ("exponential", 3): 0.62,  # 0.613
        ("exponential", 4): 1.9,  # 1.86
        ("gaussian", 1): 0.23,  # 0.2202
        ("gaussian", 2): 0.16,  # 0.1529
        ("gaussian", 3): 0.16,  # 0.1567
        ("gaussian", 4): 0.2,  # 0.1974
    }

    CASES = sorted(ERROR_PER_T2)
    # ids name f0 only where it is not the default
    IDS = [str(r) if f0 == "exponential" else f"{f0}-{r}" for f0, r in CASES]

    def errors(self, f0, r):
        profile = NeedletProfile(r, f0)
        errors = []
        for t in T_GRID:
            scaled = t * t * kernel_eval(make_kernel(profile, t), np.cos(t * US))
            errors.append(float(np.max(np.abs(scaled - kernel_limit(f0, r)))))
        return errors

    @pytest.mark.parametrize("f0, r", CASES, ids=IDS)
    def test_error_within_twice_the_measured_t_squared_constant(self, f0, r):
        for t, error in zip(T_GRID, self.errors(f0, r)):
            assert error <= 2.0 * self.ERROR_PER_T2[f0, r] * t * t

    @pytest.mark.parametrize("f0, r", CASES, ids=IDS)
    def test_error_falls_like_t_squared(self, f0, r):
        # a quarter of the scale takes the error down 16-fold; ask for 8
        errors = self.errors(f0, r)
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 8.0

    def test_r1_limit_is_the_mexican_hat(self):
        # L_1(v) = 1 - v, so the r = 1 target is e^(-u^2/4) (1 - u^2/4)
        np.testing.assert_allclose(mexican_hat(1, US),
                                   np.exp(-US ** 2 / 4.0) * (1.0 - US ** 2 / 4.0),
                                   rtol=1e-15, atol=1e-16)

    def test_quadrature_reproduces_the_closed_form(self):
        # the gaussian targets' method, run on the exponential f0 at r = 1
        np.testing.assert_allclose(hankel_limit(1, 2), mexican_hat(1, US), rtol=0, atol=1e-16)


class TestVarianceFloorTendsToAConstant:
    SCALES = (0.2,) + T_GRID
    # largest (S(t) / K - 1) / t measured over SCALES, per (f0, r, alpha)
    GAP_PER_T = {
        ("exponential", 1, 3.0): 3.1,  # 3.04
        ("exponential", 2, 4.0): 2.4,  # 2.35
        ("exponential", 3, 4.0): 1.6,  # 1.59
        ("exponential", 4, 5.0): 1.8,  # 1.73
        ("gaussian", 1, 3.0): 3.4,  # 3.34
        ("gaussian", 2, 4.0): 3.3,  # 3.20
        ("gaussian", 3, 4.0): 2.6,  # 2.52
        ("gaussian", 4, 5.0): 3.0,  # 2.99
    }

    CASES = sorted(GAP_PER_T)
    # ids name f0 only where it is not the default
    IDS = [f"{r}-{alpha}" if f0 == "exponential" else f"{f0}-{r}-{alpha}"
           for f0, r, alpha in CASES]

    def gaps(self, f0, r, alpha):
        rep = variance_scaling_check(NeedletProfile(r, f0), power_spectrum(alpha), self.SCALES)
        return [s / variance_floor(f0, r, alpha) - 1.0 for s in rep.scaled_variances]

    @pytest.mark.parametrize("f0, r, alpha", CASES, ids=IDS)
    def test_gap_within_twice_the_measured_t_constant(self, f0, r, alpha):
        for t, gap in zip(self.SCALES, self.gaps(f0, r, alpha)):
            # the floor is approached from above
            assert 0.0 < gap <= 2.0 * self.GAP_PER_T[f0, r, alpha] * t

    @pytest.mark.parametrize("f0, r, alpha", CASES, ids=IDS)
    def test_gap_falls_like_t(self, f0, r, alpha):
        # a quarter of the scale takes the gap down 4.0 to 4.3-fold; ask for 2
        gaps = self.gaps(f0, r, alpha)[1:]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= coarse / 2.0

    def test_floor_of_the_first_acceptance_configuration(self):
        # r = 1, alpha = 3: p = 3 and K = 2^(-3/2) Gamma(3/2) = sqrt(pi) / 2^(5/2)
        assert variance_floor("exponential", 1, 3.0) == pytest.approx(
            math.sqrt(math.pi) / 2 ** 2.5, rel=1e-15)


@functools.cache
def correlation_limit(r: int, alpha: float, gamma: float, terms: int = 300,
                      n: int | None = None) -> float:
    """C(gamma) = G(gamma) / K for a power spectrum and the exponential f0.

    b_l = l^(-alpha) (l(l+1))^(2r) is taken to degree terms + n, so each of
    the n passes of the three-term rule (default n = 2r + 2) is exact up to
    degree `terms`; the series of Delta^n b is summed there at 80 digits.
    """
    mpmath = pytest.importorskip("mpmath")
    n = 2 * r + 2 if n is None else n
    with mpmath.workdps(80):
        x = mpmath.mpf(math.cos(gamma))
        b = [mpmath.mpf(0)] + [mpmath.mpf(l) ** -alpha * (l * (l + 1)) ** (2 * r)
                               for l in range(1, terms + n + 1)]
        for _ in range(n):
            # (l a_{l-1} + (l+1) a_{l+1} - (2l+1) a_l) / (2l+1), with a_{-1} = 0
            b = [(l * (prev - 2 * here + nxt) + nxt - here) / (2 * l + 1)
                 for l, (prev, here, nxt) in enumerate(zip([0] + b[:-2], b[:-1], b[1:]))]
        total, p_l, p_next = mpmath.mpf(0), mpmath.mpf(1), x
        for l in range(terms + 1):
            total += b[l] * (2 * l + 1) * p_l
            p_l, p_next = p_next, ((2 * l + 3) * x * p_next - (l + 1) * p_l) / (l + 2)
        return float(total / (x - 1) ** n) / variance_floor("exponential", r, alpha)


class TestCorrelationTendsToItsLimit:
    # C(pi/2) as first measured, to the digits given
    RIGHT_ANGLE = {(1, 3.0): -11.1101, (2, 4.0): 14.3848, (3, 4.0): 1305.94}

    @pytest.mark.parametrize("r, alpha", sorted(RIGHT_ANGLE))
    def test_limit_at_a_right_angle(self, r, alpha):
        assert correlation_limit(r, alpha, math.pi / 2) == pytest.approx(
            self.RIGHT_ANGLE[r, alpha], rel=1e-5)

    @pytest.mark.parametrize("r, alpha", [(1, 3.0), (2, 4.0)])
    def test_limit_does_not_depend_on_its_truncation(self, r, alpha):
        # twice the terms and three more passes; gamma = 0.3 converges slowest
        assert correlation_limit(r, alpha, 0.3, 600, 2 * r + 5) == pytest.approx(
            correlation_limit(r, alpha, 0.3), rel=1e-10)

    @pytest.mark.parametrize("r, alpha", sorted(RIGHT_ANGLE))
    def test_direct_sum_approaches_the_limit(self, r, alpha):
        # no library call: each halving of t brings Cor / t^p closer to C
        mpmath = pytest.importorskip("mpmath")
        limit = correlation_limit(r, alpha, math.pi / 2)
        with mpmath.workdps(50):  # Cor / t^p at the oracle's precision
            gaps = [abs(float(direct_correlation(r, alpha, t, math.cos(math.pi / 2))
                              / mpmath.mpf(t) ** (4 * r + 2 - alpha)) - limit)
                    for t in (0.0125, 0.00625, 0.003125)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine < coarse

    # largest |Cor / (t^p C) - 1| / t measured for r = 1 over the scales of
    # T_GRID with t <= gamma / 20; coarser scales are not yet near the limit
    GAP_PER_T = {
        (3.0, 0.3): 1.8,  # 1.735
        (3.0, 1.0): 2.4,  # 2.362
        (3.0, math.pi / 2): 2.4,  # 2.388
        (3.5, 0.3): 2.2,  # 2.19
        (3.5, 1.0): 3.4,  # 3.347
        (3.5, math.pi / 2): 3.4,  # 3.354
    }

    CASES = sorted(GAP_PER_T)
    IDS = [f"{alpha}-{gamma:.4g}" for alpha, gamma in CASES]
    # at gamma = 0.3 the gap changes sign near t = 0.0125, so no order shows there
    ORDERED = [(alpha, gamma) for alpha, gamma in CASES if gamma >= 1.0]

    def gaps(self, alpha, gamma):
        profile, spectrum = NeedletProfile(1), power_spectrum(alpha)
        limit = correlation_limit(1, alpha, gamma)
        scales = [t for t in T_GRID if t <= gamma / 20.0]
        cors = [correlation_series(profile, spectrum, t, [math.cos(gamma)])[1][0]
                for t in scales]
        return scales, [abs(cor / (t ** (6.0 - alpha) * limit) - 1.0)
                        for t, cor in zip(scales, cors)]

    @pytest.mark.parametrize("alpha, gamma", CASES, ids=IDS)
    def test_gap_within_twice_the_measured_t_constant(self, alpha, gamma):
        for t, gap in zip(*self.gaps(alpha, gamma)):
            assert gap <= 2.0 * self.GAP_PER_T[alpha, gamma] * t

    @pytest.mark.parametrize("alpha, gamma", ORDERED,
                             ids=[f"{alpha}-{gamma:.4g}" for alpha, gamma in ORDERED])
    def test_gap_falls_like_t(self, alpha, gamma):
        # a quarter of the scale takes the gap down 3.3 to 4.0-fold; ask for 2
        scales, gaps = self.gaps(alpha, gamma)
        assert len(scales) == len(T_GRID)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= coarse / 2.0
