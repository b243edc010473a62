"""The paper's small-scale limits in closed form, as oracles.

With the exponential f0, f(s) = s^r e^(-s), and P_l(cos theta) ~ J0((l + 1/2)
theta) (Hilb / Mehler-Heine), each sum over l becomes a Hankel integral with
no t in it:

(a) t^2 K_t(cos(t u)) -> int 2 v^(2r+1) e^(-v^2) J0(u v) dv
                       = r! e^(-u^2/4) L_r(u^2/4)   (Gradshteyn & Ryzhik 6.631.10),

    the Mexican hat for r = 1, with an error of order t^2;

(b) Cov(t, 1) t^(2 - alpha) -> K = 2^(-p/2) Gamma(p/2), p = 4r + 2 - alpha,

    for a power spectrum c_l = l^(-alpha), with a gap of order t.

Neither target is computed by the library, so they owe nothing to its series,
its truncation or its rounding.  Each tolerance is twice the largest error
measured on this grid (a margin of 2), written as a constant times t^2 for (a)
and t for (b); the order itself is checked with a margin of 2 as well.
"""

import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

from needlets import (
    NeedletProfile,
    kernel_eval,
    make_kernel,
    power_spectrum,
    variance_scaling_check,
)

T_GRID = (0.05, 0.0125, 0.003125)  # each a quarter of the one before
US = np.array([0.5, 1.0, 2.0, 3.0, 4.0])


def mexican_hat(r: int, u: np.ndarray) -> np.ndarray:
    """r! e^(-u^2/4) L_r(u^2/4), the t -> 0 limit of t^2 K_t(cos(t u))."""
    return math.factorial(r) * np.exp(-u * u / 4.0) * eval_laguerre(r, u * u / 4.0)


def variance_floor(r: int, alpha: float) -> float:
    """2^(-p/2) Gamma(p/2), p = 4r + 2 - alpha: the t -> 0 limit of Cov(t, 1) t^(2 - alpha)."""
    p = 4 * r + 2 - alpha
    return 2.0 ** (-p / 2.0) * math.gamma(p / 2.0)


class TestKernelTendsToTheMexicanHat:
    # largest |error| / t^2 measured over US and T_GRID: 0.178, 0.245, 0.613
    ERROR_PER_T2 = {1: 0.18, 2: 0.25, 3: 0.62}

    def errors(self, r):
        profile = NeedletProfile(r)
        errors = []
        for t in T_GRID:
            scaled = t * t * kernel_eval(make_kernel(profile, t), np.cos(t * US))
            errors.append(float(np.max(np.abs(scaled - mexican_hat(r, US)))))
        return errors

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_error_within_twice_the_measured_t_squared_constant(self, r):
        for t, error in zip(T_GRID, self.errors(r)):
            assert error <= 2.0 * self.ERROR_PER_T2[r] * t * t

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_error_falls_like_t_squared(self, r):
        # a quarter of the scale takes the error down 16-fold; ask for 8
        errors = self.errors(r)
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 8.0

    def test_r1_limit_is_the_mexican_hat(self):
        # L_1(v) = 1 - v, so the r = 1 target is e^(-u^2/4) (1 - u^2/4)
        np.testing.assert_allclose(mexican_hat(1, US),
                                   np.exp(-US ** 2 / 4.0) * (1.0 - US ** 2 / 4.0),
                                   rtol=1e-15, atol=1e-16)


class TestVarianceFloorTendsToAConstant:
    SCALES = (0.2,) + T_GRID
    # largest (S(t) / K - 1) / t measured over SCALES: 3.04, 2.35, 1.59
    GAP_PER_T = {(1, 3.0): 3.1, (2, 4.0): 2.4, (3, 4.0): 1.6}

    def gaps(self, r, alpha):
        rep = variance_scaling_check(NeedletProfile(r), power_spectrum(alpha), self.SCALES)
        return [s / variance_floor(r, alpha) - 1.0 for s in rep.scaled_variances]

    @pytest.mark.parametrize("r, alpha", sorted(GAP_PER_T))
    def test_gap_within_twice_the_measured_t_constant(self, r, alpha):
        for t, gap in zip(self.SCALES, self.gaps(r, alpha)):
            # the floor is approached from above
            assert 0.0 < gap <= 2.0 * self.GAP_PER_T[r, alpha] * t

    @pytest.mark.parametrize("r, alpha", sorted(GAP_PER_T))
    def test_gap_falls_like_t(self, r, alpha):
        # a quarter of the scale takes the gap down about 4.2-fold; ask for 2
        gaps = self.gaps(r, alpha)[1:]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= coarse / 2.0

    def test_floor_of_the_first_acceptance_configuration(self):
        # r = 1, alpha = 3: p = 3 and K = 2^(-3/2) Gamma(3/2) = sqrt(pi) / 2^(5/2)
        assert variance_floor(1, 3.0) == pytest.approx(math.sqrt(math.pi) / 2 ** 2.5, rel=1e-15)
