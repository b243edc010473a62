"""Analytic covariance and correlation of needlet coefficients, with the
decay checks that make "asymptotically uncorrelated" quantitative.

For a random field with spectrum c_l analyzed at scale t, the covariance of
coefficients at points with inner product cos gamma is the zonal series

    Cov(t, cos gamma) = sum_{l>=1} f(t^2 l(l+1))^2 c_l (2l+1) P_l(cos gamma)

and the correlation is Cov(t, cos gamma) / Cov(t, 1).  For spectra with
power-law envelope l^(-alpha) and profiles f(s) = s^r f0(s) with
4r + 2 > alpha, the correlation at fixed geodesic distance d = arccos(cos
gamma) is bounded by C t^(4r - alpha + 2) / d^(2N), N the least positive
integer above 2r - alpha/2 + 1.  `correlation_decay_check` verifies the rate
empirically on a scale grid; `zonal_decay_bound` estimates the constant of
the underlying series bound; `variance_scaling_check` confirms the variance
floor Cov(t, 1) ~ t^(alpha - 2) that the ratio rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .defaults import DEFAULTS
from .differences import CoeffSequence, multiply_cos_minus_one_power
from .errors import DecayHypothesisError, NumericFailure
from .kernels import NeedletProfile, choose_lmax, profile_eval
from .legendre import legendre_series, zonal_series
from .spectra import PowerSpectrum, spectrum_eval

__all__ = [
    "CorrelationQuery",
    "DecayReport",
    "VarianceScalingReport",
    "ZonalDecayBound",
    "least_integer_above",
    "analytic_covariance",
    "analytic_correlation",
    "covariance_coefficients",
    "zonal_decay_bound",
    "variance_scaling_check",
    "correlation_decay_check",
]


@dataclass(frozen=True)
class CorrelationQuery:
    """One (profile, spectrum, scale, geometry) correlation request."""

    profile: NeedletProfile
    spectrum: PowerSpectrum
    t: float
    cos_gamma: float

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("scale t must be > 0")
        if not math.isfinite(self.cos_gamma) or abs(self.cos_gamma) > 1.0 + 1e-12:
            raise ValueError("cos_gamma must lie in [-1, 1]")
        object.__setattr__(self, "cos_gamma", min(1.0, max(-1.0, float(self.cos_gamma))))

    @property
    def geodesic_distance(self) -> float:
        return math.acos(self.cos_gamma)


@dataclass(frozen=True)
class DecayReport:
    """Correlation decay along a scale grid at fixed geometry."""

    t_grid: tuple[float, ...]
    correlations: tuple[float, ...]
    fitted_slope: float
    predicted_exponent: float
    n_exponent: int
    bound_values: tuple[float, ...]
    bound_constant: float
    bound_ratio: float
    slope_passed: bool
    bound_passed: bool
    passed: bool


@dataclass(frozen=True)
class VarianceScalingReport:
    """Values of variance(t) * t^(2 - alpha) along a scale grid."""

    t_grid: tuple[float, ...]
    scaled_variances: tuple[float, ...]
    infimum: float
    ratio: float
    passed: bool


class ZonalDecayBound(NamedTuple):
    n_exponent: int
    sup_value: float


def least_integer_above(x: float, floor: int = 1) -> int:
    """Least integer strictly greater than x, clamped below by `floor`."""
    return max(floor, math.floor(x) + 1)


def covariance_coefficients(profile: NeedletProfile, spectrum: PowerSpectrum,
                            t: float, lmax: int) -> CoeffSequence:
    """Coefficients a_l = f(t^2 l(l+1))^2 c_l of the covariance zonal series.

    Stored for l = 1..lmax; a_0 reads as 0 by the window convention.
    """
    if t <= 0:
        raise ValueError("scale t must be > 0")
    ls = np.arange(1, int(lmax) + 1, dtype=float)
    f = profile_eval(profile, (t * t) * ls * (ls + 1.0))
    return CoeffSequence(1, f * f * spectrum_eval(spectrum, ls))


def analytic_covariance(q: CorrelationQuery, eps_tail: float | None = None) -> float:
    """Cov(t, cos gamma) with truncation chosen for the squared profile."""
    lmax = choose_lmax(q.profile, q.t, eps_tail, squared=True)
    ls = np.arange(1, lmax + 1, dtype=float)
    f = profile_eval(q.profile, (q.t * q.t) * ls * (ls + 1.0))
    coeffs = f * f * spectrum_eval(q.spectrum, ls) * (2.0 * ls + 1.0)
    return legendre_series(coeffs, q.cos_gamma, offset=1)


def analytic_correlation(q: CorrelationQuery, eps_tail: float | None = None) -> float:
    """Cov(t, cos gamma) / Cov(t, 1); exactly 1 at coincident points."""
    if q.cos_gamma == 1.0:
        return 1.0
    variance = analytic_covariance(
        CorrelationQuery(q.profile, q.spectrum, q.t, 1.0), eps_tail)
    if not math.isfinite(variance) or variance <= 0.0:
        raise NumericFailure(
            f"variance degenerate at t={q.t}: {variance!r}; "
            "the scale is too large for every retained coefficient")
    return analytic_covariance(q, eps_tail) / variance


def zonal_decay_bound(a: CoeffSequence, mu: float,
                      theta_min: float | None = None,
                      grid_points: int = 1024) -> ZonalDecayBound:
    """Estimate the constant in |sum_l a_l Z_l(cos theta)| <= C / theta^(2N).

    N is the least positive integer above mu/2 + 1.  The input is first
    rescaled by its empirical growth constant max_l |a_l| l^(-mu), so the
    returned sup estimates the ratio of the series bound to the coefficient
    bound; families sharing the same rescaled decay profile then produce
    comparable sups regardless of overall magnitude.

    Away from theta = 0 the series is evaluated in the transformed form
    |sum a^N_l Z_l| / |cos theta - 1|^N, whose coefficients decay 2N orders
    faster and therefore sum without cancellation; near 0 the original
    series is evaluated directly (it is bounded there).
    """
    mu = float(mu)
    if mu + 2.0 <= 0.0:
        raise ValueError("need mu + 2 > 0; the series bound does not apply otherwise")
    n_exp = least_integer_above(mu / 2.0 + 1.0)

    ls = np.arange(a.offset, a.top + 1, dtype=float)
    pos = ls >= 1
    if not np.any(pos) or not np.any(a.values[pos] != 0.0):
        return ZonalDecayBound(n_exp, 0.0)
    scale = float(np.max(np.abs(a.values[pos]) * ls[pos] ** -mu))
    scaled = CoeffSequence(a.offset, a.values / scale)

    tmin = DEFAULTS["theta_min"] if theta_min is None else float(theta_min)
    split = DEFAULTS["series_bound_theta_split"]

    sup = 0.0
    near = np.geomspace(tmin, split, grid_points // 4, endpoint=False)
    direct = zonal_series(scaled.values, np.cos(near), offset=scaled.offset)
    sup = max(sup, float(np.max(np.abs(direct) * near ** (2 * n_exp))))

    transformed = multiply_cos_minus_one_power(scaled, n_exp)
    far = np.linspace(split, math.pi, grid_points)
    numer = zonal_series(transformed.values, np.cos(far), offset=transformed.offset)
    vals = np.abs(numer) * far ** (2 * n_exp) / np.abs(np.cos(far) - 1.0) ** n_exp
    sup = max(sup, float(np.max(vals)))
    return ZonalDecayBound(n_exp, sup)


def variance_scaling_check(profile: NeedletProfile, spectrum: PowerSpectrum,
                           t_grid, eps_tail: float | None = None) -> VarianceScalingReport:
    """Verify the variance floor: Cov(t, 1) * t^(2 - alpha) stable and positive."""
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid:
        raise ValueError("empty scale grid")
    scaled = []
    for t in t_grid:
        var = analytic_covariance(CorrelationQuery(profile, spectrum, t, 1.0), eps_tail)
        scaled.append(var * t ** (2.0 - spectrum.alpha))
    lo, hi = min(scaled), max(scaled)
    ratio = hi / lo if lo > 0 else math.inf
    passed = lo > 0 and all(map(math.isfinite, scaled)) \
        and ratio <= DEFAULTS["stability_ratio"]
    return VarianceScalingReport(t_grid=t_grid, scaled_variances=tuple(scaled),
                                 infimum=lo, ratio=ratio, passed=passed)


def correlation_decay_check(profile: NeedletProfile, spectrum: PowerSpectrum,
                            cos_gamma: float, t_grid,
                            eps_tail: float | None = None) -> DecayReport:
    """Measure |Cor| along a scale grid and compare with the predicted rate.

    The predicted exponent is 4r - alpha + 2 (hypothesis 4r + 2 > alpha must
    hold); the fitted log-log slope over the smallest scales must come
    within the slope tolerance of it, and |Cor| d^(2N) t^(-exponent) must
    stay within the stability ratio across the grid.
    """
    alpha = spectrum.alpha
    r = profile.r
    if not 4 * r + 2 > alpha:
        raise DecayHypothesisError(
            f"4r + 2 = {4 * r + 2} must exceed alpha = {alpha}; raise r")
    exponent = 4.0 * r - alpha + 2.0
    n_exp = least_integer_above(2.0 * r - alpha / 2.0 + 1.0)
    d = math.acos(min(1.0, max(-1.0, float(cos_gamma))))
    if d < 0.1:
        raise ValueError("geometry too close to coincidence; need distance >= 0.1")
    t_grid = tuple(sorted((float(t) for t in t_grid), reverse=True))
    if len(t_grid) < 2:
        raise ValueError("need at least two scales to measure decay")

    cors = tuple(
        analytic_correlation(CorrelationQuery(profile, spectrum, t, cos_gamma), eps_tail)
        for t in t_grid)
    abs_cors = np.abs(cors)
    if np.any(abs_cors == 0.0) or not np.all(np.isfinite(abs_cors)):
        raise NumericFailure("correlation vanished or diverged on the grid; cannot fit")

    n_fit = min(DEFAULTS["fit_points"], len(t_grid))
    ts_fit = np.array(t_grid[-n_fit:])
    slope = float(np.polyfit(np.log(ts_fit), np.log(abs_cors[-n_fit:]), 1)[0])

    bounds = abs_cors * d ** (2 * n_exp) * np.array(t_grid) ** -exponent
    b_lo, b_hi = float(np.min(bounds)), float(np.max(bounds))
    bound_ratio = b_hi / b_lo if b_lo > 0 else math.inf
    slope_passed = slope >= exponent - DEFAULTS["slope_tol"]
    bound_passed = math.isfinite(b_hi) and bound_ratio <= DEFAULTS["stability_ratio"]
    return DecayReport(t_grid=t_grid, correlations=cors, fitted_slope=slope,
                       predicted_exponent=exponent, n_exponent=n_exp,
                       bound_values=tuple(float(b) for b in bounds),
                       bound_constant=b_hi, bound_ratio=bound_ratio,
                       slope_passed=slope_passed, bound_passed=bound_passed,
                       passed=slope_passed and bound_passed)
