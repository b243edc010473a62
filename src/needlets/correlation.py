"""Analytic covariance and correlation of needlet coefficients, with the
decay checks that make "asymptotically uncorrelated" quantitative.

For a random field with spectrum c_l analyzed at scale t, the covariance of
coefficients at points with inner product cos gamma is the zonal series

    Cov(t, cos gamma) = sum_{l>=1} f(t^2 l(l+1))^2 c_l (2l+1) P_l(cos gamma)

and the correlation is Cov(t, cos gamma) / Cov(t, 1).  For spectra with
power-law envelope l^(-alpha) and profiles f(s) = s^r f0(s) with
4r + 2 > alpha, the correlation at fixed geodesic distance d = arccos(cos
gamma) is bounded by C t^(4r - alpha + 2) / d^(2N), N the least positive
integer above 2r - alpha/2 + 1.  `covariance_sequence` is the one place
that truncates the series (one scan of the squared profile per scale) and
refuses a variance past the double range.  `correlation_series`, the one
per-scale entry for Cov and Cor, sums it in one series call over all of the
scale's points and divides by the variance.  `correlation_decay_check`
verifies the rate empirically on a scale grid (`fit_correlation_decay` fits
correlations already at hand); `zonal_decay_bound` estimates the constant of
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
from .kernels import (
    NeedletProfile,
    _truncate,
    check_scale,
    check_scale_grid,
    spectral_weights,
    spread,
)
from .legendre import _check_x, _zonal_mass, zonal_series, zonal_series_rows
from .spectra import PowerSpectrum, positive_spectrum

__all__ = [
    "CorrelationQuery",
    "DecayReport",
    "VarianceScalingReport",
    "ZonalDecayBound",
    "least_integer_above",
    "check_decay_hypothesis",
    "decay_exponents",
    "correlation_series",
    "analytic_covariance",
    "analytic_correlation",
    "covariance_coefficients",
    "covariance_sequence",
    "zonal_decay_bound",
    "zonal_decay_bounds",
    "variance_scaling_check",
    "fit_correlation_decay",
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
        check_scale(self.t)
        object.__setattr__(self, "cos_gamma", _check_x(self.cos_gamma, "cos_gamma"))


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


def least_integer_above(x: float) -> int:
    """Least positive integer strictly greater than x."""
    return max(1, math.floor(x) + 1)


def check_decay_hypothesis(profile: NeedletProfile, spectrum: PowerSpectrum) -> None:
    """Raise DecayHypothesisError unless 4r + 2 > alpha, the condition every
    decay rate here rests on."""
    if not 4 * profile.r + 2 > spectrum.alpha:
        raise DecayHypothesisError(
            f"4r + 2 = {4 * profile.r + 2} must exceed alpha = {spectrum.alpha}; raise r")


def decay_exponents(profile: NeedletProfile, spectrum: PowerSpectrum) -> tuple[float, int]:
    """(4r - alpha + 2, N): the exponent of |Cor| in t, and N, the least
    integer above 2r - alpha/2 + 1."""
    r, alpha = profile.r, spectrum.alpha
    return 4.0 * r - alpha + 2.0, least_integer_above(2.0 * r - alpha / 2.0 + 1.0)


def covariance_coefficients(profile: NeedletProfile, spectrum: PowerSpectrum,
                            t: float, lmax: int) -> CoeffSequence:
    """Coefficients a_l = f(t^2 l(l+1))^2 c_l of the covariance zonal series.

    Stored for l = 1..lmax; a_0 reads as 0 by the window convention.  A
    spectrum with some c_l <= 0 below lmax is refused (ValueError).
    """
    check_scale(t)
    f = spectral_weights(profile, t * t, lmax)
    return CoeffSequence(1, f * f * positive_spectrum(spectrum, lmax))


def covariance_sequence(profile: NeedletProfile, spectrum: PowerSpectrum, t: float,
                        eps_tail: float | None = None) -> CoeffSequence:
    """`covariance_coefficients` from the weights of one truncation scan of the
    squared profile: the covariance series of scale t as every check sums it,
    refused (NumericFailure) where its variance leaves the double range."""
    f = _truncate(profile, t, eps_tail, True)
    with np.errstate(over="ignore"):  # an inf term makes the mass inf
        seq = CoeffSequence(1, f * f * positive_spectrum(spectrum, f.size))
    # the terms are positive, so their mass is the variance
    if not math.isfinite(_zonal_mass(seq)):
        raise NumericFailure(f"variance at t={t} for r={profile.r} leaves the double range: "
                             "the terms c_l f^2 (2l+1) sum to inf")
    return seq


def correlation_series(profile: NeedletProfile, spectrum: PowerSpectrum, t: float, cos_gammas,
                       eps_tail: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(Cov(t, x), Cor(t, x)) at every inner product x in `cos_gammas`.

    One truncation scan and one series call serve every point and the
    variance Cov(t, 1); the series is elementwise in x, so each value has the
    bits of a one-point call.  Cor is exactly 1 where x == 1 and
    Cov(t, x) / Cov(t, 1) elsewhere; a variance that is not positive is
    refused unless every x is 1, and `covariance_sequence` refuses one past
    the double range before the series runs.
    """
    xs = np.asarray(cos_gammas, dtype=float)
    seq = covariance_sequence(profile, spectrum, t, eps_tail)
    values = zonal_series(seq.values, np.append(xs, 1.0), offset=seq.offset)
    covs, variance = values[:-1], float(values[-1])
    cors = np.ones_like(covs)
    apart = xs != 1.0
    if np.any(apart):
        if variance <= 0.0:
            raise NumericFailure(
                f"variance degenerate at t={t}: {variance!r}; "
                "the scale is too large for every retained coefficient")
        cors[apart] = covs[apart] / variance
    return covs, cors


def analytic_covariance(q: CorrelationQuery, eps_tail: float | None = None) -> float:
    """Cov(t, cos gamma): the one-point `correlation_series`."""
    return float(correlation_series(q.profile, q.spectrum, q.t, [q.cos_gamma], eps_tail)[0][0])


def analytic_correlation(q: CorrelationQuery, eps_tail: float | None = None) -> float:
    """Cov(t, cos gamma) / Cov(t, 1): the one-point `correlation_series`."""
    return float(correlation_series(q.profile, q.spectrum, q.t, [q.cos_gamma], eps_tail)[1][0])


def zonal_decay_bound(a: CoeffSequence, mu: float) -> ZonalDecayBound:
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
    return zonal_decay_bounds([a], mu)[0]


def zonal_decay_bounds(seqs, mu: float) -> list[ZonalDecayBound]:
    """`zonal_decay_bound` of every sequence, at one growth exponent mu.

    The direct series of all sequences share one recurrence over the near
    angles, and the transformed series one over the far angles; each bound
    has the bits of its one-sequence call.
    """
    mu = float(mu)
    if not (math.isfinite(mu) and mu + 2.0 > 0.0):
        raise ValueError(f"need a finite mu with mu + 2 > 0, got {mu!r}; "
                         "the series bound does not apply otherwise")
    n_exp = least_integer_above(mu / 2.0 + 1.0)

    scaled = []  # (index, rescaled sequence) of the sequences with a nonzero term
    for i, a in enumerate(seqs):
        ls = np.arange(a.offset, a.top + 1, dtype=float)
        pos = ls >= 1
        if np.any(pos) and np.any(a.values[pos] != 0.0):
            with np.errstate(over="ignore"):
                scale = float(np.max(np.abs(a.values[pos]) * ls[pos] ** -mu))
            if not (math.isfinite(scale) and scale > 0.0):
                raise NumericFailure(f"growth constant of sequence {i} is {scale!r}; "
                                     "cannot rescale it")
            # the constant is taken over l >= 1, so a tiny one can overflow a_0;
            # the mass check below then refuses the sequence
            with np.errstate(over="ignore"):
                values = a.values / scale
            s = CoeffSequence(a.offset, values)
            mass = _zonal_mass(s)
            if not math.isfinite(mass):
                raise NumericFailure(f"series bound of sequence {i} is not finite: "
                                     f"its rescaled terms |a_l| (2l+1) sum to {mass!r}")
            scaled.append((i, s))
    transformed = [multiply_cos_minus_one_power(s, n_exp) for _, s in scaled]

    split = DEFAULTS["series_bound_theta_split"]
    near = np.geomspace(DEFAULTS["theta_min"], split, 256, endpoint=False)
    direct = zonal_series_rows([s for _, s in scaled], np.cos(near))
    far = np.linspace(split, math.pi, 1024)
    numer = zonal_series_rows(transformed, np.cos(far))
    sups = [0.0] * len(seqs)
    for (i, _), d, u in zip(scaled, direct, numer):
        with np.errstate(over="ignore"):
            vals = np.abs(u) * far ** (2 * n_exp) / np.abs(np.cos(far) - 1.0) ** n_exp
        near_sup = float(np.max(np.abs(d) * near ** (2 * n_exp)))
        far_sup = float(np.max(vals))
        if not (math.isfinite(near_sup) and math.isfinite(far_sup)):
            raise NumericFailure(f"series bound of sequence {i} is not finite "
                                 f"(near {near_sup!r}, far {far_sup!r})")
        sups[i] = max(near_sup, far_sup)
    return [ZonalDecayBound(n_exp, sup) for sup in sups]


def variance_scaling_check(profile: NeedletProfile, spectrum: PowerSpectrum,
                           t_grid, eps_tail: float | None = None) -> VarianceScalingReport:
    """Verify the variance floor: Cov(t, 1) * t^(2 - alpha) stable and positive.

    The variances Cov(t, 1) of every scale come from one series call, all
    rows at the one point x = 1.  A scaled variance that is not finite raises
    NumericFailure, as `covariance_sequence` does for a variance that is not.
    """
    t_grid = check_scale_grid(t_grid)
    seqs = [covariance_sequence(profile, spectrum, t, eps_tail) for t in t_grid]
    variances = zonal_series_rows(seqs, [1.0])[:, 0].tolist()
    scaled = [var * _power(t, 2.0 - spectrum.alpha) for t, var in zip(t_grid, variances)]
    for t, value in zip(t_grid, scaled):
        if not math.isfinite(value):
            raise NumericFailure(f"scaled variance at t={t} is {value!r}")
    lo, _, ratio, passed = spread(scaled, DEFAULTS["stability_ratio"])
    return VarianceScalingReport(t_grid=t_grid, scaled_variances=tuple(scaled),
                                 infimum=lo, ratio=ratio, passed=passed)


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or inf where Python's float power raises OverflowError."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _bound_overflow(t: float, d: float, r: int, n_exp: int, exponent: float) -> NumericFailure:
    """The error for a bound constant |Cor| d^(2N) t^(-exponent) past the double range."""
    return NumericFailure(f"bound constant at t={t}, d={d} for r={r} leaves the double "
                          f"range: |Cor| d^{2 * n_exp} t^-{exponent} is inf")


def _decay_setup(profile: NeedletProfile, spectrum: PowerSpectrum, cos_gamma: float,
                 n_scales: int) -> tuple[float, int, float]:
    """Validate a decay measurement; return (exponent, N, geodesic distance)."""
    check_decay_hypothesis(profile, spectrum)
    exponent, n_exp = decay_exponents(profile, spectrum)
    d = math.acos(_check_x(cos_gamma, "cos_gamma"))
    if d < 0.1:
        raise ValueError("geometry too close to coincidence; need distance >= 0.1")
    if n_scales < 2:
        raise ValueError("need at least two scales to measure decay")
    return exponent, n_exp, d


def correlation_decay_check(profile: NeedletProfile, spectrum: PowerSpectrum,
                            cos_gamma: float, t_grid,
                            eps_tail: float | None = None) -> DecayReport:
    """Measure |Cor| along a scale grid and compare with the predicted rate.

    Computes the correlations and hands them to `fit_correlation_decay`.
    """
    t_grid = tuple(t_grid)
    _decay_setup(profile, spectrum, cos_gamma, len(t_grid))
    cors = [correlation_series(profile, spectrum, t, [cos_gamma], eps_tail)[1][0]
            for t in check_scale_grid(t_grid)]
    return fit_correlation_decay(profile, spectrum, cos_gamma, t_grid, cors)


def fit_correlation_decay(profile: NeedletProfile, spectrum: PowerSpectrum,
                          cos_gamma: float, t_grid, correlations) -> DecayReport:
    """Compare correlations measured along a scale grid with the predicted rate.

    `correlations[i]` is Cor(t_grid[i], cos_gamma).  The predicted exponent
    is 4r - alpha + 2 (hypothesis 4r + 2 > alpha must hold); the fitted
    log-log slope over the smallest scales must come within the slope
    tolerance of it, and |Cor| d^(2N) t^(-exponent) must stay within the
    stability ratio across the grid; a value of it past the double range
    raises NumericFailure.
    """
    t_grid = check_scale_grid(t_grid)
    correlations = [float(c) for c in correlations]
    exponent, n_exp, d = _decay_setup(profile, spectrum, cos_gamma, len(t_grid))
    if len(correlations) != len(t_grid):
        raise ValueError("need one correlation per scale")
    t_grid, cors = zip(*sorted(zip(t_grid, correlations), key=lambda p: p[0], reverse=True))
    abs_cors = np.abs(cors)
    if np.any(abs_cors == 0.0) or not np.all(np.isfinite(abs_cors)):
        raise NumericFailure("correlation vanished or diverged on the grid; cannot fit")

    n_fit = min(DEFAULTS["fit_points"], len(t_grid))
    ts_fit = np.array(t_grid[-n_fit:])
    if t_grid[-n_fit] == t_grid[-1]:  # sorted, so one distinct fitted scale
        raise ValueError(f"the {n_fit} smallest scales are all t={t_grid[-1]!r}; "
                         "a slope needs two distinct scales")
    slope = float(np.polyfit(np.log(ts_fit), np.log(abs_cors[-n_fit:]), 1)[0])

    with np.errstate(over="ignore"):  # checked below
        bounds = abs_cors * _power(d, 2 * n_exp) * np.array(t_grid) ** -exponent
    if not np.all(np.isfinite(bounds)):
        raise _bound_overflow(t_grid[int(np.argmin(np.isfinite(bounds)))], d, profile.r,
                             n_exp, exponent)
    _, b_hi, bound_ratio, bound_passed = spread(bounds, DEFAULTS["stability_ratio"])
    slope_passed = slope >= exponent - DEFAULTS["slope_tol"]
    return DecayReport(t_grid=t_grid, correlations=cors, fitted_slope=slope,
                       predicted_exponent=exponent, n_exponent=n_exp,
                       bound_values=tuple(float(b) for b in bounds),
                       bound_constant=b_hi, bound_ratio=bound_ratio,
                       slope_passed=slope_passed, bound_passed=bound_passed,
                       passed=slope_passed and bound_passed)
