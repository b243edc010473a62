"""Needlet kernels: spectral profile, truncation, evaluation, localization.

The kernel at scale t is the zonal series

    K_t(cos gamma) = sum_{l>=1} f(t^2 l(l+1)) (2l+1) P_l(cos gamma)

for the profile f(s) = s^r f0(s).  The default f0(s) = e^(-s) gives the
Mexican family: non-oscillating for small r, with sharp localization around
gamma = 0 at small t.  Surface-area normalization constants are dropped
throughout; only normalization-invariant quantities (correlations, frame
bound ratios) are ever compared across conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .defaults import DEFAULTS, degree_cap
from .differences import CoeffSequence
from .errors import DegreeCapExceeded, NumericFailure
from .legendre import _zonal_coeffs, legendre_series, legendre_series_rows

__all__ = [
    "NeedletProfile",
    "KernelSpec",
    "LocalizationReport",
    "profile_eval",
    "spectral_weights",
    "choose_lmax",
    "make_kernel",
    "kernel_eval",
    "localization_check",
    "calderon_g",
    "calderon_bounds",
]

# dilation terms one `calderon_g` sum may take; r = 1 reaches it near a = 1 + 1.13e-5
_CALDERON_TERM_CAP = 1_000_000

# name -> p in f0(s) = exp(-s^p); any p > 0 decays fast enough to kill any power of s
_F0_POWER = {"exponential": 1, "gaussian": 2}


@dataclass(frozen=True)
class NeedletProfile:
    """Spectral window f(s) = s^r f0(s); r >= 1 forces f(0) = 0."""

    r: int
    f0: str = "exponential"

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise ValueError("profile exponent r must be a positive integer")
        object.__setattr__(self, "r", int(self.r))
        if self.f0 not in _F0_POWER:
            raise ValueError(f"unknown f0 family {self.f0!r}; choose from {sorted(_F0_POWER)}")


@dataclass(frozen=True)
class KernelSpec:
    """A truncated kernel: coefficients f(t^2 l(l+1)) (2l+1) for l = 1..lmax."""

    profile: NeedletProfile
    t: float
    lmax: int
    coeffs: np.ndarray


@dataclass(frozen=True)
class LocalizationReport:
    """Per-scale sups of t^2 |K_t(cos theta)| (theta/t)^N over theta in [t, pi]."""

    t_list: tuple[float, ...]
    n_exponent: int
    sups: tuple[float, ...]
    ratio: float
    passed: bool


def spread(values, cap: float) -> tuple[float, float, float, bool]:
    """(min, max, max/min, passed) of a sweep, the pass rule of every stability
    check: max/min is inf unless min > 0 (a NaN makes min NaN), and the sweep
    passes when every value is finite and max/min <= cap."""
    lo, hi = float(np.min(values)), float(np.max(values))
    ratio = hi / lo if lo > 0 else math.inf
    return lo, hi, ratio, math.isfinite(ratio) and ratio <= cap


def profile_eval(profile: NeedletProfile, s):
    """f(s) = s^r exp(-s^p), computed as exp(r log s - s^p) to dodge overflow;
    a value past the double range (e^(-s) s^r is, at s = r, from r = 172) reads inf."""
    sv = np.asarray(s, dtype=float)
    scalar = sv.ndim == 0
    sv = np.atleast_1d(sv)
    if not np.all((sv >= 0) & np.isfinite(sv)):
        raise ValueError("profile argument must be finite and >= 0")
    out = np.zeros_like(sv)
    pos = sv > 0
    sp = sv[pos]
    # s^p may overflow to inf (the gaussian's past s = 1.3e154): f is 0 there
    with np.errstate(over="ignore"):
        out[pos] = np.exp(profile.r * np.log(sp) - sp ** _F0_POWER[profile.f0])
    return float(out[0]) if scalar else out


def spectral_weights(profile: NeedletProfile, scale_sq: float, lmax: int) -> np.ndarray:
    """f(scale_sq l(l+1)) for l = 1..lmax; scale_sq is t * t, or a^(2j) on a frame.
    An argument that overflows (t * t does past t = 1.3e154) reads as the
    largest double, where f is 0, its limit."""
    ls = np.arange(1, int(lmax) + 1, dtype=float)
    with np.errstate(over="ignore"):
        s = scale_sq * ls * (ls + 1.0)
    return profile_eval(profile, np.minimum(s, np.finfo(float).max))


def check_scale(t: float) -> None:
    """Reject a scale that is not a finite positive number."""
    if not math.isfinite(t) or t <= 0:
        raise ValueError("scale t must be finite and > 0")


def check_scale_grid(t_grid) -> tuple[float, ...]:
    """The scales of a grid as floats, each one checked; an empty grid is an error."""
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid:
        raise ValueError("empty scale grid")
    for t in t_grid:
        check_scale(t)
    return t_grid


def check_dilation(a) -> float:
    """The dilation a as a float; it must be finite and exceed 1."""
    a = float(a)
    if not (math.isfinite(a) and a > 1.0 + 1e-9):
        raise ValueError("dilation a must be finite and > 1")
    return a


def choose_lmax(profile: NeedletProfile, t: float, eps_tail: float | None = None,
                squared: bool = False) -> int:
    """Smallest truncation degree whose dropped tail is below eps_tail (relative).

    The scan uses the analytic term envelope |f(t^2 l(l+1))|^p (2l+1), p = 1
    or 2 for `squared`; terms past the spectral peak decay faster than any
    geometric sequence, so extending the scan until the last term is far
    below eps_tail times the running total makes the remainder negligible.
    No scan runs past 64 times the degree cap.  A total past the double range
    raises NumericFailure: the series of every window it bounds, such as the
    kernel's f (2l+1), could then overflow.
    """
    return _truncate(profile, t, eps_tail, squared).size


def _truncate(profile: NeedletProfile, t: float, eps_tail: float | None,
              squared: bool = False) -> np.ndarray:
    """The weights f(t^2 l(l+1)), l = 1..L, that `choose_lmax`'s scan evaluated."""
    check_scale(t)
    eps = DEFAULTS["eps_tail"] if eps_tail is None else float(eps_tail)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps_tail must lie in (0, 1)")
    cap = degree_cap()
    hard_stop = 64 * cap

    # the scan starts past the spectral peak near sqrt(r) / t; a peak past
    # hard_stop raises below before any array is built
    l_peak = int(min(math.sqrt(profile.r) / t, hard_stop)) + 1
    hi = max(64, 6 * l_peak)
    while True:
        if hi > hard_stop:
            raise DegreeCapExceeded(
                f"series for t={t} does not settle below degree {hard_stop}")
        f = spectral_weights(profile, t * t, hi)
        with np.errstate(over="ignore"):
            g = _zonal_coeffs(f * f if squared else f, 1)
            total = float(np.sum(g))
        if not math.isfinite(total):
            raise NumericFailure(
                f"series at t={t} for r={profile.r} leaves the double range: its "
                f"terms {'f^2' if squared else 'f'} (2l+1) sum to {total!r}")
        # past the peak a 0 term makes every later one 0, even if the margin
        # underflows; a scan that underflowed everywhere stops here at total 0
        if g[-1] == 0.0 or (g[-1] < 1e-6 * eps * total and g[-1] < g[-2]):
            break
        hi *= 2

    # the mass dropped past each degree, summed from the top so that no
    # cancellation hides it; the last scanned degree drops nothing
    dropped = np.append(np.cumsum(g[:0:-1])[::-1], 0.0)
    lmax = max(int(np.argmax(dropped <= eps * (total - dropped))) + 1, 8)
    if lmax > cap:
        raise DegreeCapExceeded(
            f"t={t} needs lmax={lmax}, above the configured cap {cap}")
    return f[:lmax]


def make_kernel(profile: NeedletProfile, t: float, eps_tail: float | None = None) -> KernelSpec:
    """Build the truncated kernel coefficient vector for scale t."""
    f = _truncate(profile, t, eps_tail)
    return KernelSpec(profile=profile, t=float(t), lmax=f.size, coeffs=_zonal_coeffs(f, 1))


def kernel_eval(spec: KernelSpec, cos_gamma):
    """K_t at inner product cos_gamma (scalar or array).

    The kernel depends on a point pair only through x . y, so this is the
    whole evaluation API; summation order is fixed ascending with
    compensation, making batched and pointwise calls bit-identical.
    """
    return legendre_series(spec.coeffs, cos_gamma, offset=1)


def localization_check(profile: NeedletProfile, t_list, n_exponent: int,
                       eps_tail: float | None = None) -> LocalizationReport:
    """Probe spatial decay: sup over theta in [t, pi] of t^2 |K_t| (theta/t)^N.

    A localized kernel family keeps these sups comparable across scales; the
    report passes when their max/min ratio stays within the stability ratio.
    The kernels of every scale are evaluated in one series call.  A sup past
    the double range raises NumericFailure.
    """
    if n_exponent < 1:
        raise ValueError("decay exponent N must be >= 1")
    t_list = check_scale_grid(t_list)
    specs = [make_kernel(profile, t, eps_tail) for t in t_list]
    # one row of angles per scale, all of one width, in one series call; t and
    # pi appear twice in a row, which leaves its max as it is
    thetas = np.array([np.concatenate([np.linspace(t, math.pi, 1536),
                                       np.geomspace(t, math.pi, 512)])
                       for t in t_list])
    vals = legendre_series_rows([CoeffSequence(1, spec.coeffs) for spec in specs],
                                np.cos(thetas))
    ts = np.array(t_list)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        sups = np.max((ts * ts) * np.abs(vals) * (thetas / ts) ** n_exponent, axis=1).tolist()
    for t, sup in zip(t_list, sups):
        if not math.isfinite(sup):
            raise NumericFailure(f"localization sup at t={t} is {sup!r}: t^2 |K_t| "
                                 f"(theta/t)^{n_exponent} leaves the double range")
    _, _, ratio, passed = spread(sups, DEFAULTS["stability_ratio"])
    return LocalizationReport(t_list=t_list, n_exponent=int(n_exponent),
                              sups=tuple(sups), ratio=ratio, passed=passed)


def _calderon_period(a) -> tuple[float, float]:
    """The dilation a, checked, and its period a^2 in the dilation sum; an a
    whose square leaves the double range is refused."""
    a = check_dilation(a)
    if not math.isfinite(a * a):
        raise ValueError(f"dilation a={a!r} is too large: its square a^2 "
                         "leaves the double range")
    return a, a ** 2


def calderon_g(profile: NeedletProfile, a: float, lam):
    """g(lam) = sum over integer j of f(a^(2j) lam)^2.

    The sum is invariant under lam -> a^2 lam, so each lam is first brought
    into the period [1, a^2), where it keeps its bits if it lies there
    already.  The terms kept are those with f(s)^2 >= floor * max f^2 (floor
    is `calderon_term_floor`): with q = r/p and v = s^p/q that reads
    ln v - v + 1 >= ln(floor) / (2q), whose two ends are branches 0 and -1 of
    the Lambert W function.  j runs over every j for which a^(2j) lam lies in
    [s_lo, s_hi] for some lam in the period, and one more scale on each side:
    where that window is narrower than a step a^2, a lam can have no term in
    it, and its two terms nearest the peak are still summed.  The range is
    fixed before the sum starts; past `_CALDERON_TERM_CAP` terms it raises
    ValueError unstarted.  A term's argument past the double range reads as
    the largest double, where f is 0, its limit, as in `spectral_weights`.
    """
    a, period = _calderon_period(a)
    p = _F0_POWER[profile.f0]
    q = profile.r / p
    w = -math.exp(-1.0 + math.log(DEFAULTS["calderon_term_floor"]) / (2.0 * q))
    log_a2 = 2.0 * math.log(a)
    s_lo, s_hi = ((-q * lambertw(w, k).real) ** (1.0 / p) for k in (0, -1))
    j_lo = math.ceil(math.log(s_lo) / log_a2) - 2
    j_hi = math.floor(math.log(s_hi) / log_a2) + 1
    terms = j_hi - j_lo + 1
    if terms > _CALDERON_TERM_CAP:
        raise ValueError(f"the dilation sum at a={a!r} needs {terms:.3g} terms, "
                         f"above the cap {_CALDERON_TERM_CAP}")
    lv = np.asarray(lam, dtype=float)
    scalar = lv.ndim == 0
    lv = np.atleast_1d(lv)
    if not np.all((lv > 0) & np.isfinite(lv)):
        raise ValueError("lambda must be finite and > 0")
    # lam / period^k in two half steps: neither factor leaves the double range
    k = np.floor(np.log(lv) / math.log(period))
    lv = np.where((lv >= 1.0) & (lv < period), lv,
                  lv / period ** np.ceil(k / 2) / period ** np.floor(k / 2))
    total = np.zeros_like(lv)
    for j in range(j_lo, j_hi + 1):
        with np.errstate(over="ignore"):
            s = (a ** (2 * j)) * lv
        f = profile_eval(profile, np.minimum(s, np.finfo(float).max))
        total += f * f
    return float(total[0]) if scalar else total


def calderon_bounds(profile: NeedletProfile, a: float) -> tuple[float, float]:
    """(A_a, B_a) = extremes of the dilation sum g over one period [1, a^2]."""
    a, period = _calderon_period(a)
    lam = np.geomspace(1.0, period, DEFAULTS["calderon_grid_points"], endpoint=False)
    g = calderon_g(profile, a, lam)
    return float(np.min(g)), float(np.max(g))
