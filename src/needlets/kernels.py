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

# dilation terms one `calderon_g` walk may sum; r = 1 reaches it near a = 1 + 9e-6
_CALDERON_TERM_CAP = 1_000_000

# name -> log f0; profiles must decay fast enough to kill any power of s
_LOG_F0 = {
    "exponential": lambda s: -s,
    "gaussian": lambda s: -s * s,
}


@dataclass(frozen=True)
class NeedletProfile:
    """Spectral window f(s) = s^r f0(s); r >= 1 forces f(0) = 0."""

    r: int
    f0: str = "exponential"

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise ValueError("profile exponent r must be a positive integer")
        object.__setattr__(self, "r", int(self.r))
        if self.f0 not in _LOG_F0:
            raise ValueError(f"unknown f0 family {self.f0!r}; choose from {sorted(_LOG_F0)}")


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
    """f(s) = s^r f0(s), computed as exp(r log s + log f0(s)) to dodge overflow;
    a value past the double range (e^(-s) s^r is, at s = r, from r = 172) reads inf."""
    sv = np.asarray(s, dtype=float)
    scalar = sv.ndim == 0
    sv = np.atleast_1d(sv)
    if not np.all((sv >= 0) & np.isfinite(sv)):
        raise ValueError("profile argument must be finite and >= 0")
    out = np.zeros_like(sv)
    pos = sv > 0
    sp = sv[pos]
    # log f0 may overflow to -inf (the gaussian's s * s past 1.3e154): f is 0 there
    with np.errstate(over="ignore"):
        logf = profile.r * np.log(sp) + _LOG_F0[profile.f0](sp)
        out[pos] = np.exp(logf)
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
    thetas = [np.unique(np.concatenate([np.linspace(t, math.pi, 1536),
                                        np.geomspace(t, math.pi, 512)]))
              for t in t_list]
    # one series call for every scale; a row's points past its own count are
    # padding, which is exact because the series is elementwise in x
    xs = np.ones((len(t_list), max(th.size for th in thetas)))
    for row, th in zip(xs, thetas):
        row[:th.size] = np.cos(th)
    vals = legendre_series_rows([CoeffSequence(1, spec.coeffs) for spec in specs], xs)
    with np.errstate(over="ignore", invalid="ignore"):
        sups = [float(np.max((t * t) * np.abs(v[:th.size]) * (th / t) ** n_exponent))
                for t, th, v in zip(t_list, thetas, vals)]
    for t, sup in zip(t_list, sups):
        if not math.isfinite(sup):
            raise NumericFailure(f"localization sup at t={t} is {sup!r}: t^2 |K_t| "
                                 f"(theta/t)^{n_exponent} leaves the double range")
    _, _, ratio, passed = spread(sups, DEFAULTS["stability_ratio"])
    return LocalizationReport(t_list=t_list, n_exponent=int(n_exponent),
                              sups=tuple(sups), ratio=ratio, passed=passed)


def calderon_g(profile: NeedletProfile, a: float, lam):
    """g(lam) = sum over integer j of f(a^(2j) lam)^2.

    The sum is invariant under lam -> a^2 lam, so each lam is first brought
    into the period [1, a^2), where it keeps its bits if it lies there
    already; j then runs outward from the spectral peak until terms fall
    below the configured floor relative to the largest term seen.  As f0 does
    not increase, f(s)^2 stays above floor * f(s_peak)^2 for s down to
    s_peak * floor^(1/(2r)), so the walk takes at least ln(1/floor) / (4 r ln a)
    terms; past `_CALDERON_TERM_CAP` of them it raises ValueError unstarted.
    """
    a = check_dilation(a)
    floor = DEFAULTS["calderon_term_floor"]
    terms = -math.log(floor) / (4.0 * profile.r * math.log(a))
    if terms > _CALDERON_TERM_CAP:
        raise ValueError(f"the dilation sum at a={a!r} needs at least {terms:.3g} terms, "
                         f"above the cap {_CALDERON_TERM_CAP}")
    lv = np.asarray(lam, dtype=float)
    scalar = lv.ndim == 0
    lv = np.atleast_1d(lv)
    if not np.all((lv > 0) & np.isfinite(lv)):
        raise ValueError("lambda must be finite and > 0")
    # lam / period^k in two half steps: neither factor leaves the double range
    period = a ** 2
    k = np.floor(np.log(lv) / math.log(period))
    lv = np.where((lv >= 1.0) & (lv < period), lv,
                  lv / period ** np.ceil(k / 2) / period ** np.floor(k / 2))

    j_center = int(round(math.log(profile.r) / (2.0 * math.log(a))))
    total = np.zeros_like(lv)
    peak = 0.0
    for direction in (1, -1):
        j = j_center if direction == 1 else j_center - 1
        while True:
            f = profile_eval(profile, (a ** (2 * j)) * lv)
            term = f * f
            tmax = float(np.max(term))
            peak = max(peak, tmax)
            if tmax < floor * max(peak, 1e-300):
                break
            total += term
            j += direction
    out = total
    return float(out[0]) if scalar else out


def calderon_bounds(profile: NeedletProfile, a: float) -> tuple[float, float]:
    """(A_a, B_a) = extremes of the dilation sum g over one period [1, a^2]."""
    a = check_dilation(a)
    lam = np.geomspace(1.0, a ** 2, DEFAULTS["calderon_grid_points"], endpoint=False)
    g = calderon_g(profile, a, lam)
    return float(np.min(g)), float(np.max(g))
