"""Angular power-spectrum models c_l = u(l) with power-law envelopes.

Three families are supported:

* ``power``         u(s) = s^(-alpha)
* ``rational_log``  u(s) = F(log s) P(s) / (s^beta Q(s)) for polynomials P, Q
                    positive on [1, inf) and F from a small catalog of smooth
                    positive functions with bounded derivatives; consistency
                    requires beta + deg Q - deg P = alpha
* ``tabulated``     u(l) read from a table of integer degrees; degrees not in
                    the table read as 0, and a degree listed twice takes its
                    last value

`positive_spectrum` is the one check that c_l > 0 for l = 1..L: the
covariance series and the field draws both go through it, so a table that
stops short of the truncation degree, or has a gap below it, is refused
rather than read as a series that silently ends there.

`verify_envelope` and `verify_derivative_decay` probe the two regularity
conditions a spectrum must satisfy for the correlation-decay machinery:
a two-sided power-law envelope k0 s^(-alpha) <= u(s) <= k1 s^(-alpha), and
k-th differences shrinking like s^(-alpha-k).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .defaults import DEFAULTS
from .errors import NumericFailure
from .kernels import spread

__all__ = [
    "PowerSpectrum",
    "EnvelopeEstimate",
    "power_spectrum",
    "rational_log_spectrum",
    "tabulated_spectrum",
    "spectrum_eval",
    "verify_envelope",
    "verify_derivative_decay",
    "load_spectrum_json",
    "load_spectrum_csv",
]

# name -> callable on log-degree arrays; all entries are smooth, strictly
# positive, and have bounded derivatives of every order
F_CATALOG = {
    "one": lambda v: np.ones_like(v),
    "two_plus_sin": lambda v: 2.0 + np.sin(v),
}


@dataclass(frozen=True)
class PowerSpectrum:
    """Angular power spectrum c_l = u(l) with declared decay exponent alpha."""

    family: str
    alpha: float
    beta: float | None = None
    p_coeffs: tuple[float, ...] | None = None  # ascending powers
    q_coeffs: tuple[float, ...] | None = None
    f_name: str = "one"
    table_l: tuple[int, ...] | None = None
    table_c: tuple[float, ...] | None = None


@dataclass(frozen=True)
class EnvelopeEstimate:
    """Extremes of u(l) l^alpha over 1 <= l <= l_max."""

    k0_hat: float
    k1_hat: float
    ratio: float
    l_max: int
    passed: bool


@dataclass(frozen=True)
class DerivativeDecayReport:
    """Weighted difference sups |Delta^k u(l)| l^(alpha+k) per order k."""

    window: tuple[int, int]
    c_estimates: tuple[float, ...]       # index k
    segment_sups: tuple[tuple[float, ...], ...]
    growth_ratios: tuple[float, ...]
    passed_per_order: tuple[bool, ...]
    passed: bool


def _poly_degree(coeffs) -> int:
    arr = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if arr.size == 0:
        raise ValueError("polynomial has no nonzero coefficients")
    return arr.size - 1


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise ValueError(f"decay exponent alpha must be finite and exceed 2, got {alpha!r}")
    return alpha


def power_spectrum(alpha: float) -> PowerSpectrum:
    """Pure power law u(s) = s^(-alpha)."""
    return PowerSpectrum(family="power", alpha=_check_alpha(alpha))


def rational_log_spectrum(alpha, beta, p_coeffs, q_coeffs, f_name="one",
                          validate=True) -> PowerSpectrum:
    """u(s) = F(log s) P(s) / (s^beta Q(s)).

    With `validate` (the default) the declared alpha must match the true
    decay beta + deg Q - deg P; pass validate=False to build a deliberately
    inconsistent model and let `verify_envelope` flag it.
    """
    alpha = _check_alpha(alpha)
    beta = float(beta)
    p_coeffs = tuple(float(c) for c in p_coeffs)
    q_coeffs = tuple(float(c) for c in q_coeffs)
    if f_name not in F_CATALOG:
        raise ValueError(f"unknown F function {f_name!r}; choose from {sorted(F_CATALOG)}")
    deg_p = _poly_degree(p_coeffs)
    deg_q = _poly_degree(q_coeffs)
    if p_coeffs[deg_p] <= 0 or q_coeffs[deg_q] <= 0:
        raise ValueError("P and Q must have positive leading coefficients")
    probe = np.geomspace(1.0, 1e6, 256)
    if np.any(npoly.polyval(probe, p_coeffs) <= 0) or np.any(npoly.polyval(probe, q_coeffs) <= 0):
        raise ValueError("P and Q must be positive on [1, inf)")
    if validate and abs(beta + deg_q - deg_p - alpha) > 1e-9:
        raise ValueError(
            f"inconsistent rational-log spectrum: beta + deg Q - deg P = "
            f"{beta + deg_q - deg_p}, declared alpha = {alpha}")
    return PowerSpectrum(family="rational_log", alpha=alpha, beta=beta,
                         p_coeffs=p_coeffs, q_coeffs=q_coeffs, f_name=f_name)


def tabulated_spectrum(ls, cs, alpha) -> PowerSpectrum:
    """Spectrum read from explicit (l, c_l) pairs with a declared alpha."""
    ls = tuple(int(l) for l in ls)
    cs = tuple(float(c) for c in cs)
    if len(ls) != len(cs):
        raise ValueError("degree and value lists differ in length")
    if any(l < 1 for l in ls):
        raise ValueError("tabulated degrees must be >= 1")
    return PowerSpectrum(family="tabulated", alpha=_check_alpha(alpha),
                         table_l=ls, table_c=cs)


def spectrum_eval(ps: PowerSpectrum, l):
    """u(l) for scalar or array finite degree >= 1, in every family.

    Tabulated spectra return 0 for degrees missing from the table; the other
    families are strictly positive wherever defined.
    """
    lv = np.asarray(l, dtype=float)
    scalar = lv.ndim == 0
    lv = np.atleast_1d(lv)
    if not np.all((lv >= 1.0) & (lv < math.inf)):
        raise ValueError("spectra are defined for finite degrees >= 1 only")
    if ps.family == "power":
        out = lv ** -ps.alpha
    elif ps.family == "rational_log":
        f = F_CATALOG[ps.f_name]
        out = (f(np.log(lv)) * npoly.polyval(lv, ps.p_coeffs)
               / (lv ** ps.beta * npoly.polyval(lv, ps.q_coeffs)))
    elif ps.family == "tabulated":
        # sorted distinct degrees, each with its last value, and a final
        # degree inf reading 0 so that every finite degree has a place
        degrees, last = np.unique(np.array(ps.table_l[::-1], dtype=float), return_index=True)
        degrees = np.append(degrees, math.inf)
        values = np.append(np.array(ps.table_c[::-1], dtype=float)[last], 0.0)
        nearest = np.rint(lv)
        pos = np.searchsorted(degrees, nearest)
        out = np.where(degrees[pos] == nearest, values[pos], 0.0)
    else:
        raise ValueError(f"unknown spectrum family {ps.family!r}")
    if ps.family != "tabulated" and np.any(out <= 0):
        raise ValueError("spectrum evaluated to a non-positive value")
    return float(out[0]) if scalar else out


def positive_spectrum(ps: PowerSpectrum, lmax: int) -> np.ndarray:
    """c_l for l = 1..lmax, every one of them > 0; otherwise a ValueError
    naming the first degree that is not."""
    c = spectrum_eval(ps, np.arange(1, int(lmax) + 1))
    bad = np.flatnonzero(~(c > 0.0))
    if bad.size:
        raise ValueError(f"spectrum gives non-positive variance c_{int(bad[0]) + 1}; "
                         f"every degree up to {int(lmax)} needs c_l > 0")
    return c


def verify_envelope(ps: PowerSpectrum, l_max: int) -> EnvelopeEstimate:
    """Extremes of u(l) l^alpha over [1, l_max].

    The estimate fails when the spread k1/k0 exceeds the configured
    `envelope_ratio_cap`, which is the signature of a declared alpha that
    does not match the true decay.  Extremes that are not finite raise
    NumericFailure.
    """
    l_max = int(l_max)
    if l_max < 10:
        raise ValueError("need l_max >= 10 for a meaningful envelope")
    ls = np.arange(1, l_max + 1, dtype=float)
    scaled = spectrum_eval(ps, ls) * ls ** ps.alpha
    k0, k1, ratio, passed = spread(scaled, DEFAULTS["envelope_ratio_cap"])
    if not (math.isfinite(k0) and math.isfinite(k1)):
        raise NumericFailure(f"envelope extremes of u(l) l^alpha are not finite: {k0!r}, {k1!r}")
    return EnvelopeEstimate(k0_hat=k0, k1_hat=k1, ratio=ratio, l_max=l_max, passed=passed)


def verify_derivative_decay(ps: PowerSpectrum, k_max: int, window) -> DerivativeDecayReport:
    """Check |Delta^k u(l)| l^(alpha+k) stays bounded over the window, k <= k_max.

    Repeated forward differences of the sampled sequence stand in for
    derivatives.  The window is split into four logarithmic segments; an
    order fails when the sup in the last segment exceeds the configured
    `difference_growth_tol` times the sup in the first, i.e. when the
    weighted differences grow instead of staying level.  Weighted differences
    that are not finite raise NumericFailure.
    """
    k_max = int(k_max)
    if not 0 <= k_max <= 4:
        raise ValueError("difference order k_max must be within 0..4")
    l_min, l_max = int(window[0]), int(window[1])
    if not 1 <= l_min < l_max:
        raise ValueError("window must satisfy 1 <= l_min < l_max")

    ls = np.arange(l_min, l_max + k_max + 1, dtype=float)
    u = spectrum_eval(ps, ls)
    edges = np.geomspace(l_min, l_max, 5)

    c_estimates, seg_sups, ratios, order_ok = [], [], [], []
    for k in range(k_max + 1):
        dk = np.diff(u, n=k) if k else u
        base = ls[:dk.size]
        keep = base <= l_max
        weighted = np.abs(dk[keep]) * base[keep] ** (ps.alpha + k)
        if not np.all(np.isfinite(weighted)):
            raise NumericFailure(f"weighted differences of order {k} are not finite")
        sups = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            seg = weighted[(base[keep] >= lo) & (base[keep] <= hi)]
            sups.append(float(np.max(seg)) if seg.size else 0.0)
        c_estimates.append(float(np.max(weighted)))
        seg_sups.append(tuple(sups))
        first, last = sups[0], sups[-1]
        ratio = last / first if first > 0 else (math.inf if last > 0 else 1.0)
        ratios.append(ratio)
        order_ok.append(math.isfinite(ratio) and ratio <= DEFAULTS["difference_growth_tol"])

    return DerivativeDecayReport(window=(l_min, l_max),
                                 c_estimates=tuple(c_estimates),
                                 segment_sups=tuple(seg_sups),
                                 growth_ratios=tuple(ratios),
                                 passed_per_order=tuple(order_ok),
                                 passed=all(order_ok))


def load_spectrum_json(path) -> PowerSpectrum:
    """Read a spectrum definition file.

    Schema: {"family": "power"|"rational_log", "alpha": number, and for the
    rational-log family "beta": number, "P": [coeffs], "Q": [coeffs],
    "F": name}.  Structural consistency of rational-log parameters is not
    enforced here; run `verify_envelope` (the `verify` CLI command does) to
    flag a declared alpha that contradicts the actual decay.
    """
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    family = cfg.get("family")
    if family == "power":
        return power_spectrum(cfg["alpha"])
    if family == "rational_log":
        return rational_log_spectrum(cfg["alpha"], cfg["beta"], cfg["P"], cfg["Q"],
                                     f_name=cfg.get("F", "one"), validate=False)
    raise ValueError(f"unknown spectrum family {family!r} in {path}")


def load_spectrum_csv(path, alpha) -> PowerSpectrum:
    """Read a tabulated spectrum from two-column CSV rows (l, c_l)."""
    ls, cs = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if row[0].strip().lower() in ("l", "degree"):
                continue
            ls.append(int(row[0]))
            cs.append(float(row[1]))
    return tabulated_spectrum(ls, cs, alpha)
