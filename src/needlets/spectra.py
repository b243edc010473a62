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

`positive_spectrum` is the one check that c_l is finite and > 0 for
l = 1..L: the covariance series and the field draws both go through it, so
a table that stops short of the truncation degree, has a gap below it or an
infinite entry, is refused rather than read as a series that silently ends
there or sums to inf.

`verify_envelope` and `verify_derivative_decay` probe the two regularity
conditions a spectrum must satisfy for the correlation-decay machinery:
a two-sided power-law envelope k0 s^(-alpha) <= u(s) <= k1 s^(-alpha), and
k-th differences shrinking like s^(-alpha-k).
"""

from __future__ import annotations

import csv
import json
import math
import sys
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
    if not all(math.isfinite(v) for v in (beta, *p_coeffs, *q_coeffs)):
        raise ValueError("beta, P and Q must be finite")
    deg_p = _poly_degree(p_coeffs)
    deg_q = _poly_degree(q_coeffs)
    # every check below is written so that a NaN fails it
    if not (p_coeffs[deg_p] > 0 and q_coeffs[deg_q] > 0):
        raise ValueError("P and Q must have positive leading coefficients")
    probe = np.geomspace(1.0, 1e6, 256)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.concatenate([npoly.polyval(probe, p_coeffs), npoly.polyval(probe, q_coeffs)])
    if not np.all(values > 0):
        raise ValueError("P and Q must be positive on [1, inf)")
    if np.any(values == math.inf):
        raise ValueError("P or Q overflows on the probed degrees [1, 1e6]")
    if validate and not abs(beta + deg_q - deg_p - alpha) <= 1e-9:
        raise ValueError(
            f"inconsistent rational-log spectrum: beta + deg Q - deg P = "
            f"{beta + deg_q - deg_p}, declared alpha = {alpha}")
    return PowerSpectrum(family="rational_log", alpha=alpha, beta=beta,
                         p_coeffs=p_coeffs, q_coeffs=q_coeffs, f_name=f_name)


def tabulated_spectrum(ls, cs, alpha) -> PowerSpectrum:
    """Spectrum read from explicit (l, c_l) pairs with a declared alpha.

    ValueError for a degree below 1 or past the double range, where
    `spectrum_eval` could not convert it.
    """
    ls = tuple(int(l) for l in ls)
    cs = tuple(float(c) for c in cs)
    if len(ls) != len(cs):
        raise ValueError("degree and value lists differ in length")
    if any(l < 1 for l in ls):
        raise ValueError("tabulated degrees must be >= 1")
    for l in ls:
        if l > sys.float_info.max:
            raise ValueError(f"tabulated degree {l} is past the double range")
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
        # an overflow reads inf, which `positive_spectrum` refuses by degree
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
    if ps.family != "tabulated" and not np.all(out > 0):  # NaN fails too
        raise ValueError("spectrum evaluated to a non-positive value")
    return float(out[0]) if scalar else out


def positive_spectrum(ps: PowerSpectrum, lmax: int) -> np.ndarray:
    """c_l for l = 1..lmax, every one of them finite and > 0; otherwise a
    ValueError naming the first degree that is not."""
    c = spectrum_eval(ps, np.arange(1, int(lmax) + 1))
    bad = np.flatnonzero(~(c > 0.0) | (c == math.inf))
    if bad.size:
        kind, need = (("infinite", "a finite c_l") if c[bad[0]] == math.inf
                      else ("non-positive", "c_l > 0"))
        raise ValueError(f"spectrum gives {kind} variance c_{int(bad[0]) + 1}; "
                         f"every degree up to {int(lmax)} needs {need}")
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
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
    base = ls[:l_max - l_min + 1]  # the window: each order keeps its differences there
    edges = np.geomspace(l_min, l_max, 5)
    segments = [(base >= lo) & (base <= hi) for lo, hi in zip(edges[:-1], edges[1:])]

    c_estimates, seg_sups, ratios, order_ok = [], [], [], []
    for k in range(k_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            weighted = np.abs(np.diff(u, n=k)[:base.size]) * base ** (ps.alpha + k)
        if not np.all(np.isfinite(weighted)):
            raise NumericFailure(f"weighted differences of order {k} are not finite")
        sups = []
        for segment in segments:
            seg = weighted[segment]
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


def _is_number(value) -> bool:
    """A JSON number that converts to a double: an int or a float, not a
    bool, and not an integer literal past the double range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def load_spectrum_json(path) -> PowerSpectrum:
    """Read a spectrum definition file.

    Schema: {"family": "power"|"rational_log", "alpha": number, and for the
    rational-log family "beta": number, "P": [coeffs], "Q": [coeffs],
    "F": name}.  A file that breaks the schema (a top level that is not an
    object, a missing key, a field of the wrong type) is refused with a
    ValueError naming the file and the field.  Structural consistency of
    rational-log parameters is not enforced here; run `verify_envelope` (the
    `verify` CLI command does) to flag a declared alpha that contradicts the
    actual decay.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # a syntax error, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the top level must be an object, got {json.dumps(cfg)}")
    cfg = {"F": "one", **cfg}

    def field(key, check, kind):
        if key not in cfg:
            raise ValueError(f"{path}: missing key {key!r}")
        if not check(cfg[key]):
            raise ValueError(f"{path}: {key} must be {kind}, got {json.dumps(cfg[key])}")
        return cfg[key]

    family = cfg.get("family")
    if family == "power":
        return power_spectrum(field("alpha", _is_number, "a number"))
    if family == "rational_log":
        return rational_log_spectrum(
            field("alpha", _is_number, "a number"), field("beta", _is_number, "a number"),
            field("P", _is_number_list, "a list of numbers"),
            field("Q", _is_number_list, "a list of numbers"),
            f_name=field("F", lambda v: isinstance(v, str), "a string"), validate=False)
    raise ValueError(f"unknown spectrum family {family!r} in {path}")


def load_spectrum_csv(path, alpha) -> PowerSpectrum:
    """Read a tabulated spectrum from two-column CSV rows (l, c_l); a row with
    fewer than two fields, a field that does not convert, or a row the csv
    reader refuses, is refused with a ValueError naming the file and line."""
    ls, cs = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row or row[0].strip().startswith("#"):
                    continue
                if row[0].strip().lower() in ("l", "degree"):
                    continue
                if len(row) < 2:
                    raise ValueError(f"a row needs two fields, l and c_l; got {row!r}")
                ls.append(int(row[0]))
                cs.append(float(row[1]))
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return tabulated_spectrum(ls, cs, alpha)
