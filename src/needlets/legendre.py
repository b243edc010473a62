"""Legendre polynomials, zonal series, and real spherical harmonics.

Everything here is built on upward three-term recurrences, which are stable
for arguments in [-1, 1].  Spherical harmonics use a normalized associated
Legendre recurrence that carries the orthonormalization inside the recursion,
so no factorial is ever formed; sectoral seeds that would leave the double
range near the poles carry an extended exponent, so harmonics stay accurate
up to `degree_cap` instead of underflowing to zero.

Conventions: P_l is the ordinary Legendre polynomial (P_l(1) = 1); the zonal
harmonic of degree l is Z_l(x) = (2l+1) P_l(x), with the surface-area
constant dropped; real harmonics Y_{l,m} are orthonormal on the sphere with
cos(m phi) for m > 0 and sin(|m| phi) for m < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import degree_cap
from .errors import DegreeCapExceeded

__all__ = [
    "LegendreTable",
    "SphHarmPoint",
    "legendre_batch",
    "legendre_series",
    "zonal_eval",
    "zonal_series",
    "recursion_residual",
    "generating_function_check",
    "real_sph_harm",
    "sph_harm_flat_index",
    "sph_harm_matrix",
]

# arguments may stray past [-1, 1] by this much before we call it an error
X_DOMAIN_TOL = 1e-12


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or abs(x) > 1.0 + X_DOMAIN_TOL:
        raise ValueError(f"argument {x!r} lies outside [-1, 1]")
    return min(1.0, max(-1.0, x))


def _check_degree(l: int) -> int:
    l = int(l)
    if l < 0:
        raise ValueError("degree must be >= 0")
    cap = degree_cap()
    if l > cap:
        raise DegreeCapExceeded(f"degree {l} exceeds the configured cap {cap}")
    return l


@dataclass(frozen=True)
class LegendreTable:
    """Values P_0(x) .. P_lmax(x) at a single abscissa."""

    lmax: int
    x: float
    values: np.ndarray


@dataclass(frozen=True)
class SphHarmPoint:
    """A spherical-harmonic evaluation request: degree, order, colatitude, longitude."""

    l: int
    m: int
    theta: float
    phi: float

    def __post_init__(self):
        if abs(self.m) > self.l:
            raise ValueError(f"order |m|={abs(self.m)} exceeds degree l={self.l}")
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"colatitude {self.theta!r} outside [0, pi]")

    @property
    def laplacian_eigenvalue(self) -> float:
        """l(l+1), the spherical-Laplacian eigenvalue at this degree."""
        return float(self.l * (self.l + 1))


def legendre_batch(x: float, lmax: int) -> LegendreTable:
    """Evaluate P_0(x) .. P_lmax(x) with (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}."""
    x = _check_x(x)
    lmax = _check_degree(lmax)
    values = np.empty(lmax + 1)
    values[0] = 1.0
    if lmax >= 1:
        values[1] = x
    for l in range(1, lmax):
        values[l + 1] = ((2 * l + 1) * x * values[l] - l * values[l - 1]) / (l + 1)
    return LegendreTable(lmax=lmax, x=x, values=values)


def legendre_series(coeffs: np.ndarray, x, offset: int = 0):
    """Sum of coeffs[l - offset] * P_l(x) over l = offset .. offset + len - 1.

    `x` may be a scalar or an array.  Terms are accumulated in ascending l
    with Neumaier compensation, so the result is independent of how callers
    batch or partition their evaluation points.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if offset < 0:
        raise ValueError("offset must be >= 0")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xv = np.atleast_1d(xs).astype(float)
    if xv.size and np.max(np.abs(xv)) > 1.0 + X_DOMAIN_TOL:
        raise ValueError("series arguments must lie in [-1, 1]")
    xv = np.clip(xv, -1.0, 1.0)
    top = offset + coeffs.size - 1

    total = np.zeros_like(xv)
    carry = np.zeros_like(xv)
    p_prev = np.zeros_like(xv)  # P_{-1} = 0
    p = np.ones_like(xv)        # P_0
    for l in range(top + 1):
        if l >= offset:
            term = coeffs[l - offset] * p
            new = total + term
            carry += np.where(np.abs(total) >= np.abs(term),
                              (total - new) + term,
                              (term - new) + total)
            total = new
        p, p_prev = ((2 * l + 1) * xv * p - l * p_prev) / (l + 1), p
    out = total + carry
    return float(out[0]) if scalar else out


def zonal_eval(l: int, x: float) -> float:
    """Zonal harmonic Z_l(x) = (2l+1) P_l(x)."""
    l = _check_degree(l)
    table = legendre_batch(x, l)
    return (2 * l + 1) * float(table.values[l])


def zonal_series(values: np.ndarray, x, offset: int = 0):
    """Sum of a_l * Z_l(x) = a_l (2l+1) P_l(x) for a coefficient window."""
    values = np.asarray(values, dtype=float)
    ls = np.arange(offset, offset + values.size)
    return legendre_series(values * (2 * ls + 1), x, offset=offset)


def recursion_residual(l: int, x: float) -> float:
    """Defect of (2l+1)(x-1) P_l = (l+1) P_{l+1} - (2l+1) P_l + l P_{l-1}.

    P_{-1} is taken to be 0, so l = 0 is allowed.
    """
    l = _check_degree(l)
    x = _check_x(x)
    table = legendre_batch(x, l + 1)
    p_lm1 = float(table.values[l - 1]) if l >= 1 else 0.0
    p_l = float(table.values[l])
    p_lp1 = float(table.values[l + 1])
    lhs = (2 * l + 1) * (x - 1.0) * p_l
    rhs = (l + 1) * p_lp1 - (2 * l + 1) * p_l + l * p_lm1
    return lhs - rhs


def generating_function_check(xi: float, eta: float, terms: int) -> float:
    """|sum_{l<=terms} P_l(eta) xi^l - (1 - 2 xi eta + xi^2)^{-1/2}|."""
    xi = float(xi)
    if abs(xi) >= 1.0:
        raise ValueError("|xi| must be < 1 for the series to converge")
    eta = _check_x(eta)
    disc = 1.0 - 2.0 * xi * eta + xi * xi
    if disc <= 0.0:
        raise ValueError("generating function is singular: 1 - 2 xi eta + xi^2 <= 0")
    table = legendre_batch(eta, terms)
    powers = xi ** np.arange(terms + 1)
    partial = math.fsum(table.values * powers)
    return abs(partial - disc ** -0.5)


# ---------------------------------------------------------------------------
# real spherical harmonics
# ---------------------------------------------------------------------------

_SQRT_INV_4PI = math.sqrt(1.0 / (4.0 * math.pi))


def sph_harm_flat_index(l: int, m: int) -> int:
    """Position of (l, m) in the flat degree-major layout over l >= 1."""
    if l < 1 or abs(m) > l:
        raise ValueError(f"invalid (l, m) = ({l}, {m}) for the flat layout")
    return l * l - 1 + (m + l)


def real_sph_harm(p: SphHarmPoint) -> float:
    """Real orthonormal spherical harmonic at (theta, phi).

    m = 0 is the zonal harmonic; m > 0 pairs with sqrt(2) cos(m phi) and
    m < 0 with sqrt(2) sin(|m| phi).
    """
    l = _check_degree(p.l)
    if l == 0:
        return _SQRT_INV_4PI
    rows = _sph_harm_rows(l, l, np.array([float(p.theta)]), np.array([float(p.phi)]))
    return float(rows[p.m + l, 0])


def sph_harm_matrix(lmax: int, theta, phi) -> np.ndarray:
    """All real harmonics Y_{l,m} for 1 <= l <= lmax at the given points.

    Returns shape (npoints, (lmax+1)^2 - 1) with columns in the flat
    (l, m) layout of `sph_harm_flat_index`.  The array is the transpose of
    a fresh C-ordered (column, point) buffer that the caller owns and may
    scale in place.
    """
    lmax = _check_degree(int(lmax))
    if lmax < 1:
        raise ValueError("need lmax >= 1")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    if th.shape != ph.shape or th.ndim != 1:
        raise ValueError("theta and phi must be 1-d arrays of equal length")
    return _sph_harm_rows(1, lmax, th, ph).T


# Sectoral seeds shrink like sin(theta)^m and leave the double range near the
# poles at high order.  A seed is carried as mantissa * 2**exponent, and an
# (m, point) pair whose seed is below the normal range runs its degree
# recurrence in that form until the value climbs back above 2**_REJOIN_EXP.
# Power-of-two scaling is exact, so every pair whose seed stays normal gets
# the same bits as plain arithmetic.
_MIN_NORMAL_EXP = -1021  # frexp exponent of the smallest normal double
_REJOIN_EXP = -960


def _sph_harm_rows(lmin: int, lmax: int, th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """Real harmonics of degrees lmin..lmax (lmin >= 1), one row per (l, m).

    Row l*l - lmin*lmin + (m + l) holds Y_{l,m} at every point.  The degree
    is stepped once; each step advances all orders m <= l together with
    points on the contiguous axis, using the normalized recurrence

        P_{l,m} = a_{l,m} (x P_{l-1,m} - b_{l,m} P_{l-2,m}),

    seeded by P_{m,m} on the sectoral diagonal and
    P_{m+1,m} = sqrt(2m+3) x P_{m,m}.  Each value takes the same float
    operations, in the same order, as a loop over m then l would, so the
    result does not depend on the layout.
    """
    npts = th.size
    x = np.cos(th)
    s_mant, s_exp = np.frexp(np.sin(th))
    sqrt2 = math.sqrt(2.0)
    ms = np.arange(lmax + 1)
    angles = np.multiply.outer(ms.astype(float), ph)
    ccol = sqrt2 * np.cos(angles)
    scol = sqrt2 * np.sin(angles)
    del angles

    out = np.empty(((lmax + 1) ** 2 - lmin * lmin, npts))
    p_prev = np.zeros((lmax + 1, npts))  # P_{l-2, m}
    p_cur = np.zeros((lmax + 1, npts))   # P_{l-1, m}
    tmp = np.empty((lmax, npts))
    seed = np.full(npts, _SQRT_INV_4PI)  # P_{m,m} = seed * 2**seed_exp
    seed_exp = np.zeros(npts, dtype=int)
    p_cur[0] = seed
    ext = _ScaledPairs()

    for l in range(1, lmax + 1):
        k = l - 1  # orders 0 .. l-2 use the three-term recurrence
        if k:
            a, b = _recurrence_coeffs(l, ms[:k])
            np.multiply(p_cur[:k], x, out=tmp[:k])
            np.multiply(p_prev[:k], b[:, None], out=p_prev[:k])
            np.subtract(tmp[:k], p_prev[:k], out=p_prev[:k])
            np.multiply(p_prev[:k], a[:, None], out=p_prev[:k])
        np.multiply(math.sqrt(2 * k + 3.0) * x, p_cur[k], out=p_prev[k])
        seed = seed * (-math.sqrt((2 * l + 1) / (2.0 * l))) * s_mant
        seed, shift = np.frexp(seed)
        seed_exp += shift + s_exp
        p_prev[l] = np.ldexp(seed, seed_exp)
        p_prev, p_cur = p_cur, p_prev

        if ext.size:
            ext.step(l, x, p_prev, p_cur)
        lost = seed_exp < _MIN_NORMAL_EXP  # seed below 2**-1022, and not zero
        if lost.any():
            ext.add(l, np.flatnonzero(lost), seed[lost], seed_exp[lost])

        if l >= lmin:
            base = l * l - lmin * lmin
            out[base + l] = p_cur[0]
            np.multiply(ccol[1:l + 1], p_cur[1:l + 1], out=out[base + l + 1:base + 2 * l + 1])
            np.multiply(scol[l:0:-1], p_cur[l:0:-1], out=out[base:base + l])
    return out


def _recurrence_coeffs(l: int, m: np.ndarray):
    """a_{l,m} and b_{l,m} of the normalized degree recurrence."""
    m2 = m * m
    a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m2))
    b = np.sqrt(((l - 1.0) ** 2 - m2) / (4.0 * (l - 1.0) ** 2 - 1.0))
    return a, b


class _ScaledPairs:
    """(m, point) pairs whose degree recurrence runs as mantissa * 2**exp.

    Mantissas are renormalized to [0.5, 1) after every step; the shared
    exponent applies to both the current and the previous degree.
    """

    def __init__(self):
        self.m = np.empty(0, dtype=int)
        self.pt = np.empty(0, dtype=int)
        self.lo = np.empty(0)
        self.hi = np.empty(0)
        self.exp = np.empty(0, dtype=int)

    @property
    def size(self) -> int:
        return self.m.size

    def add(self, m: int, pts, seed, seed_exp) -> None:
        self.m = np.concatenate([self.m, np.full(pts.size, m)])
        self.pt = np.concatenate([self.pt, pts])
        self.lo = np.concatenate([self.lo, np.zeros(pts.size)])
        self.hi = np.concatenate([self.hi, seed])
        self.exp = np.concatenate([self.exp, seed_exp])

    def step(self, l: int, x, p_prev, p_cur) -> None:
        """Advance every pair to degree l and write its values into the state."""
        a, b = _recurrence_coeffs(l, self.m)
        hi = a * (x[self.pt] * self.hi - b * self.lo)
        hi, shift = np.frexp(hi)
        self.lo = np.ldexp(self.hi, -shift)
        self.hi = hi
        self.exp += shift
        p_cur[self.m, self.pt] = np.ldexp(self.hi, self.exp)
        back = self.exp >= _REJOIN_EXP
        if back.any():
            p_prev[self.m[back], self.pt[back]] = np.ldexp(self.lo[back], self.exp[back])
            keep = ~back
            self.m, self.pt = self.m[keep], self.pt[keep]
            self.lo, self.hi, self.exp = self.lo[keep], self.hi[keep], self.exp[keep]
