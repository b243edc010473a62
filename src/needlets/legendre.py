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
cos(m phi) for m > 0 and sin(|m| phi) for m < 0.  The one harmonic layout here
is the flat (l, m) layout of `sph_harm_flat_index`; a caller that wants its
rows in another order, such as the frame Gram's (`frames._paired_layout`),
passes that order as a map of flat columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import degree_cap
from .errors import DegreeCapExceeded

__all__ = [
    "SphHarmPoint",
    "legendre_series",
    "legendre_series_rows",
    "zonal_eval",
    "zonal_series",
    "zonal_series_rows",
    "recursion_residual",
    "generating_function_check",
    "real_sph_harm",
    "sph_harm_flat_index",
    "sph_harm_flat_repeat",
    "sph_harm_matrix",
]

# arguments may stray past [-1, 1] by this much before we call it an error
X_DOMAIN_TOL = 1e-12


def _check_x(x, name: str = "arguments"):
    """A float or an array clipped to [-1, 1]; NaN or a value past the tolerance is an error."""
    xs = np.asarray(x, dtype=float)
    if xs.size and not np.max(np.abs(xs)) <= 1.0 + X_DOMAIN_TOL:
        raise ValueError(f"{name} must lie in [-1, 1]")
    return np.clip(xs, -1.0, 1.0) if xs.ndim else min(1.0, max(-1.0, float(xs)))


def _check_degree(l: int, lowest: int = 0) -> int:
    l = int(l)
    if l < lowest:
        raise ValueError(f"degree must be >= {lowest}")
    cap = degree_cap()
    if l > cap:
        raise DegreeCapExceeded(f"degree {l} exceeds the configured cap {cap}")
    return l


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
        if not math.isfinite(self.phi):
            raise ValueError("harmonic coordinates (theta, phi) must be finite")


def _legendre_p(x: float, top: int):
    """Yield P_0(x) .. P_top(x) by (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}.

    `x` is a checked float.  `_series_rows` runs the same step on arrays,
    with the same float operations, so the two agree bit for bit.
    """
    p_prev, p = 0.0, 1.0
    yield p
    for l in range(top):
        p, p_prev = ((2 * l + 1) * x * p - l * p_prev) / (l + 1), p
        yield p


def legendre_series(coeffs: np.ndarray, x, offset: int = 0):
    """Sum of coeffs[l - offset] * P_l(x) over l = offset .. offset + len - 1.

    `x` may be a scalar or an array.  Terms are accumulated in ascending l
    with compensation, so the result is independent of how callers batch or
    partition their evaluation points.  This is the one-row case of
    `legendre_series_rows`.
    """
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(_check_x(x))
    out = _series_rows([np.asarray(coeffs, dtype=float)], [offset], xv.reshape(-1))[0]
    return float(out[0]) if scalar else out.reshape(xv.shape)


def legendre_series_rows(rows, x, offsets) -> np.ndarray:
    """Sums of rows[i][l - offsets[i]] * P_l(x), every row in one recurrence.

    `x` is a scalar or a 1-d array of points shared by every row, or a 2-d
    array with one row of points per coefficient row.  Returns an array of
    shape (len(rows), points).  Rows may differ in length and offset; each
    value has the bits of the one-row `legendre_series` call.
    """
    rows = [np.asarray(c, dtype=float) for c in rows]
    offsets = _one_offset_per_row(rows, offsets)
    xv = np.atleast_1d(_check_x(x))
    if xv.ndim > 2 or (xv.ndim == 2 and xv.shape[0] != len(rows)):
        raise ValueError("points must be shared (1-d) or one row per coefficient row (2-d)")
    return _series_rows(rows, offsets, xv)


def _one_offset_per_row(rows: list, offsets) -> list:
    offsets = list(offsets)
    if len(offsets) != len(rows):
        raise ValueError("need one offset per coefficient row")
    return offsets


def _series_rows(rows: list, offsets: list, x: np.ndarray) -> np.ndarray:
    """The series loop: one degree recurrence for every coefficient row.

    `x` is a checked 1-d array shared by all rows, or 2-d with a row of
    points per coefficient row.  Rows are ordered by descending top degree,
    so the rows still inside their window form a prefix and each step works
    on that prefix only, in preallocated buffers.  A row reads zero below its
    offset; those zero terms leave its sum and carry at +0.0, so each row
    takes the float operations of a lone evaluation.  The compensation is
    TwoSum (Ogita, Rump & Oishi 2005): it yields the exact rounding error
    of each addition, the same value Neumaier's branch gives.
    """
    for c, offset in zip(rows, offsets):
        if c.ndim != 1:
            raise ValueError("each coefficient row must be 1-d")
        if offset < 0:
            raise ValueError("offset must be >= 0")
    n, npts = len(rows), x.shape[-1]
    out = np.zeros((n, npts))
    tops = np.array([int(o) + c.size - 1 for c, o in zip(rows, offsets)], dtype=int)
    order = np.argsort(-tops, kind="stable")
    if n == 0 or tops[order[0]] < 0:
        return out
    top = int(tops[order[0]])
    table = np.zeros((top + 1, n, 1))  # coefficient of degree l for sorted row j
    for j, i in enumerate(order):
        table[offsets[i]:tops[i] + 1, j, 0] = rows[i]
    # live[l]: how many sorted rows still hold a degree-l term
    live = np.searchsorted(-tops[order], -np.arange(top + 2), side="right")

    # shared points are one row that broadcasts against every coefficient row;
    # a prefix [:k] of it is that row, so one loop serves both shapes
    x = x[order] if x.ndim == 2 else x[None]
    total, new, carry, term, err = (np.zeros((n, npts)) for _ in range(5))
    p, p_prev = np.ones(x.shape), np.zeros(x.shape)
    work = err[:len(x)]  # free between one step's sum and the next
    k = n
    tv, sv, cv, bv, ev = total, new, carry, term, err
    for l in range(top + 1):
        if live[l] < k:  # these rows ended at degree l - 1
            out[order[live[l]:k]] = total[live[l]:k] + carry[live[l]:k]
            k = int(live[l])
            tv, sv, cv, bv, ev = total[:k], new[:k], carry[:k], term[:k], err[:k]
        np.multiply(table[l, :k], p[:k], out=bv)
        # TwoSum: sv = tv + bv and ev = its rounding error, exactly
        np.add(tv, bv, out=sv)
        np.subtract(sv, tv, out=ev)
        np.subtract(bv, ev, out=bv)
        np.subtract(sv, ev, out=ev)
        np.subtract(tv, ev, out=ev)
        np.add(ev, bv, out=ev)
        np.add(cv, ev, out=cv)
        total, new, tv, sv = new, total, sv, tv
        if l == top:
            break
        # (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}, for the rows that go on
        j = live[l + 1]
        xj, pj, qj, wj = x[:j], p[:j], p_prev[:j], work[:j]
        np.multiply(xj, 2 * l + 1, out=wj)
        np.multiply(wj, pj, out=wj)
        np.multiply(qj, l, out=qj)
        np.subtract(wj, qj, out=wj)
        np.divide(wj, l + 1, out=qj)
        p, p_prev = p_prev, p
    out[order[:k]] = total[:k] + carry[:k]
    return out


def zonal_eval(l: int, x: float) -> float:
    """Zonal harmonic Z_l(x) = (2l+1) P_l(x)."""
    l = _check_degree(l)
    *_, p_l = _legendre_p(_check_x(x), l)
    return float(_zonal_coeffs(p_l, l)[0])


def _zonal_coeffs(values, offset: int) -> np.ndarray:
    """a_l (2l+1) for the window a_offset .. a_top."""
    values = np.asarray(values, dtype=float)
    if values.ndim > 1:  # checked before the product, which would broadcast it
        raise ValueError("each coefficient row must be 1-d")
    ls = np.arange(offset, offset + values.size)
    return values * (2 * ls + 1)


def zonal_series(values: np.ndarray, x, offset: int = 0):
    """Sum of a_l * Z_l(x) = a_l (2l+1) P_l(x) for a coefficient window."""
    return legendre_series(_zonal_coeffs(values, offset), x, offset=offset)


def zonal_series_rows(rows, x, offsets) -> np.ndarray:
    """`zonal_series` of every coefficient row in one recurrence; `x` as in
    `legendre_series_rows`."""
    rows = list(rows)
    offsets = _one_offset_per_row(rows, offsets)
    return legendre_series_rows([_zonal_coeffs(v, o) for v, o in zip(rows, offsets)],
                                x, offsets)


def recursion_residual(l: int, x: float) -> float:
    """Defect of (2l+1)(x-1) P_l = (l+1) P_{l+1} - (2l+1) P_l + l P_{l-1}.

    P_{-1} is taken to be 0, so l = 0 is allowed.
    """
    l = _check_degree(l)
    x = _check_x(x)
    # the leading 0.0 stands for P_{-1}
    *_, p_lm1, p_l, p_lp1 = [0.0, *_legendre_p(x, _check_degree(l + 1))]
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
    terms = _check_degree(terms)
    powers = xi ** np.arange(terms + 1)
    partial = math.fsum(np.fromiter(_legendre_p(eta, terms), float, terms + 1) * powers)
    return abs(partial - disc ** -0.5)


# ---------------------------------------------------------------------------
# real spherical harmonics
# ---------------------------------------------------------------------------

_SQRT_INV_4PI = math.sqrt(1.0 / (4.0 * math.pi))


def sph_harm_flat_index(l, m):
    """Position of (l, m) in the flat degree-major layout over l >= 1; elementwise on arrays."""
    if np.any((l < 1) | (abs(m) > l)):
        raise ValueError(f"invalid (l, m) = ({l}, {m}) for the flat layout")
    return l * l - 1 + (m + l)


def sph_harm_flat_repeat(per_degree) -> np.ndarray:
    """A vector v_1 .. v_L over degrees, in the flat layout: v_l repeated 2l+1 times."""
    per_degree = np.asarray(per_degree)
    return np.repeat(per_degree, 2 * np.arange(1, per_degree.size + 1) + 1)


def real_sph_harm(p: SphHarmPoint) -> float:
    """Real orthonormal spherical harmonic at (theta, phi).

    m = 0 is the zonal harmonic; m > 0 pairs with sqrt(2) cos(m phi) and
    m < 0 with sqrt(2) sin(|m| phi).
    """
    l = _check_degree(p.l)
    if l == 0:
        return _SQRT_INV_4PI
    rows = _sph_harm_rows(sph_harm_flat_index(l, np.arange(-l, l + 1)),
                          np.array([float(p.theta)]), np.array([float(p.phi)]))
    return float(rows[p.m + l, 0])


def sph_harm_matrix(lmax: int, theta, phi) -> np.ndarray:
    """All real harmonics Y_{l,m} for 1 <= l <= lmax at the given points.

    Returns shape (npoints, (lmax+1)^2 - 1) with columns in the flat
    (l, m) layout of `sph_harm_flat_index`.  The array is the transpose of
    a fresh C-ordered (column, point) buffer that the caller owns and may
    scale in place.
    """
    lmax = _check_degree(lmax, 1)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    if th.shape != ph.shape or th.ndim != 1:
        raise ValueError("theta and phi must be 1-d arrays of equal length")
    return _sph_harm_rows(np.arange((lmax + 1) ** 2 - 1), th, ph).T


# Sectoral seeds shrink like sin(theta)^m and leave the double range near the
# poles at high order.  A seed is carried as mantissa * 2**exponent, and an
# (m, point) pair whose seed is below the normal range runs its degree
# recurrence in that form until the value climbs back above 2**_REJOIN_EXP.
# Power-of-two scaling is exact, so every pair whose seed stays normal gets
# the same bits as plain arithmetic.
_MIN_NORMAL_EXP = -1021  # frexp exponent of the smallest normal double
_REJOIN_EXP = -960


def _sph_harm_rows(cols: np.ndarray, th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """Real harmonics at every point, one row per flat-layout column in `cols`.

    Row i holds Y_{l,m} for the (l, m) of column cols[i] of the layout of
    `sph_harm_flat_index`; `cols` is a permutation of the columns of the
    degrees lmin..lmax it spans, and every order gives the same bits.  The
    degree is stepped once; each step advances all orders m <= l together
    with points on the contiguous axis, using the normalized recurrence

        P_{l,m} = a_{l,m} (x P_{l-1,m} - b_{l,m} P_{l-2,m}),

    seeded by P_{m,m} on the sectoral diagonal and
    P_{m+1,m} = sqrt(2m+3) x P_{m,m}.  Each value takes the same float
    operations, in the same order, as a loop over m then l would.
    """
    if not (np.all(np.isfinite(th)) and np.all(np.isfinite(ph))):
        raise ValueError("harmonic coordinates (theta, phi) must be finite")
    lmin, lmax = math.isqrt(int(cols.min()) + 1), math.isqrt(int(cols.max()) + 1)
    row_of = np.argsort(cols)  # output row of each column, from column lmin^2 - 1 on
    npts = th.size
    x = np.cos(th)
    s_mant, s_exp = np.frexp(np.sin(th))
    sqrt2 = math.sqrt(2.0)
    ms = np.arange(lmax + 1)
    # exact, and the identity for |phi| < 2 pi; keeps m phi finite for any finite phi
    angles = np.multiply.outer(ms.astype(float), np.fmod(ph, 2.0 * math.pi))
    ccol = sqrt2 * np.cos(angles)
    scol = sqrt2 * np.sin(angles)
    del angles

    out = np.empty((cols.size, npts))
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
            # rows of m = -l .. l; tmp is free until the next step's recurrence
            rows = row_of[l * l - lmin * lmin:(l + 1) ** 2 - lmin * lmin]
            out[rows[l]] = p_cur[0]
            out[rows[l + 1:]] = np.multiply(ccol[1:l + 1], p_cur[1:l + 1], out=tmp[:l])
            out[rows[l - 1::-1]] = np.multiply(scol[1:l + 1], p_cur[1:l + 1], out=tmp[:l])
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
