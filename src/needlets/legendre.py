"""Legendre polynomials, zonal series, and real spherical harmonics.

Everything here is built on upward three-term recurrences, which are stable
for arguments in [-1, 1].  Spherical harmonics use a normalized associated
Legendre recurrence that carries the orthonormalization inside the recursion,
so no factorial is ever formed; sectoral seeds that would leave the double
range near the poles carry an extended exponent, so harmonics stay accurate
up to `degree_cap` instead of underflowing to zero.

A coefficient window is a `CoeffSequence`: the batched series
`legendre_series_rows` and `zonal_series_rows` take one per row, and the
one-row `legendre_series` and `zonal_series` build one from an array and an
offset, so every window is checked in one place.

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

import numpy as np

from .defaults import degree_cap
from .differences import CoeffSequence
from .errors import DegreeCapExceeded, NumericFailure

__all__ = [
    "legendre_series",
    "legendre_series_rows",
    "zonal_eval",
    "zonal_series",
    "zonal_series_rows",
    "recursion_residual",
    "generating_function_check",
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
    out = _series_rows([CoeffSequence(offset, coeffs)], xv.reshape(-1))[0]
    return float(out[0]) if scalar else out.reshape(xv.shape)


def legendre_series_rows(seqs, x) -> np.ndarray:
    """Sums of s[l] * P_l(x) over the window of each `CoeffSequence` s in
    `seqs`, every row in one recurrence.

    `x` is a scalar or a 1-d array of points shared by every row, or a 2-d
    array with one row of points per coefficient row.  Returns an array of
    shape (len(seqs), points).  Windows may differ in length and offset; each
    value has the bits of the one-row `legendre_series` call.
    """
    seqs = list(seqs)
    xv = np.atleast_1d(_check_x(x))
    if xv.ndim > 2 or (xv.ndim == 2 and xv.shape[0] != len(seqs)):
        raise ValueError("points must be shared (1-d) or one row per coefficient row (2-d)")
    return _series_rows(seqs, xv)


def _series_rows(seqs: list, x: np.ndarray) -> np.ndarray:
    """The series loop: one degree recurrence for every `CoeffSequence`.

    `x` is a checked 1-d array shared by all windows, or 2-d with a row of
    points per window; each window was checked when it was built.  Rows are
    ordered by descending top degree, so the rows still inside their window
    form a prefix and each step works on that prefix only, in preallocated
    buffers.  A row reads zero below its
    offset; those zero terms leave its sum and carry at +0.0, so each row
    takes the float operations of a lone evaluation.  The compensation is
    TwoSum (Ogita, Rump & Oishi 2005): it yields the exact rounding error
    of each addition, the same value Neumaier's branch gives.  A window
    whose mass sum |a_l| is not finite is refused: a finite mass bounds
    every partial sum, as |P_l(x)| <= 1.
    """
    n, npts = len(seqs), x.shape[-1]
    out = np.zeros((n, npts))
    tops = np.array([s.top for s in seqs], dtype=int)
    order = np.argsort(-tops, kind="stable")
    if n == 0 or tops[order[0]] < 0:
        return out
    top = int(tops[order[0]])
    table = np.zeros((top + 1, n, 1))  # coefficient of degree l for sorted row j
    for j, i in enumerate(order):
        table[seqs[i].offset:tops[i] + 1, j, 0] = seqs[i].values
    with np.errstate(over="ignore"):
        mass = np.sum(np.abs(table[:, :, 0]), axis=0)
    if not np.all(np.isfinite(mass)):
        j = int(np.argmin(np.isfinite(mass)))
        raise NumericFailure(f"series row {order[j]} has coefficient mass {float(mass[j])!r}")
    if np.all(x == 1.0):
        out[order] = _series_at_one(table[:, :, 0], tops[order] + 1)[:, None]
        return out
    # live[l]: how many sorted rows still hold a degree-l term
    live = np.searchsorted(-tops[order], -np.arange(top + 2), side="right").tolist()

    # shared points are one row that broadcasts against every coefficient row;
    # a prefix [:k] of it is that row, so one loop serves both shapes
    k, j = n, live[0]  # rows past live[0] have empty windows
    x = x[order[:j]] if x.ndim == 2 else x[None]
    total, new, carry, term, err = (np.zeros((n, npts)) for _ in range(5))
    p, p_prev = np.ones(x.shape), np.zeros(x.shape)
    work = err[:len(x)]  # free between one step's sum and the next
    # per degree, the ufuncs are local names, each writes its last operand,
    # and the factors 2l+1, l and l+1 are 0-d float64 views of one vector
    multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
    factor = np.arange(2 * top + 2, dtype=float)
    tv, sv, cv, bv, ev, coeffs = total, new, carry, term, err, table
    for l in range(top + 1):
        if live[l] < k:  # these rows ended at degree l - 1
            out[order[live[l]:k]] = total[live[l]:k] + carry[live[l]:k]
            k = live[l]
            tv, sv, cv, bv, ev = total[:k], new[:k], carry[:k], term[:k], err[:k]
            coeffs = table[:, :k]
        multiply(coeffs[l], p, bv)
        # TwoSum: sv = tv + bv and ev = its rounding error, exactly
        add(tv, bv, sv)
        subtract(sv, tv, ev)
        subtract(bv, ev, bv)
        subtract(sv, ev, ev)
        subtract(tv, ev, ev)
        add(ev, bv, ev)
        add(cv, ev, cv)
        total, new, tv, sv = new, total, sv, tv
        if l == top:
            break
        # (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}, for the rows that go on
        if live[l + 1] < j:
            j = live[l + 1]
            x, work, p, p_prev = x[:j], work[:j], p[:j], p_prev[:j]
        multiply(x, factor[2 * l + 1, ...], work)
        multiply(work, p, work)
        multiply(p_prev, factor[l, ...], p_prev)
        subtract(work, p_prev, work)
        divide(work, factor[l + 1, ...], p_prev)
        p, p_prev = p_prev, p
    out[order[:k]] = total[:k] + carry[:k]
    return out


def _series_at_one(coeffs: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The series loop's values where every point is 1, with no degree loop:
    there its P_l are exactly 1, so column j of `coeffs` (a row per degree)
    is its TwoSum in degree order from +0.0, read after at[j] terms.
    `np.add.accumulate` adds sequentially, as the loop does: same bits."""
    terms = np.concatenate([np.zeros((1, coeffs.shape[1])), coeffs])
    sums = np.add.accumulate(terms)
    a, s = sums[:-1], sums[1:]
    bb = s - a
    terms[1:] = (a - (s - bb)) + (terms[1:] - bb)  # each addition's exact error
    cols = np.arange(at.size)
    return sums[at, cols] + np.add.accumulate(terms)[at, cols]


def zonal_eval(l: int, x: float) -> float:
    """Zonal harmonic Z_l(x) = (2l+1) P_l(x)."""
    l = _check_degree(l)
    *_, p_l = _legendre_p(_check_x(x), l)
    return float(_zonal_coeffs(p_l, l)[0])


def _zonal_coeffs(values, offset: int) -> np.ndarray:
    """a_l (2l+1) for the window a_offset .. a_top, inf past the double range."""
    values = np.asarray(values, dtype=float)
    ls = np.arange(offset, offset + values.size)
    with np.errstate(over="ignore"):
        return values * (2 * ls + 1)


def _zonal_mass(seq: CoeffSequence) -> float:
    """sum of |a_l| (2l+1) over the window, inf past the double range.  As
    |P_l(x)| <= 1, a finite mass bounds every partial sum of the zonal series,
    so the series loop cannot overflow."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(_zonal_coeffs(seq.values, seq.offset))))


def zonal_series(values: np.ndarray, x, offset: int = 0):
    """Sum of a_l * Z_l(x) = a_l (2l+1) P_l(x) for a coefficient window."""
    s = CoeffSequence(offset, values)  # checked before the (2l + 1) product
    return legendre_series(_zonal_coeffs(s.values, s.offset), x, offset=s.offset)


def zonal_series_rows(seqs, x) -> np.ndarray:
    """`zonal_series` of every `CoeffSequence` in one recurrence; `x` as in
    `legendre_series_rows`."""
    return legendre_series_rows(
        [CoeffSequence(s.offset, _zonal_coeffs(s.values, s.offset)) for s in seqs], x)


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
    if not abs(xi) < 1.0:
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
