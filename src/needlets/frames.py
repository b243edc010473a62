"""Discrete needlet frames: scale-indexed point sets, analysis coefficients,
and frame-bound estimates on band-limited subspaces.

Scale j <= 0 carries a spherical Fibonacci lattice of
n_j = ceil(oversample * C0 * a^(-2j)) points with equal weights
mu_{j,k} = sqrt(4 pi / n_j), so mu^2 is an equal-area quadrature weight.
The analysis matrix M[(j,k), (l,m)] = mu_{j,k} f(a^(2j) l(l+1)) Y_{l,m}(x_{j,k})
restricted to degrees 1..L has squared singular values sandwiched between
the frame bounds on that subspace; with good quadrature they approach the
extremes of the ideal dilation sum computed by `calderon_bounds`.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULTS
from .errors import NumericFailure
from .kernels import NeedletProfile, check_dilation, spectral_weights
from .legendre import (_check_degree, _sph_harm_rows, sph_harm_flat_index,
                       sph_harm_flat_repeat, sph_harm_matrix)

__all__ = [
    "SphereGrid",
    "FrameBoundsEstimate",
    "build_grid",
    "frame_coefficients",
    "estimate_frame_bounds",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# points in one grid at most, and in a `kernel` theta grid given as start:stop:count
_POINT_CAP = 2_000_000
# points over all grids of one j-range at most, by `_range_points`; at a >= sqrt(2)
# every range whose finest grid is within `_POINT_CAP` stays within it
_RANGE_POINT_CAP = 2 * _POINT_CAP
# points in one block of harmonic rows, for the Gram and `frame_coefficients`
_GRAM_BLOCK = 2048
# bytes the Gram stage of one frame estimate may hold, by `_gram_bytes`; L = 64
# needs about 0.5e9 and L = 128 about 6.9e9
_GRAM_BYTE_CAP = 2_000_000_000


@dataclass(frozen=True)
class SphereGrid:
    """Quasi-uniform points and weights for one scale index."""

    j: int
    a: float
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class FrameBoundsEstimate:
    """Extremal squared singular values of the analysis matrix on degrees 1..L."""

    L: int
    a_hat: float
    b_hat: float
    j_range: tuple[int, int]
    oversample: float
    ill_conditioned: bool

    @property
    def ratio(self) -> float:
        return self.b_hat / self.a_hat if self.a_hat > 0 else math.inf


def build_grid(a: float, j: int, oversample: float = 1.0) -> SphereGrid:
    """Fibonacci lattice for scale index j with equal-area weights."""
    a = check_dilation(a)
    j = int(j)
    n = _grid_size(a, j, oversample)
    theta, phi = _fibonacci_points(n, 0, n)
    weights = np.full(n, math.sqrt(4.0 * math.pi / n))
    return SphereGrid(j=j, a=a, theta=theta, phi=phi, weights=weights)


def _fibonacci_points(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of points start..stop-1 of the n-point Fibonacci lattice.

    Each coordinate is elementwise in the point index, so a slice of the
    lattice has the bits of the same slice of the whole.
    """
    i = np.arange(start, stop)
    theta = np.arccos(1.0 - (2.0 * i + 1.0) / n)  # z inside (-1, 1) for every i
    phi = np.mod(i * _GOLDEN_ANGLE, 2.0 * math.pi)
    return theta, phi


def _grid_size(a: float, j: int, oversample: float) -> int:
    """Point count of the grid at scale index j for a checked dilation a.

    ValueError for j > 0, an oversample that is not finite and >= 1, or a
    count above `_POINT_CAP`.
    """
    if j > 0:
        raise ValueError("scale index j must be <= 0 (scales a^j <= 1)")
    oversample = float(oversample)
    if not (math.isfinite(oversample) and oversample >= 1.0):
        raise ValueError("oversample must be finite and >= 1")
    try:
        n = oversample * DEFAULTS["grid_area_constant"] * a ** (-2 * j)
    except OverflowError:  # Python float power raises where numpy would give inf
        n = math.inf
    if n > _POINT_CAP:
        raise ValueError(f"grid at j={j} needs {n:.6g} points, above the cap {_POINT_CAP}")
    return int(math.ceil(n))


def _scale_weights(profile: NeedletProfile, a: float, js, L: int) -> dict[int, np.ndarray]:
    """f(a^(2j) l(l+1)) for l = 1..L and each j in js; ValueError for a degree
    that no j covers, its sum of f^2 over js below 1e-8 of the largest, and
    NumericFailure for a sum past the double range."""
    weights = {j: spectral_weights(profile, a ** (2 * j), L) for j in js}
    with np.errstate(over="ignore"):
        coverage = sum(f * f for f in weights.values())
    if not math.isfinite(float(np.max(coverage))):
        raise NumericFailure(f"frame weights for r={profile.r} leave the double range: "
                             "their squares sum to inf")
    if float(np.min(coverage)) < 1e-8 * float(np.max(coverage)):
        raise ValueError(f"degree {int(np.argmin(coverage)) + 1} has no spectral coverage "
                         f"in j_range {min(weights)}..{max(weights)}")
    return weights


def frame_coefficients(f_hat: np.ndarray, profile: NeedletProfile,
                       grids: list[SphereGrid]) -> list[np.ndarray]:
    """Analysis coefficients <F, psi_{j,k}> per grid for a band-limited F.

    `f_hat` holds the harmonic coefficients of F in the flat layout over
    degrees 1..L.  Each returned array is indexed by k within its grid.
    ValueError for grids of more than one dilation, or for a degree that no
    grid's scale covers.
    """
    f_hat = np.asarray(f_hat, dtype=float)
    L = math.isqrt(f_hat.size + 1) - 1
    if (L + 1) ** 2 - 1 != f_hat.size or L < 1:
        raise ValueError("coefficient vector length must be (L+1)^2 - 1 for some L >= 1")
    if not grids:
        raise ValueError("need at least one grid")
    if len({g.a for g in grids}) > 1:
        raise ValueError("grids must share one dilation a")
    weights = _scale_weights(profile, grids[0].a, sorted({g.j for g in grids}), L)
    out = []
    for g in grids:
        weighted = sph_harm_flat_repeat(weights[g.j]) * f_hat
        # one block of harmonics at a time, so memory does not grow with the grid
        coefs = np.empty(g.n)
        for s in range(0, g.n, _GRAM_BLOCK):
            e = s + _GRAM_BLOCK
            coefs[s:e] = sph_harm_matrix(L, g.theta[s:e], g.phi[s:e]) @ weighted
        out.append(g.weights * coefs)
    return out


def estimate_frame_bounds(profile: NeedletProfile, a: float, j_range, L: int,
                          oversample: float = 1.0) -> FrameBoundsEstimate:
    """Extremal squared singular values of the analysis matrix on degrees 1..L.

    Assembled as a Gram matrix accumulated grid by grid, from one hemisphere
    of each grid and its mirror image, so memory stays bounded for fine
    scales.  Degrees must have spectral coverage somewhere
    in j_range; the estimate is flagged ill-conditioned when the smallest
    squared singular value drops below 1e-12 of the largest.  A run whose
    Gram stage would hold more than `_GRAM_BYTE_CAP` bytes, or whose grids
    would hold more than `_RANGE_POINT_CAP` points in all, is refused with
    ValueError before any scale's weights are computed.
    """
    a = check_dilation(a)
    j_min, j_max = int(j_range[0]), int(j_range[1])
    if j_min > j_max or j_max > 0:
        raise ValueError("j_range must satisfy j_min <= j_max <= 0")
    L = _check_degree(L, 1)
    eigs = _eigvalsh_one_thread(_frame_gram(profile, a, j_min, j_max, L, oversample))
    a_hat = float(eigs[0])
    b_hat = float(eigs[-1])
    ill = not (a_hat > 1e-12 * b_hat)
    return FrameBoundsEstimate(L=L, a_hat=a_hat, b_hat=b_hat,
                               j_range=(j_min, j_max), oversample=float(oversample),
                               ill_conditioned=ill)


def _eigvalsh_one_thread(gram: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh on one BLAS thread, so its bits do not depend on the
    thread count; the previous count is restored afterwards."""
    threads = _openblas_threads()
    if threads is None:
        return np.linalg.eigvalsh(gram)
    get_threads, set_threads = threads
    previous = get_threads()
    set_threads(1)
    try:
        return np.linalg.eigvalsh(gram)
    finally:
        set_threads(previous)


@functools.cache
def _openblas_threads():
    """The get and set thread-count functions of the OpenBLAS bundled with
    numpy, or None for a numpy without one.  Loaded on first use."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                         "numpy.libs", "libscipy_openblas64_*.so*")))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads = lib.scipy_openblas_set_num_threads64_
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def _frame_gram(profile: NeedletProfile, a: float, j_min: int, j_max: int, L: int,
                oversample: float) -> np.ndarray:
    """The Gram matrix M^T M of the analysis matrix on degrees 1..L.

    The run is sized first, with no per-scale work: ValueError for a finest
    grid above `_POINT_CAP`, a Gram stage that `_gram_bytes` puts above
    `_GRAM_BYTE_CAP`, or grids that `_range_points` puts above
    `_RANGE_POINT_CAP` in all.  Then the spectral weights of each scale are
    computed once, by `_scale_weights`, for its coverage check and the Gram.
    Each grid adds its blocks in the paired layout of `_paired_layout` (the
    + by - block only above the diagonal); the matrix is completed and put in
    the flat layout once, at the end.
    """
    _grid_size(a, j_min, oversample)  # the finest grid within `_POINT_CAP`
    need = _gram_bytes(L)
    if need > _GRAM_BYTE_CAP:
        raise ValueError(f"the frame Gram at L={L} needs up to {need:.3g} bytes, "
                         f"above the cap {_GRAM_BYTE_CAP:.3g}")
    points = _range_points(a, j_min, j_max, oversample)
    if points > _RANGE_POINT_CAP:
        raise ValueError(f"the grids of j_range {j_min}..{j_max} need {points:.6g} points "
                         f"in all, above the cap {_RANGE_POINT_CAP}")
    weights = _scale_weights(profile, a, range(j_min, j_max + 1), L)
    flat, n_plus = _paired_layout(L)
    ls = sph_harm_flat_repeat(np.arange(1, L + 1))[flat]
    ms = flat + 1 - ls * ls - ls
    gram = np.zeros((flat.size, flat.size))
    for j, f in weights.items():
        _add_grid_gram(gram, flat, n_plus, _grid_size(a, j, oversample), f[ls - 1], ms)
    gram[n_plus:, :n_plus] = gram[:n_plus, n_plus:].T
    order = np.argsort(flat)
    return gram[np.ix_(order, order)]


def _range_points(a: float, j_min: int, j_max: int, oversample: float) -> float:
    """The points of the grids j_min..j_max before rounding up, a lower bound
    on their count, in closed form: the finest grid's times
    (1 - a^(-2n)) / (1 - a^(-2)) over n scales.  Neither factor overflows once
    the finest grid is within `_POINT_CAP`."""
    ln_q = 2.0 * math.log(a)
    finest = float(oversample) * DEFAULTS["grid_area_constant"] * a ** (-2 * j_min)
    return finest * math.expm1(-(j_max - j_min + 1) * ln_q) / math.expm1(-ln_q)


def _gram_bytes(L: int) -> int:
    """An upper bound on the bytes `_frame_gram` holds at once on degrees 1..L.

    It adds the Gram and its reordered copy, the + and - half-width blocks
    with two temporaries of the larger one's size (an outer product and a
    product with it), and one harmonic block of `_GRAM_BLOCK` points: its
    rows, the five order-by-point buffers of their recurrence, and twelve
    point arrays (the block's theta and psi, the recurrence's per-point
    buffers and their temporaries).  Grids are made a block at a time, so no
    term grows with the grid.
    """
    n = (L + 1) ** 2 - 1
    half = L * (L + 1) // 2 + (L + 1) // 2
    return 8 * (2 * n * n + 4 * half * half + (n + 5 * (L + 1) + 12) * _GRAM_BLOCK)


def _paired_layout(lmax: int) -> tuple[np.ndarray, int]:
    """Flat-layout column of each row of the paired layout, and its count of + rows.

    The mirror z -> -z, phi -> -phi keeps the + harmonics (cos-type and zonal
    with l + m even, sin-type with l + |m| odd) and negates the - ones, which
    come after them.  In each part, row k < lmax (lmax + 1) / 2 belongs to the
    pair k = l (l - 1) / 2 + m - 1 of (l, m) and (l, -m), one of which is +
    and the other -; the zonal rows of even degrees follow in the + part, those
    of odd degrees in the - part.
    """
    ls = np.repeat(np.arange(1, lmax + 1), np.arange(1, lmax + 1))
    ms = np.arange(ls.size) - ls * (ls - 1) // 2 + 1
    cos_kept = (ls + ms) % 2 == 0
    cos_col, sin_col = sph_harm_flat_index(ls, ms), sph_harm_flat_index(ls, -ms)
    zonal = sph_harm_flat_index(np.arange(1, lmax + 1), 0)
    plus = np.concatenate([np.where(cos_kept, cos_col, sin_col), zonal[1::2]])
    minus = np.concatenate([np.where(cos_kept, sin_col, cos_col), zonal[::2]])
    return np.concatenate([plus, minus]), plus.size


def _add_grid_gram(gram: np.ndarray, flat: np.ndarray, n_plus: int, n: int,
                   weights: np.ndarray, ms: np.ndarray) -> None:
    """Add (4 pi / n) times the sum of y y^T over the points of the n-point
    Fibonacci grid to `gram`.

    y holds the harmonics at a point in the paired layout (flat-layout column
    flat[i] in row i, the first n_plus of them +), row i scaled by
    weights[i], the spectral weight f_l of its degree; ms[i] is its order m.
    Point n-1-i of a Fibonacci grid is the mirror image of point i: z -> -z
    and phi -> c - phi with c = (n-1) * golden angle.  At azimuth
    psi = phi - c/2 the mirror is psi -> -psi, which keeps the + rows and
    negates the - rows, so a point and its image add twice the + by + and
    - by - blocks of y y^T and cancel the rest.  Only the first n // 2 points
    are evaluated, a block at a time from their indices, into the half-width
    products A+ and A-; the middle point of an odd grid, its own image, enters
    at half weight.  Going back from psi to phi turns pair k, + row k = (l, m)
    and - row k = (l, -m), by m c / 2:
    + row k becomes cos(m c/2) (+ row k) - sin(m c/2) (- row k) and - row k
    becomes sin(m c/2) (+ row k) + cos(m c/2) (- row k).  With the weights and
    sqrt(8 pi / n) folded into the cos and sin, that is a few elementwise
    products of quarter-size blocks.
    """
    npair = int(np.count_nonzero(ms[:n_plus]))  # + rows of nonzero order, one per pair
    c = math.fmod((n - 1) * _GOLDEN_ANGLE, 2.0 * math.pi)
    count = (n + 1) // 2
    plus = np.zeros((n_plus, n_plus))
    minus = np.zeros((gram.shape[0] - n_plus,) * 2)
    for start in range(0, count, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, count)
        theta, psi = _fibonacci_points(n, start, stop)
        psi -= 0.5 * c
        rows = _sph_harm_rows(flat, theta, psi)
        if n % 2 and stop == count:
            rows[:, -1] *= math.sqrt(0.5)
        plus += rows[:n_plus] @ rows[:n_plus].T
        minus += rows[n_plus:] @ rows[n_plus:].T
        del rows  # free this block before the next one is built

    g = math.sqrt(8.0 * math.pi / n) * weights
    turn = ms * (0.5 * c)
    cos, sin = g * np.cos(turn), (g * np.sin(turn))[:npair]
    d_plus, d_minus = cos[:n_plus], cos[n_plus:]
    top, side, cross = gram[:n_plus, :n_plus], gram[n_plus:, n_plus:], gram[:n_plus, n_plus:]
    sin_sin = np.outer(sin, sin)
    top += plus * np.outer(d_plus, d_plus)
    top[:npair, :npair] += minus[:npair, :npair] * sin_sin
    side += minus * np.outer(d_minus, d_minus)
    side[:npair, :npair] += plus[:npair, :npair] * sin_sin
    cross[:, :npair] += plus[:, :npair] * np.outer(d_plus, sin)
    cross[:npair] -= minus[:npair] * np.outer(sin, d_minus)
