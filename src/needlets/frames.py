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
from .kernels import NeedletProfile, choose_lmax, spectral_weights
from .legendre import _paired_layout, _sph_harm_rows, sph_harm_flat_repeat, sph_harm_matrix

__all__ = [
    "SphereGrid",
    "FrameBoundsEstimate",
    "build_grid",
    "grid_min_separation",
    "frame_coefficients",
    "estimate_frame_bounds",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# points in one grid at most, and in one block of each pairwise product below
_POINT_CAP = 2_000_000
_SEPARATION_BLOCK = 512
_GRAM_BLOCK = 4096


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
    a = float(a)
    if a <= 1.0 + 1e-9:
        raise ValueError("dilation a must exceed 1")
    j = int(j)
    if j > 0:
        raise ValueError("scale index j must be <= 0 (scales a^j <= 1)")
    oversample = float(oversample)
    if oversample < 1.0:
        raise ValueError("oversample must be >= 1")
    n = int(math.ceil(oversample * DEFAULTS["grid_area_constant"] * a ** (-2 * j)))
    if n > _POINT_CAP:
        raise ValueError(f"grid at j={j} needs {n} points, above the cap {_POINT_CAP}")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.mod(i * _GOLDEN_ANGLE, 2.0 * math.pi)
    weights = np.full(n, math.sqrt(4.0 * math.pi / n))
    return SphereGrid(j=j, a=a, theta=theta, phi=phi, weights=weights)


def grid_min_separation(grid: SphereGrid) -> float:
    """Smallest pairwise geodesic distance on the grid (exhaustive)."""
    xyz = np.column_stack([
        np.sin(grid.theta) * np.cos(grid.phi),
        np.sin(grid.theta) * np.sin(grid.phi),
        np.cos(grid.theta),
    ])
    best = -1.0
    for start in range(0, grid.n, _SEPARATION_BLOCK):
        block = xyz[start:start + _SEPARATION_BLOCK]
        dots = block @ xyz.T
        for r in range(block.shape[0]):
            dots[r, start + r] = -1.0  # mask self-pairs
        best = max(best, float(np.max(dots)))
    return math.acos(min(1.0, best))


def _check_resolution(profile: NeedletProfile, a: float, j_min: int, L: int) -> None:
    resolvable = choose_lmax(profile, a ** j_min, DEFAULTS["eps_tail"])
    if L > resolvable:
        raise ValueError(
            f"band limit L={L} exceeds the finest scale's spectral support "
            f"({resolvable} at j={j_min}); extend j_range downward")


def frame_coefficients(f_hat: np.ndarray, profile: NeedletProfile,
                       grids: list[SphereGrid]) -> list[np.ndarray]:
    """Analysis coefficients <F, psi_{j,k}> per grid for a band-limited F.

    `f_hat` holds the harmonic coefficients of F in the flat layout over
    degrees 1..L.  Each returned array is indexed by k within its grid.
    """
    f_hat = np.asarray(f_hat, dtype=float)
    L = math.isqrt(f_hat.size + 1) - 1
    if (L + 1) ** 2 - 1 != f_hat.size or L < 1:
        raise ValueError("coefficient vector length must be (L+1)^2 - 1 for some L >= 1")
    if not grids:
        raise ValueError("need at least one grid")
    a = grids[0].a
    _check_resolution(profile, a, min(g.j for g in grids), L)
    out = []
    for g in grids:
        weighted = sph_harm_flat_repeat(spectral_weights(profile, a ** (2 * g.j), L)) * f_hat
        y = sph_harm_matrix(L, g.theta, g.phi)
        out.append(g.weights * (y @ weighted))
    return out


def estimate_frame_bounds(profile: NeedletProfile, a: float, j_range, L: int,
                          oversample: float = 1.0) -> FrameBoundsEstimate:
    """Extremal squared singular values of the analysis matrix on degrees 1..L.

    Assembled as a Gram matrix accumulated grid by grid, from one hemisphere
    of each grid and its mirror image, so memory stays bounded for fine
    scales.  Degrees must have spectral coverage somewhere
    in j_range; the estimate is flagged ill-conditioned when the smallest
    squared singular value drops below 1e-12 of the largest.
    """
    j_min, j_max = int(j_range[0]), int(j_range[1])
    if j_min > j_max or j_max > 0:
        raise ValueError("j_range must satisfy j_min <= j_max <= 0")
    L = int(L)
    if L < 1:
        raise ValueError("band limit L must be >= 1")
    _check_resolution(profile, a, j_min, L)

    a = float(a)
    coverage = np.zeros(L)
    for j in range(j_min, j_max + 1):
        f = spectral_weights(profile, a ** (2 * j), L)
        coverage += f * f
    if float(np.min(coverage)) < 1e-8 * float(np.max(coverage)):
        bad = int(np.argmin(coverage)) + 1
        raise ValueError(
            f"degree {bad} has no spectral coverage in j_range {j_min}..{j_max}")

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

    Each grid adds its blocks in the paired layout of `legendre._paired_layout`
    (the + by - block only above the diagonal); the matrix is completed and put
    in the flat layout once, at the end.
    """
    flat, n_plus = _paired_layout(L)
    ls = sph_harm_flat_repeat(np.arange(1, L + 1))[flat]
    ms = flat + 1 - ls * ls - ls
    gram = np.zeros((flat.size, flat.size))
    for j in range(j_min, j_max + 1):
        grid = build_grid(a, j, oversample)
        weights = spectral_weights(profile, a ** (2 * j), L)[ls - 1]
        _add_grid_gram(gram, n_plus, L, grid, weights, ms)
    gram[n_plus:, :n_plus] = gram[:n_plus, n_plus:].T
    order = np.argsort(flat)
    return gram[np.ix_(order, order)]


def _add_grid_gram(gram: np.ndarray, n_plus: int, L: int, grid: SphereGrid,
                   weights: np.ndarray, ms: np.ndarray) -> None:
    """Add (4 pi / n) times the sum of y y^T over one grid's points to `gram`.

    y holds the harmonics at a point in the paired layout, row i scaled by
    weights[i], the spectral weight f_l of its degree; ms[i] is its order m.
    Point n-1-i of a Fibonacci grid is the mirror image of point i: z -> -z
    and phi -> c - phi with c = (n-1) * golden angle.  At azimuth
    psi = phi - c/2 the mirror is psi -> -psi, which keeps the + rows and
    negates the - rows, so a point and its image add twice the + by + and
    - by - blocks of y y^T and cancel the rest.  Only the first n // 2 points
    are evaluated, into the half-width products A+ and A-; the middle point of
    an odd grid, its own image, enters at half weight.  Going back from psi to
    phi turns pair k, + row k = (l, m) and - row k = (l, -m), by m c / 2:
    + row k becomes cos(m c/2) (+ row k) - sin(m c/2) (- row k) and - row k
    becomes sin(m c/2) (+ row k) + cos(m c/2) (- row k).  With the weights and
    sqrt(8 pi / n) folded into the cos and sin, that is a few elementwise
    products of quarter-size blocks.
    """
    npair = L * (L + 1) // 2
    c = math.fmod((grid.n - 1) * _GOLDEN_ANGLE, 2.0 * math.pi)
    count = (grid.n + 1) // 2
    psi = grid.phi[:count] - 0.5 * c
    plus = np.zeros((n_plus, n_plus))
    minus = np.zeros((gram.shape[0] - n_plus,) * 2)
    for start in range(0, count, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, count)
        rows = _sph_harm_rows(1, L, grid.theta[start:stop], psi[start:stop], paired=True)
        if grid.n % 2 and stop == count:
            rows[:, -1] *= math.sqrt(0.5)
        plus += rows[:n_plus] @ rows[:n_plus].T
        minus += rows[n_plus:] @ rows[n_plus:].T
        del rows  # free this block before the next one is built

    g = math.sqrt(8.0 * math.pi / grid.n) * weights
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
