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

import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULTS
from .kernels import NeedletProfile, choose_lmax, spectral_weights
from .legendre import sph_harm_flat_repeat, sph_harm_matrix

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
_GRAM_BLOCK = 8192


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

    eigs = np.linalg.eigvalsh(_frame_gram(profile, a, j_min, j_max, L, oversample))
    a_hat = float(eigs[0])
    b_hat = float(eigs[-1])
    ill = not (a_hat > 1e-12 * b_hat)
    return FrameBoundsEstimate(L=L, a_hat=a_hat, b_hat=b_hat,
                               j_range=(j_min, j_max), oversample=float(oversample),
                               ill_conditioned=ill)


def _frame_gram(profile: NeedletProfile, a: float, j_min: int, j_max: int, L: int,
                oversample: float) -> np.ndarray:
    """The Gram matrix M^T M of the analysis matrix on degrees 1..L."""
    ncol = (L + 1) ** 2 - 1
    gram = np.zeros((ncol, ncol))
    for j in range(j_min, j_max + 1):
        grid = build_grid(a, j, oversample)
        factors = sph_harm_flat_repeat(spectral_weights(profile, a ** (2 * j), L))
        gram += (4.0 * math.pi / grid.n) * _grid_gram(L, grid, factors)
    return gram


def _grid_gram(L: int, grid: SphereGrid, factors: np.ndarray) -> np.ndarray:
    """Sum of y^T y over the weighted harmonic rows y of one grid's points.

    Point n-1-i of a Fibonacci grid is the mirror image of point i: z -> -z
    and phi -> c - phi with c = (n-1) * golden angle.  So only the first
    n // 2 points are summed, in blocks, as H; the other half enters as
    R H R^T (see `_mirror_map`), and the middle point of an odd grid, its own
    image, is added directly.
    """
    half = grid.n // 2
    total = np.zeros((factors.size, factors.size))
    for start in range(0, half, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, half)
        y = sph_harm_matrix(L, grid.theta[start:stop], grid.phi[start:stop])
        y *= factors
        total += y.T @ y
        del y  # free this block before the next one is built
    pair, diag, off = _mirror_map(L, math.fmod((grid.n - 1) * _GOLDEN_ANGLE, 2.0 * math.pi))
    mirrored = diag[:, None] * total + off[:, None] * total[pair]
    total += mirrored * diag + mirrored[:, pair] * off
    if grid.n % 2:
        y = sph_harm_matrix(L, grid.theta[half:half + 1], grid.phi[half:half + 1]) * factors
        total += y.T @ y
    return total


def _mirror_map(L: int, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The map R from Y(theta, phi) to Y(pi - theta, c - phi) on the flat layout.

    P_{l,m}(-x) = (-1)^(l+m) P_{l,m}(x), and cos/sin(m (c - phi)) expand in
    cos/sin(m c), so R pairs (l, m) with (l, -m) and has two nonzeros per
    row: mirrored column k is diag[k] * y[:, k] + off[k] * y[:, pair[k]].
    """
    ls = sph_harm_flat_repeat(np.arange(1, L + 1))
    ms = np.arange(ls.size) + 1 - ls * ls - ls
    sign = 1.0 - 2.0 * ((ls + ms) % 2)
    mc = np.abs(ms) * c
    diag = np.where(ms < 0, -sign, sign) * np.cos(mc)
    off = np.where(ms == 0, 0.0, sign * np.sin(mc))
    return np.arange(ls.size) - 2 * ms, diag, off
