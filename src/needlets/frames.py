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
from .kernels import NeedletProfile, choose_lmax, profile_eval
from .legendre import sph_harm_matrix

__all__ = [
    "SphereGrid",
    "FrameBoundsEstimate",
    "build_grid",
    "grid_min_separation",
    "frame_coefficients",
    "estimate_frame_bounds",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


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

    @property
    def points(self) -> np.ndarray:
        """(n, 2) array of (theta, phi) rows."""
        return np.column_stack([self.theta, self.phi])


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


def build_grid(a: float, j: int, oversample: float = 1.0,
               point_cap: int = 2_000_000) -> SphereGrid:
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
    if n > point_cap:
        raise ValueError(f"grid at j={j} needs {n} points, above the cap {point_cap}")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.mod(i * _GOLDEN_ANGLE, 2.0 * math.pi)
    weights = np.full(n, math.sqrt(4.0 * math.pi / n))
    return SphereGrid(j=j, a=a, theta=theta, phi=phi, weights=weights)


def grid_min_separation(grid: SphereGrid, chunk: int = 512) -> float:
    """Smallest pairwise geodesic distance on the grid (exhaustive)."""
    xyz = np.column_stack([
        np.sin(grid.theta) * np.cos(grid.phi),
        np.sin(grid.theta) * np.sin(grid.phi),
        np.cos(grid.theta),
    ])
    best = -1.0
    for start in range(0, grid.n, chunk):
        block = xyz[start:start + chunk]
        dots = block @ xyz.T
        for r in range(block.shape[0]):
            dots[r, start + r] = -1.0  # mask self-pairs
        best = max(best, float(np.max(dots)))
    return math.acos(min(1.0, best))


def _profile_factors(profile: NeedletProfile, a: float, j: int, L: int) -> np.ndarray:
    """f(a^(2j) l(l+1)) repeated per order, in the flat (l, m) layout."""
    ls = np.arange(1, L + 1, dtype=float)
    f = profile_eval(profile, a ** (2 * j) * ls * (ls + 1.0))
    return np.repeat(f, (2 * np.arange(1, L + 1)) + 1)


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
        weighted = _profile_factors(profile, a, g.j, L) * f_hat
        y = sph_harm_matrix(L, g.theta, g.phi)
        out.append(g.weights * (y @ weighted))
    return out


def estimate_frame_bounds(profile: NeedletProfile, a: float, j_range, L: int,
                          oversample: float = 1.0,
                          chunk: int = 8192) -> FrameBoundsEstimate:
    """Extremal squared singular values of the analysis matrix on degrees 1..L.

    Assembled as a Gram matrix accumulated grid by grid, so memory stays
    bounded for fine scales.  Degrees must have spectral coverage somewhere
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

    ls = np.arange(1, L + 1, dtype=float)
    coverage = np.zeros(L)
    for j in range(j_min, j_max + 1):
        f = profile_eval(profile, float(a) ** (2 * j) * ls * (ls + 1.0))
        coverage += f * f
    if float(np.min(coverage)) < 1e-8 * float(np.max(coverage)):
        bad = int(ls[np.argmin(coverage)])
        raise ValueError(
            f"degree {bad} has no spectral coverage in j_range {j_min}..{j_max}")

    ncol = (L + 1) ** 2 - 1
    gram = np.zeros((ncol, ncol))
    for j in range(j_min, j_max + 1):
        grid = build_grid(a, j, oversample)
        factors = _profile_factors(profile, float(a), j, L)
        mu_sq = 4.0 * math.pi / grid.n
        for start in range(0, grid.n, chunk):
            stop = min(start + chunk, grid.n)
            y = sph_harm_matrix(L, grid.theta[start:stop], grid.phi[start:stop])
            y *= factors
            gram += mu_sq * (y.T @ y)

    eigs = np.linalg.eigvalsh(gram)
    a_hat = float(eigs[0])
    b_hat = float(eigs[-1])
    ill = not (a_hat > 1e-12 * b_hat)
    return FrameBoundsEstimate(L=L, a_hat=a_hat, b_hat=b_hat,
                               j_range=(j_min, j_max), oversample=float(oversample),
                               ill_conditioned=ill)
