"""Isotropic Gaussian random fields and Monte-Carlo needlet coefficients.

A field is represented by real spherical-harmonic coefficients a_{l,m},
independent centered Gaussians with Var(a_{l,m}) = c_l.  In the real basis
the usual complex reality constraint is satisfied identically, every
needlet coefficient

    beta_{t,x} = sum_{l,m} f(t^2 l(l+1)) a_{l,m} Y_{l,m}(x)

is a real scalar, and the two-point expectation reduces to the analytic
covariance series divided by 4 pi (the analytic engine drops the
surface-area constant, the harmonics here keep it; correlations agree with
no adjustment).

Randomness is counter-based: draw j of stream (seed, stream) is a fixed
function of the Philox output word at counter position j, so coefficients
never depend on evaluation order and replicas can run on any schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .kernels import NeedletProfile, choose_lmax, profile_eval
from .legendre import _sph_harm_rows, legendre_batch, sph_harm_flat_index, sph_harm_matrix
from .spectra import PowerSpectrum, spectrum_eval

__all__ = [
    "AlmSet",
    "CoefficientSample",
    "MonteCarloCorrelation",
    "sample_alm",
    "needlet_coefficient",
    "monte_carlo_correlation",
    "addition_theorem_check",
    "rotate_alm_about_pole",
    "points_cos_angle",
]

_U64 = 2 ** 64


@dataclass(frozen=True)
class AlmSet:
    """Real harmonic coefficients a_{l,m} for 1 <= l <= L in the flat layout."""

    L: int
    coeffs: np.ndarray
    seed: int
    stream: int = 0

    def get(self, l: int, m: int) -> float:
        return float(self.coeffs[sph_harm_flat_index(l, m)])


@dataclass(frozen=True)
class CoefficientSample:
    """One needlet coefficient: scale, evaluation point, value."""

    t: float
    point: tuple[float, float]
    value: float


class MonteCarloCorrelation(NamedTuple):
    estimate: float
    stderr: float


def _check_u64(name: str, value: int) -> int:
    value = int(value)
    if not 0 <= value < _U64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer")
    return value


def _counter_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """Standard normals from the counter-based stream keyed by (seed, stream)."""
    key = np.array([seed, stream], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(count)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(u)


def _sigma_per_coefficient(spectrum: PowerSpectrum, L: int) -> np.ndarray:
    ls = np.arange(1, L + 1)
    c = np.atleast_1d(spectrum_eval(spectrum, ls))
    if np.any(c <= 0.0):
        bad = int(ls[np.argmin(c)])
        raise ValueError(f"spectrum gives non-positive variance c_{bad}; "
                         "every sampled degree needs c_l > 0")
    return np.repeat(np.sqrt(c), 2 * ls + 1)


def sample_alm(spectrum: PowerSpectrum, L: int, seed: int, stream: int = 0) -> AlmSet:
    """Draw a_{l,m} ~ Normal(0, c_l), independent across (l, m).

    Deterministic in (seed, stream): coefficient j is the inverse-CDF image
    of Philox word j, so partial or parallel evaluation cannot reorder draws.
    """
    L = int(L)
    if L < 1:
        raise ValueError("need maximum degree L >= 1")
    seed = _check_u64("seed", seed)
    stream = _check_u64("stream", stream)
    sigma = _sigma_per_coefficient(spectrum, L)
    z = _counter_normals(seed, stream, sigma.size)
    return AlmSet(L=L, coeffs=z * sigma, seed=seed, stream=stream)


def _profile_weights(profile: NeedletProfile, t: float, L: int) -> np.ndarray:
    ls = np.arange(1, L + 1, dtype=float)
    f = profile_eval(profile, (t * t) * ls * (ls + 1.0))
    return np.repeat(f, (2 * np.arange(1, L + 1)) + 1)


def needlet_coefficient(alm: AlmSet, profile: NeedletProfile, t: float,
                        point: tuple[float, float],
                        eps_tail: float | None = None) -> CoefficientSample:
    """beta_{t,x} = sum_{l,m} f(t^2 l(l+1)) a_{l,m} Y_{l,m}(x).

    Refuses to run when the stored degree L cannot carry the scale's
    spectral support, since the result would be silently biased.
    """
    required = choose_lmax(profile, t, eps_tail)
    if alm.L < required:
        raise ValueError(
            f"coefficients stored to degree {alm.L} but scale t={t} needs {required}")
    theta, phi = float(point[0]), float(point[1])
    y = sph_harm_matrix(alm.L, [theta], [phi])[0]
    w = _profile_weights(profile, t, alm.L)
    value = float(np.sum(alm.coeffs * w * y))
    return CoefficientSample(t=float(t), point=(theta, phi), value=value)


def monte_carlo_correlation(profile: NeedletProfile, spectrum: PowerSpectrum,
                            t: float, point_x, point_y, replicas: int,
                            seed: int, eps_tail: float | None = None,
                            chunk: int = 1024) -> MonteCarloCorrelation:
    """Sample correlation of coefficient pairs over independent field draws.

    Replica i uses stream (seed, i), so the estimate is a pure function of
    (seed, replicas) regardless of chunking or parallel schedule.  The
    estimate is the uncentered moment ratio matching the defining
    expectation formula for these zero-mean fields; the standard error is
    the leave-one-out jackknife of that ratio.
    """
    replicas = int(replicas)
    if replicas < 100:
        raise ValueError("need at least 100 replicas for a usable standard error")
    seed = _check_u64("seed", seed)
    L = choose_lmax(profile, t, eps_tail)
    y_pair = sph_harm_matrix(L, [float(point_x[0]), float(point_y[0])],
                             [float(point_x[1]), float(point_y[1])])
    w = _profile_weights(profile, t, L)
    wx = w * y_pair[0]
    wy = w * y_pair[1]
    sigma = _sigma_per_coefficient(spectrum, L)

    bx = np.empty(replicas)
    by = np.empty(replicas)
    for start in range(0, replicas, chunk):
        stop = min(start + chunk, replicas)
        block = np.empty((stop - start, sigma.size))
        for i in range(start, stop):
            block[i - start] = _counter_normals(seed, i, sigma.size)
        block *= sigma
        bx[start:stop] = (block * wx).sum(axis=1)
        by[start:stop] = (block * wy).sum(axis=1)

    sxx = float(np.sum(bx * bx))
    syy = float(np.sum(by * by))
    sxy = float(np.sum(bx * by))
    if sxx <= 0.0 or syy <= 0.0:
        raise ValueError("degenerate sample: zero variance at an evaluation point")
    estimate = sxy / math.sqrt(sxx * syy)

    # leave-one-out jackknife of the ratio estimator
    loo = (sxy - bx * by) / np.sqrt((sxx - bx * bx) * (syy - by * by))
    stderr = float(np.sqrt((replicas - 1) / replicas
                           * np.sum((loo - np.mean(loo)) ** 2)))
    return MonteCarloCorrelation(estimate=estimate, stderr=stderr)


def addition_theorem_check(l: int, point_x, point_y) -> float:
    """|sum_m Y_{l,m}(x) Y_{l,m}(y) - (2l+1)/(4 pi) P_l(x . y)|."""
    l = int(l)
    if l < 0:
        raise ValueError("degree must be >= 0")
    cos_gamma = points_cos_angle(point_x, point_y)
    p_l = float(legendre_batch(cos_gamma, l).values[l])  # also checks the degree cap
    if l == 0:
        lhs = 1.0 / (4.0 * math.pi)
    else:
        y = _sph_harm_rows(l, l, np.array([float(point_x[0]), float(point_y[0])]),
                           np.array([float(point_x[1]), float(point_y[1])]))
        lhs = float(np.sum(y[:, 0] * y[:, 1]))
    return abs(lhs - (2 * l + 1) / (4.0 * math.pi) * p_l)


def rotate_alm_about_pole(alm: AlmSet, dphi: float) -> AlmSet:
    """Coefficients of the field rotated by dphi about the polar axis.

    In the real basis a rotation mixes (m, -m) pairs by a plane rotation
    of angle m * dphi; evaluating the rotated coefficient set at phi equals
    evaluating the original at phi + dphi.
    """
    l, m = np.tril_indices(alm.L)
    l += 1
    m += 1
    center = l * l - 1 + l  # flat index of (l, 0)
    ic = center + m
    is_ = center - m
    c, s = np.cos(m * dphi), np.sin(m * dphi)
    ac, as_ = alm.coeffs[ic], alm.coeffs[is_]
    out = alm.coeffs.copy()
    out[ic] = c * ac + s * as_
    out[is_] = -s * ac + c * as_
    return AlmSet(L=alm.L, coeffs=out, seed=alm.seed, stream=alm.stream)


def points_cos_angle(point_x, point_y) -> float:
    """Inner product of two unit vectors given as (theta, phi) pairs."""
    tx, px = float(point_x[0]), float(point_x[1])
    ty, py = float(point_y[0]), float(point_y[1])
    c = (math.cos(tx) * math.cos(ty)
         + math.sin(tx) * math.sin(ty) * math.cos(px - py))
    return min(1.0, max(-1.0, c))
