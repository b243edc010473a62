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
never depend on evaluation order and replicas can run on any schedule.  The
Monte-Carlo loop uses that: each of two threads owns one contiguous half of
the replicas and streams it through its own small buffer, drawing each
replica once and projecting it onto one weighted harmonic row per distinct
coefficient beta_{t,x}, however many query pairs share it.
Longitudes are reduced modulo 2 pi on entry, so any finite point is usable.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .kernels import NeedletProfile, _truncate, choose_lmax, spectral_weights
from .legendre import (
    _check_degree,
    _check_x,
    _sph_harm_rows,
    sph_harm_flat_index,
    sph_harm_flat_repeat,
    sph_harm_matrix,
    zonal_eval,
)
from .spectra import PowerSpectrum, positive_spectrum

__all__ = [
    "AlmSet",
    "MonteCarloCorrelation",
    "sample_alm",
    "needlet_coefficient",
    "monte_carlo_correlation",
    "monte_carlo_correlations",
    "addition_theorem_check",
    "points_cos_angle",
]

_U64 = 2 ** 64
# size of each Monte-Carlo worker's buffer of replica coefficients
_BLOCK_BYTES = 2 ** 20
# threads per Monte-Carlo call; each owns this share of the replicas
_WORKERS = 2


@dataclass(frozen=True)
class AlmSet:
    """Real harmonic coefficients a_{l,m} for 1 <= l <= L in the flat layout."""

    L: int
    coeffs: np.ndarray
    seed: int
    stream: int = 0

    def get(self, l: int, m: int) -> float:
        return float(self.coeffs[sph_harm_flat_index(l, m)])


class MonteCarloCorrelation(NamedTuple):
    estimate: float
    stderr: float


def _check_u64(name: str, value: int) -> int:
    value = int(value)
    if not 0 <= value < _U64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer")
    return value


def _philox_words(seed: int, streams, words: np.ndarray) -> None:
    """Fill row k of the uint64 array `words` with the first raw words of
    Philox(key=[seed, streams[k]]).

    One generator serves every stream: its state is set to the one a new
    Philox with that key starts from (counter 0, empty buffer).  Building a
    generator per stream would also draw OS entropy for a seed the key then
    overrides.
    """
    gen = np.random.Philox(0)  # a fixed seed reads no OS entropy; the state below replaces it
    state = gen.state
    state["state"]["counter"][:] = 0
    state["buffer_pos"] = 4
    key = state["state"]["key"]
    key[0] = seed
    for row, stream in zip(words, streams):
        key[1] = stream
        gen.state = state
        row[:] = gen.random_raw(row.size)


def _counter_normals(seed: int, streams, out: np.ndarray) -> None:
    """Fill row k of `out` with standard normals from stream (seed, streams[k]).

    `out` is a C-contiguous float64 array with one row per stream.  Draw j
    of a row is the inverse normal CDF of the uniform (w + 1/2) 2^-53, w the
    top 53 bits of Philox word j.  For w = 2^53 - 1 that uniform rounds to
    1.0, whose inverse CDF is inf, so uniforms are clamped to 1 - 2^-53; no
    other word moves.  The raw words are written into `out` itself and the
    whole block is converted in place, so no temporary of the block's size
    is made.
    """
    flat = out.reshape(-1, copy=False)
    words = flat.view(np.uint64)
    _philox_words(seed, streams, out.view(np.uint64))
    words >>= np.uint64(11)
    # in place on the 1-D view; on a 2-D view numpy would copy the block first
    np.copyto(flat, words, casting="unsafe")
    flat += 0.5
    flat *= 2.0 ** -53
    np.minimum(flat, 1.0 - 2.0 ** -53, out=flat)
    ndtri(flat, out=flat)


def _sigma_per_coefficient(spectrum: PowerSpectrum, L: int) -> np.ndarray:
    return sph_harm_flat_repeat(np.sqrt(positive_spectrum(spectrum, L)))


def sample_alm(spectrum: PowerSpectrum, L: int, seed: int, stream: int = 0) -> AlmSet:
    """Draw a_{l,m} ~ Normal(0, c_l), independent across (l, m).

    Deterministic in (seed, stream): coefficient j is the inverse-CDF image
    of Philox word j, so partial or parallel evaluation cannot reorder draws.
    """
    L = _check_degree(L, 1)
    seed = _check_u64("seed", seed)
    stream = _check_u64("stream", stream)
    sigma = _sigma_per_coefficient(spectrum, L)
    z = np.empty((1, sigma.size))
    _counter_normals(seed, [stream], z)
    return AlmSet(L=L, coeffs=z[0] * sigma, seed=seed, stream=stream)


def needlet_coefficient(alm: AlmSet, profile: NeedletProfile, t: float,
                        point: tuple[float, float],
                        eps_tail: float | None = None) -> float:
    """beta_{t,x} = sum_{l,m} f(t^2 l(l+1)) a_{l,m} Y_{l,m}(x).

    Refuses to run when the stored degree L cannot carry the scale's
    spectral support, since the result would be silently biased.
    """
    required = choose_lmax(profile, t, eps_tail)
    if alm.L < required:
        raise ValueError(
            f"coefficients stored to degree {alm.L} but scale t={t} needs {required}")
    theta, phi = _point(point)
    y = sph_harm_matrix(alm.L, [theta], [phi])[0]
    w = sph_harm_flat_repeat(spectral_weights(profile, t * t, alm.L))
    return float(np.sum(alm.coeffs * w * y))


def monte_carlo_correlation(profile: NeedletProfile, spectrum: PowerSpectrum,
                            t: float, point_x, point_y, replicas: int,
                            seed: int, eps_tail: float | None = None) -> MonteCarloCorrelation:
    """Sample correlation of one coefficient pair; see monte_carlo_correlations."""
    (result,) = monte_carlo_correlations(profile, spectrum, [(t, point_x, point_y)],
                                         replicas, seed, eps_tail)
    return result


def monte_carlo_correlations(profile: NeedletProfile, spectrum: PowerSpectrum,
                             queries, replicas: int, seed: int,
                             eps_tail: float | None = None) -> list[MonteCarloCorrelation]:
    """Sample correlations of coefficient pairs over independent field draws.

    `queries` is a sequence of (t, point_x, point_y).  Replica i uses stream
    (seed, i) and is drawn once, at the largest degree any scale needs; a
    scale of degree L reads the first L(L+2) coefficients, which are the
    draws it would make alone, so every result is a pure function of
    (seed, replicas) and its query, whatever the other queries, the blocking
    or the schedule.  Each distinct coefficient beta_{t,x} is projected once,
    into its own row of the sample, and a query reads two rows.  Two threads
    each own one contiguous half of the replicas and stream it through a
    buffer of 1 MiB (or one replica, if larger), whatever the replica count;
    each replica goes into its own slot of the sample, so neither the split
    nor the buffer size moves a bit.
    The estimate is the uncentered moment ratio matching the defining
    expectation formula for these zero-mean fields; the standard error is
    the leave-one-out jackknife of that ratio.
    """
    replicas = int(replicas)
    if replicas < 100:
        raise ValueError("need at least 100 replicas for a usable standard error")
    seed = _check_u64("seed", seed)
    queries = [(float(t), _point(point_x), _point(point_y))
               for t, point_x, point_y in queries]
    if not queries:
        return []
    # one projection, and one row of the sample, per distinct (t, point)
    keys = {}
    for t, point_x, point_y in queries:
        keys.setdefault((t, point_x), len(keys))
        keys.setdefault((t, point_y), len(keys))
    weights = {t: _truncate(profile, t, eps_tail) for t in dict.fromkeys(t for t, _ in keys)}
    projections = [sph_harm_flat_repeat(weights[t])
                   * sph_harm_matrix(weights[t].size, [theta], [phi])[0]
                   for t, (theta, phi) in keys]
    sigma = _sigma_per_coefficient(spectrum, max(f.size for f in weights.values()))
    chunk = max(1, _BLOCK_BYTES // (sigma.size * sigma.itemsize))

    samples = np.empty((len(keys), replicas))

    def draw_and_project(lo: int, hi: int) -> None:
        # this worker owns replicas lo..hi-1; every replica is reduced on its
        # own, so the result does not depend on which rows share a chunk
        buffer = np.empty((min(chunk, hi - lo), sigma.size))
        for start in range(lo, hi, chunk):
            stop = min(start + chunk, hi)
            rows = buffer[:stop - start]
            _counter_normals(seed, range(start, stop), rows)
            rows *= sigma
            for k, w in enumerate(projections):
                samples[k, start:stop] = (rows[:, :w.size] * w).sum(axis=1)

    cuts = [replicas * k // _WORKERS for k in range(_WORKERS + 1)]
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        for future in [pool.submit(draw_and_project, lo, hi) for lo, hi in zip(cuts, cuts[1:])]:
            future.result()
    return [_jackknife_correlation(samples[keys[t, point_x]], samples[keys[t, point_y]])
            for t, point_x, point_y in queries]


def _jackknife_correlation(bx: np.ndarray, by: np.ndarray) -> MonteCarloCorrelation:
    """Moment-ratio correlation of paired coefficient samples, with its stderr.

    The ratio does not change when a sample is scaled, so each is first
    scaled by the power of two that brings its largest magnitude into
    [0.5, 1).  That is exact: the moments keep their bits, and stay in the
    double range however large the coefficients are.
    """
    bx, by = (np.ldexp(b, -np.frexp(np.max(np.abs(b)))[1]) for b in (bx, by))
    replicas = bx.size
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
    z_l = zonal_eval(l, points_cos_angle(point_x, point_y))  # checks the degree too
    l = int(l)
    if l == 0:
        lhs = 1.0 / (4.0 * math.pi)
    else:
        y = _sph_harm_rows(sph_harm_flat_index(l, np.arange(-l, l + 1)),
                           np.array([float(point_x[0]), float(point_y[0])]),
                           np.array([float(point_x[1]), float(point_y[1])]))
        lhs = float(np.sum(y[:, 0] * y[:, 1]))
    return abs(lhs - z_l / (4.0 * math.pi))


def _point(point) -> tuple[float, float]:
    """A (theta, phi) pair as floats; both must be finite.  phi is reduced to
    fmod(phi, 2 pi), which leaves |phi| < 2 pi unchanged and keeps the
    longitude difference in `points_cos_angle` finite."""
    theta, phi = float(point[0]), float(point[1])
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("point coordinates (theta, phi) must be finite")
    return theta, math.fmod(phi, 2.0 * math.pi)


def points_cos_angle(point_x, point_y) -> float:
    """Inner product of two unit vectors given as (theta, phi) pairs."""
    tx, px = _point(point_x)
    ty, py = _point(point_y)
    c = (math.cos(tx) * math.cos(ty)
         + math.sin(tx) * math.sin(ty) * math.cos(px - py))
    return _check_x(c)
