"""Sphere grids, analysis coefficients, and frame-bound estimates."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlets import (
    DegreeCapExceeded,
    NumericFailure,
    NeedletProfile,
    build_grid,
    calderon_bounds,
    choose_lmax,
    estimate_frame_bounds,
    frame_coefficients,
    profile_eval,
    sph_harm_flat_index,
    sph_harm_flat_repeat,
    sph_harm_matrix,
    spectral_weights,
)
from needlets import frames
from needlets.frames import _paired_layout
from needlets.legendre import _sph_harm_rows

RNG = np.random.default_rng(20240817)
PROFILE = NeedletProfile(1)


class TestBuildGrid:
    def test_point_count_scales_with_dilation(self):
        n0 = build_grid(2.0, 0).n
        n1 = build_grid(2.0, -1).n
        n2 = build_grid(2.0, -2).n
        assert abs(n1 - 4 * n0) <= 1
        assert abs(n2 - 4 * n1) <= 1

    def test_squared_weights_sum_to_sphere_area(self):
        for j in (0, -2, -4):
            grid = build_grid(2.0, j, oversample=1.5)
            assert np.sum(grid.weights ** 2) == pytest.approx(4 * math.pi, abs=1e-9)

    def test_min_separation_quasi_uniform(self):
        grid = build_grid(2.0, -4)
        assert grid.n == 1024
        xyz = np.column_stack([np.sin(grid.theta) * np.cos(grid.phi),
                               np.sin(grid.theta) * np.sin(grid.phi),
                               np.cos(grid.theta)])
        dots = xyz @ xyz.T
        np.fill_diagonal(dots, -1.0)  # mask self-pairs
        min_separation = math.acos(min(1.0, float(np.max(dots))))
        assert min_separation >= 0.7 * math.sqrt(4 * math.pi / grid.n)

    def test_positive_scale_index_rejected(self):
        with pytest.raises(ValueError):
            build_grid(2.0, 1)

    def test_undersampling_rejected(self):
        with pytest.raises(ValueError):
            build_grid(2.0, 0, oversample=0.5)

    def test_point_cap(self):
        # 67 108 864 points, refused before anything is allocated
        with pytest.raises(ValueError, match="above the cap"):
            build_grid(2.0, -12)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 1.0])
    def test_dilation_must_be_finite_and_exceed_one(self, a):
        # a NaN used to pass and build a grid
        with pytest.raises(ValueError, match=r"^dilation a must be finite and > 1$"):
            build_grid(a, 0)

    @pytest.mark.parametrize("oversample", [math.nan, math.inf])
    def test_oversample_must_be_finite(self, oversample):
        # inf used to raise OverflowError, and NaN failed in int()
        with pytest.raises(ValueError, match=r"^oversample must be finite and >= 1$"):
            build_grid(2.0, 0, oversample)

    def test_point_cap_holds_past_the_float_range(self):
        # 4 * 1e308 points overflows to inf, which used to reach int()
        with pytest.raises(ValueError, match="needs inf points, above the cap"):
            build_grid(2.0, 0, 1e308)

    def test_point_cap_holds_past_the_float_power_range(self):
        # 1e200 ** 2 used to raise OverflowError from the Python float power
        with pytest.raises(ValueError, match="needs inf points, above the cap"):
            build_grid(1e200, -1)


class TestFrameCoefficients:
    def test_single_harmonic(self):
        L, l0, m0 = 4, 3, -2
        f_hat = np.zeros((L + 1) ** 2 - 1)
        f_hat[sph_harm_flat_index(l0, m0)] = 1.0
        grids = [build_grid(2.0, j, 2.0) for j in range(-3, 1)]
        coefs = frame_coefficients(f_hat, PROFILE, grids)
        for g, c in zip(grids, coefs):
            factor = profile_eval(PROFILE, 2.0 ** (2 * g.j) * l0 * (l0 + 1))
            for k in (0, g.n // 2):
                y = sph_harm_matrix(l0, [g.theta[k]], [g.phi[k]])[0, sph_harm_flat_index(l0, m0)]
                expected = g.weights[k] * factor * y
                assert c[k] == pytest.approx(expected, rel=1e-12)

    def test_zero_function(self):
        f_hat = np.zeros(15)
        grids = [build_grid(2.0, j) for j in range(-3, 1)]
        for c in frame_coefficients(f_hat, PROFILE, grids):
            assert np.all(c == 0.0)

    def test_malformed_coefficient_length(self):
        with pytest.raises(ValueError):
            frame_coefficients(RNG.normal(size=17), PROFILE, [build_grid(2.0, 0)])

    def test_band_limit_beyond_finest_scale(self):
        f_hat = RNG.normal(size=17 ** 2 - 1)  # L = 16 needs scales below a^0
        with pytest.raises(ValueError):
            frame_coefficients(f_hat, PROFILE, [build_grid(2.0, 0)])

    def test_uncovered_degree_rejected(self):
        # at r = 4 the scale 1/4 resolves degree 8 but leaves degree 1 at f^2
        # below 1e-8 of the largest; these coefficients used to be computed
        # without a word
        f_hat = np.zeros(9 ** 2 - 1)
        with pytest.raises(ValueError, match="degree 1 has no spectral coverage in "
                                             "j_range -2..-2"):
            frame_coefficients(f_hat, NeedletProfile(4), [build_grid(2.0, -2)])

    def test_empty_grid_list_rejected(self):
        with pytest.raises(ValueError, match="^need at least one grid$"):
            frame_coefficients(np.zeros(3), PROFILE, [])

    def test_mixed_dilations_rejected(self):
        # every grid used to be weighted with the first grid's a: 0.27 off
        # here, where the largest coefficient is 0.52
        f_hat = np.random.default_rng(0).normal(size=24)
        grids = [build_grid(2.0, 0), build_grid(2.0, -1), build_grid(3.0, -1)]
        with pytest.raises(ValueError, match="^grids must share one dilation a$"):
            frame_coefficients(f_hat, PROFILE, grids)

    def test_one_weight_row_per_scale(self, count_calls):
        # a scale listed twice is weighted once
        weights = count_calls(frames, "spectral_weights")
        grids = [build_grid(2.0, j) for j in (-2, -1, 0, -1)]
        frame_coefficients(np.zeros(24), PROFILE, grids)
        assert sorted(args[1] for args in weights) == [2.0 ** -4, 2.0 ** -2, 1.0]

    def test_one_block_of_harmonics_at_a_time(self):
        # the harmonics of a whole grid used to be built at once: a 50 MB
        # peak here, where the 16384-point grid spans at least four blocks
        L = 16
        grids = [build_grid(2.0, j) for j in range(-6, 1)]
        f_hat = RNG.normal(size=(L + 1) ** 2 - 1)
        tracemalloc.start()
        try:
            coefs = frame_coefficients(f_hat, PROFILE, grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grids[0].n >= 4 * frames._GRAM_BLOCK
        assert peak <= 2 * 8 * frames._GRAM_BLOCK * f_hat.size
        for g, c in zip(grids, coefs):
            weighted = sph_harm_flat_repeat(spectral_weights(PROFILE, 2.0 ** (2 * g.j), L)) * f_hat
            whole_grid = g.weights * (sph_harm_matrix(L, g.theta, g.phi) @ weighted)
            assert c.tobytes() == whole_grid.tobytes()

    def test_parseval_proxy_consistent_with_bounds(self):
        L = 8
        j_range = (-5, 0)
        est = estimate_frame_bounds(PROFILE, 2.0, j_range, L, oversample=2.0)
        grids = [build_grid(2.0, j, 2.0) for j in range(j_range[0], j_range[1] + 1)]
        for _ in range(50):
            f_hat = RNG.normal(size=(L + 1) ** 2 - 1)
            energy = sum(np.sum(c ** 2) for c in frame_coefficients(f_hat, PROFILE, grids))
            ratio = energy / np.sum(f_hat ** 2)
            assert est.a_hat * (1 - 0.05) <= ratio <= est.b_hat * (1 + 0.05)


class TestFrameBounds:
    def test_weights_past_the_double_range_are_numeric_failure(self):
        # the coverage sum of f^2 overflowed with a RuntimeWarning
        with pytest.raises(NumericFailure, match="frame weights for r=100 leave the double range"):
            estimate_frame_bounds(NeedletProfile(100), 2.0, (-4, 0), 8, oversample=1.0)

    def test_ordered_and_positive(self):
        est = estimate_frame_bounds(PROFILE, 2.0, (-6, 0), 16, oversample=2.0)
        assert 0 < est.a_hat <= est.b_hat
        assert not est.ill_conditioned

    def test_ratio_decreases_with_oversampling(self):
        ratios = [estimate_frame_bounds(PROFILE, 2.0, (-6, 0), 16, oversample=ov).ratio
                  for ov in (1.0, 2.0, 4.0)]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_lower_bound_never_decreases_with_oversampling(self):
        a_hats = [estimate_frame_bounds(PROFILE, 2.0, (-6, 0), 16, oversample=ov).a_hat
                  for ov in (1.0, 2.0, 4.0)]
        assert a_hats[0] <= a_hats[1] <= a_hats[2]

    def test_approaches_ideal_dilation_ratio(self):
        est = estimate_frame_bounds(PROFILE, 2.0, (-6, 0), 16, oversample=4.0)
        lo, hi = calderon_bounds(PROFILE, 2.0)
        assert est.ratio <= 2.0 * (hi / lo)

    def test_weight_scaling_invariance(self):
        # scaling all weights by kappa scales both bounds by kappa^2; the
        # Gram matrix is linear in mu^2, so verify via two dilation-free runs
        est = estimate_frame_bounds(PROFILE, 2.0, (-4, 0), 8, oversample=2.0)
        # equal-weight construction: scaling weights multiplies the Gram by
        # kappa^2 exactly; check the ratio is scale-free by direct assembly
        from needlets import sph_harm_flat_repeat, sph_harm_matrix, spectral_weights
        kappa = 2.0
        ncol = 9 ** 2 - 1
        gram = np.zeros((ncol, ncol))
        gram_scaled = np.zeros((ncol, ncol))
        for j in range(-4, 1):
            grid = build_grid(2.0, j, 2.0)
            y = sph_harm_matrix(8, grid.theta, grid.phi)
            w = y * sph_harm_flat_repeat(spectral_weights(PROFILE, 2.0 ** (2 * j), 8))
            block = (4 * math.pi / grid.n) * (w.T @ w)
            gram += block
            gram_scaled += kappa ** 2 * block
        e1 = np.linalg.eigvalsh(gram)
        e2 = np.linalg.eigvalsh(gram_scaled)
        np.testing.assert_allclose(e2, kappa ** 2 * e1, rtol=1e-12)
        assert est.a_hat == pytest.approx(e1[0], rel=1e-10)

    def test_empty_j_range_rejected(self):
        with pytest.raises(ValueError, match="^j_range must satisfy j_min <= j_max <= 0$"):
            estimate_frame_bounds(PROFILE, 2.0, (0, -1), 4)

    def test_uncovered_degree_rejected(self):
        # j = 0 alone cannot resolve degree 16
        with pytest.raises(ValueError):
            estimate_frame_bounds(PROFILE, 2.0, (0, 0), 16)

    def test_coverage_is_checked_before_any_grid(self, count_calls):
        # at r = 4 the scale 1/4 alone resolves degree 8 but leaves degree 1 at
        # f^2 below 1e-8 of the largest; the run is within every size cap
        grids = count_calls(frames, "_fibonacci_points")
        with pytest.raises(ValueError, match="degree 1 has no spectral coverage in "
                                             "j_range -2..-2"):
            estimate_frame_bounds(NeedletProfile(4), 2.0, (-2, -2), 8)
        assert grids == []

    def test_every_band_the_finest_scale_cannot_resolve_is_uncovered(self, count_calls):
        # frame used to refuse L above choose_lmax at the finest scale as a
        # second rule; the coverage check refuses each such L, and every run
        # with one is refused before any grid, by it or by a size cap first.
        # L runs to the degree cap; the three cases whose finest scale needs
        # more than the cap are left out, as that scan refused them with
        # DegreeCapExceeded.
        grids = count_calls(frames, "_fibonacci_points")
        cases = 0
        for r, f0, a, j_min in itertools.product((1, 2, 3, 4), ("exponential", "gaussian"),
                                                 (1.5, 2.0, 3.0), range(-6, 1)):
            profile = NeedletProfile(r, f0)
            try:
                resolvable = choose_lmax(profile, a ** j_min)
            except DegreeCapExceeded:
                continue
            for j_max, L in itertools.product({j_min, 0},
                                              {resolvable + 1, min(2 * resolvable, 4096)}):
                with pytest.raises(ValueError, match="has no spectral coverage in j_range"):
                    frames._scale_weights(profile, a, range(j_min, j_max + 1), L)
                with pytest.raises(ValueError, match="has no spectral coverage in j_range"
                                                     "|above the cap"):
                    estimate_frame_bounds(profile, a, (j_min, j_max), L)
                cases += 1
        assert cases == 612
        assert grids == []

    def test_one_weight_row_per_scale(self, count_calls):
        # one estimate of the frame-L24 benchmark line: 8 scales, 8 weight rows
        # serve both the coverage check and the Gram
        weights = count_calls(frames, "spectral_weights")
        estimate_frame_bounds(PROFILE, 2.0, (-7, 0), 24, oversample=1.0)
        assert sorted(args[1] for args in weights) == [2.0 ** (2 * j) for j in range(-7, 1)]

    @pytest.mark.parametrize("j_range", [(0, 0), (-2, 0)])
    @pytest.mark.parametrize("a", [math.nan, 0.0])
    def test_dilation_is_checked_first(self, a, j_range):
        # a NaN used to give an estimate on (0, 0) and blame the scale on (-2, 0);
        # a = 0 raised ZeroDivisionError
        with pytest.raises(ValueError, match=r"^dilation a must be finite and > 1$"):
            estimate_frame_bounds(PROFILE, a, j_range, 2)

    def test_rank_deficiency_flagged(self):
        # 4 points cannot carry an 8-dimensional subspace
        est = estimate_frame_bounds(PROFILE, 2.0, (0, 0), 2, oversample=1.0)
        assert est.ill_conditioned


def full_grid_gram(profile, a, j_min, j_max, L, oversample):
    """The Gram matrix summed over every point of every grid, block by block."""
    ncol = (L + 1) ** 2 - 1
    gram = np.zeros((ncol, ncol))
    for j in range(j_min, j_max + 1):
        grid = build_grid(a, j, oversample)
        factors = sph_harm_flat_repeat(spectral_weights(profile, a ** (2 * j), L))
        mu_sq = 4.0 * math.pi / grid.n
        for start in range(0, grid.n, frames._GRAM_BLOCK):
            stop = min(start + frames._GRAM_BLOCK, grid.n)
            y = sph_harm_matrix(L, grid.theta[start:stop], grid.phi[start:stop])
            y *= factors
            gram += mu_sq * (y.T @ y)
    return gram


def _mirror_sweep():
    """(r, f0, a, oversample, L, j_min): every profile, dilation and
    oversample, with L cycling through 1..24, plus two cases at L = 40 and one
    whose finest grid is odd and spans several blocks per half.  j_min is
    where the search for the coarsest accepted range starts."""
    cases = []
    for k, (r, f0, a) in enumerate(itertools.product(
            (1, 2), ("exponential", "gaussian"), (1.5, 2.0, 3.0))):
        for i, ov in enumerate((1.0, 1.3, 1.5, 2.0, 4.0)):
            cases.append((r, f0, a, ov, (1, 7, 16, 24)[(k + i) % 4], 0))
    cases += [(1, "exponential", 2.0, 1.3, 40, 0), (2, "gaussian", 3.0, 2.0, 40, 0),
              (1, "exponential", 2.0, 1.3, 8, -7)]
    return cases


def _points(L, count=40):
    rng = np.random.default_rng(1000 + L)
    theta = np.concatenate([rng.uniform(0.0, math.pi, count), [0.0, math.pi]])
    return theta, rng.uniform(0.0, 2.0 * math.pi, theta.size)


# traced peak of `peak_bytes` at L = 24: 17.15e6 bytes (1.68 blocks of 2048
# points) at oversample 1 and 1.3, against 31.3e6 and 31.8e6 with 4096-point
# blocks and whole grids; the bound leaves about 11 % above the measured peak
_PEAK_BYTES = 19_000_000


def peak_bytes(oversample, L=24):
    """Peak traced memory of a frame estimate at j = -7, -6, in bytes.  The
    finest grid's first half spans several blocks; at oversample 1.3 the grid
    is odd and the half ends in a partial block."""
    count = (build_grid(2.0, -7, oversample).n + 1) // 2
    assert count > frames._GRAM_BLOCK
    assert (count % frames._GRAM_BLOCK == 0) == (oversample == 1.0)
    tracemalloc.start()
    try:
        estimate_frame_bounds(PROFILE, 2.0, (-7, -6), L, oversample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


class TestPairedLayout:
    """Harmonic rows ordered by mirror parity, each + row beside its pair."""

    @pytest.mark.parametrize("L", [1, 2, 3, 16, 64])
    def test_layout_is_a_parity_split_permutation(self, L):
        flat, n_plus = _paired_layout(L)
        assert np.array_equal(np.sort(flat), np.arange((L + 1) ** 2 - 1))
        ls = np.floor(np.sqrt(flat + 1)).astype(int)
        ms = flat + 1 - ls * ls - ls
        # + : cos-type or zonal with l + m even, sin-type with l + |m| odd
        plus = np.where(ms >= 0, (ls + ms) % 2 == 0, (ls + ms) % 2 == 1)
        assert np.all(plus[:n_plus]) and not np.any(plus[n_plus:])
        npair = L * (L + 1) // 2
        # + row k and - row k of the first npair rows are (l, m) and (l, -m)
        assert np.array_equal(ls[:npair], ls[n_plus:n_plus + npair])
        assert np.array_equal(np.abs(ms[:npair]), np.abs(ms[n_plus:n_plus + npair]))
        assert np.all(ms[:npair] != 0) and np.all(ms[:npair] == -ms[n_plus:n_plus + npair])
        assert np.all(ms[npair:n_plus] == 0) and np.all(ms[n_plus + npair:] == 0)

    @pytest.mark.parametrize("L", [1, 2, 16, 64])
    def test_paired_rows_are_permuted_columns_bit_for_bit(self, L):
        theta, phi = _points(L)
        c = 2.5
        psi = phi - c / 2
        flat = _paired_layout(L)[0]
        rows = _sph_harm_rows(flat, theta, psi)
        assert np.array_equal(rows, sph_harm_matrix(L, theta, psi)[:, flat].T)

    @pytest.mark.parametrize("L", [1, 2, 16, 64])
    def test_turning_by_half_c_gives_the_harmonics_at_phi(self, L):
        # Y_{l,m}(phi) = cos(m c/2) Y_{l,m}(psi) - sin(m c/2) Y_{l,-m}(psi) and
        # Y_{l,-m}(phi) = sin(m c/2) Y_{l,m}(psi) + cos(m c/2) Y_{l,-m}(psi)
        theta, phi = _points(L)
        flat = _paired_layout(L)[0]
        for c in (0.3, 4.0, 2.0 * math.pi - 0.1):
            rows = _sph_harm_rows(flat, theta, phi - c / 2)
            at_psi = np.empty_like(rows)
            at_psi[flat] = rows
            turned = at_psi.copy()
            for l in range(1, L + 1):
                for m in range(1, l + 1):
                    pos, neg = l * l - 1 + l + m, l * l - 1 + l - m
                    cm, sm = math.cos(m * c / 2), math.sin(m * c / 2)
                    turned[pos] = cm * at_psi[pos] - sm * at_psi[neg]
                    turned[neg] = sm * at_psi[pos] + cm * at_psi[neg]
            np.testing.assert_allclose(turned.T, sph_harm_matrix(L, theta, phi),
                                       rtol=0.0, atol=1e-12)


class TestGramMemory:
    """The Gram stage's bytes are bounded from L and the finest grid before any
    of it is built."""

    @pytest.mark.parametrize("oversample", [1.0, 4.0])
    @pytest.mark.parametrize("L, j_min", [(8, -4), (16, -6), (24, -7)])
    def test_estimate_bounds_the_traced_peak(self, L, j_min, oversample):
        tracemalloc.start()
        try:
            estimate_frame_bounds(PROFILE, 2.0, (j_min, 0), L, oversample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frames._gram_bytes(L) >= peak

    def test_large_band_limit_is_refused_before_the_gram(self, monkeypatch):
        def no_gram(*args):  # the first step of the Gram stage after its checks
            raise AssertionError("the Gram stage ran")

        monkeypatch.setattr(frames, "_paired_layout", no_gram)
        with pytest.raises(ValueError, match=r"L=128 needs up to 6\.93e\+09 bytes, above the cap"):
            estimate_frame_bounds(PROFILE, 2.0, (-6, 0), 128, 1.0)

    def test_band_limit_64_is_under_the_cap(self):
        assert frames._gram_bytes(64) <= frames._GRAM_BYTE_CAP


class TestMirrorGram:
    """The Gram matrix from one hemisphere of each grid plus its mirror image."""

    @pytest.mark.parametrize("L", [1, 2, 16, 64])
    def test_mirror_map_gives_mirrored_harmonics(self, L):
        # at azimuth phi - c/2 the mirror (pi - theta, c - phi) keeps the +
        # rows of the paired layout and negates the - rows
        rng = np.random.default_rng(L)
        theta = np.concatenate([rng.uniform(0.0, math.pi, 40), [0.0, math.pi]])
        phi = rng.uniform(0.0, 2.0 * math.pi, theta.size)
        flat, n_plus = _paired_layout(L)
        for c in (*rng.uniform(0.0, 2.0 * math.pi, 3), 0.0):
            y = _sph_harm_rows(flat, theta, phi - c / 2)
            mirrored = _sph_harm_rows(flat, math.pi - theta, (c - phi) - c / 2)
            np.testing.assert_allclose(mirrored[:n_plus], y[:n_plus], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(mirrored[n_plus:], -y[n_plus:], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("oversample", [1.0, 1.3])
    def test_grid_points_are_mirror_pairs(self, oversample):
        grid = build_grid(2.0, -3, oversample)
        c = math.fmod((grid.n - 1) * frames._GOLDEN_ANGLE, 2.0 * math.pi)
        np.testing.assert_allclose(grid.theta[::-1], math.pi - grid.theta, rtol=0, atol=1e-12)
        dphi = np.mod(grid.phi[::-1] - (c - grid.phi) + math.pi, 2.0 * math.pi) - math.pi
        assert np.max(np.abs(dphi)) < 1e-9

    @pytest.mark.parametrize("r, f0, a, oversample, L, j_min", _mirror_sweep(),
                             ids=lambda v: str(v))
    def test_bounds_match_full_grid_oracle(self, r, f0, a, oversample, L, j_min):
        profile = NeedletProfile(r, f0)
        while True:  # extend j_min down until the range resolves and covers 1..L
            try:
                est = estimate_frame_bounds(profile, a, (j_min, 0), L, oversample)
                break
            except ValueError as exc:
                assert "spectral" in str(exc)
                j_min -= 1
        eigs = np.linalg.eigvalsh(full_grid_gram(profile, a, j_min, 0, L, oversample))
        assert abs(est.a_hat - eigs[0]) <= 1e-13 * eigs[-1]
        assert abs(est.b_hat - eigs[-1]) <= 1e-13 * eigs[-1]
        assert est.ill_conditioned == (not eigs[0] > 1e-12 * eigs[-1])

    @pytest.mark.parametrize("r, f0, a, oversample, L, j_min",
                             [(1, "exponential", 2.0, 1.3, 8, -7), (2, "gaussian", 3.0, 1.5, 7, -3),
                              (1, "gaussian", 1.5, 2.0, 3, -4)], ids=lambda v: str(v))
    def test_gram_matches_full_grid_oracle(self, r, f0, a, oversample, L, j_min):
        # entrywise: a sign flip of every - column leaves the bounds alone
        profile = NeedletProfile(r, f0)
        gram = frames._frame_gram(profile, a, j_min, 0, L, oversample)
        oracle = full_grid_gram(profile, a, j_min, 0, L, oversample)
        assert np.max(np.abs(gram - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_peak_memory_below_two_blocks(self):
        assert peak_bytes(1.0) < _PEAK_BYTES

    def test_peak_memory_below_two_blocks_on_an_odd_grid_with_a_partial_block(self):
        # the short last block is freed like every other
        assert peak_bytes(1.3) < _PEAK_BYTES

    @pytest.mark.parametrize("j, oversample", [(-6, 1.0), (-5, 1.7), (-7, 1.3), (-3, 1.3)])
    def test_block_coordinates_are_the_grid_bit_for_bit(self, j, oversample, count_calls):
        # the Gram makes each block's points from their indices: an even grid
        # whose half is whole blocks, an even and an odd one whose half ends in
        # a partial block, and an odd one within one block
        grid = build_grid(2.0, j, oversample)
        count = (grid.n + 1) // 2
        L = 2
        flat, n_plus = _paired_layout(L)
        ls = sph_harm_flat_repeat(np.arange(1, L + 1))[flat]
        rows = count_calls(frames, "_sph_harm_rows")
        frames._add_grid_gram(np.zeros((flat.size, flat.size)), flat, n_plus, grid.n,
                              np.ones(flat.size), flat + 1 - ls * ls - ls)
        block = frames._GRAM_BLOCK
        assert [th.size for _, th, _ in rows] == [min(block, count - s)
                                                 for s in range(0, count, block)]
        c = math.fmod((grid.n - 1) * frames._GOLDEN_ANGLE, 2.0 * math.pi)
        theta = np.concatenate([th for _, th, _ in rows])
        psi = np.concatenate([ps for _, _, ps in rows])
        assert theta.tobytes() == grid.theta[:count].tobytes()
        assert psi.tobytes() == (grid.phi[:count] - 0.5 * c).tobytes()

    def test_gram_bits_do_not_depend_on_blas_threads(self):
        # the frame-L24 benchmark configuration; only eigvalsh may move bits
        code = ("import hashlib\n"
                "from needlets import NeedletProfile\n"
                "from needlets.frames import _frame_gram\n"
                "for ov in (1.0, 2.0):\n"
                "    gram = _frame_gram(NeedletProfile(1), 2.0, -7, 0, 24, ov)\n"
                "    print(hashlib.md5(gram.tobytes()).hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, env=env, timeout=300)
            assert res.returncode == 0, res.stderr
            digests.append(res.stdout)
        assert len(digests[0].split()) == 2
        assert digests[0] == digests[1]


_PROFILES = st.sampled_from([(1, "exponential"), (2, "exponential"),
                             (1, "gaussian"), (2, "gaussian")])


class TestGramProperties:
    @settings(max_examples=25, deadline=None)
    @given(_PROFILES, st.sampled_from([1.5, 2.0, 3.0]),
           st.sampled_from([1.0, 1.3, 1.5, 2.0, 2.7]), st.integers(1, 12))
    def test_symmetric_psd_and_ordered_bounds(self, rf, a, oversample, L):
        profile = NeedletProfile(*rf)
        j_min = 0
        while True:  # the coarsest range that resolves and covers 1..L
            try:
                est = estimate_frame_bounds(profile, a, (j_min, 0), L, oversample)
                break
            except ValueError as exc:
                assert "spectral" in str(exc)
                j_min -= 1
        gram = frames._frame_gram(profile, a, j_min, 0, L, oversample)
        assert np.array_equal(gram, gram.T)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] >= -1e-13 * eigs[-1]
        assert est.a_hat <= est.b_hat


class TestExactCubatureLimit:
    """(A_hat, B_hat) against (min g_L, max g_L), g_L(l) = sum_j f_j(l)^2.

    A grid that integrated every product of harmonics of degree <= L exactly
    would make the frame operator diagonal with entries g_L(l), since the
    grid weights are area-normalized.  For r = 1 and each configuration below
    the gaps were measured to be positive and to shrink with every doubling
    of the grid.  These are measured facts, not theorems: Rayleigh quotients
    only give A_hat <= min diag(M^T M) and B_hat >= max diag(M^T M).
    """

    def gaps_at_8(self, a, j_range, L, scales):
        """The two gaps at oversample 8, once both are positive and shrinking
        along oversample 1, 2, 4, 8."""
        weights = frames._scale_weights(PROFILE, a, range(j_range[0], j_range[1] + 1), L)
        g = sum(f * f for f in weights.values())
        assert len(weights) == scales
        gaps = []
        for oversample in (1.0, 2.0, 4.0, 8.0):
            est = estimate_frame_bounds(PROFILE, a, j_range, L, oversample)
            gaps.append((float(np.min(g)) - est.a_hat, est.b_hat - float(np.max(g))))
        lower, upper = zip(*gaps)
        for side in (lower, upper):
            assert all(gap > 0 for gap in side), gaps
            assert all(later < earlier for earlier, later in zip(side, side[1:])), gaps
        return lower[-1], upper[-1]

    # Each bound at oversample 8 is 25 % over its measurement rounded to two
    # digits.  Measured gaps below and above: 1.97e-4 and 1.74e-4 (a = 2,
    # j = -6..0, L = 16), 8.32e-5 and 1.12e-4 (a = 3, j = -4..0, L = 16),
    # 1.01e-4 and 1.80e-4 (a = 2, j = -6..0, L = 24).
    def test_gaps_positive_and_shrinking_to_the_bounds(self):
        lower, upper = self.gaps_at_8(2.0, (-6, 0), 16, 7)
        assert lower < 1.25 * 2.0e-4 and upper < 1.25 * 1.7e-4, (lower, upper)

    def test_dilation_3(self):
        lower, upper = self.gaps_at_8(3.0, (-4, 0), 16, 5)
        assert lower < 1.25 * 8.3e-5 and upper < 1.25 * 1.1e-4, (lower, upper)

    def test_band_limit_24(self):
        lower, upper = self.gaps_at_8(2.0, (-6, 0), 24, 7)
        assert lower < 1.25 * 1.0e-4 and upper < 1.25 * 1.8e-4, (lower, upper)


class TestOneThreadEigensolver:
    def test_bundled_openblas_thread_functions_found(self):
        threads = frames._openblas_threads()
        assert threads is not None, "numpy's bundled OpenBLAS was not found"
        get_threads, set_threads = threads  # an AttributeError names a missing symbol
        before = get_threads()
        try:
            set_threads(1)
            assert get_threads() == 1
        finally:
            set_threads(before)
        assert get_threads() == before

    def test_thread_count_restored(self):
        get_threads = frames._openblas_threads()[0]
        before = get_threads()
        estimate_frame_bounds(PROFILE, 2.0, (-3, 0), 8)
        assert get_threads() == before
