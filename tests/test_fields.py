"""Gaussian field sampling, needlet coefficients, Monte-Carlo correlation."""

import math

import numpy as np
import pytest

from needlets import (
    AlmSet,
    CorrelationQuery,
    NeedletProfile,
    addition_theorem_check,
    analytic_correlation,
    analytic_covariance,
    choose_lmax,
    monte_carlo_correlation,
    needlet_coefficient,
    points_cos_angle,
    power_spectrum,
    sample_alm,
    tabulated_spectrum,
)
from needlets import sph_harm_flat_index
from needlets.fields import rotate_alm_about_pole

RNG = np.random.default_rng(20240816)
PROFILE = NeedletProfile(1)
SPECTRUM = power_spectrum(3.0)


def loop_rotate_alm_about_pole(alm, dphi):
    """The (l, m) loop that rotate_alm_about_pole used to be, kept as an oracle."""
    out = alm.coeffs.copy()
    for l in range(1, alm.L + 1):
        for m in range(1, l + 1):
            c, s = math.cos(m * dphi), math.sin(m * dphi)
            ic = sph_harm_flat_index(l, m)
            is_ = sph_harm_flat_index(l, -m)
            ac, as_ = alm.coeffs[ic], alm.coeffs[is_]
            out[ic] = c * ac + s * as_
            out[is_] = -s * ac + c * as_
    return out


class TestSampleAlm:
    def test_deterministic_in_seed_and_stream(self):
        a = sample_alm(SPECTRUM, 8, seed=11, stream=3)
        b = sample_alm(SPECTRUM, 8, seed=11, stream=3)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = sample_alm(SPECTRUM, 8, seed=11, stream=4)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_layout_and_accessor(self):
        a = sample_alm(SPECTRUM, 5, seed=0)
        assert a.coeffs.size == 36 - 1
        assert a.get(3, -2) == a.coeffs[3 * 3 - 1 + (-2 + 3)]

    def test_zero_spectrum_rejected(self):
        empty = tabulated_spectrum([], [], 3.0)
        with pytest.raises(ValueError):
            sample_alm(empty, 4, seed=0)

    def test_variance_matches_spectrum(self):
        # chi-square oracle: mean of a_{4,m}^2 over m and 2000 draws has
        # standard error c_4 sqrt(2 / n)
        l, replicas = 4, 2000
        sq = []
        for i in range(replicas):
            alm = sample_alm(SPECTRUM, 6, seed=42, stream=i)
            sq.extend(alm.get(l, m) ** 2 for m in range(-l, l + 1))
        c4 = 4.0 ** -3.0
        n = len(sq)
        se = c4 * math.sqrt(2.0 / n)
        assert abs(np.mean(sq) - c4) <= 4 * se

    def test_cross_moments_vanish(self):
        pairs = [((2, 1), (2, -1)), ((3, 0), (4, 0)), ((1, 1), (5, 3))]
        prods = {p: [] for p in pairs}
        for i in range(2000):
            alm = sample_alm(SPECTRUM, 6, seed=43, stream=i)
            for (lm1, lm2) in pairs:
                prods[(lm1, lm2)].append(alm.get(*lm1) * alm.get(*lm2))
        for (lm1, lm2), vals in prods.items():
            se = np.std(vals) / math.sqrt(len(vals))
            assert abs(np.mean(vals)) <= 4 * se, (lm1, lm2)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            sample_alm(SPECTRUM, 4, seed=-1)


class TestNeedletCoefficient:
    def test_zero_field_gives_zero(self):
        alm = sample_alm(SPECTRUM, 30, seed=1)
        zero = AlmSet(L=alm.L, coeffs=np.zeros_like(alm.coeffs), seed=0)
        out = needlet_coefficient(zero, PROFILE, 0.3, (0.7, 0.2))
        assert out.value == 0.0

    def test_value_is_finite_real(self):
        alm = sample_alm(SPECTRUM, choose_lmax(PROFILE, 0.3), seed=5)
        out = needlet_coefficient(alm, PROFILE, 0.3, (1.0, 2.0))
        assert isinstance(out.value, float) and math.isfinite(out.value)

    def test_insufficient_degree_rejected(self):
        alm = sample_alm(SPECTRUM, 4, seed=2)
        with pytest.raises(ValueError):
            needlet_coefficient(alm, PROFILE, 0.2, (0.5, 0.5))

    def test_variance_against_analytic(self):
        # Var(beta) equals the analytic coincidence series divided by 4 pi
        t, replicas = 0.2, 2000
        L = choose_lmax(PROFILE, t)
        point = (1.1, 0.4)
        vals = np.array([
            needlet_coefficient(sample_alm(SPECTRUM, L, seed=44, stream=i),
                                PROFILE, t, point).value
            for i in range(replicas)])
        target = analytic_covariance(
            CorrelationQuery(PROFILE, SPECTRUM, t, 1.0)) / (4 * math.pi)
        sample_var = np.mean(vals ** 2)
        se = target * math.sqrt(2.0 / replicas)
        assert abs(sample_var - target) <= 4 * se

    def test_rotation_equivariance_about_pole(self):
        alm = sample_alm(SPECTRUM, choose_lmax(PROFILE, 0.3), seed=9)
        dphi = 1.234
        theta, phi = 0.8, 0.7
        direct = needlet_coefficient(alm, PROFILE, 0.3, (theta, phi + dphi))
        rotated = needlet_coefficient(rotate_alm_about_pole(alm, dphi),
                                      PROFILE, 0.3, (theta, phi))
        assert direct.value == pytest.approx(rotated.value, rel=1e-12)

    @pytest.mark.parametrize("L,dphi", [(55, 1.234), (116, -0.3), (200, 5.9)])
    def test_rotation_matches_loop(self, L, dphi):
        alm = sample_alm(SPECTRUM, L, seed=10)
        mine = rotate_alm_about_pole(alm, dphi).coeffs
        ref = loop_rotate_alm_about_pole(alm, dphi)
        assert np.max(np.abs(mine - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestMonteCarloCorrelation:
    def test_same_point_exact(self):
        est, se = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25,
                                          (0.9, 0.1), (0.9, 0.1), 200, seed=0)
        assert est == 1.0
        assert se == 0.0

    def test_matches_analytic_within_three_sigma(self):
        x, y = (math.pi / 2, 0.0), (math.pi / 2, math.pi / 2)
        est, se = monte_carlo_correlation(PROFILE, SPECTRUM, 0.2, x, y, 4000, seed=0)
        true = analytic_correlation(
            CorrelationQuery(PROFILE, SPECTRUM, 0.2, points_cos_angle(x, y)))
        assert abs(est - true) <= 3 * se

    def test_deterministic_and_chunk_independent(self):
        x, y = (math.pi / 2, 0.0), (math.pi / 2, 1.0)
        a = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25, x, y, 300, seed=3)
        b = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25, x, y, 300, seed=3)
        assert a == b
        c = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25, x, y, 300, seed=3,
                                    chunk=37)
        assert a == c

    def test_isotropy_between_equivalent_pairs(self):
        d = 1.1
        equator = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25,
                                          (math.pi / 2, 0.0), (math.pi / 2, d),
                                          3000, seed=5)
        meridian = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25,
                                           (0.0, 0.0), (d, 0.0),
                                           3000, seed=6)
        joint_se = math.hypot(equator.stderr, meridian.stderr)
        assert abs(equator.estimate - meridian.estimate) <= 3 * joint_se

    def test_replica_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_correlation(PROFILE, SPECTRUM, 0.25,
                                    (0.5, 0.5), (0.6, 0.6), 50, seed=0)


class TestAdditionTheorem:
    def test_degree_zero(self):
        assert addition_theorem_check(0, (0.3, 0.1), (2.0, 4.0)) <= 1e-15

    def test_random_pairs_up_to_degree_sixteen(self):
        for _ in range(50):
            l = int(RNG.integers(1, 17))
            x = (RNG.uniform(0, math.pi), RNG.uniform(0, 2 * math.pi))
            y = (RNG.uniform(0, math.pi), RNG.uniform(0, 2 * math.pi))
            assert addition_theorem_check(l, x, y) <= 1e-10

    def test_coincident_points_identity(self):
        # sum_m Y_{l,m}(x)^2 = (2l+1)/(4 pi)
        for l in (1, 5, 12):
            x = (RNG.uniform(0, math.pi), RNG.uniform(0, 2 * math.pi))
            assert addition_theorem_check(l, x, x) <= 1e-12
