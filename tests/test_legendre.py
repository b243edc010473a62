"""Legendre polynomials, zonal series, and real spherical harmonics."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, lpmv

from needlets import (
    DegreeCapExceeded,
    NeedletProfile,
    generating_function_check,
    kernel_eval,
    legendre_series,
    make_kernel,
    recursion_residual,
    sph_harm_flat_index,
    sph_harm_matrix,
    zonal_eval,
    zonal_series,
)
from needlets.defaults import DEGREE_CAP_ENV
from needlets.frames import _paired_layout
from needlets.legendre import _sph_harm_rows

RNG = np.random.default_rng(20240811)
TINY = np.finfo(float).tiny


def fibonacci_points(n):
    i = np.arange(n)
    theta = np.arccos(1.0 - (2.0 * i + 1.0) / n)
    phi = np.mod(i * math.pi * (3.0 - math.sqrt(5.0)), 2.0 * math.pi)
    return theta, phi


def loop_sph_harm_matrix(lmax, theta, phi):
    """The (m, l) double loop that sph_harm_matrix used to be, kept as an oracle.

    Also returns a mask of the entries whose sectoral seed P_{m,m} fell below
    the normal double range (subnormal, or zero although sin(theta) != 0).
    """
    x = np.cos(theta)
    s = np.sin(theta)
    npts = theta.size
    out = np.empty((npts, (lmax + 1) ** 2 - 1))
    lost = np.zeros(out.shape, dtype=bool)
    sqrt2 = math.sqrt(2.0)
    pmm = np.full(npts, math.sqrt(1.0 / (4.0 * math.pi)))
    for m in range(lmax + 1):
        if m > 0:
            pmm = pmm * (-math.sqrt((2 * m + 1) / (2.0 * m))) * s
            ccol = sqrt2 * np.cos(m * phi)
            scol = sqrt2 * np.sin(m * phi)
        low = (np.abs(pmm) < TINY) & (s != 0.0)
        p_lo = np.zeros(npts)
        p_hi = pmm
        for l in range(m, lmax + 1):
            if l == m + 1:
                p_lo, p_hi = p_hi, math.sqrt(2 * m + 3.0) * x * pmm
            elif l > m + 1:
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_lo, p_hi = p_hi, a * (x * p_hi - b * p_lo)
            if l == 0:
                continue
            cols = [sph_harm_flat_index(l, m)]
            if m == 0:
                out[:, cols[0]] = p_hi
            else:
                cols.append(sph_harm_flat_index(l, -m))
                out[:, cols[0]] = ccol * p_hi
                out[:, cols[1]] = scol * p_hi
            for c in cols:
                lost[:, c] = low
    return out, lost


def jacobi_real_sph_harm(l, m, theta, phi):
    """Y_{l,m} at 40 digits through P_l^m(cos t) = (-1)^m (l+m)!/(2^m l!)
    sin(t)^m P^(m,m)_{l-m}(cos t), with P^(m,m)_n(-x) = (-1)^n P^(m,m)_n(x)
    keeping the hypergeometric argument (1 - |x|)/2 at or below 1/2."""
    am = abs(m)
    with mp.workdps(40):
        t = mp.mpf(theta)
        x = mp.cos(t)
        parity = (-1) ** (l - am) if x < 0 else 1
        plm = ((-1) ** am * parity * mp.factorial(l + am) / (2 ** am * mp.factorial(l))
               * mp.sin(t) ** am * mp.jacobi(l - am, am, am, abs(x)))
        y = mp.sqrt((2 * l + 1) / (4 * mp.pi) * mp.factorial(l - am) / mp.factorial(l + am)) * plm
        if m > 0:
            y *= mp.sqrt(2) * mp.cos(am * mp.mpf(phi))
        elif m < 0:
            y *= mp.sqrt(2) * mp.sin(am * mp.mpf(phi))
        return +y


def reference_real_sph_harm(l, m, theta, phi):
    """Independent construction from scipy's associated Legendre values."""
    am = abs(m)
    norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                     * math.factorial(l - am) / math.factorial(l + am))
    plm = norm * lpmv(am, l, math.cos(theta))
    if m == 0:
        return plm
    if m > 0:
        return math.sqrt(2.0) * plm * math.cos(am * phi)
    return math.sqrt(2.0) * plm * math.sin(am * phi)


def harmonic(l, m, theta, phi):
    """Y_{l,m}(theta, phi) for l >= 1, read from a one-point `sph_harm_matrix`."""
    return float(sph_harm_matrix(l, [theta], [phi])[0, sph_harm_flat_index(l, m)])


def degree_columns(l):
    """Flat-layout columns of degree l, m = -l..l."""
    return sph_harm_flat_index(l, np.arange(-l, l + 1))


def legendre_p(l, x):
    """P_l(x) alone: the series whose one coefficient, 1, sits at degree l."""
    return legendre_series([1.0], x, offset=l)


class TestLegendreBatch:
    """P_0 .. P_lmax at a batch of degrees, through zonal_eval and legendre_series."""

    def test_at_one_all_ones(self):
        ls = np.arange(6)
        assert [zonal_eval(l, 1.0) for l in ls] == list(2.0 * ls + 1.0)
        assert [legendre_p(l, 1.0) for l in ls] == [1.0] * 6

    def test_at_minus_one_parity(self):
        ls = np.arange(6)
        assert [zonal_eval(l, -1.0) for l in ls] == list((-1.0) ** ls * (2 * ls + 1))
        assert [legendre_p(l, -1.0) for l in ls] == list((-1.0) ** ls)

    def test_degree_two_explicit_formula(self):
        x = 0.5
        expected = (3 * x * x - 1) / 2  # P_2 written out
        assert legendre_p(2, x) == pytest.approx(expected, abs=1e-15)
        assert zonal_eval(2, x) / 5 == pytest.approx(expected, abs=1e-15)
        assert expected == -0.125

    def test_matches_scipy_oracle(self):
        xs = RNG.uniform(-1, 1, 25)
        for l in range(65):
            ref = eval_legendre(l, xs)
            np.testing.assert_allclose(legendre_p(l, xs), ref, atol=5e-15)
            np.testing.assert_allclose([zonal_eval(l, x) / (2 * l + 1) for x in xs],
                                       ref, atol=5e-15)

    def test_table_invariants(self):
        xs = RNG.uniform(-1, 1, 100)
        assert np.array_equal(legendre_p(0, xs), np.ones(100))
        assert np.array_equal(legendre_p(1, xs), xs)
        for l in range(65):
            assert np.max(np.abs(legendre_p(l, xs))) <= 1.0 + 1e-13

    def test_domain_error(self):
        with pytest.raises(ValueError):
            zonal_eval(4, 1.0 + 1e-9)
        with pytest.raises(ValueError):
            legendre_series(np.ones(5), 1.0 + 1e-9)

    def test_degree_cap(self, monkeypatch):
        monkeypatch.setenv(DEGREE_CAP_ENV, "32")
        with pytest.raises(DegreeCapExceeded):
            zonal_eval(33, 0.5)
        zonal_eval(32, 0.5)


class TestZonal:
    def test_at_one(self):
        assert zonal_eval(3, 1.0) == 7.0

    def test_degree_zero_constant(self):
        assert zonal_eval(0, 0.3) == 1.0

    def test_degree_two(self):
        assert zonal_eval(2, 0.5) == pytest.approx(5 * -0.125, abs=1e-15)

    def test_series_matches_term_sum(self):
        coeffs = RNG.normal(size=12)
        x = 0.37
        expected = sum(coeffs[l - 1] * zonal_eval(l, x) for l in range(1, 13))
        assert zonal_series(coeffs, x, offset=1) == pytest.approx(expected, rel=1e-13)

    def test_series_batching_bit_identical(self):
        coeffs = RNG.normal(size=30)
        xs = RNG.uniform(-1, 1, 11)
        batched = legendre_series(coeffs, xs)
        single = np.array([legendre_series(coeffs, x) for x in xs])
        assert np.array_equal(batched, single)


# every entry point onto the zonal recurrence, called at argument x
ZONAL_CALLS = {
    "legendre_series": lambda x: legendre_series(np.ones(3), x),
    "zonal_series": lambda x: zonal_series(np.ones(3), x, offset=1),
    "kernel_eval": lambda x: kernel_eval(make_kernel(NeedletProfile(1), 0.3), x),
    "zonal_eval": lambda x: zonal_eval(3, x),
    "recursion_residual": lambda x: recursion_residual(3, x),
}


class TestArgumentDomain:
    @pytest.mark.parametrize("call", sorted(ZONAL_CALLS))
    @pytest.mark.parametrize("x", [math.nan, [0.2, math.nan]], ids=["nan", "array-nan"])
    def test_nan_argument_rejected(self, call, x):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            ZONAL_CALLS[call](x)

    @pytest.mark.parametrize("call", sorted(ZONAL_CALLS))
    def test_tolerance_band_is_clipped(self, call):
        assert ZONAL_CALLS[call](1.0 + 1e-13) == ZONAL_CALLS[call](1.0)


class TestRecursionResidual:
    @pytest.mark.parametrize("l,x", [(0, 0.7), (1, -0.2)])
    def test_small_degrees(self, l, x):
        assert abs(recursion_residual(l, x)) <= 1e-15

    def test_high_degree_near_endpoint(self):
        assert abs(recursion_residual(50, 0.999)) <= 1e-12

    def test_all_degrees_random_arguments(self):
        xs = RNG.uniform(-1, 1, 100)
        worst = max(abs(recursion_residual(l, x))
                    for l in range(65) for x in xs[:10])
        assert worst <= 1e-12
        for x in xs:
            assert abs(recursion_residual(64, x)) <= 1e-12


class TestGeneratingFunction:
    def test_trivial_at_xi_zero(self):
        assert generating_function_check(0.0, 0.5, 0) == 0.0

    @pytest.mark.parametrize("xi", [0.4, -0.4])
    def test_against_closed_form(self, xi):
        # independent oracle: scipy Legendre values against the closed form
        ref_partial = math.fsum(eval_legendre(l, 0.3) * xi ** l for l in range(81))
        closed = (1 - 2 * xi * 0.3 + xi * xi) ** -0.5
        assert abs(ref_partial - closed) <= 1e-12
        assert generating_function_check(xi, 0.3, 80) <= 1e-12

    def test_closed_form_value(self):
        assert (1 - 2 * 0.4 * 0.3 + 0.16) == pytest.approx(0.92)

    def test_divergent_xi_rejected(self):
        with pytest.raises(ValueError):
            generating_function_check(1.0, 0.3, 10)

    def test_nan_xi_rejected(self):
        # |nan| >= 1 is false, so a NaN xi used to return NaN
        with pytest.raises(ValueError, match=r"^\|xi\| must be < 1 for the series to converge$"):
            generating_function_check(math.nan, 0.3, 10)

    def test_singular_point_rejected(self):
        # |xi| < 1, but 1 - 2 xi + xi^2 rounds to 0.0 at eta = 1
        xi = 1.0 - 2.0 ** -30
        assert 1.0 - 2.0 * xi + xi * xi == 0.0
        with pytest.raises(ValueError, match=r"^generating function is singular: "
                                             r"1 - 2 xi eta \+ xi\^2 <= 0$"):
            generating_function_check(xi, 1.0, 10)


class TestRealSphHarm:
    def test_degree_one_pole(self):
        value = harmonic(1, 0, 0.0, 0.0)
        assert value == pytest.approx(math.sqrt(3 / (4 * math.pi)), rel=1e-15)

    def test_matches_scipy_construction(self):
        for _ in range(60):
            l = int(RNG.integers(1, 12))
            m = int(RNG.integers(-l, l + 1))
            theta = RNG.uniform(0, math.pi)
            phi = RNG.uniform(0, 2 * math.pi)
            mine = harmonic(l, m, theta, phi)
            ref = reference_real_sph_harm(l, m, theta, phi)
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_orthonormality_by_quadrature(self):
        # Gauss-Legendre in cos(theta) x trapezoid in phi integrates these
        # products essentially exactly
        lmax = 4
        nodes, weights = np.polynomial.legendre.leggauss(2 * lmax + 2)
        nphi = 4 * lmax + 5
        phis = np.arange(nphi) * 2 * math.pi / nphi
        thetas = np.repeat(np.arccos(nodes), nphi)
        # Y_00 = 1/sqrt(4 pi) on the first row, then the flat layout l = 1 .. lmax
        vals = np.vstack([np.full(thetas.size, 1 / math.sqrt(4 * math.pi)),
                          sph_harm_matrix(lmax, thetas, np.tile(phis, nodes.size)).T])
        w = np.repeat(weights, nphi) * (2 * math.pi / nphi)
        gram = vals @ (w[None, :] * vals).T
        np.testing.assert_allclose(gram, np.eye((lmax + 1) ** 2), atol=1e-8)

    def test_unsold_identity_high_degree(self):
        # sum_m Y_{l,m}^2 = (2l+1)/(4 pi); probes stability far past l = 150
        l = 200
        theta, phi = 1.234, 0.567
        row = sph_harm_matrix(l, [theta], [phi])[0]
        total = math.fsum(row[sph_harm_flat_index(l, m)] ** 2 for m in range(-l, l + 1))
        assert total == pytest.approx((2 * l + 1) / (4 * math.pi), rel=1e-11)

    @pytest.mark.parametrize("l, m", [(2, 3), (2, -3), (0, 0)])
    def test_invalid_order_rejected(self, l, m):
        # the flat layout starts at l = 1, so Y_00 has no column either
        with pytest.raises(ValueError, match=rf"^invalid \(l, m\) = \({l}, {m}\) for the flat layout$"):
            sph_harm_flat_index(l, m)

    def test_degree_cap_guard(self, monkeypatch):
        monkeypatch.setenv(DEGREE_CAP_ENV, "16")
        with pytest.raises(DegreeCapExceeded):
            sph_harm_matrix(17, [0.5], [0.5])


class TestSphHarmMatrix:
    def test_matches_pointwise_evaluation(self):
        thetas = RNG.uniform(0, math.pi, 5)
        phis = RNG.uniform(0, 2 * math.pi, 5)
        mat = sph_harm_matrix(6, thetas, phis)
        for i in range(5):
            ref = sph_harm_matrix(6, [thetas[i]], [phis[i]])[0]
            assert np.array_equal(mat[i].view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("lmax", [1, 2, 16, 24, 116])
    def test_bit_identical_to_double_loop(self, lmax):
        theta, phi = fibonacci_points(256)
        theta = np.concatenate([theta, [0.0, 1e-3, math.pi - 1e-3, math.pi]])
        phi = np.concatenate([phi, [0.3, 1.1, 2.2, 5.0]])
        mine = sph_harm_matrix(lmax, theta, phi)
        ref, lost = loop_sph_harm_matrix(lmax, theta, phi)
        # every seed on the grid stays normal; only the pole rows can lose one
        assert not lost[:256].any()
        assert np.array_equal(mine[~lost].view(np.int64), ref[~lost].view(np.int64))
        # where the loop's seed went subnormal, both results are negligible
        assert np.max(np.abs(mine[lost] - ref[lost]), initial=0.0) <= 1e-290

    def test_scaled_seeds_match_jacobi_oracle(self):
        # near-pole orders whose seed underflows plain doubles but whose value
        # at degree l is back in range
        for theta, m in ((0.3, 700), (0.05, 150), (math.pi - 0.05, 120)):
            l = 1000
            mine = harmonic(l, m, theta, 0.4)
            ref = jacobi_real_sph_harm(l, m, theta, 0.4)
            assert abs(ref) > 1e-250
            assert abs(mine - float(ref)) <= 1e-10 * abs(float(ref))

    def test_huge_longitude_is_reduced_modulo_two_pi(self):
        huge, reduced = 1e308, math.fmod(1e308, 2 * math.pi)
        mine = sph_harm_matrix(40, [1.0], [huge])
        assert np.all(np.isfinite(mine))
        assert np.array_equal(mine.view(np.int64),
                              sph_harm_matrix(40, [1.0], [reduced]).view(np.int64))

    @pytest.mark.parametrize("theta, phi", [(math.nan, 1.0), (1.0, math.inf),
                                            (1.0, -math.inf), (1.0, math.nan),
                                            (math.inf, 1.0), (-math.inf, 1.0)])
    def test_non_finite_coordinates_are_refused(self, theta, phi):
        # these used to return NaN entries with only a RuntimeWarning
        with pytest.raises(ValueError, match="must be finite"):
            sph_harm_matrix(4, [theta], [phi])

    @pytest.mark.parametrize("theta, reflected", [(-0.3, 0.3), (math.pi + 0.3, math.pi - 0.3)])
    def test_colatitude_outside_range_gives_the_reflected_point(self, theta, reflected):
        # theta is not checked against [0, pi]; the harmonics of (theta, phi)
        # there are those of (reflected, phi + pi), up to rounding
        mine = sph_harm_matrix(6, [theta], [0.7])
        ref = sph_harm_matrix(6, [reflected], [0.7 + math.pi])
        np.testing.assert_allclose(mine, ref, rtol=0, atol=2e-15)

    def test_coordinate_lists_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="^theta and phi must be 1-d arrays of equal "
                                             "length$"):
            sph_harm_matrix(4, [1.0, 2.0], [0.5])

    def test_scaled_seed_single_degree_matches_matrix_bits(self):
        # at theta = 0.01 the sectoral seed of these orders is below the normal
        # range, so their recurrence runs scaled, yet Y_{300,m} is back in range
        l, theta, phi = 300, 0.01, 0.4
        row = sph_harm_matrix(l, [theta], [phi])[0]
        single = _sph_harm_rows(degree_columns(l), np.array([theta]), np.array([phi]))[:, 0]
        for m in (160, -166, 172):
            assert abs(m) * math.log2(math.sin(theta)) < -1050
            value = float(single[m + l])
            assert abs(value) > 2.0 ** -960
            assert float.hex(value) == float.hex(float(row[sph_harm_flat_index(l, m)]))

    def test_flat_index_layout(self):
        idx = [sph_harm_flat_index(l, m) for l in range(1, 5) for m in range(-l, l + 1)]
        assert idx == list(range(24))

    def test_flat_index_on_arrays_equals_scalar_form(self):
        ls = np.array([l for l in range(1, 9) for m in range(-l, l + 1)])
        ms = np.array([m for l in range(1, 9) for m in range(-l, l + 1)])
        mine = sph_harm_flat_index(ls, ms)
        assert mine.tolist() == [sph_harm_flat_index(int(l), int(m)) for l, m in zip(ls, ms)]
        for bad_l, bad_m in (([1, 0], [0, 0]), ([2, 3], [1, -4])):
            with pytest.raises(ValueError, match="flat layout"):
                sph_harm_flat_index(np.array(bad_l), np.array(bad_m))


class TestColumnMap:
    """`_sph_harm_rows` writes the rows of any order of a degree range's columns."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_rows_are_the_matrix_columns_bit_for_bit(self, data):
        lmax = data.draw(st.integers(1, 20), label="lmax")
        if data.draw(st.booleans(), label="paired"):
            cols = _paired_layout(lmax)[0]
        else:
            lmin = data.draw(st.integers(1, lmax), label="lmin")
            span = range(lmin * lmin - 1, (lmax + 1) ** 2 - 1)
            cols = np.array(data.draw(st.permutations(span), label="cols"))
        inner = data.draw(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=6))
        theta = np.array([0.0, math.pi, *inner])
        # |phi| < 2 pi, where the oracle's unreduced longitude has the same bits
        phi = np.array(data.draw(st.lists(st.floats(-6.28, 6.28), min_size=theta.size,
                                          max_size=theta.size)))
        rows = _sph_harm_rows(cols, theta, phi)
        mine = sph_harm_matrix(lmax, theta, phi)[:, cols].T
        assert np.array_equal(rows.view(np.int64), mine.view(np.int64))
        ref, lost = loop_sph_harm_matrix(lmax, theta, phi)
        ref, lost = ref[:, cols].T, lost[:, cols].T
        assert np.array_equal(rows[~lost].view(np.int64), ref[~lost].view(np.int64))
        assert np.max(np.abs(rows[lost] - ref[lost]), initial=0.0) <= 1e-290


class TestHighDegree:
    """Harmonics near `degree_cap`, where sectoral seeds leave the double range."""

    @pytest.mark.parametrize("l", [1000, 2000, 4096])
    def test_unsold_identity(self, l):
        # sum_m Y_{l,m}(x)^2 = (2l+1)/(4 pi): three uniform colatitudes and one
        # point within 0.05 rad of each pole
        near = RNG.uniform(0.005, 0.05, 2)
        theta = np.concatenate([RNG.uniform(0.0, math.pi, 3), [near[0], math.pi - near[1]]])
        phi = RNG.uniform(0.0, 2.0 * math.pi, theta.size)
        rows = _sph_harm_rows(degree_columns(l), theta, phi)
        sums = np.array([math.fsum(rows[:, k] ** 2) for k in range(theta.size)])
        rel = np.abs(sums / ((2 * l + 1) / (4.0 * math.pi)) - 1.0)
        assert np.max(rel) <= 1e-10

    def test_unsold_identity_closer_to_the_pole(self):
        # Within about 4/l of a pole the identity is limited by the rounding of
        # cos(theta) and sin(theta), not by the recurrence: one ulp in x moves
        # P_l by l(l+1)/2 ulps near x = 1.
        l = 4096
        theta = np.array([1e-8, 1e-6, 1e-4, 3e-4, 1e-3, math.pi - 3e-4])
        rows = _sph_harm_rows(degree_columns(l), theta, np.full(theta.size, 0.5))
        sums = np.array([math.fsum(rows[:, k] ** 2) for k in range(theta.size)])
        rel = np.abs(sums / ((2 * l + 1) / (4.0 * math.pi)) - 1.0)
        assert np.max(rel) <= l * (l + 1) / 2 * np.finfo(float).eps

    @pytest.mark.parametrize("l", [1000, 2000])
    def test_against_mpmath(self, l):
        orders = (0, 1, -1, l // 2 - 1, l // 2, -(l // 2), l - 1, l, -l)
        checked = 0
        for theta in (0.05, 0.3, 1.0, math.pi - 0.2):
            row = _sph_harm_rows(degree_columns(l), np.array([theta]), np.array([0.7]))[:, 0]
            for m in orders:
                ref = jacobi_real_sph_harm(l, m, theta, 0.7)
                if abs(ref) <= mp.mpf("1e-250"):
                    continue
                assert abs(row[m + l] - float(ref)) <= 1e-10 * abs(float(ref)), (theta, m)
                checked += 1
        assert checked >= 20

    def test_jacobi_oracle_matches_legenp(self):
        # the Jacobi form is used because legenp needs a limit at integer
        # order and takes 10-60 s per value at m ~ l/2 and l = 1000
        for l, m, theta in ((1000, 0, 0.3), (2000, 1, 1.0), (300, 150, 0.3)):
            with mp.workdps(40):
                x = mp.cos(mp.mpf(theta))
                ref = (mp.sqrt((2 * l + 1) / (4 * mp.pi) * mp.factorial(l - m)
                               / mp.factorial(l + m)) * mp.legenp(l, m, x))
                if m:
                    ref *= mp.sqrt(2) * mp.cos(m * mp.mpf(0.7))
                assert abs(jacobi_real_sph_harm(l, m, theta, 0.7) - ref) <= mp.mpf("1e-30") * abs(ref)

    def test_matrix_at_degree_2000_is_fast_and_complete(self):
        start = time.perf_counter()
        y = sph_harm_matrix(2000, [0.3], [0.1])
        elapsed = time.perf_counter() - start
        top = y[0, sph_harm_flat_index(2000, -2000):]
        total = math.fsum(top ** 2)
        assert total == pytest.approx(4001 / (4 * math.pi), rel=1e-10)
        assert elapsed < 5.0
