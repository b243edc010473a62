"""Gaussian field sampling, needlet coefficients, Monte-Carlo correlation."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from needlets import (
    AlmSet,
    CorrelationQuery,
    DegreeCapExceeded,
    NeedletProfile,
    addition_theorem_check,
    analytic_correlation,
    analytic_covariance,
    choose_lmax,
    estimate_frame_bounds,
    monte_carlo_correlation,
    monte_carlo_correlations,
    needlet_coefficient,
    points_cos_angle,
    power_spectrum,
    profile_eval,
    sample_alm,
    sph_harm_matrix,
    spectrum_eval,
    tabulated_spectrum,
)
from needlets import sph_harm_flat_index
import needlets.fields as fields_module
import needlets.kernels as kernels_module
from needlets.defaults import DEGREE_CAP_ENV

RNG = np.random.default_rng(20240816)
PROFILE = NeedletProfile(1)
SPECTRUM = power_spectrum(3.0)


def loop_rotate_alm_about_pole(alm, dphi):
    """Coefficients of the field rotated by dphi about the polar axis.

    In the real basis the rotation mixes each (m, -m) pair by a plane
    rotation of angle m * dphi.
    """
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


def set_block_rows(monkeypatch, rows, ts):
    """Size each Monte-Carlo worker's buffer to `rows` replicas at the largest
    degree of scales ts."""
    L = max(choose_lmax(PROFILE, t) for t in ts)
    monkeypatch.setattr(fields_module, "_BLOCK_BYTES", rows * ((L + 1) ** 2 - 1) * 8)


def extra_weight_rows(count_calls, ts, call):
    """Rows of f that `call` evaluates beyond the truncation scans of scales
    ts; every weight row, whoever imports it, goes through
    kernels.profile_eval."""
    rows = count_calls(kernels_module, "profile_eval")
    for t in ts:
        kernels_module._truncate(PROFILE, t, None)
    in_scans = len(rows)
    rows.clear()
    call()
    return len(rows) - in_scans


def old_counter_normals(seed, stream, count):
    """The one-stream draw that _counter_normals replaced, kept as an oracle."""
    raw = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw(count)
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)


# 20 stream keys (seed, stream), the 64-bit extremes among them
STREAM_KEYS = [(0, 0), (2 ** 64 - 1, 2 ** 64 - 1), (0, 2 ** 64 - 1), (2 ** 64 - 1, 0)] + [
    (int(s), int(i))
    for s, i in np.random.default_rng(20240817).integers(0, 2 ** 64, size=(16, 2),
                                                          dtype=np.uint64, endpoint=False)]
# word counts that leave a partial 4-word Philox block at the end
WORD_COUNTS = [1, 3, 5, 783, 3135]


class TestCounterDraw:
    """One reused generator gives the words of a new generator per stream."""

    @pytest.mark.parametrize("n", WORD_COUNTS)
    def test_state_reuse_equals_fresh_generator(self, n):
        for seed, stream in STREAM_KEYS:
            words = np.empty((1, n), dtype=np.uint64)
            fields_module._philox_words(seed, [stream], words)
            fresh = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
            assert np.array_equal(words[0], fresh.random_raw(n)), (seed, stream)

    @pytest.mark.parametrize("n", WORD_COUNTS)
    def test_every_row_restarts_the_stream(self, n):
        # 20 streams through one generator: no row continues the previous one
        seed = STREAM_KEYS[5][0]
        streams = [stream for _, stream in STREAM_KEYS]
        words = np.empty((len(streams), n), dtype=np.uint64)
        fields_module._philox_words(seed, streams, words)
        for row, stream in zip(words, streams):
            fresh = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
            assert np.array_equal(row, fresh.random_raw(n)), stream

    def test_normals_match_old_one_stream_draw(self):
        seed = STREAM_KEYS[1][0]
        streams = [stream for _, stream in STREAM_KEYS]
        out = np.empty((len(streams), 3135))
        fields_module._counter_normals(seed, streams, out)
        for row, stream in zip(out, streams):
            assert row.tobytes() == old_counter_normals(seed, stream, 3135).tobytes()

    def test_every_word_gives_a_finite_normal(self, monkeypatch):
        # w = 2^53 - 1 makes the uniform round to 1.0; it is clamped to the
        # largest double below 1, and every other word keeps its old bits
        words = np.array([[2 ** 64 - 1, 2 ** 64 - 2 ** 11 - 1, 2 ** 63, 2 ** 11 - 1, 0]],
                         dtype=np.uint64)

        def fixed_words(seed, streams, out):
            out[:] = words

        monkeypatch.setattr(fields_module, "_philox_words", fixed_words)
        out = np.empty(words.shape)
        fields_module._counter_normals(0, [0], out)
        assert np.all(np.isfinite(out))
        assert out[0, 0] == ndtri(1.0 - 2.0 ** -53) > out[0, 1]
        old = ndtri(((words[0, 1:] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)
        assert out[0, 1:].tobytes() == old.tobytes()

    @pytest.mark.parametrize("L", [1, 27, 55])
    def test_sample_alm_matches_old_one_stream_draw(self, L):
        ls = np.arange(1, L + 1)
        sigma = np.repeat(np.sqrt(np.atleast_1d(spectrum_eval(SPECTRUM, ls))), 2 * ls + 1)
        for seed, stream in STREAM_KEYS[:6]:
            coeffs = sample_alm(SPECTRUM, L, seed=seed, stream=stream).coeffs
            old = old_counter_normals(seed, stream, sigma.size) * sigma
            assert coeffs.tobytes() == old.tobytes(), (seed, stream)


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

    def test_degree_cap_applies(self, monkeypatch):
        # with the cap at 50, L = 60 used to draw 3720 coefficients although
        # no harmonic of those degrees could be evaluated
        monkeypatch.setenv(DEGREE_CAP_ENV, "50")
        message = "^degree 60 exceeds the configured cap 50$"
        with pytest.raises(DegreeCapExceeded, match=message):
            sample_alm(SPECTRUM, 60, seed=0)
        with pytest.raises(DegreeCapExceeded, match=message):
            sph_harm_matrix(60, [0.5], [0.0])
        assert sample_alm(SPECTRUM, 50, seed=0).coeffs.size == 50 * 52

    @pytest.mark.parametrize("L, shape", [(40, (10,)), (5, (36,)), (2, (2, 4)), (0, (0,))])
    def test_malformed_field_rejected(self, L, shape):
        # a short vector was accepted, and needlet_coefficient then failed
        # with numpy's broadcast error
        with pytest.raises(ValueError, match=rf"L\(L\+2\) coefficients.*L={L} and shape"):
            AlmSet(L=L, coeffs=np.zeros(shape), seed=0)

    @pytest.mark.parametrize("l, m", [(6, 0), (5.5, 0), (3.0, 1), (3, 0.5), (0, 0)])
    def test_accessor_outside_the_field_rejected(self, l, m):
        # (6, 0) and (5.5, 0) raised numpy's IndexError
        alm = sample_alm(SPECTRUM, 5, seed=0)
        with pytest.raises(ValueError, match=r"not an integer pair with 1 <= l <= 5"):
            alm.get(l, m)

    def test_accessor_takes_numpy_integers(self):
        alm = sample_alm(SPECTRUM, 5, seed=0)
        assert alm.get(np.int64(5), np.int32(-5)) == alm.coeffs[-11]

    @pytest.mark.parametrize("L", [0, -3])
    def test_one_band_limit_rule(self, L):
        # the draws, the harmonics and the frame estimate each had their own
        # check and message
        calls = [lambda: sample_alm(SPECTRUM, L, seed=0),
                 lambda: sph_harm_matrix(L, [0.5], [0.0]),
                 lambda: estimate_frame_bounds(PROFILE, 2.0, (-2, 0), L)]
        for call in calls:
            with pytest.raises(ValueError, match=r"^degree must be >= 1$"):
                call()


class TestNeedletCoefficient:
    def test_zero_field_gives_zero(self):
        alm = sample_alm(SPECTRUM, 30, seed=1)
        zero = AlmSet(L=alm.L, coeffs=np.zeros_like(alm.coeffs), seed=0)
        assert needlet_coefficient(zero, PROFILE, 0.3, (0.7, 0.2)) == 0.0

    def test_value_is_finite_real(self):
        alm = sample_alm(SPECTRUM, choose_lmax(PROFILE, 0.3), seed=5)
        out = needlet_coefficient(alm, PROFILE, 0.3, (1.0, 2.0))
        assert isinstance(out, float) and math.isfinite(out)

    @pytest.mark.parametrize("point", [(math.nan, 0.2), (0.5, math.inf)])
    def test_non_finite_point_rejected(self, point):
        alm = sample_alm(SPECTRUM, choose_lmax(PROFILE, 0.3), seed=1)
        with pytest.raises(ValueError, match="finite"):
            needlet_coefficient(alm, PROFILE, 0.3, point)

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
                                PROFILE, t, point)
            for i in range(replicas)])
        target = analytic_covariance(
            CorrelationQuery(PROFILE, SPECTRUM, t, 1.0)) / (4 * math.pi)
        sample_var = np.mean(vals ** 2)
        se = target * math.sqrt(2.0 / replicas)
        assert abs(sample_var - target) <= 4 * se

    @pytest.mark.parametrize("stored", ["scale", 55])
    def test_equals_the_monte_carlo_sample_bit_for_bit(self, monkeypatch, stored):
        # both APIs weigh the same draw with one row over the scale's window;
        # the coefficient used to take its own weights and harmonics to the
        # stored degree, 5e-15 (L_t) and 1e-12 (55) off in the estimate
        t, x, y, replicas = 0.2, EQUATOR_X, (math.pi / 2, 0.785), 200
        L = choose_lmax(PROFILE, t) if stored == "scale" else stored
        alms = [sample_alm(SPECTRUM, L, seed=3, stream=i) for i in range(replicas)]
        bx, by = (np.array([needlet_coefficient(alm, PROFILE, t, p) for alm in alms])
                  for p in (x, y))
        engine_samples = []
        jackknife = fields_module._jackknife_correlation

        def recorded(sx, sy):
            engine_samples.append((sx.copy(), sy.copy()))
            return jackknife(sx, sy)

        monkeypatch.setattr(fields_module, "_jackknife_correlation", recorded)
        got = monte_carlo_correlation(PROFILE, SPECTRUM, t, x, y, replicas, seed=3)
        assert [s.tobytes() for s in engine_samples[0]] == [bx.tobytes(), by.tobytes()]
        assert hexes([got]) == hexes([jackknife(bx, by)])

    def test_one_truncation_scan_and_no_second_weight_row(self, count_calls):
        # the coefficient used to scan through choose_lmax and then weigh
        # every stored degree again; a second scan would add weight rows too
        alm = sample_alm(SPECTRUM, 55, seed=1)
        scans = count_calls(fields_module, "_truncate")
        assert extra_weight_rows(count_calls, [0.2], lambda: needlet_coefficient(
            alm, PROFILE, 0.2, (1.1, 0.4))) == 0
        assert [args[1:] for args in scans] == [(0.2, None)]

    def test_rotation_equivariance_about_pole(self):
        alm = sample_alm(SPECTRUM, choose_lmax(PROFILE, 0.3), seed=9)
        dphi = 1.234
        theta, phi = 0.8, 0.7
        direct = needlet_coefficient(alm, PROFILE, 0.3, (theta, phi + dphi))
        rotated_alm = AlmSet(L=alm.L, coeffs=loop_rotate_alm_about_pole(alm, dphi),
                             seed=alm.seed, stream=alm.stream)
        rotated = needlet_coefficient(rotated_alm, PROFILE, 0.3, (theta, phi))
        assert direct == pytest.approx(rotated, rel=1e-12)


class TestMonteCarloCorrelation:
    def test_jackknife_keeps_its_bits_under_power_of_two_scaling(self):
        # the scaling is exact, so it moves no bit; at 2^500 the unscaled
        # moment products leave the double range
        bx, by = RNG.standard_normal(300), RNG.standard_normal(300) + 0.5
        base = fields_module._jackknife_correlation(bx, by)
        for k in (-500, -40, 40, 500):
            scaled = fields_module._jackknife_correlation(np.ldexp(bx, k), by * 2.0 ** 7)
            assert list(map(float.hex, scaled)) == list(map(float.hex, base))

    def test_jackknife_refuses_an_all_zero_sample(self):
        with pytest.raises(ValueError, match="^degenerate sample: zero variance at an "
                                             "evaluation point$"):
            fields_module._jackknife_correlation(np.zeros(10), np.arange(1.0, 11.0))

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

    def test_deterministic_and_chunk_independent(self, monkeypatch):
        x, y = (math.pi / 2, 0.0), (math.pi / 2, 1.0)
        a = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25, x, y, 300, seed=3)
        b = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25, x, y, 300, seed=3)
        assert a == b
        set_block_rows(monkeypatch, 37, [0.25])
        c = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25, x, y, 300, seed=3)
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

    def test_huge_longitude_is_reduced_modulo_two_pi(self):
        # m phi used to overflow in the harmonics, and the estimate was NaN
        x, huge = (math.pi / 2, 0.0), (math.pi / 2, 1e308)
        reduced = (math.pi / 2, math.fmod(1e308, 2 * math.pi))
        got = monte_carlo_correlation(PROFILE, SPECTRUM, 0.25, x, huge, 200, seed=0)
        assert all(map(math.isfinite, got))
        assert got == monte_carlo_correlation(PROFILE, SPECTRUM, 0.25, x, reduced, 200, seed=0)
        assert points_cos_angle(x, huge) == points_cos_angle(x, reduced)

    def test_bounded_memory(self):
        # L = 116: 300 replicas of 13 688 coefficients are 33 MB, so the loop
        # has to stream them.  Measured peak 4.4 MB: each of two workers holds
        # a buffer of 9 replicas (0.99 MB) and a product temporary of the same
        # size.  The bound leaves 1.6 MB of margin, and one 8 MiB block shared
        # by the workers (17.1 MB measured) fails it.
        profile = NeedletProfile(2)
        x, y = (math.pi / 2, 0.0), (math.pi / 2, 0.3)
        assert choose_lmax(profile, 0.05) == 116
        tracemalloc.start()
        try:
            monte_carlo_correlation(profile, power_spectrum(4.0), 0.05, x, y, 300, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


def loop_monte_carlo_correlation(profile, spectrum, t, point_x, point_y, replicas, seed):
    """The per-query draw loop that monte_carlo_correlation used to be, kept as an oracle."""
    L = choose_lmax(profile, t)
    ls = np.arange(1, L + 1)
    counts = 2 * ls + 1
    sigma = np.repeat(np.sqrt(np.atleast_1d(spectrum_eval(spectrum, ls))), counts)
    f = profile_eval(profile, (t * t) * ls.astype(float) * (ls + 1.0))
    y_pair = sph_harm_matrix(L, [point_x[0], point_y[0]], [point_x[1], point_y[1]])
    wx, wy = np.repeat(f, counts) * y_pair[0], np.repeat(f, counts) * y_pair[1]
    block = np.empty((replicas, sigma.size))
    for i in range(replicas):
        raw = np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).random_raw(sigma.size)
        block[i] = ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)
    block *= sigma
    bx, by = (block * wx).sum(axis=1), (block * wy).sum(axis=1)
    sxx, syy, sxy = float(np.sum(bx * bx)), float(np.sum(by * by)), float(np.sum(bx * by))
    loo = (sxy - bx * by) / np.sqrt((sxx - bx * bx) * (syy - by * by))
    stderr = float(np.sqrt((replicas - 1) / replicas * np.sum((loo - np.mean(loo)) ** 2)))
    return sxy / math.sqrt(sxx * syy), stderr


def hexes(results):
    return [(float.hex(est), float.hex(se)) for est, se in results]


EQUATOR_X = (math.pi / 2, 0.0)
# the t x d grid of the `simulate` benchmark's first command
GRID_SCALES = (0.2, 0.1)
GRID_QUERIES = [(t, EQUATOR_X, (math.pi / 2, d))
                for t in GRID_SCALES for d in (0.3, 0.785, 1.571)]
# points that equal dict keys cannot tell apart (signed zeros), a pole, a
# longitude past 2 pi, and random points
MC_POINT = st.one_of(
    st.sampled_from([EQUATOR_X, (math.pi / 2, -0.0), (0.0, 0.0), (-0.0, -0.0),
                     (1.0, 0.3), (1.0, 0.3 + 2 * math.pi)]),
    st.tuples(st.floats(0.0, math.pi), st.floats(-7.0, 7.0)))


@pytest.fixture(scope="module")
def grid_oracle():
    """float.hex of the per-query loop oracle on GRID_QUERIES, 300 replicas, seed 7."""
    return hexes(loop_monte_carlo_correlation(PROFILE, SPECTRUM, t, x, y, 300, 7)
                 for t, x, y in GRID_QUERIES)


@pytest.fixture(scope="module")
def odd_grid_oracle():
    """As grid_oracle, on 301 replicas: no worker count in 2, 3 splits them evenly."""
    return hexes(loop_monte_carlo_correlation(PROFILE, SPECTRUM, t, x, y, 301, 7)
                 for t, x, y in GRID_QUERIES)


class TestBatchedMonteCarlo:
    """One draw per replica at the largest degree, projected onto every query."""

    def test_batched_equals_per_query_bit_for_bit(self):
        batched = monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 300, seed=7)
        single = [monte_carlo_correlation(PROFILE, SPECTRUM, t, x, y, 300, seed=7)
                  for t, x, y in GRID_QUERIES]
        assert hexes(batched) == hexes(single)

    def test_matches_old_per_query_loop_bit_for_bit(self):
        batched = monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 300, seed=7)
        oracle = [loop_monte_carlo_correlation(PROFILE, SPECTRUM, t, x, y, 300, 7)
                  for t, x, y in GRID_QUERIES]
        assert hexes(batched) == hexes(oracle)

    def test_chunk_independent(self, monkeypatch):
        a = monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 300, seed=3)
        set_block_rows(monkeypatch, 37, GRID_SCALES)
        b = monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 300, seed=3)
        assert hexes(a) == hexes(b)

    def test_one_truncation_scan_per_scale(self, count_calls):
        scans = count_calls(fields_module, "_truncate")
        # the projections weigh with the weights of the scans
        assert extra_weight_rows(count_calls, GRID_SCALES, lambda: monte_carlo_correlations(
            PROFILE, SPECTRUM, GRID_QUERIES, 100, seed=0)) == 0
        assert sorted(args[1] for args in scans) == [0.1, 0.2]

    def test_one_projection_per_coefficient(self, count_calls):
        # 6 queries on 2 scales share point_x: 8 distinct beta_{t,x}, not 12
        harmonics = count_calls(fields_module, "sph_harm_matrix")
        monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 100, seed=0)
        assert sum(len(args[1]) for args in harmonics) == 8

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.3, 0.2]), MC_POINT, MC_POINT),
                    min_size=1, max_size=5),
           st.integers(0, 2 ** 64 - 1))
    # repeated points and scales, a duplicate query, and phi = -0.0 beside 0.0,
    # which a dict key does not tell apart
    @example(queries=[(0.2, EQUATOR_X, (math.pi / 2, -0.0)),
                      (0.2, (math.pi / 2, -0.0), (math.pi / 2, 0.3)),
                      (0.2, EQUATOR_X, (math.pi / 2, 0.3)),
                      (0.2, EQUATOR_X, (math.pi / 2, 0.3)),
                      (0.3, EQUATOR_X, (math.pi / 2, 0.3))], seed=7)
    def test_batched_equals_one_query_on_random_query_sets(self, queries, seed):
        batched = monte_carlo_correlations(PROFILE, SPECTRUM, queries, 100, seed)
        single = [monte_carlo_correlation(PROFILE, SPECTRUM, t, x, y, 100, seed)
                  for t, x, y in queries]
        assert hexes(batched) == hexes(single)

    def test_each_stream_drawn_once(self, monkeypatch):
        # the draw keys one reused generator per stream by setting its state;
        # the two workers interleave their streams, so the keys are sorted
        keys = []
        philox = np.random.Philox

        class Recording(philox):
            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                keys.append(tuple(int(k) for k in value["state"]["key"]))
                philox.state.__set__(self, value)

        monkeypatch.setattr(np.random, "Philox", Recording)
        monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 150, seed=4)
        assert sorted(keys) == [(4, i) for i in range(150)]

    @pytest.mark.parametrize("chunk", [None, 37, 1])
    def test_worker_count_does_not_move_a_bit(self, monkeypatch, grid_oracle, chunk):
        # buffers of one row draw and project every replica on its own
        if chunk is not None:
            set_block_rows(monkeypatch, chunk, GRID_SCALES)
        two = monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 300, seed=7)
        monkeypatch.setattr(fields_module, "_WORKERS", 1)
        one = monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 300, seed=7)
        assert hexes(one) == hexes(two) == grid_oracle

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [None, 37, 2, 1])
    def test_uneven_ranges_and_short_chunks_do_not_move_a_bit(
            self, monkeypatch, odd_grid_oracle, chunk, workers):
        # 301 replicas leave uneven worker ranges, and most buffer sizes a
        # short last chunk in each range
        if chunk is not None:
            set_block_rows(monkeypatch, chunk, GRID_SCALES)
        monkeypatch.setattr(fields_module, "_WORKERS", workers)
        got = monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 301, seed=7)
        assert hexes(got) == odd_grid_oracle

    def test_draws_run_on_at_most_two_worker_threads(self, monkeypatch):
        calls = []
        draw = fields_module._counter_normals

        def recorded(seed, streams, out):
            calls.append((threading.get_ident(), streams))
            draw(seed, streams, out)

        monkeypatch.setattr(fields_module, "_counter_normals", recorded)
        set_block_rows(monkeypatch, 37, GRID_SCALES)
        monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 300, seed=7)
        assert all(1 <= len(streams) <= 37 and streams.step == 1 for _, streams in calls)
        threads = {thread for thread, _ in calls}
        assert 1 <= len(threads) <= 2
        assert threading.get_ident() not in threads
        # each thread's chunks follow on from one another, and together they
        # draw every replica once
        for thread in threads:
            mine = [streams for t, streams in calls if t == thread]
            assert all(a.stop == b.start for a, b in zip(mine, mine[1:]))
        assert sorted(i for _, streams in calls for i in streams) == list(range(300))

    def test_worker_exception_reaches_caller(self, monkeypatch):
        def broken(seed, streams, out):
            raise RuntimeError(f"draw of streams {streams} failed")

        monkeypatch.setattr(fields_module, "_counter_normals", broken)
        with pytest.raises(RuntimeError, match="draw of streams range"):
            monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 300, seed=7)

    def test_more_workers_than_cores_with_short_switch_interval(self, monkeypatch, grid_oracle):
        # a row drawn twice, a slot written by the wrong worker or a lost
        # write would move a bit of some estimate
        monkeypatch.setattr(fields_module, "_WORKERS", 5)
        set_block_rows(monkeypatch, 37, GRID_SCALES)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = monte_carlo_correlations(PROFILE, SPECTRUM, GRID_QUERIES, 300, seed=7)
        finally:
            sys.setswitchinterval(interval)
        assert hexes(got) == grid_oracle

    def test_empty_query_list(self):
        assert monte_carlo_correlations(PROFILE, SPECTRUM, [], 100, seed=0) == []

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (1.0, math.inf)])
    def test_non_finite_point_rejected(self, bad):
        queries = GRID_QUERIES + [(0.2, EQUATOR_X, bad)]
        with pytest.raises(ValueError, match="finite"):
            monte_carlo_correlations(PROFILE, SPECTRUM, queries, 100, seed=0)

    def test_gap_between_scale_degrees_rejected(self):
        # c_l > 0 up to the smaller scale's degree, then one missing degree
        small, large = choose_lmax(PROFILE, 0.2), choose_lmax(PROFILE, 0.1)
        assert small < large
        ls = [l for l in range(1, large + 1) if l != small + 1]
        gappy = tabulated_spectrum(ls, [l ** -3.0 for l in ls], 3.0)
        monte_carlo_correlation(PROFILE, gappy, 0.2, EQUATOR_X, (math.pi / 2, 0.3), 100, seed=0)
        with pytest.raises(ValueError, match=f"c_{small + 1};"):
            monte_carlo_correlations(PROFILE, gappy, GRID_QUERIES, 100, seed=0)


class TestPointsCosAngle:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        for x, y in [((bad, 0.0), (0.5, 0.5)), ((0.5, bad), (0.5, 0.5)),
                     ((0.5, 0.5), (bad, 0.0)), ((0.5, 0.5), (0.5, bad))]:
            with pytest.raises(ValueError, match="finite"):
                points_cos_angle(x, y)


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
