"""Power-spectrum families and their regularity conditions."""

import math

import numpy as np
import pytest
import sympy

from needlets import (
    NumericFailure,
    load_spectrum_csv,
    load_spectrum_json,
    power_spectrum,
    rational_log_spectrum,
    spectrum_eval,
    tabulated_spectrum,
    verify_derivative_decay,
    verify_envelope,
)
from needlets.spectra import positive_spectrum

RNG = np.random.default_rng(20240813)


class TestEvaluation:
    def test_power_law_values(self):
        ps = power_spectrum(3.0)
        assert spectrum_eval(ps, 2) == 0.125
        assert spectrum_eval(ps, 1) == 1.0

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            spectrum_eval(power_spectrum(3.0), 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("ps", [power_spectrum(3.0),
                                    rational_log_spectrum(3.0, 3.0, [1.0], [1.0])],
                             ids=["power", "rational_log"])
    def test_non_finite_degree_rejected_in_every_family(self, ps, bad):
        # NaN used to evaluate to NaN, and inf to "a non-positive value"
        with pytest.raises(ValueError, match="finite degrees >= 1"):
            spectrum_eval(ps, bad)
        with pytest.raises(ValueError, match="finite degrees >= 1"):
            spectrum_eval(ps, np.array([2.0, bad]))

    def test_alpha_must_exceed_two(self):
        with pytest.raises(ValueError):
            power_spectrum(2.0)

    def test_rational_log_degenerates_to_power_law(self):
        ps = rational_log_spectrum(3.0, 3.0, [1.0], [1.0], f_name="one")
        ls = np.arange(1, 101)
        np.testing.assert_allclose(spectrum_eval(ps, ls),
                                   spectrum_eval(power_spectrum(3.0), ls),
                                   rtol=1e-15)

    def test_vectorized_matches_scalar(self):
        ps = rational_log_spectrum(4.0, 3.0, [1.0, 2.0], [1.0, 0.0, 3.0],
                                   f_name="two_plus_sin")
        ls = np.arange(1, 50)
        vec = spectrum_eval(ps, ls)
        assert all(vec[i] == spectrum_eval(ps, int(l)) for i, l in enumerate(ls))


class TestEnvelope:
    def test_power_law_constants_are_one(self):
        est = verify_envelope(power_spectrum(3.0), 500)
        assert est.k0_hat == pytest.approx(1.0, abs=1e-12)
        assert est.k1_hat == pytest.approx(1.0, abs=1e-12)
        assert est.passed

    def test_oscillating_factor_bounds(self):
        ps = rational_log_spectrum(3.0, 3.0, [1.0], [1.0], f_name="two_plus_sin")
        est = verify_envelope(ps, 2000)
        # dense oracle: u(l) l^alpha = 2 + sin(log l) must stay inside [1, 3]
        ls = np.arange(1, 2001)
        scaled = spectrum_eval(ps, ls) * ls.astype(float) ** 3.0
        assert np.all(scaled >= 1.0 - 1e-12) and np.all(scaled <= 3.0 + 1e-12)
        assert est.k0_hat >= 1.0 - 1e-12
        assert est.k1_hat <= 3.0 + 1e-12
        assert est.passed

    def test_mismatched_decay_flagged(self):
        bad = rational_log_spectrum(3.0, 2.0, [1.0], [1.0], validate=False)
        small = verify_envelope(bad, 100)
        large = verify_envelope(bad, 2000)
        assert large.ratio > small.ratio  # diverges with the window
        assert not large.passed

    def test_constructor_rejects_mismatch(self):
        with pytest.raises(ValueError):
            rational_log_spectrum(3.0, 2.0, [1.0], [1.0])

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            verify_envelope(power_spectrum(3.0), 5)

    def test_vanished_minimum_fails_with_an_infinite_ratio(self):
        # a table that stops inside the window reads 0 past its end
        short = tabulated_spectrum(range(1, 51), [l ** -3.0 for l in range(1, 51)], 3.0)
        est = verify_envelope(short, 100)
        assert (est.k0_hat, est.ratio, est.passed) == (0.0, math.inf, False)

    def test_nan_value_is_numeric_failure(self):
        nan_table = tabulated_spectrum(range(1, 101), [1.0] * 49 + [math.nan] + [1.0] * 50, 3.0)
        with pytest.raises(NumericFailure, match="not finite: nan, nan"):
            verify_envelope(nan_table, 100)

    def test_overflowing_envelope_is_numeric_failure(self):
        # c_l l^alpha overflows to inf, which used to be reported as k1_hat
        huge = tabulated_spectrum(range(1, 101), [1e308] * 100, 3.0)
        with np.errstate(over="ignore"), pytest.raises(NumericFailure, match="not finite"):
            verify_envelope(huge, 100)


class TestDerivativeDecay:
    def test_overflowing_differences_are_numeric_failure(self):
        huge = tabulated_spectrum(range(1, 101), [1e308] * 100, 3.0)
        with np.errstate(over="ignore"), pytest.raises(NumericFailure, match="order 0"):
            verify_derivative_decay(huge, 1, (10, 90))

    def test_power_law_zeroth_order(self):
        rep = verify_derivative_decay(power_spectrum(3.0), 0, (10, 2000))
        assert rep.c_estimates[0] == pytest.approx(1.0, abs=1e-12)

    def test_power_law_first_order_near_alpha(self):
        # analytic oracle: |u'(s)| s^4 = 3 exactly for u = s^-3
        rep = verify_derivative_decay(power_spectrum(3.0), 1, (10, 2000))
        assert rep.c_estimates[1] == pytest.approx(3.0, rel=0.05)
        assert rep.passed

    def test_rational_log_passes_through_order_three(self):
        ps = rational_log_spectrum(3.0, 3.0, [1.0], [1.0], f_name="two_plus_sin")
        rep = verify_derivative_decay(ps, 3, (10, 2000))
        assert rep.passed

    def test_rational_log_bounded_through_order_four(self):
        ps = rational_log_spectrum(3.0, 3.0, [1.0], [1.0], f_name="two_plus_sin")
        rep = verify_derivative_decay(ps, 4, (10, 2000))
        assert rep.passed
        assert all(math.isfinite(c) for c in rep.c_estimates)

    def test_mismatched_decay_fails(self):
        bad = rational_log_spectrum(3.0, 2.0, [1.0], [1.0], validate=False)
        rep = verify_derivative_decay(bad, 2, (10, 2000))
        assert not rep.passed

    def test_order_cap(self):
        with pytest.raises(ValueError):
            verify_derivative_decay(power_spectrum(3.0), 5, (10, 100))

    def test_first_difference_matches_symbolic_derivative(self):
        # sympy oracle: the forward difference of u at l sits near u'(l + 1/2)
        ps = rational_log_spectrum(4.0, 3.0, [1.0, 2.0], [1.0, 0.0, 3.0],
                                   f_name="two_plus_sin")
        s = sympy.symbols("s", positive=True)
        u_sym = (2 + sympy.sin(sympy.log(s))) * (1 + 2 * s) / (s ** 3 * (1 + 3 * s ** 2))
        du = sympy.lambdify(s, sympy.diff(u_sym, s), "numpy")
        ls = np.arange(50, 500, dtype=float)
        diffs = np.diff(spectrum_eval(ps, np.arange(50, 501, dtype=float)))
        np.testing.assert_allclose(diffs, du(ls + 0.5), rtol=2e-3)


class TestPositiveSpectrum:
    def test_values_of_a_power_law(self):
        assert positive_spectrum(power_spectrum(3.0), 4).tolist() == [1.0, 1 / 8, 1 / 27, 1 / 64]

    @pytest.mark.parametrize("cs,bad", [([1.0, 0.5, 0.25], 4), ([1.0, 0.0, 0.25], 2),
                                        ([1.0, -0.5, 0.0], 2), ([math.nan, 1.0, 1.0], 1)])
    def test_names_the_first_degree_not_positive(self, cs, bad):
        ps = tabulated_spectrum([1, 2, 3], cs, 3.0)
        with pytest.raises(ValueError, match=f"non-positive variance c_{bad}; "
                                             "every degree up to 4 needs c_l > 0"):
            positive_spectrum(ps, 4)


class TestTabulatedAndFiles:
    def test_tabulated_lookup_and_missing_degree(self):
        ps = tabulated_spectrum([1, 2, 3], [1.0, 0.125, 0.037], 3.0)
        assert spectrum_eval(ps, 2) == 0.125
        assert spectrum_eval(ps, 9) == 0.0  # outside the table

    def test_repeated_degree_last_entry_wins(self):
        ps = tabulated_spectrum([2, 1, 2, 3, 2], [0.5, 1.0, 0.25, 0.037, 0.125], 3.0)
        assert spectrum_eval(ps, 2) == 0.125
        assert spectrum_eval(ps, np.array([1.0, 2.0, 3.0])).tolist() == [1.0, 0.125, 0.037]

    def test_missing_degrees_read_zero(self):
        ps = tabulated_spectrum([1, 3, 7], [1.0, 0.037, 0.003], 3.0)
        assert spectrum_eval(ps, np.arange(1, 10)).tolist() == [
            1.0, 0.0, 0.037, 0.0, 0.0, 0.0, 0.003, 0.0, 0.0]
        assert spectrum_eval(tabulated_spectrum([], [], 3.0), np.arange(1, 4)).tolist() == [0.0] * 3

    def test_lookup_equals_dict_loop_bit_for_bit(self):
        rng = np.random.default_rng(7)
        ls = rng.integers(1, 300, size=400)  # repeats and gaps
        cs = rng.uniform(0.0, 1.0, size=ls.size)
        ps = tabulated_spectrum(ls, cs, 3.0)
        lv = np.concatenate([np.arange(1.0, 320.0), rng.uniform(1.0, 320.0, 200),
                             np.arange(1.0, 40.0) + 0.5])  # half-integers round to even
        lookup = dict(zip(ps.table_l, ps.table_c))
        oracle = np.array([lookup.get(int(round(v)), 0.0) for v in lv])
        assert spectrum_eval(ps, lv).tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_degree_rejected(self, bad):
        ps = tabulated_spectrum([1, 2, 3], [1.0, 0.125, 0.037], 3.0)
        with pytest.raises(ValueError, match="finite degrees"):
            spectrum_eval(ps, np.array([2.0, bad]))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("l,c_l\n1,1.0\n2,0.125\n3,0.037\n")
        ps = load_spectrum_csv(path, 3.0)
        assert spectrum_eval(ps, 3) == 0.037

    def test_empty_csv_gives_zero_spectrum(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("l,c_l\n")
        ps = load_spectrum_csv(path, 3.0)
        assert spectrum_eval(ps, 4) == 0.0

    def test_json_power(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"family": "power", "alpha": 3.5}')
        ps = load_spectrum_json(path)
        assert ps.family == "power" and ps.alpha == 3.5

    def test_json_rational_log_defers_consistency(self, tmp_path):
        # the loader accepts a mismatched file; verify_envelope must flag it
        path = tmp_path / "bad.json"
        path.write_text('{"family": "rational_log", "alpha": 3.0, "beta": 2.0,'
                        ' "P": [1.0], "Q": [1.0], "F": "one"}')
        ps = load_spectrum_json(path)
        assert not verify_envelope(ps, 2000).passed

    def test_json_unknown_family(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"family": "white_noise"}')
        with pytest.raises(ValueError):
            load_spectrum_json(path)
