"""Power-spectrum families and their regularity conditions."""

import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest

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
from oracles import rational_log_oracle, worst_relative_error

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

    # the three rational-log spectra of demos/spectrum_checks.py
    @pytest.mark.parametrize("alpha, beta, p, q, f_name", [
        (3.0, 3.0, [1.0], [1.0], "two_plus_sin"),
        (4.0, 3.0, [1.0, 2.0], [1.0, 0.0, 3.0], "two_plus_sin"),
        (3.0, 2.0, [1.0], [1.0], "one"),
    ], ids=["log-modulated", "heavier", "mis-declared"])
    def test_rational_log_matches_a_60_digit_oracle(self, alpha, beta, p, q, f_name):
        # the bound, 4 ulps, is 2.2 times the worst measured: 4.03e-16 (heavier)
        ps = rational_log_spectrum(alpha, beta, p, q, f_name=f_name, validate=False)
        worst = worst_relative_error(spectrum_eval(ps, np.arange(1, 4001)),
                                     (rational_log_oracle(beta, p, q, f_name, l)
                                      for l in range(1, 4001)))
        assert worst <= 4 * np.finfo(float).eps


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

    # each of these passed the checks, which NaN compared false against, and
    # evaluated to NaN variances; unvalidated, a NaN beta was still accepted
    @pytest.mark.parametrize("beta, p, q", [
        (math.nan, [1.0], [1.0]),
        (3.0, [math.nan], [1.0]),
        (3.0, [1.0], [math.nan]),
        (4.0, [math.nan, 1.0], [1.0]),
    ], ids=["beta", "P", "Q", "P-constant"])
    def test_constructor_rejects_nan_parameters(self, beta, p, q):
        with pytest.raises(ValueError, match="^beta, P and Q must be finite$"):
            rational_log_spectrum(3.0, beta, p, q, validate=False)

    # each of these evaluated to c_l = inf, which passed the positivity checks
    @pytest.mark.parametrize("beta, p, q", [
        (-math.inf, [1.0], [1.0]),
        (math.inf, [1.0], [1.0]),
        (3.0, [math.inf], [1.0]),
        (4.0, [1.0, math.inf], [1.0]),
        (3.0, [1.0], [math.inf]),
    ], ids=["beta-minus", "beta", "P", "P-leading", "Q"])
    def test_constructor_rejects_infinite_parameters(self, beta, p, q):
        with pytest.raises(ValueError, match="^beta, P and Q must be finite$"):
            rational_log_spectrum(3.0, beta, p, q, validate=False)

    @pytest.mark.parametrize("p, q", [([1e308, 1e308], [1.0]), ([1.0], [1e308, 1e308])],
                             ids=["P", "Q"])
    def test_constructor_rejects_an_overflowing_probe(self, p, q):
        # the probe used to print an overflow RuntimeWarning and pass
        with pytest.raises(ValueError, match=r"^P or Q overflows on the probed degrees"):
            rational_log_spectrum(3.0, 3.0, p, q, validate=False)

    @pytest.mark.parametrize("beta, p, q, bad", [(-1000.0, [1.0], [1.0], 3),
                                                 (3.0, [1e300], [1e-300], 1)],
                             ids=["underflowing-power", "overflowing-ratio"])
    def test_overflowing_value_is_refused_by_degree(self, beta, p, q, bad):
        # finite parameters whose c_l overflows: a RuntimeWarning, then inf
        ps = rational_log_spectrum(3.0, beta, p, q, validate=False)
        with pytest.raises(ValueError, match=f"^spectrum gives infinite variance c_{bad}; "
                                             "every degree up to 10 needs a finite c_l$"):
            positive_spectrum(ps, 10)

    def test_nan_beta_never_evaluates_to_nan(self):
        # the constructor refuses a NaN beta, so the model is built around
        # it: 1^NaN is 1, and every other degree used to read NaN
        ps = dataclasses.replace(rational_log_spectrum(3.0, 3.0, [1.0], [1.0]), beta=math.nan)
        with pytest.raises(ValueError, match="^spectrum evaluated to a non-positive value$"):
            spectrum_eval(ps, [1, 5, 10])

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
        with pytest.raises(NumericFailure, match="not finite"):
            verify_envelope(huge, 100)


class TestDerivativeDecay:
    def test_overflowing_differences_are_numeric_failure(self):
        huge = tabulated_spectrum(range(1, 101), [1e308] * 100, 3.0)
        with pytest.raises(NumericFailure, match="order 0"):
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
        # the forward difference of u at l sits near u'(l + 1/2), here
        # mpmath's derivative of the 60-digit oracle
        ps = rational_log_spectrum(4.0, 3.0, [1.0, 2.0], [1.0, 0.0, 3.0],
                                   f_name="two_plus_sin")
        ls = np.arange(50, 500, dtype=float)
        du = [float(mpmath.diff(lambda s: rational_log_oracle(3.0, [1, 2], [1, 0, 3],
                                                              "two_plus_sin", s), l + 0.5))
              for l in ls]
        diffs = np.diff(spectrum_eval(ps, np.arange(50, 501, dtype=float)))
        np.testing.assert_allclose(diffs, du, rtol=2e-3)


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

    @pytest.mark.parametrize("cs,bad,kind", [([1.0, math.inf, 0.0], 2, "infinite"),
                                             ([1.0, 0.0, math.inf], 2, "non-positive"),
                                             ([math.inf, math.nan, 1.0], 1, "infinite")])
    def test_names_the_first_degree_not_finite_and_positive(self, cs, bad, kind):
        # an infinite c_l used to pass as positive
        ps = tabulated_spectrum([1, 2, 3], cs, 3.0)
        with pytest.raises(ValueError, match=f"^spectrum gives {kind} variance c_{bad}; "):
            positive_spectrum(ps, 3)


class TestRefusals:
    @pytest.mark.parametrize("build, message", [
        (lambda: rational_log_spectrum(3.0, 3.0, [0.0], [1.0]),
         "^polynomial has no nonzero coefficients$"),
        (lambda: rational_log_spectrum(3.0, 3.0, [1.0], [1.0], f_name="cos"),
         r"^unknown F function 'cos'; choose from \['one', 'two_plus_sin'\]$"),
        (lambda: tabulated_spectrum([1, 2], [1.0], 3.0),
         "^degree and value lists differ in length$"),
        (lambda: tabulated_spectrum([0, 1], [1.0, 1.0], 3.0),
         "^tabulated degrees must be >= 1$"),
        (lambda: spectrum_eval(dataclasses.replace(power_spectrum(3.0), family="white_noise"), 2),
         "^unknown spectrum family 'white_noise'$"),
        (lambda: verify_derivative_decay(power_spectrum(3.0), 2, (10, 5)),
         "^window must satisfy 1 <= l_min < l_max$"),
    ], ids=["zero-P", "unknown-F", "table-lengths", "degree-0", "unknown-family",
            "window-10:5"])
    def test_message(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


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

    def test_degree_past_the_double_range_rejected(self):
        # it reached spectrum_eval, whose float conversion raised OverflowError
        with pytest.raises(ValueError, match=f"^tabulated degree {10 ** 400} is past "
                                             "the double range$"):
            tabulated_spectrum([1, 2, 10 ** 400], [1.0, 0.125, 1.0], 3.0)
        largest = int(sys.float_info.max)  # an exact double: kept
        assert tabulated_spectrum([largest], [1.0], 3.0).table_l == (largest,)

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

    def test_csv_skips_comment_and_blank_rows(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# c_l = l^-3\nl,c_l\n1,1.0\n\n# degree 2\n2,0.125\n")
        ps = load_spectrum_csv(path, 3.0)
        assert (ps.table_l, ps.table_c) == ((1, 2), (1.0, 0.125))

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
