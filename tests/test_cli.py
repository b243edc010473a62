"""CLI contracts: columns, exit codes, byte-for-byte determinism."""

import csv
import dataclasses
import importlib
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import needlets.correlation as correlation_module
import needlets.frames as frames_module
import needlets.legendre as legendre_module
from needlets import (
    CorrelationQuery,
    DecayHypothesisError,
    MonteCarloCorrelation,
    NeedletProfile,
    analytic_correlation,
    cli,
    correlation_decay_check,
    points_cos_angle,
    power_spectrum,
    variance_scaling_check,
)
from needlets.defaults import DEGREE_CAP_ENV

CMD = [sys.executable, "-m", "needlets"]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=env)


def rows_of(text):
    return list(csv.DictReader(text.splitlines()))


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_no_constant)


def power_table(path, top):
    """Write c_l = l^-3 for l = 1..top as a CSV spectrum table."""
    path.write_text("l,c_l\n" + "".join(f"{l},{l ** -3.0!r}\n" for l in range(1, top + 1)))
    return str(path)


def huge_table(path):
    """Write c_l = 1e308 for l = 1..3999 as a CSV spectrum table."""
    path.write_text("l,c_l\n" + "".join(f"{l},1e308\n" for l in range(1, 4000)))
    return str(path)


# what every command reports for the table of `huge_table` at r = 1, t = 0.2
VARIANCE_OVERFLOW = ("variance at t=0.2 for r=1 leaves the double range: "
                     "the terms c_l f^2 (2l+1) sum to inf")


class TestKernelCommand:
    def test_shape_and_positivity(self):
        res = run("kernel", "--r", "1", "--t", "0.2", "--theta", "0:3.14159:256")
        assert res.returncode == 0
        rows = rows_of(res.stdout)
        assert len(rows) == 256
        thetas = [float(r["theta"]) for r in rows]
        assert thetas == sorted(thetas)
        assert thetas[0] == 0.001  # the zero endpoint is clamped to theta_min
        assert float(rows[0]["value"]) > 0

    def test_multiple_scales(self):
        res = run("kernel", "--r", "1", "--t", "0.4,0.2", "--theta", "0.1,0.5,1.0")
        rows = rows_of(res.stdout)
        assert len(rows) == 6
        assert {r["t"] for r in rows} == {"0.4", "0.2"}

    def test_bad_theta_spec_is_config_error(self):
        res = run("kernel", "--r", "1", "--t", "0.2", "--theta", "0:1")
        assert res.returncode == 2

    @pytest.mark.parametrize("t, theta, message", [
        ("abc", "0.1,0.5", "bad numeric list 'abc'"),
        ("0.2", "1:0:5", "bad grid spec '1:0:5'"),
    ], ids=["scale", "theta"])
    def test_malformed_scale_or_theta_is_config_error(self, capsys, t, theta, message):
        assert cli.main(["kernel", "--r", "1", "--t", t, "--theta", theta]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_degree_cap_is_numeric_error(self):
        res = run("kernel", "--r", "1", "--t", "0.0001", "--theta", "0.1,0.2")
        assert res.returncode == 3

    def test_underflowed_kernel_meets_the_degree_cap(self):
        # every term underflows at t = 100; the degree-8 series used to pass a cap of 4
        res = run("kernel", "--r", "1", "--t", "100", "--theta", "0.5",
                  env_extra={DEGREE_CAP_ENV: "4"})
        assert res.returncode == 3
        assert res.stdout == ""
        assert "needs lmax=8, above the configured cap 4" in res.stderr

    def test_bad_scale_is_config_error_before_degree_cap(self):
        # every scale of the grid is checked before the first kernel is built,
        # so the NaN is a config error although t = 0.0001 alone exceeds the cap
        res = run("kernel", "--r", "1", "--t", "0.0001,nan", "--theta", "0.1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: scale t must be finite and > 0\n"

    @pytest.mark.parametrize("theta", ["nan", "0.1,nan", "0:nan:5", "0.1,inf"])
    def test_non_finite_theta_is_config_error(self, theta):
        res = run("kernel", "--r", "1", "--t", "0.2", "--theta", theta)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "non-finite" in res.stderr

    @pytest.mark.parametrize("count", [2_000_001, 10 ** 12])
    def test_theta_count_above_the_point_cap_is_config_error(self, count, count_calls,
                                                            capsys):
        # the whole grid used to be built as a list before any size check
        kernels = count_calls(cli, "make_kernel")
        assert cli.main(["kernel", "--r", "1", "--t", "0.2", "--theta", f"0:1:{count}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: grid spec '0:1:{count}' has more than 2000000 points\n"
        assert kernels == []

    @pytest.mark.parametrize("t", ["1e-6", "1e-12", "1e-300", "5e-324"])
    def test_tiny_scale_stops_at_the_degree_cap(self, t, capsys):
        # these used to scan 6e6 degrees, ask for 43.7 TiB, exceed numpy's
        # size limit, and overflow int(), in that order
        assert cli.main(["kernel", "--r", "1", "--t", t, "--theta", "0.1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: series for t={float(t)!r} does not settle")


class TestScaleWhoseSquareOverflows:
    """t * t overflows past t = 1.3e154, and the gaussian's s * s already at
    t = 1e76: such a scale reads as a very large one, where f is 0."""

    @pytest.mark.parametrize("args", [["--f0", "gaussian", "--t", "1e76"], ["--t", "1e160"]],
                             ids=["gaussian", "exponential"])
    def test_kernel_is_zero(self, args):
        res = run("kernel", "--r", "1", *args, "--theta", "1")
        assert (res.returncode, res.stderr) == (0, "")
        assert [row["value"] for row in rows_of(res.stdout)] == ["0.0"]

    def test_correlation_has_a_degenerate_variance(self):
        res = run("correlation", "--r", "1", "--alpha", "3", "--t", "1e160", "--d", "1")
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr.startswith("error: variance degenerate at t=1e+160")

    def test_unknown_f0_is_config_error(self):
        res = run("kernel", "--r", "1", "--f0", "cauchy", "--t", "0.2", "--theta", "1")
        assert (res.returncode, res.stdout) == (2, "")
        assert "unknown f0 family 'cauchy'" in res.stderr


class TestCorrelationCommand:
    def test_coincidence_row_is_one(self):
        res = run("correlation", "--r", "1", "--alpha", "3", "--t", "0.2",
                  "--cos-gamma", "1,0")
        rows = rows_of(res.stdout)
        assert float(rows[0]["correlation"]) == 1.0
        assert res.returncode == 0

    @pytest.mark.parametrize("cos_gamma", ["1.0", "1.0000000000001"])
    def test_fit_skips_every_coincident_row(self, capsys, cos_gamma):
        # a cos gamma just past 1 is checked to x = 1 and its rows print 1.0,
        # but the fit skipped only a literal 1.0 and refused this one as too
        # close to coincidence (exit 2)
        code = cli.main(["correlation", "--r", "1", "--alpha", "3", "--t", "0.2,0.1",
                         f"--cos-gamma={cos_gamma},0", "--fit"])
        table, blob = capsys.readouterr().out.split("\n\n", 1)
        assert code == 0
        assert [float(row["correlation"]) for row in rows_of(table)][::2] == [1.0, 1.0]
        assert [rep["cos_gamma"] for rep in strict_json(blob)["reports"]] == [0.0]

    def test_fit_report_has_slope_and_defaults(self):
        res = run("correlation", "--r", "1", "--alpha", "3",
                  "--t", "0.4,0.2,0.1,0.05", "--d", "1.5707963267948966", "--fit")
        assert res.returncode == 0
        table, blob = res.stdout.split("\n\n", 1)
        report = strict_json(blob)
        assert report["defaults"]["eps_tail"] == 1e-12
        slope = report["reports"][0]["fitted_slope"]
        assert 2.0 <= slope <= 3.0
        assert report["reports"][0]["n_exponent"] == 2

    def test_fit_through_one_scale_is_config_error(self, capsys):
        # this used to print a fitted_slope of 0.874 and exit 0
        argv = ["correlation", "--r", "1", "--alpha", "3", "--d", "1", "--fit", "--t"]
        assert cli.main(argv + ["0.2,0.2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: the 2 smallest scales are all t=0.2; "
                       "a slope needs two distinct scales\n")
        assert cli.main(argv + ["0.2,0.2,0.1"]) == 0

    def test_hypothesis_violation_with_fit(self):
        res = run("correlation", "--r", "1", "--alpha", "7", "--t", "0.2,0.1",
                  "--cos-gamma", "0", "--fit")
        assert res.returncode == 4
        assert "4r + 2" in res.stderr

    def test_hypothesis_message_is_the_library_message(self, capsys):
        with pytest.raises(DecayHypothesisError) as exc:
            correlation_decay_check(NeedletProfile(1), power_spectrum(7.0), 0.0, [0.2, 0.1])
        code = cli.main(["correlation", "--r", "1", "--alpha", "7", "--t", "0.2,0.1",
                         "--cos-gamma", "0", "--fit"])
        assert code == cli.EXIT_HYPOTHESIS
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {exc.value}\n"

    def test_degenerate_variance_on_coincident_row_only(self):
        # at t = 50 every retained coefficient underflows: the coincident row
        # needs no variance, the next row does
        res = run("correlation", "--r", "1", "--alpha", "3", "--t", "50", "--cos-gamma", "1")
        assert res.returncode == 0
        row = rows_of(res.stdout)[0]
        assert float(row["correlation"]) == 1.0
        assert float(row["covariance"]) == 0.0
        res = run("correlation", "--r", "1", "--alpha", "3", "--t", "50", "--cos-gamma", "1,0")
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr == ("error: variance degenerate at t=50.0: 0.0; "
                              "the scale is too large for every retained coefficient\n")

    def test_one_scan_and_one_series_per_scale(self, count_calls, capsys):
        scans = count_calls(correlation_module, "_truncate")
        series = count_calls(correlation_module, "zonal_series")
        code = cli.main(["correlation", "--r", "1", "--alpha", "3", "--t", "0.2,0.1,0.05",
                         "--cos-gamma=-0.5,0,0.5,1", "--fit"])
        assert code == 0
        assert len(rows_of(capsys.readouterr().out.split("\n\n")[0])) == 12
        assert (len(scans), len(series)) == (3, 3)

    def test_one_check_of_the_inner_products(self, count_calls, capsys):
        # the benchmark line: 7 scales x 24 inner products, all checked at once
        workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
        (command,) = [c for c in workloads["analytic"] if c.label == "correlation"]
        checks = count_calls(cli, "_check_x")
        assert cli.main(command.args(0)) == 0
        assert len(rows_of(capsys.readouterr().out.split("\n\n")[0])) == 168
        assert [len(args[0]) for args in checks] == [24]

    def test_eps_tail_near_double_rounding_gives_its_row(self):
        # the tail as total - cumsum could not resolve 1e-16 and was refused
        # (exit 2); summed from the top it can
        res = run("correlation", "--r", "1", "--alpha", "3", "--t", "0.05",
                  "--cos-gamma", "0", "--eps-tail", "1e-16")
        assert res.returncode == 0
        assert len(rows_of(res.stdout)) == 1
        assert res.stderr == ""

    def test_nan_distance_is_config_error(self):
        res = run("correlation", "--r", "1", "--alpha", "3", "--t", "0.2", "--d", "nan")
        assert res.returncode == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("spectrum, message", [
        (["--spectrum", "table.csv"],
         "tabulated CSV spectra need --alpha for the declared decay"),
        ([], "give either --alpha (power law) or --spectrum FILE"),
    ], ids=["csv-without-alpha", "none"])
    def test_missing_spectrum_is_config_error(self, capsys, spectrum, message):
        argv = ["correlation", "--r", "1", *spectrum, "--t", "0.2", "--cos-gamma", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_spectrum_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"family": "power", "alpha": 3.0}')
        res = run("correlation", "--r", "1", "--spectrum", str(path),
                  "--t", "0.2", "--cos-gamma", "0")
        assert res.returncode == 0


class TestScaleAndCapDomain:
    @pytest.mark.parametrize("command", [
        ("kernel", "--r", "1", "--theta", "0.1,0.5"),
        ("correlation", "--r", "1", "--alpha", "3", "--cos-gamma", "0"),
        ("simulate", "--r", "1", "--alpha", "3", "--d", "0.5", "--replicas", "100"),
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_scale_is_config_error(self, command, t):
        res = run(*command, "--t", t)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: scale t must be finite and > 0\n"

    @pytest.mark.parametrize("command", [
        ("kernel", "--r", "1", "--theta", "0.1,0.5", "--t="),
        ("correlation", "--r", "1", "--alpha", "3", "--cos-gamma", "0", "--t="),
        ("simulate", "--r", "1", "--alpha", "3", "--d", "0.5", "--replicas", "100", "--t="),
        ("verify", "--r", "1", "--alpha", "3", "--t-grid="),
        ("verify", "--r", "1", "--alpha", "3", "--variance-t-grid="),
    ], ids=["kernel", "correlation", "simulate", "verify", "verify-variance"])
    def test_empty_scale_grid_is_config_error(self, command, capsys):
        assert cli.main(list(command)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: empty scale grid\n"

    @pytest.mark.parametrize("command, message", [
        (("kernel", "--r", "1", "--t", "0.2", "--theta", ","), "empty theta grid"),
        (("correlation", "--r", "1", "--alpha", "3", "--t", "0.2", "--cos-gamma", ","),
         "empty cos_gamma list"),
        (("correlation", "--r", "1", "--alpha", "3", "--t", "0.2", "--d", ","),
         "empty distance list"),
        (("simulate", "--r", "1", "--alpha", "3", "--t", "0.2", "--d", ",",
          "--replicas", "100"), "empty distance list"),
        (("frame", "--r", "1", "--oversample", ","), "empty oversample list"),
        (("frame", "--r", "1", "--oversample", ",", "--export-grid", "GRID"),
         "empty oversample list"),
    ], ids=["kernel-theta", "correlation-cos-gamma", "correlation-d", "simulate-d",
            "frame-oversample", "frame-export-grid"])
    def test_empty_list_is_config_error(self, command, message, tmp_path, capsys):
        # each used to print a bare header and exit 0; the grid export crashed
        grid = tmp_path / "grid.csv"
        assert cli.main([str(grid) if a == "GRID" else a for a in command]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert not grid.exists()

    def test_junk_degree_cap_is_config_error(self):
        res = run("kernel", "--r", "1", "--t", "0.2", "--theta", "0.1",
                  env_extra={DEGREE_CAP_ENV: "abc"})
        assert res.returncode == 2
        assert res.stdout == ""
        assert f"{DEGREE_CAP_ENV}='abc'" in res.stderr

    @pytest.mark.parametrize("command", [
        ("verify", "--r", "1", "--alpha", "3"),
        ("correlation", "--r", "1", "--alpha", "3", "--t", "0.2,0.1", "--cos-gamma", "0",
         "--fit"),
    ], ids=lambda c: c[0])
    def test_report_echoes_the_cap_in_effect(self, command):
        res = run(*command, env_extra={DEGREE_CAP_ENV: "3000"})
        assert res.returncode == 0
        report = strict_json(res.stdout.split("\n\n")[-1])
        assert report["defaults"]["degree_cap"] == 3000


class TestSimulateCommand:
    def test_same_point_row(self):
        res = run("simulate", "--r", "1", "--alpha", "3", "--t", "0.2",
                  "--d", "0", "--replicas", "200", "--seed", "1")
        rows = rows_of(res.stdout)
        assert res.returncode == 0
        assert float(rows[0]["estimate"]) == 1.0
        assert float(rows[0]["stderr"]) == 0.0
        assert float(rows[0]["z"]) == 0.0

    def test_estimate_tracks_analytic(self):
        res = run("simulate", "--r", "1", "--alpha", "3", "--t", "0.2",
                  "--d", "1.5707963267948966", "--replicas", "500", "--seed", "2")
        rows = rows_of(res.stdout)
        assert res.returncode == 0
        assert abs(float(rows[0]["z"])) <= 5.0

    def test_one_squared_scan_and_one_series_per_scale(self, count_calls, capsys):
        # every truncation scan of the correlation module is of the squared profile
        scans = count_calls(correlation_module, "_truncate")
        series = count_calls(correlation_module, "zonal_series")
        code = cli.main(["simulate", "--r", "1", "--alpha", "3", "--t", "0.2,0.1",
                         "--d", "0.3,0.785,1.571", "--replicas", "100"])
        assert code == 0
        assert len(rows_of(capsys.readouterr().out)) == 6
        assert (len(scans), len(series)) == (2, 2)

    def test_analytic_column_is_the_one_point_correlation(self, count_calls, capsys):
        # a repeated scale is evaluated once; coincident rows read exactly 1
        scans = count_calls(correlation_module, "_truncate")
        code = cli.main(["simulate", "--r", "1", "--alpha", "3", "--t", "0.2,0.1,0.2",
                         "--d", "0,0.3,1.571", "--replicas", "100"])
        assert code == 0
        rows = rows_of(capsys.readouterr().out)
        assert len(rows) == 9
        assert len(scans) == 2
        profile, spectrum = NeedletProfile(1), power_spectrum(3.0)
        for row in rows:
            cg = points_cos_angle((math.pi / 2, 0.0), (math.pi / 2, float(row["d"])))
            q = CorrelationQuery(profile, spectrum, float(row["t"]), cg)
            assert float.hex(float(row["analytic"])) == float.hex(analytic_correlation(q))
        assert [float(r["analytic"]) for r in rows if r["d"] == "0.0"] == [1.0] * 3

    def test_one_cos_gamma_per_distance(self, count_calls, capsys):
        # the simulate-r1 benchmark grid (fewer replicas): 2 scales x 3 distances
        angles = count_calls(cli, "points_cos_angle")
        code = cli.main(["simulate", "--r", "1", "--alpha", "3", "--t", "0.2,0.1",
                         "--d", "0.3,0.785,1.571", "--replicas", "100"])
        assert code == 0
        assert len(rows_of(capsys.readouterr().out)) == 6
        assert len(angles) == 3

    def test_huge_distance_gives_finite_row(self, capsys):
        # m phi used to overflow: the row read NaN and the command exited 0
        argv = ["simulate", "--r", "1", "--alpha", "3", "--t", "0.2", "--replicas", "100"]
        assert cli.main([*argv, "--d", "1e308"]) == 0
        (row,) = rows_of(capsys.readouterr().out)
        assert cli.main([*argv, "--d", repr(math.fmod(1e308, 2 * math.pi))]) == 0
        (reduced,) = rows_of(capsys.readouterr().out)
        assert row.pop("d") == "1e+308"
        del reduced["d"]
        assert row == reduced
        assert all(math.isfinite(float(v)) for v in row.values())

    @pytest.mark.parametrize("field", ["estimate", "stderr"])
    def test_nan_estimate_is_numeric_failure(self, monkeypatch, capsys, field):
        # a NaN z used to leave the |z| > 5 gate open: exit 0 with NaN rows
        def nan_estimates(*args):
            return [MonteCarloCorrelation(estimate=0.5, stderr=0.1)._replace(**{field: math.nan})
                    for _ in args[2]]

        monkeypatch.setattr(cli, "monte_carlo_correlations", nan_estimates)
        code = cli.main(["simulate", "--r", "1", "--alpha", "3", "--t", "0.2", "--d", "0.3",
                         "--replicas", "100"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_NUMERIC
        assert out == ""
        assert err.startswith("error: Monte-Carlo estimate at t=0.2, d=0.3 is not a number")

    def test_estimates_six_standard_errors_off_fail(self, monkeypatch, capsys):
        # the whole table is printed, then the FAIL line
        def six_off(profile, spectrum, queries, *args):
            return [MonteCarloCorrelation(
                estimate=analytic_correlation(CorrelationQuery(
                    profile, spectrum, t, points_cos_angle(x, y))) + 0.06, stderr=0.01)
                for t, x, y in queries]

        monkeypatch.setattr(cli, "monte_carlo_correlations", six_off)
        code = cli.main(["simulate", "--r", "1", "--alpha", "3", "--t", "0.2",
                         "--d", "0.3,1.571", "--replicas", "100"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_FAIL
        assert out.splitlines()[0] == "t,d,replicas,seed,estimate,stderr,analytic,z"
        rows = rows_of(out)
        assert [(r["t"], r["d"], r["replicas"], r["seed"], r["stderr"]) for r in rows] == [
            ("0.2", "0.3", "100", "0", "0.01"), ("0.2", "1.571", "100", "0", "0.01")]
        assert [float(r["estimate"]) for r in rows] == [float(r["analytic"]) + 0.06
                                                        for r in rows]
        assert [float(r["z"]) for r in rows] == pytest.approx([6.0, 6.0])
        assert err == ("FAIL: |z| = 6.00 > 5; estimator and analytic value disagree "
                       "beyond statistics\n")

    @pytest.mark.parametrize("d", ["nan", "inf", "0.3,nan"])
    def test_non_finite_distance_is_config_error(self, d):
        res = run("simulate", "--r", "1", "--alpha", "3", "--t", "0.2",
                  "--d", d, "--replicas", "200")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: point coordinates (theta, phi) must be finite\n"


class TestShortTable:
    # a table of l^-3 for l <= 10 stops below every truncation degree; its
    # correlation used to print -0.0282 and exit 0, the power law gives -0.00123
    @pytest.mark.parametrize("command", [
        ("correlation", "--t", "0.05", "--d", "1.5708"),
        ("simulate", "--t", "0.05", "--d", "1.5708", "--replicas", "100"),
        ("verify",),
    ], ids=lambda c: c[0])
    def test_table_shorter_than_truncation_is_config_error(self, tmp_path, command):
        path = power_table(tmp_path / "short.csv", 10)
        res = run(command[0], "--r", "1", "--spectrum", path, "--alpha", "3", *command[1:])
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: spectrum gives non-positive variance c_11;")


class TestInfiniteSpectrum:
    # each of these evaluated to c_l = inf: verify exited 3 ("growth constant
    # of sequence 0 is inf"), correlation 3 ("variance degenerate"), and the
    # overflowing P printed a RuntimeWarning, an error under the CI setting
    @pytest.mark.parametrize("command", [("verify",), ("correlation", "--t", "0.1", "--d", "1")],
                             ids=lambda c: c[0])
    @pytest.mark.parametrize("params, message", [
        ('"beta": -Infinity, "P": [1.0]', "beta, P and Q must be finite"),
        ('"beta": 3.0, "P": [Infinity]', "beta, P and Q must be finite"),
        ('"beta": 3.0, "P": [1e308, 1e308]', "P or Q overflows on the probed degrees [1, 1e6]"),
    ], ids=["beta", "P", "P-overflow"])
    def test_rational_log_is_config_error(self, tmp_path, capsys, command, params, message):
        path = tmp_path / "inf.json"
        path.write_text(f'{{"family": "rational_log", "alpha": 3.0, {params}, "Q": [1.0]}}')
        code = cli.main([command[0], "--r", "1", "--spectrum", str(path), *command[1:]])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_table_is_config_error_naming_the_degree(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("l,c_l\n" + "".join(f"{l},{math.inf if l == 2 else l ** -3.0!r}\n"
                                             for l in range(1, 100)))
        code = cli.main(["correlation", "--r", "1", "--spectrum", str(path), "--alpha", "3",
                         "--t", "0.1", "--d", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: spectrum gives infinite variance c_2; ")


class TestMalformedSpectrumFile:
    # each of these exited 1 with a traceback (IndexError, csv.Error,
    # AttributeError, TypeError or OverflowError), except "P": "12", read as
    # P = [1, 2] with exit 0, and the missing key, refused as "error: 'alpha'"
    FILES = [
        ("short-row.csv", "l,c_l\n1,1.0\n2\n",
         " line 3: a row needs two fields, l and c_l; got ['2']"),
        ("long-field.csv", "l,c_l\n1," + "0" * 200_000 + "\n",
         " line 2: field larger than field limit (131072)"),
        ("array.json", "[1, 2]", ": the top level must be an object, got [1, 2]"),
        ("string.json", '"power"', ': the top level must be an object, got "power"'),
        ("p-number.json", '{"family": "rational_log", "alpha": 3, "beta": 3, "P": 5, "Q": [1]}',
         ": P must be a list of numbers, got 5"),
        ("p-string.json", '{"family": "rational_log", "alpha": 3, "beta": 2, "P": "12", "Q": [1]}',
         ': P must be a list of numbers, got "12"'),
        ("alpha-null.json", '{"family": "power", "alpha": null}',
         ": alpha must be a number, got null"),
        ("alpha-huge.json", f'{{"family": "power", "alpha": {10 ** 400}}}',
         f": alpha must be a number, got {10 ** 400}"),
        ("beta-null.json", '{"family": "rational_log", "alpha": 3, "beta": null, "P": [1],'
         ' "Q": [1]}', ": beta must be a number, got null"),
        ("f-list.json", '{"family": "rational_log", "alpha": 3, "beta": 3, "P": [1], "Q": [1],'
         ' "F": ["x"]}', ': F must be a string, got ["x"]'),
        ("alpha-missing.json", '{"family": "power"}', ": missing key 'alpha'"),
        # these three named neither the file nor the line; the upper-case
        # suffix was read as JSON ("Extra data: line 1 column 2")
        ("syntax.json", '{"family": "power", "alpha": 3,}',
         ": Expecting property name enclosed in double quotes: line 1 column 32 (char 31)"),
        ("float-degree.csv", "l,c_l\n1,1.0\n3.0,1e-3\n",
         " line 3: invalid literal for int() with base 10: '3.0'"),
        ("upper.CSV", "l,c_l\n1,1.0\n2\n", " line 3: a row needs two fields, l and c_l; got ['2']"),
    ]

    @pytest.mark.parametrize("name, text, message", FILES, ids=[name for name, _, _ in FILES])
    def test_is_config_error_naming_the_file(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        alpha = ["--alpha", "3"] if name.lower().endswith(".csv") else []
        code = cli.main(["correlation", "--r", "1", "--t", "0.1", "--d", "1",
                         "--spectrum", str(path), *alpha])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {path}{message}\n")

    def test_degree_past_the_double_range_is_config_error(self, tmp_path, capsys):
        # exited 1 with OverflowError: int too large to convert to float
        path = tmp_path / "huge-degree.csv"
        power_table(path, 3999)
        with path.open("a") as fh:
            fh.write(f"{10 ** 400},1.0\n")
        code = cli.main(["correlation", "--r", "1", "--t", "0.1", "--d", "1", "--alpha", "3",
                         "--spectrum", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: tabulated degree {10 ** 400} is past the double range\n"


class TestDoubleRange:
    """A large r, or c_l = 1e308, takes a series, a bound or a sample moment
    past the double range.  Each command then prints finite values, or exits
    3 with empty stdout and a message naming what overflowed; a child that
    warns fails, as conftest makes a RuntimeWarning an error."""

    @pytest.mark.parametrize("r, f0", [("170", "exponential"), ("200", "exponential"),
                                       ("345", "gaussian")])
    def test_kernel_series_is_numeric_failure(self, r, f0):
        # r = 170 printed 2.7e306 from a truncation chosen on an overflowed
        # scan; r = 200 and the gaussian's r = 345 printed nan, all exiting 0
        res = run("kernel", "--r", r, "--f0", f0, "--t", "0.1", "--theta", "1")
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr == (f"error: series at t=0.1 for r={r} leaves the double range: "
                              "its terms f (2l+1) sum to inf\n")

    def test_correlation_bound_constant_is_numeric_failure(self):
        # t^-139 overflowed a float power: a traceback and exit 1
        res = run("correlation", "--r", "35", "--alpha", "3", "--t", "0.003125", "--d", "1")
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr.startswith("error: bound constant at t=0.003125, d=0.9999999999999999 "
                                     "for r=35 leaves the double range")

    def test_simulate_moments_stay_finite(self):
        # the jackknife's products of sample moments overflowed, its stderr
        # read 0, and z divided by it: a traceback and exit 1
        res = run("simulate", "--r", "60", "--alpha", "3", "--t", "0.2", "--d", "0.5",
                  "--replicas", "100")
        assert (res.returncode, res.stderr) == (0, "")
        (row,) = rows_of(res.stdout)
        values = [float(row[k]) for k in ("estimate", "stderr", "analytic", "z")]
        assert all(map(math.isfinite, values)) and values[1] > 0

    @pytest.mark.parametrize("command", [("correlation",), ("simulate", "--replicas", "100")],
                             ids=lambda c: c[0])
    def test_huge_spectrum_variance_is_numeric_failure(self, tmp_path, command):
        # this exited 3 only after RuntimeWarnings, as a "degenerate" variance
        path = huge_table(tmp_path / "huge.csv")
        res = run(command[0], "--r", "1", "--spectrum", path, "--alpha", "3", "--t", "0.2",
                  "--d", "1", *command[1:])
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr == f"error: {VARIANCE_OVERFLOW}\n"

    def test_huge_spectrum_coefficient_is_numeric_failure(self, tmp_path):
        # at r = 3 a coefficient f^2 c_l itself overflowed, with a
        # RuntimeWarning before the variance was checked: a traceback, exit 1
        path = huge_table(tmp_path / "huge.csv")
        res = run("correlation", "--r", "3", "--spectrum", path, "--alpha", "3", "--t", "0.2",
                  "--d", "1")
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr == f"error: {VARIANCE_OVERFLOW.replace('r=1', 'r=3')}\n"

    def test_localization_sup_is_numeric_failure(self):
        # (theta/t)^200 overflowed with a RuntimeWarning, and the report
        # failed as "report value 'sups' is inf", which names no check
        res = run("verify", "--r", "1", "--alpha", "3", "--loc-exponent", "200")
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr == ("error: localization sup at t=0.05 is inf: t^2 |K_t| "
                              "(theta/t)^200 leaves the double range\n")


class TestStrictJson:
    def test_infinite_ratio_is_null(self):
        doc = cli._json_doc({"ratio": math.inf, "growth_ratios": [1.0, math.inf]})
        assert strict_json(doc) == {"ratio": None, "growth_ratios": [1.0, None]}

    @pytest.mark.parametrize("obj", [{"ratio": math.nan}, {"ratio": -math.inf},
                                     {"k1_hat": math.inf}, {"checks": {"sups": [1.0, math.nan]}}],
                             ids=["nan-ratio", "minus-inf-ratio", "inf-value", "nested-nan"])
    def test_other_non_finite_value_is_numeric_failure(self, obj):
        with pytest.raises(cli.NumericFailure):
            cli._json_doc(obj)

    def test_non_finite_report_value_exits_3(self, monkeypatch, capsys):
        real = cli.verify_envelope

        def overflowing(ps, l_max):
            return dataclasses.replace(real(ps, l_max), k1_hat=math.inf)

        monkeypatch.setattr(cli, "verify_envelope", overflowing)
        assert cli.main(["verify", "--r", "1", "--alpha", "3"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: report value 'k1_hat' is inf\n"


class TestVerifyCommand:
    def test_vanished_envelope_minimum_is_strict_json(self, tmp_path):
        # the table covers every truncation degree but stops inside the
        # envelope window: k0 = 0, and the ratio used to print as Infinity
        path = power_table(tmp_path / "t.csv", 1000)
        res = run("verify", "--r", "1", "--spectrum", path, "--alpha", "3")
        assert res.returncode == 1
        envelope = strict_json(res.stdout)["checks"]["envelope"]
        assert envelope == {"k0_hat": 0.0, "k1_hat": envelope["k1_hat"], "ratio": None,
                            "l_max": 2000, "passed": False}

    def test_default_suite_passes(self):
        res = run("verify", "--r", "1", "--alpha", "3")
        assert res.returncode == 0
        report = strict_json(res.stdout)
        assert report["passed"]
        assert all(c["passed"] for c in report["checks"].values())
        assert report["defaults"]["stability_ratio"] == 10.0

    def test_overflowing_series_bound_is_numeric_failure(self, tmp_path, capsys):
        # c_l = 1e308 and mu = 4r - alpha = -1.9: the growth constant of the
        # series bound overflows, which used to print sups of 0.0 and exit 1;
        # the variance of its covariance series is refused first
        path = huge_table(tmp_path / "huge.csv")
        code = cli.main(["verify", "--r", "1", "--spectrum", path, "--alpha", "5.9"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == f"error: {VARIANCE_OVERFLOW}\n"

    @pytest.mark.parametrize("alpha", ["3", "4"])
    def test_overflowing_variance_is_numeric_failure(self, tmp_path, alpha):
        # mu = 4r - alpha >= 0 keeps the series bound finite; the variances
        # and envelope overflow, which used to print NaN and Infinity, and
        # then to be reported as a NaN variance after RuntimeWarnings
        path = huge_table(tmp_path / "huge.csv")
        res = run("verify", "--r", "1", "--spectrum", path, "--alpha", alpha)
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr == f"error: {VARIANCE_OVERFLOW}\n"

    def test_broken_spectrum_fails_envelope(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"family": "rational_log", "alpha": 3.0, "beta": 2.0,'
                        ' "P": [1.0], "Q": [1.0], "F": "one"}')
        res = run("verify", "--r", "1", "--spectrum", str(path))
        assert res.returncode == 1
        report = strict_json(res.stdout)
        assert not report["checks"]["envelope"]["passed"]

    def test_nan_beta_is_config_error(self, tmp_path):
        # a NaN beta used to pass the spectrum's own checks, and was refused
        # only when the spectrum was evaluated, as a non-positive value
        path = tmp_path / "nan.json"
        path.write_text('{"family": "rational_log", "alpha": 3.0, "beta": NaN,'
                        ' "P": [1.0], "Q": [1.0]}')
        res = run("verify", "--r", "1", "--spectrum", str(path))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: beta, P and Q must be finite\n"

    def test_one_series_loop_per_check(self, count_calls, capsys):
        # series bound: near and far angles; variance; localization.  The
        # variance series has every point at x = 1 and runs no degree loop
        series = count_calls(legendre_module, "_series_rows")
        at_one = count_calls(legendre_module, "_series_at_one")
        code = cli.main(["verify", "--r", "1", "--alpha", "3"])
        assert code == 0
        assert strict_json(capsys.readouterr().out)["passed"]
        assert (len(series), len(at_one)) == (4, 1)  # three degree loops
        variance_scaling_check(NeedletProfile(2), power_spectrum(4.0), [0.2, 0.1, 0.05])
        assert (len(series), len(at_one)) == (5, 2)  # and none here

    def test_series_bound_hypothesis_is_config_error(self):
        res = run("verify", "--r", "1", "--alpha", "7")
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr == "error: 4r + 2 = 6 must exceed alpha = 7.0; raise r\n"


class TestFrameCommand:
    def test_ratio_at_least_one_and_decreasing(self):
        res = run("frame", "--r", "1", "--L", "8", "--j-range=-4:0",
                  "--oversample", "1,2,4")
        assert res.returncode == 0
        rows = rows_of(res.stdout)
        ratios = [float(r["ratio"]) for r in rows]
        assert all(v >= 1.0 for v in ratios)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_grid_export_row_counts(self, tmp_path):
        out = tmp_path / "grid.csv"
        res = run("frame", "--r", "1", "--L", "8", "--j-range=-3:0",
                  "--oversample", "2", "--export-grid", str(out))
        assert res.returncode == 0
        rows = rows_of(out.read_text())
        import math
        for j in range(-3, 1):
            n_j = math.ceil(2 * 4.0 * 2.0 ** (-2 * j))
            assert sum(1 for r in rows if int(r["j"]) == j) == n_j

    def test_unwritable_grid_path_is_config_error_with_empty_stdout(self, tmp_path,
                                                                      capsys):
        # the frame table used to reach stdout before the grid path failed
        argv = ["frame", "--r", "1", "--a", "2", "--L", "4", "--j-range=-2:0",
                "--oversample", "1", "--export-grid"]
        assert cli.main(argv + [str(tmp_path / "missing" / "grid.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_grid_on_stdout_follows_the_table(self, tmp_path, capsys):
        argv = ["frame", "--r", "1", "--a", "2", "--L", "4", "--j-range=-2:0",
                "--oversample", "1", "--export-grid"]
        grid = tmp_path / "grid.csv"
        assert cli.main(argv + [str(grid)]) == 0
        table = capsys.readouterr().out
        assert cli.main(argv + ["-"]) == 0
        assert capsys.readouterr().out == table + grid.read_text()

    def test_ill_conditioning_exit(self):
        res = run("frame", "--r", "1", "--L", "2", "--j-range=0:0",
                  "--oversample", "1")
        assert res.returncode == 3
        rows = rows_of(res.stdout)
        assert rows[0]["ill_conditioned"] == "true"

    @pytest.mark.parametrize("a", ["nan", "inf", "0", "5e-324"])
    @pytest.mark.parametrize("j_range", ["0:0", "-2:0"])
    def test_bad_dilation_is_config_error(self, a, j_range, capsys):
        # a = nan used to print a row with j_range 0:0, and blame the scale
        # with -2:0; a = 0 and 5e-324 crashed
        argv = ["frame", "--r", "1", "--a", a, f"--j-range={j_range}", "--L", "2",
                "--oversample", "1"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: dilation a must be finite and > 1\n"

    def test_gram_above_the_memory_cap_is_config_error(self, monkeypatch, capsys):
        # L = 128 passes every other check and used to ask for about 7 GB
        def no_gram(*args):  # the first step of the Gram stage after its checks
            raise AssertionError("the Gram stage ran")

        monkeypatch.setattr(frames_module, "_paired_layout", no_gram)
        argv = ["frame", "--r", "1", "--L", "128", "--j-range=-6:0", "--oversample", "1"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "above the cap" in err

    @pytest.mark.parametrize("a, j_range", [
        ("1.0001", "-100000:0"),  # the finest grid: 1.9e9 points
        ("1.0001", "-10000000:0"),
        ("1.000000002", "-1000000000:0"),  # a finest grid of 219 points, 5.4e10 in all
    ])
    def test_oversized_range_is_refused_before_any_work(self, a, j_range):
        # the weights of every scale were computed before the size checks:
        # about 240 bytes and 17 us a scale before the same refusal
        res = subprocess.run(CMD + ["frame", "--r", "1", "--a", a, "--L", "2",
                                    f"--j-range={j_range}", "--oversample", "1"],
                             capture_output=True, text=True, timeout=10)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "above the cap" in res.stderr

    def test_degree_cap_bounds_only_the_evaluated_degrees(self, monkeypatch, capsys):
        # the finest scale, 1/16, truncates its own series at degree 89, above
        # a cap of 64, but the Gram evaluates degrees 1..8; this used to exit 3
        argv = ["frame", "--r", "1", "--a", "2", "--L", "8", "--j-range=-4:0",
                "--oversample", "1"]
        assert cli.main(argv) == 0
        default = capsys.readouterr()
        monkeypatch.setenv(DEGREE_CAP_ENV, "64")
        assert cli.main(argv) == 0
        assert capsys.readouterr() == default

    def test_uncovered_degree_is_config_error(self, capsys):
        argv = ["frame", "--r", "1", "--a", "2", "--L", "16", "--j-range=0:0",
                "--oversample", "1"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: degree 16 has no spectral coverage in j_range 0..0\n"

    def test_no_eps_tail_option(self, capsys):
        # the resolution check always truncates at the default eps_tail, so
        # frame used to accept an --eps-tail it never read
        assert cli.main(["frame", "--help"]) == 0
        assert "--eps-tail" not in capsys.readouterr().out
        argv = ["frame", "--r", "1", "--L", "8", "--j-range=-4:0", "--oversample", "1",
                "--eps-tail", "1e-3"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --eps-tail 1e-3" in err

    @pytest.mark.parametrize("oversample", ["inf", "nan", "1,inf"])
    def test_non_finite_oversample_is_config_error(self, oversample, capsys):
        # inf used to crash with an OverflowError, nan failed converting to int
        argv = ["frame", "--r", "1", "--L", "2", "--j-range=-1:0", "--oversample", oversample]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: oversample must be finite and >= 1\n"


class TestRangeOptions:
    @pytest.mark.parametrize("argv, text", [
        (["frame", "--r", "1", "--L", "2", "--j-range=a:b"], "a:b"),
        (["frame", "--r", "1", "--L", "2", "--j-range=-2:0:1"], "-2:0:1"),
        (["verify", "--r", "1", "--alpha", "3", "--window", "10:2e3"], "10:2e3"),
    ], ids=["frame-letters", "frame-three-parts", "verify-float-end"])
    def test_unreadable_range_is_config_error_naming_it(self, argv, text, capsys):
        # a non-integer end used to exit with int()'s own message
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: range {text!r} must be min:max with integer ends\n"


class TestOutOfMemory:
    """A size option too large to allocate (`verify --envelope-lmax 1e12`,
    `simulate --replicas 1e12`) is a config error, as the frame Gram's memory
    cap is, not a traceback with exit 1.  The allocation is faked: a real one
    of that size may succeed on a host that overcommits memory."""

    @pytest.mark.parametrize("callee, argv", [
        ("verify_envelope", ["verify", "--r", "1", "--alpha", "3", "--t-grid", "0.4,0.2",
                             "--variance-t-grid", "0.2,0.1"]),
        ("monte_carlo_correlations", ["simulate", "--r", "1", "--alpha", "3", "--t", "0.2",
                                      "--d", "0.5"]),
    ])
    def test_memory_error_is_config_error(self, monkeypatch, capsys, callee, argv):
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, callee, out_of_memory)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


class TestProgramFault:
    def test_key_error_propagates(self, monkeypatch):
        # no input leads to a KeyError, so one is a bug: a traceback, not an
        # exit 2 that blames the command line
        def lookup_bug(*args):
            raise KeyError("x")

        monkeypatch.setattr(cli, "make_kernel", lookup_bug)
        with pytest.raises(KeyError, match="'x'"):
            cli.main(["kernel", "--r", "1", "--t", "0.2", "--theta", "0.1,0.5"])


class TestDeterminism:
    CASES = [
        ("kernel", "--r", "1", "--t", "0.3,0.15", "--theta", "0:3.14159:64"),
        ("correlation", "--r", "1", "--alpha", "3", "--t", "0.4,0.2,0.1,0.05",
         "--cos-gamma", "1,0,-0.5", "--fit"),
        ("simulate", "--r", "1", "--alpha", "3", "--t", "0.25", "--d", "0.8",
         "--replicas", "300", "--seed", "11"),
        ("verify", "--r", "1", "--alpha", "3"),
        ("frame", "--r", "1", "--L", "8", "--j-range=-3:0", "--oversample", "1,2"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_rerun_is_byte_identical(self, case):
        first = run(*case)
        second = run(*case)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_thread_count_does_not_change_bytes(self):
        case = self.CASES[2]
        one = run(*case, env_extra={"OPENBLAS_NUM_THREADS": "1",
                                    "OMP_NUM_THREADS": "1"})
        four = run(*case, env_extra={"OPENBLAS_NUM_THREADS": "4",
                                     "OMP_NUM_THREADS": "4"})
        assert one.stdout == four.stdout

    def test_frame_thread_count_does_not_change_bytes(self):
        # the frame-L16 benchmark line, whose last digits used to differ
        case = ("frame", "--r", "1", "--a", "2", "--L", "16", "--j-range=-6:0",
                "--oversample", "1,2,4")
        one = run(*case, env_extra={"OPENBLAS_NUM_THREADS": "1",
                                    "OMP_NUM_THREADS": "1"})
        four = run(*case, env_extra={"OPENBLAS_NUM_THREADS": "4",
                                     "OMP_NUM_THREADS": "4"})
        assert one.returncode == four.returncode == 0
        assert one.stdout == four.stdout


class TestBenchmarkReplay:
    """Benchmark command lines replayed byte for byte: every line of the
    `analytic` workload and the `montecarlo` workload's simulate lines at
    seed 0.  The `frame` lines are left out: `perfbench/reference/frame-*.out`
    still hold bytes from before the parity-split Gram and its regrouped
    sums, which moved their last digits within perfbench's 1e-9 check.

    The command lines are read from `perfbench/workloads.py`, the expected
    bytes from `perfbench/reference/` and the traced names from
    `perfbench/tracer.py`; none of them is written.
    """

    @pytest.mark.parametrize("label", ["kernel", "correlation", "verify-r1", "verify-r2",
                                       "simulate-r1", "simulate-r2"])
    def test_stdout_matches_reference(self, label):
        workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
        (command,) = [c for name in ("analytic", "montecarlo")
                      for c in workloads[name] if c.label == label]
        reference = f"{label}-seed0.out" if command.seeded else f"{label}.out"
        res = subprocess.run(CMD + command.args(0), capture_output=True)
        assert res.returncode == 0
        assert res.stdout == (PERFBENCH / "reference" / reference).read_bytes()

    def test_traced_layers_exist(self):
        # the tracer rebinds these names; a missing one crashes `--trace 1`
        layers = runpy.run_path(str(PERFBENCH / "tracer.py"))["LAYERS"]
        assert layers
        for mod_name, fn_name, _ in layers:
            module = importlib.import_module(f"needlets.{mod_name}")
            assert callable(getattr(module, fn_name, None)), f"needlets.{mod_name}.{fn_name}"



# one cheap valid command line per subcommand: (command, options, flags)
ARGV_BASES = [
    ("kernel", [("--r", "1"), ("--t", "0.2"), ("--theta", "0.1,0.5"),
                ("--eps-tail", "1e-10")], []),
    ("correlation", [("--r", "1"), ("--alpha", "3"), ("--t", "0.2,0.1"),
                     ("--d", "1.5")], ["--fit"]),
    ("correlation", [("--r", "1"), ("--alpha", "3"), ("--t", "0.2"),
                     ("--cos-gamma", "0,0.5")], []),
    ("simulate", [("--r", "1"), ("--alpha", "3"), ("--t", "0.2"), ("--d", "0.5"),
                  ("--replicas", "100"), ("--seed", "1")], []),
    ("verify", [("--r", "1"), ("--alpha", "3"), ("--t-grid", "0.4,0.2"),
                ("--variance-t-grid", "0.2,0.1"), ("--loc-exponent", "3"),
                ("--envelope-lmax", "200"), ("--window", "10:200"), ("--k-max", "2")], []),
    ("frame", [("--r", "1"), ("--a", "2"), ("--L", "2"), ("--j-range", "-1:0"),
               ("--oversample", "1")], []),
]
HOSTILE_TOKENS = ["nan", "inf", "-inf", "-1", "0", ",", "1e-12", "5e-324", "1e308"]
# (base, option index, token): every single-token mutation of every base
MUTATIONS = [(b, k, token) for b, (_, options, _) in enumerate(ARGV_BASES)
             for k in range(len(options)) for token in HOSTILE_TOKENS]


def mutated_argv(base, k=None, token=None):
    """Base command line `base` with the value of its option k replaced by `token`."""
    command, options, flags = ARGV_BASES[base]
    return [command, *(f"{name}={token if i == k else value}"
                       for i, (name, value) in enumerate(options)), *flags]


class TestArgvProperty:
    """One option value of a cheap valid command line is replaced by a hostile
    token.  Every outcome must be a documented exit code, with empty stdout on
    a config error and no traceback."""

    @pytest.mark.parametrize("base", range(len(ARGV_BASES)))
    def test_every_base_is_valid(self, base, capsys):
        assert cli.main(mutated_argv(base)) == 0
        assert capsys.readouterr().out

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(MUTATIONS))
    @example((0, 1, "1e-12"))  # kernel --t: a 43.7 TiB scan
    @example((5, 4, "inf"))  # frame --oversample: OverflowError in build_grid
    @example((1, 1, "inf"))  # correlation --alpha: OverflowError in decay_exponents
    def test_mutated_argv_exits_cleanly(self, capsys, mutation):
        code = cli.main(mutated_argv(*mutation))
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3, 4)
        if code == 2:
            assert out == ""
        assert "Traceback" not in err


class TestStdoutOnly:
    """Every table and report goes to stdout: no subcommand takes `--output`."""

    @pytest.mark.parametrize("base", [0, 1, 3, 4, 5], ids=lambda b: ARGV_BASES[b][0])
    def test_output_option_is_config_error(self, tmp_path, capsys, base):
        path = tmp_path / "out.txt"
        assert cli.main([*mutated_argv(base), "--output", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --output" in err
        assert not path.exists()
