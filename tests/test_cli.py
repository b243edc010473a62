"""CLI contracts: columns, exit codes, byte-for-byte determinism."""

import csv
import json
import os
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "needlets"]


def run(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=env)


def rows_of(text):
    return list(csv.DictReader(text.splitlines()))


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

    def test_degree_cap_is_numeric_error(self):
        res = run("kernel", "--r", "1", "--t", "0.0001", "--theta", "0.1,0.2")
        assert res.returncode == 3


class TestCorrelationCommand:
    def test_coincidence_row_is_one(self):
        res = run("correlation", "--r", "1", "--alpha", "3", "--t", "0.2",
                  "--cos-gamma", "1,0")
        rows = rows_of(res.stdout)
        assert float(rows[0]["correlation"]) == 1.0
        assert res.returncode == 0

    def test_fit_report_has_slope_and_defaults(self):
        res = run("correlation", "--r", "1", "--alpha", "3",
                  "--t", "0.4,0.2,0.1,0.05", "--d", "1.5707963267948966", "--fit")
        assert res.returncode == 0
        table, blob = res.stdout.split("\n\n", 1)
        report = json.loads(blob)
        assert report["defaults"]["eps_tail"] == 1e-12
        slope = report["reports"][0]["fitted_slope"]
        assert 2.0 <= slope <= 3.0
        assert report["reports"][0]["n_exponent"] == 2

    def test_hypothesis_violation_with_fit(self):
        res = run("correlation", "--r", "1", "--alpha", "7", "--t", "0.2,0.1",
                  "--cos-gamma", "0", "--fit")
        assert res.returncode == 4
        assert "4r + 2" in res.stderr

    def test_nan_distance_is_config_error(self):
        res = run("correlation", "--r", "1", "--alpha", "3", "--t", "0.2", "--d", "nan")
        assert res.returncode == 2
        assert res.stdout == ""

    def test_spectrum_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"family": "power", "alpha": 3.0}')
        res = run("correlation", "--r", "1", "--spectrum", str(path),
                  "--t", "0.2", "--cos-gamma", "0")
        assert res.returncode == 0


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


class TestVerifyCommand:
    def test_default_suite_passes(self):
        res = run("verify", "--r", "1", "--alpha", "3")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["passed"]
        assert all(c["passed"] for c in report["checks"].values())
        assert report["defaults"]["stability_ratio"] == 10.0

    def test_broken_spectrum_fails_envelope(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"family": "rational_log", "alpha": 3.0, "beta": 2.0,'
                        ' "P": [1.0], "Q": [1.0], "F": "one"}')
        res = run("verify", "--r", "1", "--spectrum", str(path))
        assert res.returncode == 1
        report = json.loads(res.stdout)
        assert not report["checks"]["envelope"]["passed"]

    def test_series_bound_hypothesis_is_config_error(self):
        res = run("verify", "--r", "1", "--alpha", "7")
        assert res.returncode == 2


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

    def test_ill_conditioning_exit(self):
        res = run("frame", "--r", "1", "--L", "2", "--j-range=0:0",
                  "--oversample", "1")
        assert res.returncode == 3
        rows = rows_of(res.stdout)
        assert rows[0]["ill_conditioned"] == "true"


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

    def test_output_files_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("kernel", "--r", "2", "--t", "0.2", "--theta", "0:2.5:32")
        assert run(*args, "--output", str(a)).returncode == 0
        assert run(*args, "--output", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
