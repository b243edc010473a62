"""Kept mutants: recorded mutations of the code that named tests must kill.

Each row of `MUTANTS` is one mutation that a CHANGES.md entry recorded as
failing some tests: the file, its exact old text, the new text, the node ids
that must fail, and the opening words of that entry.  For each row the
runner copies the tree, without `.git` or `__pycache__`, into a temporary
directory, checks that the old text occurs exactly once, replaces it, and
runs `pytest -x -p no:cacheprovider` on the node ids in the copy; two rows
run at a time.

    python tests/mutants.py

exits 0 when every mutant is killed.  It exits 1 when a mutant survives,
when its old text is missing or occurs more than once (a stale row is a
failure, not a skip), or when pytest ends with anything but failed tests.
The file has no `test_` prefix, so the test suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

CALDERON = "One exponent per profile family, and a Calderón sum over a j-range"
COS_MINUS_ONE = "The (cos θ − 1) transform as one loop over one padded array"
EXACT_LIMIT = "One needlet coefficient β_{t,x}"
EXIT_CONTRACT = "One home for the CLI exit-code contract"
MIRROR_PARITY = "Frame Gram split by mirror parity"
ONE_OWNER = "One owner per analytic decision"
PUBLIC_NAMES = "Delete `real_sph_harm`, `SphHarmPoint` and `multiply_cos_minus_one`"
SERIES_AT_ONE = "Series loop with less interpreter work per degree"
SERIES_ROWS = "One series loop for many coefficient rows"
TWO_WORKERS = "Monte-Carlo draws on two workers, one generator per draw"
WORKER_STREAM = "Worker-owned Monte-Carlo stream"
WRITER = "One harmonic writer"

CALDERON_SUM = "tests/test_kernels.py::TestCalderon::test_matches_a_40_digit_sum"
CUBATURE = ("tests/test_frames.py::TestExactCubatureLimit::"
            "test_gaps_positive_and_shrinking_to_the_bounds")
FULL_GRID = "tests/test_frames.py::TestMirrorGram::test_gram_matches_full_grid_oracle"
MC_BITS = ("tests/test_fields.py::TestBatchedMonteCarlo::"
           "test_uneven_ranges_and_short_chunks_do_not_move_a_bit")
MPMATH_COR = "tests/test_correlation.py::TestMpmathOracle"
REFERENCE_LOOP = "tests/test_series_rows.py::TestFrozenReference::test_bits_of_the_reference_loop"
REFERENCE_STEP = ("tests/test_differences.py::TestFrozenReference::"
                  "test_bits_of_the_reference_step")


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    entry: str


MUTANTS = (
    # the acceptance fit's covariance: f(t l(l+1)) for f(t^2 l(l+1)), and f for f^2
    Mutant("src/needlets/kernels.py", "spectral_weights(profile, t * t, hi)",
           "spectral_weights(profile, t, hi)", (MPMATH_COR,),
           "Criterion 04 mended in the test, not the program"),
    Mutant("src/needlets/correlation.py",
           "seq = CoeffSequence(1, f * f * positive_spectrum(spectrum, f.size))",
           "seq = CoeffSequence(1, f * positive_spectrum(spectrum, f.size))", (MPMATH_COR,),
           "Criterion 04 mended in the test, not the program"),
    Mutant("src/needlets/correlation.py", "cors[apart] = covs[apart] / variance",
           "cors[apart] = covs[apart] * (1.0 / variance)",
           ("tests/test_cli.py::TestBenchmarkReplay::test_stdout_matches_reference",),
           "Per-scale analytic engine"),
    Mutant("src/needlets/fields.py", "(rows[:, :w.size] * w).sum(axis=1)",
           "rows[:, :w.size] @ w", (MC_BITS,), "Draw once, project many"),
    # the Philox state set once, for the first stream only
    Mutant("src/needlets/fields.py",
           "    for row, stream in zip(words, streams):\n"
           "        key[1] = stream\n"
           "        gen.state = state\n",
           "    key[1] = streams[0]\n"
           "    gen.state = state\n"
           "    for row, stream in zip(words, streams):\n",
           ("tests/test_fields.py::TestCounterDraw",), TWO_WORKERS),
    Mutant("src/needlets/fields.py", 'state["buffer_pos"] = 4', 'state["buffer_pos"] = 0',
           ("tests/test_fields.py::TestCounterDraw",), TWO_WORKERS),
    Mutant("src/needlets/fields.py", "            future.result()\n", "            future\n",
           ("tests/test_fields.py::TestBatchedMonteCarlo::test_worker_exception_reaches_caller",),
           TWO_WORKERS),
    Mutant("src/needlets/correlation.py", "    if np.any(apart):\n        if variance <= 0.0:",
           "    if True:\n        if variance <= 0.0:",
           ("tests/test_correlation.py::TestCorrelationSeries::"
            "test_degenerate_variance_only_when_a_point_is_apart",),
           "Eleven unused per-call knobs removed"),
    Mutant("src/needlets/legendre.py", "        add(cv, ev, cv)\n", "",
           ("tests/test_series_rows.py::TestSeriesMpmathOracle::"
            "test_series_within_summation_bound",), SERIES_ROWS),
    Mutant("src/needlets/legendre.py", 'order = np.argsort(-tops, kind="stable")',
           "order = np.arange(n)",
           ("tests/test_series_rows.py::TestRowsMatchOneRowCalls::"
            "test_per_row_points_with_padding",), SERIES_ROWS),
    Mutant("src/needlets/frames.py", "c = math.fmod((n - 1) * _GOLDEN_ANGLE",
           "c = math.fmod(n * _GOLDEN_ANGLE", (FULL_GRID,), MIRROR_PARITY),
    Mutant("src/needlets/frames.py", "cos_kept = (ls + ms) % 2 == 0",
           "cos_kept = (ls + ms) % 2 == 1", (FULL_GRID,), MIRROR_PARITY),
    Mutant("src/needlets/frames.py", "np.where(cos_kept, cos_col, sin_col), zonal[1::2]",
           "np.where(cos_kept, cos_col, sin_col), zonal[::2]", (FULL_GRID,), MIRROR_PARITY),
    Mutant("src/needlets/frames.py", "rows[:, -1] *= math.sqrt(0.5)", "rows[:, -1] *= 1.0",
           (FULL_GRID,), MIRROR_PARITY),
    Mutant("src/needlets/frames.py", "cross[:npair] -= minus[:npair]",
           "cross[:npair] += minus[:npair]", (FULL_GRID,), MIRROR_PARITY),
    Mutant("src/needlets/frames.py", "(g * np.sin(turn))[:npair]",
           "(-g * np.sin(turn))[:npair]", (FULL_GRID,), MIRROR_PARITY),
    Mutant("src/needlets/kernels.py", "ratio = hi / lo if lo > 0 else math.inf",
           "ratio = hi / lo if lo >= 0 else math.inf",
           ("tests/test_kernels.py::TestSpread",), ONE_OWNER),
    Mutant("src/needlets/kernels.py", "lo, hi = float(np.min(values)), float(np.max(values))",
           "lo, hi = float(min(values)), float(max(values))",
           ("tests/test_kernels.py::TestSpread",), ONE_OWNER),
    Mutant("src/needlets/spectra.py", "bad = np.flatnonzero(~(c > 0.0) | (c == math.inf))",
           "bad = np.flatnonzero((c <= 0.0) | (c == math.inf))",
           ("tests/test_spectra.py::TestPositiveSpectrum",), ONE_OWNER),
    Mutant("src/needlets/cli.py", 'if obj == math.inf and "ratio" in key:',
           "if obj == math.inf:", ("tests/test_cli.py::TestStrictJson",), ONE_OWNER),
    Mutant("src/needlets/legendre.py", "x = x[order[:j]] if x.ndim == 2 else x[None]",
           "x = x[:j] if x.ndim == 2 else x[None]",
           ("tests/test_series_rows.py::TestRowsMatchOneRowCalls::"
            "test_per_row_points_with_padding",), "Each value derived once"),
    Mutant("src/needlets/correlation.py", "covs, variance = values[:-1], float(values[-1])",
           "covs, variance = values[:-1], float(values[-1]) * (1.0 - 1e-9)",
           ("tests/test_correlation.py::TestCorrelationSeries::"
            "test_correlation_is_at_most_one_in_magnitude",), "Each value derived once"),
    # cos and sin writes swapped, then the sin rows written without their reversal
    Mutant("src/needlets/legendre.py",
           "np.multiply(ccol[1:l + 1], p_cur[1:l + 1], out=tmp[:l])\n"
           "            out[rows[l - 1::-1]] = np.multiply(scol[1:l + 1]",
           "np.multiply(scol[1:l + 1], p_cur[1:l + 1], out=tmp[:l])\n"
           "            out[rows[l - 1::-1]] = np.multiply(ccol[1:l + 1]",
           ("tests/test_legendre.py::TestColumnMap",), WRITER),
    Mutant("src/needlets/legendre.py", "out[rows[l - 1::-1]]", "out[rows[:l]]",
           ("tests/test_legendre.py::TestColumnMap",), WRITER),
    Mutant("src/needlets/frames.py", "    if need > _GRAM_BYTE_CAP:\n", "    if False:\n",
           ("tests/test_frames.py::TestGramMemory",), WRITER),
    Mutant("src/needlets/frames.py",
           "4 * half * half + (n + 5 * (L + 1) + 12) * _GRAM_BLOCK)", "4 * half * half)",
           ("tests/test_frames.py::TestGramMemory",), WRITER),
    Mutant("src/needlets/kernels.py", "dropped = np.append(np.cumsum(g[:0:-1])[::-1], 0.0)",
           "dropped = total - np.cumsum(g)", ("tests/test_kernels.py::TestExactTailRule",),
           "One exact truncation rule"),
    Mutant("src/needlets/fields.py", "stop = min(start + chunk, hi)",
           "stop = min(start + chunk, hi - 1)", (MC_BITS,), WORKER_STREAM),
    # a worker that draws only its first chunk and reuses those rows afterwards
    Mutant("src/needlets/fields.py",
           "            _counter_normals(seed, range(start, stop), rows)\n",
           "            start == lo and _counter_normals(seed, range(start, stop), rows)\n",
           (MC_BITS,), WORKER_STREAM),
    Mutant("tests/test_limits.py",
           'mexican_hat(r, US) if f0 == "exponential" else hankel_limit(r, 4)',
           "mexican_hat(r, US)",
           ("tests/test_limits.py::TestKernelTendsToTheMexicanHat::"
            "test_error_within_twice_the_measured_t_squared_constant",),
           "One per-scale entry for Cov and Cor"),
    Mutant("src/needlets/legendre.py",
           "return sums[at, cols] + np.add.accumulate(terms)[at, cols]",
           "return sums[at, cols]", (REFERENCE_LOOP,), SERIES_AT_ONE),
    # Fast2Sum error terms in place of TwoSum's
    Mutant("src/needlets/legendre.py", "terms[1:] = (a - (s - bb)) + (terms[1:] - bb)",
           "terms[1:] = terms[1:] - bb", (REFERENCE_LOOP,), SERIES_AT_ONE),
    Mutant("src/needlets/frames.py", "g = math.sqrt(8.0 * math.pi / n) * weights",
           "g = weights", (CUBATURE,), EXACT_LIMIT),
    Mutant("src/needlets/frames.py", "for j in js}", "for j in list(js)[1:]}", (CUBATURE,),
           EXACT_LIMIT),
    # g_L of the test without its coarsest scale, then without its finest
    Mutant("tests/test_frames.py", "g = sum(f * f for f in weights.values())",
           "g = sum(f * f for j, f in weights.items() if j != j_range[0])", (CUBATURE,),
           CALDERON),
    Mutant("tests/test_frames.py", "g = sum(f * f for f in weights.values())",
           "g = sum(f * f for j, f in weights.items() if j != 0)", (CUBATURE,), CALDERON),
    Mutant("src/needlets/differences.py", "prev, here, nxt = a[:top + 1]",
           "nxt, here, prev = a[:top + 1]", (REFERENCE_STEP,), COS_MINUS_ONE),
    Mutant("src/needlets/differences.py", "a = np.zeros(last + 3)", "a = np.zeros(last + 2)",
           (REFERENCE_STEP,), COS_MINUS_ONE),
    # both Lambert W ends from branch 0
    Mutant("src/needlets/kernels.py", "for k in (0, -1)", "for k in (0, 0)", (CALDERON_SUM,),
           CALDERON),
    Mutant("src/needlets/kernels.py", "log_a2 = 2.0 * math.log(a)", "log_a2 = math.log(a)",
           ("tests/test_kernels.py::TestCalderon::test_walk_is_sized_from_r_and_a",), CALDERON),
    # the j-range without its extra scale on each side
    Mutant("src/needlets/kernels.py",
           "math.ceil(math.log(s_lo) / log_a2) - 2\n"
           "    j_hi = math.floor(math.log(s_hi) / log_a2) + 1",
           "math.ceil(math.log(s_lo) / log_a2) - 1\n"
           "    j_hi = math.floor(math.log(s_hi) / log_a2)",
           ("tests/test_kernels.py::TestCalderon::test_matches_a_40_digit_sum_at_large_r",),
           CALDERON),
    Mutant("src/needlets/kernels.py", '"gaussian": 2', '"gaussian": 1',
           ("tests/test_kernels.py::TestProfile::test_matches_a_60_digit_oracle",),
           EXIT_CONTRACT),
    Mutant("src/needlets/spectra.py", "lambda v: 2.0 + np.sin(v)", "lambda v: 2.0 + 0.0 * v",
           ("tests/test_spectra.py::TestEvaluation::test_rational_log_matches_a_60_digit_oracle",),
           EXIT_CONTRACT),
    Mutant("src/needlets/frames.py", "(2.0 * i + 1.0)", "(2.0 * i)", (CUBATURE,),
           "Streamed frame Gram: 2048-point harmonic blocks"),
    Mutant("tests/test_spectra.py", '"two_plus_sin", s), l + 0.5))', '"one", s), l + 0.5))',
           ("tests/test_spectra.py::TestDerivativeDecay::"
            "test_first_difference_matches_symbolic_derivative",),
           "Test extras are imported, never skipped"),
    Mutant("src/needlets/legendre.py", "sqrt2 = math.sqrt(2.0)", "sqrt2 = 1.0",
           ("tests/test_legendre.py::TestRealSphHarm::test_orthonormality_by_quadrature",),
           PUBLIC_NAMES),
    # the two NaN guards as they were before
    Mutant("src/needlets/legendre.py", "if not abs(xi) < 1.0:", "if abs(xi) >= 1.0:",
           ("tests/test_legendre.py::TestGeneratingFunction::test_nan_xi_rejected",),
           PUBLIC_NAMES),
    Mutant("src/needlets/spectra.py",
           "if not all(math.isfinite(v) for v in (beta, *p_coeffs, *q_coeffs)):",
           "if any(abs(v) == math.inf for v in (beta, *p_coeffs, *q_coeffs)):",
           ("tests/test_spectra.py::TestEnvelope::test_constructor_rejects_nan_parameters",),
           PUBLIC_NAMES),
)


def run(mutant: Mutant, scratch: Path) -> str | None:
    """Why `mutant` fails its row, or None when its tests kill it."""
    tree = Path(tempfile.mkdtemp(dir=scratch))
    shutil.copytree(ROOT, tree, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns(".git", "__pycache__"))
    target = tree / mutant.path
    text = target.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"old text occurs {count} times"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    # subprocesses of the tests import the copy, not an installed package
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                         os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *mutant.tests], cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived"
    if proc.returncode != 1:  # not a test failure: collection error, unknown node id, ...
        return f"pytest exit {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    return None


def main() -> int:
    failures = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(2) as pool:
        problems = pool.map(lambda mutant: run(mutant, Path(scratch)), MUTANTS)
        for i, (mutant, problem) in enumerate(zip(MUTANTS, problems)):
            label = f"{i:2d} {mutant.path}: {mutant.old.strip().splitlines()[0][:60]}"
            print(f"{'killed' if problem is None else 'FAILED'}  {label}", flush=True)
            if problem is not None:
                failures += 1
                print(f"    {problem}  ({mutant.entry})", flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
