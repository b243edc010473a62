"""Benchmark of the `needlets` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every command runs in a fresh Python
process on the checkout's `src/`, and its output is checked against the
reference outputs in `perfbench/reference/` and against invariants.

--trace 0 repeats the workload's commands for --seconds seconds and reports
the end-to-end metrics of BENCHMARK.json.  --trace 1 runs every workload's
commands once untraced and once traced, so that every layer is measured
where it does its work, then the frame commands once more, traced, with
OPENBLAS_NUM_THREADS=1 as the single-threaded baseline; it reports the
per-layer metrics of BENCHMARK.json.  Either way a human-readable report
comes first and the last line of stdout is one JSON object.  Spans and
provenance are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from checks import check, parse
from workloads import SUBCOMMANDS, WORKLOADS, Command

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# Median time of child.calibrate() on an idle core of the reference machine
# (2-vCPU VM, Python 3.11, numpy 2.4).  A time t measured in a process whose
# calibration took c is reported as t * CAL_REF_S / c, "seconds at reference
# speed": the machine's speed drifts by up to 2x over minutes, and this
# scaling removes most of that drift from the comparison of two runs.
CAL_REF_S = 0.018
# Median set-up time of `child.py --imports` (start Python, import the
# dependencies of needlets) on the reference machine.  Set-up time does not
# follow the calibration loop; it follows this, and setup_s is scaled by it the
# same way, so it moves when the package's own import work changes.
SETUP_REF_S = 0.40
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}
FRAME_LAYERS = ("legendre.sph_harm_matrix", "frames.estimate_frame_bounds",
                "frames.build_grid")


@dataclass
class Execution:
    command: Command
    stdout: str
    wall_s: float
    problems: list[str]
    report: dict = field(default_factory=dict)
    setup_s: float = math.nan

    @property
    def main_s(self) -> float:
        return self.report.get("main_s", math.nan)

    @property
    def speed(self) -> float:
        return CAL_REF_S / self.report["cal_s"]

    @property
    def main_ref_s(self) -> float:
        return self.main_s * self.speed

    @property
    def wall_ref_s(self) -> float:
        return (self.wall_s - self.report["cal_elapsed_s"]) * self.speed


class Runner:
    """Spawns command processes, times them and checks their output."""

    def __init__(self, seed: int, scratch: Path, deadline: float):
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.executions: list[Execution] = []
        self._count = 0

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("time limit reached")
        return left

    def provenance(self) -> dict:
        """Versions and settings of this run; the import also warms the caches."""
        out = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "--provenance",
                              str(SRC)], capture_output=True, text=True, check=True,
                             cwd=ROOT, timeout=self._timeout())
        return json.loads(out.stdout)

    def dependency_setup(self) -> float:
        """Spawn until the dependencies of `needlets`, not the package, are imported."""
        t_spawn = time.monotonic()
        out = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "--imports"],
                             capture_output=True, text=True, check=True, cwd=ROOT,
                             timeout=self._timeout())
        return float(out.stdout) - t_spawn

    def run(self, command: Command, trace: bool = False, env: dict | None = None) -> Execution:
        self._count += 1
        result = self.scratch / f"{self._count}.json"
        argv = [sys.executable, str(BENCH_DIR / "child.py"), str(result),
                "1" if trace else "0", str(SRC), "--", *command.args(self.seed)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=None if env is None else {**os.environ, **env})
        try:
            stdout, stderr = proc.communicate(timeout=self._timeout())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise TimeoutError(f"{command.label} did not finish within the time limit")
        wall_s = time.monotonic() - t_spawn
        problems = check(command, self.seed, proc.returncode, stdout)
        ex = Execution(command, stdout, wall_s, problems)
        if result.exists():
            ex.report = json.loads(result.read_text())
            ex.setup_s = ex.report["t_imported"] - t_spawn
            result.unlink()
        elif not problems:
            ex.problems = ["no report from the command process"]
        if ex.problems:
            print(f"FAILED {command.label}: {'; '.join(ex.problems)} {stderr.strip()[-500:]}")
        self.executions.append(ex)
        return ex


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    v = sorted(values)
    text = f"median {statistics.median(v):.4f} n={len(v)}"
    if len(v) > 10:
        text += f" p{100 * (len(v) - 10) // len(v)} {v[len(v) - 11]:.4f}"
    return text


def median_of(executions: list[Execution], attr: str) -> float:
    return statistics.median(getattr(e, attr) for e in executions)


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, commands: tuple[Command, ...], seconds: float) -> dict:
    samples: dict[str, list[Execution]] = {c.label: [] for c in commands}
    dependency_setups = []
    end = time.monotonic() + seconds
    for command in itertools.cycle(commands):
        runs = samples[command.label]
        # after one full pass, start no command that would end past the run
        if all(samples.values()) and time.monotonic() + median_of(runs, "wall_s") > end:
            break
        if command is commands[0]:
            dependency_setups.append(runner.dependency_setup())
        runs.append(runner.run(command))

    # a wrong output still counts as failed, but its process ran and was timed
    by_label = {label: [e for e in runs if e.report] for label, runs in samples.items()}
    if not all(by_label.values()):
        raise RuntimeError("a command never ran to completion; nothing to time")
    timed = [e for runs in by_label.values() for e in runs]
    print("command       wall_s (raw)                 main_s (raw)"
          "                 wall_ref_s                   main_ref_s")
    for label, runs in by_label.items():
        print(f"{label:<13} " + " ".join(f"{summary([getattr(e, a) for e in runs]):<28}"
                                        for a in ("wall_s", "main_s", "wall_ref_s", "main_ref_s")))
    setups = [e.setup_s for e in timed]
    setup_speed = SETUP_REF_S / statistics.median(dependency_setups)
    print(f"setup_s (spawn to `import needlets` done): raw {summary(setups)}; "
          f"dependencies alone: {summary(dependency_setups)}")
    print(f"wall_s (spawn to exit, sum of command medians): "
          f"{sum(median_of(r, 'wall_s') for r in by_label.values()):.4f} s")
    for sub in SUBCOMMANDS:
        runs = [by_label[c.label] for c in commands if c.subcommand == sub]
        if runs:
            print(f"{sub}_s (time in needlets.cli.main, sum of command medians): "
                  f"{sum(median_of(r, 'main_s') for r in runs):.4f} s, at reference "
                  f"speed {sum(median_of(r, 'main_ref_s') for r in runs):.4f} s")
    return {
        "setup_s": statistics.median(setups) * setup_speed,
        "wall_ref_s": sum(median_of(r, "wall_ref_s") for r in by_label.values()),
        "main_ref_s": sum(median_of(r, "main_ref_s") for r in by_label.values()),
        "peak_rss_mb": max(e.report["maxrss_kb"] for e in timed) / 1024.0,
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def add_layers(total: dict, layers: dict) -> None:
    for name, rec in layers.items():
        acc = total.setdefault(name, {})
        for key, value in rec.items():
            acc[key] = acc.get(key, 0) + value


def layer_metrics(layers: dict, prefix: str = "") -> dict:
    out = {}
    for name, rec in layers.items():
        for key, value in rec.items():
            out[f"{prefix}{name}.{key}"] = value
    lmax = layers["kernels.choose_lmax"]
    out[f"{prefix}kernels.choose_lmax.distinct_ratio"] = \
        lmax["distinct"] / lmax["calls"] if lmax["calls"] else 0.0
    mc = layers["fields.monte_carlo_correlation"]
    out[f"{prefix}fields.monte_carlo_correlation.unique_draw_ratio"] = \
        mc["unique_draws"] / mc["draws"] if mc["draws"] else 0.0
    return out


def max_rel_diff(text: str, reference: str, columns: tuple[str, ...]) -> float:
    got, want = parse(text)[0], parse(reference)[0]
    diff = 0.0
    for name in columns:
        scale = max(abs(v) for v in want[name])
        diff = max(diff, max(abs(a - b) for a, b in zip(got[name], want[name])) / scale)
    return diff


def per_layer(runner: Runner) -> dict:
    layers: dict = {}
    metrics: dict = defaultdict(float)
    traced_frame: list[Execution] = []
    for commands in WORKLOADS.values():
        for command in commands:
            plain = runner.run(command)
            traced = runner.run(command, trace=True)
            if not (plain.report and traced.report):
                continue
            print(f"{command.label:<13} main_ref_s untraced {plain.main_ref_s:.4f} "
                  f"traced {traced.main_ref_s:.4f}")
            add_layers(layers, traced.report["layers"])
            sub = command.subcommand
            metrics[f"{sub}_ref_s"] += plain.main_ref_s
            metrics[f"trace_overhead.{sub}_ref_s"] += traced.main_ref_s - plain.main_ref_s
            if sub == "frame":
                traced_frame.append(traced)
    metrics.update(layer_metrics(layers))
    print("work counts (calls, terms, cells, elements, draws, gram_rows, gram_flops) are "
          "computed from arguments and return values, not measured")

    single: dict = {}
    for default in traced_frame:
        ex = runner.run(default.command, trace=True, env=SINGLE_THREAD_ENV)
        if not ex.report:
            continue
        # counts are computed from arguments, so they must repeat exactly
        for name in FRAME_LAYERS:
            mine, theirs = ex.report["layers"][name], default.report["layers"][name]
            for key in mine.keys() - {"self_s", "total_s"}:
                if mine[key] != theirs[key]:
                    ex.problems.append(f"{name}.{key} differs between two traced runs")
        add_layers(single, ex.report["layers"])
        metrics["frame_1thread.frame_ref_s"] += ex.main_ref_s
        metrics["frame_1thread.output_rel_diff"] = max(
            metrics["frame_1thread.output_rel_diff"],
            max_rel_diff(ex.stdout, default.stdout, ("A_hat", "B_hat")))
    if single:
        metrics.update(layer_metrics(single, prefix="frame_1thread."))
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def metric_specs() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def write_spans(path: Path, workload: str, seed: int, trace: bool, provenance: dict,
                executions: list[Execution]) -> None:
    doc = {
        "workload": workload, "seed": seed, "trace": trace, "provenance": provenance,
        "commands": [{"label": e.command.label, "argv": e.command.args(seed),
                      "traced": "spans" in e.report, "wall_s": e.wall_s,
                      "setup_s": e.setup_s, "main_s": e.main_s,
                      "cal_s": e.report.get("cal_s"), "problems": e.problems,
                      "spans": e.report.get("spans", [])} for e in executions],
    }
    path.write_text(json.dumps(doc))


def code_identity() -> str:
    """The git commit when run in a git checkout, else a digest of src/."""
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.exists():
                return ref_file.read_text().strip()
        return ref
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "not a git checkout; sha256 of src/*.py " + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "needlets" / "cli.py").is_file():
        print(f"error: no needlets sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("error: the seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2

    end_specs, layer_specs = metric_specs()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    runner = Runner(args.seed, scratch, time.monotonic() + TIME_LIMIT_S)
    try:
        provenance = runner.provenance()
        provenance["code"] = code_identity()
        print("provenance " + json.dumps(provenance))
        if args.trace:
            values, specs = per_layer(runner), layer_specs
        else:
            values = end_to_end(runner, WORKLOADS[args.workload], args.seconds)
            specs = end_specs
    except (TimeoutError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_spans(spans_path, args.workload, args.seed, bool(args.trace), provenance,
                runner.executions)
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        print(f"error: not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted = len(runner.executions)
    failed = sum(1 for e in runner.executions if e.problems)
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']} {values[spec['name']]} {spec['unit']}")
    print(f"spans and provenance: {spans_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
