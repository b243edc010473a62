"""Command-line interface: every verification and computation as a
reproducible, scriptable run.

Every CSV table and JSON report goes to stdout; redirect it to keep it.
`frame --export-grid FILE` is the one file the CLI writes.  JSON reports
embed the defaults table so a run is reproducible from its output.
Exit codes: 0 success, 1 verification FAIL, 2 config error, 3 numeric
failure, 4 hypothesis violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

from .correlation import (
    _bound_overflow,
    _power,
    check_decay_hypothesis,
    correlation_series,
    covariance_sequence,
    decay_exponents,
    fit_correlation_decay,
    variance_scaling_check,
    zonal_decay_bounds,
)
from .defaults import DEFAULTS, degree_cap
from .errors import DecayHypothesisError, DegreeCapExceeded, NumericFailure
from .fields import monte_carlo_correlations, points_cos_angle
from .frames import _POINT_CAP, build_grid, estimate_frame_bounds
from .kernels import (
    NeedletProfile,
    check_scale_grid,
    kernel_eval,
    localization_check,
    make_kernel,
    spread,
)
from .legendre import _check_x
from .spectra import (
    load_spectrum_csv,
    load_spectrum_json,
    power_spectrum,
    verify_derivative_decay,
    verify_envelope,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_HYPOTHESIS = 4


def _floats(text: str, what: str) -> list[float]:
    """A comma list of numbers; an empty one is a config error, "empty <what>"."""
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad numeric list {text!r}") from exc
    if not values:
        raise ValueError(f"empty {what}")
    return values


def _grid_spec(text: str) -> list[float]:
    """Either 'start:stop:count' (inclusive linspace, at most the grid point cap)
    or a comma list, all finite."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec {text!r} must be start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2 or stop <= start:
            raise ValueError(f"bad grid spec {text!r}")
        if count > _POINT_CAP:
            raise ValueError(f"grid spec {text!r} has more than {_POINT_CAP} points")
        step = (stop - start) / (count - 1)
        values = [start + step * i for i in range(count)]
    else:
        values = _floats(text, "theta grid")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid spec {text!r} has a non-finite value")
    return values


def _scales(text: str) -> tuple[float, ...]:
    """A comma list of scales, each one checked; an empty list is a config error."""
    return check_scale_grid(_floats(text, "scale grid"))


def _int_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"range {text!r} must be min:max with integer ends") from None
    return lo, hi


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _table(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_safe(obj, key: str = ""):
    """`obj` with each +inf ratio as None; any other non-finite float is a
    NumericFailure, because JSON has no such number."""
    if isinstance(obj, dict):
        return {k: _json_safe(v, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v, key) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        if obj == math.inf and "ratio" in key:
            return None  # a vanished minimum; its check has already failed
        raise NumericFailure(f"report value {key!r} is {obj!r}")
    return obj


def _json_doc(obj) -> str:
    return json.dumps(_json_safe(obj), indent=2, allow_nan=False) + "\n"


def _defaults_in_effect() -> dict:
    """The defaults table as this run used it: the degree cap after any override."""
    return {**DEFAULTS, "degree_cap": degree_cap()}


def _resolve_spectrum(args):
    if getattr(args, "spectrum", None):
        if args.spectrum.lower().endswith(".csv"):
            if args.alpha is None:
                raise ValueError("tabulated CSV spectra need --alpha for the declared decay")
            return load_spectrum_csv(args.spectrum, args.alpha)
        return load_spectrum_json(args.spectrum)
    if args.alpha is None:
        raise ValueError("give either --alpha (power law) or --spectrum FILE")
    return power_spectrum(args.alpha)


def _profile(args) -> NeedletProfile:
    return NeedletProfile(args.r, args.f0)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    profile = _profile(args)
    theta_min = DEFAULTS["theta_min"]
    thetas = [max(th, theta_min) for th in _grid_spec(args.theta)]
    xs = [math.cos(th) for th in thetas]
    rows = []
    for t in _scales(args.t):
        values = kernel_eval(make_kernel(profile, t, args.eps_tail), xs)
        rows.extend((t, th, float(v)) for th, v in zip(thetas, values))
    sys.stdout.write(_table(["t", "theta", "value"], rows))
    return EXIT_OK


def cmd_correlation(args) -> int:
    profile = _profile(args)
    spectrum = _resolve_spectrum(args)
    ts = _scales(args.t)
    if args.d is not None:
        cos_gammas = [math.cos(d) for d in _floats(args.d, "distance list")]
    else:
        cos_gammas = _floats(args.cos_gamma, "cos_gamma list")

    exponent, n_exp = decay_exponents(profile, spectrum)
    if args.fit:
        check_decay_hypothesis(profile, spectrum)

    # one checked inner product and one distance per cos gamma serve every scale
    xs = _check_x(cos_gammas, "cos_gamma")
    ds = [math.acos(x) for x in xs.tolist()]
    rows, cors_by_t = [], []
    for t in ts:
        covs, cors = correlation_series(profile, spectrum, t, xs, args.eps_tail)
        cors_by_t.append(cors)
        for cg, d, cov, cor in zip(cos_gammas, ds, covs.tolist(), cors.tolist()):
            bound = abs(cor) * _power(d, 2 * n_exp) * _power(t, -exponent)
            if not math.isfinite(bound):
                raise _bound_overflow(t, d, profile.r, n_exp, exponent)
            rows.append((t, cg, cov, cor, exponent, n_exp, bound))
    out = _table(["t", "cos_gamma", "covariance", "correlation",
                  "predicted_exponent", "N", "bound_constant"], rows)

    if args.fit:
        reports = []
        for k, cg in enumerate(cos_gammas):
            if xs[k] == 1.0:  # checked: a cos gamma just past 1 reads 1, as in the table
                continue
            rep = fit_correlation_decay(profile, spectrum, cg, ts, [c[k] for c in cors_by_t])
            reports.append({"cos_gamma": cg, **asdict(rep)})
        out += "\n" + _json_doc({"defaults": _defaults_in_effect(), "reports": reports})
    sys.stdout.write(out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    profile = _profile(args)
    spectrum = _resolve_spectrum(args)
    ts = _scales(args.t)
    point_x = (math.pi / 2.0, 0.0)
    points_y = [(math.pi / 2.0, d) for d in _floats(args.d, "distance list")]
    # every point is checked before anything is drawn; cos gamma depends on d alone
    cos_gammas = [points_cos_angle(point_x, point_y) for point_y in points_y]
    # one analytic series per distinct scale, over all distances; a series
    # past the double range fails here, before any draw
    truths = {t: correlation_series(profile, spectrum, t, cos_gammas, args.eps_tail)[1].tolist()
              for t in dict.fromkeys(ts)}
    # one draw of each replica serves the whole t x d grid
    estimates = monte_carlo_correlations(
        profile, spectrum, [(t, point_x, point_y) for t in ts for point_y in points_y],
        args.replicas, args.seed, args.eps_tail)
    grid = [(t, d, true) for t in ts for (_, d), true in zip(points_y, truths[t])]
    rows = []
    worst = 0.0
    for (t, d, true), (est, se) in zip(grid, estimates):
        z = 0.0 if se == 0.0 and est == true else (est - true) / se
        if math.isnan(z):  # also when the estimate or its stderr is NaN
            raise NumericFailure(f"Monte-Carlo estimate at t={t}, d={d} is not a number "
                                 f"(estimate {est!r}, stderr {se!r}, z {z!r})")
        worst = max(worst, abs(z))
        rows.append((t, d, args.replicas, args.seed, est, se, true, z))
    sys.stdout.write(_table(["t", "d", "replicas", "seed", "estimate", "stderr",
                             "analytic", "z"], rows))
    if worst > 5.0:
        print(f"FAIL: |z| = {worst:.2f} > 5; estimator and analytic value disagree "
              "beyond statistics", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    profile = _profile(args)
    spectrum = _resolve_spectrum(args)
    t_grid = _scales(args.t_grid)
    var_grid = _scales(args.variance_t_grid)
    window = _int_pair(args.window)
    check_decay_hypothesis(profile, spectrum)

    mu = 4.0 * profile.r - spectrum.alpha
    bounds = zonal_decay_bounds(
        [covariance_sequence(profile, spectrum, t, args.eps_tail) for t in t_grid], mu)
    n_exp = bounds[-1].n_exponent
    sups = [b.sup_value for b in bounds]
    _, _, ratio, stable = spread(sups, DEFAULTS["stability_ratio"])
    series_bound = {
        "mu": mu,
        "N": n_exp,
        "t_grid": t_grid,
        "sups": sups,
        "ratio": ratio,
        "passed": stable,
    }

    variance = variance_scaling_check(profile, spectrum, var_grid, args.eps_tail)
    localization = localization_check(profile, t_grid, args.loc_exponent, args.eps_tail)
    envelope = verify_envelope(spectrum, args.envelope_lmax)
    derivative = verify_derivative_decay(spectrum, args.k_max, window)

    checks = {
        "series_decay_bound": series_bound,
        "variance_scaling": asdict(variance),
        "localization": asdict(localization),
        "envelope": asdict(envelope),
        "derivative_decay": asdict(derivative),
    }
    passed = all(c["passed"] for c in checks.values())
    report = {
        "defaults": _defaults_in_effect(),
        "config": {
            "r": profile.r,
            "f0": profile.f0,
            "spectrum_family": spectrum.family,
            "alpha": spectrum.alpha,
            "t_grid": t_grid,
            "variance_t_grid": var_grid,
            "loc_exponent": args.loc_exponent,
            "envelope_lmax": args.envelope_lmax,
            "window": list(window),
            "k_max": args.k_max,
        },
        "checks": checks,
        "passed": passed,
    }
    sys.stdout.write(_json_doc(report))
    return EXIT_OK if passed else EXIT_FAIL


def cmd_frame(args) -> int:
    profile = _profile(args)
    j_range = _int_pair(args.j_range)
    oversamples = _floats(args.oversample, "oversample list")
    rows = []
    any_ill = False
    for ov in oversamples:
        est = estimate_frame_bounds(profile, args.a, j_range, args.L, oversample=ov)
        any_ill = any_ill or est.ill_conditioned
        rows.append((args.a, ov, args.L, est.a_hat, est.b_hat, est.ratio,
                     est.ill_conditioned))
    out = _table(["a", "oversample", "L", "A_hat", "B_hat", "ratio", "ill_conditioned"], rows)
    if args.export_grid:
        grid_rows = []
        for j in range(j_range[0], j_range[1] + 1):
            grid = build_grid(args.a, j, oversamples[0])
            for k in range(grid.n):
                grid_rows.append((j, k, grid.theta[k], grid.phi[k], grid.weights[k]))
        grid_table = _table(["j", "k", "theta", "phi", "weight"], grid_rows)
        if args.export_grid == "-":
            out += grid_table
        else:
            # before stdout gets a byte, so a path that cannot be written leaves it empty
            with open(args.export_grid, "w", newline="", encoding="utf-8") as fh:
                fh.write(grid_table)
    sys.stdout.write(out)
    if any_ill:
        print("FAIL: analysis matrix is ill-conditioned on the requested subspace",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_profile_args(p: argparse.ArgumentParser, eps_tail: bool = True) -> None:
    p.add_argument("--r", type=int, required=True, help="profile exponent r >= 1")
    p.add_argument("--f0", default="exponential",
                   help="profile family (exponential|gaussian)")
    if eps_tail:
        p.add_argument("--eps-tail", type=float, default=None,
                       help=f"relative tail for truncation, in (0, 1) (default "
                            f"{DEFAULTS['eps_tail']})")


def _add_spectrum_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None,
                   help="power-law decay exponent (alpha > 2)")
    p.add_argument("--spectrum", default=None,
                   help="spectrum file: .json definition or .csv table (needs --alpha)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="needlets",
        description="Needlet kernels, coefficient correlation decay, field "
                    "simulation, and frame bounds on the 2-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="tabulate K_t(cos theta) on a theta grid")
    _add_profile_args(p)
    p.add_argument("--t", required=True, help="comma list of scales")
    p.add_argument("--theta", required=True,
                   help="theta grid: start:stop:count or comma list "
                        "(values below theta_min are clamped)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("correlation",
                       help="analytic covariance/correlation and decay fit")
    _add_profile_args(p)
    _add_spectrum_args(p)
    p.add_argument("--t", required=True, help="comma list of scales")
    geo = p.add_mutually_exclusive_group(required=True)
    geo.add_argument("--cos-gamma", default=None, help="comma list of inner products")
    geo.add_argument("--d", default=None, help="comma list of geodesic distances")
    p.add_argument("--fit", action="store_true",
                   help="append the decay report as JSON (needs 4r + 2 > alpha)")
    p.set_defaults(func=cmd_correlation)

    p = sub.add_parser("simulate",
                       help="Monte-Carlo correlation estimates against the analytic value")
    _add_profile_args(p)
    _add_spectrum_args(p)
    p.add_argument("--t", required=True, help="comma list of scales")
    p.add_argument("--d", required=True, help="comma list of geodesic distances")
    p.add_argument("--replicas", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify",
                       help="run the full verification suite, JSON report")
    _add_profile_args(p)
    _add_spectrum_args(p)
    p.add_argument("--t-grid", default="0.4,0.2,0.1,0.05",
                   help="scales for the series-bound and localization checks")
    p.add_argument("--variance-t-grid", default="0.2,0.1,0.05,0.025",
                   help="scales for the variance-floor check")
    p.add_argument("--loc-exponent", type=int, default=3,
                   help="spatial decay exponent probed by the localization check")
    p.add_argument("--envelope-lmax", type=int, default=2000)
    p.add_argument("--window", default="10:2000",
                   help="degree window for the derivative-decay check")
    p.add_argument("--k-max", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("frame", help="frame-bound estimates over an oversample sweep")
    _add_profile_args(p, eps_tail=False)
    p.add_argument("--a", type=float, default=2.0, help="dilation a > 1")
    p.add_argument("--L", type=int, default=16, help="band limit")
    p.add_argument("--oversample", default="1,2,4", help="comma list of oversample factors")
    p.add_argument("--j-range", default="-6:0", help="scale index range min:max")
    p.add_argument("--export-grid", default=None,
                   help="write the point sets (first oversample) as CSV here")
    p.set_defaults(func=cmd_frame)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except DecayHypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (DegreeCapExceeded, NumericFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
