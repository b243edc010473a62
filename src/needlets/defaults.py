"""Shared numeric defaults.

Every JSON report emitted by the CLI echoes this table, with the degree cap
in effect, so that a run can be reproduced from its output alone.  The degree
cap may be overridden through the NEEDLETS_DEGREE_CAP environment variable.
"""

import os

__all__ = ["DEFAULTS", "degree_cap"]

DEGREE_CAP_ENV = "NEEDLETS_DEGREE_CAP"

DEFAULTS = {
    # relative tail mass allowed when truncating a zonal series
    "eps_tail": 1e-12,
    # smallest colatitude used on evaluation grids (kernels diverge only at 0)
    "theta_min": 1e-3,
    # hard cap on spherical-harmonic degree (see NEEDLETS_DEGREE_CAP)
    "degree_cap": 4096,
    # decay fits use this many of the smallest scales in a grid
    "fit_points": 4,
    # slack allowed between a fitted log-log slope and the predicted exponent
    "slope_tol": 0.5,
    # max/min ratio under which a scale sweep counts as stable
    "stability_ratio": 10.0,
    # envelope estimates with k1/k0 above this flag a mis-specified spectrum
    "envelope_ratio_cap": 100.0,
    # allowed growth of difference-decay sups between window segments
    "difference_growth_tol": 8.0,
    # crossover colatitude between direct and transformed series evaluation
    "series_bound_theta_split": 0.1,
    # lambda samples per multiplicative period in Calderon sums
    "calderon_grid_points": 512,
    # dilation terms below this fraction of the peak are dropped
    "calderon_term_floor": 1e-16,
    # base points-per-area constant for sphere grids (n_j = ceil(oversample * C0 * a^(-2j)))
    "grid_area_constant": 4.0,
}


def degree_cap() -> int:
    """Maximum spherical-harmonic degree allowed anywhere in the package."""
    raw = os.environ.get(DEGREE_CAP_ENV)
    if raw is None:
        return DEFAULTS["degree_cap"]
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{DEGREE_CAP_ENV}={raw!r} must be an integer >= 1")
    return cap
