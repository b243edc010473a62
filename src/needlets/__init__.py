"""Needlet analysis on the 2-sphere.

Spectral kernels built from a window f(s) = s^r f0(s) applied to the
Laplacian spectrum, the analytic correlation of the induced random
coefficients and its small-scale decay checks, Monte-Carlo simulation of
isotropic Gaussian fields, and discrete frame-bound estimation.
"""

from .correlation import (
    CorrelationQuery,
    DecayReport,
    VarianceScalingReport,
    ZonalDecayBound,
    analytic_correlation,
    analytic_covariance,
    check_decay_hypothesis,
    correlation_decay_check,
    correlation_series,
    covariance_coefficients,
    covariance_sequence,
    covariance_series,
    decay_exponents,
    fit_correlation_decay,
    least_integer_above,
    variance_scaling_check,
    zonal_decay_bound,
    zonal_decay_bounds,
)
from .defaults import DEFAULTS, degree_cap
from .differences import (
    CoeffSequence,
    multiply_cos_minus_one,
    multiply_cos_minus_one_power,
)
from .errors import DecayHypothesisError, DegreeCapExceeded, NeedletError, NumericFailure
from .fields import (
    AlmSet,
    MonteCarloCorrelation,
    addition_theorem_check,
    monte_carlo_correlation,
    monte_carlo_correlations,
    needlet_coefficient,
    points_cos_angle,
    sample_alm,
)
from .frames import (
    FrameBoundsEstimate,
    SphereGrid,
    build_grid,
    estimate_frame_bounds,
    frame_coefficients,
)
from .kernels import (
    KernelSpec,
    LocalizationReport,
    NeedletProfile,
    calderon_bounds,
    calderon_g,
    choose_lmax,
    kernel_eval,
    localization_check,
    make_kernel,
    profile_eval,
    spectral_weights,
)
from .legendre import (
    SphHarmPoint,
    generating_function_check,
    legendre_series,
    legendre_series_rows,
    real_sph_harm,
    recursion_residual,
    sph_harm_flat_index,
    sph_harm_flat_repeat,
    sph_harm_matrix,
    zonal_eval,
    zonal_series,
    zonal_series_rows,
)
from .spectra import (
    EnvelopeEstimate,
    PowerSpectrum,
    load_spectrum_csv,
    load_spectrum_json,
    power_spectrum,
    rational_log_spectrum,
    spectrum_eval,
    tabulated_spectrum,
    verify_derivative_decay,
    verify_envelope,
)

__version__ = "0.1.0"
