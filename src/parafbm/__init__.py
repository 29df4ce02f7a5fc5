"""parafbm: a numerical laboratory for fractional Brownian motion with drift.

Exact simulation of fBm and the mixed process B^H + B^a', self-similar time
sets with known dimension, the anisotropic box geometry and its closed-form
dimension bounds, empirical box-counting/energy/kernel estimators, occupation
measures with interior detection, and exact Gaussian conditional-variance
identities, tied together by a configuration-driven experiment runner.
"""

from .errors import (
    AlphaExceedsH,
    BoxIndexOverflow,
    ConfigError,
    CovarianceNotPSD,
    DegenerateRange,
    GammaAtBoundary,
    GenerationTooLarge,
    GridMismatch,
    HOrderViolation,
    InfeasibleParameters,
    InvalidRatio,
    NumericalError,
    ParafbmError,
    SingularConditioning,
)
from .fbm import (
    SamplePath,
    TimeGrid,
    fbm_covariance,
    generate_fbm_path,
    generate_mixed_path,
    path_from_json,
    path_to_csv,
    path_to_json,
    validate_hurst,
)
from .fractals import (
    FractalSet,
    WeightedTimeSet,
    cantor_with_dimension,
    full_interval,
    generalized_cantor,
    middle_thirds_cantor,
    sample_natural_measure,
)
from .geometry import (
    comparison_bounds,
    holder_graph_bounds,
    metric_dim_from_psi_dim,
    psi_dim_from_metric_dim,
    rho_h,
    theoretical_graph_dimension,
)
from .estimators import (
    BoxCountCurve,
    DimensionEstimate,
    GraphCloud,
    box_count_curve,
    box_count_curves,
    dyadic_deltas,
    energy_integral_mc,
    estimate_parabolic_dimension,
    kernel_expectation_mc,
    parabolic_box_count,
)
from .occupation import (
    OccupationHistogram,
    drifted_image,
    interior_probe,
    l2_density_diagnostic,
    occupation_histogram,
    positive_measure_estimate,
)
from .gaussian import (
    GaussianVectorSpec,
    conditional_variance,
    detcov_chain_identity,
    detcov_margin_sweep,
    lnd_distance_ratio,
    lnd_margin,
    lnd_margin_sweep,
    verify_detcov_lower_bound,
)

__version__ = "0.1.0"
