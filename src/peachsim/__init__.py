"""Low-complexity polynomial channel estimation for large-scale MIMO.

Exact Bayesian MMSE / MVU / diagonalized baselines next to the truncated
polynomial-expansion estimators PEACH (one scaling) and W-PEACH (optimized
per-term weights), their closed-form MSE and high-power floors,
sliding-window weight tracking, shrinkage covariance estimation, FLOP cost
models, and a seeded simulation CLI with CSV output.
"""

from .adaptive import (
    AdaptiveState,
    ShrinkageEstimate,
    adaptive_init,
    adaptive_update,
    shrinkage_covariance,
    shrinkage_kappa,
)
from .analysis import (
    Floors,
    FlopModel,
    crossover_m,
    floor_contaminated,
    floor_noise_limited,
    flops,
)
from .cli import (
    ExperimentConfig,
    ResultRow,
    default_config,
    run_experiment,
    run_monte_carlo,
)
from .estimators import (
    EstimatorKind,
    PolyEstimator,
    Prepared,
    alpha_gershgorin,
    alpha_optimal,
    bind,
    default_alpha_w,
    diag_estimate,
    diag_mse,
    linear_filter_mse,
    make_peach,
    make_wpeach,
    mismatched_mse,
    mmse_estimate,
    mmse_filter_matrix,
    mmse_mse,
    mvu_estimate,
    mvu_variance,
    peach_estimate,
    peach_mse,
    poly_filter_matrix,
    prepare,
    wpeach_estimate,
    wpeach_mse_general,
    wpeach_mse_optimal,
    z_matrix,
)
from .model import (
    DEFAULT_CORRELATION,
    Dims,
    SpatialCorrelation,
    StatModel,
    correlated_limit,
    correlated_model,
    deviation,
    exp_correlation_matrix,
    stat_model_from_pilot,
)

__version__ = "0.1.0"
