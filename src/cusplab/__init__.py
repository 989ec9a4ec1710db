"""cusplab: numerical laboratory for locating cusp-type signals in small noise.

The package simulates observations ``dX_t = S(theta, t) dt + eps dW_t``
whose drift has a cusp ``a*|t - theta|**kappa`` (``0 < kappa < 1/2``),
estimates the cusp location and exponent, and compares the estimators'
normalized errors against their non-Gaussian limit laws driven by
fractional Brownian motion.
"""

from .errors import (
    ConditionViolationError,
    ConfigError,
    CusplabError,
    DomainError,
    ExperimentError,
    NumericalDegeneracyError,
    StoppedError,
)
from .estimators import (
    EstimationResult,
    JointEstimationResult,
    TruncatedNormalPrior,
    UniformPrior,
    bayes,
    joint_mle,
    kappa_mle,
    location_rate,
    misspec_rate,
    mle,
    pseudo_mle,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    experiment_config_from_dict,
    fit_rate,
    ks_statistic,
    separation_bound_fit,
    tail_bound_fit,
    moment_compare,
    run_and_write,
    run_experiment,
)
from .limit_laws import (
    FbmPath,
    WindowConfig,
    default_xi_window,
    default_zeta_window,
    fbm_covariance,
    fisher_info_kappa,
    gamma_squared,
    rescale_fbm,
    sample_fbm,
    sample_kappa_limit,
    sample_xi_batch,
    sample_zeta_batch,
    xi_from_fbm,
    zeta_from_fbm,
    zeta_scale,
)
from .misspec_analysis import (
    MisspecProblem,
    MisspecSolution,
    curvature,
    l2_gap,
    phi,
    solve_theta_hat,
)
from .path_sim import (
    DEFAULT_N_STEPS,
    DiscretizationWarning,
    ObservationPath,
    TimeGrid,
    replication_rng,
    simulate_path,
    write_path_csv,
)
from .signal_models import (
    ConstantNuisance,
    CosineNuisance,
    CosineSignal,
    CuspSignal,
    MultiCuspSignal,
    QuadraticSignal,
    SmoothedCuspSignal,
    ThetaRampNuisance,
    TwoSidedCuspSignal,
    eval_signal,
    is_location_signal,
    signal_from_config,
)

__version__ = "0.1.0"
