"""Orthogonal multivariate GARCH with dynamic eigenvalues.

Conditional covariances are H_t = V diag(lam_t) V' with constant
eigenvectors and GARCH-type eigenvalue dynamics. The package provides the
two-step spectral targeting estimator (moment-based targets, then
per-equation quasi maximum likelihood), a joint QMLE benchmark, plug-in
sandwich inference for the two-step estimator, filtered historical
simulation VaR forecasting with coverage backtests, and the simulation
studies comparing the estimators.
"""

from .exceptions import (
    ConvergenceError,
    InferenceError,
    NonstationaryError,
    TargetingError,
    ValidationError,
)
from .spectral import (
    CovMatrix,
    SpectralTarget,
    eigen_sym,
    givens_product,
    sample_covariance,
    shifted_pseudo_inverse,
    spectral_radius,
)
from .model import (
    DynamicsParams,
    ModelSpec,
    filter_eigenvalues,
    intercepts_from_targets,
    lyapunov_estimate,
    moment_order_check,
    simulate_path,
    unconditional_eigenvalues,
)
from .panel import (
    ReturnPanel,
    bundled_weights_path,
    load_returns_csv,
    load_weights_csv,
    portfolio_returns,
    write_panel_csv,
)
from .estimation import (
    ModelFit,
    equation_nll,
    equation_score,
    fit_equation,
    fit_joint_qmle,
    fit_spectral_targeting,
    rotate_returns,
)
from .inference import (
    EquationInference,
    SandwichBlocks,
    intercept_delta,
    sandwich_blocks,
    sandwich_sigma,
)
from .risk import (
    ResidualPanel,
    VaRBacktestReport,
    christoffersen_tests,
    fhs_forecast,
    hit_sequence,
    rolling_backtest,
    standardized_residuals,
    var_from_distribution,
)
from .experiments import (
    DensityStudyResult,
    ExperimentConfig,
    RelativeEfficiencyRow,
    run_density_study,
    run_relative_efficiency,
)

__version__ = "0.1.0"
