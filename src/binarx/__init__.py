"""Binomial AR(1) time-series toolkit.

Simulation, maximum partial likelihood estimation, sequential change-point
monitoring with Monte-Carlo-calibrated critical values, simulation-study
harnesses, and a deseasonalization pipeline for weekly rate panels.
"""

from .calibration import (
    CalibrationConfig,
    ThresholdTable,
    read_threshold_table,
    sample_sup_functional,
    threshold_table,
    write_threshold_table,
)
from .dataprep import (
    BaselineTable,
    BinomialSeries,
    RatePanel,
    RateRow,
    binarize_and_sum,
    chi2_sf,
    compute_baseline,
    model_comparison,
    read_binomial_series,
    write_binomial_series,
)
from .defaults import DEFAULT_BURN_IN, DEFAULT_SEED, PARAM_BOX_BOUND, default_model_spec
from .estimation import (
    FitResult,
    fit_mple,
    fit_report,
    log_partial_likelihood,
    score,
    score_gradient,
    write_fit_report,
)
from .exceptions import (
    BinarxError,
    ConfigError,
    MissingBaselineError,
    MonitoringTerminatedError,
    NonConvergenceError,
    PanelCoverageError,
    SeparationError,
    SingularHessianError,
    ThresholdUnavailableError,
)
from .experiments import (
    ChangePoint,
    ConsistencyReport,
    ExperimentConfig,
    NormalityReport,
    PowerReport,
    SizeReport,
    run_consistency,
    run_normality,
    run_power,
    run_size,
)
from .model import (
    ExogenousSpec,
    ModelSpec,
    ParamVector,
    SeriesSample,
    build_regressor,
    read_series_csv,
    simulate_chain,
    simulate_series,
    stationary_oracle,
    success_prob,
    write_series_csv,
)
from .monitoring import (
    MonitorConfig,
    MonitorResult,
    MonitorState,
    monitor_init,
    monitor_run,
    monitor_update,
    rho,
    weight,
)

__version__ = "0.1.0"
