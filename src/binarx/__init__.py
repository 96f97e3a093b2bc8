"""Binomial AR(1) time-series toolkit.

Simulation, maximum partial likelihood estimation, sequential change-point
monitoring with Monte-Carlo-calibrated critical values, simulation-study
harnesses, and a deseasonalization pipeline for weekly rate panels.

The package exports what its workflows use: README's quick start, the
benchmark and the golden-digest tool, plus the exception classes.
Everything else is imported from its own module.
"""

from .calibration import CalibrationConfig, read_threshold_table, threshold_table
from .defaults import default_model_spec
from .estimation import fit_mple
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
from .experiments import ChangePoint, ExperimentConfig, run_power, run_size
from .model import ModelSpec, ParamVector, read_series_csv, simulate_series
from .monitoring import monitor_init, monitor_run, monitor_update

__version__ = "0.1.0"
