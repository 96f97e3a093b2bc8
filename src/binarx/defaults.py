"""Package-wide default constants and the reference model specification."""

# Master seed used whenever a config or caller does not supply one.
DEFAULT_SEED = 20170

# Burn-in length used to wash out the arbitrary X0 ~ Bin(n, 1/2) start.
DEFAULT_BURN_IN = 500

# Compact box for coefficient vectors; fits must stay in its interior.
PARAM_BOX_BOUND = 20.0

# Sensitivities and levels that threshold tables and studies cover.
DEFAULT_GAMMAS = (0.0, 0.25, 0.4)
DEFAULT_ALPHAS = (0.1, 0.05, 0.025, 0.01)

# Close-end horizon multiplier N: monitoring stops at k = floor(N * m).
DEFAULT_HORIZON = 3.0

# The most time points one replication may hold: a simulated series, a
# training window, a monitored horizon or a calibration grid.  At the budget
# a d = 3 calibration replication draws 24 MB of normals.
MAX_POINTS = 1_000_000

# Monte-Carlo calibration: replications and grid points per unit time.
DEFAULT_CALIBRATION_REPS = 10_000
DEFAULT_GRID_M = 1000

# Sensitivity and level of the `monitor` subcommand when its config names none.
DEFAULT_MONITOR_GAMMA = 0.0
DEFAULT_MONITOR_ALPHA = 0.05

# Desk-scale `experiment` subcommand defaults per kind.
EXPERIMENT_DEFAULTS = {
    "consistency": {"reps": 100, "m_list": (500, 1000, 1500)},
    "normality": {"reps": 1000, "m_list": (400,)},
    "size": {"reps": 1000, "m_list": (100, 200, 300)},
    "power": {"reps": 500, "m_list": (100, 200, 300), "alphas": DEFAULT_ALPHAS[:1]},
}


def default_model_spec():
    """The toolkit's reference data-generating process.

    Binomial total 10, coefficients (-1, 0.1, 0.4), one exogenous covariate
    drawn i.i.d. N(1, sd=0.1) and clamped to [0, 10].  Used as the default
    by the experiment harnesses and the CLI when no model is configured.
    """
    from .model import ExogenousSpec, ModelSpec, ParamVector

    return ModelSpec(
        n=10,
        beta=ParamVector(phi0=-1.0, phi1=0.1, gamma_exo=(0.4,)),
        exo=ExogenousSpec(mean=1.0, sd=0.1, clamp_lo=0.0, clamp_hi=10.0),
    )
