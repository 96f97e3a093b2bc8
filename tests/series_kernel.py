"""Series-level calls into the likelihood kernel that the Newton solver runs.

`estimation._log_pl`, `_score` and `_curvature` work on stacked designs.
These wrappers hand them one series as a batch of one, built by
`estimation._stack_design`, so a test checks the code that `fit_mple` runs.
They restate no formula.
"""

import numpy as np

from binarx import ParamVector, estimation
from binarx.model import logistic


def _at(series, spec_n, beta):
    """Batch-of-one design Z, responses y, log PL and pi at beta."""
    Z, y = estimation._stack_design(series.x[None], series.w[None])
    b = beta.as_array() if isinstance(beta, ParamVector) else np.asarray(beta, dtype=float)
    lp, eta = estimation._log_pl(Z, y, estimation._log_coef(y, spec_n), b[None], spec_n)
    return Z, y, lp, logistic(eta)


def log_pl(series, spec_n, beta) -> float:
    """Log partial likelihood, binomial coefficients included."""
    return float(_at(series, spec_n, beta)[2][0])


def score(series, spec_n, beta) -> np.ndarray:
    """Score vector, the gradient of the log PL."""
    Z, y, _, pi = _at(series, spec_n, beta)
    return estimation._score(Z, y - spec_n * pi)[0]


def curvature(series, spec_n, beta) -> np.ndarray:
    """Negated score gradient."""
    Z, _, _, pi = _at(series, spec_n, beta)
    return estimation._curvature(Z, pi, spec_n)[0]
