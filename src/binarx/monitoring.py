"""Close-end sequential change-point monitoring for the binomial AR(1) model.

After fitting coefficients on m clean training points, the monitor tracks the
running score sum S(k) = sum_{t=m+1}^{m+k} z_{t-1} (x_t - n pi_t(beta_hat))
and raises an alarm the first time the weighted quadratic statistic

    weight(m, k, gamma)^2 * S(k)' A S(k)

exceeds a critical value.  Monitoring stops at the horizon k = floor(N * m)
if no alarm occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit

from .calibration import ThresholdTable, _check_gamma, horizon_steps, rho  # noqa: F401 (rho re-exported)
from .estimation import fit_mple
from .exceptions import BinarxError, MonitoringTerminatedError
from .model import ParamVector, SeriesSample, _clamp_prob

# The training residual identity sum_t G(x_t, beta_hat) = 0 must hold at init;
# it underpins the approximation the monitoring statistic relies on.
_SCORE_IDENTITY_TOL = 1e-8


def _weight(m: int, k, gamma: float):
    # The formula's one home: Python floats for an int k, numpy for an array k.
    return m ** (-0.5) * (1.0 + k / m) ** (-1.0) * (k / (m + k)) ** (-gamma)


def weight(m, k, gamma: float):
    """Monitoring weight m^(-1/2) * (1 + k/m)^(-1) * (k/(m+k))^(-gamma).

    Equals m^(-1/2) * rho(k/m, gamma).  An int k is evaluated in Python
    floats, whose scalar pow gives the same bits as a 0-d array: this is the
    streaming monitor's path, pinned bit for bit.  An array k weights whole
    paths at once for the block engine; numpy's vectorised power may differ
    from scalar pow in the last bits, so the two paths' statistics agree to
    rtol 1e-10, not bit for bit.
    """
    _check_gamma(gamma)
    if m < 1:
        raise ValueError("m must be >= 1")
    scalar = isinstance(k, int)
    if not scalar:
        k = np.asarray(k, dtype=float)
    if np.any(k < 1):
        raise ValueError("weight needs k >= 1")
    out = _weight(m, k, gamma)
    return out if scalar or out.ndim else float(out)


def inverse_metric(sigma0) -> np.ndarray:
    """Metric A = Sigma0^{-1} of the statistic, symmetrized; over any leading batch axes.

    The only metric that threshold tables are calibrated for.
    """
    A = np.linalg.inv(sigma0)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


@dataclass(frozen=True)
class MonitorConfig:
    """Frozen monitoring parameters: sizes, sensitivity, critical value, metric."""

    m: int
    horizon: float
    gamma: float
    alpha: float
    threshold_c: float
    a_matrix: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("training length m must be >= 1")
        if self.horizon_steps < 1:
            raise ValueError(f"horizon {self.horizon} leaves no monitored point at m={self.m}")
        _check_gamma(self.gamma)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.threshold_c > 0:
            raise ValueError("threshold must be positive")
        A = np.asarray(self.a_matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be a square matrix, got shape {A.shape}")
        if np.abs(A - A.T).max() > 1e-10:
            raise ValueError("A must be symmetric within 1e-10")
        if np.linalg.eigvalsh(A).min() <= 0:
            raise ValueError("A must be positive definite")
        A = 0.5 * (A + A.T)
        A.setflags(write=False)
        object.__setattr__(self, "a_matrix", A)

    @cached_property
    def horizon_steps(self) -> int:
        return horizon_steps(self.horizon, self.m)


@dataclass
class MonitorState:
    """Sequential monitor: strictly ordered single-writer updates.

    `running_sum` always equals the score sum over the k monitored points seen
    so far, recomputable from the stream.  Once `alarm_at` is set, further
    updates are rejected.  `beta_hat` is frozen for the monitor's life: its
    array is built once, at construction.
    """

    beta_hat: ParamVector
    n: int
    config: MonitorConfig
    x_prev: int
    k: int = 0
    running_sum: np.ndarray = None  # type: ignore[assignment]
    statistic_history: list[float] = field(default_factory=list)
    alarm_at: int | None = None
    _beta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.beta_hat.dim
        self._beta = self.beta_hat.as_array()
        self._beta.setflags(write=False)
        if self.config.a_matrix.shape != (d, d):
            raise ValueError(f"A must be {d}x{d}, got {self.config.a_matrix.shape}")
        if self.running_sum is None:
            self.running_sum = np.zeros(d)

    @property
    def terminated(self) -> bool:
        return self.alarm_at is not None or self.k >= self.config.horizon_steps


@dataclass(frozen=True)
class MonitorResult:
    alarm_at: int | None
    statistic_history: tuple[float, ...]
    truncated: bool
    k_final: int


def monitor_init(
    training: SeriesSample,
    spec_n: int,
    horizon: float,
    gamma: float,
    alpha: float,
    threshold_source: float | ThresholdTable,
) -> MonitorState:
    """Fit the training window and assemble a fresh monitor.

    `threshold_source` is either a critical value or a threshold table to
    look (gamma, alpha) up in; a table is used only at the horizon it was
    calibrated at.  The statistic's metric is `inverse_metric` of the
    training outer-product score covariance, the metric that tables are
    calibrated for.
    """
    fit = fit_mple(training, spec_n)
    if fit.final_score_norm >= _SCORE_IDENTITY_TOL:
        raise BinarxError(
            f"training score sum {fit.final_score_norm:.3e} violates the zero-score identity"
        )
    if isinstance(threshold_source, ThresholdTable):
        threshold_source.check_horizon(horizon)
        c = threshold_source.lookup(gamma, alpha)
    else:
        c = float(threshold_source)
    config = MonitorConfig(
        m=training.m, horizon=horizon, gamma=gamma, alpha=alpha, threshold_c=c,
        a_matrix=inverse_metric(fit.sigma0_hat),
    )
    return MonitorState(
        beta_hat=fit.beta_hat, n=spec_n, config=config, x_prev=int(training.x[-1])
    )


def monitor_update(state: MonitorState, x_new: int, w_new) -> tuple[MonitorState, float]:
    """Consume one observation; returns the updated state and its statistic.

    Raises MonitoringTerminatedError once an alarm fired or the horizon was
    reached, and ValueError naming the monitored index k for a count that is
    not an integer in {0..n} or a covariate row that is not l finite values;
    a rejected observation leaves the state untouched.  Scalar-sized work:
    the fit and horizon are cached and the weight is evaluated in floats.
    """
    cfg = state.config
    if state.alarm_at is not None:
        raise MonitoringTerminatedError(f"alarm already raised at k={state.alarm_at}")
    if state.k >= cfg.horizon_steps:
        raise MonitoringTerminatedError(f"horizon {cfg.horizon_steps} reached")
    k = state.k + 1
    try:
        x_int = int(x_new)
    except (TypeError, ValueError, OverflowError):
        x_int = None
    if x_int is None or x_int != x_new:
        raise ValueError(f"observation k={k}: count {x_new!r} is not an integer")
    if not 0 <= x_int <= state.n:
        raise ValueError(f"observation k={k}: count {x_int} outside {{0..{state.n}}}")

    beta = state._beta
    w = np.asarray(w_new, dtype=float).reshape(-1).tolist()
    if len(w) != beta.size - 2:
        raise ValueError(f"observation k={k}: {len(w)} covariates, expected {beta.size - 2}")
    if not all(map(math.isfinite, w)):
        raise ValueError(f"observation k={k}: covariates {w_new!r} are not finite")
    z = np.array((1.0, state.x_prev, *w))
    pi = _clamp_prob(float(expit(beta @ z)))
    state.running_sum = state.running_sum + z * (x_int - state.n * pi)
    state.k = k
    w2 = _weight(cfg.m, k, cfg.gamma) ** 2
    statistic = float(w2 * (state.running_sum @ cfg.a_matrix @ state.running_sum))
    state.statistic_history.append(statistic)
    if statistic >= cfg.threshold_c:
        state.alarm_at = k
    state.x_prev = x_int
    return state, statistic


def monitor_run(state: MonitorState, stream) -> MonitorResult:
    """Consume (x, w) pairs until an alarm or the close-end horizon.

    A stream that ends early with no alarm yields a truncated result.
    """
    it = iter(stream)
    truncated = False
    while not state.terminated:
        obs = next(it, None)
        if obs is None:
            truncated = True
            break
        monitor_update(state, *obs)
    return MonitorResult(
        alarm_at=state.alarm_at,
        statistic_history=tuple(state.statistic_history),
        truncated=truncated,
        k_final=state.k,
    )
