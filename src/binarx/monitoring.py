"""Close-end sequential change-point monitoring for the binomial AR(1) model.

After fitting coefficients on m clean training points, the monitor tracks the
running score sum S(k) = sum_{t=m+1}^{m+k} z_{t-1} (x_t - n pi_t(beta_hat))
and raises an alarm the first time the weighted quadratic statistic

    _weight(m, k, gamma)^2 * S(k)' A S(k)

exceeds a critical value.  Monitoring stops at the horizon k = floor(N * m)
if no alarm occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import ThresholdTable, _check_alpha, _check_gamma, _check_positive, horizon_steps
from .estimation import fit_mple, inverse_metric
from .exceptions import MonitoringTerminatedError
from .model import ParamVector, SeriesSample, _clamp_prob, logistic_float


def _weight(m: int, k, gamma: float):
    """Monitoring weight m^(-1/2) * (1 + k/m)^(-1) * (k/(m+k))^(-gamma), which
    equals m^(-1/2) * rho(k/m, gamma), for k >= 1: in Python floats in
    monitor_update, on a k array for the block engine.  numpy's vectorised
    power may differ from scalar pow in the last bits, so the block engine's
    and the streaming monitor's statistics agree to rtol 1e-10, not bit for
    bit."""
    return m ** (-0.5) * (1.0 + k / m) ** (-1.0) * (k / (m + k)) ** (-gamma)


@dataclass(frozen=True)
class MonitorConfig:
    """Frozen monitoring parameters: sizes, sensitivity, critical value, metric."""

    m: int
    horizon: float
    gamma: float
    alpha: float
    threshold_c: float
    a_matrix: np.ndarray
    horizon_steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("training length m must be >= 1")
        object.__setattr__(self, "horizon_steps", horizon_steps(self.horizon, self.m))
        _check_gamma(self.gamma)
        _check_alpha(self.alpha)
        _check_positive(self.threshold_c, "threshold_c")
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


def monitor_init(
    training: SeriesSample,
    spec_n: int,
    horizon: float,
    gamma: float,
    alpha: float,
    threshold_source: float | ThresholdTable,
) -> MonitorState:
    """Fit the training window and assemble a fresh monitor.

    `threshold_source` is a critical value or a threshold table to look
    (gamma, alpha) up in at `horizon`.  The metric is `inverse_metric` of the
    training outer-product score covariance, the one tables are calibrated
    for.  The statistic needs the training score sum at zero: fit_mple
    returns only fits whose score norm is below its tolerance.
    """
    fit = fit_mple(training, spec_n)
    if isinstance(threshold_source, ThresholdTable):
        c = threshold_source.lookup(gamma, alpha, horizon)
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
    the fit and horizon are cached, and the weight and the logistic are
    evaluated in floats; the products stay on BLAS, for their pinned bits.
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
    w = np.asarray(w_new, dtype=float).ravel().tolist()
    if len(w) != beta.size - 2:
        raise ValueError(f"observation k={k}: {len(w)} covariates, expected {beta.size - 2}")
    if not all(map(math.isfinite, w)):
        raise ValueError(f"observation k={k}: covariates {w_new!r} are not finite")
    z = np.array((1.0, state.x_prev, *w))
    pi = _clamp_prob(logistic_float(float(beta.dot(z))))
    z *= x_int - state.n * pi
    S = state.running_sum = state.running_sum + z
    state.k = k
    w2 = _weight(cfg.m, k, cfg.gamma) ** 2
    statistic = w2 * float(S.dot(cfg.a_matrix).dot(S))
    state.statistic_history.append(statistic)
    if statistic >= cfg.threshold_c:
        state.alarm_at = k
    state.x_prev = x_int
    return state, statistic


def monitor_run(state: MonitorState, stream) -> MonitorState:
    """Feed (x, w) pairs to monitor_update until an alarm, the close-end
    horizon or the end of the stream; returns `state`.

    No pair is read once the monitor has terminated.  A stream that ends
    first leaves the monitor unterminated: its run is truncated.
    """
    it = iter(stream)
    while not state.terminated and (obs := next(it, None)) is not None:
        monitor_update(state, *obs)
    return state
