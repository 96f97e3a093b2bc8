"""Close-end sequential change-point monitoring for the binomial AR(1) model.

After fitting coefficients on m clean training points, the monitor tracks the
running score sum S(k) = sum_{t=m+1}^{m+k} z_{t-1} (x_t - n pi_t(beta_hat))
and raises an alarm the first time the weighted quadratic statistic

    weight(m, k, gamma)^2 * S(k)' A S(k)

exceeds a critical value.  Monitoring stops at the horizon k = floor(N * m)
if no alarm occurred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import ThresholdTable, _check_gamma, horizon_steps, rho  # noqa: F401 (rho re-exported)
from .estimation import fit_mple
from .exceptions import BinarxError, MonitoringTerminatedError, ThresholdUnavailableError
from .model import ParamVector, SeriesSample, build_regressor, success_prob

# The training residual identity sum_t G(x_t, beta_hat) = 0 must hold at init;
# it underpins the approximation the monitoring statistic relies on.
_SCORE_IDENTITY_TOL = 1e-8


def weight(m, k, gamma: float):
    """Monitoring weight m^(-1/2) * (1 + k/m)^(-1) * (k/(m+k))^(-gamma).

    Equals m^(-1/2) * rho(k/m, gamma).  Accepts scalar or array k, so the
    experiment harnesses weight whole paths at once.  Their statistic agrees
    with the step-by-step monitor's to rtol 1e-10, not bit for bit: the two
    paths order their floating-point operations differently.
    """
    _check_gamma(gamma)
    if m < 1:
        raise ValueError("m must be >= 1")
    k = np.asarray(k, dtype=float)
    if np.any(k < 1):
        raise ValueError("weight needs k >= 1")
    out = m ** (-0.5) * (1.0 + k / m) ** (-1.0) * (k / (m + k)) ** (-gamma)
    return float(out) if out.ndim == 0 else out


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

    @property
    def horizon_steps(self) -> int:
        return horizon_steps(self.horizon, self.m)


@dataclass
class MonitorState:
    """Sequential monitor: strictly ordered single-writer updates.

    `running_sum` always equals the score sum over the k monitored points seen
    so far, recomputable from the stream.  Once `alarm_at` is set, further
    updates are rejected.
    """

    beta_hat: ParamVector
    n: int
    config: MonitorConfig
    x_prev: int
    k: int = 0
    running_sum: np.ndarray = None  # type: ignore[assignment]
    statistic_history: list[float] = field(default_factory=list)
    alarm_at: int | None = None

    def __post_init__(self):
        d = self.beta_hat.dim
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
    a_matrix=None,
) -> MonitorState:
    """Fit the training window and assemble a fresh monitor.

    `threshold_source` is either a critical value or a threshold table to
    look (gamma, alpha) up in; a table is used only at the horizon it was
    calibrated at.  The statistic's metric is `inverse_metric` of the
    training outer-product score covariance, the metric that tables are
    calibrated for; an explicit symmetric positive definite `a_matrix`
    replaces it, and then only a plain critical value is accepted.
    """
    fit = fit_mple(training, spec_n)
    if fit.final_score_norm >= _SCORE_IDENTITY_TOL:
        raise BinarxError(
            f"training score sum {fit.final_score_norm:.3e} violates the zero-score identity"
        )
    if isinstance(threshold_source, ThresholdTable):
        if a_matrix is not None:
            raise ThresholdUnavailableError("a threshold table holds only for A = inverse Sigma0")
        threshold_source.check_horizon(horizon)
        c = threshold_source.lookup(gamma, alpha)
    else:
        c = float(threshold_source)
    A = inverse_metric(fit.sigma0_hat) if a_matrix is None else a_matrix
    config = MonitorConfig(
        m=training.m, horizon=horizon, gamma=gamma, alpha=alpha, threshold_c=c, a_matrix=A
    )
    return MonitorState(
        beta_hat=fit.beta_hat, n=spec_n, config=config, x_prev=int(training.x[-1])
    )


def monitor_update(state: MonitorState, x_new: int, w_new) -> tuple[MonitorState, float]:
    """Consume one observation; returns the updated state and its statistic.

    Raises MonitoringTerminatedError once an alarm fired or the horizon was
    reached, and ValueError naming the monitored index k for a count that is
    not an integer in {0..n} or a covariate that is not finite; a rejected
    observation leaves the state untouched.
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

    z = build_regressor(state.x_prev, w_new)
    if not np.isfinite(z).all():
        raise ValueError(f"observation k={k}: covariates {w_new!r} are not finite")
    pi = success_prob(state.beta_hat, z)
    state.running_sum = state.running_sum + z * (x_int - state.n * pi)
    state.k = k
    w2 = weight(cfg.m, k, cfg.gamma) ** 2
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
