"""Reference arithmetic of the streaming monitor, frozen for exact-bit tests.

`monitor_update` must reproduce these step-by-step formulas bit for bit.
They take the slow, generic route on purpose: a regressor array, the clipped
logistic through `np.minimum`/`np.maximum`, the weight on a 0-d array and
S @ A @ S, so a faster library path is checked against arithmetic that does
not share its shortcuts.
"""

import math

import numpy as np

from binarx import ParamVector, fit_mple
from binarx.model import logistic_float
from binarx.monitoring import MonitorConfig, MonitorState

PROB_FLOOR = np.nextafter(0.0, 1.0)
PROB_CEIL = np.nextafter(1.0, 0.0)


def build_regressor(x_prev: int, w_t) -> np.ndarray:
    """The regressor (1, x_prev, w_t[0], ..., w_t[l-1])."""
    w_t = np.asarray(w_t, dtype=float).reshape(-1)
    out = np.empty(2 + w_t.size, dtype=float)
    out[0] = 1.0
    out[1] = x_prev
    out[2:] = w_t
    return out


def success_prob(beta, z) -> float:
    """pi = 1 / (1 + exp(-beta' z)), clipped strictly inside (0, 1)."""
    b = beta.as_array() if isinstance(beta, ParamVector) else np.asarray(beta, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape != b.shape:
        raise ValueError(f"regressor has shape {z.shape}, expected {b.shape}")
    return float(np.minimum(np.maximum(logistic_float(float(b @ z)), PROB_FLOOR), PROB_CEIL))


def weight_0d(m: int, k, gamma: float) -> float:
    """The monitoring weight evaluated on a 0-d array."""
    k = np.asarray(k, dtype=float)
    return float(m ** (-0.5) * (1.0 + k / m) ** (-1.0) * (k / (m + k)) ** (-gamma))


def score_step(S, beta, n: int, x_prev: int, x: int, w) -> np.ndarray:
    """Running score sum after one more observation (x, w)."""
    z = build_regressor(x_prev, w)
    return S + z * (int(x) - n * success_prob(beta, z))


def statistic(m: int, k: int, gamma: float, A, S) -> float:
    return float(weight_0d(m, k, gamma) ** 2 * (S @ A @ S))


def replay(state, stream, threshold: float):
    """(statistics, alarm index or None) of a fresh monitor `state` fed the
    (x, w) pairs of `stream` up to its first crossing of `threshold`."""
    cfg = state.config
    S, x_prev, stats = np.zeros(state.beta_hat.dim), state.x_prev, []
    for k, (x, w) in enumerate(stream, start=1):
        S = score_step(S, state.beta_hat, state.n, x_prev, x, w)
        stats.append(statistic(cfg.m, k, cfg.gamma, cfg.a_matrix, S))
        if stats[-1] >= threshold:
            return stats, k
        x_prev = int(x)
    return stats, None


def state_with_metric(training, n: int, horizon: float, gamma: float, A) -> MonitorState:
    """A fresh monitor as monitor_init assembles it, but measuring with metric A."""
    fit = fit_mple(training, n)
    config = MonitorConfig(m=training.m, horizon=horizon, gamma=gamma, alpha=0.05,
                           threshold_c=math.inf, a_matrix=A)
    return MonitorState(beta_hat=fit.beta_hat, n=n, config=config, x_prev=int(training.x[-1]))
