"""References for the threshold tables: the explicit-route draw of the
calibration functional, which tests check the whitened route against, and
the exact law of its gamma = 0 limit at d = 3."""

import math

import numpy as np

from binarx.calibration import CalibrationConfig, _rho


def sample_sup_functional(config: CalibrationConfig, gamma: float, rep_index: int,
                          sigma=None) -> float:
    """One replication of the supremum functional for the given gamma.

    Takes the explicit route (Cholesky draws of Wiener covariance `sigma`,
    quadratic form in A = sigma^{-1}) so the whitened route of the tables can
    be validated against it; with sigma = None the covariance is the identity.
    Replication r draws as the stream contract says: from (master_seed, r),
    first the (steps, dim) W1 increment block, then W2(1).
    """
    sigma = np.eye(config.dim) if sigma is None else sigma
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, rep_index)))
    eps = rng.standard_normal((config.steps, config.dim))
    eps2 = rng.standard_normal(config.dim)
    s = np.arange(1, config.steps + 1) / config.grid_m
    L = np.linalg.cholesky(sigma)
    W1 = np.cumsum(eps @ L.T, axis=0) / np.sqrt(config.grid_m)
    D = W1 - s[:, None] * (L @ eps2)
    q = np.einsum("kd,kd->k", D @ np.linalg.inv(sigma), D)
    return float((_rho(s, gamma) ** 2 * q).max())


def bessel3_sup_tail(c: float, t: float = 0.75) -> float:
    """P(sup_{u <= t} |W_3(u)|^2 >= c) for a standard 3-d Wiener process W_3.

    This is the law of the gamma = 0 calibration functional at d = 3 and
    horizon N = t / (1 - t); t = 3/4 is N = 3.  V(s) = W1(s) - s W2(1) has
    covariance min(s, t) - st, so V(s) / (1 + s) is a standard Wiener process
    in the time u = s / (1 + s), and rho^2(s, 0) = (1 + s)^-2; the sup over
    s <= N is the sup over u <= N / (1 + N) of |W(u)|^2.  For d = 3,
    Ciesielski & Taylor (1962) give P(sup_{u <= t} |W_3(u)|^2 < c) =
    2 sum_k (-1)^(k+1) exp(-k^2 pi^2 t / (2c)).
    """
    k = np.arange(1, 61)
    terms = (-1.0) ** (k + 1) * np.exp(-((k * math.pi) ** 2) * t / (2.0 * c))
    return 1.0 - 2.0 * float(terms.sum())
