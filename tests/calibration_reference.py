"""Explicit-route draw of the calibration functional: the reference that
tests check the whitened route of the tables against."""

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
