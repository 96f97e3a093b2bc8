"""Per-step loops of the simulation engine, frozen as exact-bit references.

`experiments._monitor_block` scores a monitored horizon in array passes,
`experiments._advance` reads a negated coefficient table, and
`model.simulate_chain` runs its scalar chain on Python floats over chunks
of sorted uniforms.  All must give the same bits as the loops below: one
lockstep step at a time with the coefficients read from the vector, and
one `_scalar_logistic` call per transition, its count summed from a row of
all the path's uniforms, drawn at once, or drawn by `rng.binomial`.
`train_window` replays a block's start and training window; `monitor_block`
takes the training window from the engine's own `_train_block` and replays
the monitored horizon.  Both draw every block whole, BLOCK_SIZE chains, and
score only the replications the study keeps.
"""

import math

import numpy as np

from binarx.estimation import inverse_metric
from binarx.experiments import (
    BLOCK_SIZE,
    _failure_names,
    _train_block,
)
from binarx.model import N_MAX_BERNOULLI, _clamp_prob, logistic
from streaming_reference import PROB_CEIL, PROB_FLOOR


def advance(spec, coef, x, rng):
    """One lockstep transition: covariate rows, then counts, as sums of n
    Bernoulli trials up to N_MAX_BERNOULLI and as binomial draws above it."""
    w = spec.exo.draw(rng, x.size, spec.beta.l)
    eta = coef[0] + coef[1] * x + w @ coef[2:]
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-eta))
    if spec.n <= N_MAX_BERNOULLI:
        return w, (rng.random((spec.n, x.size)) < p).sum(axis=0)
    return w, rng.binomial(spec.n, np.minimum(np.maximum(p, PROB_FLOOR), PROB_CEIL))


def train_window(task, b):
    """Block b's counts (m + 1, BLOCK_SIZE), covariate rows (m, BLOCK_SIZE, l)
    and generator after the training window, one `advance` per step."""
    config, spec = task.config, task.config.spec
    rng = np.random.default_rng(
        np.random.SeedSequence((config.master_seed, task.kind, task.m_index, b)))
    coef = spec.beta.as_array()
    if task.start_cdf is not None:
        x = np.searchsorted(task.start_cdf, rng.random(BLOCK_SIZE), side="right")
    else:
        x = rng.binomial(spec.n, 0.5, BLOCK_SIZE)
        for _ in range(spec.burn_in):
            _, x = advance(spec, coef, x, rng)
    xs, ws = [x], []
    for _ in range(task.m):
        w, x = advance(spec, coef, x, rng)
        xs.append(x)
        ws.append(w)
    return np.array(xs), np.array(ws), rng


def monitor_block(task, b):
    """`_monitor_block` scored step by step, with no whole-path array."""
    rng, x_prev, fit = _train_block(task, b)
    spec = task.config.spec
    ok = fit.ok
    size, d = fit.beta.shape  # the kept replications
    beta = np.where(ok[:, None], fit.beta, 0.0).T
    if task.a_matrix is None:
        A = np.broadcast_to(np.eye(d), (size, d, d)).copy()
        A[ok] = inverse_metric(fit.sigma0[ok])
        A = A.transpose(1, 2, 0)
    else:
        A = task.a_matrix
    n_gamma, H = task.w2.shape
    n_keep = min(size, max(0, task.config.emit_traces - b * BLOCK_SIZE))
    paths = np.empty((n_keep, n_gamma, H))
    sups = np.full((n_gamma, size), -np.inf)
    passage = np.zeros((n_gamma, size), dtype=int)
    thresholds = task.passage_thresholds
    S = np.zeros((d, size))
    z = np.empty((d, size))
    z[0] = 1.0
    coef = spec.beta.as_array()
    at_k = task.change.at_k if task.change is not None else H + 1
    for k in range(1, H + 1):
        if k == at_k:
            coef = task.change.new_beta.as_array()
            S_before = S.copy()
        w, x = advance(spec, coef, x_prev, rng)
        z[1] = x_prev[:size]
        z[2:] = w[:size].T
        S += z * (x[:size] - spec.n * logistic((z * beta).sum(axis=0)))
        AS = A @ S if A.ndim == 2 else (A * S).sum(axis=1)
        stat = task.w2[:, k - 1, None] * (AS * S).sum(axis=0)
        np.maximum(sups, stat, out=sups)
        if thresholds is not None:
            passage[(stat >= thresholds[:, None]) & (passage == 0)] = k
        if n_keep:
            paths[:, :, k - 1] = stat[:, :n_keep].T
        x_prev = x
    drift = None
    if task.change is not None:
        drift = ((S - S_before) / (H - at_k + 1)).T[ok]
    kept = [(b * BLOCK_SIZE + i, paths[i]) for i in range(n_keep) if ok[i]]
    return _failure_names(fit), sups.T[ok], passage.T[ok], drift, kept


def _scalar_logistic(eta: float) -> float:
    # Overflow-safe scalar logistic for the simulation hot loop.
    if eta >= 0.0:
        return 1.0 / (1.0 + math.exp(-eta))
    e = math.exp(eta)
    return e / (1.0 + e)


def simulate_chain(spec, length, rng, x0):
    """`model.simulate_chain` with one numpy-scalar step per transition: the
    covariate block, then up to N_MAX_BERNOULLI a (length, n) block of
    uniforms, a count being the number of its row's entries below p, and
    above it one binomial draw per step at p clipped inside (0, 1)."""
    b = spec.beta
    w = spec.exo.draw(rng, length, b.l)
    offset = b.phi0 + (w @ np.asarray(b.gamma_exo) if b.l else np.zeros(length))
    n = spec.n
    u = rng.random((length, n)) if n <= N_MAX_BERNOULLI else None
    x = np.empty(length + 1, dtype=np.int64)
    x[0] = x0
    phi1 = b.phi1
    state = int(x0)
    for t in range(length):
        p = _scalar_logistic(offset[t] + phi1 * state)
        if u is not None:
            state = int((u[t] < p).sum())
        else:
            state = int(rng.binomial(n, _clamp_prob(p)))
        x[t + 1] = state
    return x, w
