"""Simulation-study harnesses: consistency, normality, size, and power.

Every harness is deterministic given its master seed (stream contract 2).
Replications run in blocks of BLOCK_SIZE; the last block of a training
length holds the remainder.  Block b at the i-th training length draws from
SeedSequence((master_seed, kind, i, b)) with kind 0=consistency,
1=normality, 2=size, 4=power.  Its chains advance in lockstep: X0 for the
whole block, then at every step the block's covariate rows followed by one
binomial draw over the block.  X0 is drawn from the exact stationary pmf
(inverse CDF of one uniform per chain) when n <= 30 and l <= 2, and from
Bin(n, 1/2) followed by `burn_in` lockstep steps otherwise.  The shared
auxiliary series that pins the monitoring metric uses (master_seed, 3, 0)
with the same start rule, and internally computed threshold tables use the
calibration module's (master_seed, rep) streams.  Workers receive whole
blocks and never share generator state, so thread counts change only wall
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import expit, ndtri

from ._artifacts import write_csv, write_json
from .calibration import CalibrationConfig, ThresholdTable, horizon_steps, threshold_table
from .defaults import (
    DEFAULT_ALPHAS,
    DEFAULT_BURN_IN,
    DEFAULT_CALIBRATION_REPS,
    DEFAULT_GAMMAS,
    DEFAULT_GRID_M,
    DEFAULT_HORIZON,
    DEFAULT_SEED,
    default_model_spec,
)
from .estimation import BatchFit, fit_mple, fit_mple_batch
from .exceptions import BinarxError
from .model import (
    ModelSpec,
    ParamVector,
    SeriesSample,
    _stable_prob,
    simulate_chain,
    stationary_oracle,
)
from .monitoring import inverse_metric, weight
from ._parallel import map_over_reps

_KIND_CONSISTENCY = 0
_KIND_NORMALITY = 1
_KIND_SIZE = 2
_KIND_AUX = 3
_KIND_POWER = 4

# Replications per block, the unit of work and of random streams.
BLOCK_SIZE = 256
# Version of the documented random-stream derivation (README).
STREAM_CONTRACT = 2
# Fit failures counted per class in every report.
FAILURE_CLASSES = ("SeparationError", "SingularHessianError", "NonConvergenceError")
# Transitions in the auxiliary series that pins the shared monitoring metric.
_AUX_LENGTH = 10_000


@dataclass(frozen=True)
class ChangePoint:
    """A coefficient switch at monitored index at_k (the first changed point)."""

    at_k: int
    new_beta: ParamVector

    def __post_init__(self):
        if self.at_k < 1:
            raise ValueError("change point index at_k must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    spec: ModelSpec = field(default_factory=default_model_spec)
    m_list: tuple[int, ...] = (500, 1000, 1500)
    reps: int = 100
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    horizon: float = DEFAULT_HORIZON
    change: ChangePoint | None = None
    master_seed: int = DEFAULT_SEED
    burn_in: int = DEFAULT_BURN_IN
    a_source: str = "aux"
    calibration_reps: int = DEFAULT_CALIBRATION_REPS
    calibration_grid: int = DEFAULT_GRID_M
    thresholds: ThresholdTable | None = None
    emit_traces: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not self.m_list:
            raise ValueError("m_list must not be empty")
        if self.a_source not in ("aux", "training"):
            raise ValueError(f"a_source must be 'aux' or 'training', got {self.a_source!r}")
        if self.change is not None and self.change.new_beta.dim != self.spec.beta.dim:
            raise ValueError("change.new_beta dimension must match the model")


def _param_names(dim: int) -> list[str]:
    return ["phi0", "phi1"] + [f"gamma{i + 1}" for i in range(dim - 2)]


def _contract_meta(failures_by_class: dict) -> dict:
    return {
        "stream_contract": STREAM_CONTRACT,
        "block_size": BLOCK_SIZE,
        "failures_by_class": failures_by_class,
    }


# ---------------------------------------------------------------------------
# Block engine

def _start_cdf(spec: ModelSpec) -> np.ndarray | None:
    """CDF of the stationary pmf for the exact start, or None for burn-in.

    The oracle runs only for n <= 30 and l <= 2: its tensor quadrature has
    66^l points, 66x more at l = 3 than at l = 2.
    """
    if spec.n > 30 or spec.exo.l > 2:
        return None
    _, pmf = stationary_oracle(spec)
    cdf = np.cumsum(pmf)
    return cdf / cdf[-1]


def _advance(spec: ModelSpec, coef: np.ndarray, x: np.ndarray, rng: np.random.Generator):
    """One lockstep transition of a block's chains: covariate rows, then counts."""
    w = spec.exo.draw(rng, x.size)
    return w, rng.binomial(spec.n, _stable_prob(coef[0] + coef[1] * x + w @ coef[2:]))


def _start(spec: ModelSpec, cdf, burn_in: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """X0 of `size` chains: exact stationary draws, or Bin(n, 1/2) then burn-in."""
    if cdf is not None:
        return np.searchsorted(cdf, rng.random(size), side="right")
    x = rng.binomial(spec.n, 0.5, size)
    coef = spec.beta.as_array()
    for _ in range(burn_in):
        _, x = _advance(spec, coef, x, rng)
    return x


@dataclass(frozen=True)
class _BlockTask:
    spec: ModelSpec
    m: int
    reps: int
    master_seed: int
    kind: int
    m_index: int
    burn_in: int
    start_cdf: np.ndarray | None

    @property
    def n_blocks(self) -> int:
        return -(-self.reps // BLOCK_SIZE)


def _train_block(task: _BlockTask, b: int) -> tuple[np.random.Generator, np.ndarray, BatchFit]:
    """Simulate block b's training windows and fit them all.

    Returns the block's generator (positioned after the training window), the
    chains' last counts, and the batched fit.
    """
    size = min(BLOCK_SIZE, task.reps - b * BLOCK_SIZE)
    rng = np.random.default_rng(
        np.random.SeedSequence((task.master_seed, task.kind, task.m_index, b))
    )
    spec = task.spec
    coef = spec.beta.as_array()
    x = np.empty((task.m + 1, size), dtype=np.min_scalar_type(spec.n))
    w = np.empty((task.m, size, spec.exo.l))
    x[0] = _start(spec, task.start_cdf, task.burn_in, rng, size)
    for t in range(task.m):
        w[t], x[t + 1] = _advance(spec, coef, x[t], rng)
    fit = fit_mple_batch(x.T, w.transpose(1, 0, 2), spec.n)
    return rng, x[-1].copy(), fit


def _failure_names(fit: BatchFit) -> list[str]:
    return [type(e).__name__ for e in fit.errors if e is not None]


def _run_blocks(worker, task: _BlockTask, threads: int) -> tuple[list, dict]:
    """Block results in replication order, plus fit failures counted per class.

    Every worker returns its block's failure class names first.
    """
    results = map_over_reps(worker, task, task.n_blocks, threads)
    names = [name for r in results for name in r[0]]
    return results, {cls: names.count(cls) for cls in FAILURE_CLASSES}


# ---------------------------------------------------------------------------
# Consistency and normality

def _fit_block(task: _BlockTask, b: int):
    _, _, fit = _train_block(task, b)
    return _failure_names(fit), fit.beta[fit.ok]


def _fit_estimates(config: ExperimentConfig, kind: int, mi: int, m: int, cdf, threads: int):
    """(estimates of the fitted reps in rep order, failure counts per class)."""
    task = _BlockTask(config.spec, m, config.reps, config.master_seed, kind, mi,
                      config.burn_in, cdf)
    results, by_class = _run_blocks(_fit_block, task, threads)
    est = np.vstack([r[1] for r in results])
    if not est.shape[0]:
        raise BinarxError(f"all {config.reps} fits failed at m={m}")
    return est, by_class


@dataclass(frozen=True)
class ConsistencyReport:
    rows: tuple  # (m, mse vector, reps_used, failures, flagged)
    param_names: tuple[str, ...]
    master_seed: int
    reps: int
    failures_by_class: dict  # str(m) -> {class name: count}

    def metadata(self) -> dict:
        return {
            "experiment": "consistency",
            "master_seed": self.master_seed,
            "reps": self.reps,
            "m_list": [int(m) for m, *_ in self.rows],
            "failures": {str(m): int(f) for m, _, _, f, _ in self.rows},
            **_contract_meta(self.failures_by_class),
        }

    def tables(self) -> dict:
        rows = [(m, name, value, used, failures, flagged)
                for m, mse, used, failures, flagged in self.rows
                for name, value in zip(self.param_names, mse)]
        return {"report": (("m", "param", "mse", "reps_used", "failures", "flagged"), rows)}


def run_consistency(config: ExperimentConfig, threads: int = 1) -> ConsistencyReport:
    """Per-coordinate mean squared error of the MPLE for each training length."""
    beta0 = config.spec.beta.as_array()
    cdf = _start_cdf(config.spec)
    rows = []
    by_m = {}
    for mi, m in enumerate(config.m_list):
        est, by_m[str(m)] = _fit_estimates(config, _KIND_CONSISTENCY, mi, m, cdf, threads)
        failures = config.reps - est.shape[0]
        mse = ((est - beta0) ** 2).mean(axis=0)
        rows.append((m, mse, est.shape[0], failures, failures > 0.01 * config.reps))
    return ConsistencyReport(
        rows=tuple(rows),
        param_names=tuple(_param_names(config.spec.beta.dim)),
        master_seed=config.master_seed,
        reps=config.reps,
        failures_by_class=by_m,
    )


@dataclass(frozen=True)
class NormalityReport:
    m: int
    estimates: np.ndarray
    mean: np.ndarray
    bias: np.ndarray
    skew_z: np.ndarray
    skew_p: np.ndarray
    kurt_z: np.ndarray
    kurt_p: np.ndarray
    qq_corr: np.ndarray
    insufficient_sample: bool
    failures: int
    param_names: tuple[str, ...]
    master_seed: int
    failures_by_class: dict  # str(m) -> {class name: count}

    def metadata(self) -> dict:
        return {
            "experiment": "normality",
            "master_seed": self.master_seed,
            "m": self.m,
            "reps_used": int(self.estimates.shape[0]),
            "failures": self.failures,
            "insufficient_sample": self.insufficient_sample,
            **_contract_meta(self.failures_by_class),
        }

    def tables(self) -> dict:
        cols = ("mean", "bias", "skew_z", "skew_p", "kurt_z", "kurt_p", "qq_corr")
        rows = [(name, *(getattr(self, c)[j] for c in cols))
                for j, name in enumerate(self.param_names)]
        return {"report": (("param", *cols), rows),
                "estimates": (self.param_names, self.estimates)}


def _two_sided_normal_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def run_normality(config: ExperimentConfig, threads: int = 1) -> NormalityReport:
    """Mean of the MPLE plus per-coordinate normality diagnostics.

    Runs at a single training length (m_list must have one entry).
    Diagnostics are large-sample z-tests on skewness and excess kurtosis and
    the correlation of the standardized order statistics with normal
    quantiles.  The raw estimate matrix is part of the report so any external
    multivariate test can be applied to it.  Fewer than 20 usable fits flags
    the sample as insufficient and skips the diagnostics.
    """
    if len(config.m_list) != 1:
        raise ValueError("run_normality uses a single training length")
    m = config.m_list[0]
    B, by_class = _fit_estimates(
        config, _KIND_NORMALITY, 0, m, _start_cdf(config.spec), threads
    )
    failures = config.reps - B.shape[0]
    reps_ok, d = B.shape
    mean = B.mean(axis=0)
    bias = mean - config.spec.beta.as_array()
    insufficient = reps_ok < 20
    nanvec = np.full(d, np.nan)
    if insufficient:
        skew_z = skew_p = kurt_z = kurt_p = qq = nanvec
    else:
        centered = B - mean
        m2 = (centered**2).mean(axis=0)
        m3 = (centered**3).mean(axis=0)
        m4 = (centered**4).mean(axis=0)
        skew = m3 / m2**1.5
        ex_kurt = m4 / m2**2 - 3.0
        skew_z = skew / math.sqrt(6.0 / reps_ok)
        kurt_z = ex_kurt / math.sqrt(24.0 / reps_ok)
        skew_p = np.array([_two_sided_normal_p(z) for z in skew_z])
        kurt_p = np.array([_two_sided_normal_p(z) for z in kurt_z])
        probs = (np.arange(1, reps_ok + 1) - 0.375) / (reps_ok + 0.25)
        quantiles = ndtri(probs)
        qq = np.array(
            [np.corrcoef(np.sort(centered[:, j]) / math.sqrt(m2[j]), quantiles)[0, 1] for j in range(d)]
        )
    return NormalityReport(
        m=m,
        estimates=B,
        mean=mean,
        bias=bias,
        skew_z=skew_z,
        skew_p=skew_p,
        kurt_z=kurt_z,
        kurt_p=kurt_p,
        qq_corr=qq,
        insufficient_sample=insufficient,
        failures=failures,
        param_names=tuple(_param_names(d)),
        master_seed=config.master_seed,
        failures_by_class={str(m): by_class},
    )


# ---------------------------------------------------------------------------
# Monitoring experiments (size and power)

@dataclass(frozen=True)
class _MonitorTask(_BlockTask):
    w2: np.ndarray  # (gammas, horizon) squared weights weight(m, k, gamma)^2
    a_matrix: np.ndarray | None  # None means per-replication training metric
    change: ChangePoint | None
    keep_path: int  # reps below this index also return their statistic paths
    passage_thresholds: np.ndarray | None  # per gamma, for first passage


def _monitor_block(task: _MonitorTask, b: int):
    """One block of monitored replications, scored step by step.

    After the batched training fit, the block's chains run through the
    horizon in lockstep (the change, if any, switching the coefficients at
    monitored index at_k) while the running score sums, the sup of each
    gamma's statistic and the first passages are updated in place; no
    whole-path array is kept.  The statistic agrees with the streaming
    monitor's to rtol 1e-10, not bit for bit: the two paths order their
    floating-point operations differently (array against scalar logistic,
    (A S * S).sum against S @ A @ S, and weights from numpy's vectorised
    power against scalar pow, which differ in the last bits).  The streaming
    path is the one pinned bit for bit.  Returns (failure class names, then
    for the fitted reps in order: sups per gamma, first-passage indices per
    gamma (0 means "no alarm"), post-change score drift or None, and (rep,
    paths) for the kept reps).
    """
    rng, x_prev, fit = _train_block(task, b)
    spec = task.spec
    ok = fit.ok
    size, d = fit.beta.shape
    # Replications run along the last axis: (d, size) sums, (gammas, size) sups.
    beta = np.where(ok[:, None], fit.beta, 0.0).T
    if task.a_matrix is None:
        A = np.broadcast_to(np.eye(d), (size, d, d)).copy()
        A[ok] = inverse_metric(fit.sigma0[ok])
        A = A.transpose(1, 2, 0)
    else:
        A = task.a_matrix
    n_gamma, H = task.w2.shape
    n_keep = min(size, max(0, task.keep_path - b * BLOCK_SIZE))
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
        w, x = _advance(spec, coef, x_prev, rng)
        z[1] = x_prev
        z[2:] = w.T
        S += z * (x - spec.n * expit((z * beta).sum(axis=0)))
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


def _horizons(config: ExperimentConfig, change) -> list[int]:
    """Monitored points H per training length, each checked to hold a point
    and the change; all are checked before any block runs."""
    horizons = [horizon_steps(config.horizon, m) for m in config.m_list]
    for m, H in zip(config.m_list, horizons):
        if H < 1:
            raise ValueError(f"horizon {config.horizon} leaves no monitored point at m={m}")
        if change is not None and change.at_k > H:
            raise ValueError(f"change at_k={change.at_k} beyond horizon {H}")
    return horizons


def _monitor_blocks(config: ExperimentConfig, kind: int, mi: int, m: int, H: int, cdf,
                    a_common, change, thresholds, threads: int):
    """Run every block at training length m with H monitored points; returns
    (per-block results, counts)."""
    kk = np.arange(1, H + 1)
    task = _MonitorTask(
        spec=config.spec,
        m=m,
        reps=config.reps,
        master_seed=config.master_seed,
        kind=kind,
        m_index=mi,
        burn_in=config.burn_in,
        start_cdf=cdf,
        w2=np.array([weight(m, kk, g) ** 2 for g in config.gammas]).reshape(-1, H),
        a_matrix=a_common,
        change=change,
        keep_path=config.emit_traces,
        passage_thresholds=thresholds,
    )
    results, by_class = _run_blocks(_monitor_block, task, threads)
    if not sum(r[1].shape[0] for r in results):
        raise BinarxError(f"all {config.reps} monitored fits failed at m={m}")
    return results, by_class


def _traces(m: int, gammas, results) -> list:
    return [(m, g, rep, paths[j]) for r in results for rep, paths in r[4]
            for j, g in enumerate(gammas)]


def _aux_metric(config: ExperimentConfig, cdf) -> np.ndarray:
    """Metric A = inverse outer-product score covariance from one long series."""
    rng = np.random.default_rng(
        np.random.SeedSequence((config.master_seed, _KIND_AUX, 0))
    )
    x0 = int(_start(config.spec, cdf, config.burn_in, rng, 1)[0])
    x, w = simulate_chain(config.spec, _AUX_LENGTH, rng, x0)
    return inverse_metric(fit_mple(SeriesSample(x=x, w=w), config.spec.n).sigma0_hat)


def _resolve_thresholds(config: ExperimentConfig, threads: int) -> ThresholdTable:
    if config.thresholds is not None:
        config.thresholds.check_horizon(config.horizon)
        return config.thresholds
    calib = CalibrationConfig(
        dim=config.spec.beta.dim,
        horizon=config.horizon,
        grid_m=config.calibration_grid,
        reps=config.calibration_reps,
        gammas=config.gammas,
        alphas=config.alphas,
        master_seed=config.master_seed,
    )
    return threshold_table(calib, threads)


class SizeRow(NamedTuple):
    m: int
    gamma: float
    alpha: float
    threshold_c: float
    rejection_rate: float
    rejections: int
    reps_used: int
    failures: int
    flagged: bool


@dataclass(frozen=True)
class SizeReport:
    rows: tuple[SizeRow, ...]
    traces: tuple
    master_seed: int
    reps: int
    failures_by_class: dict  # str(m) -> {class name: count}

    def metadata(self) -> dict:
        return {
            "experiment": "size",
            "master_seed": self.master_seed,
            "reps": self.reps,
            "cells": len(self.rows),
            **_contract_meta(self.failures_by_class),
        }

    def tables(self) -> dict:
        return _monitor_tables(SizeRow._fields, self.rows, self.traces)


def run_size(config: ExperimentConfig, threads: int = 1) -> SizeReport:
    """No-change rejection frequency per (m, gamma, alpha).

    Every replication simulates a clean training stretch plus the monitored
    horizon, refits, and records whether the weighted statistic ever exceeds
    the calibrated critical value.  All gammas and alphas are evaluated on
    common replication streams.  Every horizon and table cell is checked
    before any replication runs.
    """
    horizons = _horizons(config, None)
    table = _resolve_thresholds(config, threads)
    cells = {(g, a): table.lookup(g, a) for g in config.gammas for a in config.alphas}
    cdf = _start_cdf(config.spec)
    a_common = _aux_metric(config, cdf) if config.a_source == "aux" else None
    rows = []
    traces = []
    by_m = {}
    for mi, (m, H) in enumerate(zip(config.m_list, horizons)):
        results, by_m[str(m)] = _monitor_blocks(
            config, _KIND_SIZE, mi, m, H, cdf, a_common, None, None, threads
        )
        sups = np.vstack([r[1] for r in results])
        used = sups.shape[0]
        failures = config.reps - used
        flagged = failures > 0.01 * config.reps
        for j, g in enumerate(config.gammas):
            for a in config.alphas:
                c = cells[g, a]
                n_reject = int((sups[:, j] >= c).sum())
                rows.append(SizeRow(m, g, a, c, n_reject / used, n_reject, used, failures, flagged))
        traces += _traces(m, config.gammas, results)
    return SizeReport(
        rows=tuple(rows), traces=tuple(traces), master_seed=config.master_seed,
        reps=config.reps, failures_by_class=by_m,
    )


class PowerRow(NamedTuple):
    m: int
    gamma: float
    alpha: float
    threshold_c: float
    detection_rate: float
    mean_detect_k: float
    median_detect_k: float
    reps_used: int
    failures: int
    flagged: bool
    drift: np.ndarray  # post-change score drift per coefficient (drift_<param> columns)


@dataclass(frozen=True)
class PowerReport:
    rows: tuple[PowerRow, ...]
    traces: tuple
    change_at: int
    master_seed: int
    reps: int
    param_names: tuple[str, ...]
    delays: dict  # (m, gamma) -> np.ndarray of detection indices (detected reps only)
    failures_by_class: dict  # str(m) -> {class name: count}

    def metadata(self) -> dict:
        return {
            "experiment": "power",
            "master_seed": self.master_seed,
            "reps": self.reps,
            "change_at": self.change_at,
            "cells": len(self.rows),
            **_contract_meta(self.failures_by_class),
        }

    def tables(self) -> dict:
        header = PowerRow._fields[:-1] + tuple(f"drift_{name}" for name in self.param_names)
        return _monitor_tables(header, [(*r[:-1], *r.drift) for r in self.rows], self.traces)


def run_power(config: ExperimentConfig, threads: int = 1) -> PowerReport:
    """Detection rate and first-passage delay under a coefficient change.

    The change is injected at monitored index `change.at_k`; the alarm level
    is the first entry of config.alphas.  The report also carries the
    post-change empirical score drift: the average of the score terms over
    the monitored points from the change onward, a direct estimate of the
    signal the statistic accumulates.  Every horizon and table cell is
    checked before any replication runs.
    """
    if config.change is None:
        raise ValueError("run_power requires config.change")
    alpha = config.alphas[0]
    horizons = _horizons(config, config.change)
    table = _resolve_thresholds(config, threads)
    thresholds = tuple(table.lookup(g, alpha) for g in config.gammas)
    cdf = _start_cdf(config.spec)
    a_common = _aux_metric(config, cdf) if config.a_source == "aux" else None
    rows = []
    traces = []
    delays_map = {}
    by_m = {}
    for mi, (m, H) in enumerate(zip(config.m_list, horizons)):
        results, by_m[str(m)] = _monitor_blocks(
            config, _KIND_POWER, mi, m, H, cdf, a_common, config.change,
            np.array(thresholds), threads,
        )
        passages = np.vstack([r[2] for r in results])
        used = passages.shape[0]
        failures = config.reps - used
        flagged = failures > 0.01 * config.reps
        drift = np.vstack([r[3] for r in results]).mean(axis=0)
        for j, g in enumerate(config.gammas):
            delays = passages[passages[:, j] > 0, j].astype(float)
            rate = delays.size / used
            mean_k = float(np.mean(delays)) if delays.size else float("nan")
            median_k = float(np.median(delays)) if delays.size else float("nan")
            rows.append(PowerRow(m, g, alpha, thresholds[j], rate, mean_k, median_k, used,
                                 failures, flagged, drift))
            delays_map[(m, g)] = delays
        traces += _traces(m, config.gammas, results)
    return PowerReport(
        rows=tuple(rows),
        traces=tuple(traces),
        change_at=config.change.at_k,
        master_seed=config.master_seed,
        reps=config.reps,
        param_names=tuple(_param_names(config.spec.beta.dim)),
        delays=delays_map,
        failures_by_class=by_m,
    )


# ---------------------------------------------------------------------------
# Report files

def _monitor_tables(header, rows, traces) -> dict:
    """The report table of a size or power study, plus its statistic paths if kept."""
    tables = {"report": (header, rows)}
    if traces:
        tables["traces"] = (("m", "gamma", "rep", "k", "statistic"),
                            ((m, g, rep, k, v) for m, g, rep, stats in traces
                             for k, v in enumerate(stats, start=1)))
    return tables


def write_report(report, out) -> None:
    """Write `<kind>_<name>.csv` for each of the report's tables, then `<kind>_meta.json`."""
    kind = report.metadata()["experiment"]
    for name, (header, rows) in report.tables().items():
        write_csv(out / f"{kind}_{name}.csv", header, rows)
    write_json(out / f"{kind}_meta.json", report.metadata())
