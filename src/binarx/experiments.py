"""Simulation-study harnesses: consistency, normality, size, and power.

Every harness is deterministic given its master seed (stream contract 4).
Replications run in blocks of BLOCK_SIZE, each drawn whole: a study keeps
its first `reps` replications, so their draws do not depend on `reps`.
Block b at the i-th training length draws from
SeedSequence((master_seed, kind, i, b)) with kind 0=consistency,
1=normality, 2=size, 4=power.  Its chains advance in lockstep: X0 for the
whole block, then at every step the block's covariate rows followed by the
counts, each the number of its chain's n uniforms below p when
n <= N_MAX_BERNOULLI, and one binomial draw over the block otherwise.  X0 is
drawn from the exact stationary pmf (inverse CDF of one uniform per chain)
wherever `stationary_oracle` accepts the model, and from Bin(n, 1/2)
followed by `spec.burn_in` lockstep steps otherwise.  The shared auxiliary
series that pins the monitoring metric uses (master_seed, 3, 0) with the
same start rule, and internally computed threshold tables use the
calibration module's (master_seed, rep) streams.  Workers get whole blocks
and share no generator state, so thread counts change only wall time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy

from ._artifacts import write_csv, write_json
from .calibration import (CalibrationConfig, ThresholdTable, _check_levels, _check_listed_once,
                          horizon_steps, threshold_table)
from .defaults import (
    DEFAULT_ALPHAS,
    DEFAULT_GAMMAS,
    DEFAULT_HORIZON,
    DEFAULT_SEED,
    MAX_POINTS,
    default_model_spec,
)
from .estimation import (_CHUNK_ELEMENTS, BatchFit, _residual, fit_mple, fit_mple_batch,
                         inverse_metric)
from .exceptions import BinarxError, ConfigError
from .model import (
    N_MAX_BERNOULLI,
    ModelSpec,
    ParamVector,
    SeriesSample,
    _clip_prob,
    _logistic_of_negated,
    simulate_chain,
    stationary_oracle,
)
from .monitoring import _weight
from ._parallel import map_over_reps

_KIND_CONSISTENCY = 0
_KIND_NORMALITY = 1
_KIND_SIZE = 2
_KIND_AUX = 3
_KIND_POWER = 4

# Replications per block, the unit of work and of random streams.  Every
# block is drawn whole.
BLOCK_SIZE = 256
# Version of the documented random-stream derivation (README).
STREAM_CONTRACT = 4
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
            raise ConfigError("at_k", f"must be >= 1, got {self.at_k}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Study settings; `spec` holds the model and its burn-in.  Every m_list
    entry's horizon, in any kind of study, must hold a monitored point and
    the change; no entry, horizon or binomial total n may exceed MAX_POINTS
    points; ConfigError names the field (n as the config's `model.n`)."""

    spec: ModelSpec = field(default_factory=default_model_spec)
    m_list: tuple[int, ...] = (500, 1000, 1500)
    reps: int = 100
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    horizon: float = DEFAULT_HORIZON
    change: ChangePoint | None = None
    master_seed: int = DEFAULT_SEED
    a_source: str = "aux"
    thresholds: ThresholdTable | None = None
    emit_traces: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        d = self.spec.beta.dim
        for name, low in (("reps", 1), ("emit_traces", 0)):
            if getattr(self, name) < low:
                raise ConfigError(name, f"must be >= {low}, got {getattr(self, name)}")
        if not self.m_list:
            raise ConfigError("m_list", "must not be empty")
        if min(self.m_list) < d + 1:
            raise ConfigError("m_list", f"entry {min(self.m_list)} is below {d + 1}, "
                                        "the fewest transitions that fit the model")
        if self.spec.n > MAX_POINTS:
            raise ConfigError("model.n", f"binomial total {self.spec.n} is above the budget of "
                                        f"{MAX_POINTS} points")
        if max(self.m_list) > MAX_POINTS:
            raise ConfigError("m_list", f"entry {max(self.m_list)} is above the budget of "
                                        f"{MAX_POINTS} points")
        _check_listed_once(self.m_list, "m_list")
        _check_levels(self.gammas, self.alphas)
        if self.a_source not in ("aux", "training"):
            raise ConfigError("a_source", f"must be 'aux' or 'training', got {self.a_source!r}")
        change = self.change
        if change is not None and change.new_beta.dim != d:
            raise ConfigError("change.beta", f"{change.new_beta.dim} entries, the model has {d}")
        for m in self.m_list:
            H = horizon_steps(self.horizon, m)
            if change is not None and change.at_k > H:
                raise ConfigError("change.at_k",
                                  f"{change.at_k} is beyond the horizon {H} at m={m}")


def _usage(reps: int, used: int) -> tuple[int, int, bool]:
    """(reps used, failed fits, flagged): a training length is flagged when
    more than 1% of its fits failed."""
    failures = reps - used
    return used, failures, failures > 0.01 * reps


@dataclass(frozen=True)
class _Report:
    """What every experiment report records: its config and its failed fits.

    A report kind names itself in `experiment` and adds its own metadata
    keys in `_meta()`.
    """

    config: ExperimentConfig
    failures_by_class: dict  # str(m) -> {class name: count}

    @property
    def param_names(self) -> tuple[str, ...]:
        return ("phi0", "phi1") + tuple(f"gamma{i + 1}" for i in range(self.config.spec.beta.dim - 2))

    def metadata(self) -> dict:
        return {
            "experiment": self.experiment,
            "master_seed": self.config.master_seed,
            **self._meta(),
            "stream_contract": STREAM_CONTRACT,
            "block_size": BLOCK_SIZE,
            "failures_by_class": self.failures_by_class,
        }


# ---------------------------------------------------------------------------
# Block engine

def _start_cdf(spec: ModelSpec) -> np.ndarray | None:
    """CDF of the stationary pmf for the exact start, or None for burn-in:
    the start is exact wherever `stationary_oracle` accepts the model."""
    try:
        _, pmf = stationary_oracle(spec)
    except ValueError:
        return None
    cdf = np.cumsum(pmf)
    return cdf / cdf[-1]


def _linear_table(n: int, beta: ParamVector) -> tuple[np.ndarray, np.ndarray]:
    """What `_advance` reads of the coefficients, negated: -(phi0 + phi1 * x)
    for x = 0..n, and minus the covariate coefficients."""
    coef = -beta.as_array()
    return coef[0] + coef[1] * np.arange(n + 1), coef[2:]


def _advance(spec: ModelSpec, table, x: np.ndarray, rng: np.random.Generator):
    """One lockstep transition of a block's chains: covariate rows, then counts.

    `table` is `_linear_table` of the coefficients in force, so the sum below
    is -eta, bit for bit the negation of phi0 + phi1 x + w'gamma (np.dot
    adds the products as `@` does, in fewer calls).  Up to N_MAX_BERNOULLI a
    count is the number of a chain's n uniforms, drawn as an (n, chains)
    array, that fall below its p, summed as uint8 (n <= 40 fits); above it,
    one binomial draw over the block, whose parameter check wants p clipped
    inside (0, 1).  The caller holds np.errstate(over="ignore") for its
    whole loop.
    """
    neg_base, neg_gamma = table
    w = spec.exo.draw(rng, x.size, spec.beta.l)
    u = neg_base[x]
    u += np.dot(w, neg_gamma)
    p = _logistic_of_negated(u)
    if spec.n <= N_MAX_BERNOULLI:
        return w, np.add.reduce(rng.random((spec.n, x.size)) < p, axis=0, dtype=np.uint8)
    return w, rng.binomial(spec.n, _clip_prob(p))


def _start(spec: ModelSpec, cdf, rng: np.random.Generator, size: int) -> np.ndarray:
    """X0 of `size` chains: exact stationary draws, or Bin(n, 1/2) then `spec.burn_in` steps."""
    if cdf is not None:
        return np.searchsorted(cdf, rng.random(size), side="right")
    x = rng.binomial(spec.n, 0.5, size)
    table = _linear_table(spec.n, spec.beta)
    with np.errstate(over="ignore"):
        for _ in range(spec.burn_in):
            _, x = _advance(spec, table, x, rng)
    return x


@dataclass(frozen=True)
class _BlockTask:
    config: ExperimentConfig
    m: int
    kind: int
    m_index: int
    start_cdf: np.ndarray | None


def _train_block(task: _BlockTask, b: int) -> tuple[np.random.Generator, np.ndarray, BatchFit]:
    """Simulate block b's training windows, all BLOCK_SIZE of them, and fit
    the ones below `reps`.

    Returns the block's generator (positioned after the training window),
    every chain's last count, and the batched fit of the kept replications.
    """
    config = task.config
    rng = np.random.default_rng(
        np.random.SeedSequence((config.master_seed, task.kind, task.m_index, b))
    )
    spec = config.spec
    table = _linear_table(spec.n, spec.beta)
    x = np.empty((task.m + 1, BLOCK_SIZE), dtype=np.min_scalar_type(spec.n))
    w = np.empty((task.m, BLOCK_SIZE, spec.beta.l))
    x[0] = _start(spec, task.start_cdf, rng, BLOCK_SIZE)
    with np.errstate(over="ignore"):
        for t in range(task.m):
            w[t], x[t + 1] = _advance(spec, table, x[t], rng)
    kept = config.reps - b * BLOCK_SIZE
    fit = fit_mple_batch(x[:, :kept].T, w[:, :kept].transpose(1, 0, 2), spec.n)
    return rng, x[-1].copy(), fit


def _failure_names(fit: BatchFit) -> list[str]:
    return [type(e).__name__ for e in fit.errors if e is not None]


def _run_blocks(worker, task: _BlockTask, threads: int) -> tuple[list, dict]:
    """Block results in replication order, plus fit failures counted per class.

    Every worker returns its block's failure class names first.  A training
    length at which every fit failed is a ConfigError naming `m_list`.
    """
    reps = task.config.reps
    results = map_over_reps(worker, task, -(-reps // BLOCK_SIZE), threads)
    names = [name for r in results for name in r[0]]
    if len(names) == reps:
        raise ConfigError("m_list", f"all {reps} fits failed at m={task.m}")
    return results, {cls: names.count(cls) for cls in FAILURE_CLASSES}


# ---------------------------------------------------------------------------
# Consistency and normality

def _fit_block(task: _BlockTask, b: int):
    _, _, fit = _train_block(task, b)
    return _failure_names(fit), fit.beta[fit.ok]


def _fit_estimates(config: ExperimentConfig, kind: int, mi: int, m: int, cdf, threads: int):
    """(estimates of the fitted reps in rep order, failure counts per class)."""
    results, by_class = _run_blocks(_fit_block, _BlockTask(config, m, kind, mi, cdf), threads)
    return np.vstack([r[1] for r in results]), by_class


@dataclass(frozen=True)
class ConsistencyReport(_Report):
    rows: tuple  # (m, mse vector, reps_used, failures, flagged)
    experiment = "consistency"

    def _meta(self) -> dict:
        return {
            "reps": self.config.reps,
            "m_list": [int(m) for m, *_ in self.rows],
            "failures": {str(m): int(f) for m, _, _, f, _ in self.rows},
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
        mse = ((est - beta0) ** 2).mean(axis=0)
        rows.append((m, mse, *_usage(config.reps, est.shape[0])))
    return ConsistencyReport(config=config, failures_by_class=by_m, rows=tuple(rows))


@dataclass(frozen=True)
class NormalityReport(_Report):
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
    experiment = "normality"

    def _meta(self) -> dict:
        return {
            "m": self.config.m_list[0],
            "reps_used": int(self.estimates.shape[0]),
            "failures": self.failures,
            "insufficient_sample": self.insufficient_sample,
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
        raise ConfigError("m_list", f"normality runs at one training length, got "
                                    f"{list(config.m_list)}")
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
        quantiles = scipy.special.ndtri(probs)
        qq = np.array(
            [np.corrcoef(np.sort(centered[:, j]) / math.sqrt(m2[j]), quantiles)[0, 1] for j in range(d)]
        )
    return NormalityReport(
        config=config,
        failures_by_class={str(m): by_class},
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
    )


# ---------------------------------------------------------------------------
# Monitoring experiments (size and power)

@dataclass(frozen=True)
class _MonitorTask(_BlockTask):
    w2: np.ndarray  # (gammas, horizon) squared weights _weight(m, k, gamma)^2
    a_matrix: np.ndarray | None  # None means per-replication training metric
    change: ChangePoint | None
    passage_thresholds: np.ndarray | None  # per gamma, for first passage


def _monitor_block(task: _MonitorTask, b: int):
    """One block of monitored replications, scored one pass at a time.

    After the batched training fit, all the block's chains run through the
    horizon in lockstep, one `_advance` per monitored point, the change (if
    any) switching the coefficients at monitored index at_k.  A pass keeps
    the counts and covariate rows of up to `steps` points in reused buffers,
    then scores the kept replications at once: -eta term by term, the score
    increments r, x r and w_j r into one reused buffer, the running sums
    added row by row from the carried S, each gamma's statistic, the sups,
    the first passages and the kept paths.  A pass ends at at_k - 1, so the
    change and the sum before it fall on a pass boundary.  Every sum adds in
    the order of the per-step loop it replaced (tests/loop_reference.py), so
    the results are the same bits.  The statistic agrees with the streaming
    monitor's to rtol 1e-10, not bit for bit: the two paths order their
    floating-point operations differently (array against scalar logistic,
    (A S * S).sum against S @ A @ S, and weights from numpy's vectorised
    power against scalar pow, which differ in the last bits).  The streaming
    path is the one pinned bit for bit.  Returns (failure class names, then for the
    fitted reps in order: sups per gamma, first-passage indices per gamma
    (0 means "no alarm"), post-change score drift or None, and (rep, paths)
    for the kept reps).  A singular training metric is a ConfigError naming
    `a_source`.
    """
    rng, x_prev, fit = _train_block(task, b)
    spec = task.config.spec
    ok = fit.ok
    size, d = fit.beta.shape  # the kept replications
    # Replications run along the last axis: (d, size) sums, (gammas, size) sups,
    # and a leading axis of monitored points within a pass.
    neg_beta = -np.where(ok[:, None], fit.beta, 0.0).T
    if task.a_matrix is None:
        A = np.broadcast_to(np.eye(d), (size, d, d)).copy()
        try:
            A[ok] = inverse_metric(fit.sigma0[ok])
        except np.linalg.LinAlgError:
            raise ConfigError("a_source", f"a training metric at m={task.m} is singular; "
                                          "'aux' pins one metric for every replication") from None
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
    # Points per pass: its largest array, the (steps, d, d, size) product of a
    # per-replication metric, holds at most a Newton chunk's entries.
    steps = max(1, _CHUNK_ELEMENTS // (d * d * size))
    x = np.empty((steps + 1, BLOCK_SIZE), dtype=np.int64)
    w = np.empty((steps, BLOCK_SIZE, d - 2))
    path_buffer = np.empty((steps, d, size))
    x[0] = x_prev
    table = _linear_table(spec.n, spec.beta)
    at_k = task.change.at_k if task.change is not None else H + 1
    k = 1
    while k <= H:
        if k == at_k:
            table = _linear_table(spec.n, task.change.new_beta)
            S_before = S
        end = min(k + steps, at_k if k < at_k else H + 1, H + 1)
        pts = end - k
        xs, y, path = x[:pts, :size], x[1:pts + 1, :size], path_buffer[:pts]
        with np.errstate(over="ignore"):
            for t in range(pts):
                w[t], x[t + 1] = _advance(spec, table, x[t], rng)
            # -eta term by term, in the order in which the per-step loop sums
            # z beta over z = (1, x, w): negating each term is exact, so these
            # are that sum's bits, negated.
            u = xs * neg_beta[1]
            u += neg_beta[0]
            for j in range(2, d):
                u += w[:pts, :size, j - 2] * neg_beta[j]
            p = _logistic_of_negated(u)
        r = _residual(y, p, spec.n, path[:, 0])
        np.multiply(xs, r, out=path[:, 1])
        for j in range(2, d):
            np.multiply(w[:pts, :size, j - 2], r, out=path[:, j])
        # The running sums, one row at a time: cumsum's additions, in its order.
        path[0] += S
        for t in range(1, pts):
            path[t] += path[t - 1]
        AS = A @ path if A.ndim == 2 else (A * path[:, None]).sum(axis=2)
        AS *= path
        stat = task.w2[:, k - 1:end - 1, None] * AS.sum(axis=1)
        np.maximum(sups, stat.max(axis=1), out=sups)
        if thresholds is not None:
            hit = stat >= thresholds[:, None, None]
            first = (passage == 0) & hit.any(axis=1)
            passage[first] = k + hit.argmax(axis=1)[first]
        if n_keep:
            paths[:, :, k - 1:end - 1] = stat[:, :, :n_keep].transpose(2, 0, 1)
        S = path[-1].copy()
        x[0] = x[pts]
        k = end
    drift = None
    if task.change is not None:
        drift = ((S - S_before) / (H - at_k + 1)).T[ok]
    kept = [(b * BLOCK_SIZE + i, paths[i]) for i in range(n_keep) if ok[i]]
    return _failure_names(fit), sups.T[ok], passage.T[ok], drift, kept


def _aux_metric(config: ExperimentConfig, cdf) -> np.ndarray:
    """Metric A = inverse outer-product score covariance from one long series.
    A series the model cannot be fitted on is a ConfigError naming `a_source`."""
    rng = np.random.default_rng(
        np.random.SeedSequence((config.master_seed, _KIND_AUX, 0))
    )
    x0 = int(_start(config.spec, cdf, rng, 1)[0])
    x, w = simulate_chain(config.spec, _AUX_LENGTH, rng, x0)
    try:
        fit = fit_mple(SeriesSample(x=x, w=w), config.spec.n)
    except BinarxError as exc:
        raise ConfigError("a_source", f"the auxiliary series does not fit: {exc}") from None
    return inverse_metric(fit.sigma0_hat)


def _monitor_study(config: ExperimentConfig, kind: int, change, threads: int):
    """Run the blocks of a size or power study at every training length.

    ExperimentConfig has checked that every horizon holds a monitored point
    and the change.  Every table cell is looked up at the study's horizon
    before any block runs; a table the config does not give is calibrated
    here, at the CalibrationConfig defaults (N = 3, reps, grid_m; another
    recipe is passed in as `thresholds`).  First passages are tracked only
    under a change, at a power study's one level.
    Returns the cells {(gamma, alpha): c}; per training length (m, sups,
    first-passage indices, score drifts or None), one row per fitted rep;
    and the report fields both studies share.
    """
    horizons = [horizon_steps(config.horizon, m) for m in config.m_list]
    table = config.thresholds
    if table is None:
        table = threshold_table(CalibrationConfig(
            dim=config.spec.beta.dim,
            gammas=config.gammas,
            alphas=config.alphas,
            master_seed=config.master_seed,
        ), threads)
    cells = {(g, a): table.lookup(g, a, config.horizon)
             for g in config.gammas for a in config.alphas}
    cdf = _start_cdf(config.spec)
    a_common = _aux_metric(config, cdf) if config.a_source == "aux" else None
    passage = None
    if change is not None:
        passage = np.array([cells[g, config.alphas[0]] for g in config.gammas])
    studies, traces, by_m = [], [], {}
    for mi, (m, H) in enumerate(zip(config.m_list, horizons)):
        kk = np.arange(1, H + 1)
        w2 = np.array([_weight(m, kk, g) ** 2 for g in config.gammas]).reshape(-1, H)
        task = _MonitorTask(config, m, kind, mi, cdf, w2, a_common, change, passage)
        results, by_m[str(m)] = _run_blocks(_monitor_block, task, threads)
        sups, passages = (np.vstack([r[i] for r in results]) for i in (1, 2))
        drifts = None if change is None else np.vstack([r[3] for r in results])
        studies.append((m, sups, passages, drifts))
        traces += [(m, g, rep, paths[j]) for r in results for rep, paths in r[4]
                   for j, g in enumerate(config.gammas)]
    return cells, studies, {"config": config, "failures_by_class": by_m, "traces": tuple(traces)}


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
class SizeReport(_Report):
    rows: tuple[SizeRow, ...]
    traces: tuple
    experiment = "size"

    def _meta(self) -> dict:
        return {"reps": self.config.reps, "cells": len(self.rows)}

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
    cells, studies, fields = _monitor_study(config, _KIND_SIZE, None, threads)
    rows = []
    for m, sups, _, _ in studies:
        used, failures, flagged = _usage(config.reps, sups.shape[0])
        for j, g in enumerate(config.gammas):
            for a in config.alphas:
                c = cells[g, a]
                n_reject = int((sups[:, j] >= c).sum())
                rows.append(SizeRow(m, g, a, c, n_reject / used, n_reject, used, failures, flagged))
    return SizeReport(rows=tuple(rows), **fields)


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
class PowerReport(_Report):
    rows: tuple[PowerRow, ...]
    traces: tuple
    delays: dict  # (m, gamma) -> np.ndarray of detection indices (detected reps only)
    experiment = "power"

    def _meta(self) -> dict:
        return {"reps": self.config.reps, "change_at": self.config.change.at_k,
                "cells": len(self.rows)}

    def tables(self) -> dict:
        header = PowerRow._fields[:-1] + tuple(f"drift_{name}" for name in self.param_names)
        return _monitor_tables(header, [(*r[:-1], *r.drift) for r in self.rows], self.traces)


def run_power(config: ExperimentConfig, threads: int = 1) -> PowerReport:
    """Detection rate and first-passage delay under a coefficient change.

    The change is injected at monitored index `change.at_k`.  A power study
    runs at one level: config.alphas holds one entry, and more than one is a
    ConfigError naming `alphas`.  The report also carries the
    post-change empirical score drift: the average of the score terms over
    the monitored points from the change onward, a direct estimate of the
    signal the statistic accumulates.  Every horizon and table cell is
    checked before any replication runs.
    """
    if config.change is None:
        raise ConfigError("change", "required for the power experiment")
    if len(config.alphas) != 1:
        raise ConfigError("alphas", f"a power study runs at one level, got {list(config.alphas)}")
    alpha = config.alphas[0]
    cells, studies, fields = _monitor_study(config, _KIND_POWER, config.change, threads)
    rows = []
    delays_map = {}
    for m, _, passages, drifts in studies:
        used, failures, flagged = _usage(config.reps, passages.shape[0])
        drift = drifts.mean(axis=0)
        for j, g in enumerate(config.gammas):
            delays = passages[passages[:, j] > 0, j].astype(float)
            rate = delays.size / used
            mean_k = float(np.mean(delays)) if delays.size else float("nan")
            median_k = float(np.median(delays)) if delays.size else float("nan")
            rows.append(PowerRow(m, g, alpha, cells[g, alpha], rate, mean_k, median_k, used,
                                 failures, flagged, drift))
            delays_map[(m, g)] = delays
    return PowerReport(rows=tuple(rows), delays=delays_map, **fields)


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
