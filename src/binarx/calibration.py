"""Monte-Carlo critical values for the monitoring statistic.

Under no change, the supremum of the weighted monitoring statistic converges
to sup_{0 < s <= N} rho^2(s, gamma) (W1(s) - s W2(1))' A (W1(s) - s W2(1)),
where W1 and W2 are independent Wiener processes sharing the score covariance
Sigma.  Each replication discretizes the supremum on a grid of `grid_m`
points per unit time: the partial sums of grid_m * N i.i.d. Normal(0, Sigma)
vectors divided by sqrt(grid_m) simulate W1, and one extra draw simulates
W2(1).  The critical value c(gamma, alpha) is the empirical (1 - alpha)
quantile of the replicated suprema.

Tables are calibrated for the metric A = Sigma^{-1} only: writing W = L B
for the Cholesky factor L of Sigma turns the quadratic form into a plain
squared norm of standard-normal partial sums, so the thresholds do not depend
on Sigma at all.  Tables use this whitened form directly, which makes the
independence exact.  A table's critical values hold only for that metric; at
any horizon they follow from its N by Brownian scaling (ThresholdTable.lookup).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._artifacts import open_csv, read_rows, write_csv
from .defaults import (
    DEFAULT_ALPHAS,
    DEFAULT_CALIBRATION_REPS,
    DEFAULT_GAMMAS,
    DEFAULT_GRID_M,
    DEFAULT_HORIZON,
    DEFAULT_SEED,
    MAX_POINTS,
)
from .exceptions import ConfigError, ThresholdUnavailableError
from ._parallel import map_over_reps

_TABLE_HEADER = ("gamma", "alpha", "c", "reps", "grid_m", "N", "seed")


def _check_gamma(gamma: float, field: str = "gamma") -> None:
    if not 0.0 <= gamma < 0.5:
        raise ConfigError(field, f"gamma must lie in [0, 0.5), got {gamma}")


def _check_alpha(alpha: float, field: str = "alpha") -> None:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(field, f"alpha must lie in (0, 1), got {alpha}")


def _check_listed_once(values, field: str) -> None:
    """Refuse the first repeated entry, a name quoted and a number as is."""
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        shown = repr(repeated) if isinstance(repeated, str) else repeated
        raise ConfigError(field, f"entry {shown} is listed more than once")


def _check_levels(gammas, alphas) -> None:
    """A study's or a table's level lists: neither empty, every entry in range
    and listed once."""
    for name, values, check in (("gammas", gammas, _check_gamma),
                                 ("alphas", alphas, _check_alpha)):
        if not values:
            raise ConfigError(name, "must not be empty")
        for value in values:
            check(value, name)
        _check_listed_once(values, name)


def _check_positive(value: float, field: str) -> None:
    if not value > 0:
        raise ConfigError(field, f"must be > 0, got {value}")


def _check_finite_positive(value: float, field: str) -> None:
    if not 0 < value < math.inf:
        raise ConfigError(field, f"must be finite and > 0, got {value}")


def _rho(s, gamma: float):
    """Weight shape rho(s, gamma) = s^(-gamma) * (s + 1)^(gamma - 1), s > 0:
    strictly decreasing in s; gamma in [0, 1/2) tunes how much early
    monitoring points are amplified."""
    return s ** (-gamma) * (s + 1.0) ** (gamma - 1.0)


def horizon_steps(horizon: float, per_unit: int, point: str = "monitored point at m") -> int:
    """Close-end horizon floor(N * per_unit), guarded against float rounding.
    The one horizon rule: N finite and > 0, and from 1 to MAX_POINTS points
    (the budget of one replication); `point` names the unit in the refusal."""
    _check_finite_positive(horizon, "horizon")
    points = horizon * per_unit
    if points > MAX_POINTS:
        # The shortest repr that reads back as `points`: a count just above
        # the budget never prints as the budget itself.
        raise ConfigError("horizon", f"{horizon} x {per_unit} = {points!r} points, "
                                     f"above the budget of {MAX_POINTS} per replication")
    steps = int(np.floor(horizon * per_unit + 1e-9))
    if steps < 1:
        raise ConfigError("horizon", f"{horizon} leaves no {point}={per_unit}")
    return steps


@dataclass(frozen=True)
class CalibrationConfig:
    """Settings for one threshold computation.

    `dim` is the dimension of the score vector (coefficient count l + 2).
    `horizon` is the table's N; consumers rescale it to their own horizon
    (ThresholdTable.lookup), so `binarx calibrate` and studies use N = 3.
    """

    dim: int = 3
    horizon: float = DEFAULT_HORIZON
    grid_m: int = DEFAULT_GRID_M
    reps: int = DEFAULT_CALIBRATION_REPS
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    master_seed: int = DEFAULT_SEED
    steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, low in (("dim", 1), ("grid_m", 100), ("reps", 100)):
            if getattr(self, name) < low:
                raise ConfigError(name, f"must be >= {low}, got {getattr(self, name)}")
        object.__setattr__(self, "steps",
                           horizon_steps(self.horizon, self.grid_m, "grid point at grid_m"))
        _check_levels(self.gammas, self.alphas)


@dataclass(frozen=True)
class ThresholdTable:
    """Critical values keyed by (gamma, alpha), with the recipe metadata.

    Every c must be > 0: a NaN would switch the monitor off, and a c <= 0
    would alarm at the first point.  inf, a cell that never alarms, is allowed.
    N, which scales every cell to another horizon, must be finite and > 0.
    """

    entries: dict
    reps: int
    grid_m: int
    horizon: float
    master_seed: int

    def __post_init__(self):
        _check_finite_positive(self.horizon, "N")
        for (g, a), c in self.entries.items():
            _check_positive(c, f"c at gamma={g}, alpha={a}")

    def lookup(self, gamma: float, alpha: float, horizon: float | None = None) -> float:
        """c(gamma, alpha) at `horizon` (None: the stored cell, at N).  The
        no-change limit is sup_{u <= T} u^(-2 gamma) |W_d(u)|^2, T = N / (1 + N)
        (Horvath, Huskova, Kokoszka & Steinebach, JSPI 2004), so by Brownian
        scaling the cell at N' is the cell at N times (T'/T)^(1 - 2 gamma).
        A finite cell whose rescale is not finite and > 0 (at an N so small
        that T'/T overflows) is refused."""
        key = (float(gamma), float(alpha))
        if key not in self.entries:
            raise ThresholdUnavailableError(
                f"no threshold for gamma={gamma}, alpha={alpha} in table")
        horizon = self.horizon if horizon is None else horizon
        _check_finite_positive(horizon, "horizon")
        c = self.entries[key]
        # Each T in (0, 1) on its own, so no product overflows at a huge N.
        ratio = (horizon / (1.0 + horizon)) / (self.horizon / (1.0 + self.horizon))
        rescaled = c * ratio ** (1.0 - 2.0 * key[0])
        if c < math.inf and not 0 < rescaled < math.inf:
            raise ThresholdUnavailableError(
                f"c={c} at gamma={gamma}, alpha={alpha} rescales from N={self.horizon} "
                f"to horizon {horizon} as {rescaled}")
        return rescaled


def _sup_rep_worker(shared: tuple, rep_index: int) -> np.ndarray:
    """Replication rep_index's supremum at every gamma.  Stream contract: it
    draws from (master_seed, r), the (steps, dim) W1 increments, then W2(1).
    The whitened path |B1(s) - s B2(1)|^2 equals the path of Normal(0, sigma)
    draws in the metric A = sigma^{-1}; every gamma shares it."""
    config, s, rho_sq = shared
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed, rep_index)))
    eps, eps2 = rng.standard_normal((config.steps, config.dim)), rng.standard_normal(config.dim)
    D = np.cumsum(eps, axis=0) / np.sqrt(config.grid_m) - s[:, None] * eps2
    return (rho_sq * np.einsum("kd,kd->k", D, D)).max(axis=1)


def _sup_samples(config: CalibrationConfig, threads: int = 1) -> np.ndarray:
    """(reps, len(gammas)) matrix of supremum samples under common streams.

    The grid s = k / grid_m and the squared weight shapes, one (gammas,
    steps) array, are computed once and shared by every replication.
    """
    s = np.arange(1, config.steps + 1) / config.grid_m
    rho_sq = np.array([_rho(s, g) ** 2 for g in config.gammas]).reshape(-1, s.size)
    return np.vstack(map_over_reps(_sup_rep_worker, (config, s, rho_sq), config.reps, threads))


def quantile_higher(values: np.ndarray, q: float) -> float:
    """Empirical quantile, 'higher' convention: smallest value with CDF >= q.

    The tiny guard keeps q * size from crossing an integer boundary through
    float rounding alone (e.g. q = 1 - 1/size must select the minimum).
    """
    u = np.sort(np.asarray(values, dtype=float))
    idx = int(np.ceil(q * u.size - 1e-9)) - 1
    return float(u[min(max(idx, 0), u.size - 1)])


def threshold_table(config: CalibrationConfig, threads: int = 1) -> ThresholdTable:
    """Critical values for every (gamma, alpha) cell of the config.

    All gammas share each replication's random numbers, so the table is
    monotone in gamma sample-wise, and monotonicity in alpha holds exactly
    because every alpha reads the same sorted sample.
    """
    for a in config.alphas:
        if config.reps * a < 5:
            warnings.warn(
                f"reps*alpha = {config.reps * a:.1f} < 5: tail quantile is unstable",
                stacklevel=2,
            )
    sups = _sup_samples(config, threads)
    entries = {}
    for j, g in enumerate(config.gammas):
        for a in config.alphas:
            entries[(float(g), float(a))] = quantile_higher(sups[:, j], 1.0 - a)
    return ThresholdTable(
        entries=entries,
        reps=config.reps,
        grid_m=config.grid_m,
        horizon=config.horizon,
        master_seed=config.master_seed,
    )


def write_threshold_table(table: ThresholdTable, path) -> None:
    """CSV with columns gamma,alpha,c,reps,grid_m,N,seed, one row per cell,
    sorted by gamma ascending, then alpha descending."""
    meta = (table.reps, table.grid_m, float(table.horizon), table.master_seed)
    cells = sorted(table.entries.items(), key=lambda cell: (cell[0][0], -cell[0][1]))
    write_csv(path, _TABLE_HEADER, ((float(g), float(a), float(c), *meta) for (g, a), c in cells))


def read_threshold_table(path) -> ThresholdTable:
    """Read a table written by write_threshold_table; every row must hold its
    own (gamma, alpha) cell, a c > 0, a finite N > 0 and the first row's
    recipe (reps, grid_m, N, seed)."""
    entries = {}
    first = None  # the first row's recipe

    def parse(row):
        nonlocal first
        key = (float(row[0]), float(row[1]))
        recipe = (int(row[3]), int(row[4]), float(row[5]), int(row[6]))
        if key in entries:
            raise ValueError(f"repeats the cell gamma={key[0]}, alpha={key[1]}")
        _check_finite_positive(recipe[2], "N")
        first = first or recipe
        if recipe != first:
            raise ValueError(f"recipe (reps, grid_m, N, seed) = {recipe} differs from the "
                             f"first row's {first}")
        c = float(row[2])
        _check_positive(c, "c")
        entries[key] = c

    with open_csv(path) as fh:
        read_rows(fh, _TABLE_HEADER, parse)
        if not entries:
            raise ValueError("threshold table is empty")
    return ThresholdTable(entries, *first)
