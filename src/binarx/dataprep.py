"""Deseasonalization of weekly rate panels and baseline model comparison.

A panel of per-state weekly rates is reduced to a binomial count series by
comparing each observation against that state's same-week multi-year average:
the count at a week is the number of states whose rate strictly exceeds their
baseline.  The resulting counts can then be compared against an i.i.d.
binomial null via AIC and a likelihood-ratio test.
"""

from __future__ import annotations

import numpy as np
import scipy

from ._artifacts import open_csv, read_rows
from .estimation import fit_mple
from .exceptions import MissingBaselineError, PanelCoverageError
from .model import SeriesSample, log_binom


class RatePanel:
    """Weekly rates keyed by (state, iso_year, week); duplicates rejected."""

    def __init__(self, rows=()):
        self._index: dict[tuple[str, int, int], float] = {}
        for row in rows:
            self._add(row)

    def _add(self, row) -> None:
        """Check one (state, iso_year, week, rate) row and index its rate."""
        state, year, week, rate = str(row[0]), int(row[1]), int(row[2]), float(row[3])
        if not 1 <= week <= 53:
            raise ValueError(f"week must be in 1..53, got {week}")
        if not np.isfinite(rate) or rate < 0:
            raise ValueError(f"rate must be finite and >= 0, got {rate}")
        key = (state, year, week)
        if key in self._index:
            raise ValueError(f"duplicate panel entry for {key}")
        self._index[key] = rate

    def get(self, state: str, iso_year: int, week: int) -> float | None:
        return self._index.get((state, iso_year, week))

    def items(self):
        return self._index.items()

    @classmethod
    def from_csv(cls, path) -> "RatePanel":
        panel = cls()
        with open_csv(path) as fh:
            read_rows(fh, ("state", "iso_year", "week", "rate"), panel._add)
        return panel


def compute_baseline(panel: RatePanel, baseline_years) -> dict:
    """Arithmetic mean rate per (state, week-of-year) over the baseline years."""
    years = set(baseline_years)
    sums: dict[tuple[str, int], list[float]] = {}
    for (state, year, week), rate in panel.items():
        if year in years:
            sums.setdefault((state, week), []).append(rate)
    if not sums:
        raise MissingBaselineError((), years=sorted(years))
    return {key: float(np.mean(v)) for key, v in sums.items()}


def binarize_and_sum(panel: RatePanel, baseline: dict, states, window) -> np.ndarray:
    """Count, week by week, the states whose rate strictly exceeds baseline:
    an int64 array with one entry per week of `window`, each in 0..len(states).

    `baseline` maps (state, week-of-year) to a rate, as compute_baseline
    returns it.  Ties count as not exceeding, and week 53 of a long ISO year
    is compared against the week-52 baseline.  `window` is an ordered sequence of
    (iso_year, week) labels; any gap in panel coverage or baseline entries
    raises before a partial series can leak out.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    missing_rates = []
    missing_base = []
    counts = []
    for year, week in window:
        total = 0
        for state in states:
            rate = panel.get(state, year, week)
            if rate is None:
                missing_rates.append((state, year, week))
                continue
            mapped = min(week, 52)
            base = baseline.get((state, mapped))
            if base is None:
                missing_base.append((state, mapped))
                continue
            total += 1 if rate > base else 0
        counts.append(total)
    if missing_rates:
        raise PanelCoverageError(missing_rates)
    if missing_base:
        raise MissingBaselineError(sorted(set(missing_base)))
    return np.array(counts, dtype=np.int64)


def _iid_fit(x: np.ndarray, n: int) -> tuple[float, float]:
    """Constant-probability estimate pi_hat = sum(x) / (n T) and its log likelihood."""
    pi = float(x.sum()) / (n * x.size)
    return pi, float(np.sum(log_binom(n, x) + scipy.special.xlogy(x, pi)
                             + scipy.special.xlogy(n - x, 1.0 - pi)))


def chi2_sf(x: float) -> float:
    """Chi-square survival function at one degree of freedom, the LR test's."""
    if x < 0:
        raise ValueError("chi-square statistic must be >= 0")
    return float(scipy.special.gammaincc(0.5, x / 2.0))


def model_comparison(x: np.ndarray, n: int) -> dict:
    """AIC comparison and LR test of the counts `x` in 0..n: AR(1) on
    (1, x_{t-1}) vs constant pi.

    Both likelihoods run over the transitions t = 1..T (the AR(1) model
    conditions on x_0, and the constant model is evaluated on the same range
    so the comparison is like for like).  The LR statistic has one degree of
    freedom: the constant model is the AR(1) family pinned at phi1 = 0.
    """
    if x.size < 2:
        raise ValueError("need at least 2 observations to compare models")
    fit = fit_mple(SeriesSample(x), n)
    ll_ar1 = fit.log_pl

    tail = x[1:]
    pi_hat, ll_simple = _iid_fit(tail, n)

    lr = 2.0 * (ll_ar1 - ll_simple)
    return {
        "aic_simple": 2.0 - 2.0 * ll_simple,
        "aic_ar1": fit.aic,
        "lr_stat": lr,
        "p_value": chi2_sf(max(lr, 0.0)),
        "pi_hat": pi_hat,
        "ll_simple": ll_simple,
        "ll_ar1": ll_ar1,
        "beta_hat_ar1": list(fit.beta_hat.as_array()),
        "n": n,
        "n_obs_compared": int(tail.size),
    }

