"""Deseasonalization of weekly rate panels and baseline model comparison.

A panel of per-state weekly rates is reduced to a binomial count series by
comparing each observation against that state's same-week multi-year average:
the count at a week is the number of states whose rate strictly exceeds their
baseline.  The resulting series can then be compared against an i.i.d.
binomial null via AIC and a likelihood-ratio test.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BinomialSeries:
    """Counts in {0..n} with (iso_year, week) labels; n = number of states."""

    x: np.ndarray
    n: int
    labels: tuple

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.int64)
        if np.any(x < 0) or np.any(x > self.n):
            raise ValueError(f"counts must lie in 0..{self.n}")
        if len(self.labels) != x.size:
            raise ValueError("labels must match the series length")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", tuple((int(y), int(w)) for y, w in self.labels))


def binarize_and_sum(panel: RatePanel, baseline: dict, states, window) -> BinomialSeries:
    """Count, week by week, the states whose rate strictly exceeds baseline.

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
    return BinomialSeries(x=np.array(counts, dtype=np.int64), n=len(states), labels=tuple(window))


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


def model_comparison(series: BinomialSeries) -> dict:
    """AIC comparison and LR test: AR(1) on (1, x_{t-1}) vs constant pi.

    Both likelihoods run over the transitions t = 1..T (the AR(1) model
    conditions on x_0, and the constant model is evaluated on the same range
    so the comparison is like for like).  The LR statistic has one degree of
    freedom: the constant model is the AR(1) family pinned at phi1 = 0.
    """
    x = series.x
    if x.size < 2:
        raise ValueError("need at least 2 observations to compare models")
    sample = SeriesSample(x=x, w=np.empty((x.size - 1, 0)))
    fit = fit_mple(sample, series.n)
    ll_ar1 = fit.log_pl

    tail = x[1:]
    pi_hat, ll_simple = _iid_fit(tail, series.n)

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
        "n": series.n,
        "n_obs_compared": int(tail.size),
    }


def write_binomial_series(series: BinomialSeries, path) -> None:
    """CSV with a `# n=...` metadata line, then iso_year,week,x rows."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# n={series.n}\n")
        writer = csv.writer(fh)
        writer.writerow(["iso_year", "week", "x"])
        for (year, week), count in zip(series.labels, series.x):
            writer.writerow([year, week, int(count)])


def read_binomial_series(path) -> BinomialSeries:
    with open_csv(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("# n="):
            raise ValueError(f"expected '# n=...' metadata line, got {first!r}")
        try:
            n = int(first[4:])
        except ValueError:
            raise ValueError(f"line 1: n must be an integer, got {first[4:]!r}") from None

        def parse(row):
            x = int(row[2])
            if not 0 <= x <= n:
                raise ValueError(f"count {x} outside 0..{n}")
            return (int(row[0]), int(row[1])), x

        rows = read_rows(fh, ("iso_year", "week", "x"), parse, lines_before=1)
    return BinomialSeries(x=np.array([x for _, x in rows], dtype=np.int64), n=n,
                          labels=tuple(label for label, _ in rows))
