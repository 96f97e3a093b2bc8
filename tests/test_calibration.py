import math

import numpy as np
import pytest
from scipy.stats import binom

from binarx import (CalibrationConfig, ConfigError, ThresholdUnavailableError,
                    read_threshold_table, threshold_table)
from binarx.calibration import (ThresholdTable, _sup_samples, quantile_higher,
                                write_threshold_table)
from calibration_reference import bessel3_sup_tail, sample_sup_functional

SIGMA = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.9]])


def _cfg(**kw):
    base = dict(dim=3, reps=300, grid_m=200, horizon=3.0, master_seed=99,
                gammas=(0.0, 0.25, 0.4), alphas=(0.1, 0.05))
    base.update(kw)
    return CalibrationConfig(**base)


def _explicit_table(cfg, sigma):
    """Table cells from the explicit Cholesky route under Wiener covariance sigma."""
    cells = {}
    for g in cfg.gammas:
        sups = [sample_sup_functional(cfg, g, rep, sigma=sigma) for rep in range(cfg.reps)]
        cells.update({(g, a): quantile_higher(sups, 1.0 - a) for a in cfg.alphas})
    return cells


def test_sample_nonnegative():
    cfg = _cfg()
    assert all(sample_sup_functional(cfg, 0.25, rep) >= 0.0 for rep in range(20))


def test_sample_matches_straight_line_reimplementation():
    # Independent inline re-derivation of the recipe, sharing only the
    # documented (master_seed, rep) stream contract.
    cfg = _cfg(reps=100)
    for rep in (0, 7):
        rng = np.random.default_rng(np.random.SeedSequence((99, rep)))
        steps = int(3.0 * 200)
        eps = rng.standard_normal((steps, 3))
        extra = rng.standard_normal(3)
        s = np.arange(1, steps + 1) / 200
        w1 = np.cumsum(eps, axis=0) / np.sqrt(200)
        diff = w1 - s[:, None] * extra
        gamma = 0.0
        rho2 = (s ** -gamma * (s + 1.0) ** (gamma - 1.0)) ** 2
        expected = (rho2 * (diff * diff).sum(axis=1)).max()
        assert sample_sup_functional(cfg, 0.0, rep) == pytest.approx(expected, abs=1e-12)


def test_sample_sigma_invariance_under_inverse_metric():
    # With A = Sigma^{-1}, a replication computed with covariance Sigma must
    # equal the standard-normal replication to 1e-10 on the same stream.
    standard = _cfg()
    for rep in range(10):
        a = sample_sup_functional(standard, 0.25, rep, sigma=SIGMA)
        b = sample_sup_functional(standard, 0.25, rep)
        assert a == pytest.approx(b, abs=1e-10)


def test_compute_threshold_quantile_edges():
    cfg = _cfg(reps=200, gammas=(0.0,))
    samples = np.array([sample_sup_functional(cfg, 0.0, rep) for rep in range(200)])
    low = threshold_table(_cfg(reps=200, gammas=(0.0,), alphas=(1.0 - 1.0 / 200,)))
    assert low.lookup(0.0, 1.0 - 1.0 / 200) == pytest.approx(samples.min(), abs=1e-12)
    with pytest.warns(UserWarning):
        high = threshold_table(_cfg(reps=200, gammas=(0.0,), alphas=(1e-9,)))
    assert high.lookup(0.0, 1e-9) == pytest.approx(samples.max(), abs=1e-12)


def test_table_monotone_in_alpha_and_gamma():
    table = threshold_table(_cfg(alphas=(0.2, 0.1, 0.05)))
    for g in (0.0, 0.25, 0.4):
        cs = [table.lookup(g, a) for a in (0.2, 0.1, 0.05)]
        assert cs[0] <= cs[1] <= cs[2]
    for a in (0.2, 0.1, 0.05):
        cs = [table.lookup(g, a) for g in (0.0, 0.25, 0.4)]
        assert cs[0] <= cs[1] <= cs[2]


def test_table_reproducible_and_schedule_independent():
    cfg = _cfg()
    serial = threshold_table(cfg, threads=1)
    again = threshold_table(cfg, threads=1)
    parallel = threshold_table(cfg, threads=2)
    assert serial.entries == again.entries
    assert serial.entries == parallel.entries


def test_distribution_freeness_identical_tables():
    # The whitened table equals, cell by cell, the tables of the explicit
    # route under two different Wiener covariances.
    cfg = _cfg()
    table = threshold_table(cfg).entries
    for sigma in (SIGMA, np.diag([5.0, 0.5, 2.0])):
        explicit = _explicit_table(cfg, sigma)
        assert explicit.keys() == table.keys()
        for key, c in table.items():
            assert explicit[key] == pytest.approx(c, abs=1e-10)


def test_threshold_csv_round_trip(tmp_path):
    table = threshold_table(_cfg())
    path = tmp_path / "thresholds.csv"
    write_threshold_table(table, path)
    back = read_threshold_table(path)
    assert back.entries == table.entries
    assert (back.reps, back.grid_m, back.horizon, back.master_seed) == (
        table.reps,
        table.grid_m,
        table.horizon,
        table.master_seed,
    )


def test_threshold_table_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "thresholds.csv"
    path.write_text("gamma,alpha,c,reps,grid_m,N,seed\n\n0.0,0.05,7.0,100,1000,3.0,0\n\n"
                    "0.0,0.01,9.0,100,1000,3.0,0\n\n")
    table = read_threshold_table(path)
    assert table.entries == {(0.0, 0.05): 7.0, (0.0, 0.01): 9.0}
    assert (table.reps, table.grid_m, table.horizon, table.master_seed) == (100, 1000, 3.0, 0)


@pytest.mark.parametrize("rows, message", [
    # Rows calibrated at different N leave the table no one horizon to check.
    (["0.0,0.05,7.0,100,1000,3.0,0", "0.0,0.01,9.0,100,1000,2.0,0"],
     r"line 3: recipe \(reps, grid_m, N, seed\) = \(100, 1000, 2.0, 0\) differs"),
    (["0.0,0.05,7.0,100,1000,3.0,0", "0.0,0.01,9.0,200,1000,3.0,0"], "line 3: recipe"),
    (["0.0,0.05,7.0,100,1000,3.0,0", "0.0,0.05,8.0,100,1000,3.0,0"],
     "line 3: repeats the cell gamma=0.0, alpha=0.05"),
    (["0.0,0.05,seven,100,1000,3.0,0"], "line 2: could not convert"),
    (["0.0,0.05,7.0"], "line 2: expected 7 cells, got 3"),
    ([], "threshold table is empty"),
    # A c that is not > 0 would switch the monitor off (NaN) or on at every step.
    (["0.0,0.05,7.0,100,1000,3.0,0", "0.0,0.01,nan,100,1000,3.0,0"],
     "line 3: c: must be > 0, got nan"),
    (["0.0,0.05,0.0,100,1000,3.0,0"], "line 2: c: must be > 0, got 0.0"),
    (["0.0,0.05,-1.0,100,1000,3.0,0"], "line 2: c: must be > 0, got -1.0"),
    # N scales every cell to another horizon: N = 0 divides by zero, inf and
    # nan give a NaN cell that never alarms, and N in (-1, 0) a complex one.
    (["0.0,0.05,7.0,100,1000,0.0,0"], "line 2: N: must be finite and > 0, got 0.0"),
    (["0.0,0.05,7.0,100,1000,-0.5,0"], "line 2: N: must be finite and > 0, got -0.5"),
    (["0.0,0.05,7.0,100,1000,nan,0"], "line 2: N: must be finite and > 0, got nan"),
    (["0.0,0.05,7.0,100,1000,inf,0"], "line 2: N: must be finite and > 0, got inf"),
], ids=["other-N", "other-reps", "repeated-cell", "non-numeric", "short-row", "empty",
        "nan-c", "zero-c", "negative-c", "zero-N", "negative-N", "nan-N", "inf-N"])
def test_threshold_table_rows_must_agree(tmp_path, rows, message):
    path = tmp_path / "thresholds.csv"
    path.write_text("\n".join(["gamma,alpha,c,reps,grid_m,N,seed", *rows]) + "\n")
    with pytest.raises(ValueError, match=rf"thresholds\.csv: {message}"):
        read_threshold_table(path)


@pytest.mark.parametrize("settings, message", [
    ({"horizon": 0.0}, "horizon: must be finite and > 0, got 0.0"),
    ({"horizon": math.inf}, "horizon: must be finite and > 0, got inf"),
    ({"horizon": 0.0001}, "horizon: 0.0001 leaves no grid point at grid_m=1000"),
    # One replication holds at most MAX_POINTS = 10**6 points.
    ({"horizon": 1e300}, "horizon: 1e+300 x 1000 = 1e+303 points, above the budget of 1000000 "
                         "per replication"),
    ({"horizon": 1e306}, "horizon: 1e+306 x 1000 = inf points, above the budget"),
    ({"horizon": 500.0, "grid_m": 2001},
     "horizon: 500.0 x 2001 = 1000500.0 points, above the budget"),
], ids=["zero", "inf", "no-grid-point", "1e300", "1e306", "500x2001"])
def test_calibration_config_holds_the_horizon_rule(settings, message):
    # Only the API sets a table's horizon; it refuses what horizon_steps
    # refuses, naming the field.
    with pytest.raises(ConfigError) as refused:
        CalibrationConfig(reps=100, **settings)
    assert str(refused.value).startswith(message)


@pytest.mark.parametrize("horizon", [0.0, -0.5, math.nan, math.inf])
def test_a_table_and_its_lookup_refuse_a_horizon_they_cannot_scale(horizon):
    with pytest.raises(ConfigError, match=f"N: must be finite and > 0, got {horizon}"):
        ThresholdTable({(0.0, 0.05): 7.0}, 100, 1000, horizon, 0)
    table = ThresholdTable({(0.0, 0.05): 7.0}, 100, 1000, 3.0, 0)
    with pytest.raises(ConfigError, match=f"horizon: must be finite and > 0, got {horizon}"):
        table.lookup(0.0, 0.05, horizon)


def test_lookup_keeps_the_stored_cells_at_the_table_horizon():
    table = threshold_table(_cfg(reps=100))
    for (g, a), c in table.entries.items():
        assert table.lookup(g, a) == c
        assert table.lookup(g, a, 3.0) == c
        assert table.lookup(g, a, 3) == c


@pytest.mark.parametrize("table_n", [1e308, 5e307])
def test_lookup_rescales_a_table_at_a_huge_n(table_n):
    # T = N / (1 + N) rounds to 1, so the cell at N' = 3 is c (3/4)^(1 - 2 gamma).
    table = ThresholdTable({(0.0, 0.05): 7.0, (0.25, 0.05): 7.0}, 100, 1000, table_n, 0)
    assert table.lookup(0.0, 0.05, 3.0) == 5.25
    assert table.lookup(0.25, 0.05, 3.0) == pytest.approx(7.0 * 0.75 ** 0.5, rel=1e-15)


def test_lookup_refuses_a_finite_cell_it_rescales_out_of_range():
    # At a subnormal N, T'/T overflows: the cell would read inf and never
    # alarm.  An inf cell never alarms at any horizon, so it stays inf.
    table = ThresholdTable({(0.0, 0.05): 7.0, (0.25, 0.05): math.inf}, 100, 1000, 5e-324, 0)
    with pytest.raises(ThresholdUnavailableError) as refused:
        table.lookup(0.0, 0.05, 3.0)
    assert str(refused.value) == ("thresholds: c=7.0 at gamma=0.0, alpha=0.05 rescales from "
                                  "N=5e-324 to horizon 3.0 as inf")
    assert table.lookup(0.25, 0.05, 3.0) == math.inf


@pytest.mark.parametrize("horizon", [1.0, 10.0])
def test_gamma_zero_cells_rescale_to_the_exact_law_at_another_horizon(table10k, horizon):
    # At gamma = 0 the cell at N' is the N = 3 cell times T'/T, T = N / (1 + N).
    # Its exact tail over u <= T' must lie in the band that criterion 05 holds
    # the stored cell to; the factor N'/N puts it far outside.
    t = horizon / (1.0 + horizon)
    for a in (0.1, 0.05, 0.025, 0.01):
        lo, hi = binom.ppf((0.0005, 0.9995), table10k.reps, a) / table10k.reps
        assert lo <= bessel3_sup_tail(table10k.lookup(0.0, a, horizon), t) <= hi, a


def test_rescaled_cells_match_a_table_calibrated_at_the_new_horizon():
    # At gamma > 0 the factor is (T'/T)^(1 - 2 gamma): 0.82 at gamma = 0.25
    # and 0.92 at 0.4 for N = 3 to N' = 1.  The exponent 1 in its place reads
    # 16% to 28% low; Monte-Carlo noise at these reps stays within 5%.
    shared = dict(dim=3, reps=4000, grid_m=100, gammas=(0.25, 0.4), alphas=(0.1, 0.05))
    at_3 = threshold_table(CalibrationConfig(horizon=3.0, **shared))
    at_1 = threshold_table(CalibrationConfig(horizon=1.0, **shared))
    for (g, a), c in at_1.entries.items():
        assert at_3.lookup(g, a, 1.0) == pytest.approx(c, rel=0.08), (g, a)


def test_config_validation():
    with pytest.raises(ValueError):
        CalibrationConfig(dim=3, reps=50)
    with pytest.raises(ValueError):
        CalibrationConfig(dim=3, grid_m=10)
    with pytest.raises(ValueError):
        CalibrationConfig(dim=3, gammas=(0.6,))
    with pytest.raises(ValueError):
        CalibrationConfig(dim=3, alphas=(1.2,))
    with pytest.raises(ValueError):
        sample_sup_functional(_cfg(), 0.0, 0, sigma=np.eye(2))


def test_full_table_tracks_published_values():
    # Loose cross-check of every cell against the published 3x4 grid.  The
    # deeper-tail published cells scatter well beyond their nominal MC error
    # (the gamma=0, alpha<=0.05 cells sit ~6-7 sigma from the recipe's true
    # values), so this asserts regime agreement, not quantile-level accuracy;
    # a wrong dimension or weight shape shifts cells by far more than 1.0.
    published = {
        (0.0, 0.1): 5.6145, (0.0, 0.05): 7.2195, (0.0, 0.025): 8.6995, (0.0, 0.01): 10.0376,
        (0.25, 0.1): 6.9467, (0.25, 0.05): 8.4285, (0.25, 0.025): 9.6381, (0.25, 0.01): 12.3182,
        (0.4, 0.1): 8.8090, (0.4, 0.05): 10.3182, (0.4, 0.025): 11.7566, (0.4, 0.01): 13.7854,
    }
    cfg = CalibrationConfig(dim=3, reps=4000, grid_m=1000, master_seed=2718)
    table = threshold_table(cfg)
    for key, target in published.items():
        assert abs(table.entries[key] - target) < 1.0, key


def test_quantile_convergence_at_production_scale():
    # Doubling the replication count moves c(0, 0.05) by less than 0.2.
    # Replication r draws from (seed, r), so the 10,000-rep calibration is
    # the first 10,000 rows of the 20,000-rep one: one run gives both.
    double = CalibrationConfig(dim=3, reps=20_000, grid_m=1000, gammas=(0.0,),
                               alphas=(0.05,), master_seed=424)
    sups = _sup_samples(double)[:, 0]
    c1 = quantile_higher(sups[:10_000], 1.0 - 0.05)
    c2 = quantile_higher(sups, 1.0 - 0.05)
    assert abs(c1 - c2) < 0.2
