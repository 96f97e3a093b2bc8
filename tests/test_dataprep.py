import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from binarx import MissingBaselineError, PanelCoverageError
from binarx.dataprep import (
    BinomialSeries,
    RatePanel,
    binarize_and_sum,
    chi2_sf,
    compute_baseline,
    model_comparison,
    read_binomial_series,
    write_binomial_series,
)
from binarx.dataprep import _iid_fit
from binarx.model import SeriesSample
from series_kernel import log_pl

# Two states, one baseline year, six evaluation weeks; indicator sums
# enumerated by hand (week 4 exercises the tie-goes-to-zero convention).
FIXTURE_BASE = [
    ("A", 2019, w, 1.0) for w in range(1, 7)
] + [("B", 2019, w, 2.0) for w in range(1, 7)]
FIXTURE_EVAL = [
    ("A", 2020, 1, 1.5), ("A", 2020, 2, 0.5), ("A", 2020, 3, 1.0),
    ("A", 2020, 4, 2.0), ("A", 2020, 5, 0.9), ("A", 2020, 6, 1.1),
    ("B", 2020, 1, 2.5), ("B", 2020, 2, 2.5), ("B", 2020, 3, 1.9),
    ("B", 2020, 4, 2.0), ("B", 2020, 5, 2.1), ("B", 2020, 6, 0.1),
]
FIXTURE_X = [2, 1, 0, 1, 1, 1]
WINDOW = [(2020, w) for w in range(1, 7)]


def _fixture_panel(scale=1.0):
    rows = [(s, y, w, r * scale) for s, y, w, r in FIXTURE_BASE + FIXTURE_EVAL]
    return RatePanel(rows)


def test_baseline_single_year_identity():
    panel = RatePanel([("A", 2019, 1, 3.25)])
    table = compute_baseline(panel, {2019})
    assert table[("A", 1)] == 3.25


def test_baseline_two_year_mean():
    panel = RatePanel([("A", 2018, 1, 1.0), ("A", 2019, 1, 3.0)])
    table = compute_baseline(panel, {2018, 2019})
    assert table[("A", 1)] == 2.0


def test_baseline_missing_lookup():
    panel = RatePanel([("A", 2019, 1, 1.0), ("B", 2020, 1, 1.0)])
    with pytest.raises(MissingBaselineError):
        binarize_and_sum(panel, compute_baseline(panel, {2019}), ["B"], [(2020, 1)])


def test_empty_baseline_names_the_baseline_years():
    # No panel row lies in any baseline year: the error lists those years,
    # sorted and each once.
    panel = RatePanel([("A", 2019, 1, 1.0)])
    with pytest.raises(MissingBaselineError, match=r"^no baseline entry for: any state, as no "
                       r"panel row lies in baseline_years \[2017, 2018\]$"):
        compute_baseline(panel, [2018, 2017, 2018])


def test_missing_lists_show_ten_then_how_many_more():
    pairs = MissingBaselineError([("A", w) for w in range(1, 13)])
    assert str(pairs).endswith("(A, week 9), (A, week 10) and 2 more")
    rates = PanelCoverageError([("A", 2020, w) for w in range(1, 11)])
    assert str(rates).endswith("(A, 2020-W09), (A, 2020-W10)")


def test_binarize_fixture_hand_enumeration():
    panel = _fixture_panel()
    baseline = compute_baseline(panel, {2019})
    series = binarize_and_sum(panel, baseline, ["A", "B"], WINDOW)
    assert series.n == 2
    np.testing.assert_array_equal(series.x, FIXTURE_X)
    assert series.labels == tuple(WINDOW)


def test_binarize_tie_convention_all_zero():
    rows = [("A", 2019, w, 1.0) for w in range(1, 4)] + [
        ("A", 2020, w, 1.0) for w in range(1, 4)
    ]
    panel = RatePanel(rows)
    series = binarize_and_sum(panel, compute_baseline(panel, {2019}), ["A"],
                              [(2020, w) for w in range(1, 4)])
    np.testing.assert_array_equal(series.x, [0, 0, 0])


def test_binarize_all_above_gives_n():
    rows = [("A", 2019, 1, 1.0), ("B", 2019, 1, 1.0),
            ("A", 2020, 1, 2.0), ("B", 2020, 1, 9.0)]
    panel = RatePanel(rows)
    series = binarize_and_sum(panel, compute_baseline(panel, {2019}), ["A", "B"], [(2020, 1)])
    np.testing.assert_array_equal(series.x, [2])


def test_binarize_scale_equivariance():
    base = binarize_and_sum(
        _fixture_panel(), compute_baseline(_fixture_panel(), {2019}), ["A", "B"], WINDOW
    )
    scaled_panel = _fixture_panel(scale=7.5)
    scaled = binarize_and_sum(
        scaled_panel, compute_baseline(scaled_panel, {2019}), ["A", "B"], WINDOW
    )
    np.testing.assert_array_equal(base.x, scaled.x)


def test_binarize_week53_falls_back_to_week52():
    rows = [("A", 2019, 52, 1.0), ("A", 2020, 52, 2.0), ("A", 2020, 53, 0.5)]
    panel = RatePanel(rows)
    series = binarize_and_sum(panel, compute_baseline(panel, {2019}), ["A"],
                              [(2020, 52), (2020, 53)])
    np.testing.assert_array_equal(series.x, [1, 0])


def test_binarize_coverage_errors():
    panel = _fixture_panel()
    baseline = compute_baseline(panel, {2019})
    with pytest.raises(PanelCoverageError):
        binarize_and_sum(panel, baseline, ["A", "B"], [(2020, 7)])
    # State C has an evaluation rate but no baseline-year data at all.
    rows = FIXTURE_BASE + FIXTURE_EVAL + [("C", 2020, 1, 3.0)]
    panel_c = RatePanel(rows)
    with pytest.raises(MissingBaselineError):
        binarize_and_sum(panel_c, compute_baseline(panel_c, {2019}), ["A", "B", "C"], [(2020, 1)])


def test_panel_duplicate_rejected():
    with pytest.raises(ValueError):
        RatePanel([("A", 2019, 1, 1.0), ("A", 2019, 1, 2.0)])


def test_fit_iid_half():
    # The constant-probability fit that model_comparison tests the AR(1) fit against.
    assert _iid_fit(np.full(20, 3), 6)[0] == 0.5


def test_fit_iid_single_observation():
    pi_hat, log_lik = _iid_fit(np.array([3]), 6)
    assert pi_hat == 0.5
    expected = math.log(20.0) + 6.0 * math.log(0.5)
    assert log_lik == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-1.1631508098056809, abs=1e-12)


def test_fit_iid_boundary_flag():
    # All-zero data puts pi_hat on the boundary, where the log likelihood is exactly 0.
    assert _iid_fit(np.zeros(10, dtype=int), 6) == (0.0, 0.0)


_LEGGAUSS_400 = leggauss(400)


def _chi2_sf_df1_oracle(x):
    # Survival via the CDF with t = u^2: P(X <= x) = 2 * Phi-type integral of
    # the standard normal density on [0, sqrt(x)], by 400-node Gauss-Legendre.
    if x == 0:
        return 1.0
    gx, gw = _LEGGAUSS_400
    hi = math.sqrt(x)
    u = 0.5 * hi * (gx + 1.0)
    integrand = 2.0 * np.exp(-0.5 * u**2) / math.sqrt(2.0 * math.pi)
    return 1.0 - float(0.5 * hi * (gw * integrand).sum())


def test_chi2_sf_against_integration_oracle():
    for x in np.linspace(0.0, 50.0, 101):
        assert chi2_sf(float(x)) == pytest.approx(_chi2_sf_df1_oracle(float(x)), abs=1e-8)


def test_chi2_sf_textbook_point():
    assert chi2_sf(3.841) == pytest.approx(0.0500, abs=1e-3)
    assert chi2_sf(3.841) == pytest.approx(_chi2_sf_df1_oracle(3.841), abs=1e-10)


def test_chi2_sf_domain():
    with pytest.raises(ValueError):
        chi2_sf(-1.0)


def _simulated_ar_series(phi0, phi1, n, length, seed):
    rng = np.random.default_rng(seed)
    x = np.empty(length + 1, dtype=np.int64)
    x[0] = rng.binomial(n, 0.5)
    for t in range(length):
        p = 1.0 / (1.0 + math.exp(-(phi0 + phi1 * x[t])))
        x[t + 1] = rng.binomial(n, p)
    return BinomialSeries(x=x, n=n, labels=[(2020, t % 52 + 1) for t in range(length + 1)])


def test_model_comparison_prefers_ar1_on_ar_data():
    series = _simulated_ar_series(-1.5, 0.6, 6, 600, seed=101)
    out = model_comparison(series)
    assert out["aic_simple"] - out["aic_ar1"] > 0
    assert out["lr_stat"] >= 0
    assert out["p_value"] < 1e-6


def test_model_comparison_nesting_and_constrained_identity():
    rng = np.random.default_rng(55)
    for seed in range(6):
        x = rng.binomial(6, 0.4, size=201)
        series = BinomialSeries(x=x, n=6, labels=[(2020, t % 52 + 1) for t in range(201)])
        out = model_comparison(series)
        assert out["ll_ar1"] >= out["ll_simple"] - 1e-6
        # Pinning the AR coefficient at zero with the matching intercept
        # reproduces the constant model's maximum exactly.
        pi = out["pi_hat"]
        constrained = log_pl(
            SeriesSample(x=x, w=np.empty((200, 0))), 6,
            np.array([math.log(pi / (1 - pi)), 0.0]),
        )
        assert constrained == pytest.approx(out["ll_simple"], abs=1e-9)
        assert 2.0 * (out["ll_ar1"] - constrained) == pytest.approx(out["lr_stat"], abs=1e-9)


def test_binomial_series_csv_round_trip(tmp_path):
    series = BinomialSeries(x=np.array([0, 3, 6, 2]), n=6,
                            labels=[(2019, 52), (2019, 53), (2020, 1), (2020, 2)])
    path = tmp_path / "series.csv"
    write_binomial_series(series, path)
    back = read_binomial_series(path)
    np.testing.assert_array_equal(back.x, series.x)
    assert back.n == 6
    assert back.labels == series.labels


def test_rate_panel_csv(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("state,iso_year,week,rate\nA,2019,1,1.25\nA,2019,2,0.5\n")
    panel = RatePanel.from_csv(path)
    assert panel.get("A", 2019, 1) == 1.25
    bad = tmp_path / "bad.csv"
    bad.write_text("state,year,week,rate\nA,2019,1,1.0\n")
    with pytest.raises(ValueError):
        RatePanel.from_csv(bad)
