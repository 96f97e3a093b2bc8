import numpy as np
import pytest

import concurrent.futures
import json
import math
import warnings
from dataclasses import replace

from scipy.special import expit
from scipy.stats import binom, chi2

from binarx import (
    CalibrationConfig,
    ChangePoint,
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    ParamVector,
    ThresholdUnavailableError,
    default_model_spec,
    fit_mple,
    monitor_init,
    monitor_update,
    run_power,
    run_size,
    threshold_table,
)
from binarx import _parallel, experiments
from binarx.calibration import ThresholdTable
from binarx.cli import run_command
from binarx.defaults import DEFAULT_ALPHAS, DEFAULT_CALIBRATION_REPS, DEFAULT_GAMMAS, DEFAULT_GRID_M
from binarx.experiments import (
    BLOCK_SIZE,
    FAILURE_CLASSES,
    N_MAX_BERNOULLI,
    STREAM_CONTRACT,
    _aux_metric,
    _start,
    _start_cdf,
    run_consistency,
    run_normality,
    write_report,
)
from binarx.model import ExogenousSpec, SeriesSample, simulate_chain, stationary_oracle
from binarx.monitoring import _weight
from loop_reference import monitor_block as per_step_monitor_block
from loop_reference import train_window as per_step_train_window
from streaming_reference import state_with_metric

SPEC = default_model_spec()
CHANGE = ChangePoint(at_k=11, new_beta=ParamVector(-1.0, 0.2, (0.4,)))
# n > 30 takes the burn-in start instead of the exact stationary one.
SPEC_N40 = ModelSpec(n=40, beta=ParamVector(-1.0, 0.02, (0.4,)), exo=SPEC.exo)
# The smallest n whose counts come from one binomial draw, not Bernoulli sums.
SPEC_BINOMIAL = ModelSpec(n=N_MAX_BERNOULLI + 1, beta=ParamVector(-1.0, 0.02, (0.4,)),
                          exo=SPEC.exo)


def _contract_block(seed, kind, i, b, steps, spec=SPEC, change_at=None, new_beta=None):
    """Block b's chains under stream contract 4, rebuilt with numpy alone.

    Every block is drawn whole.  Returns x of shape (steps + 1, BLOCK_SIZE)
    and w of shape (steps, BLOCK_SIZE, l); transition t (1-based) uses
    `new_beta` from t = change_at on.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, kind, i, b)))
    burn_in = spec.burn_in
    if spec.n <= 30 and spec.beta.l <= 2:
        _, pmf = stationary_oracle(spec)
        cdf = np.cumsum(pmf)
        cdf /= cdf[-1]
        x = np.searchsorted(cdf, rng.random(BLOCK_SIZE), side="right")
        burn_in = 0
    else:
        x = rng.binomial(spec.n, 0.5, BLOCK_SIZE)
    xs, ws = [], []
    for t in range(1 - burn_in, steps + 1):
        if t == 1:
            xs.append(x)
        beta = spec.beta if change_at is None or t < change_at else new_beta
        c = beta.as_array()
        w = spec.exo.draw(rng, BLOCK_SIZE, spec.beta.l)
        p = expit(c[0] + c[1] * x + w @ c[2:])
        if spec.n <= N_MAX_BERNOULLI:
            x = (rng.random((spec.n, BLOCK_SIZE)) < p).sum(axis=0)
        else:
            x = rng.binomial(spec.n, p)
        if t >= 1:
            xs.append(x)
            ws.append(w)
    return np.array(xs), np.array(ws)


@pytest.fixture(scope="module")
def small_table():
    cfg = CalibrationConfig(dim=3, reps=2000, grid_m=500, master_seed=7)
    return threshold_table(cfg)


def test_consistency_single_rep_equals_squared_error():
    cfg = ExperimentConfig(m_list=(120,), reps=1, master_seed=5)
    report = run_consistency(cfg)
    m, mse, used, failures, flagged = report.rows[0]
    assert (used, failures, flagged) == (1, 0, False)
    # Reproduce the single replication through the documented stream contract.
    x, w = _contract_block(5, 0, 0, 0, steps=120)
    fit = fit_mple(SeriesSample(x=x[:, 0], w=w[:, 0]), SPEC.n)
    err = fit.beta_hat.as_array() - SPEC.beta.as_array()
    np.testing.assert_allclose(mse, err**2, rtol=1e-12)


def test_later_blocks_follow_the_contract():
    # Reps from BLOCK_SIZE on come from block 1's own stream, drawn whole;
    # the estimates keep replication order across blocks.
    report = run_normality(ExperimentConfig(m_list=(100,), reps=BLOCK_SIZE + 3, master_seed=8))
    assert report.failures == 0
    x, w = _contract_block(8, 1, 0, 1, steps=100)
    for r in range(3):
        fit = fit_mple(SeriesSample(x=x[:, r], w=w[:, r]), SPEC.n)
        np.testing.assert_allclose(report.estimates[BLOCK_SIZE + r], fit.beta_hat.as_array(),
                                   rtol=1e-10)


def test_burn_in_start_reproduces_contract():
    # n = 40 > 30: X0 ~ Bin(n, 1/2), then burn_in lockstep steps over the block.
    spec = replace(SPEC_N40, burn_in=50)
    cfg = ExperimentConfig(spec=spec, m_list=(80,), reps=3, master_seed=6)
    assert _start_cdf(spec) is None
    report = run_consistency(cfg)
    assert report.rows[0][2] == 3
    x, w = _contract_block(6, 0, 0, 0, steps=80, spec=spec)
    errs = [
        fit_mple(SeriesSample(x=x[:, r], w=w[:, r]), SPEC_N40.n).beta_hat.as_array()
        - SPEC_N40.beta.as_array()
        for r in range(3)
    ]
    np.testing.assert_allclose(report.rows[0][1], np.mean(np.square(errs), axis=0), rtol=1e-10)


def test_exact_start_matches_oracle_pmf():
    _, pmf = stationary_oracle(SPEC)
    rng = np.random.default_rng(41)
    x0 = _start(SPEC, _start_cdf(SPEC), rng, 20_000)
    empirical = np.bincount(x0, minlength=SPEC.n + 1) / x0.size
    assert 0.5 * np.abs(empirical - pmf).sum() < 0.02


@pytest.mark.parametrize("n, l, exact", [(30, 2, True), (31, 1, False), (10, 3, False)])
def test_the_exact_start_is_the_oracles_domain(n, l, exact):
    # stationary_oracle states the bound once, naming both limits; the block
    # engine starts exactly wherever the oracle accepts and burns in elsewhere.
    spec = ModelSpec(n=n, beta=ParamVector(-1.0, 0.02, (0.4, -0.3, 0.2)[:l]), exo=SPEC.exo)
    if exact:
        _, pmf = stationary_oracle(spec)
        x0 = _start(spec, _start_cdf(spec), np.random.default_rng(41), 20_000)
        empirical = np.bincount(x0, minlength=n + 1) / x0.size
        assert 0.5 * np.abs(empirical - pmf).sum() < 0.02
    else:
        with pytest.raises(ValueError, match=rf"^stationary_oracle runs only for n <= 30 and "
                                             rf"l <= 2, got n={n}, l={l}$"):
            stationary_oracle(spec)
        assert _start_cdf(spec) is None


def test_consistency_mse_decreases():
    cfg = ExperimentConfig(m_list=(150, 600), reps=25, master_seed=11)
    report = run_consistency(cfg)
    mse_small = report.rows[0][1]
    mse_large = report.rows[1][1]
    assert np.all(mse_large < mse_small)


NORMALITY_COLUMNS = ("mean", "bias", "skew_z", "skew_p", "kurt_z", "kurt_p", "qq_corr")


def test_normality_insufficient_sample_flag():
    cfg = ExperimentConfig(m_list=(100,), reps=2, master_seed=12)
    report = run_normality(cfg)
    assert report.insufficient_sample and report.failures == 0
    # The mapping's keys are the report's columns, in the full run's order.
    assert list(report.diagnostics) == list(NORMALITY_COLUMNS)
    assert np.all(np.isnan([report.diagnostics[c] for c in NORMALITY_COLUMNS[2:]]))


def test_normality_small_run():
    cfg = ExperimentConfig(m_list=(100,), reps=200, master_seed=13)
    report = run_normality(cfg)
    assert report.estimates.shape == (200 - report.failures, 3)
    assert np.all(np.abs(report.diagnostics["bias"]) < 0.2)
    assert np.all(report.diagnostics["qq_corr"] > 0.95)
    assert not report.insufficient_sample
    assert list(report.diagnostics) == list(NORMALITY_COLUMNS)


def test_size_refuses_a_table_built_in_code_with_a_nan_cell():
    # A NaN critical value never alarms: the study would report a size of 0.
    cells = {(g, a): math.nan for g in DEFAULT_GAMMAS for a in DEFAULT_ALPHAS}
    with pytest.raises(ConfigError, match="c at gamma=0.0, alpha=0.1: must be > 0, got nan"):
        run_size(ExperimentConfig(m_list=(100,), reps=40, horizon=3.0,
                                  thresholds=ThresholdTable(cells, 2000, 1000, 3.0, 0)))


def test_size_zero_rejections_at_infinite_threshold():
    table = ThresholdTable(
        entries={(0.0, 0.05): float("inf")}, reps=100, grid_m=1000, horizon=3.0, master_seed=0
    )
    cfg = ExperimentConfig(
        m_list=(80,), reps=20, gammas=(0.0,), alphas=(0.05,), master_seed=14, thresholds=table
    )
    report = run_size(cfg)
    assert report.rows[0][4] == 0.0


def test_size_report_shape_and_determinism(small_table):
    cfg = ExperimentConfig(
        m_list=(80,), reps=30, gammas=(0.0, 0.4), alphas=(0.1, 0.05),
        master_seed=15, thresholds=small_table,
    )
    a = run_size(cfg)
    b = run_size(cfg)
    assert a.rows == b.rows
    assert len(a.rows) == 4
    for row in a.rows:
        assert 0.0 <= row[4] <= 1.0


def _advance_counts(spec, rng, size):
    table = experiments._linear_table(spec.n, spec.beta)
    x = np.zeros(size // 4, dtype=np.int64)
    return np.concatenate([experiments._advance(spec, table, x, rng)[1] for _ in range(4)])


def _chain_counts(spec, rng, size):
    return simulate_chain(spec, size, rng, 0)[0][1:]


@pytest.mark.parametrize("n, simulator", [
    pytest.param(N_MAX_BERNOULLI, _advance_counts, id="bernoulli-sums"),
    pytest.param(N_MAX_BERNOULLI + 1, _advance_counts, id="binomial-draw"),
    pytest.param(N_MAX_BERNOULLI, _chain_counts, id="chain-bernoulli-sums"),
    pytest.param(N_MAX_BERNOULLI + 1, _chain_counts, id="chain-binomial-draw"),
])
def test_advance_counts_follow_the_binomial_law(n, simulator):
    """Both simulators' counts follow Bin(n, p), on both draw branches: the
    block engine's `_advance` (ids without a prefix, kept from when it was
    the only one tested) and the scalar `simulate_chain` (ids `chain-`).

    No covariate and phi1 = 0, so every step of every chain has
    p = logistic(-0.5).  The pmf of 10^5 counts against Bin(n, p), cells
    with expectation below 5 pooled into the tails, by a chi-square test at
    a fixed seed.
    """
    spec = ModelSpec(n=n, beta=ParamVector(-0.5, 0.0), exo=ExogenousSpec())
    counts = simulator(spec, np.random.default_rng(47), 100_000)
    pmf = binom.pmf(np.arange(n + 1), n, expit(-0.5))
    expected = counts.size * pmf
    live = np.nonzero(expected >= 5)[0]
    lo, hi = live[0], live[-1]
    observed = np.bincount(counts, minlength=n + 1)
    obs = np.concatenate([[observed[:lo + 1].sum()], observed[lo + 1:hi], [observed[hi:].sum()]])
    exp = np.concatenate([[expected[:lo + 1].sum()], expected[lo + 1:hi], [expected[hi:].sum()]])
    stat = ((obs - exp) ** 2 / exp).sum()
    assert chi2.sf(stat, obs.size - 1) > 1e-3


def test_binomial_branch_study_matches_the_loop_and_thread_counts(small_table):
    # n = N_MAX_BERNOULLI + 1 draws its counts with rng.binomial, through the
    # burn-in start, the training window and the monitored horizon.
    cfg = ExperimentConfig(spec=replace(SPEC_BINOMIAL, burn_in=50), m_list=(40,),
                           reps=BLOCK_SIZE + 7, gammas=(0.0, 0.4), alphas=(0.05,), master_seed=44,
                           thresholds=small_table)
    one = run_size(cfg, threads=1)
    assert one.rows == run_size(cfg, threads=2).rows
    assert one.rows[0].reps_used + one.rows[0].failures == BLOCK_SIZE + 7
    H = 120
    w2 = np.array([_weight(40, np.arange(1, H + 1), g) ** 2 for g in cfg.gammas])
    task = experiments._MonitorTask(cfg, 40, 2, 0, None, w2, _aux_metric(cfg, None), None,
                                    np.array([4.0, 8.0]))
    for b in (0, 1):
        got, want = experiments._monitor_block(task, b), per_step_monitor_block(task, b)
        assert got[0] == want[0]
        for i in (1, 2):
            np.testing.assert_array_equal(got[i], want[i])


def test_first_reps_do_not_depend_on_the_rep_count(small_table, tmp_path):
    # Every block is drawn whole, so the first 100 replications of a 300-rep
    # study are those of a 100-rep study, row for row of their traces.
    def traces(reps):
        cfg = ExperimentConfig(m_list=(40,), reps=reps, gammas=(0.0, 0.4), alphas=(0.05,),
                               master_seed=45, thresholds=small_table, emit_traces=100)
        out = tmp_path / str(reps)
        out.mkdir()
        write_report(run_size(cfg), out)
        return (out / "size_traces.csv").read_text().splitlines()

    first = traces(100)
    assert len(first) == 1 + 100 * 2 * 120
    assert traces(300) == first


def test_size_thread_count_invariance(small_table):
    # Two blocks, the second mostly dropped, so the pool splits work by blocks.
    cfg = ExperimentConfig(
        m_list=(80,), reps=BLOCK_SIZE + 7, gammas=(0.0,), alphas=(0.05,),
        master_seed=16, thresholds=small_table,
    )
    assert run_size(cfg, threads=1).rows == run_size(cfg, threads=2).rows


def test_power_thread_count_invariance(small_table):
    cfg = ExperimentConfig(
        m_list=(100,), reps=BLOCK_SIZE + 7, gammas=(0.0, 0.4), alphas=(0.05,),
        master_seed=21, thresholds=small_table, change=CHANGE,
    )
    one, two = run_power(cfg, threads=1), run_power(cfg, threads=2)
    assert repr(one.rows) == repr(two.rows)
    for key in one.delays:
        np.testing.assert_array_equal(one.delays[key], two.delays[key])


def test_power_detects_change_and_orders_delays(small_table):
    cfg = ExperimentConfig(
        m_list=(100,), reps=60, gammas=(0.0, 0.25, 0.4), alphas=(0.05,),
        master_seed=17, thresholds=small_table, change=CHANGE,
    )
    report = run_power(cfg)
    rates = {g: r for (_, g, _, _, r, *_rest) in report.rows}
    means = {g: row[5] for row, g in zip(report.rows, (0.0, 0.25, 0.4))}
    assert all(r == 1.0 for r in rates.values())
    assert means[0.0] >= means[0.25] >= means[0.4]
    # Post-change score drift is a real signal, not noise around zero.
    drift = report.rows[0][10]
    assert np.linalg.norm(drift) > 0.5


def test_power_delay_grows_with_training_size(small_table):
    cfg = ExperimentConfig(
        m_list=(100, 250), reps=60, gammas=(0.0,), alphas=(0.05,),
        master_seed=18, thresholds=small_table, change=CHANGE,
    )
    report = run_power(cfg)
    mean_small = report.rows[0][5]
    mean_large = report.rows[1][5]
    assert mean_large >= mean_small


def test_monitored_horizon_must_hold_a_point(small_table):
    short = ThresholdTable(entries={(0.0, 0.05): 7.0}, reps=100, grid_m=1000, horizon=0.01,
                           master_seed=0)
    with pytest.raises(ValueError, match="no monitored point at m=20"):
        run_size(ExperimentConfig(m_list=(20,), reps=3, gammas=(0.0,), alphas=(0.05,),
                                  horizon=0.01, thresholds=short))
    late = ChangePoint(at_k=61, new_beta=CHANGE.new_beta)
    with pytest.raises(ValueError, match="beyond the horizon 60"):
        run_power(ExperimentConfig(m_list=(20,), reps=3, gammas=(0.0,), alphas=(0.05,),
                                   thresholds=small_table, change=late))


def test_studies_check_cells_and_horizons_before_any_block(small_table, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "_run_blocks", lambda *args: calls.append(args))
    partial = ThresholdTable(entries={(0.0, 0.05): 7.0}, reps=100, grid_m=1000, horizon=3.0,
                             master_seed=0)
    with pytest.raises(ThresholdUnavailableError, match="gamma=0.25"):
        run_size(ExperimentConfig(m_list=(20,), reps=3, gammas=(0.0, 0.25), alphas=(0.05,),
                                  thresholds=partial))
    # at_k = 61 fits the first m's horizon (120) but not the second's (60).
    late = ChangePoint(at_k=61, new_beta=CHANGE.new_beta)
    with pytest.raises(ValueError, match="beyond the horizon 60"):
        run_power(ExperimentConfig(m_list=(40, 20), reps=3, gammas=(0.0,), alphas=(0.05,),
                                   thresholds=small_table, change=late))
    # A power report holds one row per (m, gamma): a second level would be dropped.
    with pytest.raises(ConfigError, match=r"^alphas: a power study runs at one level, "
                                          r"got \[0.1, 0.05\]$"):
        run_power(ExperimentConfig(m_list=(20,), reps=3, gammas=(0.0,), alphas=(0.1, 0.05),
                                   thresholds=small_table, change=CHANGE))
    assert calls == []


def test_studies_rescale_a_table_at_another_horizon(small_table):
    # small_table is calibrated at N = 3; at N' = 1 a study multiplies every
    # cell by (T'/T)^(1 - 2 gamma), T = N / (1 + N).
    cfg = ExperimentConfig(m_list=(20,), reps=3, gammas=(0.0, 0.25, 0.4), alphas=(0.05,),
                           horizon=1.0, thresholds=small_table, change=CHANGE)
    cells = [small_table.lookup(g, 0.05) * (0.5 / 0.75) ** (1.0 - 2.0 * g) for g in cfg.gammas]
    for run in (run_size, run_power):
        assert [r.threshold_c for r in run(cfg).rows] == pytest.approx(cells, rel=1e-15)


def test_study_without_a_table_calibrates_at_the_calibrate_defaults(
        small_table, monkeypatch, tmp_path, capsys):
    seen = []

    def spy(config, threads=1):
        seen.append(config)
        return small_table

    monkeypatch.setattr(experiments, "threshold_table", spy)
    # No table is calibrated at a study's horizon: its own table is the N = 3
    # table, and its cells are looked up at the study's horizon, N' = 1.
    cfg = ExperimentConfig(m_list=(40,), reps=20, gammas=(0.0, 0.4), alphas=(0.1, 0.05),
                           horizon=1.0, master_seed=23)
    report = run_size(cfg)
    assert seen == [CalibrationConfig(dim=3, horizon=3.0, gammas=(0.0, 0.4), alphas=(0.1, 0.05),
                                      master_seed=23)]
    assert (seen[0].reps, seen[0].grid_m) == (DEFAULT_CALIBRATION_REPS, DEFAULT_GRID_M)
    assert [r.threshold_c for r in report.rows] == [
        small_table.lookup(g, a, 1.0) for g in cfg.gammas for a in cfg.alphas]
    # The configs differ in `thresholds` alone, so every other field agrees.
    given = run_size(replace(cfg, thresholds=small_table))
    assert (report.rows, report.traces, report.failures_by_class) == (
        given.rows, given.traces, given.failures_by_class)
    assert len(seen) == 1
    # The recipe is not a study setting: other recipes come in as `thresholds`.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": {"kind": "size", "calibration_reps": 500}}))
    assert run_command(["--config", str(path), "--out", str(tmp_path), "--quiet",
                        "experiment"]) == 2
    assert "config error: experiment.calibration_reps: unknown key" in capsys.readouterr().err


def test_power_requires_change():
    cfg = ExperimentConfig(m_list=(80,), reps=5, master_seed=19)
    with pytest.raises(ValueError):
        run_power(cfg)


def test_power_training_a_source(small_table):
    cfg = ExperimentConfig(
        m_list=(100,), reps=20, gammas=(0.4,), alphas=(0.05,), master_seed=20,
        thresholds=small_table, change=CHANGE, a_source="training",
    )
    report = run_power(cfg)
    assert report.rows[0][4] > 0.9


def test_a_study_takes_its_burn_in_from_the_model_spec():
    with pytest.raises(TypeError):
        ExperimentConfig(spec=SPEC_N40, burn_in=50)
    assert ExperimentConfig(spec=replace(SPEC_N40, burn_in=50)).spec.burn_in == 50


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(m_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(a_source="elsewhere")
    with pytest.raises(ValueError):
        ChangePoint(at_k=0, new_beta=ParamVector(0.0, 0.0))
    with pytest.raises(ValueError):
        ExperimentConfig(change=ChangePoint(at_k=5, new_beta=ParamVector(0.0, 0.0)))


@pytest.mark.parametrize("settings, field", [
    ({"gammas": (0.9,)}, "gammas"),
    ({"alphas": (0.0,)}, "alphas"),
    ({"emit_traces": -1}, "emit_traces"),
    ({"m_list": (20,), "horizon": 0.01}, "horizon"),
    # Named as the config names it: the field is `spec.n`, the key `model.n`.
    ({"spec": replace(SPEC, n=10**15)}, "model.n"),
])
def test_experiment_config_refuses_out_of_range_settings_when_built(settings, field):
    with pytest.raises(ConfigError) as refused:
        ExperimentConfig(**settings)
    assert refused.value.path == field


def test_change_stream_shape_and_shift():
    change = ChangePoint(at_k=11, new_beta=ParamVector(-1.0, 0.3, (0.4,)))
    args = dict(steps=400, change_at=100 + change.at_k, new_beta=change.new_beta)
    x1, w1 = _contract_block(23, 4, 0, 0, **args)
    x2, w2 = _contract_block(23, 4, 0, 0, **args)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(w1, w2)
    x1, w1 = x1[:, 0], w1[:, 0]
    assert x1.size == 401 and w1.shape == (400, 1)
    # The raised AR coefficient lifts the post-change level visibly.
    cut = 100 + change.at_k - 1
    assert x1[cut + 1 :].mean() > x1[: cut + 1].mean() + 0.3


@pytest.mark.parametrize("a_source", ["training", "aux"])
def test_streamed_statistic_matches_monitor_update(small_table, a_source):
    # The block engine scores the horizon in passes; a kept replication's
    # path must equal the streaming monitor fed the same observations.
    cfg = ExperimentConfig(
        m_list=(100,), reps=3, gammas=(0.0, 0.4), alphas=(0.05,), master_seed=29,
        thresholds=small_table, change=CHANGE, a_source=a_source, emit_traces=2,
    )
    report = run_power(cfg)
    x, w = _contract_block(29, 4, 0, 0, steps=400, change_at=100 + CHANGE.at_k,
                           new_beta=CHANGE.new_beta)
    a_matrix = None if a_source == "training" else _aux_metric(cfg, _start_cdf(SPEC))
    assert [(g, rep) for _, g, rep, _ in report.traces] == [(0.0, 0), (0.4, 0), (0.0, 1), (0.4, 1)]
    for _, g, rep, path in report.traces:
        training = SeriesSample(x=x[:101, rep], w=w[:100, rep])
        if a_matrix is None:
            state = monitor_init(training, SPEC.n, horizon=3.0, gamma=g, alpha=0.05,
                                 threshold_source=math.inf)
        else:
            state = state_with_metric(training, SPEC.n, 3.0, g, a_matrix)
        stats = [monitor_update(state, x[100 + k, rep], w[99 + k, rep])[1] for k in range(1, 301)]
        np.testing.assert_allclose(path, stats, rtol=1e-10)


# Models without a covariate (d = 2) and with two (d = 4), beside SPEC's one.
SPEC_L0 = ModelSpec(n=10, beta=ParamVector(-1.0, 0.1), exo=SPEC.exo)
SPEC_L2 = ModelSpec(n=10, beta=ParamVector(-1.0, 0.1, (0.4, -0.3)), exo=SPEC.exo)


# (points per pass, reps, change index, metric source, traces kept, model);
# m = 12 gives a horizon H of 36.  None keeps the pass length the block size
# gives.
@pytest.mark.parametrize("steps, reps, at_k, a_source, emit_traces, spec", [
    pytest.param(5, 8, None, "aux", 3, SPEC, id="H-not-a-multiple-of-the-pass"),
    pytest.param(50, 8, None, "aux", 3, SPEC, id="H-below-one-pass"),
    pytest.param(5, 8, 1, "aux", 2, SPEC, id="change-at-1"),
    pytest.param(5, 8, 36, "aux", 2, SPEC, id="change-at-H"),
    pytest.param(5, 8, 6, "aux", 2, SPEC, id="change-on-a-pass-boundary"),
    pytest.param(5, 8, 5, "aux", 0, SPEC, id="change-before-a-pass-boundary"),
    pytest.param(5, 8, 7, "aux", 0, SPEC, id="change-after-a-pass-boundary"),
    pytest.param(5, 8, 7, "training", 2, SPEC, id="training-metric"),
    pytest.param(None, BLOCK_SIZE + 3, 30, "training", BLOCK_SIZE + 2, SPEC,
                 id="traces-span-two-blocks"),
    pytest.param(5, 8, 6, "aux", 2, SPEC_L0, id="no-covariate"),
    pytest.param(5, 8, 7, "training", 2, SPEC_L2, id="two-covariates-training-metric"),
])
def test_monitor_block_passes_match_the_per_step_loop(monkeypatch, steps, reps, at_k, a_source,
                                                      emit_traces, spec):
    d = spec.beta.dim
    if steps is not None:
        monkeypatch.setattr(experiments, "_CHUNK_ELEMENTS", steps * d * d * reps)
    new_beta = ParamVector(-0.7, 0.1, spec.beta.gamma_exo)
    change = None if at_k is None else ChangePoint(at_k, new_beta)
    cfg = ExperimentConfig(spec=spec, m_list=(12,), reps=reps, master_seed=41, a_source=a_source,
                           emit_traces=emit_traces)
    H = 36
    w2 = np.array([_weight(12, np.arange(1, H + 1), g) ** 2 for g in cfg.gammas])
    a_matrix = None if a_source == "training" else _aux_metric(cfg, _start_cdf(spec))
    task = experiments._MonitorTask(cfg, 12, 4, 0, _start_cdf(spec), w2, a_matrix, change,
                                    np.array([4.0, 8.0, 16.0]))
    for b in range(-(-reps // BLOCK_SIZE)):
        got, want = experiments._monitor_block(task, b), per_step_monitor_block(task, b)
        assert got[0] == want[0]
        for i in (1, 2, 3):
            np.testing.assert_array_equal(got[i], want[i])
        assert [rep for rep, _ in got[4]] == [rep for rep, _ in want[4]]
        for (_, g), (_, w) in zip(got[4], want[4]):
            np.testing.assert_array_equal(g, w)
        assert (got[2] > 0).any()
        assert len(got[4]) == min(max(0, emit_traces - b * BLOCK_SIZE), got[1].shape[0])


# eta reaches below -709.78, where exp(-eta) overflows and p is 0 before the
# clip; n > 30 takes the burn-in start.
SPEC_OVERFLOW = ModelSpec(n=60, beta=ParamVector(10.0, -20.0, (0.4,)), exo=SPEC.exo)
# eta reaches above 36.7, where p rounds to 1 and is clipped at the ceiling;
# n <= 30 takes the exact start.
SPEC_SATURATED = ModelSpec(n=20, beta=ParamVector(-1.0, 2.0, (0.4,)), exo=SPEC.exo)


@pytest.mark.parametrize("spec, reaches", [
    pytest.param(SPEC, lambda eta: True, id="default"),
    pytest.param(SPEC_OVERFLOW, lambda eta: eta.min() < -709.78, id="exp-overflows"),
    pytest.param(SPEC_SATURATED, lambda eta: eta.max() > 36.7, id="p-clipped-at-ceiling"),
    pytest.param(SPEC_L0, lambda eta: True, id="no-covariate"),
    pytest.param(SPEC_L2, lambda eta: True, id="two-covariates"),
])
def test_training_window_matches_the_per_step_loop(monkeypatch, spec, reaches):
    # _start and _train_block's window, bit for bit the per-step replay, with
    # the generator left at the same state and no floating-point warning.
    seen = {}
    monkeypatch.setattr(experiments, "fit_mple_batch",
                        lambda x, w, n: seen.update(x=x.copy(), w=w.copy()))
    cfg = ExperimentConfig(spec=spec, m_list=(40,), reps=9, master_seed=43)
    task = experiments._BlockTask(cfg, 40, 2, 0, _start_cdf(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng, x_last, _ = experiments._train_block(task, 0)
        x, w, want_rng = per_step_train_window(task, 0)
    # The block is drawn whole and its first `reps` windows are fitted.
    np.testing.assert_array_equal(seen["x"], x[:, :9].T)
    np.testing.assert_array_equal(seen["w"], w[:, :9].transpose(1, 0, 2))
    np.testing.assert_array_equal(x_last, x[-1])
    assert rng.bit_generator.state == want_rng.bit_generator.state
    c = spec.beta.as_array()
    assert reaches(c[0] + c[1] * x[:-1] + w @ c[2:])


def test_failures_by_class_in_metadata(tmp_path):
    # A rare-event chain with a short window: many windows hold no success
    # (SeparationError) and some put every success where x_prev is constant.
    spec = ModelSpec(n=1, beta=ParamVector(-2.6, 0.0), exo=ExogenousSpec())
    report = run_consistency(ExperimentConfig(spec=spec, m_list=(10,), reps=60, master_seed=3))
    m, _, used, failures, _ = report.rows[0]
    by_class = report.failures_by_class["10"]
    assert set(by_class) == set(FAILURE_CLASSES)
    assert by_class["SeparationError"] > 0
    assert sum(by_class.values()) == failures == 60 - used
    write_report(report, tmp_path)
    meta = json.loads((tmp_path / "consistency_meta.json").read_text())
    assert meta["failures_by_class"] == {"10": by_class}
    assert meta["stream_contract"] == STREAM_CONTRACT == 4
    assert meta["block_size"] == BLOCK_SIZE == 256


def test_report_csv_writers(tmp_path, small_table):
    cons = run_consistency(ExperimentConfig(m_list=(100,), reps=3, master_seed=24))
    norm = run_normality(ExperimentConfig(m_list=(100,), reps=25, master_seed=25))
    size = run_size(
        ExperimentConfig(m_list=(80,), reps=10, gammas=(0.0,), alphas=(0.05,),
                         master_seed=26, thresholds=small_table, emit_traces=2)
    )
    power = run_power(
        ExperimentConfig(m_list=(80,), reps=10, gammas=(0.0,), alphas=(0.05,),
                         master_seed=27, thresholds=small_table, change=CHANGE)
    )
    for report in (cons, norm, size, power):
        write_report(report, tmp_path)
    for name, lines in (("consistency_report", 4), ("normality_report", 4),
                        ("normality_estimates", 26), ("size_report", 2), ("power_report", 2)):
        content = (tmp_path / f"{name}.csv").read_text().strip().splitlines()
        assert len(content) == lines, name
    assert (tmp_path / "power_report.csv").read_text().splitlines()[0] == (
        "m,gamma,alpha,threshold_c,detection_rate,mean_detect_k,median_detect_k,"
        "reps_used,failures,flagged,drift_phi0,drift_phi1,drift_gamma1"
    )
    assert not (tmp_path / "power_traces.csv").exists()
    traces = (tmp_path / "size_traces.csv").read_text().strip().splitlines()
    assert len(traces) == 1 + 2 * 240  # header + 2 reps x horizon 240
    shared = {"experiment", "master_seed", "stream_contract", "block_size", "failures_by_class"}
    # The values each study's config fixes, then the keys its outcome fills.
    for report, m, fixed, outcome in (
            (cons, "100", {"master_seed": 24, "reps": 3, "m_list": [100]}, {"failures"}),
            (norm, "100", {"master_seed": 25, "m": 100},
             {"reps_used", "failures", "insufficient_sample"}),
            (size, "80", {"master_seed": 26, "reps": 10, "cells": 1}, set()),
            (power, "80", {"master_seed": 27, "reps": 10, "change_at": CHANGE.at_k, "cells": 1},
             set())):
        meta = report.metadata()
        assert set(meta) == shared | set(fixed) | outcome, meta["experiment"]
        assert {k: meta[k] for k in fixed} == fixed, meta["experiment"]
        assert (meta["stream_contract"], meta["block_size"]) == (4, 256)
        assert set(meta["failures_by_class"][m]) == set(FAILURE_CLASSES)


@pytest.mark.parametrize("threads, n_tasks, cpus, workers", [
    (10**6, 5, 2, 2),  # capped by the CPUs
    (10**6, 3, 8, 3),  # capped by the tasks
    (2, 100, 8, 2),
    (4, 100, None, 1),  # CPU count unknown
])
def test_pool_workers_are_capped_by_tasks_and_cpus(monkeypatch, threads, n_tasks, cpus, workers):
    # The recorder stands in for the pool, so no process is started.
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: cpus)
    got = _parallel.map_over_reps(lambda shared, i: shared * i, 3, n_tasks, threads=threads)
    assert got == [3 * i for i in range(n_tasks)]
    assert seen == [workers]
