import numpy as np
import pytest

import concurrent.futures
import json
import math
import warnings
from dataclasses import replace

from scipy.special import expit

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
    STREAM_CONTRACT,
    _aux_metric,
    _start,
    _start_cdf,
    run_consistency,
    run_normality,
    write_report,
)
from binarx.model import ExogenousSpec, SeriesSample, stationary_oracle
from binarx.monitoring import weight
from loop_reference import monitor_block as per_step_monitor_block
from loop_reference import train_window as per_step_train_window
from streaming_reference import state_with_metric

SPEC = default_model_spec()
CHANGE = ChangePoint(at_k=11, new_beta=ParamVector(-1.0, 0.2, (0.4,)))
# n > 30 takes the burn-in start instead of the exact stationary one.
SPEC_N40 = ModelSpec(n=40, beta=ParamVector(-1.0, 0.02, (0.4,)), exo=SPEC.exo)


def _contract_block(seed, kind, i, b, size, steps, spec=SPEC, burn_in=500, change_at=None,
                    new_beta=None):
    """Block b's chains under stream contract 2, rebuilt with numpy alone.

    Returns x of shape (steps + 1, size) and w of shape (steps, size, l);
    transition t (1-based) uses `new_beta` from t = change_at on.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, kind, i, b)))
    if spec.n <= 30 and spec.beta.l <= 2:
        _, pmf = stationary_oracle(spec)
        cdf = np.cumsum(pmf)
        cdf /= cdf[-1]
        x = np.searchsorted(cdf, rng.random(size), side="right")
        burn_in = 0
    else:
        x = rng.binomial(spec.n, 0.5, size)
    xs, ws = [], []
    for t in range(1 - burn_in, steps + 1):
        if t == 1:
            xs.append(x)
        beta = spec.beta if change_at is None or t < change_at else new_beta
        c = beta.as_array()
        w = spec.exo.draw(rng, size, spec.beta.l)
        x = rng.binomial(spec.n, expit(c[0] + c[1] * x + w @ c[2:]))
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
    x, w = _contract_block(5, 0, 0, 0, size=1, steps=120)
    fit = fit_mple(SeriesSample(x=x[:, 0], w=w[:, 0]), SPEC.n)
    err = fit.beta_hat.as_array() - SPEC.beta.as_array()
    np.testing.assert_allclose(mse, err**2, rtol=1e-12)


def test_later_blocks_follow_the_contract():
    # Reps from BLOCK_SIZE on come from block 1's own stream, sized by the
    # remainder; the estimates keep replication order across blocks.
    report = run_normality(ExperimentConfig(m_list=(100,), reps=BLOCK_SIZE + 3, master_seed=8))
    assert report.failures == 0
    x, w = _contract_block(8, 1, 0, 1, size=3, steps=100)
    for r in range(3):
        fit = fit_mple(SeriesSample(x=x[:, r], w=w[:, r]), SPEC.n)
        np.testing.assert_allclose(report.estimates[BLOCK_SIZE + r], fit.beta_hat.as_array(),
                                   rtol=1e-10)


def test_burn_in_start_reproduces_contract():
    # n = 40 > 30: X0 ~ Bin(n, 1/2), then burn_in lockstep steps over the block.
    cfg = ExperimentConfig(spec=SPEC_N40, m_list=(80,), reps=3, burn_in=50, master_seed=6)
    assert _start_cdf(SPEC_N40) is None
    report = run_consistency(cfg)
    assert report.rows[0][2] == 3
    x, w = _contract_block(6, 0, 0, 0, size=3, steps=80, spec=SPEC_N40, burn_in=50)
    errs = [
        fit_mple(SeriesSample(x=x[:, r], w=w[:, r]), SPEC_N40.n).beta_hat.as_array()
        - SPEC_N40.beta.as_array()
        for r in range(3)
    ]
    np.testing.assert_allclose(report.rows[0][1], np.mean(np.square(errs), axis=0), rtol=1e-10)


def test_exact_start_matches_oracle_pmf():
    _, pmf = stationary_oracle(SPEC)
    rng = np.random.default_rng(41)
    x0 = _start(SPEC, _start_cdf(SPEC), 0, rng, 20_000)
    empirical = np.bincount(x0, minlength=SPEC.n + 1) / x0.size
    assert 0.5 * np.abs(empirical - pmf).sum() < 0.02


def test_consistency_mse_decreases():
    cfg = ExperimentConfig(m_list=(150, 600), reps=25, master_seed=11)
    report = run_consistency(cfg)
    mse_small = report.rows[0][1]
    mse_large = report.rows[1][1]
    assert np.all(mse_large < mse_small)


def test_normality_insufficient_sample_flag():
    cfg = ExperimentConfig(m_list=(100,), reps=2, master_seed=12)
    report = run_normality(cfg)
    assert report.insufficient_sample
    assert np.all(np.isnan(report.qq_corr))


def test_normality_small_run():
    cfg = ExperimentConfig(m_list=(100,), reps=200, master_seed=13)
    report = run_normality(cfg)
    assert report.estimates.shape == (200 - report.failures, 3)
    assert np.all(np.abs(report.bias) < 0.2)
    assert np.all(report.qq_corr > 0.95)
    assert not report.insufficient_sample


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


def test_size_thread_count_invariance(small_table):
    # One full block plus a partial one, so the pool splits work by blocks.
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
    assert calls == []


def test_studies_refuse_a_table_at_another_horizon(small_table):
    # small_table is calibrated at N = 3; its critical values do not hold at N = 2.
    cfg = ExperimentConfig(m_list=(20,), reps=3, gammas=(0.0,), alphas=(0.05,), horizon=2.0,
                           thresholds=small_table, change=CHANGE)
    for run in (run_size, run_power):
        with pytest.raises(ThresholdUnavailableError, match="horizon N=3.0, not 2.0"):
            run(cfg)


def test_study_without_a_table_calibrates_at_the_calibrate_defaults(
        small_table, monkeypatch, tmp_path, capsys):
    seen = []

    def spy(config, threads=1):
        seen.append(config)
        return small_table

    monkeypatch.setattr(experiments, "threshold_table", spy)
    cfg = ExperimentConfig(m_list=(40,), reps=20, gammas=(0.0, 0.4), alphas=(0.1, 0.05),
                           master_seed=23)
    report = run_size(cfg)
    assert seen == [CalibrationConfig(dim=3, horizon=3.0, gammas=(0.0, 0.4), alphas=(0.1, 0.05),
                                      master_seed=23)]
    assert (seen[0].reps, seen[0].grid_m) == (DEFAULT_CALIBRATION_REPS, DEFAULT_GRID_M)
    assert report == run_size(replace(cfg, thresholds=small_table))
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
    # n = 40 starts from Bin(n, 1/2) and burns in; range(-7) would skip that.
    ({"spec": SPEC_N40, "m_list": (80,), "burn_in": -7}, "burn_in"),
])
def test_experiment_config_refuses_out_of_range_settings_when_built(settings, field):
    with pytest.raises(ConfigError) as refused:
        ExperimentConfig(**settings)
    assert refused.value.path == field


def test_change_stream_shape_and_shift():
    change = ChangePoint(at_k=11, new_beta=ParamVector(-1.0, 0.3, (0.4,)))
    args = dict(size=1, steps=400, change_at=100 + change.at_k, new_beta=change.new_beta)
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
    x, w = _contract_block(29, 4, 0, 0, size=3, steps=400, change_at=100 + CHANGE.at_k,
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


# (points per pass, reps, change index, metric source, traces kept); m = 12
# gives a horizon H of 36.  None keeps the pass length the block size gives.
@pytest.mark.parametrize("steps, reps, at_k, a_source, emit_traces", [
    pytest.param(5, 8, None, "aux", 3, id="H-not-a-multiple-of-the-pass"),
    pytest.param(50, 8, None, "aux", 3, id="H-below-one-pass"),
    pytest.param(5, 8, 1, "aux", 2, id="change-at-1"),
    pytest.param(5, 8, 36, "aux", 2, id="change-at-H"),
    pytest.param(5, 8, 6, "aux", 2, id="change-on-a-pass-boundary"),
    pytest.param(5, 8, 5, "aux", 0, id="change-before-a-pass-boundary"),
    pytest.param(5, 8, 7, "aux", 0, id="change-after-a-pass-boundary"),
    pytest.param(5, 8, 7, "training", 2, id="training-metric"),
    pytest.param(None, BLOCK_SIZE + 3, 30, "training", BLOCK_SIZE + 2, id="traces-span-two-blocks"),
])
def test_monitor_block_passes_match_the_per_step_loop(monkeypatch, steps, reps, at_k, a_source,
                                                      emit_traces):
    d = SPEC.beta.dim
    if steps is not None:
        monkeypatch.setattr(experiments, "_CHUNK_ELEMENTS", steps * d * d * reps)
    change = None if at_k is None else ChangePoint(at_k, ParamVector(-0.7, 0.1, (0.4,)))
    cfg = ExperimentConfig(m_list=(12,), reps=reps, master_seed=41, a_source=a_source,
                           emit_traces=emit_traces)
    H = 36
    w2 = np.array([weight(12, np.arange(1, H + 1), g) ** 2 for g in cfg.gammas])
    a_matrix = None if a_source == "training" else _aux_metric(cfg, _start_cdf(SPEC))
    task = experiments._MonitorTask(cfg, 12, 4, 0, _start_cdf(SPEC), w2, a_matrix, change,
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
    np.testing.assert_array_equal(seen["x"], x.T)
    np.testing.assert_array_equal(seen["w"], w.transpose(1, 0, 2))
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
    assert meta["stream_contract"] == STREAM_CONTRACT == 2
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
    for report, m, own in ((cons, "100", {"reps", "m_list", "failures"}),
                           (norm, "100", {"m", "reps_used", "failures", "insufficient_sample"}),
                           (size, "80", {"reps", "cells"}),
                           (power, "80", {"reps", "change_at", "cells"})):
        meta = report.metadata()
        assert set(meta) == shared | own, meta["experiment"]
        assert (meta["stream_contract"], meta["block_size"]) == (2, 256)
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
