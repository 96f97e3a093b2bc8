import math

import numpy as np
import pytest

from binarx import (
    CalibrationConfig,
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    MonitoringTerminatedError,
    ParamVector,
    ThresholdUnavailableError,
    default_model_spec,
    fit_mple,
    monitor_init,
    monitor_run,
    monitor_update,
    simulate_series,
)
from binarx.calibration import ThresholdTable, _rho
from binarx.estimation import inverse_metric
from binarx.monitoring import _weight
from series_kernel import score
from streaming_reference import replay, score_step, state_with_metric, weight_0d

SPEC = default_model_spec()


def _training(m=300, seed=50):
    return simulate_series(SPEC, m, seed=seed)


def _stream_sample(length, seed, init):
    return simulate_series(SPEC, length, seed=seed, init=init)


def _stream_iter(sample):
    return zip(sample.x[1:], sample.w)


def test_rho_at_one_gamma_zero():
    assert _rho(1.0, 0.0) == 0.5


def test_rho_at_one_gamma_quarter():
    assert _rho(1.0, 0.25) == pytest.approx(2.0 ** -0.75, abs=1e-15)
    assert _rho(1.0, 0.25) == pytest.approx(0.5946035575013605, abs=1e-12)


def test_rho_strictly_decreasing():
    s = np.linspace(0.01, 6.0, 500)
    for gamma in (0.0, 0.25, 0.4):
        vals = np.array([_rho(v, gamma) for v in s])
        assert np.all(np.diff(vals) < 0)


def test_weight_examples():
    assert _weight(100, 100, 0.0) == pytest.approx(0.05, abs=1e-15)
    assert _weight(100, 1, 0.0) == pytest.approx(0.1 / 1.01, abs=1e-15)


def test_weight_matches_rho_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(1, 2000))
        k = int(rng.integers(1, 5000))
        gamma = float(rng.uniform(0.0, 0.499))
        lhs = _weight(m, k, gamma)
        rhs = m ** -0.5 * _rho(k / m, gamma)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_weight_int_k_matches_0d_array_bits():
    # The streaming monitor's weight, `_weight` in Python floats, must give
    # exactly the bits of the same expression on a 0-d array.
    for m in (50, 300, 1500):
        for gamma in (0.0, 0.25, 0.4):
            got = [_weight(m, k, gamma) for k in range(1, 3 * m + 1)]
            assert all(type(v) is float for v in got)
            assert got == [weight_0d(m, k, gamma) for k in range(1, 3 * m + 1)]
            assert got[m - 1] == _weight(m, np.asarray(m), gamma)


def test_monitor_init_fresh_state():
    state = monitor_init(_training(), SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=7.0)
    assert state.k == 0
    assert state.alarm_at is None
    np.testing.assert_array_equal(state.running_sum, np.zeros(3))
    assert state.config.horizon_steps == 900


def test_monitor_init_zero_score_identity():
    training = _training()
    state = monitor_init(training, SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=7.0)
    assert np.abs(score(training, SPEC.n, state.beta_hat)).max() < 1e-8


def test_monitor_init_a_policies():
    # monitor_init always measures with inverse Sigma0, the metric tables are
    # calibrated for; a monitor assembled directly needs a 3x3 SPD metric.
    training = _training()
    default = monitor_init(training, SPEC.n, horizon=2.0, gamma=0.0, alpha=0.05,
                           threshold_source=math.inf)
    assert np.linalg.eigvalsh(default.config.a_matrix).min() > 0
    np.testing.assert_array_equal(default.config.a_matrix,
                                  inverse_metric(fit_mple(training, SPEC.n).sigma0_hat))
    with pytest.raises(TypeError):
        monitor_init(training, SPEC.n, horizon=2.0, gamma=0.0, alpha=0.05,
                     a_matrix=np.eye(3), threshold_source=1.0)
    asymmetric = np.eye(3)
    asymmetric[0, 1] = 0.5
    for bad in ("bogus", "identity", np.eye(2), np.eye(3)[:2], asymmetric, -np.eye(3)):
        with pytest.raises(ValueError):
            state_with_metric(training, SPEC.n, 2.0, 0.0, bad)


def test_monitor_init_refuses_a_table_outside_its_recipe():
    # A table calibrated at N = 3 is rescaled to the monitor's horizon N' = 1 by
    # (T'/T)^(1 - 2 gamma), T = N / (1 + N); a plain critical value is used as is.
    # A horizon that no factor reaches is refused, naming the field.
    table = ThresholdTable(entries={(0.0, 0.05): 7.25}, reps=100, grid_m=1000,
                           horizon=3.0, master_seed=1)
    training = _training()
    state = monitor_init(training, SPEC.n, horizon=1.0, gamma=0.0, alpha=0.05,
                         threshold_source=table)
    assert state.config.threshold_c == pytest.approx(7.25 * (0.5 / 0.75), rel=1e-15)
    state = monitor_init(training, SPEC.n, horizon=1.0, gamma=0.0, alpha=0.05,
                         threshold_source=7.25)
    assert state.config.threshold_c == 7.25
    with pytest.raises(ConfigError, match="horizon: must be finite and > 0, got -1.0"):
        monitor_init(training, SPEC.n, horizon=-1.0, gamma=0.0, alpha=0.05,
                     threshold_source=table)


def test_monitor_init_threshold_table_lookup():
    table = ThresholdTable(entries={(0.0, 0.05): 7.25}, reps=100, grid_m=1000,
                           horizon=3.0, master_seed=1)
    state = monitor_init(_training(), SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=table)
    assert state.config.threshold_c == 7.25
    with pytest.raises(ThresholdUnavailableError):
        monitor_init(_training(), SPEC.n, horizon=3.0, gamma=0.25, alpha=0.05,
                     threshold_source=table)


def test_identity_policy_statistic_is_weighted_norm():
    training = _training()
    state = state_with_metric(training, SPEC.n, 3.0, 0.25, np.eye(3))
    stream = _stream_sample(5, seed=81, init=int(training.x[-1]))
    stats = []
    for x_new, w_new in _stream_iter(stream):
        _, stat = monitor_update(state, int(x_new), w_new)
        stats.append(stat)
        expected = _weight(state.config.m, state.k, 0.25) ** 2 * float(
            state.running_sum @ state.running_sum
        )
        assert stat == pytest.approx(expected, rel=1e-12)
    assert all(s >= 0 for s in stats)


def test_monitor_update_recomputability_exact():
    training = _training(m=200, seed=51)
    state = monitor_init(training, SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=math.inf)
    stream = _stream_sample(40, seed=82, init=int(training.x[-1]))
    beta = state.beta_hat
    ref = np.zeros(3)
    x_prev = int(training.x[-1])
    for x_new, w_new in _stream_iter(stream):
        monitor_update(state, int(x_new), w_new)
        ref = score_step(ref, beta, SPEC.n, x_prev, x_new, w_new)
        x_prev = int(x_new)
        np.testing.assert_array_equal(state.running_sum, ref)


def test_monitor_update_rejects_after_alarm():
    training = _training(m=100, seed=52)
    state = monitor_init(training, SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=1e-12)
    stream = _stream_sample(3, seed=83, init=int(training.x[-1]))
    pairs = list(_stream_iter(stream))
    monitor_update(state, int(pairs[0][0]), pairs[0][1])
    assert state.alarm_at == 1
    with pytest.raises(MonitoringTerminatedError):
        monitor_update(state, int(pairs[1][0]), pairs[1][1])


def test_monitor_update_rejects_after_horizon():
    training = _training(m=10, seed=53)
    state = monitor_init(training, SPEC.n, horizon=0.2, gamma=0.0, alpha=0.05,
                         threshold_source=math.inf)
    assert state.config.horizon_steps == 2
    stream = _stream_sample(3, seed=84, init=int(training.x[-1]))
    pairs = list(_stream_iter(stream))
    for x_new, w_new in pairs[:2]:
        monitor_update(state, int(x_new), w_new)
    with pytest.raises(MonitoringTerminatedError):
        monitor_update(state, int(pairs[2][0]), pairs[2][1])
    # A horizon that holds no monitored point would end every run without a look.
    # 0 and -1 are refused by the horizon rule itself (the test below).
    with pytest.raises(ConfigError, match="horizon: 0.05 leaves no monitored point at m=10"):
        monitor_init(training, SPEC.n, horizon=0.05, gamma=0.0, alpha=0.05,
                     threshold_source=1e-12)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
def test_every_type_refuses_a_horizon_by_one_rule(horizon):
    # calibration.horizon_steps holds the rule for the calibration grid, a
    # study's training lengths and a monitor, with one message.
    message = f"^horizon: must be finite and > 0, got {horizon}$"
    for build in (lambda: CalibrationConfig(horizon=horizon),
                  lambda: ExperimentConfig(horizon=horizon),
                  lambda: monitor_init(_training(m=10, seed=53), SPEC.n, horizon=horizon,
                                       gamma=0.0, alpha=0.05, threshold_source=7.0)):
        with pytest.raises(ConfigError, match=message):
            build()


def test_monitor_update_range_check():
    training = _training(m=100, seed=54)
    state = monitor_init(training, SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=math.inf)
    with pytest.raises(ValueError):
        monitor_update(state, 11, np.array([1.0]))


def test_monitor_update_rejects_non_finite_covariate():
    # A NaN covariate used to turn every later statistic into NaN, so the
    # monitor could never alarm again; a row of the wrong width used to fail
    # deep in the logistic with a bare shape message naming no k.
    training = _training(m=300, seed=54)
    state = monitor_init(training, SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=1.0)
    monitor_update(state, 2, np.array([1.0]))
    assert state.alarm_at is None
    for bad, why in (([np.nan], "not finite"), ([np.inf], "not finite"), ([-np.inf], "not finite"),
                     ([1.0, 0.5], "2 covariates, expected 1"), ([], "0 covariates, expected 1")):
        with pytest.raises(ValueError, match=rf"k=2\b.*{why}"):
            monitor_update(state, 3, np.array(bad))
    assert state.k == 1 and np.all(np.isfinite(state.running_sum))
    for _ in range(5):
        monitor_update(state, SPEC.n, np.array([1.0]))
        if state.alarm_at is not None:
            break
    assert state.alarm_at is not None


def test_monitor_update_rejects_non_integer_count():
    training = _training(m=100, seed=54)
    state = monitor_init(training, SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=math.inf)
    for bad in (3.7, np.float64(2.5), float("nan"), "3"):
        with pytest.raises(ValueError, match=r"k=1\b.*not an integer"):
            monitor_update(state, bad, np.array([1.0]))
    with pytest.raises(ValueError, match=r"k=1\b.*outside"):
        monitor_update(state, 11, np.array([1.0]))
    assert state.k == 0 and not state.statistic_history
    # Integral values of any numeric type are counts.
    monitor_update(state, 3.0, np.array([1.0]))
    monitor_update(state, np.int64(4), np.array([1.0]))
    assert state.x_prev == 4 and isinstance(state.x_prev, int)


def test_monitor_run_no_alarm_full_history():
    training = _training(m=100, seed=55)
    state = monitor_init(training, SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=math.inf)
    stream = _stream_sample(300, seed=85, init=int(training.x[-1]))
    result = monitor_run(state, _stream_iter(stream))
    assert result is state
    assert result.alarm_at is None
    assert result.terminated
    assert result.k == 300
    assert len(result.statistic_history) == 300


def test_monitor_run_deterministic():
    def run_once():
        training = _training(m=100, seed=56)
        state = monitor_init(training, SPEC.n, horizon=3.0, gamma=0.25, alpha=0.05,
                             threshold_source=math.inf)
        stream = _stream_sample(300, seed=86, init=int(training.x[-1]))
        return monitor_run(state, _stream_iter(stream))

    a, b = run_once(), run_once()
    assert a.statistic_history == b.statistic_history
    assert a.alarm_at == b.alarm_at


def test_monitor_run_truncated_stream():
    training = _training(m=100, seed=57)
    state = monitor_init(training, SPEC.n, horizon=3.0, gamma=0.0, alpha=0.05,
                         threshold_source=math.inf)
    stream = _stream_sample(50, seed=87, init=int(training.x[-1]))
    result = monitor_run(state, _stream_iter(stream))
    assert not result.terminated
    assert result.alarm_at is None
    assert result.k == 50


def test_monitor_statistics_match_vectorized_reference():
    # The streaming monitor and a batch evaluation of the same formulas must
    # agree along the whole path.
    from scipy.special import expit

    training = _training(m=150, seed=58)
    state = monitor_init(training, SPEC.n, horizon=2.0, gamma=0.4, alpha=0.05,
                         threshold_source=math.inf)
    stream = _stream_sample(300, seed=88, init=int(training.x[-1]))
    result = monitor_run(state, _stream_iter(stream))

    beta = state.beta_hat.as_array()
    A = state.config.a_matrix
    xs = np.concatenate([[training.x[-1]], stream.x[1:]])
    Z = np.column_stack([np.ones(300), xs[:-1], stream.w])
    G = Z * (stream.x[1:] - SPEC.n * expit(Z @ beta))[:, None]
    S = np.cumsum(G, axis=0)
    q = ((S @ A) * S).sum(axis=1)
    ref = _weight(150, np.arange(1, 301), 0.4) ** 2 * q
    np.testing.assert_allclose(np.asarray(result.statistic_history), ref, rtol=1e-10)


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.4])
def test_streaming_statistic_full_horizon_exact(gamma):
    # Every statistic of a full m = 300, H = 900 run, without and with the
    # criterion-07 change, and the alarm index equal the reference arithmetic
    # bit for bit: 0-d weight, np.minimum/np.maximum-clipped expit, S @ A @ S.
    training = _training(m=300, seed=59)
    x0 = int(training.x[-1])
    calm = _stream_sample(900, seed=89, init=x0)
    before = _stream_sample(10, seed=90, init=x0)
    changed = ModelSpec(n=SPEC.n, beta=ParamVector(-1.0, 0.2, (0.4,)), exo=SPEC.exo)
    after = simulate_series(changed, 890, seed=91, init=int(before.x[-1]))
    streams = {"calm": list(_stream_iter(calm)),
               "change": list(_stream_iter(before)) + list(_stream_iter(after))}
    for name, stream in streams.items():
        for c in (math.inf, 7.0):
            state = monitor_init(training, SPEC.n, horizon=3.0, gamma=gamma, alpha=0.05,
                                 threshold_source=c)
            assert state.config.horizon_steps == 900
            ref_stats, ref_alarm = replay(state, stream, c)
            result = monitor_run(state, stream)
            assert list(result.statistic_history) == ref_stats, (name, c)
            assert result.alarm_at == ref_alarm
            if c == math.inf:
                assert result.k == 900 and result.terminated
            elif name == "change":
                assert result.alarm_at is not None
