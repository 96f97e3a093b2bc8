import math

import numpy as np
import pytest
from scipy.special import expit

from binarx import (
    ExogenousSpec,
    ModelSpec,
    ParamVector,
    SeriesSample,
    default_model_spec,
    read_series_csv,
    simulate_series,
    stationary_oracle,
    write_series_csv,
)
from binarx.model import _clamp_prob
# The monitor's logistic and regressor live inline in monitor_update; these
# tests pin the reference copies that its exact-bit tests compare against.
from streaming_reference import build_regressor, success_prob


def _no_exo_spec(phi0, phi1, n=10):
    return ModelSpec(
        n=n,
        beta=ParamVector(phi0=phi0, phi1=phi1, gamma_exo=()),
        exo=ExogenousSpec(l=0),
    )


def test_success_prob_half():
    assert success_prob(ParamVector(0.0, 0.0), np.array([1.0, 3.0])) == 0.5


def test_success_prob_three_quarters():
    beta = ParamVector(math.log(3.0), 0.0)
    assert success_prob(beta, np.array([1.0, 0.0])) == pytest.approx(0.75, abs=1e-15)


def test_success_prob_derived_value():
    # Direct scalar evaluation of 1 / (1 + exp(0.6)), recomputed independently.
    beta = ParamVector(-1.0, 0.1, (0.4,))
    expected = 1.0 / (1.0 + math.exp(-(-1.0 + 0.1 * 0.0 + 0.4 * 1.0)))
    got = success_prob(beta, np.array([1.0, 0.0, 1.0]))
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(0.35434369377420455, abs=1e-12)


def test_success_prob_dimension_mismatch():
    with pytest.raises(ValueError):
        success_prob(ParamVector(0.0, 0.0, (0.1,)), np.array([1.0, 2.0]))


def test_success_prob_strict_bounds_over_box():
    # Strict 0 < pi < 1 even at the corners of the parameter box with the
    # most extreme bounded regressors.
    rng = np.random.default_rng(7)
    corners = [
        np.array([s0 * 20.0, s1 * 20.0, s2 * 20.0])
        for s0 in (-1, 1)
        for s1 in (-1, 1)
        for s2 in (-1, 1)
    ]
    randoms = [rng.uniform(-20, 20, size=3) for _ in range(200)]
    for b in corners + randoms:
        z = np.array([1.0, float(rng.integers(0, 11)), float(rng.uniform(0, 10))])
        p = success_prob(b, z)
        assert 0.0 < p < 1.0
        # monitor_update's float clip gives the same bits, saturated or not.
        assert _clamp_prob(float(expit(b @ z))) == p
    for eta in (-1e4, -745.5, -40.0, 0.0, 40.0, 1e4):
        assert _clamp_prob(float(expit(eta))) == success_prob([eta], [1.0])


def test_build_regressor_examples():
    np.testing.assert_array_equal(build_regressor(3, [0.9]), [1.0, 3.0, 0.9])
    np.testing.assert_array_equal(build_regressor(0, []), [1.0, 0.0])
    np.testing.assert_array_equal(build_regressor(10, [0.0, 2.5]), [1.0, 10.0, 0.0, 2.5])


def test_param_vector_validation():
    with pytest.raises(ValueError):
        ParamVector(float("nan"), 0.0)
    with pytest.raises(ValueError):
        ParamVector(25.0, 0.0)


def test_exogenous_spec_validation():
    with pytest.raises(ValueError):
        ExogenousSpec(clamp_lo=1.0, clamp_hi=1.0)
    with pytest.raises(ValueError):
        ExogenousSpec(clamp_lo=0.0, clamp_hi=float("inf"))
    with pytest.raises(ValueError):
        ExogenousSpec(sd=0.0)
    with pytest.raises(ValueError):
        ExogenousSpec(dist="uniform")


def test_model_spec_dimension_mismatch():
    with pytest.raises(ValueError):
        ModelSpec(n=10, beta=ParamVector(0.0, 0.0, (0.1, 0.2)), exo=ExogenousSpec(l=1))


def test_exogenous_draws_clamped():
    exo = ExogenousSpec(mean=0.0, sd=5.0, clamp_lo=-1.0, clamp_hi=1.0, l=2)
    draws = exo.draw(np.random.default_rng(0), 500)
    assert draws.shape == (500, 2)
    assert draws.min() >= -1.0 and draws.max() <= 1.0


def test_simulate_determinism():
    spec = default_model_spec()
    a = simulate_series(spec, 200, seed=123)
    b = simulate_series(spec, 200, seed=123)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.w, b.w)
    c = simulate_series(spec, 200, seed=123, init=4)
    d = simulate_series(spec, 200, seed=123, init=4)
    np.testing.assert_array_equal(c.x, d.x)
    assert c.x[0] == 4


def test_simulate_logistic_saturation():
    sample = simulate_series(_no_exo_spec(20.0, 0.0), 100, seed=5)
    assert np.all(sample.x[1:] == 10)


def test_simulate_matches_oracle_mean():
    spec = default_model_spec()
    _, mu = stationary_oracle(spec)
    oracle_mean = float(mu @ np.arange(spec.n + 1))
    sample = simulate_series(spec, 10**5, seed=31)
    assert abs(sample.x[1:].mean() - oracle_mean) < 0.05


def test_series_sample_immutable():
    sample = simulate_series(default_model_spec(), 50, seed=2)
    with pytest.raises(ValueError):
        sample.x[0] = 1
    with pytest.raises(ValueError):
        sample.w[0, 0] = 1.0


def test_oracle_rows_sum_to_one():
    P, _ = stationary_oracle(default_model_spec())
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12


def test_oracle_constant_pi_degeneracy():
    # With zero coefficients pi is 1/2 regardless of state: every row is the
    # Bin(4, 1/2) pmf and the stationary law equals it.
    P, mu = stationary_oracle(_no_exo_spec(0.0, 0.0, n=4))
    expected = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    for row in P:
        np.testing.assert_allclose(row, expected, atol=1e-14)
    np.testing.assert_allclose(mu, expected, atol=1e-12)


def test_oracle_fixed_point():
    P, mu = stationary_oracle(default_model_spec())
    assert np.abs(mu @ P - mu).max() < 1e-10
    assert mu.min() >= 0.0
    assert abs(mu.sum() - 1.0) < 1e-12


def test_oracle_rejects_large_n():
    spec = default_model_spec()
    big = ModelSpec(n=31, beta=spec.beta, exo=spec.exo)
    with pytest.raises(ValueError):
        stationary_oracle(big)


def test_series_csv_round_trip(tmp_path):
    sample = simulate_series(default_model_spec(), 40, seed=9)
    path = tmp_path / "series.csv"
    write_series_csv(sample, path)
    back = read_series_csv(path)
    np.testing.assert_array_equal(back.x, sample.x)
    np.testing.assert_array_equal(back.w, sample.w)


def test_series_csv_round_trip_no_exo(tmp_path):
    sample = simulate_series(_no_exo_spec(-0.5, 0.1), 25, seed=3)
    path = tmp_path / "series.csv"
    write_series_csv(sample, path)
    back = read_series_csv(path)
    np.testing.assert_array_equal(back.x, sample.x)
    assert back.w.shape == (25, 0)


@pytest.mark.parametrize(
    "row, message",
    [("2,3.7,1.0", r"row t=2: .*3\.7"), ("2,3,nan", r"row t=2: covariates \[nan\] are not finite"),
     ("2,3,-inf", r"row t=2: covariates \[-inf\] are not finite"), ("2,3", r"row t=2: expected 3 cells")],
)
def test_series_csv_bad_rows_name_file_and_row(tmp_path, row, message):
    path = tmp_path / "series.csv"
    path.write_text(f"t,x,w1\n0,4,\n1,5,1.0\n{row}\n3,4,1.1\n")
    with pytest.raises(ValueError, match=rf"series\.csv: {message}"):
        read_series_csv(path)


def test_series_sample_validation():
    with pytest.raises(ValueError):
        SeriesSample(x=np.array([1, 2, 3]), w=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        SeriesSample(x=np.array([-1, 2]), w=np.zeros((1, 0)))
