import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit, gammaln

from binarx import (ConfigError, ModelSpec, ParamVector, default_model_spec, read_series_csv,
                    simulate_series)
from binarx import model
from binarx.defaults import MAX_POINTS
from binarx.model import (
    ExogenousSpec,
    SeriesSample,
    _clamp_prob,
    log_binom,
    logistic,
    logistic_float,
    stationary_oracle,
    write_series_csv,
)
# The monitor's regressor lives inline in monitor_update; these tests pin
# the reference copies that its exact-bit tests compare against.
from loop_reference import simulate_chain as scalar_simulate_chain
from series_reference import outcome, read_series_rows
from streaming_reference import build_regressor, success_prob


def _no_exo_spec(phi0, phi1, n=10):
    return ModelSpec(
        n=n,
        beta=ParamVector(phi0=phi0, phi1=phi1, gamma_exo=()),
        exo=ExogenousSpec(),
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


def _logistic_draws() -> np.ndarray:
    """10**6 + 9 etas: moderate, beyond |eta| = 709.78 where exp(-eta)
    overflows, dense around eta = -37, heavy-tailed, and the special values."""
    rng = np.random.default_rng(2024)
    return np.concatenate([
        rng.normal(0.0, 5.0, 300_000), rng.uniform(-800.0, 800.0, 300_000),
        rng.uniform(-40.0, -30.0, 200_000), rng.standard_cauchy(200_000) * 50.0,
        [np.inf, -np.inf, np.nan, -709.79, -709.78, 709.79, -745.2, 0.0, -1e308],
    ])


def test_logistic_float_is_scipy_expit_bit_for_bit():
    # monitor_update's logistic: its bits are pinned, so it must be expit's.
    eta = _logistic_draws()
    got = np.array([logistic_float(e) for e in eta.tolist()])
    np.testing.assert_array_equal(got.view(np.int64), expit(eta).view(np.int64))


def test_array_logistic_within_4_ulp_of_scipy_expit_and_silent():
    # numpy's vector exp differs from the C library's by at most 1 ulp.
    # 1 / (1 + E) turns that into at most 2 ulp of p, except for E in
    # [2**53, 2**54) (eta in [-37.4, -36.7]): there 1 + E is a tie, and
    # rounding it to even can double the gap to 4 ulp.  Below eta = -709.78
    # both give p = 0.
    eta = _logistic_draws()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logistic(eta)
    want = expit(eta)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))[finite]
    assert ulps.max() <= 4
    assert np.all(ulps[np.abs(eta[finite] + 37.05) > 0.4] <= 2)
    assert np.all(got[eta < -709.79] == 0.0)


def test_log_binom_matches_scipy_gammaln():
    # Both evaluate lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1), each
    # with its own lgamma, and the terms cancel for k near 0 or n.  So they
    # agree to 1e-14 of the largest term, not of the result: at n = 10**4,
    # k = 1 the two differ by 1.6e-12 relative.  Every k up to n = 100, then
    # 10**6 draws with n up to 10**4.
    def check(n, k):
        want = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        np.testing.assert_allclose(log_binom(n, k), want, rtol=0,
                                   atol=1e-14 * max(1.0, gammaln(n + 1)))

    for n in range(101):
        check(n, np.arange(n + 1))
    rng = np.random.default_rng(7)
    for n in rng.integers(0, 10**4 + 1, 200).tolist():
        check(n, rng.integers(0, n + 1, 5000))


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


# -7: at n = 40 a study starts from Bin(n, 1/2) and burns in, and range(-7)
# would skip that silently.
@pytest.mark.parametrize("burn_in", [-7, -1, MAX_POINTS + 1])
def test_model_spec_refuses_a_burn_in_outside_the_budget(burn_in):
    spec = default_model_spec()
    for build in (lambda: ModelSpec(n=40, beta=spec.beta, exo=spec.exo, burn_in=burn_in),
                  lambda: replace(spec, burn_in=burn_in)):
        with pytest.raises(ConfigError) as refused:
            build()
        assert refused.value.path == "burn_in"
        assert str(refused.value) == f"burn_in: must lie in [0, {MAX_POINTS}], got {burn_in}"
    assert replace(spec, burn_in=0).burn_in == 0
    assert replace(spec, burn_in=MAX_POINTS).burn_in == MAX_POINTS


def test_simulate_series_discards_the_burn_in_of_its_spec():
    # X0 ~ Bin(n, 1/2), a chain of spec.burn_in steps, then `length` steps;
    # an X0 given as `init` runs no burn-in at all.
    spec = replace(default_model_spec(), burn_in=7)
    rng = np.random.default_rng(np.random.SeedSequence(4))
    burnt, _ = model.simulate_chain(spec, 7, rng, int(rng.binomial(spec.n, 0.5)))
    x, w = model.simulate_chain(spec, 20, rng, int(burnt[-1]))
    sample = simulate_series(spec, 20, seed=4)
    np.testing.assert_array_equal(sample.x, x)
    np.testing.assert_array_equal(sample.w, w)
    x, w = model.simulate_chain(spec, 20, np.random.default_rng(np.random.SeedSequence(4)), 3)
    np.testing.assert_array_equal(simulate_series(spec, 20, seed=4, init=3).x, x)
    with pytest.raises(TypeError):
        simulate_series(spec, 20, seed=4, burn_in=7)


def test_exogenous_draws_clamped():
    exo = ExogenousSpec(mean=0.0, sd=5.0, clamp_lo=-1.0, clamp_hi=1.0)
    draws = exo.draw(np.random.default_rng(0), 500, 2)
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


# Covariates near 100: a coefficient of -20 or 20 puts every linear
# predictor near -2000 or 2000, where the clip to (0, 1) decides p.
_FAR_EXO = ExogenousSpec(mean=100.0, sd=0.1, clamp_lo=0.0, clamp_hi=200.0)


# The smallest n whose counts simulate_chain draws with rng.binomial.
_N_BINOMIAL = model.N_MAX_BERNOULLI + 1


@pytest.mark.parametrize("beta, exo, x0, eta_in, n", [
    pytest.param((-1.0, 0.3), ExogenousSpec(), 0, (-1.0, 2.0), 10, id="l=0"),
    pytest.param((-1.0, 0.1, 0.4, -0.3), ExogenousSpec(mean=2.0, sd=1.5), 5, (-6.0, 6.0), 10,
                 id="l=2"),
    pytest.param((0.0, 0.1, -20.0), _FAR_EXO, 10, (-math.inf, -746.0), 10, id="floor"),
    pytest.param((0.0, 0.1, 20.0), _FAR_EXO, 0, (40.0, math.inf), 10, id="ceiling"),
    pytest.param((-1.0, 0.02, 0.4), ExogenousSpec(mean=2.0, sd=1.5), 7, (-1.0, 3.8),
                 model.N_MAX_BERNOULLI, id="l=1-bernoulli-bound"),
    pytest.param((-1.0, 0.02, 0.4), ExogenousSpec(mean=2.0, sd=1.5), 7, (-1.0, 3.8),
                 _N_BINOMIAL, id="l=1-binomial"),
    pytest.param((0.0, 0.1, -20.0), _FAR_EXO, 10, (-math.inf, -746.0), _N_BINOMIAL,
                 id="floor-binomial"),
    pytest.param((0.0, 0.1, 20.0), _FAR_EXO, 0, (40.0, math.inf), _N_BINOMIAL,
                 id="ceiling-binomial"),
])
def test_simulate_chain_matches_scalar_loop(beta, exo, x0, eta_in, n):
    spec = ModelSpec(n=n, beta=ParamVector.from_array(beta), exo=exo)
    x, w = model.simulate_chain(spec, 3000, np.random.default_rng(8), x0)
    want_x, want_w = scalar_simulate_chain(spec, 3000, np.random.default_rng(8), x0)
    assert x.dtype == want_x.dtype
    np.testing.assert_array_equal(x, want_x)
    np.testing.assert_array_equal(w, want_w)
    # The linear predictors span the range each case is meant to cover.
    eta = beta[0] + beta[1] * x[:-1] + w @ np.array(beta[2:])
    assert eta_in[0] <= eta.min() and eta.max() <= eta_in[1]
    if math.isinf(eta_in[0]) == math.isinf(eta_in[1]):
        assert eta.min() < 0 < eta.max()


def test_simulate_chain_draws_do_not_depend_on_its_chunk_size(monkeypatch):
    # 1,000 steps: a multiple of neither 3 nor the default steps per chunk.
    spec = default_model_spec()
    default_x, default_w = model.simulate_chain(spec, 1000, rng := np.random.default_rng(9), 4)
    default_state = rng.bit_generator.state
    monkeypatch.setattr(model, "_CHAIN_CHUNK_UNIFORMS", 3 * spec.n)
    x, w = model.simulate_chain(spec, 1000, rng := np.random.default_rng(9), 4)
    np.testing.assert_array_equal(x, default_x)
    np.testing.assert_array_equal(w, default_w)
    assert rng.bit_generator.state == default_state


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


@pytest.mark.parametrize(
    "spec",
    [
        default_model_spec(),
        ModelSpec(n=30, beta=ParamVector(-8.5, 0.55, (0.0,)), exo=ExogenousSpec()),
        ModelSpec(n=30, beta=ParamVector(-8.0, 0.55, (0.0,)), exo=ExogenousSpec()),
        ModelSpec(n=30, beta=ParamVector(20.0, 20.0, (0.4,)), exo=ExogenousSpec()),
    ],
    ids=["default", "metastable-low", "metastable-high", "saturated"],
)
def test_oracle_matches_a_row_of_a_high_power_of_p(spec):
    # A row of P^(2^k), from k squarings with rows renormalised, subtracts
    # nothing, so it is the stationary law to rounding even where the chain
    # almost never moves between its two modes (n = 30, phi1 = 0.55).  There
    # a pmf far from stationarity can still have a residual |mu P - mu| of
    # 1e-13, so only a reference of this kind tells them apart.  In the
    # saturated chain every P[x, y] with x >= 1 and y < 10 underflows to 0,
    # so counts 0..9 are never re-entered and carry no mass.
    P, mu = stationary_oracle(spec)
    power = P.copy()
    for _ in range(420):
        power = power @ power
        power /= power.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(mu, power[0], rtol=0, atol=1e-12)


def test_oracle_solves_a_chain_of_period_two():
    # p is near 1 at x = 0 and near 0 at x = 30, so the chain alternates
    # between them: P^k has no limit, but the stationary law puts 1/2 on each.
    P, mu = stationary_oracle(ModelSpec(n=30, beta=ParamVector(20.0, -20.0, (0.4,)),
                                        exo=ExogenousSpec()))
    assert mu[0] == pytest.approx(0.5, abs=1e-7) and mu[30] == pytest.approx(0.5, abs=1e-7)
    assert np.abs(mu @ P - mu).max() < 1e-15


def test_two_covariate_quadrature_is_the_outer_product_and_the_oracle_holds():
    # At l = 2 the tensor rule is the outer product of the one-coordinate
    # rule, and the oracle it feeds matches a long chain.  The exact start
    # of every l <= 2 study runs through it.
    exo = ExogenousSpec(mean=1.0, sd=0.5, clamp_lo=0.2, clamp_hi=1.6)
    pts1, wts1 = model._coordinate_quadrature(exo, model._QUAD_NODES)
    pts, wts = model._exogenous_quadrature(exo, 2, model._QUAD_NODES)
    q = pts1.size
    np.testing.assert_array_equal(pts.reshape(q, q, 2)[:, :, 0], np.repeat(pts1[:, None], q, 1))
    np.testing.assert_array_equal(pts.reshape(q, q, 2)[:, :, 1], np.repeat(pts1[None, :], q, 0))
    np.testing.assert_array_equal(wts.reshape(q, q), np.outer(wts1, wts1))
    assert abs(wts.sum() - 1.0) < 1e-12
    spec = ModelSpec(n=5, beta=ParamVector(-1.0, 0.3, (0.8, -0.5)), exo=exo)
    _, mu = stationary_oracle(spec)
    x = simulate_series(spec, 100_000, seed=41).x
    empirical = np.bincount(x, minlength=spec.n + 1) / x.size
    assert 0.5 * np.abs(empirical - mu).sum() < 0.01


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
     ("2,3,-inf", r"row t=2: covariates \[-inf\] are not finite"), ("2,3", r"row t=2: expected 3 cells"),
     ("2,-1,1.0", r"row t=2: count -1 is negative"), ("1,3,1.0", r"row t=1: expected t=2"),
     ("7,3,1.0", r"row t=7: expected t=2"), ("0,3,", r"row t=0: expected t=2")],
)
def test_series_csv_bad_rows_name_file_and_row(tmp_path, row, message):
    path = tmp_path / "series.csv"
    path.write_text(f"t,x,w1\n0,4,\n1,5,1.0\n{row}\n3,4,1.1\n")
    with pytest.raises(ValueError, match=rf"series\.csv: {message}"):
        read_series_csv(path)


@pytest.mark.parametrize("text, message", [
    ("t,x,w1\n1,5,1.0\n2,3,0.9\n", r"row t=1: expected a first row with t <= 0"),
    ("t,x,w1\n\n", r"no rows after the header"),
])
def test_series_csv_without_a_start_row_names_the_file(tmp_path, text, message):
    path = tmp_path / "series.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"series\.csv: {message}"):
        read_series_csv(path)


_HEAD = "t,x,w1\n0,4,\n"


# (file text, body parsed by numpy): the numpy cases must take the fast path,
# the rest go to count_rows or are refused before the body; either way the
# outcome is the reference row loop's.
@pytest.mark.parametrize(
    "text, fast",
    [
        pytest.param("t,x,w1\r\n0,4,\r\n1,5,1.0\r\n2,3,0.9\r\n", True, id="crlf"),
        pytest.param(_HEAD + "1,5,1.0\n2,3,0.9\n", True, id="lf"),
        pytest.param(_HEAD + "1,5,1.0\n2,3,0.9", True, id="no-trailing-newline"),
        pytest.param(_HEAD + "1,5,1.0\n\n2,3,0.9\n\n", True, id="blank-line"),
        pytest.param(_HEAD + "1,5,1.0\n  \n2,3,0.9\n", False, id="whitespace-line"),
        pytest.param(_HEAD + "1,5,1.0\r2,3,0.9\r", False, id="cr-line-ends"),
        pytest.param(_HEAD + " 1 , 5 ,\xa00.9 \n2,+3,.5\n", True, id="padded-cells"),
        pytest.param(_HEAD + '1,5,"1.0"\n', False, id="quoted-cell"),
        pytest.param(_HEAD + '"1",5,1.0\n', False, id="quoted-t"),
        pytest.param(_HEAD + "1,5,1.0#c\n", False, id="hash-in-cell"),
        pytest.param(_HEAD + "1,3_0,1.0\n", False, id="underscore-count"),
        pytest.param(_HEAD + "1,3,1_0.5\n", False, id="underscore-covariate"),
        pytest.param(_HEAD + "1,\uff15,1.0\n", False, id="full-width-count"),
        pytest.param(_HEAD + "1,3,1.0\x1f\n", False, id="unit-separator"),
        pytest.param(_HEAD + "1,3,0x1p3\n", False, id="hex-covariate"),
        pytest.param(_HEAD + "1,99999999999999999999,1.0\n", False, id="count-overflow"),
        pytest.param(_HEAD + "1,9223372036854775807,1.0\n", True, id="count-at-int64-max"),
        pytest.param("t,x,w1\n0,9223372036854775808,\n1,5,1.0\n", False, id="t0-count-overflow"),
        pytest.param(_HEAD + "1,5,1.0\n2,3,nan\n", False, id="nan"),
        pytest.param(_HEAD + "1,5,-inf\n2,3,1.0\n", False, id="minus-inf"),
        pytest.param(_HEAD + "1,5,1e400\n", False, id="overflowing-covariate"),
        pytest.param(_HEAD + "1,5,\n", False, id="empty-covariate"),
        pytest.param(_HEAD + "1,3.7,1.0\n", False, id="non-integer-count"),
        pytest.param(_HEAD + "a,3,1.0\n", False, id="non-integer-t"),
        pytest.param(_HEAD + "1,5,1.0\n2,3\n", False, id="short-row"),
        pytest.param(_HEAD + "1,5,1.0,7\n", False, id="long-row"),
        pytest.param(_HEAD + "1,-1,1.0\n", False, id="negative-count"),
        pytest.param("t,x,w1\n0,-4,\n1,5,1.0\n", False, id="negative-t0-count"),
        pytest.param(_HEAD + "1,5,1.0\n1,3,0.9\n7,3,0.9\n", False, id="repeated-t"),
        pytest.param(_HEAD + "1,5,1.0\n3,3,0.9\n", False, id="skipped-t"),
        pytest.param(_HEAD + "2,5,1.0\n1,3,0.9\n", False, id="descending-t"),
        pytest.param("t,x\n0,4\n1,5\n2,3\n", True, id="l=0"),
        pytest.param("t,x,a,b\n0,4,,\n1,5,1.0,2.0\n", True, id="l=2"),
        pytest.param("t,x,w1\n0,4,,9\n1,5,1.0\n", True, id="long-t0-row"),
        pytest.param("t,x,w1\n-1,4,\n1,5,1.0\n", True, id="negative-t0"),
        pytest.param("t,x,w1\n0\n1,5,1.0\n", False, id="short-t0-row"),
        pytest.param("t,x,w1\n\n0,4,\n1,5,1.0\n", True, id="blank-before-t0"),
        pytest.param("t,x,w1\n1,5,1.0\n2,3,0.9\n", False, id="no-t0-row"),
        pytest.param(_HEAD + "1,5,1.0\n0,3,\n2,3,0.9\n", False, id="second-t0-row"),
        pytest.param(_HEAD, False, id="header-and-t0-only"),
        pytest.param(_HEAD + "\n\n", False, id="header-t0-and-blank-lines"),
        pytest.param("t,x,w1\n", False, id="header-only"),
        pytest.param("", False, id="empty-file"),
        pytest.param("t,y,w1\n0,4,\n1,5,1.0\n", False, id="bad-header"),
    ],
)
def test_series_csv_reader_matches_row_loop(tmp_path, monkeypatch, text, fast):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode())
    parsed, parse = [], model._plain_body
    monkeypatch.setattr(model, "_plain_body", lambda *a: parsed.append(parse(*a)) or parsed[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(read_series_csv, path) == outcome(read_series_rows, path)
    assert any(rows is not None for rows in parsed) == fast


def test_series_sample_validation():
    with pytest.raises(ValueError):
        SeriesSample(x=np.array([1, 2, 3]), w=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        SeriesSample(x=np.array([-1, 2]), w=np.zeros((1, 0)))
