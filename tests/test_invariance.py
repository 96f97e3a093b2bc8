"""Metamorphic tests: exact symmetries of the model, checked with no oracle.

An invertible linear map of the regressor z = (1, x_prev, w) maps the MPLE
by the inverse transpose and leaves the monitoring statistic unchanged, and
Newton's method from beta = 0 is affine-invariant, so the mapped fit takes
the same iterates.  The maps:

- reflection, x -> n - x: pi -> 1 - pi, so beta -> (-phi0 - n phi1, phi1,
  -gamma1), the log partial likelihood is unchanged, and every score term
  changes sign as the map of z;
- affine covariates, w -> 2 + 3w: beta -> (phi0 - 2 gamma1 / 3, phi1,
  gamma1 / 3);
- at l = 2, the two covariate columns swapped, and gamma1 with gamma2.

Each tolerance of the first two maps is about ten times the largest
difference measured on the default series of 1,200 steps (seed 3), m = 300,
gamma = 0.25 and 900 statistics: reflection moved beta_hat by 1.6e-15 and
the statistic path by 4.3e-14 relative; the affine map by 3.4e-15 and
4.9e-13.  The other tests state their own measurements.

What is not invariant: the coordinate box |beta_j| <= PARAM_BOX_BOUND, the
condition-number limit, the score-norm tolerance (a sup-norm of the score in
the fitted coordinates) and the exogenous clamp, which acts only in
simulation.  The box is the one a moderate model meets: see the last test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from binarx import (NonConvergenceError, ParamVector, default_model_spec, fit_mple, monitor_init,
                    monitor_run, simulate_series)
from binarx.dataprep import model_comparison
from binarx.defaults import PARAM_BOX_BOUND
from binarx.estimation import fit_mple_batch
from binarx.model import SeriesSample

SPEC = default_model_spec()
N = SPEC.n
M = 300


def _reflect(x, w):
    return N - x, w


def _reflect_beta(beta):
    phi0, phi1, gamma1 = beta
    return np.array([-phi0 - N * phi1, phi1, -gamma1])


def _affine(x, w):
    return x, 2.0 + 3.0 * w


def _affine_beta(beta):
    phi0, phi1, gamma1 = beta
    return np.array([phi0 - 2.0 * gamma1 / 3.0, phi1, gamma1 / 3.0])


# (map of the data, map of beta, beta_hat atol, statistic rtol)
MAPS = {
    "reflection": (_reflect, _reflect_beta, 2e-14, 5e-13),
    "affine": (_affine, _affine_beta, 4e-14, 5e-12),
}


@pytest.fixture(scope="module")
def series():
    return simulate_series(SPEC, 1200, seed=3)


def _statistics(x, w):
    """The streaming monitor's 900 statistics: trained on the first M
    transitions, fed the rest, at a critical value that never alarms."""
    state = monitor_init(SeriesSample(x[:M + 1], w[:M]), N, 3.0, 0.25, 0.05, math.inf)
    monitor_run(state, zip(x[M + 1:], w[M:]))
    return np.array(state.statistic_history)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_fit_mple_is_equivariant(series, name):
    data_map, beta_map, atol, _ = MAPS[name]
    fit = fit_mple(SeriesSample(series.x[:M + 1], series.w[:M]), N)
    x, w = data_map(series.x[:M + 1], series.w[:M])
    mapped = fit_mple(SeriesSample(x, w), N)
    np.testing.assert_allclose(mapped.beta_hat.as_array(), beta_map(fit.beta_hat.as_array()),
                               rtol=0, atol=atol)
    assert mapped.log_pl == pytest.approx(fit.log_pl, rel=1e-12)
    # The same Newton iterates; on this series the score-norm test also stops
    # both at the same one.
    assert mapped.iterations == fit.iterations == 3


@pytest.mark.parametrize("name", sorted(MAPS))
def test_fit_mple_batch_rows_are_equivariant(series, name):
    data_map, beta_map, atol, _ = MAPS[name]
    x, w = series.x[:M + 1], series.w[:M]
    mx, mw = data_map(x, w)
    batch = fit_mple_batch(np.stack([x, mx]), np.stack([w, mw]), N)
    assert batch.errors == (None, None)
    np.testing.assert_allclose(batch.beta[1], beta_map(batch.beta[0]), rtol=0, atol=atol)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_streaming_statistic_is_invariant(series, name):
    data_map, _, _, rtol = MAPS[name]
    want = _statistics(series.x, series.w)
    got = _statistics(*data_map(series.x, series.w))
    assert want.size == 900 and np.all(want > 0)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def test_covariate_permutation_at_l2():
    # Swapping the two covariate columns swaps gamma1 and gamma2: measured
    # 1.3e-15 on beta_hat and 9.2e-14 relative on the 900 statistics.
    spec = replace(SPEC, beta=ParamVector.from_array((-1.0, 0.1, 0.4, -0.3)))
    s = simulate_series(spec, 1200, seed=3)
    swapped = s.w[:, ::-1].copy()
    fit = fit_mple(SeriesSample(s.x[:M + 1], s.w[:M]), N)
    mapped = fit_mple(SeriesSample(s.x[:M + 1], swapped[:M]), N)
    np.testing.assert_allclose(mapped.beta_hat.as_array(), fit.beta_hat.as_array()[[0, 1, 3, 2]],
                               rtol=0, atol=2e-14)
    np.testing.assert_allclose(_statistics(s.x, swapped), _statistics(s.x, s.w), rtol=1e-12,
                               atol=0)


def test_compare_lr_statistic_is_reflection_invariant(series):
    # Both models map onto themselves (the i.i.d. pi_hat to 1 - pi_hat), so
    # every likelihood is unchanged: measured 1.2e-14 relative on lr_stat.
    want = model_comparison(series.x, N)
    got = model_comparison(N - series.x, N)
    assert got["pi_hat"] == pytest.approx(1.0 - want["pi_hat"], rel=1e-12)
    for key in ("ll_simple", "ll_ar1", "lr_stat", "p_value"):
        assert got[key] == pytest.approx(want[key], rel=1e-12), key


@pytest.mark.parametrize("seed, inside", [(4, True), (3, False)])
def test_reflection_near_the_box(seed, inside):
    # beta = (0, -2, 0.4): the reflected intercept -phi0 - n phi1 is near 20,
    # the box bound.  Where the mapped MPLE lies inside the box (seed 4,
    # 19.63) the reflected fit keeps the equivariance; where it lies outside
    # (seed 3, 20.98) the reflected fit is pinned at the bound and stops
    # without converging, while the fit of the series itself converges.
    spec = replace(SPEC, beta=ParamVector.from_array((0.0, -2.0, 0.4)))
    s = simulate_series(spec, 1000, seed=seed)
    fit = fit_mple(s, N)
    mapped_beta = _reflect_beta(fit.beta_hat.as_array())
    assert (abs(mapped_beta[0]) < PARAM_BOX_BOUND) == inside
    assert 19.5 < abs(mapped_beta[0]) < 21.0
    reflected = SeriesSample(*_reflect(s.x, s.w))
    batch = fit_mple_batch(reflected.x[None], reflected.w[None], N)
    if inside:
        np.testing.assert_allclose(fit_mple(reflected, N).beta_hat.as_array(), mapped_beta,
                                   rtol=0, atol=5e-14)
        assert not batch.hit_boundary[0]
        return
    with pytest.raises(NonConvergenceError, match="after 100 iterations"):
        fit_mple(reflected, N)
    assert batch.hit_boundary[0] and batch.beta[0, 0] == PARAM_BOX_BOUND
