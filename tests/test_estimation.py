import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import gammaln

from binarx import (
    NonConvergenceError,
    SeparationError,
    SingularHessianError,
    default_model_spec,
    fit_mple,
    simulate_series,
)
from binarx import estimation
from binarx.estimation import BatchFit, fit_mple_batch, fit_report
from binarx.model import ExogenousSpec, ModelSpec, SeriesSample, log_binom, logistic
from series_kernel import curvature, log_pl, score

SPEC = default_model_spec()


def _sample(m, seed):
    return simulate_series(SPEC, m, seed=seed)


def _no_exo_series(x):
    x = np.asarray(x, dtype=np.int64)
    return SeriesSample(x=x, w=np.empty((x.size - 1, 0)))


def _newton_traced(sample, n):
    """Batch-of-one Newton fit of `sample` and its accepted log-PL values, one
    per iteration: the log-PL of the same fit stopped after 0, 1, ... iterations.

    The fit takes pi = logistic(eta) of its accepted iterate at the top of
    each iteration and once at the end, so one run with the logistic recorded
    sees the eta of every accepted iterate in order.
    """
    Z, y = estimation._stack_design(sample.x[None], sample.w[None])
    seen = []

    def recorder(eta, *out):
        seen.append(eta.copy())  # the fit updates its eta in place
        return logistic(eta, *out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "logistic", recorder)
        fit = estimation._newton(Z, y, n)
    log_coef = estimation._log_coef(y, n)
    trace = [(log_coef + np.sum(y * eta - n * np.logaddexp(0.0, eta), axis=1))[0]
             for eta in seen[:fit.iterations[0] + 1]]
    return fit, np.asarray(trace)


def test_log_pl_constant_pi_closed_form():
    sample = _sample(150, seed=4)
    n, m = SPEC.n, sample.m
    got = log_pl(sample, n, np.zeros(3))
    y = sample.x[1:]
    log_binom = float(np.sum(gammaln(n + 1) - gammaln(y + 1) - gammaln(n - y + 1)))
    assert got == pytest.approx(log_binom + m * n * math.log(0.5), rel=1e-13)


@pytest.mark.parametrize("n", [1, 10, 30, 1000, 10**6])
def test_newton_start_log_pl_keeps_elementwise_bits(n):
    # The Newton kernel reads log C(n, y) from a table over 0..max(y) when
    # that is shorter than y (every n here but 10**6); its log-PL at beta = 0
    # must equal the elementwise sum bit for bit.
    x = np.random.default_rng(n).binomial(n, 0.3, size=2001)
    _, trace = _newton_traced(SeriesSample(x=x, w=np.ones((2000, 1))), n)
    y = x[None, 1:].astype(float)
    start = np.sum(log_binom(n, y), axis=1) + np.sum(
        y * 0.0 - n * np.logaddexp(0.0, np.zeros_like(y)), axis=1)
    assert trace[0] == start[0]


def _logaddexp_log_pl(Z, y, log_coef, beta, n):
    """_log_pl with log(1 + e^eta) from np.logaddexp, the form it replaced."""
    eta = np.matmul(Z, beta[:, :, None])[:, :, 0]
    return log_coef + np.sum(y * eta - n * np.logaddexp(0.0, eta), axis=1)


def test_log_pl_softplus_within_2e_15_of_logaddexp():
    # Edge values one per series (z = eta, beta = 1, y = 0), then random series.
    edges = np.array([0.0, 1e-300, 36.7, 709.8, 800.0])
    eta = np.concatenate([edges, -edges])[:, None, None]
    y, log_coef, beta = np.zeros(eta.shape[:2]), np.zeros(eta.shape[0]), np.ones((eta.shape[0], 1))
    got, got_eta = estimation._log_pl(eta, y, log_coef, beta, 7)
    np.testing.assert_array_equal(got_eta, eta[:, :, 0])
    np.testing.assert_allclose(got, _logaddexp_log_pl(eta, y, log_coef, beta, 7), rtol=2e-15)
    rng = np.random.default_rng(12)
    Z = np.concatenate([np.ones((64, 50, 1)), rng.normal(0.0, 3.0, (64, 50, 2))], axis=2)
    beta = rng.normal(0.0, 2.0, (64, 3))
    y = rng.integers(0, SPEC.n + 1, (64, 50)).astype(float)
    log_coef = estimation._log_coef(y, SPEC.n)
    np.testing.assert_allclose(estimation._log_pl(Z, y, log_coef, beta, SPEC.n)[0],
                               _logaddexp_log_pl(Z, y, log_coef, beta, SPEC.n), rtol=2e-15)


def test_singular_agrees_with_the_condition_number():
    rank1 = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    fixed = np.stack([np.zeros((3, 3)), rank1, np.diag([1.0, 1.0, 1e-11]),
                      np.diag([1.0, 1.0, 1e-13])])
    rng = np.random.default_rng(13)
    # Column scales from 1e-9 to 1 spread the condition numbers over 1e1..1e18.
    A = rng.normal(size=(400, 3, 3)) * 10.0 ** rng.uniform(-9.0, 0.0, size=(400, 1, 3))
    spd = A @ np.swapaxes(A, 1, 2)
    spd = 0.5 * (spd + np.swapaxes(spd, 1, 2))
    for H in (fixed, spd):
        np.testing.assert_array_equal(estimation._singular(H),
                                      np.linalg.cond(H) > estimation._COND_LIMIT)
    assert 0.2 < estimation._singular(spd).mean() < 0.5
    assert estimation._singular(fixed).tolist() == [True, True, False, True]


def test_log_pl_single_observation():
    # One transition with n=2, x1=1 and pi = 0.75: log 2 + log .75 + log .25.
    series = _no_exo_series([0, 1])
    beta = np.array([math.log(3.0), 0.0])
    expected = math.log(2.0) + math.log(0.75) + math.log(0.25)
    assert log_pl(series, 2, beta) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.9808292530117262, abs=1e-12)


def test_log_pl_maximizer_dominance():
    sample = _sample(400, seed=11)
    fit = fit_mple(sample, SPEC.n)
    assert log_pl(sample, SPEC.n, fit.beta_hat) >= log_pl(sample, SPEC.n, SPEC.beta)


def test_fit_requires_transitions():
    with pytest.raises(ValueError, match="no transitions"):
        fit_mple(_no_exo_series([3]), 10)


def test_score_zero_at_exact_conditional_means():
    # x_t = n * pi_t for every t: pi = 1/2, n = 10, all counts 5.
    series = _no_exo_series([5] * 30)
    np.testing.assert_array_equal(score(series, 10, np.zeros(2)), np.zeros(2))


def _central_diff(f, b, h=1e-5):
    out = []
    for j in range(b.size):
        hi, lo = b.copy(), b.copy()
        hi[j] += h
        lo[j] -= h
        out.append((f(hi) - f(lo)) / (2 * h))
    return np.stack(out, axis=-1)


def test_score_matches_log_pl_finite_differences():
    rng = np.random.default_rng(20)
    for _ in range(8):
        sample = _sample(50, seed=int(rng.integers(1 << 30)))
        beta = rng.uniform(-1.5, 1.5, size=3)
        fd = _central_diff(lambda b: log_pl(sample, SPEC.n, b), beta)
        s = score(sample, SPEC.n, beta)
        assert np.all(np.abs(fd - s) / np.maximum(1.0, np.abs(s)) < 1e-6)


def test_score_gradient_matches_score_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(8):
        sample = _sample(50, seed=int(rng.integers(1 << 30)))
        beta = rng.uniform(-1.5, 1.5, size=3)
        fd = _central_diff(lambda b: score(sample, SPEC.n, b), beta)
        g = -curvature(sample, SPEC.n, beta)
        assert np.all(np.abs(fd - g) / np.maximum(1.0, np.abs(g)) < 1e-6)


def test_score_gradient_single_term_quarter():
    series = _no_exo_series([3, 7])
    z = np.array([1.0, 3.0])
    got = -curvature(series, 10, np.zeros(2))
    np.testing.assert_allclose(got, -10.0 * np.outer(z, z) / 4.0, rtol=1e-12)


def test_score_gradient_exact_symmetry():
    sample = _sample(200, seed=6)
    M = -curvature(sample, SPEC.n, np.array([0.3, -0.05, 0.2]))
    assert np.abs(M - M.T).max() == 0.0


def test_score_gradient_negative_semidefinite():
    sample = _sample(200, seed=7)
    M = -curvature(sample, SPEC.n, SPEC.beta)
    assert np.linalg.eigvalsh(M).max() <= 1e-10


def test_fit_mple_runs_the_kernel_that_criterion_01_checks(monkeypatch):
    calls = dict.fromkeys(("_log_coef", "_log_pl", "_score", "_curvature"), 0)
    for name in calls:
        def recorder(*args, name=name, helper=getattr(estimation, name)):
            calls[name] += 1
            return helper(*args)
        monkeypatch.setattr(estimation, name, recorder)
    fit = fit_mple(_sample(300, seed=9), SPEC.n)
    # One Hessian per iteration and one at the optimum; one score more, for
    # the final norm; the start and at least one candidate per iteration.
    assert calls["_log_coef"] == 1
    assert calls["_curvature"] == fit.iterations + 1
    assert calls["_score"] == fit.iterations + 2
    assert calls["_log_pl"] >= fit.iterations + 1


def test_fit_three_sigma_self_consistency():
    # 20 seeds at m=2000; allow one coordinate-level miss in total.
    beta0 = SPEC.beta.as_array()
    misses = 0
    for seed in range(20):
        sample = _sample(2000, seed=1000 + seed)
        fit = fit_mple(sample, SPEC.n)
        se = fit.standard_errors()
        misses += int(np.any(np.abs(fit.beta_hat.as_array() - beta0) >= 3.0 * se))
    assert misses <= 1


def test_fit_estimating_equation():
    sample = _sample(800, seed=42)
    fit = fit_mple(sample, SPEC.n)
    assert fit.final_score_norm < 1e-8
    assert np.abs(score(sample, SPEC.n, fit.beta_hat)).max() < 1e-8
    assert not fit.hit_boundary


def test_fit_separation_error():
    with pytest.raises(SeparationError):
        fit_mple(_no_exo_series([10] * 40), 10)
    with pytest.raises(SeparationError):
        fit_mple(_no_exo_series([0] * 40), 10)


def test_fit_singular_design():
    # A constant (non-boundary) series makes the AR column collinear with
    # the intercept.
    with pytest.raises(SingularHessianError):
        fit_mple(_no_exo_series([3] * 40), 10)


def test_fit_singular_curvature_at_the_optimum():
    # x = 1 of n = 2 and w = 1 throughout: beta = 0 zeroes the score before
    # any step, and every design row is (1, 1, 1), so the curvature there has
    # rank one.
    sample = SeriesSample(x=np.ones(11, dtype=np.int64), w=np.ones((10, 1)))
    with pytest.raises(SingularHessianError, match="curvature matrix singular at the optimum"):
        fit_mple(sample, 2)


def test_fit_nonconvergence_paths(monkeypatch):
    monkeypatch.setattr(estimation, "_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError):
        fit_mple(_sample(300, seed=13), SPEC.n)


def test_fit_requires_enough_transitions():
    sample = simulate_series(SPEC, 3, seed=1)
    with pytest.raises(ValueError):
        fit_mple(sample, SPEC.n)


def test_newton_log_pl_monotone():
    for seed in (3, 17, 90):
        _, trace = _newton_traced(_sample(250, seed=seed), SPEC.n)
        slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
        assert np.all(np.diff(trace) >= -slack)


def test_a_fit_no_trial_scale_takes_uphill_stops():
    # w is nearly constant, so the intercept and w are almost collinear and
    # the fit walks into the box, where all 1 + _MAX_HALVINGS trial scales
    # lower the log PL.  The fit takes the last one and stops there instead
    # of iterating on to _MAX_ITER.
    spec = ModelSpec(n=10, beta=SPEC.beta, exo=ExogenousSpec(sd=1e-3), burn_in=0)
    sample = simulate_series(spec, 30, seed=30_002)
    Z, y = estimation._stack_design(sample.x[None], sample.w[None])
    events, log_pl_kernel = [], estimation._log_pl

    def counted(*args):
        events.append("log_pl")
        return log_pl_kernel(*args)

    def marked(eta, *out):
        events.append("|")
        return logistic(eta, *out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_log_pl", counted)
        mp.setattr(estimation, "logistic", marked)
        fit = estimation._newton(Z, y, 10)
    # One log PL at the start, then per iteration a logistic and its trial
    # scales, and a last logistic after the loop.
    per_iteration = [len(part.split()) for part in " ".join(events).split("|")[1:-1]]
    assert isinstance(fit.errors[0], NonConvergenceError) and fit.hit_boundary[0]
    assert len(per_iteration) == fit.iterations[0] < estimation._MAX_ITER
    assert per_iteration[-1] == 1 + estimation._MAX_HALVINGS


def test_sigma0_iid_moment():
    # I.i.d. Bin(10, 1/2) data with beta = 0: entry (0,0) of sigma0 estimates
    # Var(Bin(10, 1/2)) = n/4 = 2.5.
    rng = np.random.default_rng(77)
    x = rng.binomial(10, 0.5, size=20001)
    sig = fit_mple(_no_exo_series(x), 10).sigma0_hat
    assert sig[0, 0] == pytest.approx(2.5, abs=0.1)


def test_fit_covariance_positive_definite():
    fit = fit_mple(_sample(500, seed=8), SPEC.n)
    assert np.linalg.eigvalsh(fit.covariance).min() > 0
    assert np.linalg.eigvalsh(fit.sigma0_hat).min() > 0


def test_covariance_shrinks_like_one_over_m():
    ratios = []
    for seed in range(5):
        small = fit_mple(_sample(500, seed=300 + seed), SPEC.n)
        big = fit_mple(_sample(2000, seed=600 + seed), SPEC.n)
        ratios.append(small.standard_errors() ** 2 / big.standard_errors() ** 2)
    mean_ratio = np.mean(ratios, axis=0)
    assert np.all(mean_ratio > 4.0 * 0.7)
    assert np.all(mean_ratio < 4.0 * 1.3)


def test_fit_report_round_trip():
    fit = fit_mple(_sample(300, seed=9), SPEC.n)
    report = fit_report(fit)
    assert "converged" not in report and report["final_score_norm"] < 1e-8
    assert report["aic"] == pytest.approx(2 * 3 - 2 * fit.log_pl)
    np.testing.assert_allclose(report["standard_errors"], fit.standard_errors())


def _stack(samples):
    return np.stack([s.x for s in samples]), np.stack([s.w for s in samples])


def _assert_same_bits(got, want):
    for f in dataclasses.fields(BatchFit):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "errors":
            assert [(type(e), str(e)) for e in a] == [(type(e), str(e)) for e in b]
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


def _assert_batch_row_matches_fit_mple(batch, i, sample, n=SPEC.n):
    """Row i of `batch` holds, in every field, the bytes of `sample` fitted
    alone (the batch of one that fit_mple runs); a failed row's error is the
    one fit_mple raises."""
    row = BatchFit(**{f.name: getattr(batch, f.name)[i:i + 1]
                      for f in dataclasses.fields(BatchFit)})
    _assert_same_bits(row, fit_mple_batch(sample.x[None], sample.w[None], n))
    if batch.errors[i] is not None:
        with pytest.raises(type(batch.errors[i])):
            fit_mple(sample, n)


def test_batched_fit_matches_fit_mple_per_rep_across_chunks():
    # m = 2000, d = 3: 10 series per chunk, so 25 series span three chunks,
    # with failing series on either side of a chunk boundary.
    m = 2000
    samples = [_sample(m, seed=900 + i) for i in range(25)]
    w = samples[0].w
    samples[9] = SeriesSample(x=np.full(m + 1, SPEC.n), w=w)  # separation
    samples[10] = SeriesSample(x=np.full(m + 1, 3), w=w)  # AR column = 3 * intercept
    samples[21] = SeriesSample(x=np.zeros(m + 1, dtype=np.int64), w=w)  # separation
    batch = fit_mple_batch(*_stack(samples), SPEC.n)
    assert [type(e).__name__ if e is not None else None for e in batch.errors][9:11] == [
        "SeparationError", "SingularHessianError"]
    assert batch.ok.sum() == 22
    for i, sample in enumerate(samples):
        _assert_batch_row_matches_fit_mple(batch, i, sample)


def test_batched_fit_nonconvergence_class(monkeypatch):
    monkeypatch.setattr(estimation, "_MAX_ITER", 1)
    samples = [_sample(300, seed=13), _sample(300, seed=14)]
    batch = fit_mple_batch(*_stack(samples), SPEC.n)
    assert all(isinstance(e, NonConvergenceError) for e in batch.errors)
    for i, sample in enumerate(samples):
        _assert_batch_row_matches_fit_mple(batch, i, sample)


def test_step_halving_per_rep_in_a_batch(monkeypatch):
    # x_prev separates the responses completely, so the MPLE runs off to the
    # box and full Newton steps overshoot; step-halving keeps log PL rising.
    monkeypatch.setattr(estimation, "_COND_LIMIT", 1e300)
    x = np.array([4, 4, 4, 4, 4, 0, 0, 0, 0, 0, 0])
    w = np.array([-4.9, -2.0, -2.4, 1.0, 1.7, -1.1, -0.1, -0.5, -6.7, 0.1])[:, None]
    separated = SeriesSample(x=x, w=w)
    solo, trace = _newton_traced(separated, 4)
    assert solo.hit_boundary[0] and solo.final_score_norm[0] >= 1e-8
    assert isinstance(solo.errors[0], NonConvergenceError)
    assert np.all(np.diff(trace) >= -1e-8 * (1.0 + np.abs(trace[:-1])))
    # Its neighbours in a batch keep their own step sizes.
    rng = np.random.default_rng(5)
    samples = [SeriesSample(x=rng.integers(0, 5, 11), w=rng.normal(1.0, 0.5, (10, 1)))
               for _ in range(2)]
    samples.insert(1, separated)
    batch = fit_mple_batch(*_stack(samples), 4)
    for i, sample in enumerate(samples):
        _assert_batch_row_matches_fit_mple(batch, i, sample, n=4)


@pytest.mark.parametrize("m", [30, 100])
def test_a_batch_whose_rows_mostly_halve_keeps_every_rows_bits(m):
    # w is nearly constant, so most of the 64 series walk into the box,
    # halve their steps and end unconverged, beside series that converge.
    # Each trial scale re-scores every active series, those whose scale is
    # kept from their unchanged candidates; each row must equal its fit alone.
    spec = dataclasses.replace(SPEC, exo=ExogenousSpec(sd=1e-3))
    samples = [simulate_series(spec, m, seed=1000 * m + i) for i in range(64)]
    events, log_pl_kernel = [], estimation._log_pl

    def counted(*args):
        events.append("log_pl")
        return log_pl_kernel(*args)

    def marked(eta, *out):
        events.append("|")
        return logistic(eta, *out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_log_pl", counted)
        mp.setattr(estimation, "logistic", marked)
        batch = fit_mple_batch(*_stack(samples), spec.n)
    # Per iteration a logistic, the full step's log PL, then one per halving.
    halvings = sum(max(len(part.split()) - 1, 0) for part in " ".join(events).split("|")[1:-1])
    unconverged = sum(isinstance(e, NonConvergenceError) for e in batch.errors)
    assert halvings >= estimation._MAX_HALVINGS and 32 < unconverged < 64
    for i, sample in enumerate(samples):
        _assert_batch_row_matches_fit_mple(batch, i, sample)


def _in_thread(work):
    """work() run in a new thread, whose kernel workspace starts empty."""
    out = []

    def run():
        assert estimation._WORKSPACE.flat == {}
        out.append(work())

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


def test_workspace_reuse_leaks_no_state():
    # A size-study block, the aux metric's long series, a batch of one, the
    # block again, then a series above the chunk bound, fitted back to back
    # in one thread: each fit and every field it returned, read after the
    # last fit, equals the same fit alone on an empty workspace.
    block = [_sample(300, seed=2000 + i) for i in range(256)]
    block[5] = SeriesSample(x=np.full(301, 3), w=block[5].w)  # singular: NaN covariance
    long_m = estimation._CHUNK_ELEMENTS // 3 + 1
    batches = [_stack(block), _stack([_sample(10_000, seed=2300)]),
               _stack([_sample(30, seed=2301)]), _stack(block),
               _stack([_sample(long_m, seed=2302)])]

    def back_to_back():
        fits = [fit_mple_batch(x, w, SPEC.n) for x, w in batches]
        return fits, {role: buf.size for role, buf in estimation._WORKSPACE.flat.items()}

    fits, sizes = _in_thread(back_to_back)
    for (x, w), fit in zip(batches, fits):
        _assert_same_bits(fit, _in_thread(lambda: fit_mple_batch(x, w, SPEC.n)))
    assert isinstance(fits[0].errors[5], SingularHessianError)
    assert 0 < max(sizes.values()) <= estimation._CHUNK_ELEMENTS


def test_threads_fitting_at_once_get_their_serial_results():
    # More threads than cores, each with its own batch shape, switching
    # every microsecond: a workspace shared between threads would mix rows.
    batches = [_stack([_sample(m, seed=2500 + 7 * m + i) for i in range(reps)])
               for m, reps in ((300, 100), (200, 64), (30, 16))]
    serial = [fit_mple_batch(x, w, SPEC.n) for x, w in batches]
    fits = {k: [] for k in range(len(batches))}
    start = threading.Barrier(len(batches))

    def work(k):
        start.wait(timeout=30)
        for _ in range(4):
            fits[k].append(fit_mple_batch(*batches[k], SPEC.n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in fits]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, want in enumerate(serial):
        assert len(fits[k]) == 4
        for fit in fits[k]:
            _assert_same_bits(fit, want)
