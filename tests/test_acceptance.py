"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add `-s` to stream the lines;
the default config also echoes them in the summary).  All randomized
criteria run from the package default master seed, fixed a priori.

Criterion 03 measures the estimator's MSE against the stationary-information
oracle G = E_pi[n p (1 - p) z z'], computed by quadrature over the
stationary pmf of `stationary_oracle` and the clamped-normal covariate
(`_stationary_information`; `test_stationary_information_matches_curvature`
checks G against the averaged curvature of a long simulated series).  The
MPLE has asymptotic covariance G^-1 / m, so each of the nine ratios
m * MSE_j / [G^-1]_jj (three training lengths, three coefficients) must lie
in the two-sided 0.999 chi-square band chi2_reps / reps, [0.599, 1.532] at
100 reps.  The published MSE(phi1, m=1500) = 0.00023 is 2.23 times the
oracle value 0.000103; the criterion prints that ratio and does not assert it.

Criterion 05 checks the gamma = 0 critical values against their exact law
(`bessel3_sup_tail`, pinned to a fine-grid simulation by
`test_bessel3_sup_series_matches_fine_grid_simulation`): the exact tail
probability at each calibrated c(0, alpha) must lie in the two-sided 0.999
binomial band of alpha at the table's reps.  The published gamma = 0 cells
have exact tails 0.103, 0.040, 0.016 and 0.007 rather than the nominal
alphas; the criterion prints them and does not assert them.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom, chi2

from binarx import (
    CalibrationConfig,
    ChangePoint,
    ExperimentConfig,
    NonConvergenceError,
    ParamVector,
    default_model_spec,
    fit_mple,
    run_power,
    run_size,
    simulate_series,
    threshold_table,
)
from binarx.calibration import quantile_higher
from binarx.cli import run_command
from binarx.dataprep import RatePanel, binarize_and_sum, compute_baseline, model_comparison
from binarx.defaults import DEFAULT_SEED
from binarx.experiments import run_consistency, run_normality
from binarx.model import _QUAD_NODES, _exogenous_quadrature, stationary_oracle
from calibration_reference import bessel3_sup_tail, sample_sup_functional
from series_kernel import curvature, log_pl, score

SPEC = default_model_spec()
PAPER_MEAN_BETA = np.array([-0.9931, 0.0980, 0.4036])


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _stationary_information(spec) -> np.ndarray:
    """G = E_pi[n p (1 - p) z z'] with z = (1, x_prev, w), by quadrature.

    x_prev follows the stationary pmf of `stationary_oracle` and the
    covariate, drawn independently of the past, follows the clamped-normal
    quadrature rule the oracle itself integrates with.
    """
    _, mu = stationary_oracle(spec)
    pts, wts = _exogenous_quadrature(spec.exo, spec.beta.l, _QUAD_NODES)
    beta = spec.beta.as_array()
    G = np.zeros((beta.size, beta.size))
    for x_prev, mass in enumerate(mu):
        Z = np.column_stack([np.ones(wts.size), np.full(wts.size, x_prev), pts])
        p = expit(Z @ beta)
        G += mass * (Z * (wts * spec.n * p * (1.0 - p))[:, None]).T @ Z
    return G


def test_bessel3_sup_series_matches_fine_grid_simulation():
    # 4000 paths of W_3 on 1000 steps over [0, 3/4].  The discrete maximum
    # sits slightly below the supremum; that bias is well inside 4 MC sd.
    rng = np.random.default_rng(np.random.SeedSequence((DEFAULT_SEED, 105)))
    sups = []
    for _ in range(16):
        W = np.cumsum(rng.standard_normal((250, 1000, 3)) * math.sqrt(0.75 / 1000), axis=1)
        sups.append(np.einsum("pkd,pkd->pk", W, W).max(axis=1))
    sups = np.concatenate(sups)
    for c in (3.0, 5.6724, 6.854, 8.0107, 9.5141):
        tail = bessel3_sup_tail(c)
        assert abs((sups >= c).mean() - tail) <= 4.0 * math.sqrt(tail * (1.0 - tail) / sups.size), c


def test_stationary_information_matches_curvature():
    sample = simulate_series(SPEC, 10**5, seed=DEFAULT_SEED)
    averaged = curvature(sample, SPEC.n, SPEC.beta) / sample.m
    np.testing.assert_allclose(averaged, _stationary_information(SPEC), rtol=1e-2)


def _central_diff(f, b, h=1e-5):
    cols = []
    for j in range(b.size):
        hi, lo = b.copy(), b.copy()
        hi[j] += h
        lo[j] -= h
        cols.append((f(hi) - f(lo)) / (2 * h))
    return np.stack(cols, axis=-1)


def test_criterion_01_gradient_oracle():
    # log_pl, score and curvature call the Newton kernel's own helpers.
    start = time.monotonic()
    rng = np.random.default_rng(np.random.SeedSequence((DEFAULT_SEED, 101)))
    worst = 0.0
    for i in range(50):
        sample = simulate_series(SPEC, 200, seed=100_000 + i)
        beta = rng.uniform(-2.0, 2.0, size=3)
        fd_score = _central_diff(lambda b: log_pl(sample, SPEC.n, b), beta)
        s = score(sample, SPEC.n, beta)
        err_s = np.abs(fd_score - s) / np.maximum(1.0, np.abs(s))
        fd_grad = _central_diff(lambda b: score(sample, SPEC.n, b), beta)
        g = -curvature(sample, SPEC.n, beta)
        err_g = np.abs(fd_grad - g) / np.maximum(1.0, np.abs(g))
        worst = max(worst, err_s.max(), err_g.max())
    elapsed = time.monotonic() - start
    # The wall time stays out of the ACCEPTANCE line, which depends on the code alone.
    _criterion(1, "gradient-oracle", worst < 1e-6, f"max rel err {worst:.2e} over 50 pairs")
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, over 10s"


def test_criterion_02_estimating_equation():
    worst_norm = 0.0
    boundary_hits = 0
    unconverged = 0
    for i in range(100):
        sample = simulate_series(SPEC, 2000, seed=200_000 + i)
        try:
            fit = fit_mple(sample, SPEC.n)
        except NonConvergenceError:
            unconverged += 1
            continue
        worst_norm = max(worst_norm, fit.final_score_norm)
        boundary_hits += fit.hit_boundary
    ok = worst_norm < 1e-8 and boundary_hits == 0 and unconverged == 0
    _criterion(
        2,
        "estimating-equation",
        ok,
        f"100 fits at m=2000, max |PSV| {worst_norm:.2e}, "
        f"{boundary_hits} boundary hits, {unconverged} unconverged",
    )


def test_criterion_03_consistency_table():
    config = ExperimentConfig(
        m_list=(500, 1000, 1500), reps=100, master_seed=DEFAULT_SEED
    )
    report = run_consistency(config)
    m = np.array([row[0] for row in report.rows], dtype=float)
    mse = np.vstack([row[1] for row in report.rows])
    decreasing = bool(np.all(np.diff(mse, axis=0) < 0))
    all_used = all(row[2] == config.reps for row in report.rows)
    # reps * MSE_j / sigma_j^2 is chi-square with `reps` degrees of freedom
    # when the errors are N(0, sigma_j^2) with sigma_j^2 = [G^-1]_jj / m.
    lo, hi = chi2.ppf([0.0005, 0.9995], config.reps) / config.reps
    avar = np.diag(np.linalg.inv(_stationary_information(SPEC)))
    ratios = m[:, None] * mse / avar
    in_band = bool(np.all((lo <= ratios) & (ratios <= hi)))
    oracle_phi1_1500 = avar[1] / 1500
    _criterion(
        3,
        "consistency-mse",
        decreasing and all_used and in_band,
        f"strictly decreasing={decreasing}, all {config.reps} reps used={all_used}, "
        f"m*MSE/[G^-1]_jj rows m={m.astype(int).tolist()}, cols "
        f"{list(report.param_names)}: {np.round(ratios, 3).tolist()} "
        f"vs chi2 band [{lo:.3f}, {hi:.3f}]; MSE(phi1, m=1500)={mse[2, 1]:.6f}, "
        f"oracle {oracle_phi1_1500:.6f}, published 0.00023 = "
        f"{0.00023 / oracle_phi1_1500:.2f}x oracle",
    )


def test_criterion_04_normality():
    config = ExperimentConfig(m_list=(400,), reps=1000, master_seed=DEFAULT_SEED)
    report = run_normality(config)
    reps_ok = report.estimates.shape[0]
    mcse = report.estimates.std(axis=0, ddof=1) / math.sqrt(reps_ok)
    mean_ok = bool(np.all(np.abs(report.mean - PAPER_MEAN_BETA) <= 3.0 * mcse))
    qq_ok = bool(np.all(report.qq_corr > 0.99))
    _criterion(
        4,
        "normality",
        mean_ok and qq_ok,
        f"mean {np.round(report.mean, 4).tolist()} vs {PAPER_MEAN_BETA.tolist()} "
        f"(3*MCSE {np.round(3 * mcse, 4).tolist()}), min QQ corr {report.qq_corr.min():.4f}",
    )


def test_criterion_05_threshold_reproduction(table10k):
    # Exact tail at each calibrated gamma = 0 cell against the two-sided
    # 0.999 binomial band of alpha at the table's reps.
    alphas = (0.1, 0.05, 0.025, 0.01)
    tails = [bessel3_sup_tail(table10k.lookup(0.0, a)) for a in alphas]
    bands = [binom.ppf((0.0005, 0.9995), table10k.reps, a) / table10k.reps for a in alphas]
    ok_a = all(lo <= tail <= hi for tail, (lo, hi) in zip(tails, bands))
    published_tails = [bessel3_sup_tail(c) for c in (5.6145, 7.2195, 8.6995, 10.0376)]
    c_401 = table10k.lookup(0.4, 0.01)
    ok_b = abs(c_401 - 13.7854) <= 0.8

    sig1 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.9]])
    sig2 = np.diag([4.0, 0.25, 1.0])
    small = dict(dim=3, reps=500, grid_m=500, horizon=3.0, master_seed=DEFAULT_SEED,
                 gammas=(0.0, 0.4), alphas=(0.1, 0.05))
    cfg_std = CalibrationConfig(**small)
    # Distribution-free: tables built from the explicit Cholesky route under
    # two different Wiener covariances give the whitened table's cells.
    whitened = threshold_table(cfg_std).entries
    free = True
    for sig in (sig1, sig2):
        for g in cfg_std.gammas:
            sups = [sample_sup_functional(cfg_std, g, rep, sigma=sig) for rep in range(cfg_std.reps)]
            free &= all(abs(quantile_higher(sups, 1.0 - a) - whitened[g, a]) < 1e-10
                        for a in cfg_std.alphas)
    # The whitening that makes the identity exact agrees with the explicit
    # Cholesky route replication by replication.
    reduction_err = max(
        abs(sample_sup_functional(cfg_std, 0.4, rep, sigma=sig1)
            - sample_sup_functional(cfg_std, 0.4, rep))
        for rep in range(20)
    )
    ok = ok_a and ok_b and free and reduction_err < 1e-10
    _criterion(
        5,
        "threshold-table",
        ok,
        f"exact tails at c(0,alpha) {np.round(tails, 4).tolist()} in 0.999 bands "
        f"{[np.round(b, 4).tolist() for b in bands]}={ok_a}, "
        f"c(0.4,0.01)={c_401:.4f} (target 13.7854±0.8), distribution-free={free}, "
        f"whitening err {reduction_err:.1e}; published gamma=0 cells' exact tails "
        f"{np.round(published_tails, 4).tolist()} (not asserted)",
    )


def test_criterion_06_empirical_size(table10k):
    config = ExperimentConfig(
        m_list=(300,),
        reps=1000,
        gammas=(0.0,),
        alphas=(0.05, 0.01),
        master_seed=DEFAULT_SEED,
        thresholds=table10k,
    )
    report = run_size(config)
    rates = {row[2]: row[4] for row in report.rows}
    ok_05 = abs(rates[0.05] - 0.0468) <= 0.02
    ok_01 = abs(rates[0.01] - 0.0099) <= 0.01
    _criterion(
        6,
        "empirical-size",
        ok_05 and ok_01,
        f"rate(0.05)={rates[0.05]:.4f} (target 0.0468±0.02), "
        f"rate(0.01)={rates[0.01]:.4f} (target 0.0099±0.01)",
    )


def test_criterion_07_power_and_delay(table10k):
    config = ExperimentConfig(
        m_list=(100,),
        reps=500,
        gammas=(0.0, 0.25, 0.4),
        alphas=(0.05,),
        master_seed=DEFAULT_SEED,
        thresholds=table10k,
        change=ChangePoint(at_k=11, new_beta=ParamVector(-1.0, 0.2, (0.4,))),
    )
    report = run_power(config)
    rates = {row[1]: row[4] for row in report.rows}
    means = {row[1]: row[5] for row in report.rows}
    all_detected = all(r == 1.0 for r in rates.values())
    ok_g0 = abs(means[0.0] - 30.56) <= 0.15 * 30.56
    ok_g4 = abs(means[0.4] - 22.31) <= 0.15 * 22.31
    ordered = means[0.0] >= means[0.25] >= means[0.4]
    _criterion(
        7,
        "power-and-delay",
        all_detected and ok_g0 and ok_g4 and ordered,
        f"detection rates {sorted(rates.values())}, mean k g=0: {means[0.0]:.2f} "
        f"(30.56±15%), g=0.4: {means[0.4]:.2f} (22.31±15%), ordered={ordered}",
    )


def test_criterion_08_stationarity_oracle():
    _, mu = stationary_oracle(SPEC)
    sample = simulate_series(SPEC, 10**5, seed=DEFAULT_SEED)
    empirical = np.bincount(sample.x[1:], minlength=SPEC.n + 1) / sample.m
    tv = 0.5 * float(np.abs(empirical - mu).sum())
    _criterion(8, "stationarity-oracle", tv < 0.05, f"TV distance {tv:.4f} < 0.05")


def test_criterion_09_data_pipeline():
    rows = [("A", 2019, w, 1.0) for w in range(1, 7)]
    rows += [("B", 2019, w, 2.0) for w in range(1, 7)]
    eval_rates = {
        ("A", 1): 1.5, ("A", 2): 0.5, ("A", 3): 1.0, ("A", 4): 2.0, ("A", 5): 0.9,
        ("A", 6): 1.1,
        ("B", 1): 2.5, ("B", 2): 2.5, ("B", 3): 1.9, ("B", 4): 2.0, ("B", 5): 2.1,
        ("B", 6): 0.1,
    }
    rows += [(s, 2020, w, r) for (s, w), r in eval_rates.items()]
    window = [(2020, w) for w in range(1, 7)]

    panel = RatePanel(rows)
    counts = binarize_and_sum(panel, compute_baseline(panel, {2019}), ["A", "B"], window)
    fixture_ok = counts.tolist() == [2, 1, 0, 1, 1, 1]

    scaled_panel = RatePanel([(s, y, w, 7.5 * r) for (s, y, w), r in panel.items()])
    scaled = binarize_and_sum(
        scaled_panel, compute_baseline(scaled_panel, {2019}), ["A", "B"], window
    )
    equivariant = scaled.tolist() == counts.tolist()

    # LR test null behaviour plus the nesting inequality over 100 seeded
    # i.i.d. Bin(6, 0.4) series.
    over_05 = 0
    nesting_ok = True
    for i in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((DEFAULT_SEED, 9, i)))
        x = rng.binomial(6, 0.4, size=251)
        out = model_comparison(x, 6)
        over_05 += out["p_value"] > 0.05
        nesting_ok &= out["ll_ar1"] >= out["ll_simple"] - 1e-6
    ok = fixture_ok and equivariant and nesting_ok and over_05 >= 90
    _criterion(
        9,
        "data-pipeline",
        ok,
        f"fixture={fixture_ok}, scale-equivariant={equivariant}, nesting={nesting_ok}, "
        f"null p>0.05 in {over_05}/100 trials (need >= 90)",
    )


def _run_cli(root, config, run, command, extra=()):
    code = run_command(["--config", str(config), "--out", str(root / run), "--quiet", *extra,
                        command])
    assert code in (0, 3), f"{command} exited {code}"
    return {p.name: p.read_bytes() for p in sorted((root / run).iterdir())}


def test_criterion_10_cli_determinism(tmp_path, golden_digests):
    # The criterion-10 workflow of tools/golden_digests.py, whose digests
    # tests/golden pins: `fit`, `monitor` and `compare` read its first
    # simulated series.
    config = golden_digests.criterion_10(tmp_path)
    sim_first = _run_cli(tmp_path, config, golden_digests.C10_FIRST_SIMULATE, "simulate")
    mismatches = []
    pairs = {}
    for command in golden_digests.COMMANDS:
        a = _run_cli(tmp_path, config, f"{command}_a", command)
        b = _run_cli(tmp_path, config, f"{command}_b", command)
        pairs[command] = a
        if a != b:
            mismatches.append(command)
    if sim_first != pairs["simulate"]:
        mismatches.append("simulate-vs-first")
    for command in ("calibrate", "experiment"):
        threaded = _run_cli(tmp_path, config, f"{command}_t2", command, ("--threads", "2"))
        if threaded != pairs[command]:
            mismatches.append(f"{command}-threads")
    _criterion(
        10,
        "cli-determinism",
        not mismatches,
        "byte-identical artifacts for all 7 subcommands, thread-count invariant"
        if not mismatches
        else f"mismatches: {mismatches}",
    )
