"""Seeded benchmark inputs, generated with numpy alone and cached per seed.

Nothing here imports binarx: the program under test only ever reads the files
written below (series CSVs, stream CSVs and a threshold-table CSV), so a
change to the program's random streams cannot change the benchmark's inputs.
The generator mirrors the reference model of `binarx.default_model_spec()`:
n = 10, beta = (-1, 0.1, 0.4), one covariate drawn N(1, 0.1) and clamped to
[0, 10], and a Bin(n, 1/2) start followed by a 500-step burn-in.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
from pathlib import Path

import numpy as np

N = 10
BETA = (-1.0, 0.1, 0.4)
CHANGED_BETA = (-1.0, 0.2, 0.4)  # the criterion-07 change
CHANGE_AT_K = 11
EXO_MEAN, EXO_SD, EXO_LO, EXO_HI = 1.0, 0.1, 0.0, 10.0
BURN_IN = 500

GAMMAS = (0.0, 0.25, 0.4)
ALPHAS = (0.1, 0.05, 0.025, 0.01)
HORIZON = 3.0
DIM = 3

# Reference threshold table: the benchmark's own Monte-Carlo of the limiting
# functional (whitened form, A = Sigma^-1), used wherever a workload needs a
# pre-built table so that calibration is bypassed.
TABLE_REPS = 2000
TABLE_GRID = 1000

MONITOR_M = 300
MONITOR_ALPHA = 0.05
MONITOR_POOL = 32  # distinct monitors per seed; the timed loop cycles through them

_INPUT_VERSION = 2  # bump when anything above changes, so stale caches are rebuilt


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, tag]))


def _simulate(rng, x0: np.ndarray, steps: int, change_after: int | None = None):
    """Advance len(x0) independent chains `steps` transitions at once.

    Transitions after `change_after` use CHANGED_BETA.  Returns x with shape
    (chains, steps + 1) and w with shape (chains, steps).
    """
    k = x0.size
    w = np.clip(rng.normal(EXO_MEAN, EXO_SD, size=(k, steps)), EXO_LO, EXO_HI)
    x = np.empty((k, steps + 1), dtype=np.int64)
    x[:, 0] = x0
    for t in range(steps):
        b = CHANGED_BETA if change_after is not None and t >= change_after else BETA
        eta = b[0] + b[1] * x[:, t] + b[2] * w[:, t]
        x[:, t + 1] = rng.binomial(N, 1.0 / (1.0 + np.exp(-eta)))
    return x, w


def _write_series(path: Path, x: np.ndarray, w: np.ndarray) -> None:
    """Series CSV as `binarx.read_series_csv` reads it: t,x,w1 with an empty t=0 cell."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["t", "x", "w1"])
        out.writerow([0, int(x[0]), ""])
        for t in range(1, x.size):
            out.writerow([t, int(x[t]), repr(float(w[t - 1]))])


def reference_sups(seed: int, reps: int = TABLE_REPS, grid_m: int = TABLE_GRID) -> np.ndarray:
    """(reps, len(GAMMAS)) suprema of rho^2(s, g) |W1(s) - s W2(1)|^2 on the grid."""
    rng = _rng(seed, 1)
    steps = int(np.floor(HORIZON * grid_m + 1e-9))
    s = np.arange(1, steps + 1) / grid_m
    rho_sq = np.stack([(s ** (-g) * (s + 1.0) ** (g - 1.0)) ** 2 for g in GAMMAS])
    out = np.empty((reps, len(GAMMAS)))
    block = 50
    for lo in range(0, reps, block):
        b = min(block, reps - lo)
        w1 = np.cumsum(rng.standard_normal((b, steps, DIM)), axis=1) / np.sqrt(grid_m)
        d = w1 - s[None, :, None] * rng.standard_normal((b, 1, DIM))
        q = np.einsum("bkd,bkd->bk", d, d)
        out[lo : lo + b] = (q[:, None, :] * rho_sq[None, :, :]).max(axis=2)
    return out


def _quantile_higher(values: np.ndarray, q: float) -> float:
    u = np.sort(values)
    return float(u[min(max(int(np.ceil(q * u.size - 1e-9)) - 1, 0), u.size - 1)])


def _write_table(path: Path, seed: int) -> dict:
    sups = reference_sups(seed)
    entries = {}
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["gamma", "alpha", "c", "reps", "grid_m", "N", "seed"])
        for j, g in enumerate(GAMMAS):
            for a in ALPHAS:
                c = _quantile_higher(sups[:, j], 1.0 - a)
                entries[f"{g!r},{a!r}"] = c
                out.writerow([repr(g), repr(a), repr(c), TABLE_REPS, TABLE_GRID, repr(HORIZON), seed])
    return entries


def _write_monitors(root: Path, seed: int) -> list[dict]:
    """Training series (m = 300) and stream files for MONITOR_POOL monitors.

    Even-numbered monitors see no change; odd-numbered ones switch to
    CHANGED_BETA from monitored index CHANGE_AT_K on, as in criterion 07.  A
    stream file is a series CSV whose t=0 row repeats the last training count,
    so both files go through the program's series reader.
    """
    rng = _rng(seed, 2)
    k = MONITOR_POOL
    horizon = int(np.floor(HORIZON * MONITOR_M + 1e-9))
    xb, _ = _simulate(rng, rng.binomial(N, 0.5, size=k), BURN_IN)
    xt, wt = _simulate(rng, xb[:, -1], MONITOR_M)
    xs0, ws0 = _simulate(rng, xt[:, -1], horizon)
    xs1, ws1 = _simulate(rng, xt[:, -1], horizon, change_after=CHANGE_AT_K - 1)
    monitors = []
    for i in range(k):
        change = i % 2 == 1
        xs, ws = (xs1, ws1) if change else (xs0, ws0)
        train, stream = root / f"train_{i:03d}.csv", root / f"stream_{i:03d}.csv"
        _write_series(train, xt[i], wt[i])
        _write_series(stream, xs[i], ws[i])
        monitors.append(
            {"training": train.name, "stream": stream.name, "change": change,
             "gamma": GAMMAS[(i // 2) % len(GAMMAS)]}
        )
    return monitors


def ensure_inputs(cache_root: Path, seed: int, monitors: bool) -> Path:
    """Directory holding this seed's inputs; generated on first use, then only read."""
    root = cache_root / f"v{_INPUT_VERSION}-seed{seed}"
    manifest = root / "manifest.json"
    if manifest.exists():
        info = json.loads(manifest.read_text())
        if info["monitors"] or not monitors:
            return root
    tmp = cache_root / f".tmp-{os.getpid()}-seed{seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    info = {"seed": seed, "table": _write_table(tmp / "thresholds.csv", seed), "monitors": []}
    if monitors:
        info["monitors"] = _write_monitors(tmp, seed)
    (tmp / "manifest.json").write_text(json.dumps(info, indent=1))
    shutil.rmtree(root, ignore_errors=True)
    os.replace(tmp, root)
    return root
