"""Time each layer of binarx in-process and write BENCH_<n>.json at the repo root.

Usage: python tools/bench.py N

N numbers the file, so that a change can cite the medians of two BENCH files
measured back to back on one host.  Every figure is the median of REPEATS
timed repeats after one untimed warm-up, with the repeats listed beside it.
Everything but the import layer runs in this process at threads=1 and starts
no worker process.  The layers:

- import: wall time and peak RSS (ru_maxrss) of `python -c "import binarx"`,
  each in a fresh interpreter started one at a time;
- model: µs per lockstep `_advance` step of a 256-chain block, inside one
  `np.errstate` as the block engine runs it, at n = 10 (Bernoulli sums) and
  at n = N_MAX_BERNOULLI + 1 (one binomial draw), and µs per `simulate_chain`
  transition;
- estimation: `fit_mple` ms at m = 300 and at m = 2000, and ms per
  `fit_mple_batch` of a 256-series block at m = 300;
- calibration: ms per replication of `threshold_table` (grid 1000, d = 3);
- monitoring: `monitor_init` ms, `monitor_update` µs per observation over
  900 steps (m = 300, gamma = 0.25), `read_series_csv` ms for 900 rows, and
  `read_threshold_table` µs for the calibration layer's 12-cell table;
- experiments: `run_size` ms per replication at m = 300.

The file also holds the run's metadata as perfbench/run.py records it (git
sha, `src/binarx` line count, stream contract, versions) and the slowdown
factor of perfbench's reference kernel, timed after each layer: the host's
speed drifts (perfbench/README.md, "Noise"), so compare two files only when
their factors are close.  Whole-run and Tier-1 timings are not measured here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
from run import metadata  # noqa: E402

from binarx import (CalibrationConfig, ExperimentConfig, ModelSpec, ParamVector,  # noqa: E402
                    default_model_spec, fit_mple, monitor_init, monitor_update, read_series_csv,
                    read_threshold_table, run_size, simulate_series, threshold_table)
from binarx.calibration import write_threshold_table  # noqa: E402
from binarx.estimation import fit_mple_batch  # noqa: E402
from binarx.experiments import BLOCK_SIZE, N_MAX_BERNOULLI, _advance, _linear_table  # noqa: E402
from binarx.model import SeriesSample, simulate_chain, write_series_csv  # noqa: E402

REPEATS = 5
THREADS = 1
SPEC = default_model_spec()
# The smallest n whose counts `_advance` draws with rng.binomial.
BINOMIAL_SPEC = ModelSpec(n=N_MAX_BERNOULLI + 1, beta=ParamVector(-1.0, 0.02, (0.4,)),
                          exo=SPEC.exo)
HORIZON, GAMMA, ALPHA = 3.0, 0.25, 0.05
MONITOR_M = 300
MONITOR_STEPS = int(HORIZON * MONITOR_M)  # the close-end horizon: 900 updates
ADVANCE_STEPS, CHAIN_LENGTH = 500, 20_000
FIT_CALLS = {300: 20, 2000: 4}
BATCH_M, BATCH_CALLS = 300, 5
CALIB_REPS, CSV_READS = 500, 20


def _median(sample) -> dict:
    """Median and list of REPEATS calls of `sample`, which returns one timed
    figure; one untimed call comes first."""
    sample()
    values = [sample() for _ in range(REPEATS)]
    return {"median": statistics.median(values), "repeats": values}


def _clock(fn, *args):
    t = perf_counter()
    out = fn(*args)
    return perf_counter() - t, out


# Times `import binarx` in REPEATS + 1 fresh interpreters, one at a time, and
# prints [wall seconds, peak RSS in MB] of each.  It runs in a small
# interpreter of its own: Linux carries a process's peak RSS across exec into
# its child, so a child of this process would report this process's peak.
_IMPORT_LAUNCHER = """
import json, os, sys, time
out = []
for _ in range(int(sys.argv[1])):
    t = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", "import binarx"], os.environ)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status):
        sys.exit("import binarx failed")
    out.append([time.perf_counter() - t, usage.ru_maxrss / 1024])
print(json.dumps(out))
"""


def import_layers() -> dict:
    """The import layer's two figures; the first interpreter is the warm-up."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_LAUNCHER, str(REPEATS + 1)], env=env,
                          capture_output=True, text=True, check=True)
    wall, rss = zip(*json.loads(proc.stdout)[1:])
    what = 'python -c "import binarx" in a fresh interpreter'
    return {"import.wall_s": {"unit": "s", "what": what, "median": statistics.median(wall),
                              "repeats": list(wall)},
            "import.peak_rss_mb": {"unit": "MB", "what": f"ru_maxrss of {what}",
                                   "median": statistics.median(rss), "repeats": list(rss)}}


def advance_us_per_step(spec: ModelSpec):
    def sample() -> float:
        rng = np.random.default_rng(1)
        table = _linear_table(spec.n, spec.beta)
        x = rng.binomial(spec.n, 0.5, BLOCK_SIZE)
        t = perf_counter()
        with np.errstate(over="ignore"):
            for _ in range(ADVANCE_STEPS):
                _, x = _advance(spec, table, x, rng)
        return (perf_counter() - t) / ADVANCE_STEPS * 1e6
    return sample


def chain_us_per_transition() -> float:
    seconds, _ = _clock(simulate_chain, SPEC, CHAIN_LENGTH, np.random.default_rng(2), 3)
    return seconds / CHAIN_LENGTH * 1e6


def fit_ms(m: int):
    series = simulate_series(SPEC, m, seed=m)

    def sample() -> float:
        t = perf_counter()
        for _ in range(FIT_CALLS[m]):
            fit_mple(series, SPEC.n)
        return (perf_counter() - t) / FIT_CALLS[m] * 1e3
    return sample


def fit_batch_ms():
    samples = [simulate_series(SPEC, BATCH_M, seed=BATCH_M + i) for i in range(BLOCK_SIZE)]
    x, w = np.stack([s.x for s in samples]), np.stack([s.w for s in samples])

    def sample() -> float:
        t = perf_counter()
        for _ in range(BATCH_CALLS):
            fit_mple_batch(x, w, SPEC.n)
        return (perf_counter() - t) / BATCH_CALLS * 1e3
    return sample


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{argv[0]}.json"
    kernel_us: list = []
    layers = {}

    def record(name: str, unit: str, what: str, sample) -> None:
        layers[name] = {"unit": unit, "what": what, **_median(sample)}
        reference.sample(kernel_us)

    layers.update(import_layers())
    reference.sample(kernel_us)
    record("model.advance_us_per_step", "us",
           f"one lockstep _advance step of {BLOCK_SIZE} chains at n={SPEC.n}",
           advance_us_per_step(SPEC))
    record(f"model.advance_us_per_step_n{BINOMIAL_SPEC.n}", "us",
           f"one lockstep _advance step of {BLOCK_SIZE} chains at n={BINOMIAL_SPEC.n}",
           advance_us_per_step(BINOMIAL_SPEC))
    record("model.chain_us_per_transition", "us",
           f"simulate_chain, {CHAIN_LENGTH} transitions", chain_us_per_transition)
    for m in FIT_CALLS:
        record(f"estimation.fit_ms_m{m}", "ms", f"fit_mple at m={m}", fit_ms(m))
    record("estimation.fit_batch_ms", "ms",
           f"fit_mple_batch of {BLOCK_SIZE} series at m={BATCH_M}", fit_batch_ms())

    calib = CalibrationConfig(dim=3, horizon=HORIZON, grid_m=1000, reps=CALIB_REPS,
                              master_seed=5)
    tables = []

    def calibration_ms_per_rep() -> float:
        seconds, table = _clock(threshold_table, calib, THREADS)
        tables.append(table)
        return seconds / CALIB_REPS * 1e3
    record("calibration.ms_per_rep", "ms",
           f"threshold_table at grid 1000, d=3, N={HORIZON}, {CALIB_REPS} reps",
           calibration_ms_per_rep)

    path = simulate_series(SPEC, MONITOR_M + MONITOR_STEPS, seed=6)
    training = SeriesSample(path.x[:MONITOR_M + 1], path.w[:MONITOR_M])
    stream = list(zip(path.x[MONITOR_M + 1:].tolist(), path.w[MONITOR_M:]))
    init_ms = []

    def update_us() -> float:
        seconds, state = _clock(monitor_init, training, SPEC.n, HORIZON, GAMMA, ALPHA, math.inf)
        init_ms.append(seconds * 1e3)
        t = perf_counter()
        for x, w in stream:
            monitor_update(state, x, w)
        seconds = perf_counter() - t
        if state.k != MONITOR_STEPS:
            raise RuntimeError(f"monitor stopped at k={state.k}, not {MONITOR_STEPS}")
        return seconds / MONITOR_STEPS * 1e6
    record("monitoring.update_us", "us",
           f"monitor_update per observation, {MONITOR_STEPS} steps, m={MONITOR_M}, "
           f"gamma={GAMMA}, no alarm", update_us)
    layers["monitoring.init_ms"] = {
        "unit": "ms", "what": f"monitor_init at m={MONITOR_M}, repeats of the update figure",
        "median": statistics.median(init_ms[1:]), "repeats": init_ms[1:]}

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "series.csv"
        # 900 rows: t = 0 .. 899.
        write_series_csv(SeriesSample(path.x[:MONITOR_STEPS], path.w[:MONITOR_STEPS - 1]),
                         csv_path)

        def read_ms() -> float:
            t = perf_counter()
            for _ in range(CSV_READS):
                read_series_csv(csv_path)
            return (perf_counter() - t) / CSV_READS * 1e3
        record("monitoring.read_series_csv_ms", "ms",
               f"read_series_csv of a {MONITOR_STEPS}-row series", read_ms)

        table_path = Path(tmp) / "thresholds.csv"
        write_threshold_table(tables[-1], table_path)

        def read_table_us() -> float:
            t = perf_counter()
            for _ in range(CSV_READS):
                read_threshold_table(table_path)
            return (perf_counter() - t) / CSV_READS * 1e6
        record("monitoring.read_threshold_table_us", "us",
               f"read_threshold_table of a {len(tables[-1].entries)}-cell table", read_table_us)

    size_config = ExperimentConfig(m_list=(MONITOR_M,), reps=BLOCK_SIZE, horizon=HORIZON,
                                   thresholds=tables[-1], master_seed=7)

    def size_ms_per_rep() -> float:
        seconds, _ = _clock(run_size, size_config, THREADS)
        return seconds / BLOCK_SIZE * 1e3
    record("experiments.size_ms_per_rep", "ms",
           f"run_size at m={MONITOR_M}, {BLOCK_SIZE} reps, a pre-built table", size_ms_per_rep)

    sources = sorted((ROOT / "src" / "binarx").glob("*.py"))
    meta = {
        **metadata({"versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                                 "scipy": scipy.__version__}}),
        # The measured sources, also when they differ from the commit at git_sha.
        "src_binarx_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "threads": THREADS,
        "repeats": REPEATS,
    }
    result = {
        "meta": meta,
        "reference_kernel": {"slowdown": reference.slowdown(kernel_us),
                             "nominal_us": reference.REF_NOMINAL_US,
                             "samples": len(kernel_us)},
        "layers": layers,
    }
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for name, figure in layers.items():
        print(f"{name} {figure['median']:.6g} {figure['unit']}")
    print(f"reference slowdown {result['reference_kernel']['slowdown']:.4g}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
