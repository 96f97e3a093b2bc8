"""Time each layer of binarx in-process and write BENCH_<n>.json at the repo root.

Usage: python tools/bench.py N [--parent DIR]

N numbers the file, so that a change can cite the medians of two BENCH files
measured back to back on one host.  Every figure is the median of REPEATS
timed repeats after one untimed warm-up, with the repeats listed beside it.
Everything but the import layer runs in this process at threads=1 and starts
no worker process.

With --parent DIR, the layers of DIR/src (a checkout of the parent commit)
and of this tree's src are timed in ROUNDS rounds instead.  Each round
starts a fresh interpreter per tree (`--serve SRC`, which times one repeat
of a layer on request) and takes the two trees' repeats of each layer in
turn, the first of each pair swapping every repeat and every round: the
host's speed drifts within seconds, and a repeat of each tree a fraction of
a second apart shares that drift.  BENCH_<n>_parent.json and BENCH_<n>.json
then hold, per layer, the median over the rounds of each round's median,
with the round medians listed beside it; their metadata gives the round
count and the sha256 of the sources each file measured.  The layers:

- import: wall time and peak RSS (ru_maxrss) of `python -c "import binarx"`,
  each in a fresh interpreter started one at a time;
- model: µs per lockstep `_advance` step of a 256-chain block, inside one
  `np.errstate` and with each step's counts stored in an int64 row, as a
  monitored pass runs it, and µs per transition of a 20,000-step
  `simulate_chain`; each at n = 10 (Bernoulli sums) and at
  n = N_MAX_BERNOULLI + 1 (binomial draws);
- estimation: `fit_mple` ms at m = 300 and at m = 2000, and ms per
  `fit_mple_batch` of a 256-series block at m = 300;
- calibration: ms per replication of `threshold_table` (grid 1000, d = 3);
- monitoring: `monitor_init` ms, `monitor_update` µs per observation over
  900 steps (m = 300, gamma = 0.25), `read_series_csv` ms for 900 rows, and
  `read_threshold_table` µs for the calibration layer's 12-cell table;
- experiments: `run_size` ms per replication at m = 300, and the minor page
  faults (the ru_minflt delta) of that one call.

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
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# The sources measured: this tree's, or those named by `--serve SRC`.
SRC = (Path(sys.argv[sys.argv.index("--serve") + 1]) if "--serve" in sys.argv[1:-1]
       else ROOT / "src")
sys.path.insert(0, str(SRC))
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
ROUNDS = 10  # rounds of both trees with --parent
THREADS = 1
SPEC = default_model_spec()
# The smallest n whose counts both simulators draw with rng.binomial.
BINOMIAL_SPEC = ModelSpec(n=N_MAX_BERNOULLI + 1, beta=ParamVector(-1.0, 0.02, (0.4,)),
                          exo=SPEC.exo)
HORIZON, GAMMA, ALPHA = 3.0, 0.25, 0.05
MONITOR_M = 300
MONITOR_STEPS = int(HORIZON * MONITOR_M)  # the close-end horizon: 900 updates
ADVANCE_STEPS, CHAIN_LENGTH = 500, 20_000
FIT_CALLS = {300: 20, 2000: 4}
BATCH_M, BATCH_CALLS = 300, 5
CALIB_REPS, CSV_READS = 500, 20


def _clock(fn, *args):
    t = perf_counter()
    out = fn(*args)
    return perf_counter() - t, out


# Times `import binarx` in one fresh interpreter and prints [wall seconds,
# peak RSS in MB].  It runs in a small interpreter of its own: Linux carries a
# process's peak RSS across exec into its child, so a child of this process
# would report this process's peak.
_IMPORT_LAUNCHER = """
import json, os, sys, time
t = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", "import binarx"], os.environ)
_, status, usage = os.wait4(pid, 0)
if os.waitstatus_to_exitcode(status):
    sys.exit("import binarx failed")
print(json.dumps([time.perf_counter() - t, usage.ru_maxrss / 1024]))
"""


def import_once() -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_LAUNCHER], env=env,
                          capture_output=True, text=True, check=True)
    wall, rss = json.loads(proc.stdout)
    return {"import.wall_s": wall, "import.peak_rss_mb": rss}


def advance_us_per_step(name: str, spec: ModelSpec):
    def sample() -> dict:
        rng = np.random.default_rng(1)
        table = _linear_table(spec.n, spec.beta)
        x = np.empty((ADVANCE_STEPS + 1, BLOCK_SIZE), dtype=np.int64)
        x[0] = rng.binomial(spec.n, 0.5, BLOCK_SIZE)
        t = perf_counter()
        with np.errstate(over="ignore"):
            for s in range(ADVANCE_STEPS):
                _, x[s + 1] = _advance(spec, table, x[s], rng)
        return {name: (perf_counter() - t) / ADVANCE_STEPS * 1e6}
    return sample


def chain_us_per_transition(name: str, spec: ModelSpec):
    def sample() -> dict:
        seconds, _ = _clock(simulate_chain, spec, CHAIN_LENGTH, np.random.default_rng(2), 3)
        return {name: seconds / CHAIN_LENGTH * 1e6}
    return sample


def per_call(name: str, scale: float, calls: int, fn, *args):
    """A sample of the mean time of `calls` calls of fn(*args), times `scale`."""
    def sample() -> dict:
        t = perf_counter()
        for _ in range(calls):
            fn(*args)
        return {name: (perf_counter() - t) / calls * scale}
    return sample


def samplers(tmp: Path) -> list:
    """Every layer's timer, in timing order, as (figures, sample): `figures`
    maps each layer name the timer gives to its (unit, what), and one call of
    `sample` times one repeat and returns {name: figure}.  The timers after
    the calibration one read its last table, so they run in this order;
    files go to `tmp`."""
    timers = [
        ({"import.wall_s": ("s", 'python -c "import binarx" in a fresh interpreter'),
          "import.peak_rss_mb": ("MB", 'ru_maxrss of python -c "import binarx" in a fresh '
                                       'interpreter')}, import_once),
    ]
    for suffix, spec in (("", SPEC), (f"_n{BINOMIAL_SPEC.n}", BINOMIAL_SPEC)):
        name = f"model.advance_us_per_step{suffix}"
        timers.append(({name: ("us", f"one lockstep _advance step of {BLOCK_SIZE} chains at "
                                     f"n={spec.n}")}, advance_us_per_step(name, spec)))
        name = f"model.chain_us_per_transition{suffix}"
        timers.append(({name: ("us", f"simulate_chain, {CHAIN_LENGTH} transitions at "
                                     f"n={spec.n}")}, chain_us_per_transition(name, spec)))
    for m, calls in FIT_CALLS.items():
        name = f"estimation.fit_ms_m{m}"
        timers.append(({name: ("ms", f"fit_mple at m={m}")},
                       per_call(name, 1e3, calls, fit_mple, simulate_series(SPEC, m, seed=m),
                                SPEC.n)))
    batch = [simulate_series(SPEC, BATCH_M, seed=BATCH_M + i) for i in range(BLOCK_SIZE)]
    timers.append(({"estimation.fit_batch_ms": (
        "ms", f"fit_mple_batch of {BLOCK_SIZE} series at m={BATCH_M}")},
        per_call("estimation.fit_batch_ms", 1e3, BATCH_CALLS, fit_mple_batch,
                 np.stack([s.x for s in batch]), np.stack([s.w for s in batch]), SPEC.n)))

    calib = CalibrationConfig(dim=3, horizon=HORIZON, grid_m=1000, reps=CALIB_REPS,
                              master_seed=5)
    table_path = tmp / "thresholds.csv"
    tables = []

    def calibration_ms_per_rep() -> dict:
        seconds, table = _clock(threshold_table, calib, THREADS)
        tables.append(table)
        write_threshold_table(table, table_path)
        return {"calibration.ms_per_rep": seconds / CALIB_REPS * 1e3}
    timers.append(({"calibration.ms_per_rep": (
        "ms", f"threshold_table at grid 1000, d=3, N={HORIZON}, {CALIB_REPS} reps")},
        calibration_ms_per_rep))

    path = simulate_series(SPEC, MONITOR_M + MONITOR_STEPS, seed=6)
    training = SeriesSample(path.x[:MONITOR_M + 1], path.w[:MONITOR_M])
    stream = list(zip(path.x[MONITOR_M + 1:].tolist(), path.w[MONITOR_M:]))

    def update_us() -> dict:
        init_s, state = _clock(monitor_init, training, SPEC.n, HORIZON, GAMMA, ALPHA, math.inf)
        t = perf_counter()
        for x, w in stream:
            monitor_update(state, x, w)
        seconds = perf_counter() - t
        if state.k != MONITOR_STEPS:
            raise RuntimeError(f"monitor stopped at k={state.k}, not {MONITOR_STEPS}")
        return {"monitoring.update_us": seconds / MONITOR_STEPS * 1e6,
                "monitoring.init_ms": init_s * 1e3}
    timers.append(({"monitoring.update_us": (
        "us", f"monitor_update per observation, {MONITOR_STEPS} steps, m={MONITOR_M}, "
              f"gamma={GAMMA}, no alarm"),
        "monitoring.init_ms": ("ms", f"monitor_init at m={MONITOR_M}, before each update run")},
        update_us))

    csv_path = tmp / "series.csv"
    # 900 rows: t = 0 .. 899.
    write_series_csv(SeriesSample(path.x[:MONITOR_STEPS], path.w[:MONITOR_STEPS - 1]), csv_path)
    timers.append(({"monitoring.read_series_csv_ms": (
        "ms", f"read_series_csv of a {MONITOR_STEPS}-row series")},
        per_call("monitoring.read_series_csv_ms", 1e3, CSV_READS, read_series_csv, csv_path)))
    cells = len(calib.gammas) * len(calib.alphas)
    timers.append(({"monitoring.read_threshold_table_us": (
        "us", f"read_threshold_table of a {cells}-cell table")},
        per_call("monitoring.read_threshold_table_us", 1e6, CSV_READS, read_threshold_table,
                 table_path)))

    def size_ms_per_rep() -> dict:
        config = ExperimentConfig(m_list=(MONITOR_M,), reps=BLOCK_SIZE, horizon=HORIZON,
                                  thresholds=tables[-1], master_seed=7)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seconds, _ = _clock(run_size, config, THREADS)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return {"experiments.size_ms_per_rep": seconds / BLOCK_SIZE * 1e3,
                "experiments.size_minflt_per_call": faults}
    study = f"run_size at m={MONITOR_M}, {BLOCK_SIZE} reps, a pre-built table"
    timers.append(({"experiments.size_ms_per_rep": ("ms", study),
                    "experiments.size_minflt_per_call": (
                        "count", f"minor page faults (ru_minflt) of one {study}")},
                   size_ms_per_rep))
    return timers


def measure() -> tuple[dict, list]:
    """Every layer's figure, the median of REPEATS timed repeats after one
    untimed call, and the reference kernel's samples timed after each layer."""
    kernel_us: list = []
    layers = {}
    with tempfile.TemporaryDirectory() as tmp:
        for figures, sample in samplers(Path(tmp)):
            sample()
            repeats = [sample() for _ in range(REPEATS)]
            for name, (unit, what) in figures.items():
                values = [r[name] for r in repeats]
                layers[name] = {"unit": unit, "what": what,
                                "median": statistics.median(values), "repeats": values}
            reference.sample(kernel_us)
    return layers, kernel_us


def write(out: Path, src: Path, layers: dict, kernel_us: list, **extra) -> None:
    """BENCH file `out` of the layers measured on `src`."""
    sources = sorted((src / "binarx").glob("*.py"))
    meta = {
        **metadata({"versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                                 "scipy": scipy.__version__}}),
        # The measured sources, also when they differ from the commit at git_sha.
        "src_binarx_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_binarx_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "threads": THREADS,
        "repeats": REPEATS,
        **extra,
    }
    result = {
        "meta": meta,
        "reference_kernel": {"slowdown": reference.slowdown(kernel_us),
                             "nominal_us": reference.REF_NOMINAL_US,
                             "samples": len(kernel_us)},
        "layers": layers,
    }
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"reference slowdown {result['reference_kernel']['slowdown']:.4g}; wrote {out}")


def serve() -> None:
    """Time SRC's layers on request, for a --parent run: first the layers'
    figures as one JSON line, then for each line read, a timer's index or
    "kernel", one JSON line of what it returns or of reference kernel times."""
    with tempfile.TemporaryDirectory() as tmp:
        timers = samplers(Path(tmp))
        print(json.dumps([figures for figures, _ in timers]), flush=True)
        for line in sys.stdin:
            if line.strip() == "kernel":
                out: list = []
                reference.sample(out)
            else:
                out = timers[int(line)][1]()
            print(json.dumps(out), flush=True)


class _Timing:
    """A fresh interpreter that times one tree's sources (`serve`)."""

    def __init__(self, src: Path):
        self.src = src
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve", str(src)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.figures = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"timing {self.src} failed with exit code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(f"{command}\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def alternate(n: str, parent: Path) -> None:
    """ROUNDS rounds of the parent's sources and this tree's, interleaved
    repeat by repeat, each round in a fresh interpreter per tree."""
    trees = {"parent": parent / "src", "this": ROOT / "src"}
    rounds = {tree: [] for tree in trees}  # per round, {layer: median}
    kernel_us = {tree: [] for tree in trees}
    for r in range(ROUNDS):
        order = ["parent", "this"] if r % 2 == 0 else ["this", "parent"]
        timing = {}
        try:
            for tree in order:
                timing[tree] = _Timing(trees[tree])
            figures = timing["this"].figures
            repeats = {tree: {} for tree in trees}
            for i, layer in enumerate(figures):
                for tree in order:
                    timing[tree].ask(i)
                for k in range(REPEATS):
                    for tree in order[::1 if k % 2 == 0 else -1]:
                        for name, value in timing[tree].ask(i).items():
                            repeats[tree].setdefault(name, []).append(value)
                for tree in order:
                    kernel_us[tree] += timing[tree].ask("kernel")
        finally:
            for t in timing.values():
                t.close()
        for tree in trees:
            rounds[tree].append({name: statistics.median(v) for name, v in repeats[tree].items()})
    medians = {}
    for tree in trees:
        medians[tree] = {
            name: {"unit": unit, "what": what,
                   "median": statistics.median(r[name] for r in rounds[tree]),
                   "rounds": [r[name] for r in rounds[tree]]}
            for layer in figures for name, (unit, what) in layer.items()}
        suffix = "_parent" if tree == "parent" else ""
        write(ROOT / f"BENCH_{n}{suffix}.json", trees[tree], medians[tree], kernel_us[tree],
              rounds=ROUNDS)
    for name, figure in medians["this"].items():
        before = medians["parent"][name]
        # A round whose parent figure is 0 (a fault count) has no ratio.
        ratios = [b / a for a, b in zip(before["rounds"], figure["rounds"]) if a]
        print(f"{name} {before['median']:.6g} -> {figure['median']:.6g} {figure['unit']}; "
              f"per round this/parent: median "
              f"{statistics.median(ratios) if ratios else math.nan:.3f}, "
              f"below 1 in {sum(x < 1 for x in ratios)} of {len(ratios)}")


def main(argv) -> int:
    if argv[:1] == ["--serve"] and len(argv) == 2:
        serve()
        return 0
    if len(argv) == 3 and argv[0].isdigit() and argv[1] == "--parent":
        alternate(argv[0], Path(argv[2]).resolve())
        return 0
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    layers, kernel_us = measure()
    for name, figure in layers.items():
        print(f"{name} {figure['median']:.6g} {figure['unit']}")
    write(ROOT / f"BENCH_{argv[0]}.json", SRC, layers, kernel_us)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
