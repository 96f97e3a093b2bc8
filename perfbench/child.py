"""One measured benchmark process: set up, run a workload, check its outputs.

Started by run.py in a fresh interpreter as

    python3 perfbench/child.py '<json args>'

with args {mode, workload, seed, seconds, src, inputs, result}.  Mode
"setup" stops after set-up (one set-up time sample); "measure" runs the timed
closed loop untraced for `seconds`; "trace" runs a fixed number of rounds,
each untraced and then traced, and for size-study and power-study-2t also
alternates 1 and 2 workers on power-study calls and traces calibrate calls.
Results go to args["result"] as JSON.  Only the standard library is imported before `import binarx`, so
the set-up time is the program's own.
"""

import json
import sys
import time

ARGS = json.loads(sys.argv[1])
sys.path.insert(0, ARGS["src"])

import binarx  # noqa: E402  (its import cost is part of setup_s)

import csv  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from binarx import calibration, experiments, monitoring  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

GAMMAS = (0.0, 0.25, 0.4)
ALPHAS = (0.1, 0.05, 0.025, 0.01)
HORIZON = 3.0
N = 10

# Reps per call: power-study-2t uses the program's default (500, from
# config._EXPERIMENT_REPS), so pool start-up weighs as it does in use.
# size-study and calibrate use multiples of ROADMAP item 3's block size
# (256 and 10 x 256) instead of their defaults (1000 and 10,000), so that a
# call takes about 1 s like the others and the reference kernel, timed
# between calls, follows the host's speed (reference.py).  README.md gives
# the per-call fixed share this leaves.
SIZE_M, SIZE_REPS = 300, 256
CALIB_GRID, CALIB_REPS, CALIB_DIM = 1000, 2560, 3
POWER_M, POWER_REPS, POWER_THREADS = 100, 500, 2
MONITOR_ALPHA = 0.05

# Re-anchor measurement of c(gamma=0, alpha=0.05) at grid_m 1000, N 3, d 3
# (10k reps, 5 seeds, spread 0.035).  The published value is 7.2195.
C_REFERENCE = 6.90

API_NAMES = (
    "run_size", "run_power", "threshold_table", "read_series_csv",
    "read_threshold_table", "monitor_init", "monitor_update",
)


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def master_seed(seed: int, call: int) -> int:
    return (seed % 2**31) * 100_000 + call


def read_table_file(path: Path) -> dict:
    """The threshold CSV as the benchmark wrote it, parsed without binarx."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {(float(r[0]), float(r[1])): float(r[2]) for r in rows}


def read_series_file(path: Path):
    """(x, w) from a series CSV the benchmark wrote, parsed without binarx."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([int(r[1]) for r in rows]), np.array([float(r[2]) for r in rows[1:]])


# ---------------------------------------------------------------------------
# Workloads.  Each has setup(api) (the program reads its inputs; counted in
# setup_s), call(i, api, threads) -> Op (one closed-loop step), check(op) run
# after each call outside its timing, and check_run() once at the end.  Every
# check raises CheckFailed.  A timed loop ends only after a whole round of
# `round_calls` calls, so every run does the same mix of work.


class Op(SimpleNamespace):
    """ops: ops done; failed: failures (unit per workload); lat_us: per-op
    latencies in microseconds (call time / ops in the experiment workloads);
    out: what check() needs."""


class SizeStudy:
    round_calls = 1
    reps = SIZE_REPS

    def __init__(self, seed, inputs):
        self.seed, self.inputs = seed, inputs
        self.expected = read_table_file(inputs / "thresholds.csv")
        self.pooled = {g: [0, 0] for g in GAMMAS}

    def setup(self, api):
        self.table = api.read_threshold_table(self.inputs / "thresholds.csv")

    def config(self, i):
        return binarx.ExperimentConfig(
            m_list=(SIZE_M,), reps=SIZE_REPS, gammas=GAMMAS, alphas=ALPHAS, horizon=HORIZON,
            a_source="aux", thresholds=self.table, master_seed=master_seed(self.seed, i),
        )

    def call(self, i, api, threads=1):
        t = perf_counter_ns()
        report = api.run_size(self.config(i), threads=threads)
        dt = perf_counter_ns() - t
        return Op(ops=self.reps, failed=report.rows[0][7], lat_us=np.array([dt / self.reps / 1e3]),
                  out=report, i=i)

    def check(self, op):
        rows = op.out.rows
        require(len(rows) == len(GAMMAS) * len(ALPHAS), f"size report has {len(rows)} rows")
        for m, g, a, c, rate, nrej, used, failures, _ in rows:
            require(used + failures == SIZE_REPS, f"reps_used {used} + failures {failures} != {SIZE_REPS}")
            require(0.0 <= rate <= 1.0 and rate == nrej / used, f"rate {rate} vs {nrej}/{used}")
            require(c == self.expected[(g, a)], f"threshold {c} is not the table's for ({g}, {a})")
            if a == 0.1:
                self.pooled[g][0] += nrej
                self.pooled[g][1] += used
        for g in GAMMAS:
            rates = [rate for _, rate in sorted((a, rate) for _, gg, a, _, rate, *_ in rows if gg == g)]
            require(rates == sorted(rates), f"gamma {g}: rejection rates not monotone in alpha")

    def check_run(self):
        for g, (nrej, used) in self.pooled.items():
            # A loose window on the pooled empirical size at alpha = 0.1, many
            # standard errors wide: it catches a statistic that never or always
            # crosses, not a size that is merely a little off.
            if used >= 500:
                require(0.005 <= nrej / used <= 0.5, f"pooled size {nrej / used:.3f} at gamma {g}")


class PowerStudy(SizeStudy):
    reps = POWER_REPS

    def __init__(self, seed, inputs):
        super().__init__(seed, inputs)
        self.detected = self.used = 0

    def config(self, i):
        return binarx.ExperimentConfig(
            m_list=(POWER_M,), reps=POWER_REPS, gammas=GAMMAS, alphas=(MONITOR_ALPHA,),
            horizon=HORIZON, a_source="aux", thresholds=self.table,
            master_seed=master_seed(self.seed, i),
            change=binarx.ChangePoint(at_k=11, new_beta=binarx.ParamVector(-1.0, 0.2, (0.4,))),
        )

    def call(self, i, api, threads=POWER_THREADS):
        t = perf_counter_ns()
        report = api.run_power(self.config(i), threads=threads)
        dt = perf_counter_ns() - t
        return Op(ops=self.reps, failed=report.rows[0][8], lat_us=np.array([dt / self.reps / 1e3]),
                  out=report, i=i)

    def check(self, op):
        horizon = int(math.floor(HORIZON * POWER_M + 1e-9))
        rows = op.out.rows
        require(len(rows) == len(GAMMAS), f"power report has {len(rows)} rows")
        for m, g, a, c, rate, mean_k, median_k, used, failures, _, drift in rows:
            require(used + failures == POWER_REPS, f"reps_used {used} + failures {failures} != {POWER_REPS}")
            require(0.0 <= rate <= 1.0, f"detection rate {rate}")
            require(c == self.expected[(g, a)], f"threshold {c} is not the table's for ({g}, {a})")
            delays = op.out.delays[(m, g)]
            require(delays.size == round(rate * used), "delays do not match the detection rate")
            if delays.size:
                require(1 <= delays.min() and delays.max() <= horizon, "delay outside the horizon")
                require(mean_k == float(np.mean(delays)), "mean delay does not match the delays")
            require(np.all(np.isfinite(drift)), "non-finite score drift")
            self.detected += delays.size
            self.used += used

    def check_run(self):
        # The criterion-07 change is detected in every replication at m = 100;
        # a pooled rate under one half means the statistic lost its signal.
        require(self.detected > 0.5 * self.used, f"pooled detection rate {self.detected / self.used:.3f}")

    @staticmethod
    def check_invariance(op_two, op_one):
        """The 1-worker report must equal the 2-worker report exactly."""
        a, b = op_two.out, op_one.out
        require(len(a.rows) == len(b.rows), "report sizes differ across worker counts")
        for ra, rb in zip(a.rows, b.rows):
            require(repr(ra[:-1]) == repr(rb[:-1]) and np.array_equal(ra[-1], rb[-1]),
                    "power report differs between 1 and 2 workers")
        require(a.delays.keys() == b.delays.keys(), "delay keys differ across worker counts")
        for key in a.delays:
            require(np.array_equal(a.delays[key], b.delays[key]), "delays differ across worker counts")


class Calibrate:
    round_calls = 1

    def __init__(self, seed, inputs):
        self.seed = seed

    def setup(self, api):
        pass

    def call(self, i, api, threads=1):
        config = binarx.CalibrationConfig(
            dim=CALIB_DIM, horizon=HORIZON, grid_m=CALIB_GRID, reps=CALIB_REPS,
            gammas=GAMMAS, alphas=ALPHAS, master_seed=master_seed(self.seed, i),
        )
        t = perf_counter_ns()
        table = api.threshold_table(config, threads=threads)
        dt = perf_counter_ns() - t
        return Op(ops=CALIB_REPS, failed=0, lat_us=np.array([dt / CALIB_REPS / 1e3]), out=table)

    def check(self, op):
        t = op.out
        for g in GAMMAS:
            col = [t.lookup(g, a) for a in sorted(ALPHAS, reverse=True)]
            require(col == sorted(col), f"c not monotone in alpha at gamma {g}: {col}")
        for a in ALPHAS:
            row = [t.lookup(g, a) for g in GAMMAS]
            require(row == sorted(row), f"c not monotone in gamma at alpha {a}: {row}")
        # Order-statistic CI for the 0.95 quantile q.  At 2560 reps the table
        # reads X_(2304) at alpha 0.1 and X_(2535) at alpha 0.01 ('higher'
        # convention); with K ~ Bin(2560, 0.95) draws at or below q,
        # X_(2304) <= q <= X_(2535) unless K <= 2303 or K >= 2535, which has
        # probability 2.5e-25.
        lo, hi = t.lookup(0.0, 0.1), t.lookup(0.0, 0.01)
        require(lo <= C_REFERENCE <= hi,
                f"order-statistic CI [{lo:.3f}, {hi:.3f}] for c(0, 0.05) misses {C_REFERENCE}")

    def check_run(self):
        pass


class MonitorStream:
    def __init__(self, seed, inputs):
        self.inputs = inputs
        manifest = json.loads((inputs / "manifest.json").read_text())
        self.monitors = manifest["monitors"]
        self.expected = read_table_file(inputs / "thresholds.csv")
        # A round is a full pass over the pool: the same mix of alarm and
        # horizon exits in every run.
        self.round_calls = len(self.monitors)

    def setup(self, api):
        pass

    def call(self, i, api, threads=1):
        spec = self.monitors[i % len(self.monitors)]
        training = api.read_series_csv(self.inputs / spec["training"])
        table = api.read_threshold_table(self.inputs / "thresholds.csv")
        stream = api.read_series_csv(self.inputs / spec["stream"])
        try:
            state = api.monitor_init(
                training, N, HORIZON, spec["gamma"], MONITOR_ALPHA, threshold_source=table
            )
        except binarx.BinarxError:
            return Op(ops=0, failed=1, lat_us=np.empty(0), out=None)
        update = api.monitor_update
        lat = []
        stats = []
        xs, ws = stream.x, stream.w
        for k in range(stream.m):
            x = int(xs[k + 1])
            t = perf_counter_ns()
            _, stat = update(state, x, ws[k])
            lat.append(perf_counter_ns() - t)
            stats.append(stat)
            if state.alarm_at is not None or state.k >= state.config.horizon_steps:
                break
        return Op(ops=len(stats), failed=0, lat_us=np.array(lat) / 1e3,
                  out=(spec, state.beta_hat.as_array(), state.config, np.array(stats), state.alarm_at))

    def check(self, op):
        if op.out is None:
            return
        spec, beta, cfg, got, alarm_at = op.out
        require(cfg.threshold_c == self.expected[(spec["gamma"], MONITOR_ALPHA)],
                "monitor threshold is not the table's")
        # Fit and metric, recomputed from the training file: zero score at
        # beta_hat and A = inverse outer-product score covariance.
        x, w = read_series_file(self.inputs / spec["training"])
        m = x.size - 1
        Z = np.column_stack([np.ones(m), x[:-1], w])
        resid = x[1:] - N / (1.0 + np.exp(-(Z @ beta)))
        require(np.abs(Z.T @ resid).max() < 1e-6, "beta_hat does not zero the training score")
        G = Z * resid[:, None]
        require(np.allclose(cfg.a_matrix @ (G.T @ G / m), np.eye(3), atol=1e-8), "A is not inv(Sigma0)")
        # Statistic path, recomputed as in experiments._monitor_rep.
        xs, ws = read_series_file(self.inputs / spec["stream"])
        require(xs[0] == x[-1], "stream does not continue the training series")
        k = got.size
        Zs = np.column_stack([np.ones(k), xs[:k], ws[:k]])
        S = np.cumsum(Zs * (xs[1 : k + 1] - N / (1.0 + np.exp(-(Zs @ beta))))[:, None], axis=0)
        kk = np.arange(1, k + 1)
        w2 = (m**-0.5 / (1.0 + kk / m) * (kk / (m + kk)) ** (-spec["gamma"])) ** 2
        ref = w2 * np.einsum("kd,de,ke->k", S, cfg.a_matrix, S)
        require(np.allclose(got, ref, rtol=1e-9, atol=1e-12), "monitor statistic differs from recomputation")
        crossings = np.nonzero(got >= cfg.threshold_c)[0]
        first = int(crossings[0]) + 1 if crossings.size else None
        require(alarm_at == first, f"alarm at {alarm_at}, first crossing at {first}")
        require(k == (first if first is not None else cfg.horizon_steps),
                "monitor stopped before its alarm or horizon")

    def check_run(self):
        pass


WORKLOADS = {
    "size-study": SizeStudy,
    "calibrate": Calibrate,
    "monitor-stream": MonitorStream,
    "power-study-2t": PowerStudy,
}


# ---------------------------------------------------------------------------
# Timed closed loop


def plain_api():
    return SimpleNamespace(**{name: getattr(binarx, name) for name in API_NAMES})


# Per-op latency histogram: log-spaced bins from 0.1 us to 10 s, each 0.12%
# wide, so the benchmark's memory does not grow with the program's speed.
LAT_LO_US, LAT_BINS_PER_DECADE, LAT_DECADES = 0.1, 2000, 8


class LoopStats:
    """Counts, busy time and per-op latencies of one timed loop.

    The loop is cut into windows of one round each (wl.round_calls calls),
    so every window does the same mix of work.  After each window the
    reference kernel is timed (reference.py).  The gated rate is the
    whole-run rate, ops / busy time, times the run's slowdown factor: the
    rate the program would reach with the host quiet.  The raw rate is
    kept beside it.

    Only monitor-stream times single ops (each monitor_update); its p50 and
    p99 are whole-run percentiles of the raw times, printed, not gated.
    """

    def __init__(self, monitors: bool):
        self.monitors = monitors
        self.calls = self.ops = self.failed = 0
        self.busy_s = 0.0
        self.windows = 0
        self.ref_us = []  # reference kernel times, reference.SAMPLES per window
        self.hist = np.zeros(LAT_BINS_PER_DECADE * LAT_DECADES, dtype=np.int64)
        self.first = None

    def add(self, op, elapsed: float):
        if self.first is None:
            self.first = op
        self.calls += 1
        self.ops += op.ops
        self.failed += op.failed
        self.busy_s += elapsed
        if self.monitors and op.lat_us.size:
            pos = np.log10(np.maximum(op.lat_us, LAT_LO_US) / LAT_LO_US) * LAT_BINS_PER_DECADE
            idx = np.minimum(pos.astype(np.int64), self.hist.size - 1)
            self.hist += np.bincount(idx, minlength=self.hist.size)

    def end_window(self):
        self.windows += 1
        reference.sample(self.ref_us)

    def latency_us(self, q: float) -> float:
        """Whole-run q-th percentile of per-op latency, interpolated within its bin."""
        n = int(self.hist.sum())
        if n == 0:
            return float("nan")
        cum = np.cumsum(self.hist)
        target = q / 100.0 * n
        b = int(np.searchsorted(cum, target))
        frac = (target - (cum[b] - self.hist[b])) / self.hist[b]
        return LAT_LO_US * 10.0 ** ((b + frac) / LAT_BINS_PER_DECADE)

    @property
    def attempted(self) -> int:
        # Failures are counted in the unit they apply to: replications, or
        # monitors (whose monitor_init raised) in monitor-stream.
        return self.calls if self.monitors else self.ops

    def summary(self) -> dict:
        raw = self.ops / self.busy_s if self.busy_s else 0.0
        slowdown = reference.slowdown(self.ref_us)
        return {
            "ops": self.ops,
            "calls": self.calls,
            "failed": self.failed,
            "busy_s": self.busy_s,
            "windows": self.windows,
            "raw_ops_per_s": raw,
            "ref_samples": len(self.ref_us),
            "slowdown": slowdown,
            "ops_per_s": raw * slowdown,
            "lat_samples": int(self.hist.sum()),
            "op_us_p50": self.latency_us(50),
            "op_us_p99": self.latency_us(99),
        }


def timed_loop(wl, api, stats, seconds=None, calls=None, threads=None, first=0):
    """Call wl.call back to back for `seconds` (then to the end of the round),
    or for exactly `calls` calls (whole rounds), from call index `first`.

    Each op is checked between calls, outside the call's own timing.
    """
    kwargs = {} if threads is None else {"threads": threads}
    t0 = perf_counter()
    i = first
    while True:
        t = perf_counter()
        op = wl.call(i, api, **kwargs)
        stats.add(op, perf_counter() - t)
        wl.check(op)
        i += 1
        if (i - first) % wl.round_calls:
            continue
        stats.end_window()
        if (i - first >= calls) if calls is not None else (perf_counter() - t0 >= seconds):
            break
    wl.check_run()
    return stats.summary()


# ---------------------------------------------------------------------------
# Traced run


def traced_api(tracer):
    """Benchmark-side spans around each layer's public functions.

    Calls the benchmark makes go through the returned namespace; calls one
    layer makes into another are caught by patching the caller module's
    global name.  map_over_reps also wraps the worker it is handed (serial
    runs only), so replication work is charged to the calling layer rather
    than to the parallel layer.
    """
    def reps(args, kwargs, result):
        return args[0].reps

    def n_reps(args, kwargs, result):
        return args[2]

    def iterations(args, kwargs, result):
        return result.iterations

    def tracing_workers(layer):
        def adapt(original):
            def map_over_reps(worker, shared, n_reps, threads=1):
                if threads <= 1:
                    worker = tracer.wrap(layer, worker)
                return original(worker, shared, n_reps, threads)
            return map_over_reps
        return adapt

    tracer.patch(experiments, "simulate_chain", "model", lambda a, kw, r: a[1])
    tracer.patch(experiments, "fit_mple", "estimation", iterations)
    tracer.patch(monitoring, "fit_mple", "estimation", iterations)
    tracer.patch(experiments, "map_over_reps", "parallel", n_reps, tracing_workers("experiments"))
    tracer.patch(calibration, "map_over_reps", "parallel", n_reps, tracing_workers("calibration"))
    api = plain_api()
    api.run_size = tracer.wrap("experiments", binarx.run_size, reps)
    api.run_power = tracer.wrap("experiments", binarx.run_power, reps)
    api.threshold_table = tracer.wrap("calibration", binarx.threshold_table, reps)
    api.read_series_csv = tracer.wrap("model", binarx.read_series_csv, lambda a, kw, r: r.x.size)
    api.monitor_init = tracer.wrap("monitoring", binarx.monitor_init)
    api.monitor_update = tracer.wrap(
        "monitoring", binarx.monitor_update, lambda a, kw, r: r[0].alarm_at is not None
    )
    return api


# Which layers each workload must exercise; a layer expected here but never
# seen in the trace is reported missing (left out of the metrics), not zero.
EXPECTED = {
    "size-study": {"model.sim", "estimation", "experiments", "parallel", "calibration"},
    "calibrate": {"calibration", "parallel"},
    "monitor-stream": {"model.csv", "estimation", "monitoring"},
    "power-study-2t": {"model.sim", "estimation", "experiments", "parallel", "calibration"},
}

FIT_ERRORS = ("SeparationError", "SingularHessianError", "NonConvergenceError")


def calib_bytes_per_rep():
    """Bytes of the arrays one calibration replication allocates, computed
    from their shapes in the whitened route: five (steps, dim) blocks
    (increments, their cumsum, its scaling, the bridge term, the difference),
    the quadratic path, two grids, and six grid-length temporaries per gamma."""
    steps = int(math.floor(HORIZON * CALIB_GRID + 1e-9))
    floats = 5 * steps * CALIB_DIM + CALIB_DIM + steps + 2 * 2 * steps + 6 * steps * len(GAMMAS)
    return 8 * floats


def layer_metrics(summary, workload):
    """Per-layer metrics from the span summary: self times and counts."""
    def spans(prefix):
        return [v for k, v in summary.items() if k.startswith(prefix) and v["calls"]]

    def total(prefix, key):
        return sum(v[key] for v in spans(prefix))

    def per(numerator, denominator, scale):
        return scale * numerator / denominator if denominator else 0.0

    seen = {
        "model.sim": bool(spans("model.simulate_chain")),
        "model.csv": bool(spans("model.read_series_csv")),
        "estimation": bool(spans("estimation.")),
        "experiments": bool(spans("experiments.run_")),
        "monitoring": bool(spans("monitoring.")),
        "calibration": bool(spans("calibration.threshold_table")),
        "parallel": bool(spans("parallel.")),
    }
    errors = {cls: 0 for cls in FIT_ERRORS}
    for v in spans("estimation.fit_mple"):
        for cls, count in v["errors"].items():
            errors[cls] = errors.get(cls, 0) + count
    fits, fit_s = total("estimation.", "calls"), total("estimation.", "self_s")
    transitions, sim_s = total("model.simulate_chain", "count"), total("model.simulate_chain", "self_s")
    calib_reps, calib_s = total("calibration.threshold_table", "count"), total("calibration.", "self_s")
    groups = {
        "model.sim": {
            "model.transitions": (transitions, "count"),
            "model.sim_s": (sim_s, "s"),
            "model.us_per_transition": (per(sim_s, transitions, 1e6), "us"),
        },
        "model.csv": {
            "model.csv_rows": (total("model.read_series_csv", "count"), "count"),
            "model.csv_s": (total("model.read_series_csv", "self_s"), "s"),
        },
        "estimation": {
            "estimation.fits": (fits, "count"),
            "estimation.fit_s": (fit_s, "s"),
            "estimation.ms_per_fit": (per(fit_s, fits, 1e3), "ms"),
            "estimation.newton_iters": (total("estimation.fit_mple", "count"), "count"),
            "estimation.failures": (sum(errors.values()), "count"),
            **{f"estimation.failures.{cls}": (n, "count") for cls, n in errors.items()},
        },
        "experiments": {
            "experiments.reps": (total("experiments.run_", "count"), "count"),
            "experiments.self_s": (total("experiments.", "self_s"), "s"),
        },
        "monitoring": {
            "monitoring.inits": (total("monitoring.monitor_init", "calls"), "count"),
            "monitoring.init_s": (total("monitoring.monitor_init", "self_s"), "s"),
            "monitoring.updates": (total("monitoring.monitor_update", "calls"), "count"),
            "monitoring.update_s": (total("monitoring.monitor_update", "self_s"), "s"),
            "monitoring.alarms": (total("monitoring.monitor_update", "count"), "count"),
        },
        "calibration": {
            "calibration.reps": (calib_reps, "count"),
            "calibration.calib_s": (calib_s, "s"),
            "calibration.ms_per_rep": (per(calib_s, calib_reps, 1e3), "ms"),
            "calibration.bytes_computed": (calib_reps * calib_bytes_per_rep(), "bytes"),
        },
        "parallel": {
            "parallel.tasks": (total("parallel.", "count"), "count"),
            "parallel.map_s": (total("parallel.", "self_s"), "s"),
        },
    }
    metrics, missing = {}, []
    for group, values in groups.items():
        if not seen[group] and group in EXPECTED[workload]:
            missing.extend(values)
            continue
        for name, (value, unit) in values.items():
            metrics[name] = {"value": float(value), "unit": unit}
    return metrics, missing


# Rounds in each traced run, fixed so that the per-layer counts repeat
# exactly and per-layer times are totals over the same work on every commit
# (a traced run takes 15-50 s on the reference machine).
TRACE_ROUNDS = {"size-study": 8, "calibrate": 4, "monitor-stream": 8, "power-study-2t": 6}
TRACE_PAIRS = 5  # 1-worker/2-worker pairs in the power-study-2t parallel phase


def run_trace(wl, workload, out_dir, new_stats):
    """Untraced and traced rounds over the same calls and, for size-study
    and power-study-2t, the worker-count and calibrate phases.  Returns
    per-layer metrics and details."""
    threads = 1 if workload == "power-study-2t" else None
    untraced, traced, tracer, plain = new_stats(), new_stats(), Tracer(), plain_api()
    # Each round runs untraced, then traced, so that the machine's drift
    # (README.md, "Noise") falls on both sides of trace.overhead_frac alike.
    for r in range(TRACE_ROUNDS[workload]):
        first = r * wl.round_calls
        timed_loop(wl, plain, untraced, calls=wl.round_calls, threads=threads, first=first)
        try:
            timed_loop(wl, traced_api(tracer), traced, calls=wl.round_calls, threads=threads, first=first)
        finally:
            tracer.restore()
    detail = {"untraced": untraced.summary(), "traced": traced.summary()}
    tracer.save(out_dir / f"trace-{workload}.npz")
    detail["spans"] = tracer.summary()
    metrics, detail["missing"] = layer_metrics(detail["spans"], workload)

    if workload in ("size-study", "power-study-2t"):
        # The parallel layer's figures come from power-study-2t's 2-worker
        # calls alone, and the calibration layer's from the calibrate
        # workload's calls: neither workload is in the gated set (README.md,
        # "Workloads"), so size-study's traced run measures their layers.
        power = wl if workload == "power-study-2t" else PowerStudy(wl.seed, wl.inputs)
        if power is not wl:
            power.setup(plain_api())
        parallel, missing = parallel_phase(power, new_stats())
        detail["missing"] = [n for n in detail["missing"] if not n.startswith("parallel.")] + missing
        metrics = {n: v for n, v in metrics.items() if not n.startswith("parallel.")}
        metrics.update(parallel)
        calib, missing = calibration_phase(wl.seed, new_stats())
        detail["missing"] = [n for n in detail["missing"] if not n.startswith("calibration.")] + missing
        metrics.update(calib)
    else:
        metrics["parallel.efficiency_2t"] = {"value": 0.0, "unit": "ratio"}
    u, t = detail["untraced"]["raw_ops_per_s"], detail["traced"]["raw_ops_per_s"]
    metrics["trace.overhead_frac"] = {"value": (u - t) / u, "unit": "fraction"}
    return metrics, detail


def calibration_phase(seed, stats):
    """The calibrate workload's traced calls, for the calibration layer only.
    Returns (calibration metrics, names of those missing)."""
    wl = Calibrate(seed, None)
    tracer = Tracer()
    try:
        timed_loop(wl, traced_api(tracer), stats, calls=TRACE_ROUNDS["calibrate"])
    finally:
        tracer.restore()
    metrics, missing = layer_metrics(tracer.summary(), "calibrate")
    return ({n: v for n, v in metrics.items() if n.startswith("calibration.")},
            [n for n in missing if n.startswith("calibration.")])


def parallel_phase(wl, stats):
    """Alternate 1 and 2 workers on the same power-study inputs.

    Only map_over_reps is wrapped here, so a 2-worker call's map span covers
    the whole pool: start-up, chunking, the work and result pickling.
    Returns (metrics, names of metrics missing for want of a map span).
    """
    tracer = Tracer()
    tracer.patch(experiments, "map_over_reps", "parallel", lambda a, kw, r: a[2])
    api = plain_api()
    t1, t2, two_worker_spans = [], [], []
    try:
        for i in range(20_000, 20_000 + TRACE_PAIRS):
            one = wl.call(i, api, threads=1)
            before = len(tracer.start)
            two = wl.call(i, api, threads=POWER_THREADS)
            two_worker_spans.extend(range(before, len(tracer.start)))
            for op in (one, two):
                stats.add(op, op.lat_us[0] * op.ops / 1e6)
            wl.check(one)
            wl.check(two)
            wl.check_invariance(two, one)
            t1.append(one.lat_us[0])
            t2.append(two.lat_us[0])
    finally:
        tracer.restore()
    metrics = {"parallel.efficiency_2t": {
        "value": float(np.median(t1)) / (POWER_THREADS * float(np.median(t2))), "unit": "ratio"
    }}
    if not two_worker_spans:
        return metrics, ["parallel.tasks", "parallel.map_s"]
    a = tracer.arrays()
    metrics["parallel.tasks"] = {"value": float(a["count"][two_worker_spans].sum()), "unit": "count"}
    metrics["parallel.map_s"] = {"value": float(a["self_ns"][two_worker_spans].sum()) / 1e9, "unit": "s"}
    return metrics, []


# ---------------------------------------------------------------------------


def main():
    workload = ARGS["workload"]
    wl = WORKLOADS[workload](ARGS["seed"], Path(ARGS["inputs"]))
    wl.setup(plain_api())
    result = {"setup_end": time.monotonic()}
    if ARGS["mode"] != "setup":
        seconds = ARGS["seconds"]
        all_stats = []

        def new_stats():
            all_stats.append(LoopStats(workload == "monitor-stream"))
            return all_stats[-1]

        try:
            if ARGS["mode"] == "measure":
                stats = new_stats()
                result["loop"] = timed_loop(wl, plain_api(), stats, seconds=seconds)
                if workload == "power-study-2t":
                    first = stats.first
                    wl.check_invariance(first, wl.call(first.i, plain_api(), threads=1))
            else:
                out_dir = Path(ARGS["result"]).parent
                result["metrics"], result["trace"] = run_trace(wl, workload, out_dir, new_stats)
            result["correct"] = True
        except CheckFailed as exc:
            result["correct"] = False
            result["check_error"] = str(exc)
            if ARGS["mode"] == "measure":
                result["loop"] = all_stats[0].summary()
        result["attempted"] = sum(s.attempted for s in all_stats)
        result["failed"] = sum(s.failed for s in all_stats)
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": sys.modules["scipy"].__version__,
        }
    result["self_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(ARGS["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
