"""Command-line front-end tying the modules into reproducible workflows.

Exit codes: 0 success, 1 runtime error, 2 usage or config error, and 3 for
`monitor` when an alarm fired (a machine-readable signal).  Every subcommand
is deterministic given its config and seed; thread count never changes
results.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import config as cfgmod
from ._artifacts import write_csv, write_json
from .calibration import threshold_table, write_threshold_table
from .dataprep import (
    RatePanel,
    binarize_and_sum,
    compute_baseline,
    model_comparison,
    read_binomial_series,
    write_binomial_series,
)
from .estimation import fit_mple, fit_report
from .exceptions import BinarxError, ConfigError
from .experiments import run_consistency, run_normality, run_power, run_size, write_report
from .model import read_series_csv, simulate_series, write_series_csv
from .monitoring import monitor_init, monitor_run

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_ALARM = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binarx",
        description="Binomial AR(1) toolkit: simulation, fitting, threshold "
        "calibration, sequential monitoring, experiments, and data prep.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--threads", type=int, default=None, help="worker process count")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc) in _HANDLERS.items():
        sub.add_parser(name, help=doc)
    return parser


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _cmd_simulate(loaded, out: Path, quiet: bool) -> int:
    spec, burn_in = cfgmod.parse_model(loaded)
    length = loaded.require("simulate.length")
    with cfgmod.in_section("simulate"):
        sample = simulate_series(spec, length, seed=loaded.seed,
                                 init=loaded.get("simulate.init"), burn_in=burn_in)
    path = out / "series.csv"
    write_series_csv(sample, path)
    _say(quiet, f"wrote {path} ({length} transitions, seed {loaded.seed})")
    return EXIT_OK


def _read_counts(loaded, key: str, spec_n: int):
    """The series file that config `key` names, its counts checked against model.n."""
    path = loaded.require(key)
    sample = read_series_csv(path)
    if sample.x.max() > spec_n:
        raise ValueError(f"{path}: count {sample.x.max()} above model.n={spec_n}")
    return sample


@contextmanager
def _naming(path):
    """Put the series file `path` in front of a runtime error that fitting its
    data raises (a ConfigError names its field already)."""
    try:
        yield
    except ConfigError:
        raise
    except (BinarxError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_fit(loaded, out: Path, quiet: bool) -> int:
    spec, _ = cfgmod.parse_model(loaded)
    sample = _read_counts(loaded, "fit.series", spec.n)
    with _naming(loaded.require("fit.series")):
        fit = fit_mple(sample, spec.n)
    path = out / "fit_report.json"
    write_json(path, fit_report(fit))
    _say(quiet, f"wrote {path} ({fit.iterations} iterations)")
    return EXIT_OK


def _cmd_calibrate(loaded, out: Path, quiet: bool) -> int:
    calib = cfgmod.parse_calibrate(loaded)
    table = threshold_table(calib, threads=loaded.threads)
    path = out / "thresholds.csv"
    write_threshold_table(table, path)
    _say(quiet, f"wrote {path} ({len(table.entries)} cells, reps={table.reps})")
    return EXIT_OK


def _stream_rows(fh, n_cells: int):
    """(x, w) pairs from an open stream CSV with header k,x,w1,...

    A malformed row raises ValueError naming its k; monitor_update checks the
    count's range and that the covariates are finite.
    """
    reader = csv.reader(fh)
    if next(reader, [])[:2] != ["k", "x"]:
        raise ValueError("expected stream header k,x,w1,...")
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != n_cells:
                raise ValueError(f"expected {n_cells} cells, got {len(row)}")
            x_new, w_new = int(row[1]), np.array([float(v) for v in row[2:]])
        except ValueError as exc:
            raise ValueError(f"row k={row[0]}: {exc}") from None
        yield x_new, w_new


def _cmd_monitor(loaded, out: Path, quiet: bool) -> int:
    spec, _ = cfgmod.parse_model(loaded)
    settings = cfgmod.parse_monitor(loaded)
    training = _read_counts(loaded, "monitor.training", spec.n)
    stream_path = loaded.require("monitor.stream")
    with cfgmod.in_section("monitor"), _naming(loaded.require("monitor.training")):
        state = monitor_init(training, spec.n, **settings)
    try:
        with open(stream_path, newline="") as fh:
            monitor_run(state, _stream_rows(fh, training.l + 2))
    except ValueError as exc:
        raise ValueError(f"{stream_path}: {exc}") from None
    cfg = state.config
    write_csv(out / "monitor_log.csv", ("k", "statistic", "threshold", "alarm"),
              ((k, stat, cfg.threshold_c, k == state.alarm_at)
               for k, stat in enumerate(state.statistic_history, start=1)))
    result_path = out / "monitor_result.json"
    write_json(result_path, {
        "alarm_at": state.alarm_at,
        "k_final": state.k,
        "truncated": not state.terminated,
        "horizon_steps": cfg.horizon_steps,
        "threshold_c": cfg.threshold_c,
        "gamma": cfg.gamma,
        "alpha": cfg.alpha,
        "m": cfg.m,
        "beta_hat": list(state.beta_hat.as_array()),
    })
    if state.alarm_at is not None:
        _say(quiet, f"ALARM at monitored index {state.alarm_at}; wrote {result_path}")
        return EXIT_ALARM
    _say(quiet, f"no alarm in {state.k} monitored points; wrote {result_path}")
    return EXIT_OK


def _cmd_experiment(loaded, out: Path, quiet: bool) -> int:
    kind, exp = cfgmod.parse_experiment(loaded)
    run = {"consistency": run_consistency, "normality": run_normality, "size": run_size,
           "power": run_power}[kind]
    with cfgmod.in_section("experiment"):
        write_report(run(exp, loaded.threads), out)
    _say(quiet, f"wrote {kind} report to {out}")
    return EXIT_OK


def _cmd_prep(loaded, out: Path, quiet: bool) -> int:
    prep = cfgmod.parse_prep(loaded)
    panel = RatePanel.from_csv(prep["rates"])
    baseline = compute_baseline(panel, prep["baseline_years"])
    series = binarize_and_sum(panel, baseline, prep["states"], prep["window"])
    path = out / "binomial_series.csv"
    write_binomial_series(series, path)
    _say(quiet, f"wrote {path} ({series.x.size} weeks, n={series.n})")
    return EXIT_OK


def _cmd_compare(loaded, out: Path, quiet: bool) -> int:
    series = read_binomial_series(loaded.require("compare.series"))
    result = model_comparison(series)
    path = out / "comparison.json"
    write_json(path, result)
    _say(
        quiet,
        f"wrote {path} (AIC simple {result['aic_simple']:.2f} vs AR1 {result['aic_ar1']:.2f})",
    )
    return EXIT_OK


# Each subcommand's handler and its --help line.
_HANDLERS = {
    "simulate": (_cmd_simulate, "simulate a series and write it as CSV"),
    "fit": (_cmd_fit, "fit the MPLE on a series CSV and write a JSON report"),
    "calibrate": (_cmd_calibrate, "compute a critical-value table and write it as CSV"),
    "monitor": (_cmd_monitor, "run the sequential monitor over a stream CSV"),
    "experiment": (_cmd_experiment,
                   "run a simulation study (consistency|normality|size|power)"),
    "prep": (_cmd_prep, "deseasonalize a weekly rate panel into a binomial series"),
    "compare": (_cmd_compare, "AIC / likelihood-ratio comparison against an i.i.d. binomial"),
}


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        loaded = cfgmod.load_config(args.config, args.seed, args.threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command][0](loaded, out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BinarxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
