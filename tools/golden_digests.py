"""Print the sha256 and exit code of every artifact of a fixed set of CLI runs.

Usage: python tools/golden_digests.py OUTDIR

OUTDIR must be empty or absent; every run writes below it.  The runs are:

- the criterion-10 config (`CRITERION_10`, which tests/test_acceptance.py
  runs too) through all seven subcommands, once at --threads 1 and once at
  --threads 2;
- size and power experiments with `emit_traces: 2`, under both `a_source`
  values, reading the threshold table of the calibrate run;
- a size experiment with no `thresholds`, which calibrates its own table at
  the default 10,000 replications;
- a normality experiment with enough replications for its diagnostics;
- two `monitor` runs driven by that table, one whose stream alarms and one
  whose stream ends before the horizon, and the second again on the same
  stream with blank lines among its rows;
- a `monitor` run at horizon 1.0 that reads the same N = 3 table, so its
  critical value is the cell rescaled to that horizon;
- `fit` on the criterion-10 training series written with every cell quoted,
  which numpy's reader refuses and the csv row parser reads;
- 2-replication consistency studies at an l = 2 model (exact stationary
  start, through the tensor quadrature) and at n = 40 (burn-in start);
- at n = 41, the smallest n whose counts both simulators draw with
  rng.binomial, a `simulate` of 120 transitions and a 2-replication
  consistency study, at `BINOMIAL_BETA` so the chain does not saturate.

The first output line is `header()`: the stream contract and the numpy and
python versions.  The second is `host()`: numpy's SIMD targets on this CPU
and the BLAS build, which fitted floats also follow.  Each further line is
`<sha256> exit=<code> <run>/<file>`, sorted, so the lists of two checkouts
can be compared with `diff`.  The list of the current stream contract is
pinned in tests/golden/contract_<N>.txt, and a Tier-1 test reruns these
workflows and compares; a change to a digest updates that file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from binarx import ModelSpec, ParamVector, default_model_spec, simulate_series  # noqa: E402
from binarx.cli import run_command  # noqa: E402
from binarx.defaults import DEFAULT_SEED  # noqa: E402
from binarx.experiments import STREAM_CONTRACT  # noqa: E402
from binarx.model import write_series_csv  # noqa: E402

MODEL = {
    "n": 10,
    "beta": [-1.0, 0.1, 0.4],
    "exo": {"mean": 1.0, "sd": 0.1, "clamp_lo": 0.0, "clamp_hi": 10.0},
    "burn_in": 200,
}
CHANGE = {"at_k": 11, "beta": [-1.0, 0.2, 0.4]}
# tools/bench.py's BINOMIAL_SPEC coefficients: at n = 41 the chain's mean
# stays near 18, where the default beta would hold it near n.
BINOMIAL_BETA = [-1.0, 0.02, 0.4]
COMMANDS = ("simulate", "fit", "calibrate", "monitor", "experiment", "prep", "compare")


def _inputs(root: Path) -> None:
    """The rate panel, streams and quoted series the configs name."""
    lines = ["state,iso_year,week,rate"]
    for week in range(1, 7):
        lines += [f"A,2019,{week},1.0", f"B,2019,{week},2.0",
                  f"A,2020,{week},{1.0 + 0.1 * week}", f"B,2020,{week},{2.0 - 0.1 * week}"]
    (root / "rates.csv").write_text("\n".join(lines) + "\n")
    spec = default_model_spec()
    training = simulate_series(replace(spec, burn_in=200), 120, seed=DEFAULT_SEED)
    # Each stream is a series whose t = 0 row is the training file's last count.
    x_last = int(training.x[-1])
    changed = ModelSpec(n=spec.n, beta=ParamVector(-0.2, 0.1, (0.4,)), exo=spec.exo)
    for name, model, length, seed in (("stream.csv", spec, 360, DEFAULT_SEED + 1),
                                      ("stream_alarm.csv", changed, 360, DEFAULT_SEED + 2),
                                      ("stream_short.csv", spec, 50, DEFAULT_SEED + 3)):
        write_series_csv(simulate_series(model, length, seed=seed, init=x_last), root / name)
    short = (root / "stream_short.csv").read_text().splitlines(keepends=True)
    (root / "stream_blank.csv").write_text(
        "".join(line + ("\n" if k % 7 == 0 else "") for k, line in enumerate(short)) + "\n\n")
    with open(root / "series_quoted.csv", "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow(["t", "x", "w1"])
        writer.writerow([0, int(training.x[0]), ""])
        writer.writerows([t, int(training.x[t]), repr(float(training.w[t - 1, 0]))]
                         for t in range(1, training.x.size))


def _config(root: Path, name: str, **sections) -> Path:
    path = root / f"{name}.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "model": MODEL, **sections}))
    return path


# The criterion-10 workflow: one config through all seven subcommands, whose
# `fit`, `monitor` and `compare` read the series of its first `simulate` run,
# written to C10_FIRST_SIMULATE, and whose other inputs are `_inputs`' files.
C10_FIRST_SIMULATE = "c10_t1/simulate"
CRITERION_10 = {
    "simulate": {"length": 120},
    "fit": {"series": f"{C10_FIRST_SIMULATE}/series.csv"},
    "calibrate": {"reps": 200, "gammas": [0.0], "alphas": [0.1, 0.05]},
    "monitor": {"training": f"{C10_FIRST_SIMULATE}/series.csv", "stream": "stream.csv",
                "gamma": 0.0, "alpha": 0.05, "threshold_c": 50.0},
    "experiment": {"kind": "consistency", "m_list": [60], "reps": 2},
    "prep": {"rates": "rates.csv", "states": ["A", "B"], "baseline_years": [2019],
             "window_start": [2020, 1], "window_end": [2020, 6]},
    "compare": {"series": f"{C10_FIRST_SIMULATE}/series.csv"},
}


def criterion_10(root: Path) -> Path:
    """Write the inputs and the criterion-10 config into `root`; return the config's path."""
    _inputs(root)
    return _config(root, "criterion10", **CRITERION_10)


def _run(root: Path, codes: dict, run: str, config: Path, command: str, *flags: str) -> None:
    codes[run] = run_command(["--config", str(config), "--out", str(root / run), "--quiet",
                              *flags, command])


def header() -> str:
    """The line above the digests: what the artifacts' bits depend on besides
    the code (README, "Reproducibility contract")."""
    return (f"# stream_contract={STREAM_CONTRACT} numpy={np.__version__} "
            f"python={platform.python_version()}")


def host() -> str:
    """The second header line: what else the bits of fitted floats and
    threshold tables depend on.  numpy's vector exp and power take the code
    path of the SIMD targets it finds on the CPU, and matmul and the solves
    run in the BLAS build (README, "Reproducibility contract")."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return (f"# host simd={','.join(config['SIMD Extensions']['found'])} "
            f"blas={blas['name']}-{blas['version']}")


# Artifacts whose bytes the random streams alone fix, on any host: counts
# drawn by comparing uniforms with p, and covariates and binarized rates from
# plain arithmetic.  Every other artifact holds threshold tables or fitted
# floats, whose last bits may move with `host()`.
STREAM_ARTIFACTS = ("series.csv",)


def host_independent(path: str) -> bool:
    """Whether the artifact at `<run>/<file>` keeps its bytes on any host."""
    return path.rsplit("/", 1)[-1] in STREAM_ARTIFACTS


def digests(root: Path) -> list[str]:
    """Run every workflow into the empty directory `root` and return the
    digest lines, sorted by artifact path."""
    codes: dict[str, int] = {}
    c10 = criterion_10(root)
    for threads in ("1", "2"):
        for command in COMMANDS:
            _run(root, codes, f"c10_t{threads}/{command}", c10, command, "--threads", threads)

    table = "c10_t1/calibrate/thresholds.csv"
    studies = {"kind": "size", "m_list": [60], "reps": 4, "gammas": [0.0],
               "alphas": [0.1, 0.05], "thresholds": table, "emit_traces": 2}
    for kind in ("size", "power"):
        for a_source in ("aux", "training"):
            extra = {"change": CHANGE, "alphas": [0.05]} if kind == "power" else {}
            cfg = _config(root, f"{kind}_{a_source}",
                          experiment={**studies, "kind": kind, "a_source": a_source, **extra})
            _run(root, codes, f"{kind}_{a_source}", cfg, "experiment")
    studies.pop("thresholds")
    cfg = _config(root, "size_own_table", experiment=studies)
    _run(root, codes, "size_own_table", cfg, "experiment")
    cfg = _config(root, "normality", experiment={"kind": "normality", "m_list": [80], "reps": 40})
    _run(root, codes, "normality", cfg, "experiment")

    for name, stream in (("monitor_alarm", "stream_alarm.csv"),
                         ("monitor_short", "stream_short.csv"),
                         ("monitor_blank", "stream_blank.csv")):
        cfg = _config(root, name, monitor={
            "training": "c10_t1/simulate/series.csv", "stream": stream,
            "gamma": 0.0, "alpha": 0.05, "horizon": 3.0, "thresholds": table})
        _run(root, codes, name, cfg, "monitor")
    cfg = _config(root, "monitor_horizon1", monitor={
        "training": "c10_t1/simulate/series.csv", "stream": "stream.csv",
        "gamma": 0.0, "alpha": 0.05, "horizon": 1.0, "thresholds": table})
    _run(root, codes, "monitor_horizon1", cfg, "monitor")

    cfg = _config(root, "fit_quoted", fit={"series": "series_quoted.csv"})
    _run(root, codes, "fit_quoted", cfg, "fit")
    consistency = {"kind": "consistency", "m_list": [60], "reps": 2}
    for name, model in (("consistency_l2", {**MODEL, "beta": [-1.0, 0.1, 0.4, -0.3]}),
                        ("consistency_n40", {**MODEL, "n": 40})):
        cfg = _config(root, name, model=model, experiment=consistency)
        _run(root, codes, name, cfg, "experiment")
    binomial = {**MODEL, "n": 41, "beta": BINOMIAL_BETA}
    cfg = _config(root, "simulate_n41", model=binomial, simulate={"length": 120})
    _run(root, codes, "simulate_n41", cfg, "simulate")
    cfg = _config(root, "consistency_n41", model=binomial, experiment=consistency)
    _run(root, codes, "consistency_n41", cfg, "experiment")

    lines = []
    for run, code in codes.items():
        files = sorted(p for p in (root / run).rglob("*") if p.is_file())
        for p in files:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            lines.append(f"{digest} exit={code} {p.relative_to(root)}")
        if not files:
            lines.append(f"{'-' * 64} exit={code} {run}/")
    return sorted(lines, key=lambda line: line.split(" ", 2)[2])


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    print("\n".join([header(), host(), *digests(root)]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
