import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from binarx import (
    CalibrationConfig,
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    default_model_spec,
    monitor_init,
    monitor_run,
    read_series_csv,
    simulate_series,
)
from binarx.calibration import ThresholdTable, write_threshold_table
from binarx.cli import run_command
from binarx.config import (
    _CALIBRATE,
    _EXO,
    _MONITOR,
    _SCHEMA,
    _STUDY,
    LoadedConfig,
    _read,
    load_config,
    parse_calibrate,
    parse_experiment,
    parse_monitor,
    parse_prep,
)
from binarx.defaults import (
    DEFAULT_ALPHAS,
    DEFAULT_GAMMAS,
    DEFAULT_HORIZON,
    DEFAULT_MONITOR_ALPHA,
    DEFAULT_MONITOR_GAMMA,
    EXPERIMENT_DEFAULTS,
)
from binarx.model import ExogenousSpec, SeriesSample, write_series_csv
from binarx.monitoring import MonitorConfig

MODEL_SECTION = {
    "n": 10,
    "beta": [-1.0, 0.1, 0.4],
    "exo": {"mean": 1.0, "sd": 0.1, "clamp_lo": 0.0, "clamp_hi": 10.0},
    "burn_in": 200,
}
# The model MODEL_SECTION configures.
MODEL_SPEC = dataclasses.replace(default_model_spec(), burn_in=200)


PREP_SECTION = {"rates": "rates.csv", "states": ["A", "B"], "baseline_years": [2019],
                "window_start": [2020, 1], "window_end": [2020, 6]}


def _loaded(raw):
    return LoadedConfig(values=_read(raw, _SCHEMA, Path(".")), seed=5, threads=1)


def _write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def _write_stream_csv(path, sample):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "x", "w1"])
        for k in range(sample.m):
            writer.writerow([k + 1, int(sample.x[k + 1]), repr(float(sample.w[k, 0]))])


def _rates_fixture_csv(path):
    lines = ["state,iso_year,week,rate"]
    for week in range(1, 7):
        lines += [f"A,2019,{week},1.0", f"B,2019,{week},2.0"]
    evals = {
        ("A", 1): 1.5, ("A", 2): 0.5, ("A", 3): 1.0, ("A", 4): 2.0, ("A", 5): 0.9, ("A", 6): 1.1,
        ("B", 1): 2.5, ("B", 2): 2.5, ("B", 3): 1.9, ("B", 4): 2.0, ("B", 5): 2.1, ("B", 6): 0.1,
    }
    for (state, week), rate in evals.items():
        lines.append(f"{state},2020,{week},{rate}")
    path.write_text("\n".join(lines) + "\n")


def test_simulate_round_trip_and_determinism(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json",
                        {"seed": 9, "model": MODEL_SECTION, "simulate": {"length": 60}})
    assert run_command(["--config", cfg, "--out", str(tmp_path / "a"), "--quiet", "simulate"]) == 0
    assert run_command(["--config", cfg, "--out", str(tmp_path / "b"), "--quiet", "simulate"]) == 0
    a = (tmp_path / "a" / "series.csv").read_bytes()
    b = (tmp_path / "b" / "series.csv").read_bytes()
    assert a == b
    sample = read_series_csv(tmp_path / "a" / "series.csv")
    expected = simulate_series(MODEL_SPEC, 60, seed=9)
    np.testing.assert_array_equal(sample.x, expected.x)


def test_null_model_section_is_the_reference_process(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json",
                        {"seed": 9, "model": None, "simulate": {"length": 60}})
    assert run_command(["--config", cfg, "--out", str(tmp_path), "--quiet", "simulate"]) == 0
    expected = simulate_series(default_model_spec(), 60, seed=9)
    np.testing.assert_array_equal(read_series_csv(tmp_path / "series.csv").x, expected.x)


def test_fit_command(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"seed": 10, "model": MODEL_SECTION, "simulate": {"length": 300},
         "fit": {"series": "out/series.csv"}},
    )
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", "simulate"]) == 0
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", "fit"]) == 0
    report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
    assert "converged" not in report and report["final_score_norm"] < 1e-8
    assert len(report["beta_hat"]) == 3


@pytest.mark.parametrize("command, section", [
    ("fit", {"fit": {"series": "series.csv"}}),
    ("monitor", {"monitor": {"training": "series.csv", "stream": "stream.csv",
                             "gamma": 0.0, "alpha": 0.05, "threshold_c": 7.0}}),
], ids=["fit", "monitor"])
def test_series_counts_above_n_name_the_file_and_model_n(tmp_path, capsys, command, section):
    x = np.array([0, 1, 2, 5, 1, 0, 2, 1, 1, 0, 2])
    write_series_csv(SeriesSample(x=x, w=np.ones((10, 1))), tmp_path / "series.csv")
    cfg = _write_config(tmp_path / "cfg.json", {"model": {**MODEL_SECTION, "n": 2}, **section})
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", command]) == 1
    err = capsys.readouterr().err
    assert "series.csv" in err and "count 5 above model.n=2" in err, err


def test_calibrate_then_monitor_threshold_round_trip(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "seed": 11,
            "model": MODEL_SECTION,
            "simulate": {"length": 150},
            "calibrate": {"reps": 400, "gammas": [0.25], "alphas": [0.1, 0.05]},
            "monitor": {"training": "out/series.csv", "stream": "stream.csv",
                        "gamma": 0.25, "alpha": 0.05, "thresholds": "out/thresholds.csv"},
        },
    )
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "simulate"]) == 0
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "calibrate"]) == 0
    training = read_series_csv(out / "series.csv")
    stream = simulate_series(default_model_spec(), 450, seed=77,
                             init=int(training.x[-1]))
    _write_stream_csv(tmp_path / "stream.csv", stream)
    code = run_command(["--config", cfg, "--out", str(out), "--quiet", "monitor"])
    result = json.loads((out / "monitor_result.json").read_text())
    with open(out / "thresholds.csv") as fh:
        rows = list(csv.DictReader(fh))
    table_c = {(float(r["gamma"]), float(r["alpha"])): float(r["c"]) for r in rows}
    assert result["threshold_c"] == table_c[(0.25, 0.05)]
    assert code in (0, 3)
    log_lines = (out / "monitor_log.csv").read_text().strip().splitlines()
    assert log_lines[0] == "k,statistic,threshold,alarm"
    assert len(log_lines) == result["k_final"] + 1


def test_monitor_infinite_threshold_no_alarm(tmp_path):
    out = tmp_path / "out"
    cfg_payload = {
        "seed": 12,
        "model": MODEL_SECTION,
        "simulate": {"length": 100},
        "monitor": {"training": "out/series.csv", "stream": "stream.csv",
                    "gamma": 0.0, "alpha": 0.05, "threshold_c": 1e999},
    }
    cfg = _write_config(tmp_path / "cfg.json", cfg_payload)
    assert json.loads(open(cfg).read())["monitor"]["threshold_c"] == float("inf")
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "simulate"]) == 0
    training = read_series_csv(out / "series.csv")
    stream = simulate_series(default_model_spec(), 300, seed=78,
                             init=int(training.x[-1]))
    _write_stream_csv(tmp_path / "stream.csv", stream)
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "monitor"]) == 0
    result = json.loads((out / "monitor_result.json").read_text())
    assert result["alarm_at"] is None
    assert result["k_final"] == 300


def test_monitor_alarm_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "seed": 13,
            "model": MODEL_SECTION,
            "simulate": {"length": 200},
            "monitor": {"training": "out/series.csv", "stream": "stream.csv",
                        "gamma": 0.0, "alpha": 0.05, "threshold_c": 1e-9},
        },
    )
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "simulate"]) == 0
    training = read_series_csv(out / "series.csv")
    stream = simulate_series(default_model_spec(), 10, seed=79,
                             init=int(training.x[-1]))
    _write_stream_csv(tmp_path / "stream.csv", stream)
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "monitor"]) == 3
    result = json.loads((out / "monitor_result.json").read_text())
    assert result["alarm_at"] == 1


def test_monitor_stream_bad_rows_name_file_and_row(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "seed": 15,
            "model": MODEL_SECTION,
            "simulate": {"length": 100},
            "monitor": {"training": "out/series.csv", "stream": "stream.csv",
                        "gamma": 0.0, "alpha": 0.05, "threshold_c": 1e999},
        },
    )
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "simulate"]) == 0
    for bad_row, message in (("2,3.7,1.0", "row k=2: invalid literal"),
                             ("2,3,nan", "k=2: covariates"),
                             ("2,3", "row k=2: expected 3 cells"),
                             ("1,3,1.0", "row k=1: expected k=2"),
                             ("9,3,1.0", "row k=9: expected k=2"),
                             ("-3,3,1.0", "row k=-3: expected k=2"),
                             ("abc,3,1.0", "row k=abc: invalid literal"),
                             ("2,-1,1.0", "row k=2: count -1 is negative"),
                             ("", "row k=3: expected k=2")):
        (tmp_path / "stream.csv").write_text(f"k,x,w1\n1,4,1.0\n{bad_row}\n3,4,1.0\n")
        assert run_command(["--config", cfg, "--out", str(out), "--quiet", "monitor"]) == 1
        err = capsys.readouterr().err
        assert "stream.csv" in err and message in err, err


def _monitor_setup(tmp_path, monitor, seed=16, stream_length=120):
    """Simulate a training series and a stream continuing it; returns the config path."""
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"seed": seed, "model": MODEL_SECTION, "simulate": {"length": 100},
         "monitor": {"training": "out/series.csv", "stream": "stream.csv", **monitor}},
    )
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", "simulate"]) == 0
    training = read_series_csv(tmp_path / "out" / "series.csv")
    stream = simulate_series(default_model_spec(), stream_length, seed=seed + 100,
                             init=int(training.x[-1]))
    _write_stream_csv(tmp_path / "stream.csv", stream)
    return cfg, training, stream


@pytest.mark.parametrize("monitor, code, truncated", [
    ({"gamma": 0.25, "alpha": 0.1, "threshold_c": 2.0}, 3, False),
    ({"gamma": 0.0, "alpha": 0.05, "threshold_c": 1e6, "horizon": 2.0}, 0, True),
])
def test_monitor_log_is_monitor_run_history(tmp_path, monitor, code, truncated):
    cfg, training, stream = _monitor_setup(tmp_path, monitor)
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "monitor"]) == code
    state = monitor_init(training, 10, horizon=monitor.get("horizon", 3.0),
                         gamma=monitor["gamma"], alpha=monitor["alpha"],
                         threshold_source=monitor["threshold_c"])
    expected = monitor_run(state, zip(stream.x[1:], stream.w))
    assert (not expected.terminated) is truncated
    with open(out / "monitor_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == list(range(1, len(expected.statistic_history) + 1))
    assert [r["statistic"] for r in rows] == [repr(v) for v in expected.statistic_history]
    assert {r["threshold"] for r in rows} == {repr(monitor["threshold_c"])}
    assert [int(r["k"]) for r in rows if r["alarm"] == "True"] == (
        [expected.alarm_at] if expected.alarm_at else [])
    assert all(r["alarm"] in ("True", "False") for r in rows)
    result = json.loads((out / "monitor_result.json").read_text())
    assert (result["alarm_at"], result["k_final"], result["truncated"]) == (
        expected.alarm_at, expected.k, not expected.terminated)


def test_monitor_reads_no_row_after_the_alarm(tmp_path):
    # A malformed row right after the alarming one is never read: the run
    # still exits 3 and logs every statistic up to the alarm.
    cfg, training, stream = _monitor_setup(tmp_path, {"gamma": 0.25, "alpha": 0.1,
                                                      "threshold_c": 2.0})
    state = monitor_init(training, 10, horizon=3.0, gamma=0.25, alpha=0.1, threshold_source=2.0)
    monitor_run(state, zip(stream.x[1:], stream.w))
    assert state.alarm_at < stream.m
    lines = (tmp_path / "stream.csv").read_text().splitlines()
    lines[state.alarm_at + 1] = f"{state.alarm_at + 1},2.5,1.0"
    (tmp_path / "stream.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "monitor"]) == 3
    with open(out / "monitor_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["statistic"] for r in rows] == [repr(v) for v in state.statistic_history]
    assert [r["alarm"] for r in rows] == ["False"] * (state.alarm_at - 1) + ["True"]


def test_monitor_bad_row_after_good_rows_names_file_and_row(tmp_path, capsys):
    cfg, _, _ = _monitor_setup(tmp_path, {"threshold_c": 1e6})
    lines = (tmp_path / "stream.csv").read_text().splitlines()
    lines[6] = "6,2.5,1.0"
    (tmp_path / "stream.csv").write_text("\n".join(lines) + "\n")
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", "monitor"]) == 1
    err = capsys.readouterr().err
    assert "stream.csv: row k=6: invalid literal" in err, err
    (tmp_path / "stream.csv").write_text("t,x,w1\n1,4,1.0\n")
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", "monitor"]) == 1
    assert "stream.csv: expected stream header k,x,w1" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["identity", "bogus", 5, "inverse_sigma0"])
def test_monitor_rejects_a_policy_other_than_inverse_sigma0(tmp_path, capsys, policy):
    # The key is unknown now, so every subcommand refuses the config; the
    # training series is simulated before it is added.
    cfg, _, _ = _monitor_setup(tmp_path, {"threshold_c": 7.0})
    raw = json.loads(Path(cfg).read_text())
    raw["monitor"]["a_policy"] = policy
    _write_config(cfg, raw)
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", "monitor"]) == 2
    err = capsys.readouterr().err
    assert "config error: monitor.a_policy" in err, err
    assert not (tmp_path / "out" / "monitor_log.csv").exists()


def _reader_config(tmp_path):
    """A config naming one input file per reader.  The monitor's training
    series, stream and table are valid, so that a broken one of them is the
    first refusal; the test writes the file it breaks."""
    write_series_csv(simulate_series(MODEL_SPEC, 100, seed=3),
                     tmp_path / "training.csv")
    (tmp_path / "stream.csv").write_text("k,x,w1\n1,4,1.0\n")
    cells = {(g, a): 7.0 for g in DEFAULT_GAMMAS for a in DEFAULT_ALPHAS}
    write_threshold_table(ThresholdTable(cells, 100, 100, DEFAULT_HORIZON, 0),
                          tmp_path / "thresholds.csv")
    return _write_config(tmp_path / "cfg.json", {
        "model": MODEL_SECTION,
        "fit": {"series": "series.csv"},
        "monitor": {"training": "training.csv", "stream": "stream.csv",
                    "thresholds": "thresholds.csv"},
        "prep": PREP_SECTION,
        "compare": {"series": "binomial.csv"},
    })


@pytest.mark.parametrize("command, file, content, message", [
    ("fit", "series.csv", "", "expected header t,x,w1,...  got []"),
    ("monitor", "thresholds.csv", "gamma,alpha,c,reps,grid_m,N,seed\n0.0,0.05,7.0\n",
     "line 2: expected 7 cells, got 3"),
    ("prep", "rates.csv", "state,iso_year,week,rate\nA,2019,1,1.0\nA,2019\n",
     "line 3: expected 4 cells, got 2"),
    ("prep", "rates.csv", "", "expected header state,iso_year,week,rate, got []"),
    ("prep", "rates.csv", "state,iso_year,week,rate\nA,2019,1,1.0\nA,2019,1,2.0\n",
     "line 3: duplicate panel entry for ('A', 2019, 1)"),
    ("compare", "binomial.csv", "# n=2\niso_year,week,x\n2020,1\n", "line 3: expected 3 cells"),
    ("compare", "binomial.csv", "# n=x\niso_year,week,x\n2020,1,1\n",
     "line 1: n must be an integer, got 'x'"),
    ("compare", "binomial.csv", "# n=2\niso_year,week,x\n2020,1,1\n2020,2,3\n",
     "line 4: count 3 outside 0..2"),
    ("fit", "series.csv", "t,x,w1\n0,3,\n1,99999999999999999999,1.0\n",
     "row t=1: count 99999999999999999999 is above the int64 range"),
    ("monitor", "stream.csv", "t,x,w1\n1,4,1.0\n", "expected stream header k,x,w1,..."),
], ids=["fit-empty", "monitor-short-row", "prep-short-row", "prep-empty", "prep-repeated-row",
        "compare-short-row", "compare-bad-n", "compare-count-above-n", "fit-count-above-int64",
        "monitor-stream-header"])
def test_malformed_csv_inputs_name_the_file(tmp_path, capsys, command, file, content, message):
    cfg = _reader_config(tmp_path)
    (tmp_path / file).write_text(content)
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", command]) == 1
    assert f"error: {tmp_path / file}: {message}" in capsys.readouterr().err


# One file per reader, each valid UTF-8 up to a 0xff byte in its first row.
@pytest.mark.parametrize("command, file, content", [
    ("fit", "series.csv", b"t,x,w1\n0,3,\xff\n1,4,1.0\n"),
    ("monitor", "thresholds.csv", b"gamma,alpha,c,reps,grid_m,N,seed\n0.0,0.05,7.0\xff,1,1,3.0,0\n"),
    ("prep", "rates.csv", b"state,iso_year,week,rate\nA\xff,2019,1,1.0\n"),
    ("compare", "binomial.csv", b"# n=2\niso_year,week,x\n2020,1,\xff\n"),
    ("monitor", "stream.csv", b"k,x,w1\n1,4,1.0\xff\n"),
], ids=["read_series_csv", "read_threshold_table", "RatePanel.from_csv", "read_binomial_series",
        "monitor-stream"])
def test_non_utf8_inputs_name_the_file(tmp_path, capsys, command, file, content):
    cfg = _reader_config(tmp_path)
    (tmp_path / file).write_bytes(content)
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", command]) == 1
    assert (f"error: {tmp_path / file}: byte 0xff is not utf-8 text: invalid start byte"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, section, field", [
    ("calibrate", {"calibrate": {"gammas": [0.0, "x"]}}, "calibrate.gammas"),
    ("calibrate", {"calibrate": {"reps": 2.5}}, "calibrate.reps"),
    ("experiment", {"experiment": {"kind": "size", "m_list": [60.5]}}, "experiment.m_list"),
    ("experiment", {"experiment": {"kind": "size", "horizon": "long"}}, "experiment.horizon"),
    ("simulate", {"simulate": {"length": 10},
                  "model": {**MODEL_SECTION, "exo": {"sd": "wide"}}}, "model.exo.sd"),
    ("monitor", {"monitor": {"training": "s.csv", "stream": "k.csv", "threshold_c": 7.0,
                             "gamma": [0.1]}}, "monitor.gamma"),
    ("simulate", {"simulate": {"length": 10, "init": 3.7}}, "simulate.init"),
    ("prep", {"prep": {**PREP_SECTION, "baseline_years": [2019.9]}}, "prep.baseline_years"),
    ("prep", {"prep": {**PREP_SECTION, "window_start": [2020.7, 1]}}, "prep.window_start"),
    ("simulate", {"simulate": {"length": 10}, "experiment": {"kind": "size", "reps": "x"}},
     "experiment.reps"),
    ("monitor", {"monitor": {"training": "s.csv", "stream": "k.csv", "threshold_c": 7.0,
                             "horizon": True}}, "monitor.horizon"),
    ("monitor", {"monitor": {"training": "s.csv", "stream": "k.csv", "threshold_c": 7.0,
                             "horizon": "3.0"}}, "monitor.horizon"),
    ("calibrate", {"calibrate": {"alphas": [0.05, False]}}, "calibrate.alphas"),
    ("simulate", {"simulate": {"length": 10},
                  "model": {**MODEL_SECTION, "beta": ["-1.0", 0.1, 0.4]}}, "model.beta"),
])
def test_config_type_errors_name_the_field(tmp_path, capsys, command, section, field):
    cfg = _write_config(tmp_path / "cfg.json", {"model": MODEL_SECTION, **section})
    if command == "monitor":
        (tmp_path / "s.csv").write_text("t,x,w1\n0,3,\n1,4,1.0\n2,3,1.1\n3,5,0.9\n4,4,1.0\n5,2,1.0\n")
    if command == "prep":
        _rates_fixture_csv(tmp_path / "rates.csv")
    assert run_command(["--config", cfg, "--out", str(tmp_path), "--quiet", command]) == 2
    assert f"config error: {field}: expected" in capsys.readouterr().err


def test_float_keys_take_json_numbers_only(tmp_path):
    # An int, a float and the NaN and Infinity literals read as floats; a
    # bool or a string is refused, naming the value.
    cfg = _write_config(tmp_path / "cfg.json", {"monitor": {"horizon": 3, "alpha": math.nan,
                                                            "threshold_c": math.inf}})
    values = load_config(cfg).values["monitor"]
    assert [type(v) for v in values.values()] == [float] * 3 and math.isnan(values["alpha"])
    for value, shown in ((True, "True"), ("3.0", "'3.0'")):
        with pytest.raises(ConfigError, match=re.escape(f"horizon: expected float, got {shown}")):
            _loaded({"monitor": {"horizon": value}})


@pytest.mark.parametrize("command, section, field", [
    ("calibrate", {"calibrate": {"rep": 150}}, "calibrate.rep"),
    ("experiment", {"experiment": {"kind": "size", "aux_length": 10_000}}, "experiment.aux_length"),
    ("experiment", {"experiment": {"kind": "power", "change": {"at_k": 5, "beta": [0, 0, 0],
                                                               "at": 5}}}, "experiment.change.at"),
    ("simulate", {"simulate": {"length": 10}, "sed": 3}, "sed"),
    ("simulate", {"simulate": {"length": 10},
                  "model": {**MODEL_SECTION, "exo": {"sdd": 0.1}}}, "model.exo.sdd"),
    ("monitor", {"monitor": {"threshold_c": 7.0, "gama": 0.1}}, "monitor.gama"),
    ("prep", {"prep": {**PREP_SECTION, "window": [2020, 1]}}, "prep.window"),
    ("simulate", {"simulate": {"length": 10},
                  "model": {**MODEL_SECTION, "exo": {"dist": "normal"}}}, "model.exo.dist"),
    ("simulate", {"simulate": {"length": 10},
                  "model": {**MODEL_SECTION, "exo": {"l": 1}}}, "model.exo.l"),
    ("calibrate", {"calibrate": {"dim": 3}}, "calibrate.dim"),
    # Tables are written at N = 3 and rescaled by every consumer.
    ("calibrate", {"calibrate": {"horizon": 3.0}}, "calibrate.horizon"),
])
def test_config_unknown_keys_name_the_field(tmp_path, capsys, command, section, field):
    cfg = _write_config(tmp_path / "cfg.json", {"model": MODEL_SECTION, **section})
    assert run_command(["--config", cfg, "--out", str(tmp_path), "--quiet", command]) == 2
    assert f"config error: {field}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, message", [
    ("simulate", {"simulate": {"length": 0}}, "simulate.length: must be >= 1, got 0"),
    ("simulate", {"simulate": {"length": 10, "init": 11}},
     "simulate.init: initial state 11 outside {0..10}"),
    ("simulate", {"simulate": {"length": 10, "init": -1}},
     "simulate.init: initial state -1 outside {0..10}"),
    ("experiment", {"experiment": {"kind": "size", "emit_traces": -1}},
     "experiment.emit_traces: must be >= 0, got -1"),
    ("monitor", {"monitor": {"threshold_c": 7.0, "gamma": 0.7}},
     "monitor.gamma: gamma must lie in [0, 0.5), got 0.7"),
    ("monitor", {"monitor": {"threshold_c": 7.0, "alpha": 1.5}},
     "monitor.alpha: alpha must lie in (0, 1), got 1.5"),
    ("monitor", {"monitor": {"threshold_c": 7.0, "horizon": -1}},
     "monitor.horizon: must be finite and > 0, got -1.0"),
    ("monitor", {"monitor": {"threshold_c": -7}}, "monitor.threshold_c: must be > 0, got -7.0"),
    ("experiment", {"experiment": {"kind": "size", "gammas": [0.9]}},
     "experiment.gammas: gamma must lie in [0, 0.5), got 0.9"),
    ("experiment", {"experiment": {"kind": "size", "alphas": [0.0]}},
     "experiment.alphas: alpha must lie in (0, 1), got 0.0"),
    ("experiment", {"experiment": {"kind": "size", "horizon": 0.001, "m_list": [100]}},
     "experiment.horizon: 0.001 leaves no monitored point at m=100"),
    ("experiment", {"experiment": {"kind": "power", "m_list": [100], "horizon": 1.0,
                                   "change": {"at_k": 101, "beta": [-1, 0.1, 0.4]}}},
     "experiment.change.at_k: 101 is beyond the horizon 100 at m=100"),
    ("calibrate", {"calibrate": {"gammas": [0.5]}},
     "calibrate.gammas: gamma must lie in [0, 0.5), got 0.5"),
    ("calibrate", {"calibrate": {"alphas": [1.0]}},
     "calibrate.alphas: alpha must lie in (0, 1), got 1.0"),
    ("calibrate", {"calibrate": {"reps": 50}}, "calibrate.reps: must be >= 100, got 50"),
    ("calibrate", {"calibrate": {"grid_m": 10}}, "calibrate.grid_m: must be >= 100, got 10"),
    # `calibrate` writes its table at N = 3, so the grid takes the budget's refusal.
    ("calibrate", {"calibrate": {"grid_m": 400000}},
     "calibrate.grid_m: 3.0 x 400000 = 1200000.0 points, above the budget of 1000000 per "
     "replication"),
    ("experiment", {"experiment": {"kind": "size", "reps": 0}},
     "experiment.reps: must be >= 1, got 0"),
    ("experiment", {"experiment": {"kind": "size", "m_list": []}},
     "experiment.m_list: must not be empty"),
    ("experiment", {"experiment": {"kind": "size", "a_source": "x"}},
     "experiment.a_source: must be 'aux' or 'training', got 'x'"),
    ("experiment", {"experiment": {"kind": "power",
                                   "change": {"at_k": 0, "beta": [-1, 0.1, 0.4]}}},
     "experiment.change.at_k: must be >= 1, got 0"),
    ("experiment", {"experiment": {"kind": "power", "change": {"at_k": 5, "beta": [-1, 0.1]}}},
     "experiment.change.beta: 2 entries, the model has 3"),
    ("simulate", {"simulate": {"length": 10}, "model": {**MODEL_SECTION, "n": 0}},
     "model.n: binomial total must be >= 1, got 0"),
    ("simulate", {"simulate": {"length": 10}, "model": {**MODEL_SECTION, "beta": [-1, 25, 0.4]}},
     "model.beta: [-1.0, 25.0, 0.4] leaves the box [-20.0, 20.0]"),
    ("simulate", {"simulate": {"length": 10},
                  "model": {**MODEL_SECTION, "exo": {"sd": 0}}},
     "model.exo.sd: must be > 0, got 0.0"),
    ("simulate", {"simulate": {"length": 10},
                  "model": {**MODEL_SECTION, "exo": {"clamp_lo": 2.0, "clamp_hi": 1.0}}},
     "model.exo.clamp_hi: 1.0 is not above clamp_lo 2.0"),
    ("experiment", {"experiment": {"kind": "size", "horizon": 0}},
     "experiment.horizon: must be finite and > 0, got 0.0"),
    ("calibrate", {"calibrate": {"gammas": []}}, "calibrate.gammas: must not be empty"),
    ("experiment", {"experiment": {"kind": "size", "gammas": []}},
     "experiment.gammas: must not be empty"),
    ("experiment", {"experiment": {"kind": "power", "alphas": [],
                                   "change": {"at_k": 5, "beta": [-1, 0.2, 0.4]}}},
     "experiment.alphas: must not be empty"),
    ("experiment", {"experiment": {"kind": "size", "horizon": -1}},
     "experiment.horizon: must be finite and > 0, got -1.0"),
    ("experiment", {"experiment": {"kind": "size", "horizon": math.inf}},
     "experiment.horizon: must be finite and > 0, got inf"),
    ("monitor", {"monitor": {"training": "train.csv", "stream": "stream.csv", "threshold_c": 7.0,
                             "horizon": math.inf}},
     "monitor.horizon: must be finite and > 0, got inf"),
    ("experiment", {"experiment": {"kind": "size", "horizon": math.nan}},
     "experiment.horizon: must be finite and > 0, got nan"),
    ("experiment", {"experiment": {"kind": "normality", "m_list": [100, 200]}},
     "experiment.m_list: normality runs at one training length, got [100, 200]"),
    ("experiment", {"experiment": {"kind": "power", "alphas": [0.1, 0.05],
                                   "change": {"at_k": 5, "beta": [-1, 0.2, 0.4]}}},
     "experiment.alphas: a power study runs at one level, got [0.1, 0.05]"),
    ("experiment", {"experiment": {"kind": "power"}},
     "experiment.change: required for the power experiment"),
    # One replication holds at most MAX_POINTS = 10**6 points.
    ("monitor", {"monitor": {"training": "train.csv", "stream": "stream.csv", "threshold_c": 7.0,
                             "horizon": 0}},
     "monitor.horizon: must be finite and > 0, got 0.0"),
    ("monitor", {"monitor": {"training": "train.csv", "stream": "stream.csv", "threshold_c": 7.0,
                             "horizon": math.nan}},
     "monitor.horizon: must be finite and > 0, got nan"),
    # The smallest grid above the budget: 3 x 333333 = 999999 points fit.
    ("calibrate", {"calibrate": {"grid_m": 333334}},
     "calibrate.grid_m: 3.0 x 333334 = 1000002.0 points, above the budget of 1000000 per "
     "replication"),
    ("experiment", {"experiment": {"kind": "size", "horizon": 1e300, "reps": 1}},
     "experiment.horizon: 1e+300 x 100 = 1e+302 points, above the budget"),
    ("experiment", {"experiment": {"kind": "size", "horizon": 3.0, "m_list": [100, 400000],
                                   "reps": 1}},
     "experiment.horizon: 3.0 x 400000 = 1200000.0 points, above the budget"),
    ("experiment", {"experiment": {"kind": "size", "horizon": 1e-6, "m_list": [2000000],
                                   "reps": 1}},
     "experiment.m_list: entry 2000000 is above the budget of 1000000 points"),
    ("simulate", {"simulate": {"length": 10**12}},
     "simulate.length: 1000000000000 is above the budget of 1000000 points"),
    ("simulate", {"simulate": {"length": 10}, "model": {**MODEL_SECTION, "burn_in": 10**12}},
     "model.burn_in: must lie in [0, 1000000], got 1000000000000"),
    ("monitor", {"monitor": {"training": "train.csv", "stream": "stream.csv", "threshold_c": 7.0,
                             "horizon": 1e306}},
     "monitor.horizon: 1e+306 x 100 = 1e+308 points, above the budget"),
    ("monitor", {"monitor": {"training": "train.csv", "stream": "stream.csv"}},
     "monitor.threshold_c: need threshold_c or a thresholds table path"),
    ("prep", {"prep": {**PREP_SECTION, "window_start": [2020, 1, 1]}},
     "prep.window_start: must be [iso_year, week]"),
    ("prep", {"prep": {**PREP_SECTION, "states": []}},
     "prep.states: must be a non-empty list of state names"),
    ("prep", {"prep": {**PREP_SECTION, "states": ["A", "B", "A"]}},
     "prep.states: entry 'A' is listed more than once"),
    ("prep", {"prep": {**PREP_SECTION, "window_start": [2020, 7]}},
     "prep.window_start: window start is after window end"),
    ("experiment", {"experiment": {"kind": "size", "m_list": [30, 30]}},
     "experiment.m_list: entry 30 is listed more than once"),
    ("experiment", {"experiment": {"kind": "size", "gammas": [0.0, 0.25, 0.0]}},
     "experiment.gammas: entry 0.0 is listed more than once"),
    ("experiment", {"experiment": {"kind": "size", "alphas": [0.1, 0.1]}},
     "experiment.alphas: entry 0.1 is listed more than once"),
    ("calibrate", {"calibrate": {"gammas": [0.0, 0.0]}},
     "calibrate.gammas: entry 0.0 is listed more than once"),
    ("calibrate", {"calibrate": {"alphas": [0.1, 0.05, 0.1]}},
     "calibrate.alphas: entry 0.1 is listed more than once"),
    # A study block tabulates -eta at every count 0..n: 7 PiB at n = 10^15.
    ("experiment", {"model": {"n": 10**15, "beta": [-1.0, 0.0, 0.4], "burn_in": 2},
                    "experiment": {"kind": "consistency", "m_list": [10], "reps": 2}},
     "model.n: binomial total 1000000000000000 is above the budget of 1000000 points"),
    ("prep", {"prep": {**PREP_SECTION, "baseline_years": [2019, 2019]}},
     "prep.baseline_years: entry 2019 is listed more than once"),
])
def test_config_out_of_range_values_name_the_field(tmp_path, capsys, command, section, message):
    cfg = _write_config(tmp_path / "cfg.json", {"model": MODEL_SECTION, **section})
    if command == "monitor":
        write_series_csv(simulate_series(MODEL_SPEC, 100, seed=3),
                         tmp_path / "train.csv")
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", command]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("text, in_file, message", [
    ('{"simulate": ', True, "invalid JSON: Expecting value"),
    ('{"simulate": "\xff"}', True, "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
    ('[{"simulate": {"length": 10}}]', True, "top level must be a JSON object"),
    ('{"threads": 0, "simulate": {"length": 10}}', False, "threads: must be >= 1"),
    ('{"simulate": "length=10"}', False, "simulate: must be an object"),
], ids=["invalid-json", "not-utf8", "top-level-list", "threads-0", "section-string"])
def test_config_file_refusals_come_before_any_output(tmp_path, capsys, text, in_file, message):
    # These refusals come from reading the file, before --out is made; the
    # first three name the config file, the others the field.  Each character
    # of `text` is written as one byte.
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text.encode("latin-1"))
    out = tmp_path / "out"
    assert run_command(["--config", str(cfg), "--out", str(out), "--quiet", "simulate"]) == 2
    where = f"{cfg}: " if in_file else ""
    assert f"config error: {where}{message}" in capsys.readouterr().err
    assert not out.exists()


_CONSTANT_W = {**MODEL_SECTION, "exo": {"clamp_lo": 2.0}}  # w = 2: collinear with the intercept


@pytest.mark.parametrize("command, model, section, message", [
    ("experiment", MODEL_SECTION, {"kind": "size", "m_list": [20], "reps": 2, "gammas": [0.1],
                                   "thresholds": "table.csv"},
     "experiment.thresholds: no threshold for gamma=0.1, alpha=0.1 in table"),
    ("experiment", _CONSTANT_W, {"kind": "size", "m_list": [20], "reps": 2,
                                 "thresholds": "table.csv"},
     "experiment.a_source: the auxiliary series does not fit: negated score gradient"),
    ("experiment", _CONSTANT_W, {"kind": "consistency", "m_list": [20], "reps": 2},
     "experiment.m_list: all 2 fits failed at m=20"),
    ("experiment", {**MODEL_SECTION, "beta": [-1.0, 0.1], "burn_in": 0},
     {"kind": "size", "m_list": [4], "reps": 3, "a_source": "training",
      "thresholds": "table.csv"},
     "experiment.a_source: a training metric at m=4 is singular"),
], ids=["study-table-cell", "aux-fit-fails", "all-fits-fail", "training-metric-singular"])
def test_study_and_monitor_refusals_name_the_field(tmp_path, capsys, command, model, section,
                                                   message):
    write_series_csv(simulate_series(MODEL_SPEC, 100, seed=3),
                     tmp_path / "train.csv")
    cells = {(g, a): 7.0 for g in DEFAULT_GAMMAS for a in DEFAULT_ALPHAS}
    write_threshold_table(ThresholdTable(cells, 100, 1000, 3.0, 0), tmp_path / "table.csv")
    cfg = _write_config(tmp_path / "cfg.json", {"model": model, command: section})
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", command]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_monitor_rescales_a_table_to_its_horizon(tmp_path):
    # The table is calibrated at N = 3; the monitor runs at N' = 1, so its
    # critical value is the cell times (T'/T)^(1 - 2 gamma), T = N / (1 + N).
    training = simulate_series(MODEL_SPEC, 100, seed=3)
    write_series_csv(training, tmp_path / "train.csv")
    (tmp_path / "stream.csv").write_text("k,x,w1\n1,2,1.0\n")
    write_threshold_table(ThresholdTable({(0.25, 0.05): 7.0}, 100, 1000, 3.0, 0),
                          tmp_path / "table.csv")
    cfg = _write_config(tmp_path / "cfg.json", {"model": MODEL_SECTION, "monitor": {
        "training": "train.csv", "stream": "stream.csv", "horizon": 1.0, "gamma": 0.25,
        "alpha": 0.05, "thresholds": "table.csv"}})
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "monitor"]) == 0
    result = json.loads((out / "monitor_result.json").read_text())
    assert result["threshold_c"] == pytest.approx(7.0 * (0.5 / 0.75) ** 0.5, rel=1e-15)
    assert result["horizon_steps"] == 100


@pytest.mark.parametrize("table_n, message", [
    (1e308, None),
    (5e307, None),
    (5e-324, "experiment.thresholds: c=7.0 at gamma=0.0, alpha=0.1 rescales from N=5e-324 "
             "to horizon 3.0 as inf"),
], ids=["1e308", "5e307", "subnormal"])
def test_a_study_rescales_a_table_at_any_finite_n_or_refuses_it(tmp_path, capsys, table_n,
                                                                message):
    # At a huge N, T = N / (1 + N) rounds to 1, so the cells at N' = 3 are
    # 7 (3/4)^(1 - 2 gamma); forming N (1 + N') instead overflows, to a NaN
    # cell that never alarms or a 0 that alarms at once.  At a subnormal N,
    # T'/T overflows and every finite cell would read inf.
    cells = {(g, a): 7.0 for g in DEFAULT_GAMMAS for a in DEFAULT_ALPHAS}
    write_threshold_table(ThresholdTable(cells, 100, 1000, table_n, 0), tmp_path / "table.csv")
    cfg = _write_config(tmp_path / "cfg.json", {"model": MODEL_SECTION, "experiment": {
        "kind": "size", "m_list": [30], "reps": 4, "thresholds": "table.csv"}})
    out = tmp_path / "out"
    code = run_command(["--config", cfg, "--out", str(out), "--quiet", "experiment"])
    if message is not None:
        assert code == 2 and f"config error: {message}" in capsys.readouterr().err
        assert not list(out.iterdir())
        return
    assert code == 0
    with open(out / "size_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cells)
    for row in rows:
        want = 7.0 * 0.75 ** (1.0 - 2.0 * float(row["gamma"]))
        assert float(row["threshold_c"]) == pytest.approx(want, rel=1e-15), row


@pytest.mark.parametrize("command, section", [
    ("fit", {"series": "flat.csv"}),
    ("monitor", {"training": "flat.csv", "stream": "stream.csv", "threshold_c": 7.0}),
])
def test_a_series_that_does_not_fit_names_the_file(tmp_path, capsys, command, section):
    # A constant count makes the lag column a multiple of the intercept.
    (tmp_path / "flat.csv").write_text("t,x,w1\n0,3,\n" + "".join(
        f"{t},3,{1.0 + 0.1 * (t % 3)}\n" for t in range(1, 11)))
    cfg = _write_config(tmp_path / "cfg.json", {"model": MODEL_SECTION, command: section})
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", command]) == 1
    err = capsys.readouterr().err
    assert f"error: {tmp_path / 'flat.csv'}: negated score gradient has condition number" in err


@pytest.mark.parametrize("command, section, file, message", [
    ("compare", {"series": "zero.csv"}, "zero.csv", "all responses at the same boundary"),
    ("compare", {"series": "one.csv"}, "one.csv", "need at least 2 observations"),
    ("prep", {**PREP_SECTION, "states": ["A", "C"]}, "rates.csv", "panel has no rate for: (C,"),
    ("prep", {**PREP_SECTION, "baseline_years": [2018]}, "rates.csv", "no baseline entry for"),
], ids=["compare-constant", "compare-one-row", "prep-no-state", "prep-no-baseline"])
def test_prep_and_compare_runtime_errors_name_the_file(tmp_path, capsys, command, section, file,
                                                       message):
    _rates_fixture_csv(tmp_path / "rates.csv")
    (tmp_path / "zero.csv").write_text("# n=2\niso_year,week,x\n" + "".join(
        f"2020,{week},0\n" for week in range(1, 9)))
    (tmp_path / "one.csv").write_text("# n=2\niso_year,week,x\n2020,1,1\n")
    cfg = _write_config(tmp_path / "cfg.json", {command: section})
    assert run_command(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet", command]) == 1
    assert f"error: {tmp_path / file}: {message}" in capsys.readouterr().err


def test_config_error_survives_pickling():
    # A ConfigError raised in a pool worker is pickled back to the parent.
    exc = pickle.loads(pickle.dumps(ConfigError("a_source", "a training metric is singular")))
    assert (type(exc), exc.path, exc.reason) == (ConfigError, "a_source",
                                                 "a training metric is singular")


@pytest.mark.parametrize("config_seed, flags, seed", [(-3, [], -3), (1, ["--seed", "-2"], -2)])
def test_negative_seed_names_the_field(tmp_path, capsys, config_seed, flags, seed):
    cfg = _write_config(tmp_path / "cfg.json", {"seed": config_seed, "model": MODEL_SECTION,
                                                "simulate": {"length": 10}})
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), *flags, "--quiet", "simulate"]) == 2
    assert f"config error: seed: must be >= 0, got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_monitor_horizon_without_a_point_at_the_training_length_names_the_field(tmp_path,
                                                                                capsys):
    # 0.001 passes the early check (finite and > 0); only the 100-transition training
    # file shows that floor(0.001 * 100) leaves no monitored point.
    training = simulate_series(MODEL_SPEC, 100, seed=3)
    write_series_csv(training, tmp_path / "train.csv")
    cfg = _write_config(tmp_path / "cfg.json", {"model": MODEL_SECTION, "monitor": {
        "training": "train.csv", "stream": "stream.csv", "threshold_c": 7.0, "horizon": 0.001}})
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "monitor"]) == 2
    err = capsys.readouterr().err
    assert "config error: monitor.horizon: 0.001 leaves no monitored point at m=100" in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("table, cls", [
    (_EXO, ExogenousSpec), (_CALIBRATE, CalibrationConfig),
    (_STUDY, ExperimentConfig), (_MONITOR, MonitorConfig),
])
def test_config_field_tables_name_fields_of_the_dataclass_they_feed(table, cls):
    # A key is read with the type its field is annotated with.
    annotation = {float: "float", int: "int", str: "str",
                  (float,): "tuple[float, ...]", (int,): "tuple[int, ...]"}
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    assert {key: annotation[kind] for key, kind in table.items()} == {
        key: fields.get(key) for key in table}


def test_the_model_section_holds_the_fields_of_model_spec():
    # parse_model passes the section to ModelSpec whole, burn_in included.
    assert list(_SCHEMA["model"]) == [f.name for f in dataclasses.fields(ModelSpec)]


def test_readme_config_block_is_the_schema(tmp_path):
    # The block, its // comments stripped, loads, so every key in it is in
    # the schema and typed right; every schema key appears in its text.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    (tmp_path / "cfg.json").write_text(re.sub(r"//.*", "", block))
    load_config(tmp_path / "cfg.json")

    def keys(schema):
        for key, kind in schema.items():
            yield key
            if isinstance(kind, dict):
                yield from keys(kind)

    assert [key for key in keys(_SCHEMA) if f'"{key}"' not in block] == []


def test_prep_window_crosses_iso_week_53():
    prep = parse_prep(_loaded({"prep": {**PREP_SECTION, "window_start": [2020, 52],
                                        "window_end": [2021, 2]}}))
    assert prep["window"] == [(2020, 52), (2020, 53), (2021, 1), (2021, 2)]


@pytest.mark.parametrize("key, label", [
    ("window_start", [2020, 0]), ("window_end", [2020, 60]), ("window_end", [2021, 53]),
])
def test_prep_window_labels_must_be_iso_weeks(key, label):
    with pytest.raises(ConfigError, match=rf"prep\.{key}: \[{label[0]}, {label[1]}\] is not"):
        parse_prep(_loaded({"prep": {**PREP_SECTION, key: label}}))


def test_config_defaults_fill_absent_keys():
    assert parse_calibrate(_loaded({"calibrate": {"reps": 200}})) == CalibrationConfig(
        reps=200, master_seed=5)
    kind, exp = parse_experiment(_loaded({"experiment": {"kind": "size", "gammas": [0, 0.25]}}))
    assert exp == ExperimentConfig(gammas=(0.0, 0.25), master_seed=5, **EXPERIMENT_DEFAULTS[kind])
    assert parse_monitor(_loaded({"monitor": {"threshold_c": 7}})) == {
        "horizon": DEFAULT_HORIZON, "gamma": DEFAULT_MONITOR_GAMMA,
        "alpha": DEFAULT_MONITOR_ALPHA, "threshold_source": 7.0}


def test_experiment_command(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "seed": 14,
            "model": MODEL_SECTION,
            "experiment": {"kind": "consistency", "m_list": [80], "reps": 3},
        },
    )
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "experiment"]) == 0
    lines = (out / "consistency_report.csv").read_text().strip().splitlines()
    assert lines[0] == "m,param,mse,reps_used,failures,flagged"
    assert len(lines) == 4
    meta = json.loads((out / "consistency_meta.json").read_text())
    assert meta["experiment"] == "consistency"
    assert meta["stream_contract"] == 4 and meta["block_size"] == 256
    assert meta["failures_by_class"] == {
        "80": {"SeparationError": 0, "SingularHessianError": 0, "NonConvergenceError": 0}
    }


def test_power_study_without_alphas_reports_the_first_default_level(tmp_path):
    # A power study runs at one level; without `alphas` that is 0.1, and its
    # artifacts are those of `alphas: [0.1]`.
    cells = {(0.0, a): 7.0 for a in DEFAULT_ALPHAS}
    write_threshold_table(ThresholdTable(cells, 100, 100, DEFAULT_HORIZON, 0),
                          tmp_path / "table.csv")
    study = {"kind": "power", "m_list": [30], "reps": 2, "gammas": [0.0],
             "thresholds": "table.csv", "change": {"at_k": 5, "beta": [-1.0, 0.2, 0.4]}}
    outputs = []
    for name, extra in (("default", {}), ("explicit", {"alphas": [0.1]})):
        cfg = _write_config(tmp_path / f"{name}.json",
                            {"model": MODEL_SECTION, "experiment": {**study, **extra}})
        out = tmp_path / name
        assert run_command(["--config", cfg, "--out", str(out), "--quiet", "experiment"]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]
    rows = outputs[0]["power_report.csv"].decode().splitlines()
    assert [row.split(",")[2] for row in rows] == ["alpha", "0.1"]


@pytest.mark.parametrize("m", [0, 3])
def test_experiment_refuses_training_lengths_too_short_to_fit(tmp_path, capsys, m):
    # d = 3 coefficients need at least 4 transitions, as fit_mple requires.
    cfg = _write_config(tmp_path / "cfg.json", {
        "model": MODEL_SECTION,
        "experiment": {"kind": "consistency", "m_list": [m], "reps": 3},
    })
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "experiment"]) == 2
    assert f"config error: experiment.m_list: entry {m} is below 4" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_prep_and_compare_commands(tmp_path):
    _rates_fixture_csv(tmp_path / "rates.csv")
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "prep": PREP_SECTION,
            "compare": {"series": "out/binomial_series.csv"},
        },
    )
    out = tmp_path / "out"
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "prep"]) == 0
    lines = (out / "binomial_series.csv").read_text().strip().splitlines()
    assert lines[0] == "# n=2"
    assert [line.split(",")[2] for line in lines[2:]] == ["2", "1", "0", "1", "1", "1"]
    assert run_command(["--config", cfg, "--out", str(out), "--quiet", "compare"]) == 0
    result = json.loads((out / "comparison.json").read_text())
    assert set(result) >= {"aic_simple", "aic_ar1", "lr_stat", "p_value"}


def test_usage_errors(tmp_path, capsys):
    assert run_command(["--config", "nope.json", "bogus"]) == 2
    assert run_command(["--config", str(tmp_path / "missing.json"), "simulate"]) == 2
    cfg = _write_config(tmp_path / "cfg.json", {"model": MODEL_SECTION, "simulate": {}})
    assert run_command(["--config", cfg, "--out", str(tmp_path), "simulate"]) == 2
    err = capsys.readouterr().err
    assert "simulate.length" in err


def test_runtime_error_exit(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {"model": MODEL_SECTION, "fit": {"series": "absent.csv"}},
    )
    assert run_command(["--config", cfg, "--out", str(tmp_path), "--quiet", "fit"]) == 1


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path / "cfg.json",
                        {"seed": 1, "model": MODEL_SECTION, "simulate": {"length": 30}})
    run_command(["--config", cfg, "--out", str(tmp_path / "flag"), "--seed", "3",
                 "--quiet", "simulate"])
    run_command(["--config", cfg, "--out", str(tmp_path / "cfgseed"), "--quiet", "simulate"])
    # The environment is not a config layer: BINARX_SEED changes nothing.
    monkeypatch.setenv("BINARX_SEED", "2")
    run_command(["--config", cfg, "--out", str(tmp_path / "env"), "--quiet", "simulate"])
    flag = read_series_csv(tmp_path / "flag" / "series.csv")
    cfgseed = read_series_csv(tmp_path / "cfgseed" / "series.csv")
    np.testing.assert_array_equal(flag.x, simulate_series(MODEL_SPEC, 30, seed=3).x)
    np.testing.assert_array_equal(cfgseed.x, simulate_series(MODEL_SPEC, 30, seed=1).x)
    env = (tmp_path / "env" / "series.csv").read_bytes()
    assert env == (tmp_path / "cfgseed" / "series.csv").read_bytes()


def _child_env():
    """The environment of a child interpreter that imports the binarx under test,
    installed or not."""
    import os

    import binarx

    path = [str(Path(binarx.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def test_console_entry_point(tmp_path):
    import subprocess
    import sys

    cfg = _write_config(tmp_path / "cfg.json",
                        {"seed": 4, "model": MODEL_SECTION, "simulate": {"length": 20}})
    proc = subprocess.run(
        [sys.executable, "-m", "binarx.cli", "--config", cfg, "--out", str(tmp_path / "o"),
         "--quiet", "simulate"],
        capture_output=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "series.csv").exists()


_IMPORT_GRAPH = """
import sys
import binarx
from binarx.calibration import ThresholdTable

SLOW = ("scipy.special", "scipy.stats", "concurrent.futures.process")
print(*[m for m in SLOW if m in sys.modules], "scipy" in sys.modules, sep=",")
spec = binarx.default_model_spec()
table = ThresholdTable({(0.0, 0.05): 7.0}, 100, 1000, 1.0, 0)
binarx.run_size(binarx.ExperimentConfig(m_list=(60,), reps=4, gammas=(0.0,), alphas=(0.05,),
                                        horizon=1.0, thresholds=table))
state = binarx.monitor_init(binarx.simulate_series(spec, 60, seed=1), spec.n, 1.0, 0.0, 0.05, 7.0)
for x, w in ((2, [1.0]), (3, [0.9]), (1, [1.1])):
    binarx.monitor_update(state, x, w)
print(*[m for m in SLOW if m in sys.modules], "scipy" in sys.modules, sep=",")
"""


def test_import_leaves_scipy_stats_unloaded():
    # scipy.special, scipy.stats and the process pool are slow and large to
    # import, and neither the import nor a one-thread study or a monitor
    # needs them.  scipy itself is loaded: run records read its version.
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "True"]


# ---------------------------------------------------------------------------
# Generated configs.  Every key takes one of a few values inside its range,
# its bounds among them, or is left out (_ABSENT); at most one key takes a
# value outside its range instead.  Sizes stay small, and a study always gets
# a table: without one it calibrates its own at 10,000 reps.

_ABSENT = object()
# The files a config may name: `_config_files` writes all but missing.csv.
_FILES = ("train.csv", "short.csv", "flat.csv", "stream.csv", "table.csv", "rates.csv",
          "binomial.csv", "zero.csv", "one.csv", "bad.csv", "missing.csv")
_BAD_FILES = ("bad.csv", "missing.csv")
_HORIZONS_OUT = (0.0, -1.0, 0.001, math.inf, math.nan, 1e306)
# section -> key -> (values inside the range, values outside it)
_KEYS = {
    "model": {
        "n": ((1, 10, 40), (0,)),
        "beta": (([-1.0, 0.1, 0.4], [0.0, 0.0, 0.0], [-1.0, 0.1], [-1.0, 20.0, 0.4]),
                 ([21.0, 0.1, 0.4], [-1.0], [-1.0, math.nan, 0.4])),
        "burn_in": ((0, 3), (-1, 10**7)),
        "exo": ((_ABSENT, {"sd": 0.5}, {"clamp_lo": 2.0}), ({"sd": 0.0}, {"clamp_hi": 0.0})),
    },
    "simulate": {
        "length": ((1, 5), (0, 10**7)),
        "init": ((_ABSENT, 0, 1), (-1, 41)),
    },
    "fit": {
        "series": (("train.csv", "short.csv", "flat.csv"), ("stream.csv",) + _BAD_FILES),
    },
    "calibrate": {
        "grid_m": ((100, 200), (99,)),
        "reps": ((100,), (99,)),
        "gammas": ((_ABSENT, [0.0], [0.0, 0.49]), ([], [0.5], [-0.1], [0.0, 0.0])),
        "alphas": ((_ABSENT, [0.05], [0.1, 0.99]), ([], [0.0], [1.0], [0.1, 0.1])),
    },
    "monitor": {
        "training": (("train.csv", "short.csv", "flat.csv"), ("stream.csv",) + _BAD_FILES),
        "stream": (("stream.csv",), ("train.csv",) + _BAD_FILES),
        "horizon": ((_ABSENT, 0.05, 3.0), _HORIZONS_OUT),
        "gamma": ((_ABSENT, 0.0, 0.25), (-0.1, 0.5)),
        "alpha": ((_ABSENT, 0.05, 0.1), (0.0, 1.0)),
        "threshold_c": ((_ABSENT, 1e-3, 7.0), (0.0, -1.0, math.inf)),
        "thresholds": ((_ABSENT, "table.csv"), _BAD_FILES),
    },
    "experiment": {
        "kind": (("size", "power", "consistency", "normality"), ("bogus",)),
        "m_list": (([4], [30], [30, 40]), ([], [3], [10**7], [30, 30])),
        "reps": ((1, 3), (0,)),
        "thresholds": (("table.csv",), _BAD_FILES),
        "a_source": ((_ABSENT, "training"), ("x",)),
        "gammas": ((_ABSENT, [0.0], [0.0, 0.25]), ([], [0.5], [0.25, 0.25])),
        "alphas": ((_ABSENT, [0.05], [0.05, 0.1]), ([], [1.0], [0.05, 0.05])),
        "horizon": ((_ABSENT, 0.05, 3.0), _HORIZONS_OUT),
        "emit_traces": ((_ABSENT, 0, 2), (-1,)),
        "change": ((_ABSENT, {"at_k": 1, "beta": [-1.0, 0.2, 0.4]}),
                   ({"at_k": 0, "beta": [-1.0, 0.2, 0.4]},
                    {"at_k": 10**6, "beta": [-1.0, 0.2, 0.4]},
                    {"at_k": 1, "beta": [-1.0, 0.2]})),
    },
    "prep": {
        "rates": (("rates.csv",), (_ABSENT, "train.csv") + _BAD_FILES),
        "states": ((["A"], ["A", "B"], ["A", "C"]), (_ABSENT, [], [1])),
        "baseline_years": (([2019], [2018, 2019], [2018]), (_ABSENT, [2019.5], [2019, 2019])),
        "window_start": (([2020, 1], [2020, 4]), (_ABSENT, [2020, 0], [2020, 54], [2020])),
        "window_end": (([2020, 6], [2020, 7]), (_ABSENT, [2019, 52], [2021, 53])),
    },
    "compare": {
        "series": (("binomial.csv", "zero.csv", "one.csv"), (_ABSENT, "train.csv") + _BAD_FILES),
    },
}


def test_generated_config_keys_are_the_schema_keys():
    # A schema key missing here is never generated; a key here that the
    # schema dropped makes every generated config of its section an
    # unknown-key refusal, which the generated test accepts, so that
    # section's coverage would be lost without any failure.
    assert {section: set(keys) for section, keys in _KEYS.items()} == {
        section: set(keys) for section, keys in _SCHEMA.items() if isinstance(keys, dict)}


@st.composite
def _configs(draw):
    command = draw(st.sampled_from([c for c in _KEYS if c != "model"]))
    keys = [(section, key) for section in ("model", command) for key in _KEYS[section]]
    broken = draw(st.none() | st.sampled_from(keys))
    payload = {}
    for section, key in keys:
        inside, outside = _KEYS[section][key]
        if (section, key) == ("experiment", "alphas") and payload["experiment"]["kind"] == "power":
            # A power study runs at one level, so two levels lie outside its range.
            inside = [a for a in inside if a is _ABSENT or len(a) == 1]
        value = draw(st.sampled_from(outside if (section, key) == broken else inside))
        if value is not _ABSENT:
            payload.setdefault(section, {})[key] = value
    return command, payload


@pytest.fixture(scope="module")
def _config_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("generated")
    spec = dataclasses.replace(default_model_spec(), burn_in=0)
    write_series_csv(simulate_series(spec, 30, seed=3), root / "train.csv")
    write_series_csv(simulate_series(spec, 4, seed=4), root / "short.csv")
    # A constant count: the lag column is a multiple of the intercept.
    write_series_csv(SeriesSample(np.full(11, 3), np.linspace(0.9, 1.1, 10)[:, None]),
                     root / "flat.csv")
    _write_stream_csv(root / "stream.csv", simulate_series(spec, 40, seed=5))
    (root / "bad.csv").write_text("t,x,w1\n0,3,\n1,x,1.0\n")
    cells = {(g, a): 7.0 for g in DEFAULT_GAMMAS for a in DEFAULT_ALPHAS}
    write_threshold_table(ThresholdTable(cells, 100, 100, DEFAULT_HORIZON, 0), root / "table.csv")
    _rates_fixture_csv(root / "rates.csv")
    for name, counts in (("binomial.csv", [2, 1, 0, 1, 1, 1, 2, 0, 1, 2, 1, 0]),
                         ("zero.csv", [0] * 8), ("one.csv", [1])):
        (root / name).write_text("# n=2\niso_year,week,x\n" + "".join(
            f"2020,{week},{x}\n" for week, x in enumerate(counts, start=1)))
    return root


def _no_process(*args, **kwargs):
    raise AssertionError("a generated config started a process")


@pytest.mark.filterwarnings("ignore:reps\\*alpha")
@settings(max_examples=60, deadline=None)
@given(case=_configs())
def test_generated_configs_exit_cleanly(_config_files, case):
    # Exit 0, 2 (a config error) or 3 (an alarm), or exit 1 naming a file;
    # never a traceback, and never a worker process.
    command, payload = case
    cfg = _write_config(_config_files / "cfg.json", payload)
    out = _config_files / "out"
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        for name in ("fork", "posix_spawn", "posix_spawnp"):
            mp.setattr(os, name, _no_process)
        code = run_command(["--config", cfg, "--out", str(out), "--threads", "1", "--quiet",
                            command])
    message = err.getvalue()
    assert code in (0, 2, 3) or (code == 1 and any(f in message for f in _FILES)), message
