"""JSON config loading shared by every CLI subcommand.

One schema, `_SCHEMA`, covers all subcommands: it maps each section to its
keys and each key to the type it is read as.  `load_config` reads the whole
file against it once, so an unknown key or a value of the wrong type is a
config error naming `section.key` in every section, also in one the
subcommand does not read.  A `null` value, a whole section's included,
counts as absent, and a relative file path resolves against the config
file's directory.  The range rules live in the types that store the values,
which raise ConfigError naming the field, and `in_section` puts the section
in front.  The --seed and --threads flags override the config.
"""

from __future__ import annotations

import datetime
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .calibration import (
    CalibrationConfig,
    _check_alpha,
    _check_finite_positive,
    _check_gamma,
    _check_listed_once,
    _check_positive,
    read_threshold_table,
)
from .defaults import (
    DEFAULT_HORIZON,
    DEFAULT_MONITOR_ALPHA,
    DEFAULT_MONITOR_GAMMA,
    DEFAULT_SEED,
    EXPERIMENT_DEFAULTS,
    default_model_spec,
)
from .exceptions import ConfigError
from .experiments import ChangePoint, ExperimentConfig
from .model import ExogenousSpec, ModelSpec, ParamVector

# Each section's keys and the type each is read as: a list read as a tuple
# is written (element type,), a file path Path, and a subsection a dict.
# The four small tables are the keywords of the dataclass each feeds; keys
# the config leaves out take the dataclass defaults.
_EXO = {"mean": float, "sd": float, "clamp_lo": float, "clamp_hi": float}
_CALIBRATE = {"grid_m": int, "reps": int, "gammas": (float,), "alphas": (float,)}
_STUDY = {"m_list": (int,), "reps": int, "gammas": (float,), "alphas": (float,),
          "horizon": float, "a_source": str, "emit_traces": int}
_MONITOR = {"horizon": float, "gamma": float, "alpha": float}
_SCHEMA = {
    "seed": int,
    "threads": int,
    "model": {"n": int, "beta": (float,), "exo": _EXO, "burn_in": int},
    "simulate": {"length": int, "init": int},
    "fit": {"series": Path},
    "calibrate": _CALIBRATE,
    "monitor": {"training": Path, "stream": Path, "thresholds": Path, "threshold_c": float,
                **_MONITOR},
    "experiment": {"kind": str, "change": {"at_k": int, "beta": (float,)}, "thresholds": Path,
                   **_STUDY},
    "prep": {"rates": Path, "states": (str,), "baseline_years": (int,),
             "window_start": (int,), "window_end": (int,)},
    "compare": {"series": Path},
}


@dataclass(frozen=True)
class LoadedConfig:
    """The config's typed values by section, and the seed and thread count in force."""

    values: dict
    seed: int
    threads: int

    def require(self, path: str):
        """The value at dotted `path`; ConfigError names the first part that is absent."""
        node, parts = self.values, path.split(".")
        for i, part in enumerate(parts):
            if part not in node:
                raise ConfigError(".".join(parts[: i + 1]), "required field is missing")
            node = node[part]
        return node

    def get(self, path: str, default=None):
        """The value at dotted `path`, or `default` where it is absent."""
        try:
            return self.require(path)
        except ConfigError:
            return default


def load_config(path, seed_override=None, threads_override=None) -> LoadedConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top level must be a JSON object")
    values = _read(raw, _SCHEMA, path.parent)
    seed = values.get("seed", DEFAULT_SEED) if seed_override is None else int(seed_override)
    threads = values.get("threads", 1) if threads_override is None else int(threads_override)
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
    if threads < 1:
        raise ConfigError("threads", "must be >= 1")
    return LoadedConfig(values=values, seed=seed, threads=threads)


def _read(node: dict, schema: dict, base_dir: Path, prefix: str = "") -> dict:
    """The typed values of the JSON object `node`, key by key as `schema` says."""
    values = {}
    for key in sorted(node):
        path, value, kind = prefix + key, node[key], schema.get(key)
        if kind is None:
            raise ConfigError(path, "unknown key")
        if value is None:
            continue
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise ConfigError(path, "must be an object")
            values[key] = _read(value, kind, base_dir, path + ".")
            continue
        try:
            values[key] = _convert(value, kind, base_dir)
        except (TypeError, ValueError, OverflowError):
            name = (f"list of {kind[0].__name__}" if isinstance(kind, tuple)
                    else "str" if kind is Path else kind.__name__)
            raise ConfigError(path, f"expected {name}, got {value!r}") from None
    return values


def _convert(value, kind, base_dir: Path):
    if isinstance(kind, tuple):
        if not isinstance(value, list):
            raise ValueError
        return tuple(_convert(v, kind[0], base_dir) for v in value)
    if kind is Path:
        return base_dir / _convert(value, str, base_dir)
    if kind is int:
        if isinstance(value, bool) or int(value) != value:
            raise ValueError
        return int(value)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError
        return float(value)
    if not isinstance(value, kind):
        raise ValueError
    return value


@contextmanager
def in_section(name: str):
    """Put section `name` in front of the field a type's ConfigError names,
    unless that field is named from its own section already (`model.n`).
    `require` stays outside: it names the whole path already."""
    try:
        yield
    except ConfigError as exc:
        if isinstance(_SCHEMA.get(exc.path.split(".")[0]), dict):
            raise
        raise ConfigError(f"{name}.{exc.path}", exc.reason) from None


def parse_model(loaded: LoadedConfig) -> ModelSpec:
    """The `model` section (the reference model if absent)."""
    if "model" not in loaded.values:
        return default_model_spec()
    section = loaded.values["model"]
    loaded.require("model.n")
    beta = loaded.require("model.beta")
    with in_section("model.exo"):
        exo = ExogenousSpec(**section.get("exo", {}))
    with in_section("model"):
        return ModelSpec(**{**section, "beta": ParamVector.from_array(beta), "exo": exo})


def parse_n(loaded: LoadedConfig) -> int:
    """`model.n` alone, as `ModelSpec` checks it (the reference model's if the
    section is absent): `fit`, `monitor` and `compare` need no `beta`."""
    if "model" not in loaded.values:
        return default_model_spec().n
    with in_section("model"):
        return replace(default_model_spec(), n=loaded.require("model.n")).n


def parse_calibrate(loaded: LoadedConfig) -> CalibrationConfig:
    """The `calibrate` section at the default N = 3, which is not a key, so a
    grid above the point budget is refused naming `grid_m`; d is the model's."""
    dim = parse_model(loaded).beta.dim
    with in_section("calibrate"):
        try:
            return CalibrationConfig(dim, **loaded.get("calibrate", {}), master_seed=loaded.seed)
        except ConfigError as exc:
            if exc.path != "horizon":
                raise
            raise ConfigError("grid_m", exc.reason) from None


def parse_experiment(loaded: LoadedConfig) -> tuple[str, ExperimentConfig]:
    kind = loaded.require("experiment.kind")
    if kind not in EXPERIMENT_DEFAULTS:
        raise ConfigError(
            "experiment.kind", f"must be one of {sorted(EXPERIMENT_DEFAULTS)}, got {kind!r}"
        )
    section = loaded.require("experiment")
    spec = parse_model(loaded)
    change = None
    if "change" in section:
        at_k = loaded.require("experiment.change.at_k")
        new_beta = loaded.require("experiment.change.beta")
        with in_section("experiment.change"):
            change = ChangePoint(at_k=at_k, new_beta=ParamVector.from_array(new_beta))
    thresholds = read_threshold_table(section["thresholds"]) if "thresholds" in section else None
    fields = {**EXPERIMENT_DEFAULTS[kind], **{k: v for k, v in section.items() if k in _STUDY}}
    with in_section("experiment"):
        return kind, ExperimentConfig(spec=spec, change=change, master_seed=loaded.seed,
                                      thresholds=thresholds, **fields)


def parse_monitor(loaded: LoadedConfig) -> dict:
    """monitor_init keywords from the `monitor` section: horizon, gamma, alpha
    and threshold_source (a critical value, which wins, or a threshold table).
    N must be finite and > 0 before the training file is read; MonitorConfig
    checks the rest of horizon_steps' rule, which depends on the training length."""
    section = loaded.require("monitor")
    settings = {"horizon": DEFAULT_HORIZON, "gamma": DEFAULT_MONITOR_GAMMA,
                "alpha": DEFAULT_MONITOR_ALPHA,
                **{k: v for k, v in section.items() if k in _MONITOR}}
    _check_finite_positive(settings["horizon"], "monitor.horizon")
    _check_gamma(settings["gamma"], "monitor.gamma")
    _check_alpha(settings["alpha"], "monitor.alpha")
    if "threshold_c" in section:
        source = section["threshold_c"]
        _check_positive(source, "monitor.threshold_c")
    elif "thresholds" in section:
        source = read_threshold_table(section["thresholds"])
    else:
        raise ConfigError("monitor.threshold_c", "need threshold_c or a thresholds table path")
    return {**settings, "threshold_source": source}


def _iso_monday(loaded: LoadedConfig, path: str) -> datetime.date:
    """Monday of the ISO week [iso_year, week] at `path`."""
    label = loaded.require(path)
    if len(label) != 2:
        raise ConfigError(path, "must be [iso_year, week]")
    try:
        return datetime.date.fromisocalendar(*label, 1)
    except ValueError as exc:
        raise ConfigError(path, f"{list(label)} is not an ISO week: {exc}") from None


def parse_prep(loaded: LoadedConfig) -> dict:
    rates = loaded.require("prep.rates")
    states = loaded.require("prep.states")
    if not states:
        raise ConfigError("prep.states", "must be a non-empty list of state names")
    _check_listed_once(states, "prep.states")
    years = loaded.require("prep.baseline_years")
    _check_listed_once(years, "prep.baseline_years")
    start = _iso_monday(loaded, "prep.window_start")
    end = _iso_monday(loaded, "prep.window_end")
    if start > end:
        raise ConfigError("prep.window_start", "window start is after window end")
    # Inclusive (iso_year, week) labels, one per Monday from start to end.
    window = [(start + datetime.timedelta(weeks=i)).isocalendar()[:2]
              for i in range((end - start).days // 7 + 1)]
    return {"rates": rates, "states": states, "baseline_years": years, "window": window}
