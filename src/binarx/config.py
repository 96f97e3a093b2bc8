"""JSON config loading shared by every CLI subcommand.

One documented schema covers all subcommands; each reads only its own
section plus the shared `model`, `seed`, and `threads` keys.  A key the
schema does not know, in any section, is a config error naming it.  This
module reads each value with its type; the range rules live in the types
that store the values, which raise ConfigError naming the field, and
`in_section` puts the section in front.  Relative file paths inside a
config resolve against the config file's directory.  The --seed and
--threads flags override the config.
"""

from __future__ import annotations

import datetime
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .calibration import (
    CalibrationConfig,
    _check_alpha,
    _check_gamma,
    _check_positive,
    read_threshold_table,
)
from .defaults import (
    DEFAULT_BURN_IN,
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

# The optional keys of each section and their types; a list read as a tuple
# is written (element type,).  Keys the config leaves out (or sets to null)
# take the dataclass defaults.
_EXO_FIELDS = {"mean": float, "sd": float, "clamp_lo": float, "clamp_hi": float}
_CALIBRATE_FIELDS = {"horizon": float, "grid_m": int, "reps": int,
                     "gammas": (float,), "alphas": (float,)}
_EXPERIMENT_FIELDS = {"m_list": (int,), "reps": int, "gammas": (float,), "alphas": (float,),
                      "horizon": float, "a_source": str, "emit_traces": int}
_MONITOR_FIELDS = {"horizon": float, "gamma": float, "alpha": float}
# Every key of the schema by section; "" is the top level.
_KEYS = {
    "": {"seed", "threads", "model", "simulate", "fit", "calibrate", "monitor", "experiment",
         "prep", "compare"},
    "model": {"n", "beta", "exo", "burn_in"},
    "model.exo": set(_EXO_FIELDS),
    "simulate": {"length", "init"},
    "fit": {"series"},
    "calibrate": set(_CALIBRATE_FIELDS),
    "monitor": {"training", "stream", "thresholds", "threshold_c", *_MONITOR_FIELDS},
    "experiment": {"kind", "change", "thresholds", *_EXPERIMENT_FIELDS},
    "experiment.change": {"at_k", "beta"},
    "prep": {"rates", "states", "baseline_years", "window_start", "window_end"},
    "compare": {"series"},
}


@dataclass(frozen=True)
class LoadedConfig:
    raw: dict
    base_dir: Path
    seed: int
    threads: int


def load_config(path, seed_override=None, threads_override=None) -> LoadedConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top level must be a JSON object")
    _reject_unknown_keys(raw)

    seed = _opt_int(raw, "seed", DEFAULT_SEED)
    threads = _opt_int(raw, "threads", 1)
    if seed_override is not None:
        seed = int(seed_override)
    if threads_override is not None:
        threads = int(threads_override)
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
    if threads < 1:
        raise ConfigError("threads", "must be >= 1")
    return LoadedConfig(raw=raw, base_dir=path.parent, seed=seed, threads=threads)


_REQUIRED = object()


def _reject_unknown_keys(raw: dict) -> None:
    """Raise ConfigError naming the first key that the schema does not know."""
    for section, known in _KEYS.items():
        node = _get(raw, section, {}) if section else raw
        for key in sorted(node) if isinstance(node, dict) else ():
            if key not in known:
                raise ConfigError(f"{section}.{key}" if section else key, "unknown key")


def _get(cfg: dict, path: str, default=_REQUIRED):
    node = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(".".join(walked), "required field is missing")
            return default
        node = node[part]
    return node


def _convert(value, kind):
    if isinstance(kind, tuple):
        if not isinstance(value, list):
            raise ValueError
        return tuple(_convert(v, kind[0]) for v in value)
    if kind is int:
        if isinstance(value, bool) or int(value) != value:
            raise ValueError
        return int(value)
    if kind is float:
        return float(value)
    if not isinstance(value, kind):
        raise ValueError
    return value


def _typed(cfg: dict, path: str, kind, default=_REQUIRED):
    """The value at `path` as int, float, str, list or (element type,) tuple."""
    value = _get(cfg, path, default)
    if default is not _REQUIRED and value is default:
        return value
    try:
        return _convert(value, kind)
    except (TypeError, ValueError, OverflowError):
        name = f"list of {kind[0].__name__}" if isinstance(kind, tuple) else kind.__name__
        raise ConfigError(path, f"expected {name}, got {value!r}") from None


def _present(cfg: dict, section: str, fields: dict) -> dict:
    """Typed values of the `fields` that `section` sets, by key."""
    node = _get(cfg, section, {})
    if not isinstance(node, dict):
        raise ConfigError(section, "must be an object")
    return {key: _typed(cfg, f"{section}.{key}", kind)
            for key, kind in fields.items() if node.get(key) is not None}


@contextmanager
def in_section(name: str):
    """Put section `name` in front of the field a type's ConfigError names.
    Typed reads stay outside: they name the whole path already."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc.path}", exc.reason) from None


def _opt_int(cfg: dict, path: str, default: int) -> int:
    value = _get(cfg, path, None)
    return default if value is None else _typed(cfg, path, int)


def parse_model(loaded: LoadedConfig) -> tuple[ModelSpec, int]:
    """ModelSpec and burn-in from the `model` section (reference model if absent)."""
    cfg = loaded.raw
    if "model" not in cfg:
        return default_model_spec(), DEFAULT_BURN_IN
    n = _typed(cfg, "model.n", int)
    beta = _typed(cfg, "model.beta", (float,))
    exo_fields = _present(cfg, "model.exo", _EXO_FIELDS)
    with in_section("model.exo"):
        exo = ExogenousSpec(**exo_fields)
    with in_section("model"):
        spec = ModelSpec(n=n, beta=ParamVector.from_array(beta), exo=exo)
    burn_in = _opt_int(cfg, "model.burn_in", DEFAULT_BURN_IN)
    if burn_in < 0:
        raise ConfigError("model.burn_in", "must be >= 0")
    return spec, burn_in


def parse_simulate(loaded: LoadedConfig, n: int) -> tuple[int, int | None]:
    """Length and initial count of the `simulate` section; init must lie in 0..n."""
    length = _typed(loaded.raw, "simulate.length", int)
    if length < 1:
        raise ConfigError("simulate.length", f"must be >= 1, got {length}")
    init = _typed(loaded.raw, "simulate.init", int, None)
    if init is not None and not 0 <= init <= n:
        raise ConfigError("simulate.init", f"initial state {init} outside {{0..{n}}}")
    return length, init


def resolve_path(loaded: LoadedConfig, key: str) -> Path:
    """The file the config names at `key`; relative to the config's directory."""
    p = Path(_typed(loaded.raw, key, str))
    return p if p.is_absolute() else loaded.base_dir / p


def parse_calibrate(loaded: LoadedConfig) -> CalibrationConfig:
    """The `calibrate` section; the score dimension is the model's."""
    fields = _present(loaded.raw, "calibrate", _CALIBRATE_FIELDS)
    dim = parse_model(loaded)[0].beta.dim
    with in_section("calibrate"):
        return CalibrationConfig(dim=dim, **fields, master_seed=loaded.seed)


def parse_experiment(loaded: LoadedConfig) -> tuple[str, ExperimentConfig]:
    cfg = loaded.raw
    kind = _typed(cfg, "experiment.kind", str)
    if kind not in EXPERIMENT_DEFAULTS:
        raise ConfigError(
            "experiment.kind", f"must be one of {sorted(EXPERIMENT_DEFAULTS)}, got {kind!r}"
        )
    section = _get(cfg, "experiment")
    spec, burn_in = parse_model(loaded)
    change = None
    if "change" in section:
        at_k = _typed(cfg, "experiment.change.at_k", int)
        new_beta = _typed(cfg, "experiment.change.beta", (float,))
        with in_section("experiment.change"):
            change = ChangePoint(at_k=at_k, new_beta=ParamVector.from_array(new_beta))
    elif kind == "power":
        raise ConfigError("experiment.change", "required for the power experiment")
    thresholds = None
    if "thresholds" in section:
        thresholds = read_threshold_table(resolve_path(loaded, "experiment.thresholds"))
    fields = {**EXPERIMENT_DEFAULTS[kind], **_present(cfg, "experiment", _EXPERIMENT_FIELDS)}
    with in_section("experiment"):
        return kind, ExperimentConfig(spec=spec, change=change, master_seed=loaded.seed,
                                      burn_in=burn_in, thresholds=thresholds, **fields)


def parse_monitor(loaded: LoadedConfig) -> dict:
    """monitor_init keywords from the `monitor` section: horizon, gamma, alpha
    and threshold_source (a critical value or a threshold table).  Whether
    the horizon holds a monitored point depends on the training length, and
    MonitorConfig checks it when the monitor is built."""
    cfg = loaded.raw
    section = _get(cfg, "monitor")
    settings = {"horizon": DEFAULT_HORIZON, "gamma": DEFAULT_MONITOR_GAMMA,
                "alpha": DEFAULT_MONITOR_ALPHA, **_present(cfg, "monitor", _MONITOR_FIELDS)}
    _check_positive(settings["horizon"], "monitor.horizon")
    _check_gamma(settings["gamma"], "monitor.gamma")
    _check_alpha(settings["alpha"], "monitor.alpha")
    if "threshold_c" in section:
        source = _typed(cfg, "monitor.threshold_c", float)
        _check_positive(source, "monitor.threshold_c")
    elif "thresholds" in section:
        source = read_threshold_table(resolve_path(loaded, "monitor.thresholds"))
    else:
        raise ConfigError("monitor.threshold_c", "need threshold_c or a thresholds table path")
    return {**settings, "threshold_source": source}


def _iso_monday(cfg: dict, path: str) -> datetime.date:
    """Monday of the ISO week [iso_year, week] at `path`."""
    label = _typed(cfg, path, (int,))
    if len(label) != 2:
        raise ConfigError(path, "must be [iso_year, week]")
    try:
        return datetime.date.fromisocalendar(*label, 1)
    except ValueError as exc:
        raise ConfigError(path, f"{list(label)} is not an ISO week: {exc}") from None


def parse_prep(loaded: LoadedConfig) -> dict:
    cfg = loaded.raw
    rates = resolve_path(loaded, "prep.rates")
    states = _typed(cfg, "prep.states", (str,))
    if not states:
        raise ConfigError("prep.states", "must be a non-empty list of state names")
    years = _typed(cfg, "prep.baseline_years", (int,))
    start = _iso_monday(cfg, "prep.window_start")
    end = _iso_monday(cfg, "prep.window_end")
    if start > end:
        raise ConfigError("prep.window_start", "window start is after window end")
    # Inclusive (iso_year, week) labels, one per Monday from start to end.
    window = [(start + datetime.timedelta(weeks=i)).isocalendar()[:2]
              for i in range((end - start).days // 7 + 1)]
    return {"rates": rates, "states": states, "baseline_years": years, "window": window}
