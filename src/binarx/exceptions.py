"""Exception types shared across the package."""


class BinarxError(Exception):
    """Base class for all errors raised by binarx."""


class SeparationError(BinarxError):
    """The response is constant at a boundary (all 0 or all n); the MPLE diverges."""


class SingularHessianError(BinarxError):
    """The negated score gradient is numerically singular (condition number too large)."""


class NonConvergenceError(BinarxError):
    """An iterative solver failed to reach its tolerance within the iteration budget."""


class MonitoringTerminatedError(BinarxError):
    """The monitor received an update after an alarm or after the horizon was reached."""


def _listed(items: list) -> str:
    """The first ten items, comma-separated, then "and N more" for the rest."""
    return ", ".join(items[:10]) + (f" and {len(items) - 10} more" if len(items) > 10 else "")


class MissingBaselineError(BinarxError):
    """Baseline lookup failed for one or more (state, week) pairs, or for all
    of them when no panel row lies in the baseline `years`."""

    def __init__(self, missing, years=()):
        self.missing = tuple(missing)
        what = _listed([f"({s}, week {w})" for s, w in self.missing]) or (
            f"any state, as no panel row lies in baseline_years {list(years)}")
        super().__init__(f"no baseline entry for: {what}")


class PanelCoverageError(BinarxError):
    """The rate panel is missing observations required by the evaluation window."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        pairs = _listed([f"({s}, {y}-W{w:02d})" for s, y, w in self.missing])
        super().__init__(f"panel has no rate for: {pairs}")


class ConfigError(BinarxError, ValueError):
    """A setting out of its range, or a config that breaks the schema; `path` names the field."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")

    def __reduce__(self):
        # Raised in a pool worker, it is pickled back to the parent process.
        return ConfigError, (self.path, self.reason)


class ThresholdUnavailableError(ConfigError):
    """The threshold table holds no usable critical value for the requested
    (gamma, alpha) pair at the horizon; it names the `thresholds` field."""

    def __init__(self, reason: str):
        super().__init__("thresholds", reason)
