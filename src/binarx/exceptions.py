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


class ThresholdUnavailableError(BinarxError):
    """No critical value is available for the requested (gamma, alpha) pair."""


class MissingBaselineError(BinarxError):
    """Baseline lookup failed for one or more (state, week) pairs."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        pairs = ", ".join(f"({s}, week {w})" for s, w in self.missing[:10])
        more = "" if len(self.missing) <= 10 else f" and {len(self.missing) - 10} more"
        super().__init__(f"no baseline entry for: {pairs}{more}")


class PanelCoverageError(BinarxError):
    """The rate panel is missing observations required by the evaluation window."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        pairs = ", ".join(f"({s}, {y}-W{w:02d})" for s, y, w in self.missing[:10])
        more = "" if len(self.missing) <= 10 else f" and {len(self.missing) - 10} more"
        super().__init__(f"panel has no rate for: {pairs}{more}")


class ConfigError(BinarxError, ValueError):
    """A setting out of its range, or a config that breaks the schema; `path` names the field."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")
