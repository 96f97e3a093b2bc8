"""Maximum partial likelihood estimation for the binomial AR(1) model.

The log partial likelihood conditions on X0 and the covariates, so each
transition contributes log C(n, X_t) + X_t log pi_t + (n - X_t) log(1 - pi_t).
Its gradient has the closed form sum_t z_{t-1} (X_t - n pi_t), and the score
gradient is -n sum_t z_{t-1} z_{t-1}' pi_t (1 - pi_t).  The estimator solves
score = 0 by a damped Newton iteration.

The batched solver works on chunks of at most _CHUNK_ELEMENTS design
entries, and writes every chunk-sized array (the design, the responses,
eta, pi, residuals, weights and their temporaries) into one workspace per
thread: flat float64 buffers, one per role, grown on demand and reused by
every later fit in that thread, so repeated fits fault in no new pages.  No
buffer is kept above _CHUNK_ELEMENTS entries: a single series whose design
is larger gets new arrays for its call.  Process-pool workers each hold
their own.  No result a fit returns is a view of the workspace.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .defaults import PARAM_BOX_BOUND
from .exceptions import NonConvergenceError, SeparationError, SingularHessianError
from .model import ParamVector, SeriesSample, log_binom, logistic


# Newton solver settings.  Convergence requires the sup-norm of the score to
# fall below _TOL; the iteration also stops when the accepted step is shorter
# than _STEP_TOL.  Steps that would decrease the log partial likelihood are
# halved up to _MAX_HALVINGS times; a series whose last halving still goes
# downhill takes that step and stops.  Iterates are projected back onto the
# coordinate box [-PARAM_BOX_BOUND, PARAM_BOX_BOUND] (a boundary hit is
# reported, not fatal).  A curvature matrix with condition number above
# _COND_LIMIT counts as singular (see `_singular`).
_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITER = 100
_MAX_HALVINGS = 30
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients with curvature-based uncertainty estimates.

    `covariance` is the estimator of the limiting covariance of
    sqrt(m) (beta_hat - beta0), i.e. the inverse of the averaged negated
    score gradient; `standard_errors` divides it by the sample size for
    beta_hat itself.  `sigma0_hat` is the outer-product estimator
    sum_t G_t G_t' / m evaluated at beta_hat.  fit_mple returns one only
    for a converged fit: `final_score_norm` is below the score tolerance.
    """

    beta_hat: ParamVector
    covariance: np.ndarray
    sigma0_hat: np.ndarray
    log_pl: float
    iterations: int
    final_score_norm: float
    hit_boundary: bool
    n: int
    n_obs: int

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance) / self.n_obs)

    @property
    def aic(self) -> float:
        return 2.0 * self.beta_hat.dim - 2.0 * self.log_pl


# One Newton chunk holds at most this many design entries (reps x m x d),
# so its working arrays stay near half a megabyte whatever the block size.
_CHUNK_ELEMENTS = 1 << 16


class _Views(NamedTuple):
    """The workspace arrays for a chunk of c series, by role."""

    Z: np.ndarray  # (c, m, d): the design (_stack_design)
    y: np.ndarray  # (c, m): the responses (_stack_design)
    Za: np.ndarray  # (c, m, d): the active series' design
    Zw: np.ndarray  # (c, m, d): the weighted design (_gram)
    eta: np.ndarray  # (c, m): eta at every series' accepted beta
    ya: np.ndarray  # (c, m): the active series' responses
    pi: np.ndarray  # (c, m)
    resid: np.ndarray  # (c, m): y - n pi, then pi of the series left active
    eta_cand: np.ndarray  # (c, m): eta at the candidate beta
    s1: np.ndarray  # (c, m): temporaries
    s2: np.ndarray  # (c, m): temporaries

    def head(self, k: int) -> "_Views":
        """Views of the first k rows."""
        return self if k == len(self.eta) else _Views(*(a[:k] for a in self))


class _Workspace(threading.local):
    """The calling thread's kernel buffers: one flat float64 array per role."""

    def __init__(self):
        self.flat: dict[str, np.ndarray] = {}
        self.last: tuple = (None, None)  # (design shape, views) of the last call

    def views(self, shape: tuple) -> _Views:
        """The roles' arrays for a design of `shape`: of that shape for the
        roles named Z..., and of shape[:-1] for the others.  Each is a view
        of its role's buffer, grown to fit, or a new array when the design is
        above _CHUNK_ELEMENTS.  A call at the last shape gets the same views."""
        if shape == self.last[0]:
            return self.last[1]
        shapes = [shape if role.startswith("Z") else shape[:-1] for role in _Views._fields]
        if math.prod(shape) > _CHUNK_ELEMENTS:
            return _Views(*map(np.empty, shapes))
        arrays = []
        for role, role_shape in zip(_Views._fields, shapes):
            size = math.prod(role_shape)
            buf = self.flat.get(role)
            if buf is None or buf.size < size:
                buf = self.flat[role] = np.empty(size)
            arrays.append(buf[:size].reshape(role_shape))
        self.last = (shape, _Views(*arrays))
        return self.last[1]


_WORKSPACE = _Workspace()


def _stack_design(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Design Z (rows z_{t-1} = (1, x_{t-1}, w_t)) and responses y = x[1:] of
    one series or of stacked ones: x is (..., m + 1) and w is (..., m, l).
    Both are views of the thread's workspace (see the module docstring), so
    they hold until the thread's next _stack_design (new arrays above
    _CHUNK_ELEMENTS design entries)."""
    Z, y = _WORKSPACE.views(w.shape[:-1] + (2 + w.shape[-1],))[:2]
    Z[..., 0] = 1.0
    Z[..., 1] = x[..., :-1]
    Z[..., 2:] = w
    np.copyto(y, x[..., 1:])
    return Z, y


def _gram(Z: np.ndarray, weights: np.ndarray, wide: np.ndarray | None = None) -> np.ndarray:
    """Stacked weighted Gram matrices sum_t weights_t z_t z_t', exactly symmetric.

    Z is (k, m, d) and weights (k, m); the result is (k, d, d).  With weights
    n pi (1 - pi) it is the negated score gradient, with squared residuals
    m times the outer-product score covariance.  `wide`, Z's shape, holds the
    weighted design when given.
    """
    M = np.matmul(np.swapaxes(Z, 1, 2), np.multiply(Z, weights[:, :, None], out=wide))
    return 0.5 * (M + np.swapaxes(M, 1, 2))


def inverse_metric(sigma0) -> np.ndarray:
    """Symmetrized inverse of a matrix over any leading batch axes: the
    covariance H^{-1} of a fit, and the metric A = Sigma0^{-1} of the
    monitoring statistic, the only metric threshold tables are calibrated for."""
    A = np.linalg.inv(sigma0)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


# The likelihood kernel.  Each helper works on c stacked series: Z is
# (c, m, d), y, eta, pi and resid are (c, m), beta is (c, d).  The optional
# trailing arrays are (c, m) (or Z's shape) and take the helper's output and
# temporaries in place of new arrays; each helper runs the same ufuncs in the
# same order either way, so the bits do not depend on them.

def _log_coef(y: np.ndarray, spec_n: int, index=None, terms=None) -> np.ndarray:
    """sum_t log C(n, y_t) of each series."""
    return np.sum(log_binom(spec_n, y, terms, index), axis=1)


def _log_pl(Z, y, log_coef, beta, spec_n: int, eta=None, soft=None,
            tmp=None) -> tuple[np.ndarray, np.ndarray]:
    """Log partial likelihood of each series at its beta, and eta = Z beta.
    `log_coef` is `_log_coef(y, n)`: the binomial coefficients stay in, so
    values compare across models of the same data (as AIC needs)."""
    eta = np.matmul(Z, beta[:, :, None], out=None if eta is None else eta[:, :, None])[:, :, 0]
    # log(1 + e^eta) as max(eta, 0) + log1p(e^-|eta|): np.logaddexp(0, eta)'s
    # formula, in ufuncs that run several times faster.
    soft = np.abs(eta, out=soft)
    np.negative(soft, out=soft)
    np.log1p(np.exp(soft, out=soft), out=soft)
    tmp = np.maximum(eta, 0.0, out=tmp)
    soft += tmp
    np.multiply(y, eta, out=tmp)
    soft *= spec_n
    tmp -= soft
    return log_coef + np.sum(tmp, axis=1), eta


def _residual(y, pi, spec_n: int, out=None) -> np.ndarray:
    """y - n pi."""
    return np.subtract(y, np.multiply(spec_n, pi, out=out), out=out)


def _score(Z, resid) -> np.ndarray:
    """Score sum_t z_{t-1} resid_t of each series, with resid = y - n pi."""
    return np.matmul(np.swapaxes(Z, 1, 2), resid[:, :, None])[:, :, 0]


def _curvature(Z, pi, spec_n: int, weights=None, spare=None, wide=None) -> np.ndarray:
    """Negated score gradient n sum_t z_{t-1} z_{t-1}' pi_t (1 - pi_t)."""
    weights = np.multiply(spec_n, pi, out=weights)
    weights *= np.subtract(1.0, pi, out=spare)
    return _gram(Z, weights, wide)


def _singular(H: np.ndarray) -> np.ndarray:
    """Which of the stacked symmetric H count as singular: condition number
    above _COND_LIMIT, read from the eigenvalues (an SVD costs twice as much).
    H is positive semi-definite up to rounding, so an eigenvalue <= 0 is a
    zero one and its condition number is infinite."""
    lam = np.linalg.eigvalsh(H)
    return (lam[:, 0] <= 0.0) | (lam[:, -1] > _COND_LIMIT * lam[:, 0])


@dataclass(frozen=True)
class BatchFit:
    """Per-replication outcome of the batched Newton solve over c series.

    Arrays are indexed by replication.  `errors[i]` is None when series i was
    fitted, and otherwise the exception fit_mple raises on series i alone
    (SeparationError, SingularHessianError or NonConvergenceError); the
    numeric fields of a failed replication carry no meaning.
    """

    beta: np.ndarray  # (c, d)
    covariance: np.ndarray  # (c, d, d)
    sigma0: np.ndarray  # (c, d, d)
    log_pl: np.ndarray  # (c,)
    iterations: np.ndarray  # (c,)
    final_score_norm: np.ndarray  # (c,)
    hit_boundary: np.ndarray  # (c,) bool
    errors: tuple

    @property
    def ok(self) -> np.ndarray:
        return np.array([e is None for e in self.errors], dtype=bool)


def _rows(a: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a[index] for increasing indices: a itself when they are every row, and
    otherwise written into `out` (memory apart from a's).  mode="clip" lets
    take write there directly; every index is in range."""
    if index.size == len(a):
        return a
    return np.take(a, index, axis=0, out=out, mode="clip")


def _active(Z, y, act, ws: _Views) -> tuple[_Views, np.ndarray, np.ndarray]:
    """The views of act.size rows, and the design and responses of the
    series in `act`."""
    v = ws.head(act.size)
    return v, _rows(Z, act, v.Za), _rows(y, act, v.ya)


def _newton(Z: np.ndarray, y: np.ndarray, spec_n: int) -> BatchFit:
    """Damped Newton from beta = 0 for each of the c stacked series at once.

    Z is (c, m, d) and y is (c, m).  Every replication keeps its own
    convergence, step-halving, box and condition-limit state; a replication
    leaves the active set when it converges, stalls (a step below _STEP_TOL,
    or one that no halving takes uphill), or fails.  While fewer than c
    series are active, their rows of Z and y are copied into the workspace.
    """
    c, m, d = Z.shape
    ws = _WORKSPACE.views(Z.shape)
    errors: list = [None] * c
    log_coef = _log_coef(y, spec_n, ws.s1, ws.s2)
    for i in np.nonzero(np.all(y == 0, axis=1) | np.all(y == spec_n, axis=1))[0]:
        errors[i] = SeparationError("all responses at the same boundary; the MPLE diverges")
    beta = np.zeros((c, d))
    lp, eta = _log_pl(Z, y, log_coef, beta, spec_n, ws.eta, ws.s1, ws.s2)
    iterations = np.zeros(c, dtype=int)
    hit_boundary = np.zeros(c, dtype=bool)
    act = np.array([i for i, e in enumerate(errors) if e is None], dtype=int)
    for it in range(1, _MAX_ITER + 1):
        if act.size == 0:
            break
        v, Za, ya = _active(Z, y, act, ws)
        pi = logistic(_rows(eta, act, v.s1), v.pi)
        g = _score(Za, _residual(ya, pi, spec_n, v.resid))
        done = np.abs(g).max(axis=1) < _TOL
        iterations[act] = np.where(done, it - 1, it)
        if done.any():
            keep = ~done
            act, g = act[keep], g[keep]
            if act.size == 0:
                break
            v, Za, ya = _active(Z, y, act, ws)
            pi = _rows(pi, np.flatnonzero(keep), v.resid)
        H = _curvature(Za, pi, spec_n, v.s1, v.s2, v.Zw)
        singular = _singular(H)
        for i in act[singular]:
            errors[i] = SingularHessianError(
                f"negated score gradient has condition number above {_COND_LIMIT:g}"
            )
        if singular.any():
            keep = ~singular
            act, H, g = act[keep], H[keep], g[keep]
            if act.size == 0:
                break
            v, Za, ya = _active(Z, y, act, ws)
        step = np.linalg.solve(H, g[:, :, None])[:, :, 0]
        # Step-halving: the full step on every active series first, then
        # halved steps wherever the log PL would decrease, down to 2^-30.
        # Each trial scores every active series; one whose scale is kept has
        # the same candidate, so its log PL and eta keep their bits.
        b0, lp0, lc = beta[act], lp[act], log_coef[act]
        floor = lp0 - 1e-10 * (1.0 + np.abs(lp0))
        scale = np.ones(act.size)
        todo = np.zeros(act.size, dtype=bool)
        for _ in range(1 + _MAX_HALVINGS):
            scale[todo] *= 0.5
            trial = b0 + scale[:, None] * step
            cand = np.clip(trial, -PARAM_BOX_BOUND, PARAM_BOX_BOUND)
            lp_cand, eta_cand = _log_pl(Za, ya, lc, cand, spec_n, v.eta_cand, v.s1, v.s2)
            todo = lp_cand < floor
            if not todo.any():
                break
        hit_boundary[act] |= np.any(cand != trial, axis=1)
        stalled = todo | (np.abs(cand - b0).max(axis=1) < _STEP_TOL)
        beta[act], lp[act], eta[act] = cand, lp_cand, eta_cand
        act = act[~stalled]

    pi = logistic(eta, ws.pi)
    resid = _residual(y, pi, spec_n, ws.resid)
    final_norm = np.abs(_score(Z, resid)).max(axis=1)
    for i in np.nonzero(final_norm >= _TOL)[0]:
        if errors[i] is None:
            errors[i] = NonConvergenceError(
                f"score norm {final_norm[i]:.3e} above tolerance {_TOL:g} "
                f"after {iterations[i]} iterations"
            )
    H = _curvature(Z, pi, spec_n, ws.s1, ws.s2, ws.Zw)
    live = np.array([e is None for e in errors], dtype=bool)
    for i in np.flatnonzero(live)[_singular(H[live])]:
        errors[i] = SingularHessianError("curvature matrix singular at the optimum")
        live[i] = False
    covariance = np.full((c, d, d), np.nan)
    covariance[live] = inverse_metric(H[live] / m)
    sigma0 = _gram(Z, np.square(resid, out=resid), ws.Zw) / m
    return BatchFit(
        beta=beta,
        covariance=covariance,
        sigma0=sigma0,
        log_pl=lp,
        iterations=iterations,
        final_score_norm=final_norm,
        hit_boundary=hit_boundary,
        errors=tuple(errors),
    )


def fit_mple_batch(x: np.ndarray, w: np.ndarray, spec_n: int) -> BatchFit:
    """Fit c series of equal length at once: x is (c, m + 1), w is (c, m, l).

    Row i gives the same result as fit_mple on SeriesSample(x[i], w[i]),
    with its failure reported in `errors[i]` instead of raised.  The batch is
    solved in chunks of at most _CHUNK_ELEMENTS design entries, so memory
    does not grow with c.  Inputs are trusted: counts in {0..n}, finite
    covariates, m >= d + 1.
    """
    c, m = x.shape[0], x.shape[1] - 1
    chunk = max(1, _CHUNK_ELEMENTS // (m * (2 + w.shape[2])))
    parts = [_newton(*_stack_design(x[lo:lo + chunk], w[lo:lo + chunk]), spec_n)
             for lo in range(0, c, chunk)]
    if len(parts) == 1:  # every fit_mple call: return it without copying
        return parts[0]
    return BatchFit(
        **{f.name: np.concatenate([getattr(p, f.name) for p in parts])
           for f in fields(BatchFit) if f.name != "errors"},
        errors=sum((p.errors for p in parts), ()),
    )


def fit_mple(series: SeriesSample, spec_n: int) -> FitResult:
    """Maximize the partial likelihood by damped Newton iteration from beta = 0.

    Raises SeparationError when every response sits at the same boundary
    (0 or n), SingularHessianError on a numerically singular curvature
    matrix, and NonConvergenceError when the score tolerance is not reached
    within the iteration budget.  It checks the series, then fits it as
    fit_mple_batch's batch of one.
    """
    m, d = series.m, 2 + series.l
    if m < 1:
        raise ValueError("series has no transitions")
    if (top := series.x.max()) > spec_n:
        raise ValueError(f"count {top} above n={spec_n}")
    if m < d + 1:
        raise ValueError(f"need at least {d + 1} transitions to fit {d} coefficients, got {m}")
    fit = fit_mple_batch(series.x[None], series.w[None], spec_n)
    if fit.errors[0] is not None:
        raise fit.errors[0]
    return FitResult(
        beta_hat=ParamVector.from_array(fit.beta[0]),
        covariance=fit.covariance[0],
        sigma0_hat=fit.sigma0[0],
        log_pl=float(fit.log_pl[0]),
        iterations=int(fit.iterations[0]),
        final_score_norm=float(fit.final_score_norm[0]),
        hit_boundary=bool(fit.hit_boundary[0]),
        n=spec_n,
        n_obs=m,
    )


def fit_report(fit: FitResult) -> dict:
    """JSON-ready summary of a fit: its fields, its standard errors and its AIC."""
    report = {f.name: getattr(fit, f.name) for f in fields(fit)}
    report.update(beta_hat=fit.beta_hat.as_array(), standard_errors=fit.standard_errors(),
                  aic=fit.aic)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in report.items()}
