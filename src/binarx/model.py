"""Binomial AR(1) process with a logistic link and exogenous covariates.

The observation X_t takes values in {0, ..., n}.  Conditionally on the past,

    X_t | X_{t-1}, W_t  ~  Binomial(n, pi_t),
    logit(n * pi_t / n) = beta' z_{t-1},   z_{t-1} = (1, X_{t-1}, W_t),

where the exogenous vector W_t is i.i.d. over time, independent of past
observations, and clamped to a known bounded interval.  This module holds the
domain types, the link function, series simulation, CSV serialization, and a
small-instance stationary-distribution oracle for cross-checking simulations.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._artifacts import open_csv, write_csv
from .defaults import DEFAULT_BURN_IN, MAX_POINTS, PARAM_BOX_BOUND
from .exceptions import ConfigError

# Smallest/largest probabilities representable strictly inside (0, 1).
_PROB_FLOOR = math.nextafter(0.0, 1.0)
_PROB_CEIL = math.nextafter(1.0, 0.0)

# Clamped-normal quadrature covers mean +- this many standard deviations;
# the mass beyond it (~1e-15 per side) is folded in by renormalizing.
_QUAD_SPAN_SDS = 8.0
# Gauss-Legendre nodes per covariate coordinate in the stationary oracle.
_QUAD_NODES = 64
# Largest n whose counts are drawn as sums of n Bernoulli trials, by both
# simulators; larger n takes binomial draws.  Both are Bin(n, p) in law.
# Measured for 256 chains, the sum is the faster draw up to n = 60 for p in
# U(0.2, 0.5), to n = 40 in U(0.5, 0.8) and to n = 30 in U(0.05, 0.2).
N_MAX_BERNOULLI = 40
# Uniforms per chunk of `simulate_chain`'s Bernoulli sums (128 KB), so its
# memory does not grow with the path.  The draws do not depend on it.
_CHAIN_CHUNK_UNIFORMS = 1 << 14


@dataclass(frozen=True)
class ParamVector:
    """Coefficient vector (phi0, phi1, gamma_exo) of the link equation.

    phi0 is the intercept, phi1 the coefficient on the previous count, and
    gamma_exo the coefficients on the exogenous covariates.  All entries must
    be finite and lie in the compact box [-PARAM_BOX_BOUND, PARAM_BOX_BOUND];
    an error names the vector `beta`, its key in every config section.
    """

    phi0: float
    phi1: float
    gamma_exo: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gamma_exo", tuple(float(g) for g in self.gamma_exo))
        vals = self.as_array()
        if not np.all(np.isfinite(vals)):
            raise ConfigError("beta", f"{vals.tolist()} has non-finite entries")
        if np.any(np.abs(vals) > PARAM_BOX_BOUND):
            raise ConfigError(
                "beta", f"{vals.tolist()} leaves the box [-{PARAM_BOX_BOUND}, {PARAM_BOX_BOUND}]"
            )

    @property
    def l(self) -> int:
        return len(self.gamma_exo)

    @property
    def dim(self) -> int:
        return 2 + len(self.gamma_exo)

    def as_array(self) -> np.ndarray:
        return np.array([self.phi0, self.phi1, *self.gamma_exo], dtype=float)

    @classmethod
    def from_array(cls, values) -> "ParamVector":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ConfigError("beta", "must be a 1-d array with at least 2 entries")
        return cls(phi0=float(values[0]), phi1=float(values[1]), gamma_exo=tuple(values[2:]))


@dataclass(frozen=True)
class ExogenousSpec:
    """I.i.d. exogenous covariate distribution with clamping bounds.

    Each of the l = `ParamVector.l` coordinates is drawn independently from
    N(mean, sd^2) and clamped to [clamp_lo, clamp_hi] afterwards, which keeps
    the covariates bounded as the model requires.
    """

    mean: float = 1.0
    sd: float = 0.1
    clamp_lo: float = 0.0
    clamp_hi: float = 10.0

    def __post_init__(self):
        for name in ("mean", "clamp_lo", "clamp_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, f"must be finite, got {getattr(self, name)}")
        if not self.sd > 0:
            raise ConfigError("sd", f"must be > 0, got {self.sd}")
        if not self.clamp_lo < self.clamp_hi:
            raise ConfigError("clamp_hi", f"{self.clamp_hi} is not above clamp_lo {self.clamp_lo}")

    def draw(self, rng: np.random.Generator, size: int, l: int) -> np.ndarray:
        """Draw a (size, l) matrix of clamped covariates."""
        raw = rng.normal(self.mean, self.sd, size=(size, l))
        return np.minimum(np.maximum(raw, self.clamp_lo, out=raw), self.clamp_hi, out=raw)


@dataclass(frozen=True)
class ModelSpec:
    """Complete data-generating process: binomial total, coefficients, covariates,
    and the `burn_in` steps, at most MAX_POINTS, discarded after X0 ~ Bin(n, 1/2)."""

    n: int
    beta: ParamVector
    exo: ExogenousSpec
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n", f"binomial total must be >= 1, got {self.n}")
        if not 0 <= self.burn_in <= MAX_POINTS:
            raise ConfigError("burn_in", f"must lie in [0, {MAX_POINTS}], got {self.burn_in}")


@dataclass(frozen=True)
class SeriesSample:
    """An observed path: counts x[0..T] paired with covariate draws w[1..T].

    Row w[t-1] holds the covariate vector that influenced x[t]; x[0] has no
    covariate row.  Arrays are made read-only so samples can be shared freely.
    """

    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=np.int64))
        w = np.ascontiguousarray(np.asarray(self.w, dtype=float))
        if x.ndim != 1 or x.size < 1:
            raise ValueError("x must be a 1-d array with at least one entry")
        if w.ndim != 2 or w.shape[0] != x.size - 1:
            raise ValueError("w must be a (T, l) matrix with T = len(x) - 1")
        if np.any(x < 0):
            raise ValueError("counts must be non-negative")
        if not np.all(np.isfinite(w)):
            raise ValueError("covariates must be finite")
        x.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        """Number of observed transitions (the training length)."""
        return self.x.size - 1

    @property
    def l(self) -> int:
        return self.w.shape[1]


def _logistic_of_negated(u: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(u)) of a float array u = -eta, computed in u and returned.

    The one home of the array logistic: exp, +1 and reciprocal in place.
    Above u = 709.78, exp(u) overflows to inf and p is 0, the limit; the
    caller runs it under np.errstate(over="ignore"), once per loop.
    """
    np.exp(u, out=u)
    u += 1.0
    return np.reciprocal(u, out=u)


def logistic(eta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-eta)) of a float array, as a new array or in `out`.

    Below eta = -709.78 p is 0, the limit, and no eta raises a warning.
    numpy's vector exp may differ from the C library's in the last bit, so p
    may differ from `logistic_float` of the same eta in its last bits.
    """
    with np.errstate(over="ignore"):
        return _logistic_of_negated(np.negative(eta, out=out))


def logistic_float(eta: float) -> float:
    """1 / (1 + exp(-eta)) of one float, with the C library's exp: 0.0 where
    exp(-eta) overflows, NaN for NaN."""
    try:
        return 1.0 / (1.0 + math.exp(-eta))
    except OverflowError:
        return 0.0


def _clip_prob(p: np.ndarray) -> np.ndarray:
    """Clip an array of probabilities strictly inside (0, 1) in float64, in place."""
    return np.minimum(np.maximum(p, _PROB_FLOOR, out=p), _PROB_CEIL, out=p)


def _clamp_prob(p: float) -> float:
    """_clip_prob for one float: same bits, NaN passes through."""
    return _PROB_FLOOR if p < _PROB_FLOOR else _PROB_CEIL if p > _PROB_CEIL else p


def log_binom(n: int, x, out: np.ndarray | None = None,
              index: np.ndarray | None = None) -> np.ndarray:
    """Log binomial coefficient log C(n, x), elementwise over an array x of
    integers in 0..n.

    math.lgamma runs once per value: over a table of 0..max(x) when that is
    shorter than x, and otherwise over the distinct values of x.  `out` and
    `index`, C-contiguous float64 arrays of x's shape when given, receive the
    result and the table index (as intp) in place of new arrays.
    """
    x = np.asarray(x)
    top = int(x.max(initial=-1)) + 1
    if top < x.size:
        values = range(top)
        if index is None:
            index = x.astype(np.intp)
        else:
            index = index.view(np.intp)
            np.copyto(index, x, casting="unsafe")
    else:
        unique, index = np.unique(x, return_inverse=True)
        values = unique.tolist()
    lg, head = math.lgamma, math.lgamma(n + 1)
    table = np.array([head - lg(k + 1) - lg(n - k + 1) for k in values], dtype=float)
    # mode="clip" lets take write straight into `out`; every index is in range.
    return np.take(table, index.reshape(x.shape), out=out, mode="clip")


def simulate_chain(
    spec: ModelSpec, length: int, rng: np.random.Generator, x0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the chain `length` steps from x0 with an existing generator.

    Draws the covariate block first (one vectorized normal draw), then the
    counts.  Up to N_MAX_BERNOULLI, the path's n uniforms per step follow in
    row-major order, drawn in chunks of whole steps, and a count is the
    number of its step's n uniforms below p: `bisect_left` on the sorted
    row.  Above it, one scalar binomial draw per step, whose parameter check
    wants p clipped inside (0, 1).  Returns (x, w) with x of length
    `length` + 1.
    """
    if not 0 <= x0 <= spec.n:
        raise ValueError(f"initial state {x0} outside {{0..{spec.n}}}")
    b = spec.beta
    w = spec.exo.draw(rng, length, b.l)
    # Exogenous part of the linear predictor, precomputed for the whole path.
    offset = b.phi0 + w @ np.asarray(b.gamma_exo, dtype=float)
    n, phi1, exp, binomial = spec.n, b.phi1, math.exp, rng.binomial
    bernoulli = n <= N_MAX_BERNOULLI
    steps = max(1, _CHAIN_CHUNK_UNIFORMS // n)
    state = int(x0)
    states = [state]
    for start in range(0, length, steps):
        # A memoryview yields Python floats one at a time, without a list of all.
        offsets = memoryview(offset[start:start + steps])
        if bernoulli:
            u = rng.random((len(offsets), n))
            u.sort(axis=1)
            rows, lo = memoryview(u.reshape(-1)), 0
        for off in offsets:
            # An overflow-safe logistic.
            eta = off + phi1 * state
            if eta >= 0.0:
                p = 1.0 / (1.0 + exp(-eta))
            else:
                e = exp(eta)
                p = e / (1.0 + e)
            if bernoulli:
                state = bisect_left(rows, p, lo, lo + n) - lo
                lo += n
            else:
                state = binomial(n, _clamp_prob(p))
            states.append(state)
    return np.array(states, dtype=np.int64), w


def simulate_series(
    spec: ModelSpec,
    length: int,
    seed: int,
    init: int | None = None,
) -> SeriesSample:
    """Simulate a path of `length` transitions, deterministic given the seed.

    When `init` is given it is used as X0 directly.  Otherwise X0 is drawn
    Bin(n, 1/2) and `spec.burn_in` steps are discarded so the returned path
    starts (effectively) from the stationary law.
    """
    if length < 1:
        raise ConfigError("length", f"must be >= 1, got {length}")
    if length > MAX_POINTS:
        raise ConfigError("length", f"{length} is above the budget of {MAX_POINTS} points")
    if init is not None and not 0 <= init <= spec.n:
        raise ConfigError("init", f"initial state {init} outside {{0..{spec.n}}}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if init is None:
        x0 = int(rng.binomial(spec.n, 0.5))
        if spec.burn_in:
            xb, _ = simulate_chain(spec, spec.burn_in, rng, x0)
            x0 = int(xb[-1])
    else:
        x0 = int(init)
    x, w = simulate_chain(spec, length, rng, x0)
    return SeriesSample(x=x, w=w)


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@functools.cache
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, computed once per process."""
    gx, gw = leggauss(nodes)
    gx.setflags(write=False)
    gw.setflags(write=False)
    return gx, gw


def _coordinate_quadrature(exo: ExogenousSpec, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for one clamped-normal coordinate: points and weights.

    Gauss-Legendre nodes cover the part of [clamp_lo, clamp_hi] where the
    density lives; the clamp bounds get point masses equal to the tail
    probabilities (clamping creates atoms that plain quadrature misses).
    Weights are renormalized to sum to one exactly.
    """
    lo, hi, mean, sd = exo.clamp_lo, exo.clamp_hi, exo.mean, exo.sd
    a = max(lo, mean - _QUAD_SPAN_SDS * sd)
    b = min(hi, mean + _QUAD_SPAN_SDS * sd)
    pts = [lo, hi]
    wts = [_norm_cdf((lo - mean) / sd), 1.0 - _norm_cdf((hi - mean) / sd)]
    if a < b:
        gx, gw = _legendre(nodes)
        interior = 0.5 * (b - a) * gx + 0.5 * (b + a)
        density = np.exp(-0.5 * ((interior - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        pts = list(interior) + pts
        wts = list(0.5 * (b - a) * gw * density) + wts
    pts = np.asarray(pts, dtype=float)
    wts = np.asarray(wts, dtype=float)
    return pts, wts / wts.sum()


def _exogenous_quadrature(exo: ExogenousSpec, l: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product quadrature over l coordinates: ((Q, l) points, (Q,) weights),
    built from the empty product (one point with no coordinates, weight 1)."""
    pts1, wts1 = _coordinate_quadrature(exo, nodes)
    pts, wts = np.empty((1, 0)), np.ones(1)
    for _ in range(l):
        q = pts.shape[0]
        pts = np.hstack(
            [np.repeat(pts, pts1.size, axis=0), np.tile(pts1, q).reshape(-1, 1)]
        )
        wts = (wts[:, None] * wts1[None, :]).reshape(-1)
    return pts, wts


def stationary_oracle(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix and stationary pmf of the chain, by direct numerics.

    P[j, i] is the probability of moving from count j to count i, obtained by
    integrating the binomial transition kernel over the clamped covariate
    distribution.  The stationary pmf solves mu = mu P by Grassmann-Taksar-
    Heyman elimination, which subtracts nothing: every mass keeps its relative
    accuracy however slowly the chain mixes.  Building P costs (n+1)^2 times
    the quadrature size, (_QUAD_NODES + 2)^l, so the check below refuses
    larger models with a ValueError; it is also the exact start's domain.
    """
    n, b = spec.n, spec.beta
    if n > 30 or b.l > 2:
        raise ValueError(f"stationary_oracle runs only for n <= 30 and l <= 2, "
                         f"got n={n}, l={b.l}")
    pts, wts = _exogenous_quadrature(spec.exo, b.l, _QUAD_NODES)
    gamma = np.asarray(b.gamma_exo, dtype=float)
    counts = np.arange(n + 1)
    log_coef = log_binom(n, counts)
    P = np.empty((n + 1, n + 1), dtype=float)
    for j in range(n + 1):
        eta = b.phi0 + b.phi1 * j + pts @ gamma
        p = _clip_prob(logistic(eta))
        log_pmf = log_coef + counts * np.log(p)[:, None] + (n - counts) * np.log1p(-p)[:, None]
        P[j] = wts @ np.exp(log_pmf)
    # Censor states n, ..., 1 in turn: s[i] is the probability that the chain
    # watched on 0..i steps from i to below i, row i the law of where it lands.
    A, s = P.copy(), np.zeros(n + 1)
    for i in range(n, 0, -1):
        s[i] = A[i, :i].sum()
        A[i, :i] /= max(s[i], _PROB_FLOOR)  # all zero when s[i] is
        A[:i, :i] += np.outer(A[:i, i], A[i, :i])
    # Back-substitute mu[i] s[i] = mu[:i] @ A[:i, i], scaling mu[:i] by s[i]
    # rather than dividing by it: where P underflows, s[i] can be tiny or 0.
    # At 0 the chain never gets from i back below it, so those carry no mass.
    mu = np.ones(n + 1)  # mu[0] = 1; the loop sets the rest in order
    for i in range(1, n + 1):
        mu[i] = mu[:i] @ A[:i, i] if s[i] else 1.0
        mu[:i] *= s[i]
        mu[:i + 1] /= mu[:i + 1].max()
    return P, mu / mu.sum()


def write_series_csv(sample: SeriesSample, path) -> None:
    """Write a sample as CSV with header t,x,w1..wl; the t=0 row has empty w cells."""
    l = sample.l
    first = (0, int(sample.x[0])) + ("",) * l
    rows = ((t, int(sample.x[t]), *sample.w[t - 1]) for t in range(1, sample.x.size))
    write_csv(path, ["t", "x"] + [f"w{i + 1}" for i in range(l)], itertools.chain([first], rows))


def _count(text: str) -> int:
    """A count cell: an integer in the int64 range and >= 0, or ValueError."""
    x = int(text)
    if x < 0:
        raise ValueError(f"count {x} is negative")
    if x >= 2**63:
        raise ValueError(f"count {x} is above the int64 range")
    return x


def count_rows(reader, name: str, n_cells: int):
    """(x, w) of each non-empty row of the csv `reader`, read lazily.  The rows
    are numbered 1, 2, ... in column `name` and hold `n_cells` cells: the
    number, a count (`_count`) and float covariates (a list, not checked
    finite).  A bad row raises ValueError `row <name>=<cell>: <reason>`.
    """
    for i, row in enumerate(filter(None, reader), start=1):
        try:
            if int(row[0]) != i:
                raise ValueError(f"expected {name}={i}")
            if len(row) != n_cells:
                raise ValueError(f"expected {n_cells} cells, got {len(row)}")
            x = _count(row[1])
            w = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise ValueError(f"row {name}={row[0]}: {exc}") from None
        yield x, w


def _plain_body(body: str, l: int):
    """The rows (t, x, w) of a plain series body, parsed by numpy's C reader,
    or None for `count_rows` to read it.  Plain means: non-empty, parsed by
    np.loadtxt, t = 1, 2, ... in order, no negative count and finite
    covariates.  There numpy reads what int() and float() read (a subset of
    int()'s grammar, float()'s bits, blank lines skipped), except that it
    takes \\x1c-\\x1f for whitespace, which is refused up front.
    """
    if not body.strip() or any(c in body for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=1,
                          dtype=[("t", np.int64), ("x", np.int64), ("w", np.float64, (l,))])
    except (ValueError, IndexError, OverflowError):
        return None
    plain = (rows["t"] == np.arange(1, rows.size + 1)).all() and rows["x"].min() >= 0
    return rows if plain and np.isfinite(rows["w"]).all() else None


def read_series_csv(path) -> SeriesSample:
    """Read a sample written by write_series_csv: the header t,x,w1..wl, a
    first row with t <= 0 and a count (its other cells unread), then rows
    t = 1, 2, ... as `count_rows` reads them, with finite covariates.  A plain
    body (`_plain_body`) is parsed in C and any other by `count_rows`, to the
    same sample.  ValueError names the file and, for a bad row, its t."""
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["t", "x"]:
            raise ValueError(f"expected header t,x,w1,...  got {header!r}")
        l = len(header) - 2
        first = next(filter(None, reader), None)
        if first is None:
            raise ValueError("no rows after the header")
        try:
            if int(first[0]) > 0:
                raise ValueError("expected a first row with t <= 0")
            if len(first) < 2:
                raise ValueError(f"expected {l + 2} cells, got {len(first)}")
            x0 = _count(first[1])
        except ValueError as exc:
            raise ValueError(f"row t={first[0]}: {exc}") from None
        body = fh.read()
        rows = _plain_body(body, l)
        if rows is not None:
            counts, w = rows["x"], rows["w"]
        else:
            pairs = list(count_rows(csv.reader(io.StringIO(body, newline="")), "t", l + 2))
            counts = [x for x, _ in pairs]
            w = np.array([w for _, w in pairs], dtype=float).reshape(len(pairs), l)
            finite = np.isfinite(w).all(axis=1)
            if not finite.all():
                i = int(np.argmin(finite))
                raise ValueError(f"row t={i + 1}: covariates {w[i].tolist()} are not finite")
    x = np.concatenate((np.array([x0], dtype=np.int64), np.asarray(counts, dtype=np.int64)))
    return SeriesSample(x=x, w=w)
