"""Property tests: what a writer writes, its reader reads back bit for bit,
and the streaming monitor's state follows from its stream alone."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from binarx import (
    ModelSpec,
    ParamVector,
    default_model_spec,
    monitor_init,
    monitor_update,
    read_series_csv,
    read_threshold_table,
    simulate_series,
)
from binarx.calibration import ThresholdTable, write_threshold_table
from binarx.model import ExogenousSpec, SeriesSample, write_series_csv
from binarx._artifacts import cell, write_csv
from series_reference import outcome, read_series_rows
from streaming_reference import score_step, statistic

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


@st.composite
def series_samples(draw):
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 25))
    l = draw(st.integers(0, 3))
    x = draw(arrays(np.int64, m + 1, elements=st.integers(0, n)))
    w = draw(arrays(np.float64, (m, l), elements=FINITE))
    return SeriesSample(x=x, w=w)


@settings(max_examples=80, deadline=None)
@given(sample=series_samples())
def test_series_csv_round_trip_is_exact(tmp_path_factory, sample):
    path = tmp_path_factory.mktemp("series") / "series.csv"
    write_series_csv(sample, path)
    back = read_series_csv(path)
    np.testing.assert_array_equal(back.x, sample.x)
    assert back.w.shape == sample.w.shape
    assert _bits(back.w) == _bits(sample.w)


# Text a mutated cell may hold: the characters of numbers, the separators
# the two parsers may read differently, and whole tokens of both grammars.
CELL_TEXT = st.lists(st.sampled_from(list("0123456789+-.eE_ \t\"#,\r\n") + [
    "\x1f", "\xa0", "\uff15", "nan", "inf", "0x1p3", "1e400", "99999999999999999999"]),
    max_size=6).map("".join)


@settings(max_examples=150, deadline=None)
@given(sample=series_samples(), data=st.data())
def test_series_csv_mutated_cell_reads_as_row_loop(tmp_path_factory, sample, data):
    path = tmp_path_factory.mktemp("series") / "series.csv"
    write_series_csv(sample, path)
    lines = path.read_text().split("\r\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(",")
    j = data.draw(st.integers(0, len(cells) - 1))
    cells[j] = data.draw(CELL_TEXT)
    lines[i] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode())
    assert outcome(read_series_csv, path) == outcome(read_series_rows, path)


@st.composite
def threshold_tables(draw):
    gammas = draw(st.lists(FINITE, min_size=1, max_size=3, unique=True))
    alphas = draw(st.lists(FINITE, min_size=1, max_size=4, unique=True))
    # A table refuses a c that is not > 0 and an N that is not finite and > 0,
    # neither of which a calibration writes.
    entries = {(g, a): draw(POSITIVE) for g in gammas for a in alphas}
    return ThresholdTable(
        entries=entries,
        reps=draw(st.integers(100, 10**6)),
        grid_m=draw(st.integers(100, 10**5)),
        horizon=draw(POSITIVE),
        master_seed=draw(st.integers(0, 2**63)),
    )


@settings(max_examples=80, deadline=None)
@given(table=threshold_tables())
def test_threshold_table_round_trip_is_exact(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "thresholds.csv"
    write_threshold_table(table, path)
    back = read_threshold_table(path)

    def cells(t):
        return sorted((float(g).hex(), float(a).hex(), float(c).hex())
                      for (g, a), c in t.entries.items())

    assert cells(back) == cells(table)
    assert (back.reps, back.grid_m, back.master_seed) == (table.reps, table.grid_m,
                                                           table.master_seed)
    assert float(back.horizon).hex() == float(table.horizon).hex()


@given(value=FINITE)
def test_cell_rule_round_trips_every_finite_float64(value):
    assert float(cell(value)).hex() == value.hex()
    assert float(cell(np.float64(value))).hex() == value.hex()


@settings(max_examples=50, deadline=None)
@given(floats=st.lists(FINITE, min_size=1, max_size=12),
       ints=st.lists(st.integers(-10**12, 10**12), max_size=4),
       flag=st.booleans())
def test_write_csv_cells_read_back(tmp_path_factory, floats, ints, flag):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    row = [*floats, *ints, flag]
    write_csv(path, [f"c{i}" for i in range(len(row))], [row])
    with open(path, newline="") as fh:
        header, back = list(csv.reader(fh))
    assert len(header) == len(back) == len(row)
    assert _bits([float(v) for v in back[: len(floats)]]) == _bits(floats)
    assert [int(v) for v in back[len(floats):-1]] == ints
    assert back[-1] == str(flag)


# ---------------------------------------------------------------------------
# The streaming monitor

SPEC = default_model_spec()
TRAINING = simulate_series(SPEC, 100, seed=61)
COUNTS = st.integers(0, SPEC.n)
COVARIATES = st.floats(-10.0, 10.0)
INVALID = st.sampled_from([(-1, [1.0]), (SPEC.n + 1, [1.0]), (2.5, [1.0]), (3, [np.nan]),
                          (3, [np.inf]), (3, [1.0, 0.5]), (3, [])])


def _snapshot(state):
    return (state.k, _bits(state.running_sum), list(state.statistic_history), state.x_prev,
            state.alarm_at)


@settings(max_examples=60, deadline=None)
@given(stream=st.lists(st.tuples(COUNTS, COVARIATES), min_size=1, max_size=40),
       gamma=st.floats(0.0, 0.49), bad=INVALID, at=st.integers(0, 40))
def test_monitor_state_is_recomputable_from_its_stream(stream, gamma, bad, at):
    """running_sum and every statistic follow from the stream alone, and an
    invalid observation anywhere leaves the monitor as it was."""
    state = monitor_init(TRAINING, SPEC.n, horizon=3.0, gamma=gamma, alpha=0.05,
                         threshold_source=math.inf)
    A, m = state.config.a_matrix, state.config.m
    S = np.zeros(3)
    x_prev = int(TRAINING.x[-1])
    for k, (x, w) in enumerate(stream, start=1):
        if k - 1 == min(at, len(stream) - 1):
            before = _snapshot(state)
            with pytest.raises(ValueError, match=rf"k={k}\b"):
                monitor_update(state, bad[0], np.array(bad[1]))
            assert _snapshot(state) == before
        monitor_update(state, x, np.array([w]))
        S = score_step(S, state.beta_hat, SPEC.n, x_prev, x, np.array([w]))
        x_prev = x
        assert _bits(state.running_sum) == _bits(S)
        assert state.statistic_history[k - 1] == statistic(m, k, gamma, A, S)
    assert state.k == len(stream) and state.alarm_at is None


# d = 2 and d = 4: the products and the regressor at the other shapes a model takes.
OTHER_DIMS = {l: (spec, simulate_series(spec, 100, seed=61)) for l, spec in (
    (0, ModelSpec(n=10, beta=ParamVector(-1.0, 0.3), exo=ExogenousSpec())),
    (2, ModelSpec(n=10, beta=ParamVector(-1.0, 0.1, (0.4, -0.3)),
                  exo=ExogenousSpec(mean=2.0, sd=1.5))),
)}


@pytest.mark.parametrize("l", sorted(OTHER_DIMS), ids=lambda l: f"l={l}")
@settings(max_examples=60, deadline=None)
@given(data=st.data(), gamma=st.floats(0.0, 0.49))
def test_monitor_state_is_recomputable_at_every_dimension(l, data, gamma):
    spec, training = OTHER_DIMS[l]
    stream = data.draw(st.lists(st.tuples(st.integers(0, spec.n),
                                          st.lists(COVARIATES, min_size=l, max_size=l)),
                                min_size=1, max_size=40))
    state = monitor_init(training, spec.n, horizon=3.0, gamma=gamma, alpha=0.05,
                         threshold_source=math.inf)
    A, m = state.config.a_matrix, state.config.m
    S = np.zeros(2 + l)
    x_prev = int(training.x[-1])
    for k, (x, w) in enumerate(stream, start=1):
        monitor_update(state, x, np.array(w))
        S = score_step(S, state.beta_hat, spec.n, x_prev, x, np.array(w))
        x_prev = x
        assert _bits(state.running_sum) == _bits(S)
        assert _bits(state.statistic_history[k - 1:k]) == _bits([statistic(m, k, gamma, A, S)])
    assert state.k == len(stream) and state.alarm_at is None
