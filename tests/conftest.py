"""Fixtures shared by several test modules."""

import importlib.util
from pathlib import Path

import pytest

from binarx import CalibrationConfig, threshold_table
from binarx.defaults import DEFAULT_SEED


@pytest.fixture(scope="session")
def table10k():
    """The criterion-05 table: 10,000 replications at N = 3, grid 1000, d = 3."""
    config = CalibrationConfig(
        dim=3,
        reps=10_000,
        grid_m=1000,
        horizon=3.0,
        gammas=(0.0, 0.25, 0.4),
        alphas=(0.1, 0.05, 0.025, 0.01),
        master_seed=DEFAULT_SEED,
    )
    return threshold_table(config)


@pytest.fixture(scope="session")
def golden_digests():
    """tools/golden_digests.py, loaded as a module: its workflows and their digests."""
    path = Path(__file__).resolve().parents[1] / "tools" / "golden_digests.py"
    spec = importlib.util.spec_from_file_location("golden_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
