"""Reference kernel: the machine's speed, read beside the program's calls.

The shared host this benchmark was built on runs Python-and-small-numpy code
up to 2x slower for minutes at a time (README.md, "Noise").  The kernel
below is the benchmark's own fixed code of the same kind as binarx's inner
loops: a scalar chain of exp and binomial draws, then one vectorized
cumulative-sum pass.  It is timed between the program's calls; its mean
time over a run, divided by REF_NOMINAL_US, is the run's slowdown factor.
The kernel imports nothing from binarx, so a change to the program cannot
move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on the reference machine when the host is quiet (the
# fast state of README.md, "Noise"); a constant, so that normalized figures
# of different runs and commits share one scale.
REF_NOMINAL_US = 350.0
SAMPLES = 5  # kernel runs per timing window

_rng = np.random.default_rng(12345)
_W = np.clip(_rng.normal(1.0, 0.1, 150), 0.0, 10.0)
_B = np.ones((3000, 3))


def kernel() -> float:
    rng = np.random.default_rng(7)
    x = 5
    for w in _W:
        p = 1.0 / (1.0 + np.exp(-(-1.0 + 0.1 * x + 0.4 * w)))
        x = int(rng.binomial(10, p))
    s = np.cumsum(_B * rng.standard_normal((_B.shape[0], 1)), axis=0)
    return x + float(np.einsum("kd,kd->k", s, s).max())


def sample(times_us: list) -> None:
    """Run the kernel SAMPLES times, appending each time in microseconds.
    One untimed pass comes first, so that every timed pass runs warm."""
    kernel()
    for _ in range(SAMPLES):
        t = perf_counter()
        kernel()
        times_us.append((perf_counter() - t) * 1e6)


def slowdown(times_us: list) -> float:
    """The run's slowdown factor: mean kernel time / REF_NOMINAL_US.

    The mean, not a median, because the program's whole-run rate it
    corrects is a mean over the same stretch of time.
    """
    return sum(times_us) / len(times_us) / REF_NOMINAL_US if times_us else 1.0
