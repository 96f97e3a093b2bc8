"""Deterministic work pools.

Every task derives its own RNG stream from (master_seed, indices), so
splitting work across processes changes wall time but never results: outputs
are collected in task order regardless of the worker count.  A task is one
calibration replication or one experiment block of replications.
"""

from __future__ import annotations

import os
from functools import partial


def map_over_reps(worker, shared, n_tasks: int, threads: int = 1) -> list:
    """Evaluate worker(shared, i) for i = 0..n_tasks-1, in order.

    `threads` <= 1 runs serially; otherwise a process pool is used (the
    worker must be a module-level function and `shared` picklable).  The
    pool has at most one worker per task and per CPU.
    """
    fn = partial(worker, shared)
    if threads <= 1 or n_tasks <= 1:
        return [fn(i) for i in range(n_tasks)]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(threads, n_tasks, os.cpu_count() or 1)
    chunk = max(1, n_tasks // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_tasks), chunksize=chunk))
