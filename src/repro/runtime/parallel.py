"""Process-parallel fan-out: an order-preserving task map.

:func:`parallel_map` is the map
:func:`~repro.experiments.engine.execute_cells` fans cache-miss cells out
through, for figures and sweeps alike; its merge is deterministic.
"""

from __future__ import annotations

import multiprocessing


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, shares the loaded scene pages); else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def parallel_map(func, tasks: list, jobs: int) -> list:
    """Order-preserving map of a picklable function over a task list.

    The fan-out primitive behind the engine's cell batches: ``jobs <= 1``
    (or a single task) runs in-process, anything else goes through a
    :mod:`multiprocessing` pool sized to ``min(jobs, len(tasks))``.  Results
    always come back in task order regardless of completion order, so
    callers' merges stay deterministic.  Workers take one task at a time:
    task costs vary by orders of magnitude, and a batch of the costly ones
    would otherwise land on one worker.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [func(task) for task in tasks]
    ctx = _mp_context()
    with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(func, tasks, chunksize=1)
