"""Fig. 9 — fixed vs. interleaved chunk boundaries in partial sorting.

The illustrative study behind Dynamic Partial Sorting: with fixed chunk
boundaries, elements can never cross a boundary no matter how many
iterations run; interleaving the boundaries by half a chunk lets every
element migrate to its global position within a few iterations.
"""

from __future__ import annotations

import numpy as np

from ..core.dynamic_partial_sort import (
    chunk_ranges,
    dynamic_partial_sort,
    max_displacement,
    sortedness,
)
from .engine import ExperimentPlan
from .runner import ExperimentResult

DESCRIPTION = "Fixed vs interleaved chunk boundaries: convergence of partial sorting"


def _fixed_boundary_pass(keys: np.ndarray, values: np.ndarray, chunk: int):
    """One partial-sort pass with never-moving chunk boundaries."""
    keys = keys.copy()
    values = values.copy()
    for start, end in chunk_ranges(keys.shape[0], chunk, iteration=1):
        order = np.argsort(keys[start:end], kind="stable")
        keys[start:end] = keys[start:end][order]
        values[start:end] = values[start:end][order]
    return keys, values


def plan(
    length: int = 512,
    chunk_size: int = 64,
    iterations: int = 8,
    shuffle_distance: int = 96,
    seed: int = 7,
) -> ExperimentPlan:
    """No simulation cells: a pure numpy convergence study.

    Starts from a locally-perturbed permutation (each element within
    ``shuffle_distance`` of its sorted position, like a mildly-stale Gaussian
    table) and reports sortedness / maximum displacement per iteration.
    """

    def aggregate(_cells) -> ExperimentResult:
        rng = np.random.default_rng(seed)
        keys = np.arange(length, dtype=np.float64)
        perturbed = keys + rng.uniform(-shuffle_distance, shuffle_distance, size=length)
        order = np.argsort(perturbed, kind="stable")
        start_keys = keys[order]
        values = np.arange(length, dtype=np.int64)[order]

        result = ExperimentResult(name="fig09", description=DESCRIPTION)

        fixed_keys, fixed_vals = start_keys.copy(), values.copy()
        inter_keys, inter_vals = start_keys.copy(), values.copy()
        result.rows.append(
            {
                "iteration": 0,
                "fixed_sortedness": sortedness(fixed_keys),
                "fixed_max_disp": max_displacement(fixed_keys),
                "interleaved_sortedness": sortedness(inter_keys),
                "interleaved_max_disp": max_displacement(inter_keys),
            }
        )
        for iteration in range(1, iterations + 1):
            fixed_keys, fixed_vals = _fixed_boundary_pass(fixed_keys, fixed_vals, chunk_size)
            inter_keys, inter_vals, _ = dynamic_partial_sort(
                inter_keys, inter_vals, iteration=iteration, chunk_size=chunk_size
            )
            result.rows.append(
                {
                    "iteration": iteration,
                    "fixed_sortedness": sortedness(fixed_keys),
                    "fixed_max_disp": max_displacement(fixed_keys),
                    "interleaved_sortedness": sortedness(inter_keys),
                    "interleaved_max_disp": max_displacement(inter_keys),
                }
            )
        return result

    return ExperimentPlan("fig09", DESCRIPTION, (), aggregate)
