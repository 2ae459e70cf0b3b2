"""Fig. 7 — per-tile sort-order differences between consecutive frames.

Temporal-similarity motivation: at the 99th percentile a Gaussian shifts by
only tens of positions out of the thousands in its tile.
"""

from __future__ import annotations

import numpy as np

from ..scene.datasets import TANKS_AND_TEMPLES
from .engine import ExperimentPlan
from .runner import ExperimentResult, get_workload_model

NUM_FRAMES = 6

#: Dense capture: order displacement needs fine rank resolution.
CAPTURE_GAUSSIANS = 20000

PERCENTILES = (90, 95, 99)

DESCRIPTION = "Sort-order difference percentiles between consecutive frames"


def plan(
    scenes=TANKS_AND_TEMPLES,
    resolution: str = "qhd",
    tile_size: int = 64,
    num_frames: int = NUM_FRAMES,
    num_gaussians: int = CAPTURE_GAUSSIANS,
) -> ExperimentPlan:
    """No simulation cells: the work is per-scene workload capture."""

    def aggregate(_cells) -> ExperimentResult:
        result = ExperimentResult(name="fig07", description=DESCRIPTION)
        for scene in scenes:
            wm = get_workload_model(scene, num_frames=num_frames, num_gaussians=num_gaussians)
            diffs = np.concatenate(
                [
                    wm.order_differences(frame, resolution, tile_size)
                    for frame in range(1, wm.num_frames)
                ]
            )
            workload = wm.frame_workload(1, resolution, tile_size)
            row = {"scene": scene, "mean_occupancy": workload.mean_occupancy}
            for p in PERCENTILES:
                row[f"p{p}"] = float(np.percentile(diffs, p))
            row["p99_relative"] = row["p99"] / max(workload.mean_occupancy, 1.0)
            result.rows.append(row)
        return result

    return ExperimentPlan("fig07", DESCRIPTION, (), aggregate)
