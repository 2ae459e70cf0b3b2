"""Fig. 6 — CDF of the per-tile shared-Gaussian proportion.

Temporal-similarity motivation: across the six scenes, over 90 % of tiles
retain more than ~78 % of their Gaussians from the previous frame.
"""

from __future__ import annotations

import numpy as np

from ..scene.datasets import TANKS_AND_TEMPLES
from .engine import ExperimentPlan
from .runner import ExperimentResult, get_workload_model

#: Frames pooled per scene for the CDF.
NUM_FRAMES = 8

#: Denser functional capture so per-tile fractions are well resolved.
CAPTURE_GAUSSIANS = 12000

DESCRIPTION = "CDF of per-tile shared-Gaussian proportion between frames"


def plan(
    scenes=TANKS_AND_TEMPLES,
    resolution: str = "qhd",
    tile_size: int = 64,
    num_frames: int = NUM_FRAMES,
    num_gaussians: int = CAPTURE_GAUSSIANS,
) -> ExperimentPlan:
    """No simulation cells: the work is per-scene workload capture."""

    def aggregate(_cells) -> ExperimentResult:
        result = ExperimentResult(name="fig06", description=DESCRIPTION)
        for scene in scenes:
            wm = get_workload_model(scene, num_frames=num_frames, num_gaussians=num_gaussians)
            fractions = np.concatenate(
                [
                    wm.shared_fraction_per_tile(frame, resolution, tile_size)
                    for frame in range(1, wm.num_frames)
                ]
            )
            result.rows.append(
                {
                    "scene": scene,
                    "tiles": int(fractions.shape[0]),
                    "median_shared": float(np.median(fractions)),
                    "p10_shared": float(np.percentile(fractions, 10)),
                    "tiles_retaining_78pct": float(np.mean(fractions >= 0.78)),
                }
            )
        return result

    return ExperimentPlan("fig06", DESCRIPTION, (), aggregate)
