"""Fig. 15 — end-to-end throughput of Orin AGX, GSCore (16-core) and Neo.

The headline result: Neo outperforms the GPU by ~5/7/10x and GSCore by
~1.8/3.3/5.6x at HD/FHD/QHD, and sustains ~99 FPS at QHD — real-time at
AR/VR resolution on edge bandwidth.
"""

from __future__ import annotations

import numpy as np

from ..scene.datasets import TANKS_AND_TEMPLES
from .engine import ExperimentPlan, SimJob
from .runner import ExperimentResult

RESOLUTIONS = ("hd", "fhd", "qhd")
SYSTEMS = ("orin", "gscore", "neo")

DESCRIPTION = "End-to-end throughput (FPS): Orin AGX vs GSCore vs Neo"


def plan(scenes=TANKS_AND_TEMPLES, num_frames: int | None = None) -> ExperimentPlan:
    """Declare the (resolution, scene, system) grid for the headline figure."""
    cells = tuple(
        SimJob(system, scene, resolution, frames=num_frames)
        for resolution in RESOLUTIONS
        for scene in scenes
        for system in SYSTEMS
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(name="fig15", description=DESCRIPTION)
        for resolution in RESOLUTIONS:
            per_system: dict[str, list[float]] = {s: [] for s in SYSTEMS}
            for scene in scenes:
                row = {"scene": scene, "resolution": resolution}
                for system in SYSTEMS:
                    fps = reports[SimJob(system, scene, resolution, frames=num_frames)].fps
                    row[system] = fps
                    per_system[system].append(fps)
                result.rows.append(row)
            mean_row = {"scene": "MEAN", "resolution": resolution}
            for system in SYSTEMS:
                mean_row[system] = float(np.mean(per_system[system]))
            result.rows.append(mean_row)
        return result

    return ExperimentPlan("fig15", DESCRIPTION, cells, aggregate)


def speedups(result: ExperimentResult) -> dict[str, dict[str, float]]:
    """Neo's mean speedup over each baseline per resolution."""
    out: dict[str, dict[str, float]] = {}
    for resolution in RESOLUTIONS:
        mean = result.filter(scene="MEAN", resolution=resolution)[0]
        out[resolution] = {
            "vs_orin": mean["neo"] / mean["orin"],
            "vs_gscore": mean["neo"] / mean["gscore"],
            "neo_fps": mean["neo"],
        }
    return out
