"""Fig. 16 — DRAM traffic for 60 QHD frames: Orin AGX vs GSCore vs Neo.

Neo reduces total DRAM traffic by ~94 % vs the GPU and ~81 % vs GSCore,
which is what lets it run at full speed under a 51.2 GB/s edge budget.
"""

from __future__ import annotations

import numpy as np

from ..scene.datasets import TANKS_AND_TEMPLES
from .engine import ExperimentPlan, SimJob
from .runner import PAPER_TRAFFIC_FRAMES, ExperimentResult

SYSTEMS = ("orin", "gscore", "neo")

DESCRIPTION = "DRAM traffic (GB / 60 frames) at QHD: Orin vs GSCore vs Neo"


def plan(
    scenes=TANKS_AND_TEMPLES,
    resolution: str = "qhd",
    num_frames: int | None = None,
) -> ExperimentPlan:
    """Declare the (scene, system) grid for the traffic comparison."""
    cells = tuple(
        SimJob(system, scene, resolution, frames=num_frames)
        for scene in scenes
        for system in SYSTEMS
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(name="fig16", description=DESCRIPTION)
        per_system: dict[str, list[float]] = {s: [] for s in SYSTEMS}
        for scene in scenes:
            row = {"scene": scene}
            for system in SYSTEMS:
                report = reports[SimJob(system, scene, resolution, frames=num_frames)]
                gb = report.traffic_gb_for(PAPER_TRAFFIC_FRAMES)
                row[system] = gb
                per_system[system].append(gb)
            result.rows.append(row)
        result.rows.append(
            {"scene": "MEAN", **{s: float(np.mean(v)) for s, v in per_system.items()}}
        )
        return result

    return ExperimentPlan("fig16", DESCRIPTION, cells, aggregate)


def reductions(result: ExperimentResult) -> dict[str, float]:
    """Neo's mean traffic reduction vs each baseline."""
    mean = result.filter(scene="MEAN")[0]
    return {
        "vs_orin": 1.0 - mean["neo"] / mean["orin"],
        "vs_gscore": 1.0 - mean["neo"] / mean["gscore"],
    }
