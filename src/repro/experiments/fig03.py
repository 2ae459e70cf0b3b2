"""Fig. 3 — GSCore throughput vs. resolution (motivation).

GSCore with the paper's original 4-core / 51.2 GB/s edge configuration.
The paper puts it above the 60 FPS SLO at HD, collapsing at FHD and QHD;
this driver gives 35.6-45.8 FPS at HD across the six scenes.
"""

from __future__ import annotations

from ..scene.datasets import TANKS_AND_TEMPLES
from .engine import ExperimentPlan, SimJob
from .runner import ExperimentResult

RESOLUTIONS = ("hd", "fhd", "qhd")

DESCRIPTION = "GSCore throughput (FPS) at HD/FHD/QHD, 4 cores @ 51.2 GB/s"


def plan(
    scenes=TANKS_AND_TEMPLES,
    num_frames: int | None = None,
    cores: int = 4,
    bandwidth_gbps: float = 51.2,
) -> ExperimentPlan:
    """Declare the (scene, resolution) GSCore grid plus its aggregation."""
    cells = tuple(
        SimJob(
            "gscore",
            scene,
            resolution,
            frames=num_frames,
            cores=cores,
            bandwidth_gbps=bandwidth_gbps,
        )
        for scene in scenes
        for resolution in RESOLUTIONS
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(name="fig03", description=DESCRIPTION)
        for job in cells:
            result.rows.append(
                {"scene": job.scene, "resolution": job.resolution, "fps": reports[job].fps}
            )
        return result

    return ExperimentPlan("fig03", DESCRIPTION, cells, aggregate)
