"""Fig. 5 — DRAM traffic breakdown for GPU-based 3DGS and GSCore.

Traffic to render 60 frames at HD/FHD/QHD, broken down by pipeline stage.
Key claim: sorting dominates — up to ~91 % of GPU traffic and ~69 % of
GSCore traffic at QHD.
"""

from __future__ import annotations

from ..scene.datasets import TANKS_AND_TEMPLES
from .engine import ExperimentPlan, SimJob
from .runner import PAPER_TRAFFIC_FRAMES, ExperimentResult

RESOLUTIONS = ("hd", "fhd", "qhd")
SYSTEMS = ("orin", "gscore")

DESCRIPTION = "DRAM traffic breakdown (GB / 60 frames): GPU vs GSCore"


def plan(scenes=TANKS_AND_TEMPLES, num_frames: int | None = None) -> ExperimentPlan:
    """Declare the (system, resolution, scene) grid for the traffic study."""
    cells = tuple(
        SimJob(system, scene, resolution, frames=num_frames)
        for system in SYSTEMS
        for resolution in RESOLUTIONS
        for scene in scenes
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(name="fig05", description=DESCRIPTION)
        for system in SYSTEMS:
            for resolution in RESOLUTIONS:
                feature = sorting = raster = 0.0
                for scene in scenes:
                    report = reports[SimJob(system, scene, resolution, frames=num_frames)]
                    scale = PAPER_TRAFFIC_FRAMES / report.num_frames / 1e9
                    total = report.total_traffic
                    feature += total.feature_extraction * scale
                    sorting += total.sorting * scale
                    raster += total.rasterization * scale
                n = len(scenes)
                feature, sorting, raster = feature / n, sorting / n, raster / n
                total_gb = feature + sorting + raster
                result.rows.append(
                    {
                        "system": system,
                        "resolution": resolution,
                        "feature_gb": feature,
                        "sorting_gb": sorting,
                        "raster_gb": raster,
                        "total_gb": total_gb,
                        "sorting_share": sorting / total_gb if total_gb else 0.0,
                    }
                )
        return result

    return ExperimentPlan("fig05", DESCRIPTION, cells, aggregate)
