"""Fig. 17 — extreme AR/VR scenarios: large scenes and rapid camera motion.

(a) Mill-19 Building / Rubble aerial scenes at QHD: Neo sustains >60 FPS
    while Orin and GSCore fall far below.
(b) Camera speed-ups of 2-16x on Tanks-and-Temples: Gaussian reusability
    drops but Neo stays above the 60 FPS SLO.
"""

from __future__ import annotations

import numpy as np

from ..scene.datasets import MILL19, TANKS_AND_TEMPLES
from .engine import ExperimentPlan, SimJob
from .runner import ExperimentResult

SPEEDS = (1.0, 2.0, 4.0, 8.0, 16.0)
SYSTEMS = ("orin", "gscore", "neo")

DESCRIPTION = "Extreme AR/VR scenarios: large scenes and rapid motion"


def plan_large_scenes(
    scenes=MILL19, resolution: str = "qhd", num_frames: int | None = None
) -> ExperimentPlan:
    """Fig. 17(a): per-system cells on the large-scale aerial scenes."""
    cells = tuple(
        SimJob(system, scene, resolution, frames=num_frames)
        for scene in scenes
        for system in SYSTEMS
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(
            name="fig17a",
            description="Large-scale scenes (Mill-19) at QHD: FPS per system",
        )
        for scene in scenes:
            row = {"scene": scene}
            for system in SYSTEMS:
                row[system] = reports[SimJob(system, scene, resolution, frames=num_frames)].fps
            result.rows.append(row)
        return result

    return ExperimentPlan("fig17a", "Large-scale scenes (Mill-19) at QHD: FPS per system",
                          cells, aggregate)


def plan_camera_speed(
    scene: str = "family",
    resolution: str = "qhd",
    num_frames: int | None = None,
    speeds=SPEEDS,
) -> ExperimentPlan:
    """Fig. 17(b): Neo cells at increasing camera-speed multipliers."""
    if scene not in TANKS_AND_TEMPLES:
        raise ValueError(f"expected a Tanks-and-Temples scene, got {scene!r}")
    cells = tuple(
        SimJob("neo", scene, resolution, frames=num_frames, speed=speed) for speed in speeds
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(
            name="fig17b",
            description="Neo QHD FPS under rapid camera movement (speed multipliers)",
        )
        for job in cells:
            report = reports[job]
            churn = float(np.mean([f.traffic.sorting for f in report.frames[1:]]))
            result.rows.append(
                {
                    "speed": job.speed,
                    "fps": report.fps,
                    "mean_sorting_bytes": churn,
                }
            )
        return result

    return ExperimentPlan(
        "fig17b",
        "Neo QHD FPS under rapid camera movement (speed multipliers)",
        cells,
        aggregate,
    )


def plan(num_frames: int | None = None) -> ExperimentPlan:
    """Both panels as one plan (sub-plan composition; rows tagged by panel).

    Panel (a) rows carry per-system FPS on the large scenes; panel (b)
    rows carry Neo's FPS at each camera-speed multiplier.

    The merged cell list is the union of the panels' cells, so panel (a)
    dedupes against fig15/fig16's Mill-19-free grids only via the engine,
    while panel (b)'s speed-1 Neo cell is shared with any default-speed
    experiment on the same scene.
    """
    panel_a = plan_large_scenes(num_frames=num_frames)
    panel_b = plan_camera_speed(num_frames=num_frames)
    cells = panel_a.cells + panel_b.cells

    def aggregate(reports) -> ExperimentResult:
        merged = ExperimentResult(name="fig17", description=DESCRIPTION)
        for row in panel_a.aggregate(reports).rows:
            merged.rows.append(
                {
                    "panel": "a",
                    "case": row["scene"],
                    "orin": row["orin"],
                    "gscore": row["gscore"],
                    "neo": row["neo"],
                }
            )
        for row in panel_b.aggregate(reports).rows:
            merged.rows.append(
                {
                    "panel": "b",
                    "case": f"speed x{row['speed']:g}",
                    "orin": "-",
                    "gscore": "-",
                    "neo": row["fps"],
                }
            )
        return merged

    return ExperimentPlan("fig17", DESCRIPTION, cells, aggregate)
