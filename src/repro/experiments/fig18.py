"""Fig. 18 — ablation: GSCore -> Neo-S (Sorting Engine) -> full Neo.

Adding Neo's Sorting Engine to a GSCore-style pipeline (Neo-S) enables
reuse-and-update sorting and delivers the bulk of the traffic cut and a
~3.3x speedup; without Rasterization-Engine support, though, depth/valid-bit
refresh costs a separate random-access post-processing pass.  Integrating
the Rasterization Engine (full Neo) removes that pass for a further ~1.7x
speedup and ~36 % traffic cut.
"""

from __future__ import annotations

import numpy as np

from ..scene.datasets import TANKS_AND_TEMPLES
from .engine import ExperimentPlan, SimJob
from .runner import ExperimentResult

VARIANTS = ("gscore", "neo-s", "neo")

DESCRIPTION = "Ablation: speedup and DRAM traffic normalized to GSCore"


def plan(
    scenes=TANKS_AND_TEMPLES,
    resolution: str = "qhd",
    num_frames: int | None = None,
) -> ExperimentPlan:
    """Declare the (variant, scene) ablation grid."""
    cells = tuple(
        SimJob(variant, scene, resolution, frames=num_frames)
        for variant in VARIANTS
        for scene in scenes
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(name="fig18", description=DESCRIPTION)
        latency: dict[str, float] = {}
        traffic: dict[str, float] = {}
        for variant in VARIANTS:
            lat, gb = [], []
            for scene in scenes:
                report = reports[SimJob(variant, scene, resolution, frames=num_frames)]
                lat.append(report.mean_latency_s)
                gb.append(report.total_traffic.total / report.num_frames)
            latency[variant] = float(np.mean(lat))
            traffic[variant] = float(np.mean(gb))
        for variant in VARIANTS:
            result.rows.append(
                {
                    "variant": variant,
                    "speedup_vs_gscore": latency["gscore"] / latency[variant],
                    "relative_traffic": traffic[variant] / traffic["gscore"],
                }
            )
        return result

    return ExperimentPlan("fig18", DESCRIPTION, cells, aggregate)
