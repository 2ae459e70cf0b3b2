"""Fig. 10 — software-only Neo (Neo-SW) on the Orin AGX GPU.

Section 4.5: running reuse-and-update sorting as CUDA kernels cuts DRAM
traffic substantially (>70 % overall, >80 % in the sorting stage) but buys
only ~1.1x end-to-end latency, because the irregular insertion/deletion
kernels are SIMD-hostile and rasterization still dominates GPU runtime —
the motivation for a hardware-software co-design.
"""

from __future__ import annotations

import numpy as np

from ..scene.datasets import TANKS_AND_TEMPLES
from .engine import ExperimentPlan, SimJob
from .runner import PAPER_TRAFFIC_FRAMES, ExperimentResult

VARIANTS = (("orin", "original-3dgs"), ("orin-neo-sw", "neo-sw"))

DESCRIPTION = "Original 3DGS vs software-only Neo on Orin AGX (QHD)"


def plan(
    scenes=TANKS_AND_TEMPLES,
    resolution: str = "qhd",
    num_frames: int | None = None,
) -> ExperimentPlan:
    """Declare the (variant, scene) GPU grid for the Neo-SW study."""
    cells = tuple(
        SimJob(system, scene, resolution, frames=num_frames)
        for system, _ in VARIANTS
        for scene in scenes
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(name="fig10", description=DESCRIPTION)
        for system, label in VARIANTS:
            latency, feature, sorting, raster = [], [], [], []
            for scene in scenes:
                report = reports[SimJob(system, scene, resolution, frames=num_frames)]
                latency.append(report.mean_latency_s * 1e3)
                scale = PAPER_TRAFFIC_FRAMES / report.num_frames / 1e9
                total = report.total_traffic
                feature.append(total.feature_extraction * scale)
                sorting.append(total.sorting * scale)
                raster.append(total.rasterization * scale)
            total_gb = float(np.mean(feature) + np.mean(sorting) + np.mean(raster))
            result.rows.append(
                {
                    "variant": label,
                    "latency_ms": float(np.mean(latency)),
                    "feature_gb": float(np.mean(feature)),
                    "sorting_gb": float(np.mean(sorting)),
                    "raster_gb": float(np.mean(raster)),
                    "total_gb": total_gb,
                }
            )
        return result

    return ExperimentPlan("fig10", DESCRIPTION, cells, aggregate)


def summary(result: ExperimentResult) -> dict[str, float]:
    """Headline ratios: traffic reductions and end-to-end speedup."""
    base = result.filter(variant="original-3dgs")[0]
    neo_sw = result.filter(variant="neo-sw")[0]
    return {
        "traffic_reduction": 1.0 - neo_sw["total_gb"] / base["total_gb"],
        "sorting_traffic_reduction": 1.0 - neo_sw["sorting_gb"] / base["sorting_gb"],
        "speedup": base["latency_ms"] / neo_sw["latency_ms"],
    }
