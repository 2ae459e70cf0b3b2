"""Fig. 4 — GSCore QHD throughput across core counts and DRAM bandwidths.

The motivation study: at edge bandwidth (51.2 GB/s) quadrupling the cores
buys only ~1.1x FPS, while quadrupling bandwidth at 16 cores approaches 4x —
high-resolution 3DGS is memory-bound.
"""

from __future__ import annotations

import numpy as np

from ..scene.datasets import TANKS_AND_TEMPLES
from .engine import ExperimentPlan, SimJob
from .runner import ExperimentResult

CORE_COUNTS = (4, 8, 16)
BANDWIDTHS_GBPS = (51.2, 102.4, 204.8)

DESCRIPTION = "GSCore QHD FPS vs. core count and DRAM bandwidth"


def plan(scenes=TANKS_AND_TEMPLES, num_frames: int | None = None) -> ExperimentPlan:
    """Declare the (bandwidth, cores, scene) GSCore grid at QHD."""
    cells = tuple(
        SimJob(
            "gscore",
            scene,
            "qhd",
            frames=num_frames,
            cores=cores,
            bandwidth_gbps=bandwidth,
        )
        for bandwidth in BANDWIDTHS_GBPS
        for cores in CORE_COUNTS
        for scene in scenes
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(name="fig04", description=DESCRIPTION)
        for bandwidth in BANDWIDTHS_GBPS:
            for cores in CORE_COUNTS:
                fps = [
                    reports[
                        SimJob(
                            "gscore",
                            scene,
                            "qhd",
                            frames=num_frames,
                            cores=cores,
                            bandwidth_gbps=bandwidth,
                        )
                    ].fps
                    for scene in scenes
                ]
                result.rows.append(
                    {
                        "bandwidth_gbps": bandwidth,
                        "cores": cores,
                        "fps": float(np.mean(fps)),
                    }
                )
        return result

    return ExperimentPlan("fig04", DESCRIPTION, cells, aggregate)


def core_scaling_at(result: ExperimentResult, bandwidth_gbps: float) -> float:
    """FPS ratio from 4 to 16 cores at a given bandwidth."""
    rows = result.filter(bandwidth_gbps=bandwidth_gbps)
    by_cores = {row["cores"]: row["fps"] for row in rows}
    return by_cores[16] / by_cores[4]


def bandwidth_scaling_at(result: ExperimentResult, cores: int) -> float:
    """FPS ratio from 51.2 to 204.8 GB/s at a given core count."""
    rows = [r for r in result.rows if r["cores"] == cores]
    by_bw = {row["bandwidth_gbps"]: row["fps"] for row in rows}
    return by_bw[204.8] / by_bw[51.2]
