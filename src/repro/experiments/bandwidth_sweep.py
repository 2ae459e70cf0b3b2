"""Extension experiment: sensitivity to DRAM bandwidth.

The flip side of Neo's traffic reduction (not a numbered figure, but the
direct consequence of section 6.2's claim that Neo "can perform computations
without being bottlenecked by the bandwidth constraints"): sweeping the
memory system across the 17.8-59.7 GB/s practical on-device range cited in
section 3.2 and beyond, Neo reaches the 60 FPS SLO at a fraction of the
bandwidth GSCore would need — GSCore stays memory-bound and sub-real-time
even at 4x the edge budget.
"""

from __future__ import annotations

from ..scene.datasets import scene_spec
from .engine import ExperimentPlan, SimJob
from .runner import ExperimentResult

BANDWIDTHS_GBPS = (17.8, 25.6, 38.4, 51.2, 76.8, 102.4, 204.8)

DESCRIPTION = "FPS vs DRAM bandwidth: Neo saturates, GSCore stays memory-bound"


def plan(
    scene: str = "family",
    resolution: str = "qhd",
    num_frames: int | None = None,
    bandwidths=BANDWIDTHS_GBPS,
) -> ExperimentPlan:
    """One Neo and one GSCore cell per swept bandwidth on ``scene``."""
    scene = scene_spec(scene).name  # accept any case of the preset name

    def job(system: str, bandwidth: float) -> SimJob:
        return SimJob(system, scene, resolution, frames=num_frames, bandwidth_gbps=bandwidth)

    cells = tuple(
        job(system, bandwidth) for bandwidth in bandwidths for system in ("neo", "gscore")
    )

    def aggregate(reports) -> ExperimentResult:
        result = ExperimentResult(name="bandwidth_sweep", description=DESCRIPTION)
        for bandwidth in bandwidths:
            neo_fps = reports[job("neo", bandwidth)].fps
            result.rows.append(
                {
                    "bandwidth_gbps": bandwidth,
                    "neo_fps": neo_fps,
                    "gscore_fps": reports[job("gscore", bandwidth)].fps,
                    "neo_realtime": neo_fps >= 60.0,
                }
            )
        return result

    return ExperimentPlan("bandwidth_sweep", DESCRIPTION, cells, aggregate)


def realtime_bandwidth(result: ExperimentResult, system: str = "neo", slo_fps: float = 60.0) -> float:
    """Smallest swept bandwidth at which ``system`` meets the FPS SLO.

    Returns infinity if the system never reaches the SLO in the sweep.
    """
    key = f"{system}_fps"
    for row in sorted(result.rows, key=lambda r: r["bandwidth_gbps"]):
        if row[key] >= slo_fps:
            return row["bandwidth_gbps"]
    return float("inf")
