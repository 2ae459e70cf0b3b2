"""Extension experiment: sensitivity to DRAM bandwidth.

The flip side of Neo's traffic reduction (not a numbered figure, but the
direct consequence of section 6.2's claim that Neo "can perform computations
without being bottlenecked by the bandwidth constraints"): sweeping the
memory system across the 17.8-59.7 GB/s practical on-device range cited in
section 3.2 and beyond, Neo reaches the 60 FPS SLO at a fraction of the
bandwidth GSCore would need — GSCore stays memory-bound and sub-real-time
even at 4x the edge budget.

.. note::
   Since the sweep subsystem landed, this driver is a thin wrapper over
   :mod:`repro.sweeps`: it declares the bandwidth axis as a
   :class:`~repro.sweeps.spec.SweepSpec` hardware grid, executes it through
   the :class:`~repro.sweeps.executor.SweepRunner` (reusing the active
   :class:`~repro.experiments.runner.RunnerConfig` cache), and pivots the
   per-system rows back into this experiment's historical one-row-per-
   bandwidth schema.
"""

from __future__ import annotations

from ..scene.datasets import MILL19, scene_spec
from .engine import ExperimentPlan
from .runner import ExperimentResult, get_runner_config, resolve_frames

BANDWIDTHS_GBPS = (17.8, 25.6, 38.4, 51.2, 76.8, 102.4, 204.8)

DESCRIPTION = "FPS vs DRAM bandwidth: Neo saturates, GSCore stays memory-bound"


def plan(
    scene: str = "family",
    resolution: str = "qhd",
    num_frames: int | None = None,
    bandwidths=BANDWIDTHS_GBPS,
) -> ExperimentPlan:
    """No engine cells: delegates to the sweep executor (same shared core).

    The sweep's point grid is built inside ``aggregate`` because its frame
    count and cache come from the :class:`~repro.experiments.runner.
    RunnerConfig` active at *execution* time, not at plan-build time.
    """

    def aggregate(_cells) -> ExperimentResult:
        from ..sweeps import HardwareConfig, SweepRunner, SweepSpec

        resolved = scene_spec(scene).name  # resolve case like the pre-sweep driver did
        spec = SweepSpec(
            name="bandwidth_sweep",
            description=DESCRIPTION,
            scenes=(resolved,),
            trajectories=("flythrough",) if resolved in MILL19 else ("orbit",),
            strategies=("neo",),
            hardware=tuple(
                HardwareConfig(
                    system=system, resolution=resolution, bandwidth_gbps=bandwidth
                )
                for bandwidth in bandwidths
                for system in ("neo", "gscore")
            ),
            frames=resolve_frames(num_frames),
            measure_quality=False,
        )
        sweep = SweepRunner(jobs=1, cache=get_runner_config().cache).run(spec).report

        result = ExperimentResult(name=spec.name, description=spec.description)
        for bandwidth in bandwidths:
            neo = sweep.filter(system="neo", bandwidth_gbps=float(bandwidth))[0]
            gscore = sweep.filter(system="gscore", bandwidth_gbps=float(bandwidth))[0]
            result.rows.append(
                {
                    "bandwidth_gbps": bandwidth,
                    "neo_fps": neo["fps"],
                    "gscore_fps": gscore["fps"],
                    "neo_realtime": neo["fps"] >= 60.0,
                }
            )
        return result

    return ExperimentPlan("bandwidth_sweep", DESCRIPTION, (), aggregate)


def realtime_bandwidth(result: ExperimentResult, system: str = "neo", slo_fps: float = 60.0) -> float:
    """Smallest swept bandwidth at which ``system`` meets the FPS SLO.

    Returns infinity if the system never reaches the SLO in the sweep.
    """
    key = f"{system}_fps"
    for row in sorted(result.rows, key=lambda r: r["bandwidth_gbps"]):
        if row[key] >= slo_fps:
            return row["bandwidth_gbps"]
    return float("inf")
