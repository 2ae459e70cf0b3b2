"""Sweep execution: evaluate grid points, in parallel, through the cache.

One :class:`~repro.sweeps.spec.SweepPoint` evaluates to one flat metrics
row:

* **hardware side** — the point's scene + trajectory is captured into a
  :class:`~repro.hw.workload.WorkloadModel` (culling + projection only) and
  fed to the configured system model, yielding FPS / latency / DRAM-traffic
  columns;
* **functional side** (``measure_quality``) — the scene is rendered through
  the point's sorting strategy and compared frame-by-frame against the
  exact-sort reference, yielding PSNR / SSIM / sorting-traffic columns.

Point evaluation is a pure function of the point's parameters, so rows are
cached in the ``sweeps`` namespace of the
:class:`~repro.runtime.cache.ResultCache` and the executor only dispatches
cache misses.  Execution goes through the same core as the figure drivers —
:func:`repro.experiments.engine.execute_cells` — which dedupes identical
points, probes the cache, fans misses out through
:func:`repro.runtime.parallel.parallel_map`, and merges in deterministic
grid order.  Workload captures and reference renders are additionally
memoized per process, so points that share a (scene, trajectory) pair don't
repeat the geometry work within a run; scenes come from
:func:`~repro.scene.datasets.load_scene`'s own memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from ..core.strategies import make_strategy
from ..experiments.engine import execute_cells
from ..experiments.runner import build_system_model
from ..hw.config import DramConfig
from ..hw.workload import WorkloadModel
from ..metrics.image import psnr, ssim
from ..pipeline.renderer import Renderer
from ..runtime.cache import ResultCache, code_version
from ..scene.datasets import archetype_trajectory, load_scene, scene_spec
from .report import SweepReport
from .spec import SweepPoint, SweepSpec


# ----------------------------------------------------------------------
# Per-process memoization of shared intermediates
# ----------------------------------------------------------------------
@lru_cache(maxsize=8)
def _workload_model(
    scene: str,
    num_gaussians: int | None,
    trajectory: str,
    speed: float,
    frames: int,
    width: int,
    height: int,
) -> WorkloadModel:
    cameras = archetype_trajectory(
        scene, trajectory, num_frames=frames, speed=speed, width=width, height=height
    )
    return WorkloadModel.from_render(
        load_scene(scene, num_gaussians=num_gaussians),
        cameras,
        nominal_gaussians=scene_spec(scene).nominal_gaussians,
        scene_name=scene,
    )


@lru_cache(maxsize=4)
def _reference_images(
    scene: str,
    num_gaussians: int | None,
    trajectory: str,
    speed: float,
    frames: int,
    width: int,
    height: int,
) -> tuple[np.ndarray, ...]:
    """Exact-sort renders all strategies at this point are judged against."""
    cameras = archetype_trajectory(
        scene, trajectory, num_frames=frames, speed=speed, width=width, height=height
    )
    renderer = Renderer(load_scene(scene, num_gaussians=num_gaussians))
    return tuple(record.image for record in renderer.render_sequence(cameras))


# ----------------------------------------------------------------------
# Point evaluation
# ----------------------------------------------------------------------
def evaluate_point(point: SweepPoint) -> dict[str, Any]:
    """Compute one grid point's metrics row (pure, deterministic)."""
    hw = point.hardware
    wm = _workload_model(
        point.scene,
        point.num_gaussians,
        point.trajectory,
        point.speed,
        point.frames,
        point.capture_width,
        point.capture_height,
    )
    model, tile = build_system_model(
        hw.system, dram=DramConfig(bandwidth_gbps=hw.bandwidth_gbps), cores=hw.cores
    )
    workloads = wm.sequence_workloads(hw.resolution, tile)
    seq = model.simulate(workloads, scene=point.scene)
    row: dict[str, Any] = {
        "point": point.label,
        "scene": point.scene,
        "num_gaussians": point.num_gaussians,
        "trajectory": point.trajectory,
        "speed": float(point.speed),
        "strategy": point.strategy,
        "system": hw.system,
        "resolution": hw.resolution,
        "bandwidth_gbps": float(hw.bandwidth_gbps),
        "cores": int(hw.cores),
        "frames": int(point.frames),
        "fps": float(seq.fps),
        "mean_latency_ms": float(seq.mean_latency_s * 1e3),
        "traffic_gb_60f": float(seq.traffic_gb_for(60)),
        "sorting_traffic_frac": float(seq.total_traffic.fractions()["sorting"]),
        "mean_visible": float(np.mean([w.visible for w in workloads])),
        "mean_pairs": float(np.mean([w.pairs for w in workloads])),
        "mean_churn_frac": float(np.mean([w.churn_fraction for w in workloads[1:]]))
        if len(workloads) > 1
        else 0.0,
    }

    if point.measure_quality:
        cameras = archetype_trajectory(
            point.scene,
            point.trajectory,
            num_frames=point.frames,
            speed=point.speed,
            width=point.render_width,
            height=point.render_height,
        )
        strategy = make_strategy(point.strategy)
        scene = load_scene(point.scene, num_gaussians=point.num_gaussians)
        records = Renderer(scene, strategy=strategy).render_sequence(cameras)
        references = _reference_images(
            point.scene,
            point.num_gaussians,
            point.trajectory,
            point.speed,
            point.frames,
            point.render_width,
            point.render_height,
        )
        psnrs = [psnr(ref, rec.image) for ref, rec in zip(references, records)]
        ssims = [ssim(ref, rec.image) for ref, rec in zip(references, records)]
        traffic = strategy.total_traffic()
        row.update(
            {
                "mean_psnr_db": float(np.mean(psnrs)),
                "min_psnr_db": float(np.min(psnrs)),
                "mean_ssim": float(np.mean(ssims)),
                "func_sort_mb": float(traffic.total_bytes / 1e6),
            }
        )
    return row


# ----------------------------------------------------------------------
# Grid execution
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """A sweep's report plus execution provenance (not serialized).

    The report itself is a pure function of (spec, code version); hit/miss
    counts and wall time describe *this* execution and are reported on
    stdout only, so cold, warm, serial and parallel runs all produce
    byte-identical report files.
    """

    report: SweepReport
    hits: int
    misses: int
    elapsed_s: float

    @property
    def all_cached(self) -> bool:
        """True when every point was served from the result cache."""
        return self.misses == 0


@dataclass
class SweepRunner:
    """Executes sweep specs as a thin client of the shared execution core.

    :func:`~repro.experiments.engine.execute_cells` does the heavy lifting —
    dedup of identical points, cache probe, parallel fan-out of the misses,
    deterministic grid-order merge — exactly as it does for the figure
    drivers' simulation cells.

    Parameters
    ----------
    jobs:
        Worker processes for cache-miss evaluation; ``1`` runs in-process.
    cache:
        Result cache consulted per point, or ``None`` to recompute
        everything.
    """

    jobs: int = 1
    cache: ResultCache | None = field(default_factory=ResultCache)

    def run(self, spec: SweepSpec) -> SweepOutcome:
        """Execute every grid point and aggregate rows in grid order."""
        points = spec.points()
        batch = execute_cells(points, evaluate_point, jobs=self.jobs, cache=self.cache)

        report = SweepReport(
            name=spec.name,
            description=spec.description,
            spec=spec.to_dict(),
            code_version=code_version(),
            rows=list(batch.values),
        )
        return SweepOutcome(
            report=report,
            hits=batch.hits,
            misses=batch.computed,
            elapsed_s=batch.elapsed_s,
        )
