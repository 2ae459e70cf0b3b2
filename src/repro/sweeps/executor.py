"""Sweep execution: grid points compile to engine cells.

A :class:`~repro.sweeps.spec.SweepPoint` is no unit of work of its own.
Its hardware half is a :class:`~repro.experiments.engine.SimJob` (FPS,
latency and DRAM-traffic columns) and, when the spec measures quality, its
functional half is a :class:`~repro.experiments.engine.QualityJob` (PSNR,
SSIM and functional sorting-traffic columns).  One
:func:`~repro.experiments.engine.execute_cells` call dedupes, caches and
fans out every point's cells, exactly as it does for the figure drivers;
points that differ only in strategy share their ``SimJob``.  The rows are
built in grid order in the parent.  Their workload columns read the capture
memo (:func:`~repro.experiments.runner.get_workload_model`) that
``SimJob.simulate`` fills.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..experiments import runner
from ..experiments.engine import QualityJob, SimJob, evaluate_cell, execute_cells
from ..runtime.cache import ResultCache, code_version
from .report import SweepReport
from .spec import SweepPoint, SweepSpec


def point_cells(point: SweepPoint) -> list:
    """The engine cells a grid point compiles to.

    Its :class:`SimJob`, then its :class:`QualityJob` when the point
    measures quality.
    """
    hw = point.hardware
    cells: list = [
        SimJob(
            hw.system,
            point.scene,
            hw.resolution,
            frames=point.frames,
            speed=point.speed,
            cores=hw.cores,
            bandwidth_gbps=hw.bandwidth_gbps,
            trajectory=point.trajectory,
            num_gaussians=point.num_gaussians,
            capture_width=point.capture_width,
            capture_height=point.capture_height,
        )
    ]
    if point.measure_quality:
        cells.append(
            QualityJob(
                point.scene,
                point.num_gaussians,
                point.trajectory,
                point.speed,
                point.strategy,
                point.frames,
                point.render_width,
                point.render_height,
            )
        )
    return cells


def _row(point: SweepPoint, job: SimJob, seq) -> dict[str, Any]:
    """A point's parameter, hardware and workload columns."""
    hw = point.hardware
    _, tile = runner.build_system_model(job.system, cores=job.cores)
    workloads = runner.get_workload_model(*job.capture_key()).sequence_workloads(
        job.resolution, tile
    )
    return {
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


def _quality_columns(value: dict[str, Any]) -> dict[str, float]:
    """A point's quality columns from its :meth:`QualityJob.measure` value."""
    return {
        "mean_psnr_db": float(np.mean(value["psnr_db"])),
        "min_psnr_db": float(np.min(value["psnr_db"])),
        "mean_ssim": float(np.mean(value["ssim"])),
        "func_sort_mb": value["func_sort_mb"],
    }


@dataclass
class SweepOutcome:
    """A sweep's report plus execution provenance (not serialized).

    The report itself is a pure function of (spec, code version); hit/miss
    counts (of distinct cells, not points) and wall time describe *this*
    execution and are reported on stdout only, so cold, warm, serial and
    parallel runs all produce byte-identical report files.
    """

    report: SweepReport
    hits: int
    misses: int
    elapsed_s: float

    @property
    def all_cached(self) -> bool:
        """True when every cell was served from the result cache."""
        return self.misses == 0


@dataclass
class SweepRunner:
    """Executes sweep specs as a thin client of the shared execution core.

    Parameters
    ----------
    jobs:
        Worker processes for cache-miss evaluation; ``1`` runs in-process.
    cache:
        Result cache consulted per cell, or ``None`` to recompute
        everything.
    """

    jobs: int = 1
    cache: ResultCache | None = field(default_factory=ResultCache)

    def run(self, spec: SweepSpec) -> SweepOutcome:
        """Execute every grid point's cells and build rows in grid order."""
        start = time.perf_counter()
        points = spec.points()
        cells = [point_cells(point) for point in points]
        batch = execute_cells(
            [cell for group in cells for cell in group],
            evaluate_cell,
            jobs=self.jobs,
            cache=self.cache,
        )
        values = iter(batch.values)
        rows = []
        for point, (job, *quality) in zip(points, cells):
            row = _row(point, job, next(values))
            if quality:
                row.update(_quality_columns(next(values)))
            rows.append(row)
        report = SweepReport(
            name=spec.name,
            description=spec.description,
            spec=spec.to_dict(),
            code_version=code_version(),
            rows=rows,
        )
        return SweepOutcome(
            report=report,
            hits=batch.hits,
            misses=batch.computed,
            elapsed_s=time.perf_counter() - start,
        )
