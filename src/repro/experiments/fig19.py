"""Fig. 19 — per-frame latency and quality of four sorting-reuse methods.

Compares, on Neo hardware, (1) periodic sorting, (2) background sorting,
(3) GSCore-style hierarchical sorting applied to reused tables, and (4)
Neo's Dynamic Partial Sorting:

* **latency** — per-frame sorting traffic is computed at paper scale from
  the workload model using each strategy's off-chip access pattern
  (full multi-pass sort on periodic-refresh and background frames, two
  passes for hierarchical, one reuse pass + incoming tables for Neo) and
  converted to frame time on Neo's memory system.  Periodic sorting spikes
  above the 16.6 ms / 60 FPS SLO on refresh frames; background pays the
  full sorting stream every frame; Neo stays low and flat.
* **quality** — each strategy's functional render is compared against the
  exact-sort render of the same frame (PSNR).  Periodic decays between
  refreshes, background suffers viewpoint lag, hierarchical and Neo stay
  high.  (The paper's absolute PSNR is against captured ground-truth photos,
  which synthetic scenes don't have; the method ordering is the claim.)
"""

from __future__ import annotations

import numpy as np

from ..core.strategies import (
    BackgroundSortStrategy,
    HierarchicalSortStrategy,
    NeoSortStrategy,
    PeriodicSortStrategy,
)
from ..hw.stages import FEATURE_2D_BYTES, FEATURE_3D_BYTES, PIXEL_BYTES
from ..hw.workload import FrameWorkload
from ..metrics.image import psnr
from ..pipeline.renderer import Renderer
from ..scene.datasets import default_trajectory, load_scene
from .engine import ExperimentPlan
from .runner import ExperimentResult, get_workload_model

#: 60 FPS service-level objective from the paper (ms).
SLO_MS = 16.6

DESCRIPTION = "Latency and PSNR per frame for four sorting-reuse methods"

#: Edge memory system used for the latency conversion.
_BANDWIDTH_GBPS = 51.2
_EFFICIENCY = 0.82
_SERIAL_S = 0.8e-3

#: Gaussian-table entry bytes.
_ENTRY = 8


def _full_sort_bytes(workload: FrameWorkload, chunk_size: int = 256) -> float:
    """Off-chip bytes of a from-scratch multi-pass sort at paper scale."""
    pairs = workload.pairs
    chunks_per_tile = max(workload.mean_occupancy / chunk_size, 1.0)
    merge_levels = int(np.ceil(np.log2(chunks_per_tile))) if chunks_per_tile > 1 else 0
    return 2 * pairs * _ENTRY * (1 + merge_levels)


def _sort_bytes(method: str, workload: FrameWorkload, frame: int, period: int) -> float:
    """Per-frame sorting-stage traffic for each reuse method."""
    pairs = workload.pairs
    if method == "periodic":
        if frame % period == 0:
            return _full_sort_bytes(workload)
        return 0.0
    if method == "background":
        # The background sorter streams a full sort continuously.
        return _full_sort_bytes(workload)
    if method == "hierarchical":
        # Coarse + fine: the reused table crosses the interface twice.
        return 2 * (2 * pairs * _ENTRY) + 2 * workload.incoming_pairs * _ENTRY
    if method == "neo":
        return 2 * pairs * _ENTRY + 2 * workload.incoming_pairs * _ENTRY
    raise KeyError(method)


def _strategies(period: int, lag: int) -> dict[str, object]:
    return {
        "periodic": PeriodicSortStrategy(period=period),
        "background": BackgroundSortStrategy(lag=lag),
        "hierarchical": HierarchicalSortStrategy(),
        "neo": NeoSortStrategy(),
    }


def plan(
    scene_name: str = "family",
    num_frames: int = 24,
    width: int = 256,
    height: int = 144,
    num_gaussians: int = 2500,
    period: int = 8,
    lag: int = 2,
    resolution: str = "qhd",
) -> ExperimentPlan:
    """No simulation cells: the work is functional renders per strategy.

    Rows carry per-frame latency (ms, Neo hardware) and PSNR-vs-exact per
    method.
    """

    def aggregate(_cells) -> ExperimentResult:
        scene = load_scene(scene_name, num_gaussians=num_gaussians)
        cameras = default_trajectory(
            scene_name, num_frames=num_frames, width=width, height=height
        )
        reference = Renderer(scene).render_sequence(cameras)

        # Paper-scale workloads for the latency conversion.
        wm = get_workload_model(scene_name, num_frames)
        workloads = wm.sequence_workloads(resolution, 64)
        bandwidth = _BANDWIDTH_GBPS * 1e9 * _EFFICIENCY

        result = ExperimentResult(name="fig19", description=DESCRIPTION)
        for method, strategy in _strategies(period, lag).items():
            renderer = Renderer(scene, strategy=strategy)
            records = renderer.render_sequence(cameras)
            for i, record in enumerate(records):
                w = workloads[i]
                base_bytes = (
                    w.visible * (FEATURE_3D_BYTES + 2 * FEATURE_2D_BYTES)
                    + w.width * w.height * PIXEL_BYTES
                )
                sort_bytes = _sort_bytes(method, w, i, period)
                latency_ms = ((base_bytes + sort_bytes) / bandwidth + _SERIAL_S) * 1e3
                result.rows.append(
                    {
                        "method": method,
                        "frame": i,
                        "latency_ms": latency_ms,
                        "psnr_vs_exact": psnr(reference[i].image, record.image),
                    }
                )
        return result

    return ExperimentPlan("fig19", DESCRIPTION, (), aggregate)


def method_summary(result: ExperimentResult) -> dict[str, dict[str, float]]:
    """Mean/max latency and mean/min PSNR per method (skip warm-up frame 0)."""
    out: dict[str, dict[str, float]] = {}
    for method in ("periodic", "background", "hierarchical", "neo"):
        rows = [r for r in result.filter(method=method) if r["frame"] > 0]
        lat = np.asarray([r["latency_ms"] for r in rows])
        quality = np.asarray([r["psnr_vs_exact"] for r in rows])
        out[method] = {
            "mean_latency_ms": float(lat.mean()),
            "max_latency_ms": float(lat.max()),
            "mean_psnr": float(quality.mean()),
            "min_psnr": float(quality.min()),
            "slo_violations": int(np.count_nonzero(lat > SLO_MS)),
        }
    return out
