"""End-to-end 3DGS renderer: culling -> features -> sorting -> rasterization.

The sorting stage is pluggable so Neo's reuse-and-update strategies (and the
periodic / background / hierarchical baselines in :mod:`repro.core`) can be
swapped in without touching the rest of the pipeline.  Each rendered frame
also yields a :class:`FrameStats` workload snapshot consumed by the hardware
performance models in :mod:`repro.hw`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..scene.camera import Camera
from ..scene.gaussians import GaussianScene
from .culling import CullingResult, frustum_cull
from .projection import ProjectedGaussians, project_gaussians
from .rasterizer import NEO_SUBTILE_SIZE, RasterResult, rasterize
from .sorting import SortedTiles, sort_tiles
from .tiling import GPU_TILE_SIZE, TileAssignment, TileGrid, assign_to_tiles


@runtime_checkable
class SortStrategy(Protocol):
    """Interface for pluggable sorting-stage implementations.

    A strategy sees each frame's tile assignment and returns depth-sorted
    per-tile lists; stateful strategies (Neo) also receive rasterization
    feedback (valid bits / refreshed depths) afterwards.
    """

    def sort_frame(self, assignment: TileAssignment, frame_index: int) -> SortedTiles:
        """Produce per-tile orderings for this frame."""
        ...

    def observe_raster(
        self, frame_index: int, sorted_tiles: SortedTiles, raster: RasterResult
    ) -> None:
        """Receive post-rasterization feedback (may be a no-op)."""
        ...


class ExactSortStrategy:
    """Baseline: re-sort every tile from scratch each frame (reference 3DGS)."""

    name = "exact"

    def sort_frame(self, assignment: TileAssignment, frame_index: int) -> SortedTiles:
        return sort_tiles(assignment)

    def observe_raster(
        self, frame_index: int, sorted_tiles: SortedTiles, raster: RasterResult
    ) -> None:
        return None


@dataclass
class FrameStats:
    """Per-frame workload statistics for the hardware models.

    Attributes
    ----------
    frame_index:
        Position in the rendered sequence.
    num_gaussians:
        Scene size before culling.
    num_visible:
        Gaussians surviving culling and projection validity checks.
    num_pairs:
        Tile-Gaussian pairs after duplication (the sorting workload).
    occupancy:
        Per-tile Gaussian counts.
    blend_ops / subtile_tests / subtile_hits / gaussians_processed:
        Rasterization counters (see :class:`RasterStats`); ``blend_ops``
        is the bbox pixels the scalar loop evaluates (the hardware model's
        workload), not the alpha evaluations the level-major core performs.
    """

    frame_index: int
    num_gaussians: int
    num_visible: int
    num_pairs: int
    occupancy: np.ndarray
    blend_ops: int
    subtile_tests: int
    subtile_hits: int
    gaussians_processed: int

    @property
    def mean_occupancy(self) -> float:
        """Mean Gaussians per nonempty tile."""
        nonzero = self.occupancy[self.occupancy > 0]
        return float(nonzero.mean()) if nonzero.size else 0.0


@dataclass
class StageTimings:
    """Wall-clock seconds each pipeline stage spent on one frame.

    Collected unconditionally — six ``perf_counter`` reads per frame are
    noise next to any stage — and consumed by ``repro bench``, which needs
    a per-stage attribution of where a sequence's time went.  ``feedback_s``
    is the sorting strategy's post-raster step (Neo's valid bits and
    deferred depth update).
    """

    cull_s: float = 0.0
    project_s: float = 0.0
    tile_s: float = 0.0
    sort_s: float = 0.0
    raster_s: float = 0.0
    feedback_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Sum over the instrumented stages."""
        return (
            self.cull_s
            + self.project_s
            + self.tile_s
            + self.sort_s
            + self.raster_s
            + self.feedback_s
        )

    def merge(self, other: "StageTimings") -> None:
        """Accumulate another frame's stage times into this total."""
        self.cull_s += other.cull_s
        self.project_s += other.project_s
        self.tile_s += other.tile_s
        self.sort_s += other.sort_s
        self.raster_s += other.raster_s
        self.feedback_s += other.feedback_s

    def as_dict(self) -> dict[str, float]:
        """Stage-name -> seconds mapping (JSON-friendly)."""
        return {
            "cull_s": self.cull_s,
            "project_s": self.project_s,
            "tile_s": self.tile_s,
            "sort_s": self.sort_s,
            "raster_s": self.raster_s,
            "feedback_s": self.feedback_s,
            "total_s": self.total_s,
        }


def aggregate_timings(records: list["FrameRecord"]) -> StageTimings:
    """Sum per-stage timings over a rendered sequence."""
    total = StageTimings()
    for record in records:
        total.merge(record.timings)
    return total


@dataclass
class FrameRecord:
    """Everything produced while rendering one frame."""

    camera: Camera
    culling: CullingResult
    projected: ProjectedGaussians
    assignment: TileAssignment
    sorted_tiles: SortedTiles
    raster: RasterResult
    stats: FrameStats
    timings: StageTimings = field(default_factory=StageTimings)

    @property
    def image(self) -> np.ndarray:
        """The rendered RGB image."""
        return self.raster.image


@dataclass
class Renderer:
    """Configured 3DGS rendering pipeline for one scene.

    Parameters
    ----------
    scene:
        The Gaussian scene to render.
    tile_size:
        Tile edge in pixels (16 for GPU-style, 64 for Neo's accelerator).
    subtile_size:
        ITU subtile edge; ``None`` disables subtile testing.
    background:
        RGB background composited under the splats.
    strategy:
        Sorting strategy; defaults to exact per-frame sorting.
    """

    scene: GaussianScene
    tile_size: int = GPU_TILE_SIZE
    subtile_size: int | None = NEO_SUBTILE_SIZE
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    strategy: SortStrategy = field(default_factory=ExactSortStrategy)

    def render(self, camera: Camera, frame_index: int = 0) -> FrameRecord:
        """Render one frame and return the full record."""
        t0 = time.perf_counter()
        culling = frustum_cull(self.scene, camera)
        t1 = time.perf_counter()
        projected = project_gaussians(self.scene, camera, culling.visible_ids)
        t2 = time.perf_counter()
        grid = TileGrid.for_camera(camera, self.tile_size)
        assignment = assign_to_tiles(projected, grid)
        t3 = time.perf_counter()
        sorted_tiles = self.strategy.sort_frame(assignment, frame_index)
        t4 = time.perf_counter()
        raster = rasterize(
            sorted_tiles,
            projected,
            grid,
            background=self.background,
            subtile_size=self.subtile_size,
        )
        t5 = time.perf_counter()
        self.strategy.observe_raster(frame_index, sorted_tiles, raster)
        t6 = time.perf_counter()
        timings = StageTimings(
            cull_s=t1 - t0,
            project_s=t2 - t1,
            tile_s=t3 - t2,
            sort_s=t4 - t3,
            raster_s=t5 - t4,
            feedback_s=t6 - t5,
        )
        stats = FrameStats(
            frame_index=frame_index,
            num_gaussians=len(self.scene),
            num_visible=len(projected),
            num_pairs=assignment.num_pairs,
            occupancy=assignment.occupancy(),
            blend_ops=raster.stats.blend_ops,
            subtile_tests=raster.stats.subtile_tests,
            subtile_hits=raster.stats.subtile_hits,
            gaussians_processed=raster.stats.gaussians_processed,
        )
        return FrameRecord(
            camera=camera,
            culling=culling,
            projected=projected,
            assignment=assignment,
            sorted_tiles=sorted_tiles,
            raster=raster,
            stats=stats,
            timings=timings,
        )

    def render_sequence(self, cameras: list[Camera]) -> list[FrameRecord]:
        """Render a camera trajectory, threading frame indices through."""
        return [self.render(camera, frame_index=i) for i, camera in enumerate(cameras)]
