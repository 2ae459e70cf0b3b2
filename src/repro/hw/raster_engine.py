"""Pipelined model of Neo's Rasterization Engine (paper section 5.4, Fig. 14).

Each Rasterization Core pairs Intersection Test Units (ITUs) with Subtile
Compute Units (SCUs).  Subtiles are processed in groups: while the SCUs
alpha-blend group *g*, the ITUs already compute the intersection bitmaps of
group *g+1*, hiding the latency of on-the-fly bitmap generation (the
traffic-free alternative to GSCore's precomputed bitmaps).

The model reproduces the Fig. 14 timeline exactly: for a tile with groups
``g_0..g_{n-1}``, total latency is

    itu(g_0) + sum_i max(scu(g_i), itu(g_{i+1}))  + scu tail,

i.e. a two-stage pipeline whose throughput is set by the slower stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import NeoConfig

#: ITU cycles to test one Gaussian against one subtile group (bounding-box
#: clamp + distance compare per subtile, fully parallel across the group).
ITU_CYCLES_PER_GAUSSIAN = 1.0

#: SCU cycles to blend one Gaussian into one subtile it intersects
#: (8x8 pixels through a 16-lane MAC array -> 4 cycles/subtile).
SCU_CYCLES_PER_HIT = 4.0


@dataclass(frozen=True)
class SubtileGroupWork:
    """Work arriving at one subtile group of a tile.

    Attributes
    ----------
    gaussians:
        Gaussians whose bitmaps this group must test (the tile's list
        length, possibly truncated by early termination).
    hits:
        (Gaussian, subtile) intersections the SCUs actually blend.
    """

    gaussians: int
    hits: int


@dataclass
class TileTimeline:
    """Cycle accounting for one tile's pipelined rasterization."""

    total_cycles: float = 0.0
    itu_cycles: float = 0.0
    scu_cycles: float = 0.0
    itu_idle_cycles: float = 0.0
    scu_stall_cycles: float = 0.0

    @property
    def pipeline_efficiency(self) -> float:
        """SCU busy share of the tile's total latency (1.0 = fully hidden ITU)."""
        if self.total_cycles <= 0:
            return 0.0
        return self.scu_cycles / self.total_cycles


def rasterize_tile_timeline(
    groups: list[SubtileGroupWork],
    itu_cycles_per_gaussian: float = ITU_CYCLES_PER_GAUSSIAN,
    scu_cycles_per_hit: float = SCU_CYCLES_PER_HIT,
) -> TileTimeline:
    """Simulate the ITU/SCU pipeline over one tile's subtile groups."""
    timeline = TileTimeline()
    if not groups:
        return timeline

    itu_times = [g.gaussians * itu_cycles_per_gaussian for g in groups]
    scu_times = [g.hits * scu_cycles_per_hit for g in groups]
    timeline.itu_cycles = sum(itu_times)
    timeline.scu_cycles = sum(scu_times)

    # Stage 1 (ITU) feeds stage 2 (SCU); group g's blending cannot start
    # before its bitmaps are ready, and the single SCU bank processes
    # groups in order.
    itu_done = 0.0
    scu_done = 0.0
    for itu_t, scu_t in zip(itu_times, scu_times):
        itu_start = itu_done
        itu_done = itu_start + itu_t
        scu_start = max(itu_done, scu_done)
        timeline.scu_stall_cycles += max(itu_done - scu_done, 0.0) if scu_done > 0 else 0.0
        scu_done = scu_start + scu_t
    timeline.total_cycles = scu_done
    timeline.itu_idle_cycles = max(scu_done - timeline.itu_cycles, 0.0)
    return timeline


def groups_for_tile(
    num_gaussians: int,
    subtile_hits: int,
    config: NeoConfig | None = None,
) -> list[SubtileGroupWork]:
    """Split a tile's work into SCU-group units.

    A 64 px tile contains ``(64/8)^2 = 64`` subtiles processed in groups of
    ``scu_per_core``; intersections are spread evenly across groups (the
    hardware's round-robin routing approximates this).
    """
    cfg = config or NeoConfig()
    subtiles = (cfg.tile_size // cfg.subtile_size) ** 2
    num_groups = max(subtiles // cfg.scu_per_core, 1)
    hits_per_group = subtile_hits / num_groups
    return [
        SubtileGroupWork(gaussians=num_gaussians, hits=int(round(hits_per_group)))
        for _ in range(num_groups)
    ]


def _empty_f64() -> np.ndarray:
    return np.empty(0, dtype=np.float64)


@dataclass
class RasterEngineReport:
    """Frame-level aggregate over all tiles and cores.

    Per-tile cycle accounting is stored as flat arrays over the frame's
    *active* (nonempty) tiles, in tile order — the tile-stream layout used
    across the pipeline.
    """

    total_cycles: float = 0.0
    tiles: int = 0
    scu_cycles: float = 0.0
    itu_cycles: float = 0.0
    tile_total_cycles: np.ndarray = field(default_factory=_empty_f64)
    tile_itu_cycles: np.ndarray = field(default_factory=_empty_f64)
    tile_scu_cycles: np.ndarray = field(default_factory=_empty_f64)
    tile_itu_idle_cycles: np.ndarray = field(default_factory=_empty_f64)
    tile_scu_stall_cycles: np.ndarray = field(default_factory=_empty_f64)

    @classmethod
    def from_timelines(
        cls,
        timelines: list[TileTimeline],
        total_cycles: float,
        tiles: int,
        scu_cycles: float,
        itu_cycles: float,
    ) -> "RasterEngineReport":
        """Package per-tile timelines into a report (reference/compat path)."""
        return cls(
            total_cycles=total_cycles,
            tiles=tiles,
            scu_cycles=scu_cycles,
            itu_cycles=itu_cycles,
            tile_total_cycles=np.array([t.total_cycles for t in timelines]),
            tile_itu_cycles=np.array([t.itu_cycles for t in timelines]),
            tile_scu_cycles=np.array([t.scu_cycles for t in timelines]),
            tile_itu_idle_cycles=np.array([t.itu_idle_cycles for t in timelines]),
            tile_scu_stall_cycles=np.array([t.scu_stall_cycles for t in timelines]),
        )

    @property
    def mean_pipeline_efficiency(self) -> float:
        """Average SCU-busy share across tiles."""
        n = self.tile_total_cycles.shape[0]
        if n == 0:
            return 0.0
        # Elementwise share then a strictly sequential sum, replicating the
        # historical ``sum(t.pipeline_efficiency for t in timelines) / len``.
        busy = self.tile_total_cycles > 0
        eff = np.divide(
            self.tile_scu_cycles,
            self.tile_total_cycles,
            out=np.zeros(n, dtype=np.float64),
            where=busy,
        )
        return float(np.add.accumulate(eff)[-1]) / n


@dataclass
class RasterEngineSim:
    """Frame-level Rasterization Engine simulator.

    Tiles are distributed round-robin across ``raster_cores``; each core
    runs its tiles' ITU/SCU pipelines back to back.
    """

    config: NeoConfig = field(default_factory=NeoConfig)

    def simulate_frame(
        self, tile_gaussians: list[int], tile_hits: list[int]
    ) -> RasterEngineReport:
        """Simulate one frame.

        All tiles advance through the ITU/SCU pipeline recurrence together:
        the per-tile subtile groups carry identical work (round-robin
        routing), so the whole frame is ``num_groups`` elementwise steps over
        flat per-tile arrays instead of a Python timeline per tile.  Sums and
        the pipeline recurrence replay the scalar arithmetic operation for
        operation, so the report is bit-identical to the frozen per-tile loop
        preserved in :func:`repro.hw.reference.scalar_raster_engine_frame`.

        Parameters
        ----------
        tile_gaussians:
            Per-tile list length walked by the ITUs.
        tile_hits:
            Per-tile (Gaussian, subtile) intersections blended by the SCUs.
        """
        if len(tile_gaussians) != len(tile_hits):
            raise ValueError("tile_gaussians and tile_hits must align")
        cfg = self.config
        g_all = np.asarray(tile_gaussians, dtype=np.float64)
        h_all = np.asarray(tile_hits, dtype=np.float64)

        report = RasterEngineReport()
        active = np.flatnonzero(g_all > 0)
        if active.shape[0] == 0:
            return report

        subtiles = (cfg.tile_size // cfg.subtile_size) ** 2
        num_groups = max(subtiles // cfg.scu_per_core, 1)
        # Per-group work, identical across a tile's groups (groups_for_tile):
        # ``int(round(hits / num_groups))`` blended hits, all Gaussians tested.
        itu_t = g_all[active] * ITU_CYCLES_PER_GAUSSIAN
        scu_t = np.rint(h_all[active] / num_groups) * SCU_CYCLES_PER_HIT

        n = active.shape[0]
        itu_sum = np.zeros(n)
        scu_sum = np.zeros(n)
        itu_done = np.zeros(n)
        scu_done = np.zeros(n)
        stall = np.zeros(n)
        for _ in range(num_groups):
            itu_sum = itu_sum + itu_t
            scu_sum = scu_sum + scu_t
            itu_done = itu_done + itu_t
            stall = stall + np.where(
                scu_done > 0, np.maximum(itu_done - scu_done, 0.0), 0.0
            )
            scu_done = np.maximum(itu_done, scu_done) + scu_t

        report.tile_total_cycles = scu_done
        report.tile_itu_cycles = itu_sum
        report.tile_scu_cycles = scu_sum
        report.tile_itu_idle_cycles = np.maximum(scu_done - itu_sum, 0.0)
        report.tile_scu_stall_cycles = stall
        report.tiles = n
        # Sequential accumulation mirrors the scalar ``+=`` tile loop.
        report.scu_cycles = float(np.add.accumulate(scu_sum)[-1])
        report.itu_cycles = float(np.add.accumulate(itu_sum)[-1])

        cores = active % cfg.raster_cores
        core_time = [0.0] * cfg.raster_cores
        for core in range(cfg.raster_cores):
            mine = scu_done[cores == core]
            if mine.shape[0]:
                core_time[core] = float(np.add.accumulate(mine)[-1])
        report.total_cycles = max(core_time) if core_time else 0.0
        return report
