"""GSCore ASIC performance model (Lee et al., ASPLOS 2024 — the baseline).

GSCore accelerates 3DGS with hierarchical sorting (a coarse depth-bucketing
pass followed by fine sorting within buckets) and subtile-based
rasterization.  Relative to the GPU it slashes sorting traffic (one coarse
off-chip re-pass instead of the GPU's repeated radix passes) and rasterization compute
(dedicated subtile units), but it still *re-sorts from scratch every frame*
and it materializes subtile bitmaps early in the pipeline and propagates
them to rasterization — the two inefficiencies Neo removes.

Latency model: DRAM service time for the frame's traffic plus the
non-overlapped compute component, where compute scales inversely with the
core count (Fig. 4's behaviour: at 51.2 GB/s, 4x the cores buys only ~1.12x
FPS because memory time dominates).

The per-sequence loop lives in :class:`~repro.hw.system.SystemModel`; this
module supplies only GSCore's equations, vectorized over the frame axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DramConfig, GSCoreConfig
from .stages import (
    CULL_PROBE_BYTES,
    FEATURE_2D_BYTES,
    FEATURE_3D_BYTES,
    PIXEL_BYTES,
)
from .system import (
    FrameBatch,
    ReportBatch,
    SystemModel,
    TrafficBatch,
    register_system,
    register_variant,
)

#: Sort-entry bytes (32-bit key, 32-bit Gaussian ID).
_ENTRY_BYTES = 8

#: Subtile bitmap bytes per pair, generated at duplication time and carried
#: through the pipeline (the traffic Neo's on-the-fly ITUs eliminate).
_BITMAP_BYTES = 4

#: Front-most Gaussians per 16 px tile processed before early termination.
_TERMINATION_DEPTH_16 = 250

#: Achievable DRAM efficiency: GSCore's mix of streaming sort traffic and
#: per-tile gathers lands below pure-streaming efficiency.
_DRAM_EFFICIENCY = 0.72

#: Rasterization cycles per blended pair per core at 1 GHz; fitted to the
#: core-count scaling of Fig. 4 (compute is ~56 ms across 4 cores at QHD).
_RASTER_CYCLES_PER_PAIR = 16.0

#: Sorting-unit cycles per pair per core (bitonic + merge, heavily
#: parallel).
_SORT_CYCLES_PER_PAIR = 0.25

#: Per-tile pipeline drain overhead (cycles): tile setup, bucket
#: boundary handling, output flush.
_CYCLES_PER_TILE = 800.0

#: Fixed per-frame serial overhead (kernel launch/drain, table setup).
_SERIAL_OVERHEAD_S = 1.0e-3


@dataclass
class GSCoreModel(SystemModel):
    """Performance model of the (16-core-scaled) GSCore accelerator."""

    config: GSCoreConfig = field(default_factory=GSCoreConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    name: str = "gscore"

    # ------------------------------------------------------------------
    def batch_traffic(self, batch: FrameBatch) -> TrafficBatch:
        """DRAM bytes per stage for every frame in the batch."""
        visible = batch.visible
        total = batch.num_gaussians
        pairs = batch.pairs

        feature = (
            visible * FEATURE_3D_BYTES
            + (total - visible) * CULL_PROBE_BYTES
            + visible * FEATURE_2D_BYTES
        )
        # Duplication writes the stream once; each hierarchical pass
        # (coarse bucketing; fine sorting stays on-chip per bucket chunk)
        # reads and writes it again.
        sorting = pairs * _ENTRY_BYTES * (1 + 2 * self.config.sorting_passes)
        # Bitmaps are produced during preprocessing and re-read by the
        # rasterizer (write + read).
        bitmap_traffic = 2 * pairs * _BITMAP_BYTES

        blended = batch.effective_pairs(_TERMINATION_DEPTH_16)
        raster = (
            blended * FEATURE_2D_BYTES
            + bitmap_traffic
            + batch.pixels * PIXEL_BYTES
        )
        return TrafficBatch(
            feature_extraction=feature, sorting=sorting, rasterization=raster
        )

    # ------------------------------------------------------------------
    def batch_report(self, batch: FrameBatch) -> ReportBatch:
        """Latency and traffic for every frame in the batch."""
        traffic = self.batch_traffic(batch)
        bandwidth = self.dram.bandwidth_gbps * 1e9 * _DRAM_EFFICIENCY
        memory_time = traffic.total / bandwidth

        freq = self.config.frequency_ghz * 1e9
        cores = self.config.cores
        blended = batch.effective_pairs(_TERMINATION_DEPTH_16)
        raster_cycles = blended * _RASTER_CYCLES_PER_PAIR
        raster_cycles = raster_cycles + batch.nonempty_tiles * _CYCLES_PER_TILE
        sort_cycles = batch.pairs * _SORT_CYCLES_PER_PAIR
        compute_time = (raster_cycles + sort_cycles) / (cores * freq) + _SERIAL_OVERHEAD_S

        return ReportBatch(
            traffic=traffic,
            memory_time_s=memory_time,
            compute_time_s=compute_time,
        )


# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------
@register_system(
    "gscore",
    description="GSCore ASIC baseline: hierarchical re-sort each frame, 16 cores",
    model_cls=GSCoreModel,
    config_cls=GSCoreConfig,
    dram_policy="edge",
)
def _build_gscore(dram=None, cores: int = 16, config=None, **kwargs) -> GSCoreModel:
    """GSCore honors the ``cores`` knob unless a full config is supplied.

    Config-pinning variants (``gscore-32c``) reject a *conflicting* explicit
    core count instead of silently ignoring it — a cores sweep over a
    pinned-core variant would otherwise produce identical rows under
    different labels and cache keys.  The global default (16) is treated as
    "unspecified" because every caller materializes it.
    """
    if dram is None:
        dram = DramConfig()
    if config is None:
        config = GSCoreConfig(cores=cores)
    elif cores != 16 and cores != config.cores:
        raise ValueError(
            f"this system pins {config.cores} cores; got cores={cores} — "
            "sweep core counts on the base 'gscore' system instead"
        )
    return GSCoreModel(config=config, dram=dram, **kwargs)


register_variant(
    "gscore-32c",
    base="gscore",
    description="GSCore scaled to 32 cores: compute headroom, same memory wall",
    overrides={"config": GSCoreConfig(cores=32), "name": "gscore-32c"},
)
