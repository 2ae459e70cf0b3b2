"""Neo accelerator performance model (paper section 5).

Three engines process frames in a tile-pipelined fashion:

* **Preprocessing Engine** — culling, feature extraction, duplication with
  the incoming-Gaussian verification step;
* **Sorting Engine** — 16 Sorting Cores running Dynamic Partial Sorting on
  the reused per-tile tables plus conventional sorting of the (small)
  incoming tables; each table entry crosses the off-chip interface once per
  direction per frame;
* **Rasterization Engine** — 4 cores x 4 ITU/SCU with on-the-fly subtile
  bitmaps and the deferred depth update folded into the feature fetch.

Latency = max(DRAM service time, slowest engine's compute time) + a small
serial overhead, reflecting the deeply pipelined design: in every evaluated
configuration Neo is memory-bound, which is why cutting sorting traffic
translates almost 1:1 into frame time.

The per-sequence loop lives in :class:`~repro.hw.system.SystemModel`; this
module supplies only Neo's traffic/latency equations, vectorized over the
frame axis of a :class:`~repro.hw.system.FrameBatch`.

Ablations (Fig. 18):

* ``sorting_engine_only=True`` (**Neo-S**) — the Sorting Engine is attached
  to a GSCore-style rasterizer: reuse-and-update works, but depth/valid-bit
  refresh needs a separate post-processing pass with per-Gaussian *random*
  DRAM reads, and subtile bitmaps are still materialized and propagated.
* ``defer_depth_update=False`` — keep Neo's rasterizer but fetch fresh
  depths eagerly each frame (the +33.2 % traffic variant of section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DramConfig, NeoConfig
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

#: Gaussian-table entry bytes (32-bit ID with valid bit + 32-bit depth).
_ENTRY_BYTES = 8

#: Front-most Gaussians per 64 px tile before transmittance saturates.  A
#: 64 px tile holds 16x the pixels of GSCore's 16 px tile, so proportionally
#: more front splats are needed to cover all its subtiles.
_TERMINATION_DEPTH_64 = 1000

#: DRAM efficiency for Neo's almost fully streaming access pattern.
_DRAM_EFFICIENCY = 0.82

#: Burst size charged for the Neo-S ablation's random per-Gaussian depth
#: fetches (one LPDDR4 burst each).
_RANDOM_BURST_BYTES = 32

#: Bandwidth efficiency of that random-access pass.
_RANDOM_EFFICIENCY = 0.35

#: Subtile bitmap bytes per pair for the Neo-S ablation (64 subtiles in a
#: 64 px tile -> 8 bytes), written at preprocessing and read at raster.
_BITMAP_BYTES_64 = 8

#: SCU cycles per blended pair (subtile blend inner loop).
_RASTER_CYCLES_PER_PAIR = 16.0

#: Preprocessing cycles per scene Gaussian per unit.
_PREPROC_CYCLES_PER_GAUSSIAN = 1.0

#: Per-frame serial overhead (engine drain, table pointer swap).
_SERIAL_OVERHEAD_S = 0.8e-3

#: Off-chip passes charged for a from-scratch sort on the first frame.
_INIT_SORT_PASSES = 2


def network_stages(width: int) -> int:
    """Number of stages in a bitonic network over ``width = 2^k`` inputs.

    The network has ``k(k+1)/2`` stages, and the BSU evaluates one stage per
    cycle.

    >>> network_stages(16)
    10
    """
    if width < 1 or width & (width - 1):
        raise ValueError(f"width must be a power of two, got {width}")
    k = width.bit_length() - 1
    return k * (k + 1) // 2


def sort_cycles_per_entry(config: NeoConfig) -> float:
    """Sorting Core cycles per table entry of one full chunk.

    The BSU sorts ``ceil(chunk / bsu_width)`` runs at one network stage per
    cycle; the MSU+ then tree-merges the runs, retiring one entry per cycle
    per merge level (``ceil(log2 runs)`` levels).  Table 1's 256-entry chunk
    on a 16-wide BSU takes 16 x 10 + 4 x 256 = 1184 cycles, 4.625 per entry.
    """
    runs = -(-config.chunk_size // config.bsu_width)
    bsu = runs * network_stages(config.bsu_width)
    merge = (runs - 1).bit_length() * config.chunk_size
    return (bsu + merge) / config.chunk_size


@dataclass
class NeoModel(SystemModel):
    """Performance model of the Neo accelerator.

    Parameters
    ----------
    config:
        Hardware configuration (Table 1).
    dram:
        Off-chip memory parameters.
    sorting_engine_only:
        Model the Neo-S ablation (no Rasterization Engine support).
    defer_depth_update:
        Disable to model the eager depth-refresh ablation.
    """

    config: NeoConfig = field(default_factory=NeoConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    sorting_engine_only: bool = False
    defer_depth_update: bool = True
    name: str = "neo"

    def __post_init__(self) -> None:
        # Auto-name only the canonical ablations; a variant's custom name
        # (e.g. "neo-lite") survives its overlay flags.
        if self.sorting_engine_only and self.name == "neo":
            self.name = "neo-s"
        elif not self.defer_depth_update and self.name == "neo":
            self.name = "neo-eager-depth"

    # ------------------------------------------------------------------
    def _traffic_split(self, batch: FrameBatch) -> tuple[TrafficBatch, np.ndarray]:
        """(streamed stage traffic, random-access bytes) per frame."""
        visible = batch.visible
        total = batch.num_gaussians
        pairs = batch.pairs

        feature = (
            visible * FEATURE_3D_BYTES
            + (total - visible) * CULL_PROBE_BYTES
            + visible * FEATURE_2D_BYTES
        )

        # Frame 0 cold-starts with a conventional sort of every tile from
        # scratch; later frames run Dynamic Partial Sorting — one read + one
        # write of the table, plus the small incoming tables (written by
        # preprocessing, read back and merged by the Sorting Engine).
        cold = pairs * _ENTRY_BYTES * (1 + 2 * _INIT_SORT_PASSES)
        warm = 2 * pairs * _ENTRY_BYTES + 2 * batch.incoming_pairs * _ENTRY_BYTES
        sorting = np.where(batch.frame_index == 0, cold, warm)

        random_bytes = np.zeros_like(pairs)
        if self.sorting_engine_only:
            # Post-processing pass: each visible Gaussian's refreshed depth
            # is gathered from the feature table (random, one burst each)
            # and the per-tile table metadata is rewritten.
            random_bytes = visible * _RANDOM_BURST_BYTES
            sorting = sorting + pairs * _ENTRY_BYTES
        elif not self.defer_depth_update:
            # Eager refresh: an extra streamed read+write of the table
            # (section 4.4 reports +33.2 % traffic without deferral).
            sorting = sorting + 2 * pairs * _ENTRY_BYTES

        blended = batch.effective_pairs(_TERMINATION_DEPTH_64)
        raster = blended * FEATURE_2D_BYTES + batch.pixels * PIXEL_BYTES
        if self.sorting_engine_only:
            # GSCore-style rasterizer: bitmaps materialized and re-read.
            raster = raster + 2 * pairs * _BITMAP_BYTES_64

        streamed = TrafficBatch(
            feature_extraction=feature, sorting=sorting, rasterization=raster
        )
        return streamed, random_bytes

    def batch_traffic(self, batch: FrameBatch) -> TrafficBatch:
        """DRAM bytes per stage per frame (streamed component)."""
        streamed, _random = self._traffic_split(batch)
        return streamed

    # ------------------------------------------------------------------
    def batch_report(self, batch: FrameBatch) -> ReportBatch:
        """Latency and traffic for every frame in the batch."""
        streamed, random_bytes = self._traffic_split(batch)
        peak = self.dram.bandwidth_gbps * 1e9
        memory_time = streamed.total / (peak * _DRAM_EFFICIENCY)
        memory_time = memory_time + random_bytes / (peak * _RANDOM_EFFICIENCY)

        freq = self.config.frequency_ghz * 1e9
        preproc_time = (
            batch.num_gaussians
            * _PREPROC_CYCLES_PER_GAUSSIAN
            / (self.config.projection_units * freq)
        )
        sort_time = (
            batch.pairs
            * sort_cycles_per_entry(self.config)
            / (self.config.sorting_cores * freq)
        )
        blended = batch.effective_pairs(_TERMINATION_DEPTH_64)
        raster_time = blended * _RASTER_CYCLES_PER_PAIR / (self.config.total_scus * freq)
        compute_time = np.maximum(np.maximum(preproc_time, sort_time), raster_time)

        # Include random bytes in the sorting stage for reporting purposes.
        traffic = TrafficBatch(
            feature_extraction=streamed.feature_extraction,
            sorting=streamed.sorting + random_bytes,
            rasterization=streamed.rasterization,
        )
        return ReportBatch(
            traffic=traffic,
            memory_time_s=np.maximum(memory_time, compute_time) + _SERIAL_OVERHEAD_S,
            compute_time_s=np.zeros_like(memory_time),
        )


# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------
@register_system(
    "neo",
    description="Neo accelerator: Dynamic Partial Sorting + deferred depth update",
    model_cls=NeoModel,
    config_cls=NeoConfig,
    dram_policy="edge",
)
def _build_neo(dram=None, cores: int = 16, **kwargs) -> NeoModel:
    """Neo takes the caller's DRAM config; cores are fixed by its config."""
    if dram is None:
        dram = DramConfig()
    return NeoModel(dram=dram, **kwargs)


register_variant(
    "neo-s",
    base="neo",
    description="Fig. 18 ablation: Sorting Engine on a GSCore-style rasterizer",
    overrides={"sorting_engine_only": True},
)

register_variant(
    "neo-eager-depth",
    base="neo",
    description="Section 4.4 ablation: eager per-frame depth refresh (+33% sort traffic)",
    overrides={"defer_depth_update": False},
)

register_variant(
    "neo-lite",
    base="neo",
    description="Cost-down Neo: half the Sorting Cores, 2 Rasterization Cores",
    overrides={
        "config": NeoConfig(sorting_cores=8, raster_cores=2),
        "name": "neo-lite",
    },
)
