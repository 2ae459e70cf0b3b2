"""Orin AGX edge-GPU performance model (roofline style).

The GPU executes the reference 3DGS pipeline: culling + feature extraction
kernels, CUB radix sort over the duplicated (tile|depth key, Gaussian ID)
stream, and the tile-based alpha-blending CUDA kernel.  The model charges
per-stage DRAM traffic and takes each stage's time as the maximum of its
memory service time and its compute time (stages run back-to-back on the
GPU; no cross-stage overlap).

With ``neo_software=True`` the model reproduces the Neo-SW study of
section 4.5 / Fig. 10: the sorting stage switches to the reuse-and-update
algorithm (table streamed once per frame, small incoming tables) which cuts
sorting traffic by >80 %, but the insertion/deletion steps have irregular
access patterns that cap SIMD efficiency, so sorting becomes compute-bound
and the stage speedup saturates near 1.5x; rasterization is untouched and
still dominates GPU runtime.

The per-sequence loop lives in :class:`~repro.hw.system.SystemModel`; this
module supplies only the GPU's equations, vectorized over the frame axis.

Calibration constants (``_BLEND_RATE``, ``_SORT_SW_RATE``, ...) are fitted
to the paper's measured Orin numbers (Figs. 10, 15, 16) and documented
inline; the *structure* (what is read/written how many times) follows the
reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GpuConfig
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

#: Achievable fraction of peak DRAM bandwidth for the GPU's mostly-streaming
#: kernels (CUB is heavily optimized; scattered tile gathers lower the mix).
_GPU_DRAM_EFFICIENCY = 0.85

#: Mean blended pixels a (Gaussian, tile) pair touches before early
#: termination, as a fraction of the tile area.  Splats at paper scale are
#: larger than a 16 px tile, so a processed pair touches most of the tile.
_BLEND_TILE_COVERAGE = 0.5

#: Front-most Gaussians per 16 px tile processed before transmittance
#: saturates (calibrated so rasterization time matches Fig. 10's 63.5 ms
#: at QHD: the paper reports rasterization as 68.8 % of GPU runtime).
_TERMINATION_DEPTH_16 = 250

#: Effective blend throughput (blended pixels/s).  Orin's SMs sustain far
#: below peak FP32 on this kernel due to alpha-blend serialization and
#: divergence; fitted to Orin's measured FPS (Fig. 15).
_BLEND_RATE = 6.0e9

#: Feature-extraction compute rate (Gaussians/s): projection + SH eval.
_FEATURE_RATE = 3.0e9

#: Pair throughput of the Neo-SW merge/insert/delete path (pairs/s);
#: irregular accesses limit SIMD lanes, capping the sorting-stage speedup
#: near the paper's 1.54x.
_SORT_SW_RATE = 2.6e9


@dataclass
class OrinGpuModel(SystemModel):
    """Performance model of the NVIDIA Orin AGX baseline.

    Parameters
    ----------
    config:
        GPU parameters (bandwidth, radix passes, tile size).
    neo_software:
        Run the sorting stage with the software Neo algorithm (Fig. 10).
    """

    config: GpuConfig = field(default_factory=GpuConfig)
    neo_software: bool = False
    name: str = "orin-agx"

    def __post_init__(self) -> None:
        if self.neo_software:
            self.name = "orin-agx-neo-sw"

    # ------------------------------------------------------------------
    def batch_traffic(self, batch: FrameBatch) -> TrafficBatch:
        """DRAM bytes per stage for every frame in the batch."""
        cfg = self.config
        visible = batch.visible
        total = batch.num_gaussians
        pairs = batch.pairs

        feature = (
            visible * FEATURE_3D_BYTES
            + (total - visible) * CULL_PROBE_BYTES
            + visible * FEATURE_2D_BYTES
        )

        if self.neo_software:
            # Reuse-and-update in software: stream the table once
            # (read + write) and handle the small incoming tables.
            entry = 8  # 32-bit ID + 32-bit depth
            sorting = 2 * pairs * entry + 2 * batch.incoming_pairs * entry
        else:
            # Duplication writes the (key, value) stream once; each radix
            # pass reads and writes it in full.
            entry = cfg.sort_entry_bytes
            sorting = pairs * entry * (1 + 2 * cfg.sort_passes)

        blended = batch.effective_pairs(_TERMINATION_DEPTH_16)
        raster = blended * FEATURE_2D_BYTES + batch.pixels * PIXEL_BYTES
        return TrafficBatch(
            feature_extraction=feature, sorting=sorting, rasterization=raster
        )

    # ------------------------------------------------------------------
    def batch_report(self, batch: FrameBatch) -> ReportBatch:
        """Latency and traffic per frame (stages execute sequentially)."""
        cfg = self.config
        traffic = self.batch_traffic(batch)
        bandwidth = cfg.bandwidth_gbps * 1e9 * _GPU_DRAM_EFFICIENCY

        feature_time = np.maximum(
            traffic.feature_extraction / bandwidth,
            batch.num_gaussians / _FEATURE_RATE,
        )

        if self.neo_software:
            sort_compute = batch.pairs / _SORT_SW_RATE
        else:
            sort_compute = 0.0  # CUB radix is bandwidth-bound on Orin
        sort_time = np.maximum(traffic.sorting / bandwidth, sort_compute)

        blended = batch.effective_pairs(_TERMINATION_DEPTH_16)
        blend_pixels = blended * (cfg.tile_size**2) * _BLEND_TILE_COVERAGE
        raster_time = np.maximum(traffic.rasterization / bandwidth, blend_pixels / _BLEND_RATE)

        memory_time = (
            traffic.feature_extraction + traffic.sorting + traffic.rasterization
        ) / bandwidth
        compute_residual = (feature_time + sort_time + raster_time) - memory_time
        return ReportBatch(
            traffic=traffic,
            memory_time_s=memory_time,
            compute_time_s=np.maximum(compute_residual, 0.0),
        )


# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------
@register_system(
    "orin",
    description="NVIDIA Orin AGX edge GPU running the reference 3DGS pipeline",
    model_cls=OrinGpuModel,
    config_cls=GpuConfig,
    dram_policy="native",
)
def _build_orin(dram=None, cores: int = 16, **kwargs) -> OrinGpuModel:
    """The GPU always runs at Orin's native bandwidth (``dram`` ignored)."""
    return OrinGpuModel(**kwargs)


register_variant(
    "orin-neo-sw",
    base="orin",
    description="Fig. 10 study: Neo's reuse-and-update sorting as CUDA kernels",
    overrides={"neo_software": True},
)
